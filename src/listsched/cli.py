"""Command-line front end for the list-scheduling workbench.

Subcommands:
  run          score one instance or family under an arrival order
  table2       worst-order ratio table for the two structured families
  verify       randomized check of the greedy 2 - 1/m guarantee
  worst-order  search arrival orders for the worst greedy makespan

Exit codes: 0 success, 1 violated invariant or bound, 2 usage/parse error.
Relative --output paths resolve against $LISTSCHED_OUTPUT_DIR when set.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional

from .families import _GENERATORS, GeneratedFamily, generate
from .harness import (
    VERIFY_MAX_M,
    VERIFY_MAX_N,
    BoundViolation,
    RatioReport,
    WorstOrderResult,
    _csv_text,
    competitive_ratio,
    export_report,
    table2,
    verify_bound,
    worst_order_search,
)
from .model import Instance, _check_count, _parse_int, _write_atomic, format_time
from .model import _SPACE, load_instance
from .online import Lsa

OUTPUT_DIR_VAR = "LISTSCHED_OUTPUT_DIR"
DEFAULT_MACHINES = (2, 3, 4, 5, 10, 50, 100)
TIE_BREAKS = {"lsa": "low", "lsa-high": "high"}


def _int(text: str) -> int:
    try:
        return _parse_int(text.strip(_SPACE))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _count(name: str, low: int, high: Optional[int] = None) -> Callable[[str], int]:
    """An option type for the library parameter `name`: an integer held to
    `model`'s count rule, whose refusal is the argparse error."""

    def parse(text: str) -> int:
        value = _int(text)
        try:
            _check_count(name, value, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


_machine_count = _count("machine count", 2)


def _machine_list(text: str) -> list[int]:
    items = [part.strip(_SPACE) for part in text.split(",") if part.strip(_SPACE)]
    if not items:
        raise argparse.ArgumentTypeError("empty machine list")
    return [_machine_count(item) for item in items]


def _given(**options: Optional[int]) -> dict[str, int]:
    # an option left unset falls through to the library's default
    return {name: value for name, value in options.items() if value is not None}


def _policy(name: str) -> Lsa:
    return Lsa(TIE_BREAKS[name])


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    destination = Path(output)
    base = os.environ.get(OUTPUT_DIR_VAR)
    if base and not destination.is_absolute():
        destination = Path(base) / destination
    destination.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(destination, text)


def _resolve_instance(
    args: argparse.Namespace,
) -> tuple[Instance, Optional[GeneratedFamily]]:
    if args.instance is not None:
        if args.m is not None:
            raise ValueError("--m applies only to --family")
        return load_instance(args.instance), None
    if args.m is None:
        raise ValueError("--family requires --m")
    family = generate(args.family, args.m)
    return family.instance, family


def _worst_order(args: argparse.Namespace, instance: Instance) -> WorstOrderResult:
    return worst_order_search(
        instance,
        _policy(args.policy),
        **_given(enumeration_cap=args.cap, seed=args.seed),
    )


def _report_text(report: RatioReport) -> str:
    satisfied = {None: "n/a (optimum not exact)", True: "yes", False: "NO"}
    lines = [
        f"family: {report.label}",
        f"machines: {report.m}",
        f"policy: {report.policy}",
        f"alg makespan: {format_time(report.alg_makespan)}",
        f"opt: {format_time(report.opt.value)} "
        f"({report.opt.kind}, {report.opt.nodes_explored} nodes)",
        f"ratio: {report.ratio_exact} = {report.ratio_4dp}",
        f"bound 2-1/m: {report.bound_2_minus_1_over_m}",
        f"bound satisfied: {satisfied[report.bound_satisfied]}",
    ]
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> int:
    if args.order != "worst":
        for option in ("cap", "seed"):
            if getattr(args, option) is not None:
                raise ValueError(f"--{option} applies only to --order worst")
    instance, family = _resolve_instance(args)
    order = None  # 'given' and 'as-listed': a family lists its adversarial order
    if args.order == "worst":
        order = _worst_order(args, instance).best_order
    tag = family.family_tag if family is not None else None
    report = competitive_ratio(
        instance,
        order,
        _policy(args.policy),
        family_tag=tag,
        **_given(node_budget=args.node_budget),
    )
    if args.format == "text":
        _emit(_report_text(report), args.output)
    else:
        _emit(export_report([report], args.format), args.output)
    if report.bound_satisfied is False:
        print("bound violated: see report above", file=sys.stderr)
        return 1
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    rows = [row._asdict() for row in table2(args.machines)]
    if args.format == "json":
        _emit(json.dumps(rows, indent=2) + "\n", args.output)
    else:
        _emit(_csv_text(rows[0].keys(), map(dict.values, rows)), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.size_min > args.size_max:
        args.usage_error(
            f"argument --size-min: must be at most --size-max ({args.size_max}), "
            f"got {args.size_min}"
        )
    summary = verify_bound(
        args.trials,
        max_n=args.max_n,
        max_m=args.max_m,
        size_range=(args.size_min, args.size_max),
        seed=args.seed,
    )
    witness = summary.witness_report
    lines = [
        f"trials: {summary.trials}",
        f"violations: {summary.violations}",
        f"max ratio: {witness.ratio_exact} = {witness.ratio_4dp} "
        f"(m={witness.m}, bound {witness.bound_2_minus_1_over_m})",
        f"witness instance: {witness.label}",
        f"witness order: {' '.join(map(str, summary.witness_order.permutation))}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    if summary.undecided:
        print(f"undecided: {summary.undecided}", file=sys.stderr)
    return 0


def cmd_worst_order(args: argparse.Namespace) -> int:
    instance, family = _resolve_instance(args)
    result = _worst_order(args, instance)
    mode = "exhaustive" if result.exhaustive else "sampled"
    lines = [
        f"orders examined: {result.orders_examined} ({mode})",
        f"worst makespan: {format_time(result.worst_makespan)}",
        f"order: {' '.join(map(str, result.best_order.permutation))}",
    ]
    if family is not None:
        lines.append(f"predicted worst makespan: {format_time(family.predicted_lsa)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _add_instance_args(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", metavar="PATH", help="instance file to load")
    source.add_argument(
        "--family",
        choices=tuple(_GENERATORS),
        help="generate a structured family instead of loading a file",
    )
    sub.add_argument("--m", type=_machine_count, help="machine count for --family")


def _add_output(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="listsched",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="score one instance under an arrival order")
    _add_instance_args(run)
    run.add_argument(
        "--order",
        choices=("given", "worst", "as-listed"),
        default="given",
        help="given = family's adversarial order or the file's listed order",
    )
    run.add_argument(
        "--policy", choices=tuple(TIE_BREAKS), default="lsa",
        help="greedy tie-break variant",
    )
    run.add_argument(
        "--format", choices=("text", "csv", "json"), default="text"
    )
    # --cap, --node-budget and --seed stay None unless given, so run can
    # refuse --cap and --seed without --order worst; the library has their
    # defaults
    run.add_argument(
        "--cap", type=_count("enumeration_cap", 1),
        help="order-search cap when --order worst (default 1000000)",
    )
    run.add_argument(
        "--node-budget", type=_count("node_budget", 0),
        help="search budget for the exact optimum",
    )
    run.add_argument(
        "--seed", type=_int, help="RNG seed when --order worst (default 0)"
    )
    _add_output(run)
    run.set_defaults(handler=cmd_run)

    t2 = sub.add_parser("table2", help="worst-order ratio table")
    t2.add_argument(
        "--machines",
        type=_machine_list,
        default=DEFAULT_MACHINES,
        help="comma-separated machine counts (default 2,3,4,5,10,50,100)",
    )
    t2.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(t2)
    t2.set_defaults(handler=cmd_table2)

    verify = sub.add_parser("verify", help="randomized bound check")
    verify.add_argument("--trials", type=_count("trials", 1), default=100)
    verify.add_argument(
        "--max-n", type=_count("max_n", 1, VERIFY_MAX_N), default=VERIFY_MAX_N
    )
    verify.add_argument(
        "--max-m", type=_count("machine count", 2, VERIFY_MAX_M), default=VERIFY_MAX_M
    )
    verify.add_argument("--size-min", type=_count("size_range lo", 1), default=1)
    verify.add_argument("--size-max", type=_count("size_range hi", 1), default=9)
    verify.add_argument("--seed", type=_int, default=0, help="RNG seed (default 0)")
    _add_output(verify)
    # verify refuses --size-min past --size-max through its own usage line
    verify.set_defaults(handler=cmd_verify, usage_error=verify.error)

    worst = sub.add_parser("worst-order", help="search for the worst arrival order")
    _add_instance_args(worst)
    worst.add_argument("--policy", choices=tuple(TIE_BREAKS), default="lsa")
    worst.add_argument("--cap", type=_count("enumeration_cap", 1))
    worst.add_argument("--seed", type=_int, help="RNG seed (default 0)")
    _add_output(worst)
    worst.set_defaults(handler=cmd_worst_order)

    return parser


# one parser per process for main; build_parser() still returns a new one
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except BoundViolation as exc:
        print(f"bound violated: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an instance file can ask for more memory than there is (families
        # are capped before they are built); MemoryError has no message
        print("error: out of memory", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
