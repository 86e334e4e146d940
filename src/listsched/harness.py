"""Competitive-ratio measurement for online schedulers.

Everything here stays exact: ratios are quotients in the a + b*sqrt(2)
field and the greedy guarantee 2 - 1/m is checked with rational
arithmetic. Decimal strings appear only at the presentation edge,
rounded half-up to four places.
"""
from __future__ import annotations

import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .families import gen_class1, gen_class2
from .model import (
    ArrivalOrder,
    Instance,
    Time,
    _write_atomic,
    format_instance,
    format_time,
)
from .multiperm import (
    iter_permutations,
    permutation_count,
    unrank_permutation,
)
from .online import Lsa, OnlinePolicy, greedy, online_makespan
from .oracle import DEFAULT_NODE_BUDGET, OptResult, opt_exact, opt_structured

__all__ = [
    "RatioReport",
    "WorstOrderResult",
    "BoundViolation",
    "BoundCheckSummary",
    "instance_digest",
    "competitive_ratio",
    "worst_order_search",
    "Table2Row",
    "table2",
    "verify_bound",
    "export_report",
    "export_long_csv",
    "REPORT_COLUMNS",
]

REPORT_COLUMNS = (
    "m",
    "family",
    "alg_makespan",
    "opt",
    "ratio_exact",
    "ratio_4dp",
    "bound",
    "satisfied",
)


def instance_digest(instance: Instance) -> str:
    """Short content hash identifying an instance in reports."""
    import hashlib  # loaded on first use: it maps all of OpenSSL (~4 MiB)

    text = format_instance(instance)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def greedy_bound(m: int) -> Fraction:
    """The greedy guarantee 2 - 1/m as an exact fraction."""
    return Fraction(2 * m - 1, m)


@dataclass(frozen=True)
class RatioReport:
    """One measured run: makespan, optimum, exact ratio, bound check.

    When the oracle could only certify a lower bound, ratio is an upper
    estimate of the true ratio and bound_satisfied is left as None.
    """

    label: str
    m: int
    policy: str
    alg_makespan: Time
    opt: OptResult
    ratio: Time
    ratio_4dp: str
    bound_2_minus_1_over_m: str
    bound_satisfied: Optional[bool]

    @property
    def ratio_exact(self) -> str:
        return _quotient_str(self.alg_makespan, self.opt.value)


def _side_str(t: Time) -> str:
    s = format_time(t, compact=True)
    return f"({s})" if ("r2" in s or "/" in s) else s


def _quotient_str(numerator: Time, denominator: Time) -> str:
    return f"{_side_str(numerator)}/{_side_str(denominator)}"


def competitive_ratio(
    instance: Instance,
    order: Optional[ArrivalOrder] = None,
    policy: Optional[OnlinePolicy] = None,
    *,
    family_tag: Optional[str] = None,
    node_budget: Optional[int] = None,
) -> RatioReport:
    """Run the policy online and compare its makespan against the optimum.

    For instances tagged class1 or class2 an exact optimum must agree with
    the family's closed form. (LPT meets the load lower bound on both
    families at every m, so the oracle certifies their optimum at once.)
    """
    if order is None:
        order = ArrivalOrder.as_listed(instance)
    if policy is None:
        policy = Lsa()
    alg_makespan = online_makespan(instance, order, policy)
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    opt = opt_exact(instance, node_budget)
    if family_tag in ("class1", "class2") and opt.is_exact:
        analytic = opt_structured(family_tag, instance.machines)
        if opt.value != analytic:
            raise RuntimeError(
                f"oracle disagreement on {family_tag} m={instance.machines}: "
                f"search says {opt.value}, closed form says {analytic}"
            )
    ratio = alg_makespan / opt.value
    if opt.is_exact and ratio < 1:
        raise RuntimeError(
            f"ratio {ratio} below 1 against an exact optimum; "
            f"instance {instance_digest(instance)} is mis-solved"
        )
    bound = greedy_bound(instance.machines)
    satisfied: Optional[bool] = None
    if opt.is_exact:
        satisfied = ratio <= bound
    label = family_tag if family_tag is not None else instance_digest(instance)
    return RatioReport(
        label=label,
        m=instance.machines,
        policy=policy.name,
        alg_makespan=alg_makespan,
        opt=opt,
        ratio=ratio,
        ratio_4dp=ratio.decimal(4),
        bound_2_minus_1_over_m=Time(bound).decimal(4),
        bound_satisfied=satisfied,
    )


@dataclass(frozen=True)
class WorstOrderResult:
    """Outcome of searching arrival orders for the worst makespan."""

    best_order: ArrivalOrder
    worst_makespan: Time
    orders_examined: int
    exhaustive: bool


def worst_order_search(
    instance: Instance,
    policy: Optional[OnlinePolicy] = None,
    enumeration_cap: int = 1_000_000,
    seed: int = 0,
) -> WorstOrderResult:
    """Find the arrival order maximizing the policy's makespan.

    Orders that permute equal-size jobs among themselves are equivalent,
    so the search walks distinct size sequences. Up to enumeration_cap of
    them are enumerated exhaustively in lexicographic order; beyond the
    cap, exactly enumeration_cap sequences are sampled uniformly without
    replacement (deterministic for a fixed seed). Ties are broken toward
    the lexicographically smallest job-id order.
    """
    if enumeration_cap < 1:
        raise ValueError("enumeration_cap must be at least 1")
    if policy is None:
        policy = Lsa()
    # Sizes become codes 0..k-1 in increasing order: the map is monotone,
    # so lexicographic order, ranks and tie-breaks are those of the sizes.
    lanes = instance.lanes
    distinct = sorted(set(lanes.sizes.values()))
    code = {size: c for c, size in enumerate(distinct)}
    codes = [code[size] for size in lanes.sizes.values()]
    pools: list[list[int]] = [[] for _ in distinct]
    for job_id, size in sorted(lanes.sizes.items()):
        pools[code[size]].append(job_id)
    total = permutation_count(codes)
    exhaustive = total <= enumeration_cap
    if exhaustive:
        sequences = iter_permutations(codes)
    else:
        rng = random.Random(seed)
        if total <= sys.maxsize:
            ranks = rng.sample(range(total), enumeration_cap)
        else:
            # range() has no len() past sys.maxsize; with far fewer draws
            # than ranks, a repeat is rare and is simply drawn again
            ranks = set()
            while len(ranks) < enumeration_cap:
                ranks.add(rng.randrange(total))
        sequences = (unrank_permutation(codes, r) for r in sorted(ranks))

    def realize(sequence: Sequence[int]) -> tuple[int, ...]:
        # the k-th occurrence of a code takes the k-th smallest id of its pool
        taken = [iter(pool) for pool in pools]
        return tuple([next(taken[c]) for c in sequence])

    if type(policy) is Lsa:
        start, to_time = [lanes.zero] * instance.machines, lanes.time

        def makespan(sequence: Sequence[int]):
            return max(greedy(sequence, distinct, list(start), policy.high))

    else:
        to_time = Time

        def makespan(sequence: Sequence[int]):
            order = ArrivalOrder(realize(sequence))
            return online_makespan(instance, order, policy)

    best = best_ids = None
    for sequence in sequences:
        value = makespan(sequence)
        if best is None or best < value:
            best, best_ids = value, realize(sequence)
        elif value == best:
            ids = realize(sequence)
            if ids < best_ids:
                best_ids = ids
    examined = total if exhaustive else enumeration_cap
    return WorstOrderResult(
        ArrivalOrder(best_ids), to_time(best), examined, exhaustive
    )


@dataclass(frozen=True)
class Table2Row:
    m: int
    class1_ratio: str
    class2_ratio: str


def table2(machine_counts: Sequence[int]) -> list[Table2Row]:
    """Worst-order greedy-vs-optimum ratios for both structured families.

    Each row holds the two ratios rendered to four decimal places; the
    underlying arithmetic is exact.
    """
    rows = []
    for m in machine_counts:
        if m < 2:
            raise ValueError(f"machine count must be at least 2, got {m}")
        class1, class2 = (
            competitive_ratio(f.instance, f.worst_order, family_tag=f.family_tag)
            for f in (gen_class1(m), gen_class2(m))
        )
        rows.append(Table2Row(m, class1.ratio_4dp, class2.ratio_4dp))
    return rows


class BoundViolation(AssertionError):
    """The greedy guarantee failed; carries the full counterexample."""

    def __init__(self, report: RatioReport, instance: Instance, order: ArrivalOrder):
        self.report = report
        self.instance = instance
        self.order = order
        super().__init__(
            f"ratio {report.ratio} = {report.ratio_4dp} exceeds bound "
            f"{report.bound_2_minus_1_over_m} on m={report.m}\n"
            f"order: {order.permutation}\n"
            f"instance:\n{format_instance(instance)}"
        )


@dataclass(frozen=True)
class BoundCheckSummary:
    """Result of a randomized check of the greedy guarantee.

    undecided counts the trials whose optimum was only a lower bound, so
    their bound was not checked. The witness has the largest ratio among
    the decided trials, or among all trials when none was decided.
    """

    trials: int
    violations: int
    undecided: int
    witness_instance: Instance
    witness_order: ArrivalOrder
    witness_report: RatioReport


def verify_bound(
    trials: int,
    max_n: int = 12,
    max_m: int = 4,
    size_range: tuple[int, int] = (1, 9),
    seed: int = 0,
    policy: Optional[OnlinePolicy] = None,
) -> BoundCheckSummary:
    """Check the 2 - 1/m guarantee on random instances and random orders.

    Instance sizes stay small (the contract caps n at 12 and m at 4) so the
    exact oracle always finishes. Any trial whose ratio exceeds the bound
    raises BoundViolation with the serialized counterexample; for the
    default greedy policy that cannot happen unless the implementation is
    broken.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 1 <= max_n <= 12:
        raise ValueError("max_n must be between 1 and 12")
    if not 2 <= max_m <= 4:
        raise ValueError("max_m must be between 2 and 4")
    lo, hi = size_range
    if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi):
        raise ValueError("size_range must be integers with 1 <= lo <= hi")
    rng = random.Random(seed)
    # the largest ratio over decided trials, and over undecided ones
    best: dict[bool, tuple[RatioReport, Instance, ArrivalOrder]] = {}
    undecided = 0
    for _ in range(trials):
        n = rng.randint(1, max_n)
        m = rng.randint(2, max_m)
        sizes = [rng.randint(lo, hi) for _ in range(n)]
        instance = Instance.from_sizes(sizes, m)
        ids = list(instance.job_ids)
        rng.shuffle(ids)
        order = ArrivalOrder(tuple(ids))
        report = competitive_ratio(instance, order, policy)
        if report.bound_satisfied is False:
            raise BoundViolation(report, instance, order)
        decided = report.bound_satisfied is not None
        undecided += not decided
        if decided not in best or best[decided][0].ratio < report.ratio:
            best[decided] = (report, instance, order)
    report, instance, order = best.get(True) or best[False]
    return BoundCheckSummary(
        trials=trials,
        violations=0,
        undecided=undecided,
        witness_instance=instance,
        witness_order=order,
        witness_report=report,
    )


def _report_row(report: RatioReport) -> list[str]:
    satisfied = ""
    if report.bound_satisfied is not None:
        satisfied = "true" if report.bound_satisfied else "false"
    return [
        str(report.m),
        report.label,
        format_time(report.alg_makespan, compact=True),
        format_time(report.opt.value, compact=True),
        report.ratio_exact,
        report.ratio_4dp,
        report.bound_2_minus_1_over_m,
        satisfied,
    ]


def export_report(
    reports: Sequence[RatioReport],
    format: str = "csv",
    destination: Union[str, Path, None] = None,
) -> str:
    """Serialize reports as CSV or JSON; optionally write them to a file.

    Output is deterministic for fixed inputs. Files are written via a
    temporary sibling and renamed into place, so a failed write leaves no
    partial file behind.
    """
    if format == "csv":
        text = _csv_text(REPORT_COLUMNS, map(_report_row, reports))
    elif format == "json":
        payload = []
        for report in reports:
            row = _report_row(report)
            entry = dict(zip(REPORT_COLUMNS, row))
            entry["satisfied"] = report.bound_satisfied
            entry["m"] = report.m
            entry["opt_kind"] = report.opt.kind
            entry["nodes_explored"] = report.opt.nodes_explored
            entry["policy"] = report.policy
            payload.append(entry)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', not {format!r}")
    if destination is not None:
        _write_atomic(Path(destination), text)
    return text


def export_long_csv(
    reports: Sequence[RatioReport],
    destination: Union[str, Path, None] = None,
) -> str:
    """Plot-ready long format: one (m, family, ratio) row per report."""
    text = _csv_text(
        ("m", "family", "ratio"),
        ((report.m, report.label, report.ratio_4dp) for report in reports),
    )
    if destination is not None:
        _write_atomic(Path(destination), text)
    return text


def _csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A header line, then one line per row, each ended by a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
