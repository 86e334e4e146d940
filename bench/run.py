"""Benchmark for listsched: one workload, one seed, one measured run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``listsched`` from ``src/``
of that checkout and nowhere else.  The workloads, metric names, units and
directions are listed in ``BENCHMARK.json``; ``bench/workloads.py`` says how
each workload is built and checked.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` makes a separate pass with span wrappers installed and
reports the per-layer metrics, including the tracing overhead against an
untraced replay of the same ops.  Every op's answer is checked; ops that
raise or fail a check are counted, never dropped.  The last line of
standard output is one JSON object; detailed records (failures, the tail
percentile used, raw timings, spans) go to ``bench/out/``.

Speed normalisation: on a shared machine the CPU speed drifts by tens of
percent from minute to minute, more than the changes the benchmark should
resolve (``bench/baseline.json`` keeps the raw and the normalised figures
of the same runs side by side).  After every op the benchmark times
``reference_kernel``, a fixed piece of pure-Python work that shares no
code with ``listsched``, and scales the op's time by ``REFERENCE_NOMINAL_S``
over the median of the five kernel times nearest to it.  Import work
tracks that kernel poorly, so each set-up sample is scaled instead by
``SETUP_NOMINAL_S`` over the mean time of two fresh interpreters, one
just before and one just after it, that import a fixed set of standard
library modules.  The reported times are therefore seconds on a nominal
machine; the raw figures are kept in the record file.

``op_tail_ms`` is a fixed percentile per workload
(``workloads.TAIL_PERCENTILE``), so that a faster or slower program, which
completes more or fewer ops in the same time, is still compared at the
same percentile.  The record file gives the number of samples beyond it
and the percentile the at-least-ten-beyond rule (``tail``) would pick for
that run.
"""
from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import timeit
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MICRO_NUMBER = 4000
MICRO_REPEAT = 5
REFERENCE_NOMINAL_S = 0.003
SETUP_NOMINAL_S = 0.05

# Imports the package from a given src directory and builds the CLI parser:
# what every ``listsched`` command pays before doing any work.
SETUP_CODE = """
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import listsched.cli
listsched.cli.build_parser()
print(time.perf_counter() - t)
"""

# The set-up reference: import work of a fixed size, in its own interpreter
# so that it shares no module cache with the timed import.
SETUP_REFERENCE_CODE = """
import time
t = time.perf_counter()
import email.message, http.client, logging, tarfile, xml.dom.minidom
print(time.perf_counter() - t)
"""


class _Ratio:
    """A minimal exact rational, the reference kernel's number type."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, d: int) -> None:
        g = gcd(n, d)
        self.n, self.d = n // g, d // g

    def __add__(self, other: "_Ratio") -> "_Ratio":
        return _Ratio(self.n * other.d + other.n * self.d, self.d * other.d)

    def __lt__(self, other: "_Ratio") -> bool:
        return self.n * other.d < other.n * self.d

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Ratio) and (self.n, self.d) == (other.n, other.d)


def reference_kernel() -> None:
    """Fixed work shaped like the program's: a greedy heap over exact
    rationals that also snapshots a load vector after every step."""
    heap = [(_Ratio(0, 1), k) for k in range(4)]
    loads = [None] * 48
    snapshots = []
    for i in range(1, 600):
        load, k = heap[0]
        heapq.heapreplace(heap, (load + _Ratio(i % 7 + 1, i % 3 + 1), k))
        loads[i % 48] = load
        snapshots.append(tuple(loads))


def reference_seconds() -> float:
    """One timing of the kernel, with the cyclic garbage collector off.

    The kernel's own objects are freed by reference counting.  With the
    collector off, garbage that a timed op left behind is not collected
    (and charged) here; it stays with the program and is collected during
    a later op, as it would be without the benchmark.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def percentile(ordered: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile of sorted samples, and how many
    samples lie beyond it."""
    n = len(ordered)
    rank = int(max(1, -(-n * pct // 100)))
    return ordered[rank - 1], n - rank


def tail(ordered: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond), nearest-rank.  With too
    few samples for any ladder step, falls back to the median.
    """
    for pct in TAIL_LADDER:
        value, beyond = percentile(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            break
    return pct, value, beyond


@dataclass
class Record:
    op: object
    seconds: float
    reference_s: float
    result: object = None
    error: BaseException | None = None


@dataclass
class Tally:
    """Outcome of checking every record of a run; times are normalised."""

    attempted: int = 0
    ok_seconds: list[float] = field(default_factory=list)
    raw_ok_seconds: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    undecided: int = 0
    failures: list[dict] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        """No answer that came back was wrong (raised ops count as failed)."""
        return not any(f["stage"] == "check" for f in self.failures)


def measure(rounds, seconds: float, limit: int | None = None) -> list[Record]:
    """Run whole rounds of ops until ``seconds`` pass, or exactly ``limit`` ops.

    Each op is followed by one timing of the reference kernel.
    """
    clock = time.perf_counter
    records: list[Record] = []
    start = clock()
    for ops in rounds:
        for op in ops:
            if limit is not None and len(records) == limit:
                return records
            t0 = clock()
            try:
                result, error = op.call(), None
            except Exception as exc:  # counted as a failed op, never fatal
                result, error = None, exc
            elapsed = clock() - t0
            records.append(Record(op, elapsed, reference_seconds(), result, error))
        if limit is None and clock() - start >= seconds:
            return records
    return records


def speed_scales(records: list[Record]) -> list[float]:
    """Per op: nominal over the median of the five nearest reference times."""
    refs = [rec.reference_s for rec in records]
    return [REFERENCE_NOMINAL_S / statistics.median(refs[max(0, i - 2):i + 3])
            for i in range(len(refs))]


def check_all(records: list[Record]) -> Tally:
    tally = Tally()
    for rec, scale in zip(records, speed_scales(records)):
        seconds = rec.seconds * scale
        tally.attempted += 1
        tally.busy_s += seconds
        tally.raw_busy_s += rec.seconds
        if rec.error is not None:
            tally.failures.append(_failure(rec, "call", rec.error))
            continue
        try:
            undecided = rec.op.check(rec.result)
        except Exception as exc:
            tally.failures.append(_failure(rec, "check", exc))
            continue
        tally.undecided += bool(undecided)
        tally.ok_seconds.append(seconds)
        tally.raw_ok_seconds.append(rec.seconds)
    return tally


def _failure(rec: Record, stage: str, exc: BaseException) -> dict:
    return {"op": rec.op.label, "stage": stage, "type": type(exc).__name__, "message": str(exc)[:200]}


def _child_seconds(code: str) -> float:
    """The time a fresh interpreter prints after running ``code``."""
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def setup_seconds() -> tuple[list[float], list[float]]:
    """Import-and-parser time of fresh interpreters, one per repeat.

    Returns the normalised and the raw samples.  Reference interpreters
    run between the timed ones, so every sample has one just before and
    one just after it.
    """
    refs = [_child_seconds(SETUP_REFERENCE_CODE)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(_child_seconds(SETUP_CODE))
        refs.append(_child_seconds(SETUP_REFERENCE_CODE))
    normalised = [t * 2 * SETUP_NOMINAL_S / (before + after)
                  for t, before, after in zip(raw, refs, refs[1:])]
    return normalised, raw


def end_to_end(tally: Tally, setups: list[float], raw_setups: list[float],
               tail_pct: float) -> tuple[dict, dict]:
    ordered, raw = sorted(tally.ok_seconds), sorted(tally.raw_ok_seconds)
    if not ordered:  # no op succeeded: nothing to time
        ordered = raw = [0.0]
    tail_s, beyond = percentile(ordered, tail_pct)
    metrics = {
        "ops_per_s": len(tally.ok_seconds) / tally.busy_s,
        "op_p50_ms": 1e3 * statistics.median(ordered),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - tally.failed / tally.attempted,
        "decided_frac": 1 - tally.undecided / tally.attempted,
    }
    detail = {
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "op_tail_rule_percentile": tail(ordered)[0],
        "latency_samples": len(tally.ok_seconds),
        "failed_frac": tally.failed / tally.attempted,
        "undecided_frac": tally.undecided / tally.attempted,
        "speed_vs_nominal": tally.busy_s / tally.raw_busy_s,
        "raw_ops_per_s": len(tally.ok_seconds) / tally.raw_busy_s,
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "raw_op_tail_ms": 1e3 * percentile(raw, tail_pct)[0],
        "raw_setup_s": statistics.median(raw_setups),
    }
    return metrics, detail


def model_microbench(Time) -> dict[str, float]:
    """Nanoseconds per ``+``, ``<``, ``/`` and ``hash`` on fixed operands."""
    operands = {
        "rat": (Time(Fraction(355, 113)), Time(Fraction(22, 7))),
        "sqrt2": (Time(Fraction(3, 2), Fraction(5, 7)), Time(1, 1)),
    }
    out = {}
    for kind, (a, b) in operands.items():
        for name, stmt in (("add", "a + b"), ("lt", "a < b"), ("div", "a / b"), ("hash", "hash(a)")):
            timer = timeit.Timer(stmt, globals={"a": a, "b": b})
            runs = timer.repeat(repeat=MICRO_REPEAT, number=MICRO_NUMBER)
            out[f"model.{name}_ns.{kind}"] = 1e9 * statistics.median(runs) / MICRO_NUMBER
    return out


def load_listsched():
    """Import ``listsched`` from this checkout's ``src``, or exit with 2."""
    if not (SRC / "listsched" / "__init__.py").is_file():
        print(f"error: no listsched sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import listsched
    import listsched.cli  # not imported by the package itself

    if Path(listsched.__file__).resolve().parent != SRC / "listsched":
        print(f"error: imported listsched from {listsched.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return listsched


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def traced_pass(ls, rounds, seconds: float) -> tuple[Tally, dict, list]:
    """Per-layer metrics from a span-traced run of ``seconds``.

    Every op runs twice back to back, traced and untraced (alternating
    which goes first), so the tracing overhead is measured on the same ops
    at the same machine speed.  Beforehand the first round runs once with
    ``Time`` operators counted: counting every addition would distort the
    span timings, and one round keeps the counts exactly repeatable.
    """
    import tracer as tracing

    micro = model_microbench(ls.model.Time)
    counter = tracing.Tracer()
    counter.count_time_ops(ls.model.Time)
    try:
        measure(rounds(), seconds, limit=len(next(rounds())))
    finally:
        counter.uninstall()

    spans = tracing.Tracer()
    traced: list[Record] = []
    untraced: list[Record] = []

    def run_traced(op) -> None:
        spans.op_id = len(traced)
        spans.install(ls)
        try:
            traced.extend(measure([[op]], 0.0))
        finally:
            spans.uninstall()

    start = time.perf_counter()
    for ops in rounds():
        for op in ops:
            if len(traced) % 2:
                run_traced(op)
                untraced.extend(measure([[op]], 0.0))
            else:
                untraced.extend(measure([[op]], 0.0))
                run_traced(op)
        if time.perf_counter() - start >= seconds:
            break
    metrics = tracing.layer_metrics(spans.spans, spans.counts + counter.counts)
    metrics.update(micro)
    metrics["trace.overhead_frac"] = (
        1 - sum(r.seconds for r in untraced) / sum(r.seconds for r in traced))
    return check_all(traced), metrics, spans.spans


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ls = load_listsched()
    sys.path.insert(0, str(BENCH_DIR))
    import tracer as tracing
    import workloads

    checker = workloads.Checker(ls)  # built before any wrapper is installed

    def rounds():
        make = workloads.WORKLOADS[args.workload]
        return make(ls, checker, random.Random(args.seed))

    stem = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        tally, metrics, spans = traced_pass(ls, rounds, args.seconds)
        tracing.write_spans(spans, OUT_DIR / f"{stem}-spans.jsonl")
        wanted = spec["per_layer"]
    else:
        setups, raw_setups = setup_seconds()
        tally = check_all(measure(rounds(), args.seconds))
        metrics, detail = end_to_end(tally, setups, raw_setups,
                                     workloads.TAIL_PERCENTILE[args.workload])
        record.update(detail, setup_samples_s=setups, raw_setup_samples_s=raw_setups)
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 2
    record.update(attempted=tally.attempted, failed=tally.failed, correct=tally.correct,
                  failures_by_type=dict(Counter(f["type"] for f in tally.failures)),
                  failures=tally.failures[:50], metrics=metrics)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {tally.attempted}  failed {tally.failed}  correct {tally.correct}")
    for name in units:
        print(f"  {name:36s} {metrics[name]:14.6g} {units[name]}")
    if not args.trace:
        print(f"  op_tail_ms is p{record['op_tail_percentile']:g} "
              f"({record['op_tail_samples_beyond']} of {record['latency_samples']} samples beyond, "
              f"the rule gives p{record['op_tail_rule_percentile']:g}); "
              f"failed_frac {record['failed_frac']:.4g}, undecided_frac {record['undecided_frac']:.4g}; "
              f"raw ops_per_s {record['raw_ops_per_s']:.6g}")
    for kind, count in record["failures_by_type"].items():
        print(f"  failures: {count} x {kind}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
