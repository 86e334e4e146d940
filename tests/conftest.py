"""Shared helpers for the test suite."""
from __future__ import annotations

import random

from listsched.harness import BoundCheckSummary, BoundViolation, competitive_ratio
from listsched.model import ArrivalOrder, Instance, Schedule, Time
from listsched.online import TraceStep


def naive_opt(instance: Instance) -> Time:
    """Optimal makespan by trying every machine assignment.

    Independent of the branch-and-bound oracle on purpose: plain depth
    first search over all m^n placements, no symmetry breaking, no
    incumbent pruning. Only usable for tiny instances. Integer sizes run
    on machine integers for speed; anything else runs on exact values.
    """
    m = instance.machines
    if all(job.size.is_integer for job in instance.jobs):
        sizes = [job.size.rational_part.numerator for job in instance.jobs]
        zero = 0
    else:
        sizes = [job.size for job in instance.jobs]
        zero = Time(0)
    best = [None]
    loads = [zero] * m

    def walk(i: int) -> None:
        if i == len(sizes):
            top = max(loads)
            if best[0] is None or top < best[0]:
                best[0] = top
            return
        size = sizes[i]
        for k in range(m):
            saved = loads[k]
            loads[k] = saved + size
            walk(i + 1)
            loads[k] = saved

    walk(0)
    value = best[0]
    return value if isinstance(value, Time) else Time(value)


def reference_greedy(
    instance: Instance, order: ArrivalOrder, high: bool = False
) -> tuple[Schedule, list[TraceStep]]:
    """Greedy least-loaded placement by a plain scan over Time loads.

    Independent of the package's heap kernel and integer lanes on purpose:
    it is the reference the kernel is checked against. Ties go to the
    lowest machine index, or the highest when high is set.
    """
    loads = [Time(0)] * instance.machines
    assignment = {}
    trace = []
    for job_id in order.permutation:
        best = 0
        for k in range(1, len(loads)):
            if loads[k] < loads[best] or (high and loads[k] == loads[best]):
                best = k
        before = tuple(loads)
        loads[best] = loads[best] + instance.job(job_id).size
        assignment[job_id] = best + 1
        trace.append(TraceStep(job_id, best + 1, before, tuple(loads)))
    return Schedule(assignment, tuple(loads), max(loads)), trace


def random_instance(
    rng: random.Random,
    max_n: int = 10,
    max_m: int = 3,
    size_lo: int = 1,
    size_hi: int = 9,
) -> Instance:
    n = rng.randint(1, max_n)
    m = rng.randint(2, max_m)
    sizes = [rng.randint(size_lo, size_hi) for _ in range(n)]
    return Instance.from_sizes(sizes, m)


def random_order(rng: random.Random, instance: Instance) -> ArrivalOrder:
    ids = list(instance.job_ids)
    rng.shuffle(ids)
    return ArrivalOrder(tuple(ids))


def reference_verify(
    trials: int,
    max_n: int,
    max_m: int,
    size_range: tuple[int, int],
    seed: int,
    policy=None,
) -> BoundCheckSummary:
    """verify_bound's summary with the oracle run on every trial.

    It draws its trials with random's own randint and shuffle, independent
    of verify_bound's getrandbits route, and decides each by
    competitive_ratio alone, with no certificate and no skipped trial: it
    is the reference the draws and the certificate path are checked
    against.
    """
    rng = random.Random(seed)
    best: dict = {}
    undecided = 0
    for _ in range(trials):
        instance = random_instance(rng, max_n, max_m, *size_range)
        report = competitive_ratio(instance, random_order(rng, instance), policy)
        if report.bound_satisfied is False:
            raise BoundViolation(report)
        decided = report.bound_satisfied is not None
        undecided += not decided
        if decided not in best or best[decided].ratio < report.ratio:
            best[decided] = report
    return BoundCheckSummary(trials, undecided, best.get(True) or best[False])


def deep_instance() -> Instance:
    """1,500 jobs on 7 machines: a search path deeper than Python's
    default recursion limit of 1,000 frames, whose load bound (80464/7,
    rounded up to the whole 11495) LPT misses, at 11502."""
    rng = random.Random(1500)
    return Instance.from_sizes([rng.randint(10, 99) for _ in range(1500)], 7)


def reference_render(t: Time, compact: bool) -> str:
    """File syntax of t, its rational and sqrt(2) parts written by Fraction.

    Independent of the package's gcd-based rendering on purpose: it is the
    reference that format_time is checked against.
    """
    head, rb = str(t.rational_part), t.sqrt2_part
    if not rb:
        return head
    sign, coeff = "-" if rb < 0 else "+", abs(rb)
    if compact:
        return f"{head}{sign}{coeff}r2"
    return f"{head} {sign} {coeff} r2"
