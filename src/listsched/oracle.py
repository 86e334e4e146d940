"""Exact optimal makespan for scheduling on identical machines.

Minimizing makespan on identical machines is NP-hard, so the exact solver
is branch and bound over job-to-machine assignments, jobs largest first,
seeded with the LPT schedule as incumbent. A schedule that meets Graham's
lower bound is provably optimal, so common cases are instant;
the structured families also have closed-form optima (opt_structured).
"""
from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

from .model import ArrivalOrder, Instance, Schedule, Time, _check_count
from .online import greedy, run_online

__all__ = [
    "OPT_EXACT",
    "OPT_CERTIFIED",
    "OPT_LOWER_BOUND_ONLY",
    "OptResult",
    "lower_bound",
    "lpt_order",
    "lpt_makespan",
    "opt_exact",
    "opt_structured",
]

OPT_EXACT = "exact"
OPT_CERTIFIED = "certified-by-bound"
OPT_LOWER_BOUND_ONLY = "lower-bound-only"

DEFAULT_NODE_BUDGET = 10_000_000


class OptResult(NamedTuple):
    """Optimal makespan (or best known bound) with its provenance.

    kind is one of: 'exact' (search completed), 'certified-by-bound' (a
    schedule met lower_bound, optimal by certificate), or
    'lower-bound-only' (search aborted; value is only a lower bound and
    ratios against it overestimate the truth).
    """

    value: Time
    kind: str
    nodes_explored: int

    @property
    def is_exact(self) -> bool:
        return self.kind != OPT_LOWER_BOUND_ONLY


def graham_bracket(total, largest, m: int) -> tuple:
    """Graham's bracket (lb, ub) in lane units, for jobs of this total and
    largest size on m machines: every schedule ends at or after
    lb = max(total/m, largest); a list schedule's last job starts by
    (total - its size)/m, so it ends by ub = (total - largest)/m + largest.
    Int lanes round lb up and ub down (every makespan there is whole)."""
    if isinstance(largest, int):
        return max(-(-total // m), largest), (total - largest) // m + largest
    return max(largest, total / m), (total - largest) / m + largest


def lower_bound(instance: Instance) -> Time:
    """Graham's lb: no schedule of the instance finishes sooner. It reads
    the lanes' tally, one term per distinct size."""
    lanes = instance.lanes
    lb, _ = graham_bracket(lanes.total, lanes.distinct[0], instance.machines)
    return lanes.time(lb)


def lpt_order(instance: Instance) -> ArrivalOrder:
    """Jobs sorted by non-increasing size, ties by ascending id."""
    size = dict(zip(instance.job_ids, instance.lanes.sizes))
    # sorted() is stable, so equal sizes keep their ascending-id order
    descending = sorted(sorted(size), key=size.__getitem__, reverse=True)
    return ArrivalOrder(tuple(descending))


def lpt_makespan(instance: Instance) -> tuple[Time, Schedule]:
    """Greedy least-loaded assignment over the LPT order."""
    schedule, _ = run_online(instance, lpt_order(instance))
    return schedule.makespan, schedule


def opt_exact(
    instance: Instance,
    node_budget: int = DEFAULT_NODE_BUDGET,
    symmetry_breaking: bool = True,
) -> OptResult:
    """Exact optimal makespan via branch and bound.

    LPT's greedy makespan, read from the lanes' tally, is tried first: if
    it meets lower_bound it is optimal with no node, and only otherwise
    are the sizes listed, largest first, for the search. Nodes are
    placement attempts. If the budget runs out the result
    degrades honestly to kind='lower-bound-only' with the load lower
    bound as value. The search is a loop over per-job arrays, so no
    recursion limit caps the number of jobs. It places a job on each
    distinct load at most once; sizes are positive, so unused machines
    all have load 0 and a job opens at most one of them.
    symmetry_breaking=False turns that equal-load prune off; it exists so
    tests can confirm the prune never changes the value. node_budget is
    an int >= 0 (model's count rule).
    """
    _check_count("node_budget", node_budget, 0)
    lb = lower_bound(instance)
    m = instance.machines
    lanes = instance.lanes
    # the sizes largest first, the LPT order's size sequence, are all that
    # its greedy makespan and the search below depend on: the kernel reads
    # them as the tally's runs, and the search as a list only when it runs
    lpt = greedy(lanes.distinct, [lanes.zero] * m, counts=lanes.counts)
    best = lanes.time(max(lpt))
    if best == lb:
        return OptResult(best, OPT_CERTIFIED, 0)

    distinct = map(lanes.time, lanes.distinct)
    sizes = list(chain.from_iterable(map(repeat, distinct, lanes.counts)))
    n = len(sizes)
    loads = [Time(0)] * m
    # per job: the next machine to try and its load before the job
    next_machine = [0] * n
    load_before = [Time(0)] * n
    nodes = 0
    i = 0
    while i >= 0:
        if i == n:
            # every placement along this branch stayed below the incumbent
            best = max(loads)
            if best == lb:
                break
            i -= 1
            continue
        k = next_machine[i]
        if k:
            # back from job i + 1: take job i off the machine it was on
            loads[k - 1] = load_before[i]
        while k < m:
            load = loads[k]
            k += 1
            # machines before this one still hold the loads they had when
            # job i arrived, so an equal load among them was tried already
            if symmetry_breaking and loads.index(load) < k - 1:
                continue
            new = load + sizes[i]
            if new < best:
                nodes += 1
                if nodes > node_budget:
                    return OptResult(lb, OPT_LOWER_BOUND_ONLY, nodes)
                next_machine[i] = k
                load_before[i] = load
                loads[k - 1] = new
                i += 1
                break
        else:
            # every machine tried for job i: reset it and backtrack
            next_machine[i] = 0
            i -= 1
    return OptResult(best, OPT_CERTIFIED if best == lb else OPT_EXACT, nodes)


def opt_structured(family: str, m: int) -> Time:
    """Closed-form optimum for the two structured worst-case families.

    class1 ((m-1)^2 unit jobs plus one size-m job) packs to exactly m;
    class2 (m(m-1) unit jobs plus one size-m^2 job) packs to exactly m^2.
    """
    _check_count("machine count", m, 2)
    if family == "class1":
        return Time(m)
    if family == "class2":
        return Time(m * m)
    raise ValueError(f"no closed-form optimum for family {family!r}")
