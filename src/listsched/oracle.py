"""Exact optimal makespan for scheduling on identical machines.

Minimizing makespan on identical machines is NP-hard, so the exact solver
is branch and bound over job-to-machine assignments, jobs largest first,
seeded with the LPT schedule as incumbent. A schedule matching
max(total/m, largest job) is provably optimal, so common cases are instant;
the structured families also have closed-form optima (opt_structured).
"""
from __future__ import annotations

from typing import NamedTuple

from .model import ArrivalOrder, Instance, Schedule, Time, total_load
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
    schedule met the load lower bound, optimal by certificate), or
    'lower-bound-only' (search aborted; value is only a lower bound and
    ratios against it overestimate the truth).
    """

    value: Time
    kind: str
    nodes_explored: int

    @property
    def is_exact(self) -> bool:
        return self.kind != OPT_LOWER_BOUND_ONLY


def lower_bound(instance: Instance) -> Time:
    """max(total load / m, largest job size): no schedule finishes sooner."""
    lanes = instance.lanes
    average = total_load(instance) / instance.machines
    largest = lanes.time(max(lanes.sizes.values()))
    return average if largest < average else largest


def lpt_order(instance: Instance) -> ArrivalOrder:
    """Jobs sorted by non-increasing size, ties by ascending id."""
    size = instance.lanes.sizes
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

    Nodes are placement attempts. If the budget runs out the result
    degrades honestly to kind='lower-bound-only' with the load lower
    bound as value. The search is a loop over per-job arrays, so no
    recursion limit caps the number of jobs. It places a job on each
    distinct load at most once; sizes are positive, so unused machines
    all have load 0 and a job opens at most one of them.
    symmetry_breaking=False turns that equal-load prune off; it exists so
    tests can confirm the prune never changes the value.
    """
    if node_budget < 0:
        raise ValueError("node_budget must be non-negative")
    lb = lower_bound(instance)
    m = instance.machines
    lanes = instance.lanes
    # the sizes largest first: the LPT order's size sequence, which is all
    # that its greedy makespan and the search below depend on
    descending = sorted(lanes.sizes.values(), reverse=True)
    n = len(descending)
    best = lanes.time(max(greedy(range(n), descending, [lanes.zero] * m)))
    if best == lb:
        return OptResult(best, OPT_CERTIFIED, 0)

    sizes = list(map(lanes.time, descending))
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
    kind = OPT_CERTIFIED if best == lb else OPT_EXACT
    return OptResult(best, kind, nodes)


def opt_structured(family: str, m: int) -> Time:
    """Closed-form optimum for the two structured worst-case families.

    class1 ((m-1)^2 unit jobs plus one size-m job) packs to exactly m;
    class2 (m(m-1) unit jobs plus one size-m^2 job) packs to exactly m^2.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if family == "class1":
        return Time(m)
    if family == "class2":
        return Time(m * m)
    raise ValueError(f"no closed-form optimum for family {family!r}")
