"""Online list scheduling: place each arriving job immediately and forever.

A policy sees only the current machine loads and the arriving job; it never
sees the future of the sequence. The reference policy is greedy least-loaded
assignment, which is what all ratio guarantees here are stated for.
"""
from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator, Sequence
from heapq import heapify, heapreplace
from itertools import groupby
from typing import NamedTuple, Optional

from .model import ArrivalOrder, Instance, Job, Schedule, Time, format_time
from .model import _check_count

__all__ = [
    "OnlinePolicy",
    "Lsa",
    "greedy",
    "TraceStep",
    "Trace",
    "run_online",
    "online_makespan",
    "trace_jsonl",
]


def greedy(order, size_of, loads: list, high: bool = False, steps=None) -> list:
    """The greedy kernel: place each item of order on a least-loaded machine.

    size_of[item] is the item's size (items are job ids or size codes);
    loads holds every machine's starting load and is updated in place and
    returned. Equal loads go to the lowest machine index, or the highest
    when high is set. Sizes and loads may be ints or Time: the kernel only
    adds and compares them. When steps is a list, one (item, machine,
    new_load) triple per placement is appended to it, machine 1-based.

    With no steps and int loads, a run of at least 8*m consecutive items
    of one positive int size is placed in bulk by water-filling, with the
    loads the one-by-one placement would give; every other item (and every
    item of a call with steps or Time loads) goes through the heap alone.
    """
    # the key orders equal loads by the tie-break; abs(key) is the index
    heap = [(load, -k if high else k) for k, load in enumerate(loads)]
    heapify(heap)
    bulk = _BULK_RUN * len(loads)
    if steps is not None or type(loads[0]) is not int or len(order) < bulk:
        for item in order:
            load, key = heap[0]
            load = load + size_of[item]
            heapreplace(heap, (load, key))
            if steps is not None:
                steps.append((item, abs(key) + 1, load))
    else:
        for size, run in groupby(map(size_of.__getitem__, order)):
            count = len(list(run))
            if count >= bulk and type(size) is int and size > 0:
                heap = _water_fill(heap, size, count)
                continue
            for _ in range(count):
                load, key = heap[0]
                heapreplace(heap, (load + size, key))
    for load, key in heap:
        loads[abs(key)] = load
    return loads


# a run this many times m long pays for a water-fill; shorter ones do not
_BULK_RUN = 8


def _water_fill(heap: list, size: int, count: int) -> list:
    """The heap after count items of one size went, each in turn, to its
    least (load, key) entry.

    Write each load as q*size + r with 0 <= r < size; sorting the entries
    sorts them by q too. Machine j offers a slot at every level
    load_j + t*size (t >= 0), which sorts by (q_j + t, r_j, key_j), and
    the items take the count least slots. So they fill whole bands, lowest
    first, where band b holds one slot of each machine with q <= b.
    Raising the k least machines to band b takes k*b - (q_1 + ... + q_k)
    items, so they reach band b = (count + q_1 + ... + q_k) // k and stop
    there when b is at most q_{k+1}: no other machine has a slot below b
    (and b >= q_k, as the walk did not stop at k - 1). Each machine below
    band b is raised to b*size + r, and the count + sum q - k*b items left
    over, fewer than k, take the slots of band b in (r, key) order: the
    least entries once raised.
    """
    entries = sorted(heap)
    reach = count
    for k, (load, _) in enumerate(entries, 1):
        reach += load // size
        band = reach // k
        if k == len(entries) or band <= entries[k][0] // size:
            break
    filled = sorted((max(load, band * size + load % size), key) for load, key in entries)
    spare = reach - k * band
    filled[:spare] = [(load + size, key) for load, key in filled[:spare]]
    heapify(filled)
    return filled


class OnlinePolicy(ABC):
    """Decision surface for an online scheduler.

    Implementations get the current loads and the arriving job, nothing
    else, and return the 1-based index of the machine that receives it.
    """

    name: str = "policy"

    @abstractmethod
    def choose(self, loads: Sequence[Time], job: Job) -> int:
        raise NotImplementedError


class Lsa(OnlinePolicy):
    """Greedy least-loaded assignment.

    tie_break selects the machine among equal minimum loads: 'low' takes
    the lowest index, 'high' the highest. Makespans of the structured
    worst-case sequences are identical either way; the variant exists to
    demonstrate that.

    Lsa, and any subclass that keeps Lsa.choose, runs through the greedy
    kernel; a subclass that overrides choose runs through its own choose.
    Either is reported by its own name.
    """

    def __init__(self, tie_break: str = "low"):
        if tie_break not in ("low", "high"):
            raise ValueError(f"tie_break must be 'low' or 'high', not {tie_break!r}")
        self.high = tie_break == "high"

    @property
    def name(self) -> str:
        return "LSA-high" if self.high else "LSA"

    def choose(self, loads: Sequence[Time], job: Optional[Job] = None) -> int:
        _check_count("machine count", len(loads), 2)
        # the machine the kernel picks for an item of size zero
        steps: list = []
        greedy((0,), (0,), list(loads), self.high, steps)
        return steps[0][1]


class TraceStep(NamedTuple):
    """One placement: the job, the machine chosen, loads before and after."""

    job_id: int
    machine: int
    loads_before: tuple[Time, ...]
    loads_after: tuple[Time, ...]


class Trace(Sequence):
    """The TraceSteps of one run, stored as (job, machine, new_load) triples.

    The load vectors of each step are rebuilt when the trace is read, so a
    run whose trace is never read pays O(n) for it rather than O(n*m).
    """

    def __init__(self, steps: list, machines: int, to_time: Callable):
        self._steps, self._machines, self._to_time = steps, machines, to_time

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[TraceStep]:
        loads = [Time(0)] * self._machines
        before = tuple(loads)
        for job_id, machine, load in self._steps:
            loads[machine - 1] = self._to_time(load)
            after = tuple(loads)
            yield TraceStep(job_id, machine, before, after)
            before = after

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, (Trace, list)) and list(self) == list(other)


def run_online(
    instance: Instance,
    order: ArrivalOrder,
    policy: Optional[OnlinePolicy] = None,
) -> tuple[Schedule, Trace]:
    """Feed the jobs to the policy in arrival order and record every step.

    The order must be a permutation of the instance's job ids; that is
    checked before any placement happens. The returned trace always has one
    step per job, in arrival order.
    """
    steps: list = []
    loads = _place(instance, order, policy, steps)
    to_time = instance.lanes.time
    assignment = {job_id: machine for job_id, machine, _ in steps}
    schedule = Schedule(assignment, tuple(map(to_time, loads)), to_time(max(loads)))
    return schedule, Trace(steps, instance.machines, to_time)


def online_makespan(
    instance: Instance,
    order: ArrivalOrder,
    policy: Optional[OnlinePolicy] = None,
) -> Time:
    """The makespan run_online reports, without its assignment or trace."""
    return instance.lanes.time(max(_place(instance, order, policy, None)))


def _kernel_high(policy: Optional[OnlinePolicy]) -> Optional[bool]:
    """Lsa's tie-break when the greedy kernel runs the policy, else None."""
    if policy is None or type(policy).choose is Lsa.choose:
        return policy is not None and policy.high
    return None


def _place(instance, order, policy, steps) -> list:
    """Final loads and steps in lane values; a policy's choose sees Time loads.

    The listed order (its permutation is the job_ids tuple itself) is a
    permutation by construction, so the kernel with no steps reads its
    sizes by position. Every other run checks the order and reads the
    sizes through its ids.
    """
    m, lanes = instance.machines, instance.lanes
    high = _kernel_high(policy)
    if high is not None and steps is None and order.permutation is instance.job_ids:
        return greedy(range(len(lanes.sizes)), lanes.sizes, [lanes.zero] * m, high)
    if not order.covers(instance):
        raise ValueError("arrival order is not a permutation of the instance's jobs")
    if high is None:
        pair_of = dict(zip(instance.job_ids, zip(instance, lanes.sizes)))
        return _choose_each(order.permutation, pair_of, instance, policy, steps)
    size_of = dict(zip(instance.job_ids, lanes.sizes))
    return greedy(order.permutation, size_of, [lanes.zero] * m, high, steps)


def _choose_each(order, pair_of, instance, policy, steps) -> list:
    """Final lane loads after policy.choose places each item of order in
    turn; pair_of[item] is the item's (Job, lane size) pair, and choose sees
    the loads as Time, converted once per placement."""
    m, lanes = instance.machines, instance.lanes
    loads = [lanes.zero] * m
    times = [Time(0)] * m
    for job, size in map(pair_of.__getitem__, order):
        machine = policy.choose(tuple(times), job)
        if not isinstance(machine, int) or not 1 <= machine <= m:
            raise RuntimeError(
                f"policy {policy.name} chose invalid machine {machine!r}"
            )
        load = loads[machine - 1] + size
        loads[machine - 1], times[machine - 1] = load, lanes.time(load)
        if steps is not None:
            steps.append((job.id, machine, load))
    return loads


def trace_jsonl(trace: Sequence[TraceStep]) -> str:
    """Serialize a trace as JSON Lines, one placement per line."""
    lines = []
    for step in trace:
        lines.append(
            json.dumps(
                {
                    "job": step.job_id,
                    "machine": step.machine,
                    "loads_before": [format_time(t) for t in step.loads_before],
                    "loads_after": [format_time(t) for t in step.loads_after],
                },
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + "\n" if lines else ""
