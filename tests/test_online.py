"""Greedy placement, traces, and the online-model invariants."""
from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from conftest import random_instance, random_order
from listsched.families import gen_class1, gen_class2, gen_faigle, gen_graham_tight
from listsched.model import ArrivalOrder, Instance, Time, parse_time, validate_schedule
from listsched.online import (
    Lsa,
    OnlinePolicy,
    TraceStep,
    online_makespan,
    run_online,
    trace_jsonl,
)


class ScanLow(OnlinePolicy):
    """Reference least-loaded scan, lowest index; bypasses the heap path."""

    name = "scan-low"

    def choose(self, loads, job=None):
        best = 0
        for k in range(1, len(loads)):
            if loads[k] < loads[best]:
                best = k
        return best + 1


class ScanHigh(OnlinePolicy):
    """Reference least-loaded scan, highest index on ties."""

    name = "scan-high"

    def choose(self, loads, job=None):
        best = 0
        for k in range(1, len(loads)):
            if not loads[best] < loads[k]:
                best = k
        return best + 1


class StackFirst(OnlinePolicy):
    """Pathological policy: everything onto machine 1."""

    name = "stack-first"

    def choose(self, loads, job=None):
        return 1


class StackLast(Lsa):
    """An Lsa subclass with a rule of its own: everything onto machine m."""

    name = "stack-last"

    def choose(self, loads, job=None):
        return len(loads)


def test_lsa_step_examples():
    assert Lsa().choose((Time(0), Time(0), Time(0))) == 1
    assert Lsa().choose((Time(4), Time(4), Time(10))) == 1
    for m in (2, 3, 7):
        loads = tuple(Time(m - 1) for _ in range(m))
        assert Lsa().choose(loads) == 1
    assert Lsa().choose((Time(3), Time(1), Time(2))) == 2
    with pytest.raises(ValueError):
        Lsa().choose((Time(0),))


def test_lsa_tie_break_variants():
    assert Lsa().choose((Time(0), Time(0), Time(0))) == 1
    assert Lsa("high").choose((Time(0), Time(0), Time(0))) == 3
    assert Lsa("high").choose((Time(2), Time(1), Time(1))) == 3
    assert Lsa("high").name == "LSA-high"
    with pytest.raises(ValueError):
        Lsa("middle")


def test_lsa_subclass_runs_its_own_choose():
    inst = Instance.from_sizes([1, 2, 3, 4], 2)
    order = ArrivalOrder.as_listed(inst)
    sched, trace = run_online(inst, order, StackLast())
    assert [step.machine for step in trace] == [2, 2, 2, 2]
    assert sched.loads == (Time(0), Time(10))
    assert online_makespan(inst, order, StackLast()) == Time(10)
    assert StackLast().name == "stack-last"
    assert StackLast("high").name == "stack-last"


def test_run_online_family_replays():
    faigle2 = gen_faigle(2)
    sched, _ = run_online(faigle2.instance, faigle2.worst_order)
    assert sched.makespan == Time(3)

    faigle3 = gen_faigle(3)
    sched, _ = run_online(faigle3.instance, faigle3.worst_order)
    assert sched.makespan == Time(10)
    assert sorted(sched.loads) == [Time(4), Time(4), Time(10)]

    class1 = gen_class1(4)
    sched, _ = run_online(class1.instance, class1.worst_order)
    assert sched.makespan == Time(6)


def test_run_online_rejects_bad_orders_before_running():
    inst = Instance.from_sizes([1, 1, 2], 2)
    for bad in ((1, 2), (1, 2, 2), (1, 2, 9)):
        with pytest.raises(ValueError):
            run_online(inst, ArrivalOrder(bad))


def test_only_the_listed_order_skips_the_permutation_check(monkeypatch):
    """The listed order is a permutation by construction, so the greedy
    kernel runs it unchecked and reads its sizes by position. An equal
    order that is another object, a run with a trace and a custom policy
    are each checked once."""
    fam = gen_class2(10)
    instance, listed = fam.instance, fam.worst_order
    checked = []
    covers = ArrivalOrder.covers

    def counted(order, inst):
        checked.append(order)
        return covers(order, inst)

    monkeypatch.setattr(ArrivalOrder, "covers", counted)
    for policy in (None, Lsa(), Lsa("high")):
        assert online_makespan(instance, listed, policy) == fam.predicted_lsa
    assert checked == []
    equal = ArrivalOrder(list(instance.job_ids))
    assert online_makespan(instance, equal) == fam.predicted_lsa
    assert run_online(instance, listed)[0].makespan == fam.predicted_lsa
    assert online_makespan(instance, listed, ScanLow()) == fam.predicted_lsa
    assert checked == [equal, listed, listed]


def test_schedule_and_trace_are_consistent():
    rng = random.Random(5)
    for _ in range(50):
        inst = random_instance(rng, max_n=8, max_m=4)
        order = random_order(rng, inst)
        sched, trace = run_online(inst, order)
        assert validate_schedule(inst, sched) is None
        assert len(trace) == len(inst)
        assert [s.job_id for s in trace] == list(order.permutation)
        loads = [Time(0)] * inst.machines
        for step in trace:
            assert step.loads_before == tuple(loads)
            expected = list(loads)
            expected[step.machine - 1] = (
                expected[step.machine - 1] + inst.job(step.job_id).size
            )
            assert step.loads_after == tuple(expected)
            assert sched.assignment[step.job_id] == step.machine
            loads = expected
        assert tuple(loads) == sched.loads
        assert sched.makespan == max(loads)


def test_prefix_of_order_gives_prefix_of_trace():
    rng = random.Random(6)
    inst = random_instance(rng, max_n=8, max_m=3)
    order = random_order(rng, inst)
    _, full_trace = run_online(inst, order)
    for cut in range(1, len(inst) + 1):
        prefix_ids = order.permutation[:cut]
        sub = Instance(tuple(inst.job(i) for i in prefix_ids), inst.machines)
        _, prefix_trace = run_online(sub, ArrivalOrder(prefix_ids))
        assert prefix_trace == full_trace[:cut]


@pytest.mark.parametrize(
    "instance, policy",
    [
        (gen_class1(4).instance, None),  # int lanes
        (gen_faigle(3).instance, Lsa("high")),  # Time lanes
        (Instance.from_sizes([3, "1/2", 2, "3/2", 1], 3), StackLast()),
    ],
)
def test_trace_index_matches_the_replayed_list(instance, policy):
    _, trace = run_online(instance, ArrivalOrder.as_listed(instance), policy)
    steps = list(trace)
    n = len(steps)
    for i in range(-n - 2, n + 2):
        if -n <= i < n:
            assert trace[i] == steps[i]
        else:
            with pytest.raises(IndexError):
                trace[i]
    assert trace[1:-1] == steps[1:-1]
    assert trace[::-2] == steps[::-2]


def test_greedy_balance_invariant():
    rng = random.Random(8)
    for _ in range(50):
        inst = random_instance(rng, max_n=10, max_m=4)
        order = random_order(rng, inst)
        _, trace = run_online(inst, order)
        seen_max = Time(0)
        for step in trace:
            size = inst.job(step.job_id).size
            if seen_max < size:
                seen_max = size
            spread = max(step.loads_after) - min(step.loads_after)
            assert spread <= seen_max


def test_greedy_makespan_inequality_chain():
    rng = random.Random(9)
    for _ in range(50):
        inst = random_instance(rng, max_n=10, max_m=4)
        order = random_order(rng, inst)
        sched, _ = run_online(inst, order)
        m = inst.machines
        total = sum((j.size for j in inst.jobs), Time(0))
        biggest = max(j.size for j in inst.jobs)
        assert sched.makespan <= total / m + biggest * Fraction(m - 1, m)
        floor = total / m if biggest < total / m else biggest
        assert sched.makespan <= floor * Fraction(2 * m - 1, m)


def test_arrival_order_changes_makespan():
    fam = gen_class1(3)
    worst, _ = run_online(fam.instance, fam.worst_order)
    big_first = ArrivalOrder((5, 1, 2, 3, 4))
    other, _ = run_online(fam.instance, big_first)
    assert worst.makespan == Time(4)
    assert other.makespan == Time(3)
    assert worst.makespan != other.makespan


def test_family_values_do_not_depend_on_tie_break():
    for fam in (
        gen_class1(3), gen_class1(5), gen_class2(2), gen_class2(4),
        gen_graham_tight(3), gen_faigle(2), gen_faigle(3), gen_faigle(6),
    ):
        low, _ = run_online(fam.instance, fam.worst_order, Lsa("low"))
        high, _ = run_online(fam.instance, fam.worst_order, Lsa("high"))
        assert low.makespan == high.makespan == fam.predicted_lsa


def test_heap_path_matches_reference_scan():
    rng = random.Random(10)
    for _ in range(40):
        inst = random_instance(rng, max_n=10, max_m=4)
        order = random_order(rng, inst)
        fast_low, trace_low = run_online(inst, order, Lsa("low"))
        scan_low, scan_trace_low = run_online(inst, order, ScanLow())
        assert fast_low == scan_low
        assert trace_low == scan_trace_low
        fast_high, trace_high = run_online(inst, order, Lsa("high"))
        scan_high, scan_trace_high = run_online(inst, order, ScanHigh())
        assert fast_high == scan_high
        assert trace_high == scan_trace_high


def test_custom_policy_runs_and_bad_policy_rejected():
    inst = Instance.from_sizes([1, 1, 1, 1], 2)
    sched, _ = run_online(inst, ArrivalOrder.as_listed(inst), StackFirst())
    assert sched.makespan == Time(4)
    assert sched.loads == (Time(4), Time(0))

    class Broken(OnlinePolicy):
        name = "broken"

        def choose(self, loads, job=None):
            return 0

    with pytest.raises(RuntimeError):
        run_online(inst, ArrivalOrder.as_listed(inst), Broken())


def test_custom_policy_chooses_from_time_loads_on_a_rational_instance():
    class TimeScan(ScanLow):
        def choose(self, loads, job=None):
            assert all(type(load) is Time for load in loads)
            return super().choose(loads, job)

    inst = Instance.from_sizes([Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 4), 2], 3)
    assert inst.lanes.scale == 12
    order = ArrivalOrder((5, 1, 4, 2, 3))
    assert run_online(inst, order, TimeScan()) == run_online(inst, order, Lsa())
    assert online_makespan(inst, order, TimeScan()) == Time(Fraction(13, 6))


def test_trace_jsonl_round_trips_exact_values():
    fam = gen_faigle(4)
    _, trace = run_online(fam.instance, fam.worst_order)
    text = trace_jsonl(trace)
    lines = text.strip().split("\n")
    assert len(lines) == len(trace)
    for line, step in zip(lines, trace):
        record = json.loads(line)
        assert record["job"] == step.job_id
        assert record["machine"] == step.machine
        assert tuple(parse_time(s) for s in record["loads_before"]) == step.loads_before
        assert tuple(parse_time(s) for s in record["loads_after"]) == step.loads_after
    assert trace_jsonl([]) == ""


def test_trace_step_is_a_value():
    step = TraceStep(1, 2, (Time(0), Time(0)), (Time(0), Time(1)))
    assert step == TraceStep(1, 2, (Time(0), Time(0)), (Time(0), Time(1)))
