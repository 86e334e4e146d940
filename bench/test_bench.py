"""Tests of the benchmark's own arithmetic and accounting.

    python3 -m pytest bench -q
"""
from __future__ import annotations

import random
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ls = run.load_listsched()


def span(i, name, start, end, parent=None, op=0):
    return [i, name, start, end, parent, op]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "cli.main", 0.0, 10.0),
        span(1, "harness.competitive_ratio", 1.0, 9.0, parent=0),
        span(2, "online.run_online", 2.0, 4.0, parent=1),
        span(3, "oracle.opt_exact", 4.5, 8.0, parent=1),
        span(4, "oracle.lpt_makespan", 5.0, 6.0, parent=3),
        span(5, "online.run_online", 5.2, 5.7, parent=4),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 2.5, 2.0, 2.5, 0.5, 0.5])
    rows = tracer.summarize(spans)
    assert rows["online.run_online"] == pytest.approx({"calls": 2, "busy_s": 2.5, "self_s": 2.5})
    # self times of all spans add up to the root's duration
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_wrappers_nest_record_op_ids_and_uninstall():
    t = tracer.Tracer()
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    mod.items = lambda n: (i for i in range(n))
    originals = dict(vars(mod))
    t.patch(mod, "inner", t.wrap("inner", mod.inner))
    t.patch(mod, "outer", t.wrap("outer", mod.outer))
    t.patch(mod, "items", t.wrap_iter("items", mod.items))
    t.op_id = 7
    assert mod.outer(1) == 4
    t.op_id = 8
    assert list(mod.items(2)) == [0, 1]
    names = [(s[tracer.NAME], s[tracer.PARENT], s[tracer.OP]) for s in t.spans]
    # one span per generator resumption, including the final one
    assert names == [("outer", None, 7), ("inner", 0, 7)] + [("items", None, 8)] * 3
    t.uninstall()
    assert vars(mod) == originals


def test_install_on_listsched_restores_every_binding():
    def bindings():
        mods = (ls, ls.cli, ls.families, ls.harness, ls.online, ls.oracle)
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
        out.update({("Time", k): v for k, v in vars(ls.model.Time).items()})
        return out

    before = bindings()
    t = tracer.Tracer()
    t.install(ls)
    t.count_time_ops(ls.model.Time)
    assert ls.harness.run_online is not before[("listsched.harness", "run_online")]
    code, out = workloads.cli_call(ls, ["run", "--family", "class1", "--m", "3"])
    assert code == 0 and "alg makespan: 4" in out
    t.uninstall()
    assert bindings() == before
    rows = tracer.summarize(t.spans)
    assert rows["cli.main"]["calls"] == 1
    assert rows["online.run_online"]["calls"] == 2  # adversarial order and LPT
    assert t.counts["online.trace_steps_discarded"] == 2 * 5
    assert t.counts["model.time_add"] > 0


@pytest.mark.parametrize(
    "n, pct, beyond",
    [(5, 50.0, 2), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (99, 75.0, 24),
     (100, 90.0, 10), (199, 90.0, 19), (200, 95.0, 10), (1000, 99.0, 10), (10000, 99.9, 10)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct, beyond):
    ordered = [float(i) for i in range(1, n + 1)]
    got_pct, value, got_beyond = run.tail(ordered)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert sum(x > value for x in ordered) == beyond


def test_fixed_percentile_reports_samples_beyond():
    ordered = [float(i) for i in range(1, 101)]
    assert run.percentile(ordered, 95.0) == (95.0, 5)
    assert run.percentile(ordered, 90.0) == (90.0, 10)
    assert run.percentile([7.0], 95.0) == (7.0, 0)
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.WORKLOADS)


def test_failures_are_counted_by_type_without_aborting():
    def boom():
        raise OverflowError("too many orders")

    def wrong(result):
        raise workloads.CheckFailed("bad answer")

    ops = [
        workloads.Op("fine", lambda: 1, lambda r: False),
        workloads.Op("raises", boom, lambda r: False),
        workloads.Op("undecided", lambda: 2, lambda r: True),
        workloads.Op("wrong", lambda: 3, wrong),
    ]
    records = run.measure(iter([ops, ops]), seconds=0.0)
    assert len(records) == 4  # one whole round, then time is up
    tally = run.check_all(records)
    assert (tally.attempted, tally.failed, tally.undecided) == (4, 2, 1)
    assert [(f["op"], f["stage"], f["type"]) for f in tally.failures] == [
        ("raises", "call", "OverflowError"), ("wrong", "check", "CheckFailed")]
    assert not tally.correct
    metrics, detail = run.end_to_end(tally, [0.1, 0.3, 0.2], [0.2, 0.6, 0.4], 50.0)
    assert metrics["ok_frac"] == 0.5 and detail["failed_frac"] == 0.5
    assert metrics["decided_frac"] == 0.75
    assert (metrics["setup_s"], detail["raw_setup_s"]) == (0.2, 0.4)
    assert detail["op_tail_percentile"] == 50.0
    assert run.measure(iter([ops, ops]), seconds=0.0, limit=6)[5].op.label == "raises"


def test_family_predictions_match_the_generators():
    checker = workloads.Checker(ls)
    for family in workloads.FAMILIES:
        for m in (2, 3, 4, 7):
            generated = ls.families.generate(family, m)
            assert checker.predicted(family, m) == (generated.predicted_lsa, generated.predicted_opt)


def test_brute_force_optimum_agrees_with_the_oracle():
    rng = random.Random(5)
    for _ in range(5):
        sizes = [rng.randint(10, 99) for _ in range(9)]
        opt = ls.opt_exact(ls.Instance.from_sizes(sizes, 3)).value.as_fraction()
        assert workloads._brute_opt(sizes, 3, int(opt)) == opt
        assert workloads._brute_opt(sizes, 3, int(opt) - 1) is None


def test_every_workload_passes_its_checks_on_one_round():
    checker = workloads.Checker(ls)
    for name, make in workloads.WORKLOADS.items():
        if name == "families_sweep":
            continue  # a round includes m near 100; the check logic is the same
        ops = next(make(ls, checker, random.Random(1)))
        tally = run.check_all(run.measure(iter([ops]), seconds=0.0))
        assert tally.correct, (name, tally.failures)
        expected = {"OverflowError"} if name == "worst_order_mixed" else set()
        assert {f["type"] for f in tally.failures} == expected


def test_times_are_scaled_by_the_nearby_reference_speed():
    op = workloads.Op("x", lambda: None, lambda r: False)
    nominal = run.REFERENCE_NOMINAL_S
    refs = [1, 1, 1, 2, 2, 2, 2]
    records = [run.Record(op, 0.6, r * nominal) for r in refs]
    assert run.speed_scales(records) == pytest.approx([1, 1, 1, 0.5, 0.5, 0.5, 0.5])
    tally = run.check_all(records)
    assert tally.ok_seconds == pytest.approx([0.6] * 3 + [0.3] * 4)
    assert (tally.busy_s, tally.raw_busy_s) == pytest.approx((3.0, 4.2))
    assert tally.raw_ok_seconds == [0.6] * 7


def test_reference_timing_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert run.reference_seconds() > 0 and gc.isenabled()
    gc.disable()
    try:
        run.reference_seconds()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_setup_samples_are_scaled_by_the_references_around_them(monkeypatch):
    times = iter([0.04, 0.2, 0.06, 0.3, 0.05])  # reference, timed, reference ...
    monkeypatch.setattr(run, "_child_seconds", lambda code: next(times))
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    normalised, raw = run.setup_seconds()
    assert raw == [0.2, 0.3]
    nominal = run.SETUP_NOMINAL_S
    assert normalised == pytest.approx([0.2 * nominal / 0.05, 0.3 * nominal / 0.055])


def test_setup_children_print_one_time_each():
    assert run._child_seconds(run.SETUP_CODE) > 0
    assert run._child_seconds(run.SETUP_REFERENCE_CODE) > 0
