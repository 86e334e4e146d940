"""Result records: each stores what its run measured and derives the rest."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from listsched import cli, harness
from listsched.families import GeneratedFamily, gen_faigle
from listsched.harness import (
    BoundCheckSummary,
    BoundViolation,
    RatioReport,
    Table2Row,
    WorstOrderResult,
    competitive_ratio,
    instance_digest,
    table2,
    verify_bound,
    worst_order_search,
)
from listsched.model import ArrivalOrder, Instance, Schedule, Time
from listsched.online import Lsa, TraceStep, run_online
from listsched.oracle import OptResult, opt_exact

SIZES = [Time(k) for k in (1, 2, 3, 5)] + [Time(Fraction(1, 2)), Time(1, 1)]


def _count_digests(monkeypatch) -> list:
    """Record the instance of every instance_digest call."""
    calls = []
    digest = harness.instance_digest

    def counted(instance):
        calls.append(instance)
        return digest(instance)

    monkeypatch.setattr(harness, "instance_digest", counted)
    return calls


def test_verify_hashes_only_the_printed_witness(monkeypatch, capsys):
    calls = _count_digests(monkeypatch)
    verify_bound(200, seed=0)
    assert calls == []
    assert cli.main(["verify", "--trials", "200", "--seed", "0"]) == 0
    assert len(calls) == 1
    assert f"witness instance: {instance_digest(calls[0])}\n" in capsys.readouterr().out


def test_summary_witness_is_read_from_its_report():
    summary = verify_bound(50, seed=3)
    assert summary.witness_instance is summary.witness_report.instance
    assert summary.witness_order is summary.witness_report.order
    assert summary.violations == 0
    assert summary._fields == ("trials", "undecided", "witness_report")


def test_bound_violation_reads_its_counterexample_from_the_report():
    class StackFirst(Lsa):
        def choose(self, loads, job=None):
            return 1

    with pytest.raises(BoundViolation) as excinfo:
        verify_bound(20, max_n=6, max_m=3, seed=0, policy=StackFirst())
    exc = excinfo.value
    assert exc.instance is exc.report.instance
    assert exc.order is exc.report.order
    assert exc.order.covers(exc.instance)


@st.composite
def _runs(draw):
    sizes = draw(st.lists(st.sampled_from(SIZES), min_size=1, max_size=7))
    instance = Instance.from_sizes(sizes, draw(st.integers(2, 4)))
    order = ArrivalOrder(tuple(draw(st.permutations(instance.job_ids))))
    return (
        instance,
        order,
        Lsa(draw(st.sampled_from(["low", "high"]))),
        draw(st.sampled_from([None, "faigle_sqrt2", "mine"])),
        draw(st.sampled_from([None, 0])),  # a zero budget often leaves a lower bound
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_runs())
def test_report_derives_what_it_does_not_store(run):
    instance, order, policy, tag, budget = run
    report = competitive_ratio(instance, order, policy, family_tag=tag, node_budget=budget)
    assert report.instance is instance and report.order is order
    assert (report.family_tag, report.policy) == (tag, policy.name)
    m = instance.machines
    assert report.m == m
    assert report.ratio == report.alg_makespan / report.opt.value
    assert report.ratio_4dp == report.ratio.decimal(4)
    bound = Fraction(2 * m - 1, m)
    assert report.bound_2_minus_1_over_m == Time(bound).decimal(4)
    if report.opt.is_exact:
        assert report.bound_satisfied is (report.ratio <= bound)
    else:
        assert report.bound_satisfied is None
    assert report.label == (tag if tag is not None else instance_digest(instance))


def _records() -> list:
    instance = Instance.from_sizes([2, 1, 1], 2)
    schedule, trace = run_online(instance, ArrivalOrder.as_listed(instance))
    report = competitive_ratio(instance)
    return [
        (
            schedule,
            "Schedule(assignment={1: 1, 2: 2, 3: 2}, loads=(Time('2'), Time('2')), "
            "makespan=Time('2'))",
        ),
        (
            trace[2],
            "TraceStep(job_id=3, machine=2, loads_before=(Time('2'), Time('1')), "
            "loads_after=(Time('2'), Time('2')))",
        ),
        (
            opt_exact(instance),
            "OptResult(value=Time('2'), kind='certified-by-bound', nodes_explored=0)",
        ),
        (
            worst_order_search(instance),
            "WorstOrderResult(best_order=ArrivalOrder(permutation=(2, 3, 1)), "
            "worst_makespan=Time('3'), orders_examined=3, exhaustive=True)",
        ),
        (
            report,
            "RatioReport(instance=Instance(job_ids=(1, 2, 3), sizes=(Time('2'), "
            "Time('1'), Time('1')), machines=2), order=ArrivalOrder(permutation="
            "(1, 2, 3)), family_tag=None, policy='LSA', alg_makespan=Time('2'), "
            "opt=OptResult(value=Time('2'), kind='certified-by-bound', "
            "nodes_explored=0), ratio=Time('1'))",
        ),
        (table2([2])[0], "Table2Row(m=2, class1_ratio='1.0000', class2_ratio='1.2500')"),
        (
            BoundCheckSummary(1, 0, report),
            f"BoundCheckSummary(trials=1, undecided=0, witness_report={report!r})",
        ),
        (
            gen_faigle(2),
            "GeneratedFamily(instance=Instance(job_ids=(1, 2, 3), sizes=(Time('1'), "
            "Time('1'), Time('2')), machines=2), family_tag='faigle_m2', "
            "predicted_lsa=Time('3'), predicted_opt=Time('2'))",
        ),
    ]


RECORD_TYPES = (
    Schedule,
    TraceStep,
    OptResult,
    WorstOrderResult,
    RatioReport,
    Table2Row,
    BoundCheckSummary,
    GeneratedFamily,
)


@pytest.mark.parametrize("index", range(len(RECORD_TYPES)))
def test_record_repr_equality_hash_and_immutability(index):
    record, text = _records()[index]
    kind = RECORD_TYPES[index]
    assert type(record) is kind
    assert repr(record) == text
    twin = kind(*record)
    assert twin == record and twin is not record
    if kind is Schedule:
        with pytest.raises(TypeError):  # its assignment is a dict
            hash(record)
    else:
        assert hash(twin) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, kind._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_derived_attributes_cannot_be_set():
    report = competitive_ratio(Instance.from_sizes([2, 1, 1], 2))
    for name in ("label", "m", "ratio_4dp", "bound_2_minus_1_over_m", "bound_satisfied"):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    with pytest.raises(AttributeError):
        gen_faigle(2).worst_order = None
    with pytest.raises(AttributeError):
        BoundCheckSummary(1, 0, report).violations = 1


def test_family_worst_order_is_its_listed_order():
    family = gen_faigle(5)
    assert family.worst_order == ArrivalOrder.as_listed(family.instance)
    assert family._fields == ("instance", "family_tag", "predicted_lsa", "predicted_opt")
