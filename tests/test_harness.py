"""Ratio reports, worst-order search, bound checking, and exports."""
from __future__ import annotations

import builtins
import hashlib
import json
import operator
import os
import random
import stat
import sys
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import random_instance
from listsched import harness
from listsched.families import gen_class1, gen_class2, gen_faigle, gen_graham_tight
from listsched.harness import (
    BoundViolation,
    REPORT_COLUMNS,
    _write_atomic,
    competitive_ratio,
    export_long_csv,
    export_report,
    greedy_bound,
    instance_digest,
    table2,
    verify_bound,
    worst_order_search,
)
from listsched.model import ArrivalOrder, Instance, Job, Time, format_instance
from listsched.online import Lsa, OnlinePolicy, online_makespan, run_online
from listsched.oracle import OPT_CERTIFIED, lower_bound, opt_exact

TABLE2_EXPECTED = {
    2: ("1.0000", "1.2500"),
    3: ("1.3333", "1.2222"),
    4: ("1.5000", "1.1875"),
    5: ("1.6000", "1.1600"),
    10: ("1.8000", "1.0900"),
    50: ("1.9600", "1.0196"),
    100: ("1.9800", "1.0099"),
}


class StackFirst(OnlinePolicy):
    name = "stack-first"

    def choose(self, loads, job=None):
        return 1


def _fill(loads, job) -> int:
    """The fullest machine whose load is still below the job's size, else
    machine 1: a rule whose makespan depends on the arrival order."""
    below = [k for k, load in enumerate(loads) if load < job.size]
    return 1 + max(below, key=loads.__getitem__) if below else 1


class Fill(OnlinePolicy):
    name = "fill"

    def choose(self, loads, job=None):
        return _fill(loads, job)


class FillLsa(Lsa):
    """The same rule as Fill, written as a subclass of Lsa."""

    name = "fill"

    def choose(self, loads, job=None):
        return _fill(loads, job)


def test_ratio_report_class1_m4():
    fam = gen_class1(4)
    report = competitive_ratio(fam.instance, fam.worst_order, family_tag="class1")
    assert report.label == "class1"
    assert report.m == 4
    assert report.policy == "LSA"
    assert report.alg_makespan == Time(6)
    assert report.opt.value == Time(4)
    assert report.opt.kind == OPT_CERTIFIED
    assert report.ratio == Fraction(3, 2)
    assert report.ratio_4dp == "1.5000"
    assert report.ratio_exact == "6/4"
    assert report.bound_2_minus_1_over_m == "1.7500"
    assert report.bound_satisfied is True


def test_ratio_report_more_examples():
    graham2 = gen_graham_tight(2)
    big_first = ArrivalOrder((3, 1, 2))
    report = competitive_ratio(graham2.instance, big_first)
    assert report.ratio == 1
    assert report.ratio_4dp == "1.0000"

    fam = gen_class2(10)
    report = competitive_ratio(fam.instance, fam.worst_order, family_tag="class2")
    assert report.ratio == Fraction(109, 100)
    assert report.ratio_4dp == "1.0900"

    fam = gen_faigle(4)
    report = competitive_ratio(fam.instance, fam.worst_order, family_tag=fam.family_tag)
    assert report.ratio == Time(1, Fraction(1, 2))
    assert report.ratio_exact == "(4+3r2)/(2+2r2)"
    assert report.ratio_4dp == "1.7071"
    assert report.bound_satisfied is True


def test_scoring_a_family_builds_no_job(monkeypatch):
    family = gen_class2(30)
    built = []
    init = Job.__init__

    def counted(job, id, size):
        built.append(id)
        init(job, id, size)

    monkeypatch.setattr(Job, "__init__", counted)
    report = competitive_ratio(
        family.instance, family.worst_order, family_tag=family.family_tag
    )
    assert report.ratio_4dp == "1.0322"
    # the instance's columns and lanes serve the greedy run and the oracle
    assert built == []


def test_exact_optimum_below_the_greedy_makespan_is_an_invariant_violation(monkeypatch):
    inst = Instance.from_sizes([1, 1, 2], 2)
    real = harness.opt_exact(inst)
    assert real.is_exact
    inflated = type(real)(real.value + 2, real.kind, real.nodes_explored)
    monkeypatch.setattr(harness, "opt_exact", lambda instance, budget: inflated)
    with pytest.raises(RuntimeError, match=r"ratio 3/4 below 1 against an exact optimum"):
        competitive_ratio(inst)


def test_untagged_report_uses_digest_label():
    inst = Instance.from_sizes([1, 1, 2], 2)
    report = competitive_ratio(inst)
    assert report.label == instance_digest(inst)
    assert len(report.label) == 12
    assert all(c in "0123456789abcdef" for c in report.label)
    assert instance_digest(inst) == instance_digest(Instance.from_sizes([1, 1, 2], 2))
    assert instance_digest(inst) != instance_digest(Instance.from_sizes([1, 2, 2], 2))


def test_instance_digest_looks_its_sha256_up_once(monkeypatch):
    attempts = []
    real_import = builtins.__import__

    def counted(name, *args, **kwargs):
        if name in ("_sha2", "_sha256", "hashlib"):
            attempts.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counted)
    inst = Instance.from_sizes([1, 1, 2], 2)
    assert instance_digest(inst) == instance_digest(inst)
    assert len(attempts) <= 1


def test_instance_digest_falls_back_to_hashlib_without_cpythons_sha256(monkeypatch):
    # a None entry in sys.modules makes importing that module fail
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    harness._sha256.cache_clear()
    try:
        assert harness._sha256() is hashlib.sha256
        inst = Instance.from_sizes([1, 1, 2], 2)
        text = format_instance(inst).encode("utf-8")
        assert instance_digest(inst) == hashlib.sha256(text).hexdigest()[:12]
    finally:
        harness._sha256.cache_clear()


def test_lower_bound_only_reports_are_flagged():
    inst = Instance.from_sizes([5, 7, 11, 13, 17, 19, 23], 3)
    report = competitive_ratio(inst, node_budget=3)
    assert report.opt.kind == "lower-bound-only"
    assert report.bound_satisfied is None
    assert report.ratio >= 1  # against a lower bound the estimate can only grow


def test_worst_order_search_confirms_family_orders():
    fam = gen_class1(3)
    result = worst_order_search(fam.instance)
    assert result.worst_makespan == Time(4)
    assert result.orders_examined == 5
    assert result.exhaustive
    assert result.best_order == fam.worst_order

    fam = gen_class2(2)
    result = worst_order_search(fam.instance)
    assert result.worst_makespan == Time(5)
    assert result.orders_examined == 3
    assert result.exhaustive
    assert result.best_order.permutation[-1] == 3  # big job arrives last


def test_worst_order_search_single_job():
    inst = Instance.from_sizes([5], 3)
    result = worst_order_search(inst)
    assert result.best_order.permutation == (1,)
    assert result.worst_makespan == Time(5)
    assert result.orders_examined == 1
    assert result.exhaustive


def test_worst_order_search_breaks_ties_lexicographically():
    # orders (1,2,3) and (2,1,3) both reach makespan 4; the smaller wins
    inst = Instance.from_sizes([1, 2, 3], 2)
    result = worst_order_search(inst)
    assert result.worst_makespan == Time(4)
    assert result.best_order.permutation == (1, 2, 3)


def test_worst_order_search_matches_brute_force():
    rng = random.Random(21)
    for _ in range(20):
        inst = random_instance(rng, max_n=6, max_m=3)
        result = worst_order_search(inst)
        best_value = None
        best_perm = None
        for perm in permutations(inst.job_ids):
            sched, _ = run_online(inst, ArrivalOrder(perm))
            if (
                best_value is None
                or best_value < sched.makespan
                or (sched.makespan == best_value and perm < best_perm)
            ):
                best_value = sched.makespan
                best_perm = perm
        assert result.exhaustive
        assert result.worst_makespan == best_value
        assert result.best_order.permutation == best_perm


def test_worst_order_search_sampling_fallback():
    inst = Instance.from_sizes([1, 2, 3, 4, 5, 6], 3)  # 720 distinct orders
    exhaustive = worst_order_search(inst)
    assert exhaustive.exhaustive
    assert exhaustive.orders_examined == 720

    sampled = worst_order_search(inst, enumeration_cap=50, seed=4)
    assert not sampled.exhaustive
    assert sampled.orders_examined == 50
    assert sampled.worst_makespan <= exhaustive.worst_makespan
    again = worst_order_search(inst, enumeration_cap=50, seed=4)
    assert again == sampled

    with pytest.raises(ValueError):
        worst_order_search(inst, enumeration_cap=0)


def test_worst_order_search_with_custom_policy():
    inst = Instance.from_sizes([1, 1, 2], 2)
    result = worst_order_search(inst, policy=StackFirst())
    assert result.worst_makespan == Time(4)  # total; every order stacks up
    assert result.best_order.permutation == (1, 2, 3)
    assert result.exhaustive


class FirstOnOne(OnlinePolicy):
    """Job 1 goes to machine 1, every other job to a least-loaded one: the
    rule tells equal-size jobs apart."""

    name = "first-on-one"

    def choose(self, loads, job=None):
        return 1 if job.id == 1 else 1 + loads.index(min(loads))


def test_worst_order_search_tells_equal_sizes_apart_for_a_custom_policy():
    inst = Instance.from_sizes([1, 1], 2)
    result = worst_order_search(inst, FirstOnOne())
    # order (2, 1) puts job 2 on machine 1, then job 1 on top of it
    assert run_online(inst, ArrivalOrder((2, 1)), FirstOnOne())[0].makespan == Time(2)
    assert result.worst_makespan == Time(2)
    assert result.best_order.permutation == (2, 1)
    assert (result.orders_examined, result.exhaustive) == (2, True)
    # the greedy kernel sees only sizes, so one size sequence covers both
    assert worst_order_search(inst).orders_examined == 1


def test_lsa_subclass_is_scored_and_searched_with_its_own_rule():
    inst = Instance.from_sizes([1, 2, 2, 3, 5], 2)
    order = ArrivalOrder.as_listed(inst)
    report = competitive_ratio(inst, order, FillLsa())
    assert report.policy == "fill"
    want, _ = run_online(inst, order, Fill())
    assert report.alg_makespan == want.makespan == Time(8)
    # plain enumeration of every order under the same rule as a base policy
    orders = sorted(permutations(inst.job_ids))
    values = [run_online(inst, ArrivalOrder(ids), Fill())[0].makespan for ids in orders]
    worst = max(values)
    result = worst_order_search(inst, FillLsa())
    assert result.worst_makespan == worst
    assert result.best_order.permutation == orders[values.index(worst)]
    assert worst != worst_order_search(inst).worst_makespan


def test_custom_policy_search_builds_each_job_once_and_checks_no_order(monkeypatch):
    """A custom policy's search looks each Job and lane up once, then feeds
    every order to the policy as those pairs, with no ArrivalOrder or
    permutation check per order."""
    inst = Instance.from_sizes([1, 2, 2, 3, 5], 2)
    orders = sorted(permutations(inst.job_ids))
    values = [run_online(inst, ArrivalOrder(ids), Fill())[0].makespan for ids in orders]
    worst = max(values)
    built, checked = [], []
    init, covers = Job.__init__, ArrivalOrder.covers

    def counted_init(job, id, size):
        built.append(id)
        init(job, id, size)

    def counted_covers(order, instance):
        checked.append(order)
        return covers(order, instance)

    monkeypatch.setattr(Job, "__init__", counted_init)
    monkeypatch.setattr(ArrivalOrder, "covers", counted_covers)
    results = {}
    for policy in (Fill(), FillLsa(), StackFirst(), FirstOnOne()):
        for cap, seed in ((10**6, 0), (7, 3)):
            built.clear()
            results[policy, cap] = worst_order_search(inst, policy, cap, seed)
            assert sorted(built) == list(inst.job_ids)
    assert checked == []
    monkeypatch.undo()
    for (policy, cap), result in results.items():
        assert result.orders_examined == min(cap, 120)
        schedule, _ = run_online(inst, result.best_order, policy)
        assert schedule.makespan == result.worst_makespan
        if result.exhaustive and policy.name == "fill":
            assert result.worst_makespan == worst
            assert result.best_order.permutation == orders[values.index(worst)]


@pytest.mark.parametrize("sizes", [[3, Fraction(1, 2), 3, 2], [1, Time(1, 1), 1, "1/2"]])
def test_an_instance_is_its_three_columns_before_and_after_use(sizes):
    inst = Instance.from_sizes(sizes, 2)
    assert Instance.__slots__ == ("_ids", "machines", "lanes")
    assert not hasattr(inst, "__dict__")
    before = [getattr(inst, name) for name in Instance.__slots__]
    assert inst.jobs == tuple(inst) == tuple(map(inst.job, inst.job_ids))
    with pytest.raises(KeyError):
        inst.job(99)
    order = ArrivalOrder((4, 2, 1, 3))
    for policy in (Lsa(), Fill()):
        run_online(inst, order, policy)
        worst_order_search(inst, policy)
    opt_exact(inst)
    competitive_ratio(inst, order)
    after = [getattr(inst, name) for name in Instance.__slots__]
    assert all(map(operator.is_, after, before))
    assert not hasattr(inst, "__dict__")


class Named(Lsa):
    """An Lsa subclass that keeps Lsa's rule and only renames itself."""

    name = "named"


def test_lsa_subclass_keeping_lsa_choose_runs_on_the_kernel(monkeypatch):
    def refuse(self, loads, job=None):
        raise AssertionError("Lsa.choose called for a job")

    monkeypatch.setattr(Lsa, "choose", refuse)
    rational = Instance.from_sizes([Fraction(1, 2), 1, 2, Fraction(4, 3), 3, 3], 3)
    for inst in (gen_class1(5).instance, gen_faigle(4).instance, rational):
        order = ArrivalOrder.as_listed(inst)
        for tie_break in ("low", "high"):
            named, lsa = Named(tie_break), Lsa(tie_break)
            assert run_online(inst, order, named) == run_online(inst, order, lsa)
            want = online_makespan(inst, order, lsa)
            assert online_makespan(inst, order, named) == want
            report = competitive_ratio(inst, order, named)
            assert report.policy == "named"
            assert report.alg_makespan == want
            assert report.ratio == competitive_ratio(inst, order, lsa).ratio
            assert worst_order_search(inst, named) == worst_order_search(inst, lsa)
            sampled = worst_order_search(inst, named, enumeration_cap=7, seed=3)
            assert sampled == worst_order_search(inst, lsa, enumeration_cap=7, seed=3)


def test_worst_order_search_tie_break_variant():
    fam = gen_class2(3)
    low = worst_order_search(fam.instance)
    high = worst_order_search(fam.instance, policy=Lsa("high"))
    assert low.worst_makespan == high.worst_makespan == Time(11)


def test_table2_golden_values():
    rows = table2(sorted(TABLE2_EXPECTED))
    assert len(rows) == 7
    for row in rows:
        want = TABLE2_EXPECTED[row.m]
        assert (row.class1_ratio, row.class2_ratio) == want
    with pytest.raises(ValueError):
        table2([2, 1])


def test_ratio_monotonicity_across_machine_counts():
    class1_ratios = []
    class2_ratios = []
    for m in range(2, 101):
        fam1 = gen_class1(m)
        sched1, _ = run_online(fam1.instance, fam1.worst_order)
        r1 = (sched1.makespan / fam1.predicted_opt).as_fraction()
        assert r1 == Fraction(2 * m - 2, m)
        class1_ratios.append(r1)

        fam2 = gen_class2(m)
        sched2, _ = run_online(fam2.instance, fam2.worst_order)
        r2 = (sched2.makespan / fam2.predicted_opt).as_fraction()
        assert r2 == Fraction(m * m + m - 1, m * m)
        class2_ratios.append(r2)
    assert all(a < b for a, b in zip(class1_ratios, class1_ratios[1:]))
    assert all(a > b for a, b in zip(class2_ratios, class2_ratios[1:]))


def test_verify_bound_summary():
    summary = verify_bound(200, seed=42)
    assert summary.trials == 200
    assert summary.violations == 0
    assert summary.witness_report.ratio <= greedy_bound(summary.witness_report.m)
    assert summary.witness_report.ratio_4dp == summary.witness_report.ratio.decimal(4)
    assert summary.witness_report.bound_satisfied is True
    assert summary.witness_order.covers(summary.witness_instance)


def test_verify_bound_counts_undecided_trials(monkeypatch):
    assert verify_bound(200, seed=42).undecided == 0
    # with no search budget, a trial is decided only when LPT meets the
    # load bound; the rest keep a lower bound as their optimum
    monkeypatch.setattr(harness, "opt_exact", lambda instance, budget: opt_exact(instance, 0))
    summary = verify_bound(200, seed=42)
    assert 0 < summary.undecided < 200
    assert summary.violations == 0
    # the witness is the largest ratio among the decided trials
    assert summary.witness_report.bound_satisfied is True
    # a trial reaches the oracle only while alg/lb, which bounds its ratio,
    # exceeds the largest decided ratio so far; undecided counts the trials
    # that reached it and kept a lower bound
    rng, decided, reached = random.Random(42), [], 0
    for _ in range(200):
        n, m = rng.randint(1, 12), rng.randint(2, 4)
        instance = Instance.from_sizes([rng.randint(1, 9) for _ in range(n)], m)
        ids = list(instance.job_ids)
        rng.shuffle(ids)
        order = ArrivalOrder(tuple(ids))
        ceiling = online_makespan(instance, order) / lower_bound(instance)
        if decided and ceiling <= max(decided):
            continue
        reached += 1
        report = competitive_ratio(instance, order, node_budget=0)
        if report.bound_satisfied is not None:
            decided.append(report.ratio)
    assert len(decided) == reached - summary.undecided
    assert summary.witness_report.ratio == max(decided)


def test_verify_bound_witness_when_no_trial_is_decided(monkeypatch):
    monkeypatch.setattr(harness, "opt_exact", lambda instance, budget: opt_exact(instance, 0))
    # seed 13's one trial puts sizes 3 4 3 4 3 on 3 machines. Its optimum,
    # LPT's 7, is above the whole-unit bound ceil(17/3) = 6, so no
    # certificate decides it, and with no budget the oracle keeps the bound
    summary = verify_bound(1, seed=13)
    assert summary.undecided == 1
    assert summary.witness_report.bound_satisfied is None
    assert summary.witness_report.opt.value == Time(6)


def test_verify_bound_single_job_instances():
    summary = verify_bound(25, max_n=1, seed=7)
    assert summary.witness_report.ratio == 1


@pytest.mark.parametrize("seed", [0, -7, 2**70])
@pytest.mark.parametrize("max_n, max_m", [(1, 2), (12, 4), (1, 4), (12, 2)])
@pytest.mark.parametrize(
    "size_range", [(7, 7), (1, 2**32 - 1), (1, 2**32), (1, 2**32 + 1), (1, 2**64 + 1)]
)
def test_verify_bound_draws_the_trials_of_randint_and_shuffle(
    size_range, max_n, max_m, seed, monkeypatch
):
    # widths of 1 (one bit still drawn), 2**32 - 1 (one getrandbits word),
    # 2**32 (a power of two, one bit longer than w - 1) and past it (two and
    # three words), against trials drawn by random's own randint and shuffle
    trials = 40
    rng, expected = random.Random(seed), []
    for _ in range(trials):
        n, m = rng.randint(1, max_n), rng.randint(2, max_m)
        sizes = [rng.randint(*size_range) for _ in range(n)]
        ids = list(range(1, n + 1))
        rng.shuffle(ids)
        expected.append((m, [sizes[i - 1] for i in ids]))

    def slow_path(*args, **kwargs):
        raise AssertionError("verify_bound draws from getrandbits alone")

    for name in ("randrange", "randint", "shuffle"):
        monkeypatch.setattr(random.Random, name, slow_path)
    drawn, kernel = [], harness.greedy

    def recording(sizes, loads, *args, **kwargs):
        drawn.append((len(loads), list(sizes)))
        return kernel(sizes, loads, *args, **kwargs)

    monkeypatch.setattr(harness, "greedy", recording)
    verify_bound(trials, max_n, max_m, size_range, seed)
    assert drawn == expected


def test_verify_bound_parameter_validation():
    with pytest.raises(ValueError):
        verify_bound(0)
    with pytest.raises(ValueError):
        verify_bound(1, max_n=13)
    with pytest.raises(ValueError):
        verify_bound(1, max_m=5)
    with pytest.raises(ValueError):
        verify_bound(1, size_range=(0, 5))
    with pytest.raises(ValueError):
        verify_bound(1, size_range=(5, 2))


def test_verify_bound_catches_a_bad_policy():
    with pytest.raises(BoundViolation) as excinfo:
        verify_bound(20, max_n=6, max_m=3, seed=0, policy=StackFirst())
    message = str(excinfo.value)
    assert "exceeds bound" in message
    assert "m=" in message
    assert "order:" in message
    assert "instance:" in message
    assert excinfo.value.report.bound_satisfied is False


def test_export_report_csv():
    fam = gen_faigle(4)
    report = competitive_ratio(fam.instance, fam.worst_order, family_tag=fam.family_tag)
    text = export_report([report])
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert lines[1] == "4,faigle_sqrt2,4+3r2,2+2r2,(4+3r2)/(2+2r2),1.7071,1.7500,true"
    assert export_report([]) == ",".join(REPORT_COLUMNS) + "\n"


def test_export_report_json():
    fam = gen_class1(4)
    report = competitive_ratio(fam.instance, fam.worst_order, family_tag="class1")
    payload = json.loads(export_report([report], format="json"))
    entry = payload[0]
    assert entry["m"] == 4
    assert entry["family"] == "class1"
    assert entry["ratio_exact"] == "6/4"
    assert entry["ratio_4dp"] == "1.5000"
    assert entry["satisfied"] is True
    assert entry["opt_kind"] == OPT_CERTIFIED
    assert entry["policy"] == "LSA"
    with pytest.raises(ValueError):
        export_report([report], format="yaml")


def test_export_report_is_deterministic_and_atomic(tmp_path):
    fam = gen_class2(3)
    report = competitive_ratio(fam.instance, fam.worst_order, family_tag="class2")
    a = export_report([report])
    b = export_report([report])
    assert a == b

    out = tmp_path / "report.csv"
    export_report([report], destination=out)
    assert out.read_text() == a

    missing_dir = tmp_path / "nope" / "report.csv"
    with pytest.raises(OSError):
        export_report([report], destination=missing_dir)
    assert not missing_dir.exists()
    assert not list(tmp_path.glob("*.tmp"))


def test_atomic_write_failure_leaves_no_partial_or_temp_file(tmp_path):
    out = tmp_path / "report.csv"
    with pytest.raises(UnicodeEncodeError):
        _write_atomic(out, "m,family\n\ud800")  # fails while writing
    assert list(tmp_path.iterdir()) == []

    _write_atomic(out, "first\n")
    _write_atomic(out, "second\n")
    assert out.read_text() == "second\n"
    assert list(tmp_path.iterdir()) == [out]
    plain = tmp_path / "plain.txt"
    plain.write_text("")
    assert out.stat().st_mode == plain.stat().st_mode  # same mode as open()


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    """Reading the umask means setting it for a moment, when a file that
    another thread creates would get the wrong mode: the writer never does."""

    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    out = tmp_path / "report.csv"
    _write_atomic(out, "m,family\n")
    assert out.read_text() == "m,family\n"
    assert list(tmp_path.iterdir()) == [out]


def test_atomic_write_mode_follows_a_strict_umask(tmp_path):
    out, plain = tmp_path / "report.csv", tmp_path / "plain.txt"
    old = os.umask(0o077)
    try:
        _write_atomic(out, "m,family\n")
        plain.write_text("")
    finally:
        os.umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode) == 0o600


def test_export_long_csv(tmp_path):
    reports = []
    for m in (2, 3):
        fam = gen_class1(m)
        reports.append(
            competitive_ratio(fam.instance, fam.worst_order, family_tag="class1")
        )
    text = export_long_csv(reports)
    assert text.split("\n")[0] == "m,family,ratio"
    assert "2,class1,1.0000" in text
    assert "3,class1,1.3333" in text
    out = tmp_path / "long.csv"
    export_long_csv(reports, destination=out)
    assert out.read_text() == text
