"""Acceptance gate: the headline guarantees this package must deliver.

Each test checks one guarantee end to end and prints a single [PASS] line
with the measured values (visible with ``pytest -s`` or ``-rA``).
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from conftest import naive_opt, random_instance
from listsched.families import gen_class1, gen_class2, gen_faigle, gen_graham_tight
from listsched.harness import competitive_ratio, table2, verify_bound, worst_order_search
from listsched.model import Time
from listsched.online import run_online
from listsched.oracle import lower_bound, lpt_makespan, opt_exact, opt_structured

TABLE2_CELLS = {
    2: ("1.0000", "1.2500"),
    3: ("1.3333", "1.2222"),
    4: ("1.5000", "1.1875"),
    5: ("1.6000", "1.1600"),
    10: ("1.8000", "1.0900"),
    50: ("1.9600", "1.0196"),
    100: ("1.9800", "1.0099"),
}


def test_worst_order_ratio_table_all_fourteen_cells():
    start = time.monotonic()
    rows = table2(sorted(TABLE2_CELLS))
    elapsed = time.monotonic() - start
    cells_checked = 0
    for row in rows:
        expect_c1, expect_c2 = TABLE2_CELLS[row.m]
        assert row.class1_ratio == expect_c1, f"m={row.m} class1"
        assert row.class2_ratio == expect_c2, f"m={row.m} class2"
        cells_checked += 2
    assert cells_checked == 14
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    print(f"[PASS] ratio table: 14/14 cells exact at 4dp in {elapsed:.3f}s")


def test_units_then_giant_family_closed_forms_to_100_machines():
    start = time.monotonic()
    for m in range(3, 101):
        family = gen_class1(m)
        schedule, _ = run_online(family.instance, family.worst_order)
        assert schedule.makespan == Time(2 * m - 2), f"greedy makespan at m={m}"
        assert opt_structured("class1", m) == Time(m), f"optimum at m={m}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"sweep took {elapsed:.3f}s"
    print(
        "[PASS] class1 sweep m=3..100: greedy = 2m-2 and optimum = m "
        f"exactly, {elapsed:.3f}s"
    )


def test_giant_job_last_family_closed_forms_to_100_machines():
    start = time.monotonic()
    for m in range(2, 101):
        family = gen_class2(m)
        schedule, _ = run_online(family.instance, family.worst_order)
        assert schedule.makespan == Time(m - 1 + m * m), f"greedy makespan at m={m}"
        assert opt_structured("class2", m) == Time(m * m), f"optimum at m={m}"
    elapsed = time.monotonic() - start
    print(
        "[PASS] class2 sweep m=2..100: greedy = m-1+m^2 and optimum = m^2 "
        f"exactly, {elapsed:.3f}s"
    )


def test_greedy_bound_on_1000_random_instances_and_tightness():
    start = time.monotonic()
    summary = verify_bound(1000, max_n=12, max_m=4, size_range=(1, 9), seed=42)
    assert summary.trials == 1000
    assert summary.violations == 0
    tight = []
    for m in (2, 3, 4, 5):
        family = gen_graham_tight(m)
        report = competitive_ratio(
            family.instance, family.worst_order, family_tag=family.family_tag
        )
        assert report.ratio == Fraction(2 * m - 1, m), f"tightness at m={m}"
        assert report.bound_satisfied is True
        tight.append(report.ratio_4dp)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"suite took {elapsed:.3f}s"
    print(
        f"[PASS] 2-1/m bound: 1000/1000 random trials hold "
        f"(max ratio {summary.witness_report.ratio_4dp}); tight at {', '.join(tight)}; "
        f"{elapsed:.3f}s"
    )


def test_small_classic_families_have_exact_ratios():
    two = competitive_ratio(
        gen_faigle(2).instance, family_tag="faigle_m2"
    )
    assert two.ratio == Fraction(3, 2)

    three_family = gen_faigle(3)
    three = competitive_ratio(
        three_family.instance, three_family.worst_order, family_tag="faigle_m3"
    )
    assert three.ratio == Fraction(5, 3)

    four_family = gen_faigle(4)
    four = competitive_ratio(
        four_family.instance, four_family.worst_order, family_tag="faigle_sqrt2"
    )
    assert four.ratio == Time(1, Fraction(1, 2))  # (4+3r2)/(2+2r2) simplified
    assert four.ratio_exact == "(4+3r2)/(2+2r2)"
    assert four.ratio_4dp == "1.7071"
    print(
        "[PASS] classic small families: ratios exactly 3/2, 5/3, "
        "(4+3r2)/(2+2r2) -> 1.7071"
    )


def test_exact_oracle_agrees_with_naive_enumeration():
    rng = random.Random(6)
    start = time.monotonic()
    for trial in range(500):
        instance = random_instance(rng, max_n=10, max_m=3)
        result = opt_exact(instance)
        assert result.is_exact, f"trial {trial} not solved exactly"
        assert result.value == naive_opt(instance), f"trial {trial} value mismatch"
        lpt_value, _ = lpt_makespan(instance)
        assert lower_bound(instance) <= result.value <= lpt_value
    elapsed = time.monotonic() - start
    print(
        "[PASS] optimum oracle: 500/500 random instances match naive "
        f"enumeration, bounds sandwich holds, {elapsed:.3f}s"
    )


def test_exhaustive_search_confirms_adversarial_orders():
    start = time.monotonic()
    checked = []
    for family in (gen_class1(3), gen_class2(2), gen_class2(3)):
        result = worst_order_search(family.instance)
        assert result.exhaustive
        assert result.worst_makespan == family.predicted_lsa, family.family_tag
        schedule, _ = run_online(family.instance, family.worst_order)
        assert schedule.makespan == result.worst_makespan, family.family_tag
        checked.append(f"{family.family_tag}(m={family.instance.machines})")
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"search took {elapsed:.3f}s"
    print(
        f"[PASS] worst-order search: {', '.join(checked)} all attain the "
        f"predicted maximum, {elapsed:.3f}s"
    )
