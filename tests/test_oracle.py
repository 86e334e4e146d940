"""Lower bounds, LPT, branch and bound, and closed-form optima."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import deep_instance, naive_opt, random_instance
from listsched.families import gen_class1, gen_class2, gen_faigle
from listsched.model import Instance, Time, validate_schedule
from listsched.oracle import (
    OPT_CERTIFIED,
    OPT_EXACT,
    OPT_LOWER_BOUND_ONLY,
    lower_bound,
    lpt_makespan,
    lpt_order,
    opt_exact,
    opt_structured,
)


def test_lower_bound_examples():
    assert lower_bound(gen_class2(3).instance) == Time(9)
    assert lower_bound(gen_class1(5).instance) == Time(5)
    assert lower_bound(Instance.from_sizes([1, 1, 1], 3)) == Time(1)
    # average dominates when no single job does; on rational sizes every
    # makespan is a whole number of lane units, so it rounds up to one
    assert lower_bound(Instance.from_sizes([3, 3, 3], 2)) == Time(5)
    assert lower_bound(Instance.from_sizes([Fraction(1, 2)] * 3, 2)) == Time(1)
    # sqrt(2) sizes have no such unit: the average stays exact
    size = Time(1, 1)
    assert lower_bound(Instance.from_sizes([size] * 3, 2)) == size * 3 / 2


def test_lpt_examples():
    value, sched = lpt_makespan(gen_class1(3).instance)
    assert value == Time(3)
    assert validate_schedule(gen_class1(3).instance, sched) is None

    value, sched = lpt_makespan(gen_faigle(3).instance)
    assert value == Time(6)
    assert sched.loads == (Time(6), Time(6), Time(6))

    single = Instance.from_sizes([7], 2)
    assert lpt_makespan(single)[0] == Time(7)


def test_lpt_order_sorts_big_first_ties_by_id():
    inst = Instance.from_sizes([1, 3, 1, 3, 2], 2)
    assert lpt_order(inst).permutation == (2, 4, 5, 1, 3)


def test_opt_exact_on_the_historical_sequences():
    r = opt_exact(gen_faigle(2).instance)
    assert r.value == Time(2)

    r = opt_exact(gen_faigle(3).instance)
    assert r.value == Time(6)
    assert r.kind == OPT_CERTIFIED

    r = opt_exact(gen_faigle(4).instance)
    assert r.value == Time(2, 2)
    assert r.is_exact


def test_opt_exact_search_kinds():
    # LPT gives 6 but a perfect split does not exist: search completes
    r = opt_exact(Instance.from_sizes([3, 3, 3], 2))
    assert r.value == Time(6)
    assert r.kind == OPT_EXACT
    assert r.nodes_explored > 0

    # LPT overshoots (7) and the search then meets the load bound (6)
    r = opt_exact(Instance.from_sizes([3, 3, 2, 2, 2], 2))
    assert r.value == Time(6)
    assert r.kind == OPT_CERTIFIED
    assert r.nodes_explored > 0

    # search over irrational sizes stays exact
    r = opt_exact(Instance.from_sizes([Time(1, 1)] * 3, 2))
    assert r.value == Time(2, 2)
    assert r.kind == OPT_EXACT


def test_opt_exact_budget_degrades_to_lower_bound():
    inst = Instance.from_sizes([5, 7, 11, 13, 17, 19, 23], 3)
    full = opt_exact(inst)
    assert full.is_exact
    starved = opt_exact(inst, node_budget=3)
    assert starved.kind == OPT_LOWER_BOUND_ONLY
    assert starved.value == lower_bound(inst)
    assert starved.value <= full.value
    with pytest.raises(ValueError):
        opt_exact(inst, node_budget=-1)


def test_opt_structured_closed_forms():
    assert opt_structured("class1", 10) == Time(10)
    assert opt_structured("class2", 2) == Time(4)
    assert opt_structured("class1", 2) == Time(2)
    with pytest.raises(ValueError):
        opt_structured("class1", 1)
    with pytest.raises(ValueError):
        opt_structured("graham_tight", 3)


def test_oracle_agreement_on_structured_families():
    for m in (3, 4, 5):
        assert opt_exact(gen_class1(m).instance).value == opt_structured("class1", m)
    for m in (2, 3):
        assert opt_exact(gen_class2(m).instance).value == opt_structured("class2", m)
    assert opt_exact(gen_class1(4).instance).value == Time(4)


def test_structured_families_are_certified_without_search():
    # LPT sets the big job alone and spreads the units evenly over the other
    # machines, meeting the load bound: no node is needed, even at budget 0
    for m in [*range(2, 41), 100, 300]:
        for gen, family in ((gen_class1, "class1"), (gen_class2, "class2")):
            opt = opt_exact(gen(m).instance, node_budget=0)
            want = (opt_structured(family, m), OPT_CERTIFIED, 0)
            assert (opt.value, opt.kind, opt.nodes_explored) == want, (family, m)


def test_opt_exact_matches_naive_enumeration():
    rng = random.Random(2024)
    for _ in range(500):
        inst = random_instance(rng, max_n=10, max_m=3)
        truth = naive_opt(inst)
        pruned = opt_exact(inst)
        assert pruned.is_exact
        assert pruned.value == truth
        unpruned = opt_exact(inst, symmetry_breaking=False)
        assert unpruned.value == truth
        lpt_value, _ = lpt_makespan(inst)
        assert lower_bound(inst) <= pruned.value <= lpt_value


# Sizes for the pinned corpus: integers, rationals, and a + b*sqrt(2).
PINNED_POOLS = (
    [Time(k) for k in range(1, 30)],
    [Time(Fraction(k, q)) for k in range(1, 13) for q in (1, 2, 3, 4)],
    [Time(Fraction(a, 2), b) for a in range(0, 7) for b in (Fraction(1, 2), 1, 2)]
    + [Time(k) for k in range(1, 6)],
)

# (value, kind, nodes_explored) of each pinned case, in corpus order.
PINNED_RESULTS = [
    ("79", OPT_LOWER_BOUND_ONLY, 2),
    ("88", OPT_CERTIFIED, 0),
    ("58", OPT_CERTIFIED, 7),
    ("69", OPT_LOWER_BOUND_ONLY, 2),
    ("94", OPT_CERTIFIED, 11),
    ("37", OPT_EXACT, 238),
    ("65/12", OPT_LOWER_BOUND_ONLY, 2),
    ("5", OPT_EXACT, 5),
    ("119/6", OPT_CERTIFIED, 0),
    ("8", OPT_CERTIFIED, 0),
    ("50/3", OPT_CERTIFIED, 10),
    ("101/12", OPT_EXACT, 42),
    ("11/3 + 13/6 r2", OPT_LOWER_BOUND_ONLY, 2),
    ("23/2 + 7/2 r2", OPT_CERTIFIED, 23),
    ("13/2 + 2 r2", OPT_EXACT, 51),
    ("43/6 + 10/3 r2", OPT_LOWER_BOUND_ONLY, 2),
    ("25/8 + 3/2 r2", OPT_LOWER_BOUND_ONLY, 41),
    ("7 + 5/2 r2", OPT_EXACT, 28),
]


def test_opt_exact_pinned_values_kinds_and_node_counts():
    """Every pool, both prune settings, budgets that run out and the
    default. Node counts are pinned too: the CLI prints them."""
    rng = random.Random(40)
    got = []
    for pool in PINNED_POOLS:
        for symmetry_breaking in (True, False):
            for budget in (1, 40, None):
                sizes = [rng.choice(pool) for _ in range(rng.randint(7, 10))]
                inst = Instance.from_sizes(sizes, rng.randint(2, 4))
                if budget is None:
                    r = opt_exact(inst, symmetry_breaking=symmetry_breaking)
                else:
                    r = opt_exact(inst, budget, symmetry_breaking)
                got.append((str(r.value), r.kind, r.nodes_explored))
    assert got == PINNED_RESULTS


def test_opt_exact_searches_deeper_than_the_recursion_limit():
    inst = deep_instance()
    r = opt_exact(inst, node_budget=5000)
    assert r.kind == OPT_LOWER_BOUND_ONLY
    assert r.nodes_explored == 5001
    assert r.value == lower_bound(inst) == Time(11495)  # ceil(80464/7)
