"""Property tests: the ordering, hashing and field laws of exact Time
values, the greedy kernel, its bulk placement of long runs and its
invariants under any arrival order, the coded order search, rank/unrank,
and the exact oracle against the greedy bound."""
from __future__ import annotations

import random
from decimal import Context
from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_greedy
from listsched.harness import worst_order_search
from listsched.model import (
    ArrivalOrder,
    Instance,
    Time,
    format_time,
    parse_time,
    sqrt2_sign,
    total_load,
)
from listsched.multiperm import (
    iter_permutations,
    permutation_count,
    rank_permutation,
    unrank_permutation,
)
from listsched.online import Lsa, greedy, online_makespan, run_online, trace_jsonl
from listsched.oracle import lower_bound, opt_exact

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# Few distinct values, so equal loads (and tie-breaks) are common.
RATIONAL_SIZES = [Time(Fraction(k, q)) for k in (1, 2, 3, 5, 7) for q in (1, 2, 3, 4)]
SQRT2_SIZES = RATIONAL_SIZES[:6] + [
    Time(a, b) for a in (0, 1, 2) for b in (Fraction(1, 2), 1, Fraction(3, 2))
]


# Rationals of both signs, ints among them; few values, so equal ones recur.
RATIONALS = st.one_of(st.integers(-3, 6), st.fractions(-40, 40, max_denominator=12))
DECIMAL = Context(prec=50)
ROOT2 = DECIMAL.sqrt(2)


def _decimal(a, b):
    """a + b*sqrt(2) to 50 significant digits."""
    a, b = Fraction(a), Fraction(b)
    return DECIMAL.add(
        DECIMAL.divide(a.numerator, a.denominator),
        DECIMAL.multiply(DECIMAL.divide(b.numerator, b.denominator), ROOT2),
    )


@st.composite
def quantities(draw) -> tuple:
    """Parts (a, b) of a non-negative a + b*sqrt(2); b may be negative,
    and a then starts just above -b*sqrt(2) (99/70 > sqrt(2))."""
    b = draw(RATIONALS)
    floor = max(Fraction(0), -b * Fraction(99, 70))
    return floor + draw(st.fractions(0, 20, max_denominator=12)), b


def _order(x: tuple, y: tuple) -> int:
    """-1, 0 or 1 as a + b*sqrt(2) of x is below, equal to or above y's.
    Equal parts mean equal values; unequal parts differ far above 10^-50."""
    if Fraction(x[0]) == Fraction(y[0]) and Fraction(x[1]) == Fraction(y[1]):
        return 0
    dx, dy = _decimal(*x), _decimal(*y)
    return (dx > dy) - (dx < dy)


def _assert_ordered(left, right, want: int) -> None:
    assert (left < right) == (want < 0)
    assert (left <= right) == (want <= 0)
    assert (left > right) == (want > 0)
    assert (left >= right) == (want >= 0)
    assert (left == right) == (want == 0)
    assert (left != right) == (want != 0)


@PROPERTY
@given(
    quantities(),
    quantities(),
    RATIONALS,
    st.sampled_from(["apart", "same", "rational"]),
)
def test_time_agrees_with_a_50_digit_decimal(x, y, r, case):
    """All six comparisons against Time, int and Fraction (reflected too),
    the parts surviving Time(Time(...)) and a file round-trip, and
    sqrt2_sign, all checked against a 50-digit decimal evaluation; and a
    rational Time hashing as the equal int or Fraction does."""
    if case == "same":
        y = x
    elif case == "rational" and not x[1]:
        r = x[0]  # a rational equal to x
    tx, ty = Time(*x), Time(*y)
    assert (tx.rational_part, tx.sqrt2_part) == x
    assert tx == Time(tx) == parse_time(format_time(tx))
    _assert_ordered(tx, ty, _order(x, y))
    _assert_ordered(tx, r, _order(x, (r, 0)))
    _assert_ordered(r, tx, _order((r, 0), x))
    for a, b in (x, (r, y[1]), (-x[0], x[1])):
        value = _decimal(a, b)
        assert sqrt2_sign(a, b) == (value > 0) - (value < 0)
    q = abs(r)
    assert hash(Time(q)) == hash(q)
    assert {q: 1}[Time(q)] == {Time(q): 1}[q] == 1


@PROPERTY
@given(quantities(), quantities(), quantities())
def test_time_obeys_the_field_laws(x, y, z):
    a, b, c = Time(*x), Time(*y), Time(*z)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if b:
        assert (a * b) / b == a
    low, high = (a, b) if a < b else (b, a)
    assert (high - low) + low == high


@st.composite
def instances(draw, max_n: int = 9, max_m: int = 5) -> Instance:
    pool = draw(st.sampled_from([RATIONAL_SIZES, SQRT2_SIZES]))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_n))
    return Instance.from_sizes(sizes, draw(st.integers(2, max_m)))


@st.composite
def instances_with_order(
    draw, max_n: int = 9, max_m: int = 5
) -> tuple[Instance, ArrivalOrder]:
    instance = draw(instances(max_n, max_m))
    return instance, ArrivalOrder(tuple(draw(st.permutations(instance.job_ids))))


@PROPERTY
@given(instances_with_order(), st.sampled_from(["low", "high"]))
def test_kernel_matches_reference_scan(case, tie_break):
    instance, order = case
    schedule, trace = run_online(instance, order, Lsa(tie_break))
    want_schedule, want_trace = reference_greedy(instance, order, tie_break == "high")
    assert schedule == want_schedule
    assert trace == want_trace
    assert trace[-1] == want_trace[-1]
    assert trace_jsonl(trace) == trace_jsonl(want_trace)
    assert online_makespan(instance, order, Lsa(tie_break)) == want_schedule.makespan


@PROPERTY
@given(instances_with_order(), st.sampled_from(["low", "high"]))
def test_greedy_invariants_under_any_order(case, tie_break):
    """Each job lands on a least-loaded machine (the lowest or highest of
    them by the tie-break), the loads add up to the total, and they end
    at most one job size apart."""
    instance, order = case
    schedule, trace = run_online(instance, order, Lsa(tie_break))
    for step in trace:
        least = min(step.loads_before)
        ties = [k for k, load in enumerate(step.loads_before, 1) if load == least]
        assert step.machine == (ties[-1] if tie_break == "high" else ties[0])
    assert sum(schedule.loads, Time(0)) == total_load(instance)
    largest = max(job.size for job in instance.jobs)
    assert max(schedule.loads) - min(schedule.loads) <= largest


@st.composite
def run_heavy_calls(draw) -> tuple[list, list, list]:
    """(order, sizes, starting loads) for one greedy call: m from 2 to 7,
    uneven starting loads, and runs of up to 10m items over 1-3 distinct
    sizes, half of them long enough (8m or more) to be water-filled, on
    int lanes or on Time lanes with sqrt(2) parts."""
    m = draw(st.integers(2, 7))
    if draw(st.booleans()):
        values, starts = st.integers(1, 12), st.integers(0, 40)
    else:
        values, starts = st.sampled_from(SQRT2_SIZES), st.sampled_from(SQRT2_SIZES)
    sizes = draw(st.lists(values, min_size=1, max_size=3))
    run = st.tuples(
        st.integers(0, len(sizes) - 1),
        st.one_of(st.integers(1, m), st.integers(8 * m, 10 * m)),
    )
    order = []
    for code, length in draw(st.lists(run, min_size=1, max_size=5)):
        order += [code] * length
    return order, sizes, draw(st.lists(starts, min_size=m, max_size=m))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(run_heavy_calls(), st.booleans())
def test_bulk_placement_matches_one_by_one(call, high):
    """With no step sink, long equal-size runs are water-filled; a sink
    forces the one-by-one heap loop, and the loads must not differ."""
    order, sizes, starts = call
    one_by_one = greedy(order, sizes, list(starts), high, [])
    assert greedy(order, sizes, list(starts), high) == one_by_one


def _reference_worst(instance, tie_break, orders):
    """(worst makespan, smallest job-id order reaching it) over orders."""
    best = best_ids = None
    for ids in orders:
        schedule, _ = reference_greedy(instance, ArrivalOrder(ids), tie_break == "high")
        value = schedule.makespan
        if best is None or best < value or (value == best and ids < best_ids):
            best, best_ids = value, ids
    return best, best_ids


@PROPERTY
@given(instances(max_n=5, max_m=3), st.sampled_from(["low", "high"]))
def test_coded_search_matches_plain_enumeration(instance, tie_break):
    result = worst_order_search(instance, Lsa(tie_break))
    orders = sorted(permutations(instance.job_ids))
    assert result.exhaustive
    size_orders = {tuple(instance.job(i).size for i in ids) for ids in orders}
    assert result.orders_examined == len(size_orders)
    assert (result.worst_makespan, result.best_order.permutation) == _reference_worst(
        instance, tie_break, orders
    )


@PROPERTY
@given(instances(max_n=8, max_m=3), st.integers(1, 30), st.integers(0, 2**31))
def test_sampled_search_draws_the_ranks_of_the_sizes(instance, cap, seed):
    sizes = [job.size for job in instance.jobs]
    total = permutation_count(sizes)
    result = worst_order_search(instance, enumeration_cap=cap, seed=seed)
    if total <= cap:
        assert result.exhaustive
        return
    # the same seeded ranks, unranked over the sizes themselves
    ranks = sorted(random.Random(seed).sample(range(total), cap))
    pools = {}
    for job in instance.jobs:
        pools.setdefault(job.size, []).append(job.id)
    orders = []
    for rank in ranks:
        taken = {size: iter(ids) for size, ids in pools.items()}
        orders.append(tuple(next(taken[s]) for s in unrank_permutation(sizes, rank)))
    assert not result.exhaustive and result.orders_examined == cap
    assert (result.worst_makespan, result.best_order.permutation) == _reference_worst(
        instance, "low", orders
    )


@PROPERTY
@given(st.lists(st.sampled_from(RATIONAL_SIZES[:3] + SQRT2_SIZES[-2:]), max_size=6))
def test_rank_and_unrank_are_a_bijection(items):
    listed = list(iter_permutations(items))
    assert len(listed) == permutation_count(items) == len(set(permutations(items)))
    for rank, arrangement in enumerate(listed):
        assert unrank_permutation(items, rank) == arrangement
        assert rank_permutation(arrangement) == rank


@PROPERTY
@given(instances_with_order(max_n=8, max_m=4))
def test_oracle_sits_between_the_load_bound_and_greedy(case):
    """lower_bound <= opt <= greedy <= (2 - 1/m) * opt, and the equal-load
    prune never changes the optimum."""
    instance, order = case
    opt = opt_exact(instance)
    assert opt.is_exact
    unpruned = opt_exact(instance, symmetry_breaking=False)
    assert (unpruned.value, unpruned.kind) == (opt.value, opt.kind)
    greedy_makespan = online_makespan(instance, order)
    m = instance.machines
    assert lower_bound(instance) <= opt.value <= greedy_makespan
    assert greedy_makespan <= opt.value * (2 - Fraction(1, m))
