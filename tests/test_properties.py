"""Property tests: the ordering, hashing and field laws of exact Time
values, Instance.from_sizes against one Job per size, instance files
read back, the greedy kernel, its bulk placement of long runs and its
invariants under any arrival order, the coded order search, rank/unrank,
the exact oracle against the greedy bound, the lower bound and Graham's
bracket on int, rational and sqrt(2) sizes, the lanes' per-size tally
against the column it counts, instance digests,
verify_bound against a run of the oracle on every trial, instances
whose ids are not 1..n against their renumbering, and the listed order,
read by position, against an equal order read through the ids."""
from __future__ import annotations

import hashlib
import pickle
import random
import sys
from decimal import ROUND_FLOOR, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from itertools import permutations
from math import lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_opt, reference_greedy, reference_render, reference_verify
from listsched import harness
from listsched.harness import instance_digest, verify_bound, worst_order_search
from listsched.model import (
    ArrivalOrder,
    Instance,
    Job,
    Time,
    build_schedule,
    format_instance,
    format_time,
    parse_instance,
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
from listsched.online import (
    Lsa,
    OnlinePolicy,
    greedy,
    online_makespan,
    run_online,
    trace_jsonl,
)
from listsched.oracle import (
    graham_bracket,
    lower_bound,
    lpt_makespan,
    lpt_order,
    opt_exact,
)

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
    the parts surviving Time(Time(...)) and a file round-trip, sqrt2_sign,
    floor() and decimal(4), all checked against a 50-digit decimal
    evaluation; and a rational Time hashing as the equal int or Fraction
    does."""
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
    # > has its own method: it must agree with the sign of the difference
    assert (tx > ty) == (sqrt2_sign(x[0] - y[0], x[1] - y[1]) > 0)
    assert (tx > r) == (sqrt2_sign(x[0] - r, x[1]) > 0)
    for a, b in (x, (r, y[1]), (-x[0], x[1])):
        value = _decimal(a, b)
        assert sqrt2_sign(a, b) == (value > 0) - (value < 0)
    # scaled to integer parts, a value with b < 0 sits just below an integer
    k = lcm(Fraction(x[0]).denominator, Fraction(x[1]).denominator)
    for t, parts in ((tx, x), (ty, y), (tx * k, (x[0] * k, x[1] * k))):
        value = _decimal(*parts)
        assert t.floor() == value.to_integral_value(ROUND_FLOOR)
        assert t.decimal(4) == str(value.quantize(Decimal("0.0001"), ROUND_HALF_UP))
    q = abs(r)
    assert hash(Time(q)) == hash(q)
    assert {q: 1}[Time(q)] == {Time(q): 1}[q] == 1
    # a denominator that is a multiple of the hash modulus has no inverse
    # modulo it, so such a value hashes as sys.hash_info.inf does
    far = Fraction(q, sys.hash_info.modulus)
    assert hash(Time(far)) == hash(far)


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


# Raw triples of either sign, some far past a machine word; _make trusts
# its caller, so negative values reach the renderer unchecked.
RAW_TRIPLES = st.tuples(
    st.one_of(st.integers(-50, 50), st.integers(-(10**40), 10**40)),
    st.one_of(st.integers(-50, 50), st.integers(-(10**40), 10**40)),
    st.one_of(st.integers(1, 60), st.integers(1, 10**30)),
)


@PROPERTY
@given(
    st.one_of(
        quantities().map(lambda parts: Time(*parts)),
        RATIONALS.filter(lambda r: r >= 0).map(Time),
        RAW_TRIPLES.map(lambda triple: Time._make(*triple)),
    ),
    st.booleans(),
)
def test_format_time_matches_a_fraction_reference(t, compact):
    assert format_time(t, compact) == reference_render(t, compact)


@st.composite
def instances(draw, max_n: int = 9, max_m: int = 5) -> Instance:
    pool = draw(st.sampled_from([RATIONAL_SIZES, SQRT2_SIZES]))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_n))
    return Instance.from_sizes(sizes, draw(st.integers(2, max_m)))


# every kind of size from_sizes takes, positive, with equal values recurring
# across kinds (2, Fraction(2), "2" and Time(2) are one size)
MIXED_SIZES = st.one_of(
    st.integers(1, 5),
    st.fractions(Fraction(1, 2), 5, max_denominator=3),
    st.sampled_from(["2", "5/2", "1 + 1 r2", "3/2 - 1/2 r2"]),
    st.sampled_from(RATIONAL_SIZES),
    st.sampled_from(SQRT2_SIZES),
)


@PROPERTY
@given(st.lists(MIXED_SIZES, min_size=1, max_size=8), st.integers(2, 4))
def test_from_sizes_matches_building_each_job(sizes, m):
    """The columns from_sizes fills give the instance that numbering a
    Job per size gives: equal and equally hashed, with the same ids, jobs,
    lanes, file bytes and exact optimum down to its node count. Its lane
    column holds each job's size in job_ids order, and an unpickled copy,
    rebuilt from its jobs by the constructor, has the same lanes."""
    instance = Instance.from_sizes(sizes, m)
    built = Instance(tuple(Job(i, s) for i, s in enumerate(sizes, start=1)), m)
    assert instance == built
    assert hash(instance) == hash(built)
    assert instance.job_ids == built.job_ids
    assert instance.jobs == built.jobs
    assert instance.lanes == built.lanes
    lanes = instance.lanes
    assert len(lanes.sizes) == len(instance.job_ids)
    for k, size in enumerate(sizes):
        assert lanes.time(lanes.sizes[k]) == Time(size)
    copy = pickle.loads(pickle.dumps(instance))
    assert copy.lanes == lanes
    assert format_instance(instance) == format_instance(built)
    got, want = opt_exact(instance), opt_exact(built)
    assert (got.value, got.kind, got.nodes_explored) == (
        want.value,
        want.kind,
        want.nodes_explored,
    )


# positive sizes: rational and sqrt(2) ones, some with a negative part on
# either side of the sqrt(2) and some far past a machine word
FILE_SIZES = st.one_of(
    quantities().map(lambda parts: Time(*parts)).filter(bool),
    st.integers(1, 60).map(lambda k: Time(-k, k)),
    st.fractions(Fraction(1, 10**30), 10**40, max_denominator=10**30).map(Time),
)


@PROPERTY
@given(st.lists(FILE_SIZES, min_size=1, max_size=8), st.integers(2, sys.maxsize))
def test_instance_files_are_ascii_and_parse_back(sizes, m):
    """format_instance writes every integer in the one form the parser
    reads, an optional '-' and ASCII digits, so the text is ASCII and reads
    back as an equal instance."""
    instance = Instance.from_sizes(sizes, m)
    text = format_instance(instance)
    assert text.isascii()
    assert parse_instance(text) == instance


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
    """(order, sizes, starting loads) for one greedy call: m from 2 to 12,
    uneven starting loads, and runs of up to 10m items over 1-3 distinct
    sizes, half of them long enough (8m or more) to be water-filled, on
    int lanes or on Time lanes with sqrt(2) parts. Int starts reach
    10*m*(largest size), so a run may end with its level below the highest
    start, as class2's run of units does beside LPT's one machine at m^2."""
    m = draw(st.integers(2, 12))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
        starts = st.integers(0, 10 * m * max(sizes))
    else:
        sizes = draw(st.lists(st.sampled_from(SQRT2_SIZES), min_size=1, max_size=3))
        starts = st.sampled_from(SQRT2_SIZES)
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
    codes, distinct, starts = call
    sizes = [distinct[c] for c in codes]
    one_by_one = greedy(sizes, list(starts), high, [])
    assert greedy(sizes, list(starts), high) == one_by_one


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


def _assert_in_graham_bracket(instance: Instance, order: ArrivalOrder) -> None:
    """lb <= opt <= LPT <= ub, and lb <= greedy <= ub under both tie-breaks,
    in lane units, for Graham's bracket of the instance's lane column; and
    lower_bound is its lb."""
    lanes = instance.lanes
    lb, ub = graham_bracket(sum(lanes.sizes), max(lanes.sizes), instance.machines)
    assert lower_bound(instance) == lanes.time(lb)

    def lane(makespan: Time):
        return makespan * lanes.scale if lanes.scale else makespan

    lpt, _ = lpt_makespan(instance)
    assert lb <= lane(opt_exact(instance).value) <= lane(lpt) <= ub
    for tie_break in ("low", "high"):
        assert lb <= lane(online_makespan(instance, order, Lsa(tie_break))) <= ub


@PROPERTY
@given(
    st.one_of(
        st.lists(st.integers(1, 12), min_size=1, max_size=8),
        st.lists(
            st.fractions(Fraction(1, 6), 12, max_denominator=6), min_size=1, max_size=8
        ),
    ),
    st.integers(2, 4),
    st.data(),
)
def test_lower_bound_is_a_whole_lane_unit_on_rational_sizes(sizes, m, data):
    """Every makespan is a whole number of 1/D units, D the least common
    denominator of the sizes, so lower_bound is one too; it stays at or
    below the optimum, and opt_exact, which stops at it, finds that
    optimum with the equal-load prune on and off. Graham's bracket, in
    whole lane units, holds the optimum, LPT and greedy in any order."""
    instance = Instance.from_sizes(sizes, m)
    unit = lcm(*(size.denominator for size in sizes))
    lb = lower_bound(instance)
    assert (lb * unit).is_integer
    assert lb >= max(Fraction(sum(sizes)) / m, max(sizes))
    # the optimum by plain enumeration, on the sizes scaled to ints
    truth = naive_opt(Instance.from_sizes([size * unit for size in sizes], m)) / unit
    assert lb <= truth
    for symmetry_breaking in (True, False):
        assert opt_exact(instance, symmetry_breaking=symmetry_breaking).value == truth
    order = ArrivalOrder(tuple(data.draw(st.permutations(instance.job_ids))))
    _assert_in_graham_bracket(instance, order)


@PROPERTY
@given(
    st.lists(st.sampled_from(SQRT2_SIZES), max_size=7),
    st.sampled_from(SQRT2_SIZES[6:]),
    st.integers(2, 4),
    st.data(),
)
def test_lower_bound_is_exact_on_sqrt2_sizes(sizes, irrational, m, data):
    """sqrt(2) sizes have no whole unit, so lower_bound is max(total/m,
    largest) exactly, and Graham's bracket divides exactly too."""
    instance = Instance.from_sizes([*sizes, irrational], m)
    largest = max(instance.sizes)
    assert lower_bound(instance) == max(total_load(instance) / m, largest)
    order = ArrivalOrder(tuple(data.draw(st.permutations(instance.job_ids))))
    _assert_in_graham_bracket(instance, order)


@st.composite
def size_runs(draw) -> list[tuple[int, object]]:
    """(count, size) runs over a pool of one to three sizes of every kind,
    so a size recurs in runs that are not adjacent, and equal values of
    different kinds ("2" and 2) are different codes; some runs are long
    enough (8m or more) for the kernel to water-fill them."""
    pool = draw(st.lists(MIXED_SIZES, min_size=1, max_size=3))
    run = st.tuples(
        st.one_of(st.integers(1, 4), st.integers(16, 40)), st.sampled_from(pool)
    )
    return draw(st.lists(run, min_size=1, max_size=6))


@PROPERTY
@given(size_runs(), st.integers(2, 4))
def test_the_tally_scores_as_the_column_it_counts(runs, m):
    """The lanes' tally lists each distinct lane value once, largest first,
    with its job count, whether the instance was built from its runs or
    from one size per job. Its total is the column's sum, lower_bound is
    the lb of the column's Graham bracket, the kernel placing its runs
    gives the loads of LPT's sorted column, and
    opt_exact, which reads both, matches its from_sizes twin down to the
    node count."""
    sizes = [size for count, size in runs for _ in range(count)]
    built = Instance._from_runs(runs, m)
    listed = Instance.from_sizes(sizes, m)
    assert built == listed and built.lanes == listed.lanes
    lanes = built.lanes
    assert lanes.distinct == tuple(sorted(set(lanes.sizes), reverse=True))
    assert lanes.counts == tuple(map(lanes.sizes.count, lanes.distinct))
    assert lower_bound(built) == lanes.time(
        graham_bracket(sum(lanes.sizes), max(lanes.sizes), m)[0]
    )
    assert lanes.total == sum(lanes.sizes)
    lpt = greedy(sorted(lanes.sizes, reverse=True), [lanes.zero] * m)
    assert greedy(lanes.distinct, [lanes.zero] * m, counts=lanes.counts) == lpt
    steps = []
    assert greedy(lanes.distinct, [lanes.zero] * m, steps=steps, counts=lanes.counts) == lpt
    assert len(steps) == len(sizes)
    got, want = opt_exact(built, 300), opt_exact(listed, 300)
    assert (got.value, got.kind, got.nodes_explored) == (
        want.value,
        want.kind,
        want.nodes_explored,
    )
    # LPT meeting the bound is the only way to decide with no node
    assert (got.nodes_explored == 0) == (lanes.time(max(lpt)) == lower_bound(built))


@PROPERTY
@given(st.lists(FILE_SIZES, min_size=1, max_size=8), st.integers(2, sys.maxsize))
def test_instance_digest_is_hashlib_sha256_of_the_file_text(sizes, m):
    instance = Instance.from_sizes(sizes, m)
    text = format_instance(instance)
    assert instance_digest(instance) == hashlib.sha256(text.encode()).hexdigest()[:12]


class NamedLsa(Lsa):
    """Keeps Lsa.choose, so it runs through the greedy kernel."""

    name = "named"


class LeastLoaded(OnlinePolicy):
    """Greedy by a plain scan of its own choose, so it runs the oracle on
    every trial."""

    name = "least-loaded"

    def choose(self, loads, job):
        return min(range(len(loads)), key=loads.__getitem__) + 1


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 60),
    st.integers(1, 8),
    st.integers(2, 4),
    st.integers(1, 9),
    st.integers(0, 9),
    st.integers(0, 2**32),
    st.sampled_from([Lsa(), Lsa("high"), NamedLsa(), LeastLoaded()]),
    st.sampled_from([harness.DEFAULT_NODE_BUDGET, 0, 50]),
)
def test_verify_bound_matches_the_oracle_on_every_trial(
    trials, max_n, max_m, lo, span, seed, policy, budget
):
    """Deciding kernel trials by Graham's certificate and skipping those
    that cannot replace the witness gives the summary of running the
    oracle on every trial; a policy off the kernel gives it exactly."""
    args = (trials, max_n, max_m, (lo, lo + span), seed, policy)
    budgets = []

    def recording_opt_exact(instance, node_budget, *rest):
        # the oracle runs at the drawn budget; the one it was handed is kept
        budgets.append(node_budget)
        return opt_exact(instance, budget, *rest)

    with mock.patch.object(harness, "opt_exact", recording_opt_exact):
        summary, want = verify_bound(*args), reference_verify(*args)
    # every oracle call of both runs was handed the library's default budget
    assert set(budgets) == {harness.DEFAULT_NODE_BUDGET}
    assert (summary.trials, summary.violations) == (want.trials, want.violations)
    got_witness, want_witness = summary.witness_report, want.witness_report
    assert got_witness.ratio == want_witness.ratio
    assert got_witness.instance == want_witness.instance
    assert got_witness.order == want_witness.order
    assert got_witness.policy == want_witness.policy == policy.name
    if isinstance(policy, LeastLoaded):
        assert summary.undecided == want.undecided
    else:
        assert summary.undecided <= want.undecided


@st.composite
def renumbered(draw) -> tuple:
    """(instance numbered 1..n, its ids mapped one to one onto strictly
    increasing ids that may be 0 or negative, an arrival order of the
    instance, a listing of its jobs)."""
    instance = draw(instances(max_n=7, max_m=3))
    n = len(instance)
    ids = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
    order = tuple(draw(st.permutations(instance.job_ids)))
    listing = draw(st.permutations(range(n)))
    return instance, sorted(ids), order, listing


@PROPERTY
@given(
    renumbered(),
    st.sampled_from([Lsa(), Lsa("high"), LeastLoaded()]),
    st.integers(1, 60),
)
def test_ids_other_than_1_to_n_score_as_their_renumbering(case, policy, cap):
    """Renumbering the jobs by an increasing map changes no score: every
    call site reads the lane column through the job ids, not by them.
    Listing the jobs out of id order changes no makespan either."""
    dense, ids, order, listing = case
    sparse = Instance(tuple(map(Job, ids, dense.sizes)), dense.machines)
    new_id = dict(zip(dense.job_ids, ids))

    def renamed(job_ids) -> tuple:
        return tuple(new_id[job_id] for job_id in job_ids)

    sparse_order = ArrivalOrder(renamed(order))
    schedule, trace = run_online(sparse, sparse_order, policy)
    want, want_trace = run_online(dense, ArrivalOrder(order), policy)
    machines = want.assignment.values()
    assert schedule.assignment == dict(zip(renamed(want.assignment), machines))
    assert (schedule.loads, schedule.makespan) == (want.loads, want.makespan)
    assert [step[1:] for step in trace] == [step[1:] for step in want_trace]
    placed = renamed(step.job_id for step in want_trace)
    assert tuple(step.job_id for step in trace) == placed
    assert online_makespan(sparse, sparse_order, policy) == want.makespan
    assert lpt_order(sparse).permutation == renamed(lpt_order(dense).permutation)
    assert build_schedule(sparse, schedule.assignment) == schedule
    got, want_opt = opt_exact(sparse), opt_exact(dense)
    assert (got.value, got.kind, got.nodes_explored) == (
        want_opt.value,
        want_opt.kind,
        want_opt.nodes_explored,
    )
    worst = worst_order_search(sparse, policy, enumeration_cap=cap)
    want_worst = worst_order_search(dense, policy, enumeration_cap=cap)
    assert worst.worst_makespan == want_worst.worst_makespan
    assert worst.best_order.permutation == renamed(want_worst.best_order.permutation)

    shuffled = Instance(tuple(sparse.jobs[k] for k in listing), sparse.machines)
    assert online_makespan(shuffled, sparse_order, policy) == want.makespan
    assert run_online(shuffled, sparse_order, policy)[0].makespan == want.makespan
    assert lpt_order(shuffled).permutation == lpt_order(sparse).permutation
    assert opt_exact(shuffled).value == want_opt.value
    got = worst_order_search(shuffled, policy, enumeration_cap=cap).worst_makespan
    assert got == want_worst.worst_makespan


class Recording(OnlinePolicy):
    """Greedy by its own scan, keeping the id of every job it is shown."""

    name = "recording"

    def __init__(self):
        self.seen = []

    def choose(self, loads, job):
        self.seen.append(job.id)
        return min(range(len(loads)), key=loads.__getitem__) + 1


@PROPERTY
@given(instances(), st.sampled_from(["low", "high"]), st.data())
def test_listed_order_scores_as_an_equal_order_read_through_ids(
    instance, tie_break, data
):
    """The listed order (which holds the instance's stored ids, a range for
    ids 1..n) is read by position; an equal order that is another object
    is checked and read through the ids. Both give the same makespan, run and report, with ids
    1..n and with scattered ids; a custom policy still sees every job, and
    an order that is not a permutation is still refused."""
    n = len(instance)
    ids = data.draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n, unique=True))
    scattered = Instance(tuple(map(Job, ids, instance.sizes)), instance.machines)
    for inst in (instance, scattered):
        listed = ArrivalOrder.as_listed(inst)
        equal = ArrivalOrder(list(inst.job_ids))
        assert listed._ids is inst._ids and listed.permutation == inst.job_ids
        assert equal == listed and equal._ids is not inst._ids
        for policy in (Lsa(tie_break), NamedLsa(tie_break)):
            want = online_makespan(inst, equal, policy)
            assert online_makespan(inst, listed, policy) == want
            assert run_online(inst, listed, policy) == run_online(inst, equal, policy)
            got = harness.competitive_ratio(inst, listed, policy)
            assert got == harness.competitive_ratio(inst, equal, policy)
            assert got.alg_makespan == want
        recording = Recording()
        schedule, _ = run_online(inst, listed, recording)
        assert recording.seen == list(inst.job_ids)
        assert schedule == run_online(inst, equal, LeastLoaded())[0]
        recording.seen.clear()
        online_makespan(inst, listed, recording)
        assert recording.seen == list(inst.job_ids)
        unused = max(inst.job_ids) + 1
        not_permutations = [inst.job_ids[:-1], inst.job_ids + (unused,)]
        not_permutations.append((unused,) + inst.job_ids[1:])
        if n > 1:
            not_permutations.append(inst.job_ids[:-1] + inst.job_ids[:1])
        for permutation in not_permutations:
            bad = ArrivalOrder(permutation)
            for policy in (Lsa(tie_break), recording):
                with pytest.raises(ValueError, match="not a permutation"):
                    online_makespan(inst, bad, policy)
                with pytest.raises(ValueError, match="not a permutation"):
                    run_online(inst, bad, policy)
                with pytest.raises(ValueError, match="not a permutation"):
                    harness.competitive_ratio(inst, bad, policy)
