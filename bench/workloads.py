"""The benchmark's four workloads and the checks on every answer.

A workload turns a seeded ``random.Random`` into an endless series of
rounds; a round is a list of ``Op``.  Rounds are stratified (every round
draws fresh inputs from the same strata of sizes), and a run always
finishes the round it is in, so two seeds exercise the same mix of input
sizes.  That keeps the figures steady across seeds without fixing the
inputs.

An op calls ``listsched`` only through module attributes looked up at call
time (``ls.cli.main``, ``ls.opt_exact`` ...), so the tracer's wrappers see
every call.  Checks use the functions captured by ``Checker`` before any
tracing starts and run outside the timed region.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

FAMILIES = ("class1", "class2", "graham_tight", "faigle")
M_BUCKETS = ((2, 10),) + tuple((lo, lo + 9) for lo in range(11, 100, 10))
README_MACHINES = "2,3,4,5,10,50,100"
README_TABLE2 = """m,class1_ratio,class2_ratio
2,1.0000,1.2500
3,1.3333,1.2222
4,1.5000,1.1875
5,1.6000,1.1600
10,1.8000,1.0900
50,1.9600,1.0196
100,1.9800,1.0099
"""

VERIFY_TRIALS = 100
VERIFY_OPS_PER_ROUND = 20

# (jobs, distinct sizes) of each worst-order instance in a round.  Every
# exhaustive shape has at most WORST_CAP distinct orders and every sampled
# one more; the giant one has 21! > sys.maxsize.  Fixing the shapes (and
# making half the distinct sizes rational) keeps each round's cost alike.
WORST_CAP = 400
WORST_EXHAUSTIVE = ((4, 4), (5, 5), (6, 4), (6, 5), (7, 3))
WORST_SAMPLED = ((8, 6), (9, 6), (10, 7), (12, 8), (14, 9), (16, 10), (18, 11))
WORST_GIANT = (21, 21)
_RATIONALS = sorted({Fraction(k, q) for k in range(1, 13) for q in (1, 2, 3)})
_SQRT2_PARTS = [(a, Fraction(b, 2)) for a in range(4) for b in range(1, 9)]

ORACLE_BUDGET = 8_000
ORACLE_N = range(14, 21)
ORACLE_M = range(3, 6)
ORACLE_SIZES = (10, 99)
ORACLE_BRUTE_N = 14  # instances this small also get an independent DP check


class CheckFailed(AssertionError):
    """An op returned, but its answer is wrong."""


@dataclass(frozen=True)
class Op:
    """One unit of measured work.

    ``call`` does the work and returns its raw result; ``check(result)``
    raises ``CheckFailed`` on a wrong answer and returns True when the
    answer's optimum came back ``lower-bound-only``.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cli_call(ls, argv: list[str]) -> tuple[int, str]:
    """Run ``listsched <argv>`` in-process; return exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ls.cli.main(argv)
    return code, out.getvalue()


class Checker:
    """Reference answers, built from functions captured before tracing."""

    def __init__(self, ls) -> None:
        self.Time = ls.model.Time
        self.parse_time = ls.model.parse_time
        self.run_online = ls.online.run_online
        self.lower_bound = ls.oracle.lower_bound
        self.lpt_makespan = ls.oracle.lpt_makespan

    def predicted(self, family: str, m: int):
        """Closed-form greedy and optimal makespans from the family docs."""
        T = self.Time
        if family == "class1":
            return T(2 * m - 2), T(m)
        if family == "class2":
            return T(m - 1 + m * m), T(m * m)
        if family == "graham_tight":
            return T(2 * m - 1), T(m)
        return {2: (T(3), T(2)), 3: (T(10), T(6))}.get(m, (T(4, 3), T(2, 2)))

    def greedy(self, sizes, m: int):
        """Least-loaded placement, lowest index on ties: the makespan."""
        loads = [self.Time(0)] * m
        for size in sizes:
            k = min(range(m), key=loads.__getitem__)
            loads[k] = loads[k] + size
        return max(loads)

    def all_orders_worst(self, sizes, m: int):
        """(distinct orders, worst greedy makespan) by plain enumeration."""
        distinct = list(dict.fromkeys(sizes))
        # equal sizes get equal codes, so the set keeps each order once
        orders = set(itertools.permutations([distinct.index(s) for s in sizes]))
        worst = max(self.greedy([distinct[c] for c in order], m) for order in orders)
        return len(orders), worst


def _brute_opt(sizes: list[int], m: int, target: int) -> int | None:
    """Smallest makespan <= target over all assignments, by a load-vector DP.

    States are sorted load tuples, so permuting machines never repeats
    work; states whose makespan exceeds ``target`` are dropped.
    """
    states = {(0,) * m}
    for size in sorted(sizes, reverse=True):
        nxt = set()
        for state in states:
            for k in range(m):
                if k and state[k] == state[k - 1]:
                    continue
                load = state[k] + size
                if load <= target:
                    nxt.add(tuple(sorted(state[:k] + (load,) + state[k + 1:])))
        states = nxt
    return min((max(s) for s in states), default=None)


def _ratio(text: str) -> Fraction:
    """Parse an exact integer ratio such as ``14/9`` or ``(35/3)/12``."""
    num, den = re.fullmatch(r"\(?([\d/]+?)\)?/\(?([\d/]+?)\)?", text).groups()
    return Fraction(num) / Fraction(den)


# -- families_sweep ---------------------------------------------------------


def _run_family_op(ls, ck: Checker, family: str, m: int) -> Op:
    argv = ["run", "--family", family, "--m", str(m), "--format", "json"]

    def check(result) -> bool:
        code, out = result
        expect(code == 0, f"exit code {code}")
        (entry,) = json.loads(out)
        lsa, opt = ck.predicted(family, m)
        expect(ck.parse_time(entry["alg_makespan"]) == lsa, f"makespan {entry['alg_makespan']} != {lsa}")
        expect(ck.parse_time(entry["opt"]) == opt, f"optimum {entry['opt']} != {opt}")
        expect(entry["satisfied"] is True, "bound not satisfied")
        return entry["opt_kind"] == "lower-bound-only"

    return Op(f"run {family} m={m}", lambda: cli_call(ls, argv), check)


def _table2_op(ls) -> Op:
    argv = ["table2", "--machines", README_MACHINES]

    def check(result) -> bool:
        code, out = result
        expect(code == 0, f"exit code {code}")
        expect(out == README_TABLE2, "table2 differs from the README table")
        return False

    return Op("table2", lambda: cli_call(ls, argv), check)


def families_sweep(ls, ck: Checker, rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = [_table2_op(ls)]
        for family in FAMILIES:
            for lo, hi in M_BUCKETS:
                # m and its mirror in the bucket: a round's total work then
                # barely depends on the draw, though every m stays reachable
                m = rng.randint(lo, hi)
                ops += [_run_family_op(ls, ck, family, m), _run_family_op(ls, ck, family, lo + hi - m)]
        rng.shuffle(ops)
        yield ops


# -- verify_random ----------------------------------------------------------

_MAX_RATIO = re.compile(r"max ratio: (\S+) = [\d.]+ \(m=(\d+), bound [\d.]+\)")


def _verify_op(ls, seed: int) -> Op:
    argv = ["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)]

    def check(result) -> bool:
        code, out = result
        expect(code == 0, f"exit code {code}")
        expect("\nviolations: 0\n" in out, "violations reported")
        match = _MAX_RATIO.search(out)
        expect(match is not None, "no max ratio line")
        m = int(match.group(2))
        expect(_ratio(match.group(1)) <= 2 - Fraction(1, m), "max ratio above 2 - 1/m")
        return False

    return Op(f"verify seed={seed}", lambda: cli_call(ls, argv), check)


def verify_random(ls, ck: Checker, rng: random.Random) -> Iterator[list[Op]]:
    while True:
        yield [_verify_op(ls, rng.randrange(2**31)) for _ in range(VERIFY_OPS_PER_ROUND)]


# -- worst_order_mixed ------------------------------------------------------


def _mixed_sizes(ls, rng: random.Random, n: int, distinct: int) -> list:
    """``n`` sizes over ``distinct`` values, half rational, half with sqrt(2)."""
    Time = ls.model.Time
    values = [Time(x) for x in rng.sample(_RATIONALS, distinct // 2)]
    values += [Time(a, b) for a, b in rng.sample(_SQRT2_PARTS, distinct - distinct // 2)]
    sizes = values + [rng.choice(values) for _ in range(n - distinct)]
    rng.shuffle(sizes)
    return sizes


def _order_count(sizes) -> int:
    total = math.factorial(len(sizes))
    for c in Counter(sizes).values():
        total //= math.factorial(c)
    return total


def _worst_op(ls, ck: Checker, instance, seed: int) -> Op:
    sizes = [job.size for job in instance.jobs]
    m = instance.machines
    count = _order_count(sizes)

    def check(result) -> bool:
        schedule, _ = ck.run_online(instance, result.best_order)
        expect(schedule.makespan == result.worst_makespan, "returned order does not reach worst makespan")
        if count <= WORST_CAP:
            orders, worst = ck.all_orders_worst(sizes, m)
            expect(result.exhaustive and result.orders_examined == orders, "search was not exhaustive")
            expect(result.worst_makespan == worst, f"worst {result.worst_makespan} != enumerated {worst}")
        else:
            expect(not result.exhaustive and result.orders_examined == WORST_CAP, "sample size")
        return False

    return Op(
        f"worst-order n={len(sizes)} m={m} orders={count}",
        lambda: ls.worst_order_search(instance, enumeration_cap=WORST_CAP, seed=seed),
        check,
    )


def worst_order_mixed(ls, ck: Checker, rng: random.Random) -> Iterator[list[Op]]:
    Instance = ls.model.Instance
    while True:
        ops = [
            _worst_op(ls, ck, Instance.from_sizes(_mixed_sizes(ls, rng, n, d), rng.randint(2, 4)),
                      rng.randrange(2**31))
            for n, d in WORST_EXHAUSTIVE + WORST_SAMPLED + (WORST_GIANT,)
        ]
        rng.shuffle(ops)
        yield ops


# -- oracle_deep ------------------------------------------------------------


def _oracle_op(ls, ck: Checker, instance) -> Op:
    sizes = [job.size.as_fraction() for job in instance.jobs]
    m = instance.machines

    def check(result) -> bool:
        lb = ck.lower_bound(instance)
        lpt, _ = ck.lpt_makespan(instance)
        undecided = result.kind == "lower-bound-only"
        if undecided:
            expect(result.value == lb, "undecided value is not the lower bound")
        expect(lb <= result.value <= lpt, f"optimum {result.value} outside [{lb}, {lpt}]")
        if not undecided and len(sizes) <= ORACLE_BRUTE_N:
            value = result.value.as_fraction()
            best = _brute_opt([int(s) for s in sizes], m, int(value))
            expect(best == value, f"optimum {value} but enumeration finds {best}")
        return undecided

    return Op(
        f"opt n={len(sizes)} m={m}",
        lambda: ls.opt_exact(instance, node_budget=ORACLE_BUDGET),
        check,
    )


def oracle_deep(ls, ck: Checker, rng: random.Random) -> Iterator[list[Op]]:
    while True:
        ops = [
            _oracle_op(ls, ck, ls.model.Instance.from_sizes(
                [rng.randint(*ORACLE_SIZES) for _ in range(n)], m))
            for n in ORACLE_N
            for m in ORACLE_M
        ]
        rng.shuffle(ops)
        yield ops


WORKLOADS = {
    "families_sweep": families_sweep,
    "verify_random": verify_random,
    "worst_order_mixed": worst_order_mixed,
    "oracle_deep": oracle_deep,
}

# The percentile that op_tail_ms reports, fixed per workload at the
# seed-commit baseline (bench/baseline.json): the highest percentile that
# left at least ten samples beyond it in every baseline run.  Fixing it
# keeps a faster or slower program, which completes more or fewer ops in
# the same time, compared at the same percentile.
TAIL_PERCENTILE = {
    "families_sweep": 95.0,
    "verify_random": 95.0,
    "worst_order_mixed": 90.0,
    "oracle_deep": 95.0,
}
