"""Competitive-ratio measurement for online schedulers.

Everything here stays exact: ratios are quotients in the a + b*sqrt(2)
field and the greedy guarantee 2 - 1/m is checked with rational
arithmetic. Decimal strings appear only at the presentation edge,
rounded half-up to four places.
"""
from __future__ import annotations

import csv
import io
import json
import random
import sys
from fractions import Fraction
from functools import cache
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, Union

from .families import gen_class1, gen_class2
from .model import (
    ArrivalOrder,
    Instance,
    Time,
    _check_count,
    _write_atomic,
    format_instance,
    format_time,
)
from .multiperm import (
    iter_permutations,
    permutation_count,
    unrank_permutation,
)
from .online import Lsa, OnlinePolicy, _choose_each, _kernel_high, greedy, online_makespan
from .oracle import DEFAULT_NODE_BUDGET, OptResult, graham_bracket, opt_exact, opt_structured

__all__ = [
    "RatioReport",
    "WorstOrderResult",
    "BoundViolation",
    "BoundCheckSummary",
    "instance_digest",
    "competitive_ratio",
    "worst_order_search",
    "Table2Row",
    "table2",
    "verify_bound",
    "export_report",
    "export_long_csv",
    "REPORT_COLUMNS",
]

REPORT_COLUMNS = (
    "m",
    "family",
    "alg_makespan",
    "opt",
    "ratio_exact",
    "ratio_4dp",
    "bound",
    "satisfied",
)

VERIFY_MAX_N, VERIFY_MAX_M = 12, 4  # verify's contract: the oracle always finishes


@cache
def _sha256() -> Callable:
    """CPython's own sha256, found once on first use: hashlib maps OpenSSL."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:
        from hashlib import sha256
    return sha256


def instance_digest(instance: Instance) -> str:
    """Short content hash identifying an instance in reports."""
    text = format_instance(instance)
    return _sha256()(text.encode("utf-8")).hexdigest()[:12]


def greedy_bound(m: int) -> Fraction:
    """The greedy guarantee 2 - 1/m as an exact fraction."""
    return Fraction(2 * m - 1, m)


class RatioReport(NamedTuple):
    """One measured run: the instance and order run, the policy's makespan,
    the optimum and their exact ratio. The rest is derived when read.

    When the oracle could only certify a lower bound, ratio is an upper
    estimate of the true ratio and bound_satisfied is None.
    """

    instance: Instance
    order: ArrivalOrder
    family_tag: Optional[str]
    policy: str
    alg_makespan: Time
    opt: OptResult
    ratio: Time

    @property
    def label(self) -> str:
        """The family tag, or else the instance's content hash."""
        if self.family_tag is not None:
            return self.family_tag
        return instance_digest(self.instance)

    @property
    def m(self) -> int:
        return self.instance.machines

    @property
    def ratio_4dp(self) -> str:
        return self.ratio.decimal(4)

    @property
    def bound_2_minus_1_over_m(self) -> str:
        return Time(greedy_bound(self.m)).decimal(4)

    @property
    def bound_satisfied(self) -> Optional[bool]:
        return self.ratio <= greedy_bound(self.m) if self.opt.is_exact else None

    @property
    def ratio_exact(self) -> str:
        return f"{_side_str(self.alg_makespan)}/{_side_str(self.opt.value)}"


def _side_str(t: Time) -> str:
    s = format_time(t, compact=True)
    return f"({s})" if ("r2" in s or "/" in s) else s


def competitive_ratio(
    instance: Instance,
    order: Optional[ArrivalOrder] = None,
    policy: Optional[OnlinePolicy] = None,
    *,
    family_tag: Optional[str] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> RatioReport:
    """Run the policy online and compare its makespan against the optimum.

    For instances tagged class1 or class2 an exact optimum must agree with
    the family's closed form. (LPT meets the load lower bound on both
    families at every m, so the oracle certifies their optimum at once.)
    """
    if order is None:
        order = ArrivalOrder.as_listed(instance)
    if policy is None:
        policy = Lsa()
    alg_makespan = online_makespan(instance, order, policy)
    opt = opt_exact(instance, node_budget)
    if family_tag in ("class1", "class2") and opt.is_exact:
        analytic = opt_structured(family_tag, instance.machines)
        if opt.value != analytic:
            raise RuntimeError(
                f"oracle disagreement on {family_tag} m={instance.machines}: "
                f"search says {opt.value}, closed form says {analytic}"
            )
    ratio = alg_makespan / opt.value
    if opt.is_exact and ratio < 1:
        raise RuntimeError(
            f"ratio {ratio} below 1 against an exact optimum; "
            f"instance {instance_digest(instance)} is mis-solved"
        )
    return RatioReport(instance, order, family_tag, policy.name, alg_makespan, opt, ratio)


class WorstOrderResult(NamedTuple):
    """Outcome of searching arrival orders for the worst makespan."""

    best_order: ArrivalOrder
    worst_makespan: Time
    orders_examined: int
    exhaustive: bool


def worst_order_search(
    instance: Instance,
    policy: Optional[OnlinePolicy] = None,
    enumeration_cap: int = 1_000_000,
    seed: int = 0,
) -> WorstOrderResult:
    """Find the arrival order maximizing the policy's makespan.

    Under the greedy kernel (Lsa, or a subclass that keeps its choose),
    orders that permute equal-size jobs among themselves are equivalent,
    as its choice sees only sizes and loads, so the search walks distinct
    size sequences. Any other policy sees the Job, so it walks job-id
    sequences. Up to enumeration_cap of them are enumerated exhaustively
    in lexicographic order; beyond the cap, exactly enumeration_cap
    sequences are sampled uniformly without replacement (deterministic for
    a fixed seed). enumeration_cap is an int >= 1 (model's count rule).
    Ties are broken toward the lexicographically smallest job-id order.
    """
    _check_count("enumeration_cap", enumeration_cap, 1)
    _check_count("seed", seed)
    high, m = _kernel_high(policy), instance.machines
    # Sizes (or ids) become codes 0..k-1 in increasing order: the map is
    # monotone, so lexicographic order, ranks and tie-breaks are theirs.
    lanes = instance.lanes
    keys = lanes.sizes if high is not None else instance.job_ids
    distinct = sorted(set(keys))
    code = {key: c for c, key in enumerate(distinct)}
    codes = [code[key] for key in keys]
    pools: list[list[int]] = [[] for _ in distinct]
    for job_id, c in sorted(zip(instance.job_ids, codes)):
        pools[c].append(job_id)
    total = permutation_count(codes)
    exhaustive = total <= enumeration_cap
    if exhaustive:
        sequences = iter_permutations(codes)
    else:
        rng = random.Random(seed)
        if total <= sys.maxsize:
            ranks = rng.sample(range(total), enumeration_cap)
        else:
            # range() has no len() past sys.maxsize; with far fewer draws
            # than ranks, a repeat is rare and is simply drawn again
            ranks = set()
            while len(ranks) < enumeration_cap:
                ranks.add(rng.randrange(total))
        sequences = (unrank_permutation(codes, r) for r in sorted(ranks))

    def realize(sequence: Sequence[int]) -> tuple[int, ...]:
        # the k-th occurrence of a code takes the k-th smallest id of its pool
        taken = [iter(pool) for pool in pools]
        return tuple([next(taken[c]) for c in sequence])

    if high is not None:
        def makespan(seq: Sequence[int]):
            return max(greedy(list(map(distinct.__getitem__, seq)), [lanes.zero] * m, high))

    else:
        # each id is its own code: its Job and lane are looked up once
        pair_of = dict(zip(codes, zip(instance, lanes.sizes)))

        def makespan(sequence: Sequence[int]):
            return max(_choose_each(sequence, pair_of, instance, policy, None))

    best = best_ids = None
    for sequence in sequences:
        value = makespan(sequence)
        if best is None or best < value:
            best, best_ids = value, realize(sequence)
        elif value == best:
            ids = realize(sequence)
            if ids < best_ids:
                best_ids = ids
    examined = total if exhaustive else enumeration_cap
    return WorstOrderResult(
        ArrivalOrder(best_ids), lanes.time(best), examined, exhaustive
    )


class Table2Row(NamedTuple):
    m: int
    class1_ratio: str
    class2_ratio: str


def table2(machine_counts: Sequence[int]) -> list[Table2Row]:
    """Worst-order greedy-vs-optimum ratios for both structured families.

    Each row holds the two ratios rendered to four decimal places; the
    underlying arithmetic is exact.
    """
    rows = []
    for m in machine_counts:
        class1, class2 = (
            competitive_ratio(f.instance, family_tag=f.family_tag)
            for f in (gen_class1(m), gen_class2(m))
        )
        rows.append(Table2Row(m, class1.ratio_4dp, class2.ratio_4dp))
    return rows


class BoundViolation(AssertionError):
    """The greedy guarantee failed; the report carries the counterexample."""

    def __init__(self, report: RatioReport):
        self.report, self.instance, self.order = report, report.instance, report.order
        super().__init__(
            f"ratio {report.ratio} = {report.ratio_4dp} exceeds bound "
            f"{report.bound_2_minus_1_over_m} on m={report.m}\n"
            f"order: {report.order.permutation}\n"
            f"instance:\n{format_instance(report.instance)}"
        )

    def __reduce__(self) -> tuple:
        # BaseException rebuilds from args, which hold only the message
        return type(self), (self.report,)


class BoundCheckSummary(NamedTuple):
    """Result of a randomized check of the greedy guarantee.

    undecided counts the trials that reached the oracle and kept only a
    lower bound on the optimum (verify_bound says which trials reach it).
    The witness has the largest ratio among the decided trials, or among
    all trials when none was decided.
    """

    trials: int
    undecided: int
    witness_report: RatioReport

    violations = 0  # a violation raises BoundViolation instead
    witness_instance = property(attrgetter("witness_report.instance"))
    witness_order = property(attrgetter("witness_report.order"))


def verify_bound(
    trials: int,
    max_n: int = VERIFY_MAX_N,
    max_m: int = VERIFY_MAX_M,
    size_range: tuple[int, int] = (1, 9),
    seed: int = 0,
    policy: Optional[OnlinePolicy] = None,
) -> BoundCheckSummary:
    """Check the 2 - 1/m guarantee on random instances and random orders.

    Instance sizes stay small (the contract caps n at 12 and m at 4) so the
    exact oracle always finishes. Under the greedy kernel a run outside
    Graham's bracket [lb, ub] of its int sizes (oracle.graham_bracket)
    raises RuntimeError, and as opt >= lb only a trial whose alg/lb beats
    the largest decided ratio so far can replace the witness and reach the
    oracle. Any other policy runs the oracle on every trial. A trial whose
    ratio exceeds the bound raises BoundViolation with the serialized
    counterexample. Each count goes through model's count rule: trials is
    an int >= 1, max_n an int in 1..12, max_m an int in 2..4, size_range
    (lo, hi) ints with lo >= 1 and hi >= lo, and seed any int.

    A trial is what random.Random(seed) would draw with randint(1, max_n),
    randint(2, max_m), randint(lo, hi) for each of the n sizes, and
    shuffle of the ids 1..n, drawn here from getrandbits by the rejection
    rule those methods end in. CPython seeds with abs(seed), so seed and
    -seed draw the same trials.
    """
    _check_count("trials", trials, 1)
    _check_count("max_n", max_n, 1, VERIFY_MAX_N)
    _check_count("max_m", max_m, 2, VERIFY_MAX_M)
    lo, hi = size_range
    _check_count("size_range lo", lo, 1)
    _check_count("size_range hi", hi, lo)
    _check_count("seed", seed)
    # randint and shuffle end in random's _randbelow: for a width w it
    # draws getrandbits(w.bit_length()) until the value is below w, so a
    # width of 1 still draws a bit
    bits = random.Random(seed).getrandbits

    def below(w: int) -> int:
        k = w.bit_length()
        r = bits(k)
        while r >= w:
            r = bits(k)
        return r

    width = hi - lo + 1
    k = width.bit_length()
    high = _kernel_high(policy)
    # the largest ratio over decided trials, and over undecided ones
    best: dict[bool, RatioReport] = {}
    p, q = 0, 1  # the largest decided ratio as ints, 0 before any
    undecided = 0
    for _ in range(trials):
        n, m = 1 + below(max_n), 2 + below(max_m - 1)
        sizes = []
        for _ in range(n):  # inline: a call per size would halve the saving
            r = bits(k)
            while r >= width:
                r = bits(k)
            sizes.append(lo + r)
        ids = list(range(1, n + 1))  # the ids Instance.from_sizes gives
        for i in range(n - 1, 0, -1):  # shuffle's swaps
            j = below(i + 1)
            ids[i], ids[j] = ids[j], ids[i]
        if high is not None:
            alg = max(greedy(list(map([0, *sizes].__getitem__, ids)), [0] * m, high))
            lb, ub = graham_bracket(sum(sizes), max(sizes), m)
            if not lb <= alg <= ub:
                raise RuntimeError(
                    f"greedy makespan {alg} on m={m} is outside Graham's "
                    f"bracket [{lb}, {ub}] for sizes {sizes} in order {ids}"
                )
            # ratio <= alg / lb, as opt is a whole number >= lb
            if alg * q <= p * lb:
                continue
        instance = Instance.from_sizes(sizes, m)
        report = competitive_ratio(instance, ArrivalOrder(tuple(ids)), policy)
        satisfied = report.bound_satisfied
        if satisfied is False:
            raise BoundViolation(report)
        decided = satisfied is not None
        undecided += not decided
        if decided not in best or best[decided].ratio < report.ratio:
            best[decided] = report
            if decided:
                p, q = report.ratio.as_fraction().as_integer_ratio()
    return BoundCheckSummary(trials, undecided, best.get(True) or best[False])


def _report_row(report: RatioReport) -> list[str]:
    satisfied = {None: "", True: "true", False: "false"}[report.bound_satisfied]
    return [
        str(report.m),
        report.label,
        format_time(report.alg_makespan, compact=True),
        format_time(report.opt.value, compact=True),
        report.ratio_exact,
        report.ratio_4dp,
        report.bound_2_minus_1_over_m,
        satisfied,
    ]


def export_report(
    reports: Sequence[RatioReport],
    format: str = "csv",
    destination: Union[str, Path, None] = None,
) -> str:
    """Serialize reports as CSV or JSON; optionally write them to a file.

    Output is deterministic for fixed inputs. Files are written via a
    temporary sibling and renamed into place, so a failed write leaves no
    partial file behind.
    """
    if format == "csv":
        text = _csv_text(REPORT_COLUMNS, map(_report_row, reports))
    elif format == "json":
        payload = []
        for report in reports:
            entry = dict(zip(REPORT_COLUMNS, _report_row(report)))
            entry["satisfied"] = report.bound_satisfied
            entry["m"] = report.m
            entry["opt_kind"] = report.opt.kind
            entry["nodes_explored"] = report.opt.nodes_explored
            entry["policy"] = report.policy
            payload.append(entry)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'json', not {format!r}")
    if destination is not None:
        _write_atomic(Path(destination), text)
    return text


def export_long_csv(
    reports: Sequence[RatioReport],
    destination: Union[str, Path, None] = None,
) -> str:
    """Plot-ready long format: one (m, family, ratio) row per report."""
    text = _csv_text(
        ("m", "family", "ratio"),
        ((report.m, report.label, report.ratio_4dp) for report in reports),
    )
    if destination is not None:
        _write_atomic(Path(destination), text)
    return text


def _csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """A header line, then one line per row, each ended by a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()
