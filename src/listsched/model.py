"""Exact domain model for makespan scheduling on identical machines.

Every quantity of work is a value a + b*sqrt(2) with rational a and b.
That field is closed under the arithmetic the schedulers need, so loads,
makespans and competitive ratios are compared exactly; floats appear only
in presentation helpers, never in decisions.
"""
from __future__ import annotations

import os
import re
import sys
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering
from itertools import chain, repeat
from math import gcd, isqrt, lcm
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

RationalLike = Union[int, Fraction]
TimeLike = Union["Time", int, Fraction, str]
Operand = Union["Time", int, Fraction]

__all__ = [
    "Time",
    "SQRT2",
    "sqrt2_sign",
    "as_time",
    "parse_time",
    "format_time",
    "Job",
    "Instance",
    "Lanes",
    "ArrivalOrder",
    "Schedule",
    "build_schedule",
    "total_load",
    "validate_schedule",
    "InstanceParseError",
    "parse_instance",
    "format_instance",
    "load_instance",
    "save_instance",
]


def _sign_pair(p: int, q: int) -> int:
    """Exact sign of p + q*sqrt(2) for integers p and q."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if p > 0:
        if q > 0:
            return 1
        # p > 0 > q: compare p against |q|*sqrt(2) via squares.
        # p*p == 2*q*q is impossible for nonzero integers, so no zero case.
        return 1 if p * p > 2 * q * q else -1
    if q < 0:
        return -1
    return -1 if p * p > 2 * q * q else 1


def _rational(x: object) -> tuple[int, int]:
    """Numerator and denominator of an int or Fraction; floats, strings and
    everything else are refused, so no inexact value reaches a decision."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"not an exact rational: {x!r}")


def sqrt2_sign(a: RationalLike, b: RationalLike) -> int:
    """Exact sign (-1, 0, or +1) of a + b*sqrt(2) for rational a, b."""
    p, q = _rational(a)
    r, s = _rational(b)
    return _sign_pair(p * s, r * q)


def _floor_pair(a: int, b: int, d: int) -> int:
    """Exact floor of (a + b*sqrt(2)) / d for integers a, b and d >= 1."""
    s = isqrt(2 * b * b)  # floor(|b| * sqrt(2))
    # b*sqrt(2) is irrational for b != 0, so the numerator is floor(a + b*sqrt(2))
    return (a + (s if b >= 0 else -s - 1)) // d


def _normalize(a: int, b: int, d: int) -> tuple[int, int, int]:
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(gcd(a, b), d)
    if g > 1:
        a //= g
        b //= g
        d //= g
    return a, b, d


@total_ordering
class Time:
    """Exact non-negative quantity a + b*sqrt(2) with rational a and b.

    Stored internally as an integer triple (a + b*sqrt(2)) / d with d >= 1
    and gcd(a, b, d) == 1, so comparisons reduce to integer arithmetic.
    Construction rejects negative values; subtraction that would go below
    zero raises ValueError.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, value: TimeLike = 0, sqrt2_coeff: RationalLike = 0):
        if isinstance(value, str):
            if sqrt2_coeff:
                raise TypeError("string literal and sqrt2_coeff cannot be combined")
            value, sqrt2_coeff = parse_time(value), 0
        if isinstance(value, Time):
            a, b, d = value._a, value._b, value._d
        else:
            a, d = _rational(value)
            b = 0
        p, q = _rational(sqrt2_coeff)
        # (a + b r) / d + (p / q) r = (a q + (b q + p d) r) / (d q)
        a, b, d = _normalize(a * q, b * q + p * d, d * q)
        if _sign_pair(a, b) < 0:
            raise ValueError(f"negative quantity: {_render(a, b, d, compact=True)}")
        self._a, self._b, self._d = a, b, d

    @classmethod
    def _make(cls, a: int, b: int, d: int) -> "Time":
        """Build from a raw triple, normalizing but trusting non-negativity."""
        self = object.__new__(cls)
        self._a, self._b, self._d = _normalize(a, b, d)
        return self

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def sqrt2_part(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_rational(self) -> bool:
        return self._b == 0

    @property
    def is_integer(self) -> bool:
        return self._b == 0 and self._d == 1

    def as_fraction(self) -> Fraction:
        if self._b:
            raise ValueError(f"{self} has an irrational part")
        return Fraction(self._a, self._d)

    def __add__(self, other: Operand) -> "Time":
        if type(other) is not Time:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        sd, od = self._d, other._d
        return Time._make(
            self._a * od + other._a * sd,
            self._b * od + other._b * sd,
            sd * od,
        )

    __radd__ = __add__

    def __sub__(self, other: Operand) -> "Time":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a = self._a * o._d - o._a * self._d
        b = self._b * o._d - o._b * self._d
        if _sign_pair(a, b) < 0:
            raise ValueError(f"negative quantity: {self} - {o}")
        return Time._make(a, b, self._d * o._d)

    def __mul__(self, other: Operand) -> "Time":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # (a1 + b1 r)(a2 + b2 r) = a1 a2 + 2 b1 b2 + (a1 b2 + a2 b1) r
        return Time._make(
            self._a * o._a + 2 * self._b * o._b,
            self._a * o._b + self._b * o._a,
            self._d * o._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Operand) -> "Time":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by zero quantity")
        # Multiply by the conjugate: 1/(a + b r) = (a - b r) / (a^2 - 2 b^2).
        norm = o._a * o._a - 2 * o._b * o._b
        a = self._a * o._a - 2 * self._b * o._b
        b = self._b * o._a - self._a * o._b
        return Time._make(a * o._d, b * o._d, self._d * norm)

    # total_ordering derives <= and >= from these; > is its own, for max()
    def __lt__(self, other: Operand) -> bool:
        if type(other) is not Time:
            other = _coerce(other, quantity=False)
            if other is None:
                return NotImplemented
        return _sign_pair(
            self._a * other._d - other._a * self._d,
            self._b * other._d - other._b * self._d,
        ) < 0

    def __gt__(self, other: Operand) -> bool:
        if type(other) is not Time:
            other = _coerce(other, quantity=False)
            if other is None:
                return NotImplemented
        return _sign_pair(
            self._a * other._d - other._a * self._d,
            self._b * other._d - other._b * self._d,
        ) > 0

    def __eq__(self, other: object) -> bool:
        if type(other) is not Time:
            other = _coerce(other, quantity=False)
            if other is None:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        a, b, d = self._a, self._b, self._d
        if b:
            return hash((a, b, d))
        # a rational value hashes as the equal int or Fraction does
        return hash(a) if d == 1 else hash(Fraction(a, d))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __float__(self) -> float:
        return (self._a + self._b * 1.4142135623730951) / self._d

    def floor(self) -> int:
        return _floor_pair(self._a, self._b, self._d)

    def decimal(self, places: int = 4) -> str:
        """Round half-up to places decimal places, an int >= 0, exactly."""
        _check_count("places", places, 0)
        scale = 10 ** places
        # floor(x * scale + 1/2) computed on the scaled triple
        n = _floor_pair(2 * self._a * scale + self._d, 2 * self._b * scale, 2 * self._d)
        if places == 0:
            return str(n)
        whole, frac = divmod(n, scale)
        return f"{whole}.{frac:0{places}d}"

    def __str__(self) -> str:
        return _render(self._a, self._b, self._d, compact=False)

    def __repr__(self) -> str:
        return f"Time({_render(self._a, self._b, self._d, compact=True)!r})"


def _coerce(value: object, quantity: bool = True) -> Optional[Time]:
    """The operand of an operator as a Time: every operator takes exactly
    Time, int and Fraction (floats and strings are refused alike).

    Arithmetic takes only quantities, so a negative int or Fraction raises
    ValueError there, as Time(-1) does; the comparisons order any rational
    against a quantity (quantity=False), so for them it is returned as is.
    """
    if type(value) is Time:
        return value
    if not isinstance(value, (int, Fraction)):
        return None
    if quantity:
        return Time(value)
    return Time._make(value.numerator, 0, value.denominator)


def as_time(value: TimeLike) -> Time:
    return value if type(value) is Time else Time(value)


def _render_rat(n: int, d: int) -> str:
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # str() refuses an int past sys.get_int_max_str_digits()
        n, d = (format(Decimal(k), "f") for k in (n, d))
        return n if d == "1" else f"{n}/{d}"


def _render(a: int, b: int, d: int, compact: bool) -> str:
    g = gcd(a, d)
    head = _render_rat(a // g, d // g)
    if not b:
        return head
    sign = "-" if b < 0 else "+"
    g = gcd(b, d)
    coeff = _render_rat(abs(b) // g, d // g)
    if compact:
        return f"{head}{sign}{coeff}r2"
    return f"{head} {sign} {coeff} r2"


def format_time(t: Time, compact: bool = False) -> str:
    """Render in file syntax: '<rat>' or '<rat> + <rat> r2'."""
    return _render(t._a, t._b, t._d, compact)


_SPACE = " \t\n\r\f\v"  # the only whitespace read: what \s means with re.ASCII
_DIGITS = "[0-9]+"
_INT_RE = re.compile(f"-?{_DIGITS}")  # the one integer form read or written
_RAT = f"{_DIGITS}(?:/{_DIGITS})?"
_TIME_RE = re.compile(rf"(-?{_RAT})(?:\s*([+-])\s*({_RAT})\s*r2)?", re.ASCII)


def _parse_int(text: str) -> int:
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_time(text: str) -> Time:
    """Parse '<rat>' or '<rat> +/- <rat> r2'; spaces only between tokens."""
    s = text.strip(_SPACE)
    match = _TIME_RE.fullmatch(s)
    if not match:
        raise ValueError(f"bad time literal: {text!r}")
    try:
        rat = Fraction(match.group(1))
        coeff = Fraction(match.group(3)) if match.group(2) else Fraction(0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in time literal: {text!r}") from None
    if match.group(2) == "-":
        coeff = -coeff
    return Time(rat, coeff)


SQRT2 = Time(0, 1)


class _Frozen:
    """Value semantics for the model's validated types, as a frozen dataclass
    gives them, without importing dataclasses at start-up.

    A subclass names its fields in __match_args__ and its constructor sets
    them with object.__setattr__. Instances compare equal
    only to instances of the same class with equal fields, hash as the
    tuple of their fields and repr as Name(field=...); no attribute can be
    set or deleted. Pickling and copying call the constructor on the field
    values, so every copy is checked as the original was: the default path
    would set slots through the refused __setattr__.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Job(_Frozen):
    """A job with an immutable identity and a strictly positive size."""

    __slots__ = __match_args__ = ("id", "size")
    id: int
    size: Time

    def __init__(self, id: int, size: TimeLike):
        if not isinstance(size, Time):
            size = as_time(size)
        if not size:
            raise ValueError(f"job {id} must have positive size")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "size", size)


class Lanes(NamedTuple):
    """An instance's job sizes lowered once, as a column aligned with job_ids.

    When every size is rational, each becomes an int count of 1/scale
    units (scale is the least common denominator), so loads add and compare
    as plain ints; otherwise the sizes stay Time and scale is 0. Lane values
    of either kind support exactly + and the comparisons, and time() turns
    a load back into a Time at the edge.
    """

    sizes: tuple  # the lane value of each job, in job_ids order
    zero: Union[int, Time]
    scale: int

    def time(self, value: Union[int, Time]) -> Time:
        return Time._make(value, 0, self.scale) if self.scale else value

    @classmethod
    def lower(cls, values: Sequence[Time], codes: Iterable[int]) -> "Lanes":
        """The one rule that lowers sizes: the lanes of values[c] for c in codes."""
        if any(value._b for value in values):
            return cls(tuple(map(values.__getitem__, codes)), Time(0), 0)
        scale = lcm(*{value._d for value in values})
        lane = [value._a * (scale // value._d) for value in values]
        return cls(tuple(map(lane.__getitem__, codes)), 0, scale)


# the types Job turns into a Time; a float or Decimal may equal one of them
_EXACT = (Time, int, Fraction, str)


def _check_count(name: str, value: object, low: int, high: Optional[int] = None) -> None:
    # the one rule for every count a caller hands the library: 0.5 or
    # Fraction(3) would pass a range check, then stop a loop or size a sample
    # as a non-int, or fail far from the call; a bool is an int, so its range
    # decides
    if not isinstance(value, int):
        raise TypeError(f"{name} must be an int, not {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


class Instance(_Frozen):
    """A job list (in listed order) together with the machine count.

    An instance is exactly four columns, all set when it is built: job_ids,
    sizes (each a Time), machines, and lanes, the sizes lowered for the
    greedy kernel and the oracle, in job_ids order; on sqrt(2) lanes sizes
    is the lane tuple itself. Nothing is cached later: jobs, job() and
    iteration build Job views from the columns on each call.
    Instance(jobs, machines) takes Job objects and keeps only their
    columns. A copy or an unpickled instance is rebuilt and checked by a
    constructor: from_sizes when its ids are 1..n, else Instance(jobs,
    machines).
    """

    __slots__ = ("job_ids", "sizes", "machines", "lanes")
    __match_args__ = ("job_ids", "sizes", "machines")
    job_ids: tuple[int, ...]
    sizes: tuple[Time, ...]
    machines: int
    lanes: Lanes

    def __init__(self, jobs: Iterable[Job], machines: int):
        jobs = tuple(jobs)
        ids = tuple(map(attrgetter("id"), jobs))
        self._store(ids, tuple(map(attrgetter("size"), jobs)), machines)
        seen = set()
        for job_id in ids:
            if job_id in seen:
                raise ValueError(f"duplicate job id {job_id}")
            seen.add(job_id)

    @classmethod
    def from_sizes(cls, sizes: Sequence[TimeLike], machines: int) -> "Instance":
        """Build an instance with ids 1..n assigned in listed order."""
        self = object.__new__(cls)
        self._store(tuple(range(1, len(sizes) + 1)), sizes, machines)
        return self

    @classmethod
    def _from_runs(cls, runs: Sequence[tuple[int, TimeLike]], machines: int) -> "Instance":
        """from_sizes of the sizes listed run by run: each (count, size)
        stands for count >= 1 consecutive jobs of that size."""
        counts, sizes = zip(*runs)
        self = object.__new__(cls)
        self._store(tuple(range(1, sum(counts) + 1)), sizes, machines, counts)
        return self

    def _store(
        self,
        ids: tuple,
        sizes: Sequence[TimeLike],
        machines: int,
        counts: Optional[Sequence[int]] = None,
    ) -> None:
        """Check the sizes and the machine count and set the four columns.

        Families reuse a handful of sizes thousands of times, so each
        distinct size is converted, checked and lowered once. One pass over
        a size table codes every job, hashing each size once: a missing
        size is entered with the next code, the table's own length. Given
        counts, sizes[k] is the size of a run of counts[k] jobs: the run's
        size is hashed once and its code repeated counts[k] times.
        """
        # a float equal to an exact size before it would pass as that size
        if not all(issubclass(kind, _EXACT) for kind in set(map(type, sizes))):
            bad = next(s for s in sizes if not isinstance(s, _EXACT))
            raise TypeError(f"not an exact rational: {bad!r}")
        table = defaultdict()
        table.default_factory = table.__len__
        codes = list(map(table.__getitem__, sizes))
        if counts is not None:
            codes = list(chain.from_iterable(map(repeat, codes, counts)))
        distinct = []
        for code, s in enumerate(table):
            size = as_time(s)
            if not size:
                # Job refuses it, naming the first job of that size
                Job(ids[codes.index(code)], size)
            distinct.append(size)
        _check_count("machine count", machines, 2)
        if machines > sys.maxsize:
            raise ValueError(
                f"machine count {machines} is past the largest list "
                f"index {sys.maxsize}"
            )
        if not ids:
            raise ValueError("an instance needs at least one job")
        lanes = Lanes.lower(distinct, codes)
        # on sqrt(2) lanes the lane column is the Time column
        sizes = tuple(map(distinct.__getitem__, codes)) if lanes.scale else lanes.sizes
        for name, value in zip(self.__slots__, (ids, sizes, machines, lanes)):
            object.__setattr__(self, name, value)

    def __reduce__(self) -> tuple:
        # ids 1..n are rebuilt from the sizes alone, which repeat a few
        # values that pickle stores once, not as one Job per job
        if self.job_ids == tuple(range(1, len(self) + 1)):
            return type(self).from_sizes, (self.sizes, self.machines)
        return type(self), (self.jobs, self.machines)

    @property
    def jobs(self) -> tuple[Job, ...]:
        return tuple(map(Job, self.job_ids, self.sizes))

    def job(self, job_id: int) -> Job:
        try:
            k = self.job_ids.index(job_id)
        except ValueError:
            raise KeyError(job_id) from None
        return Job(self.job_ids[k], self.sizes[k])

    def __len__(self) -> int:
        return len(self.job_ids)

    def __iter__(self) -> Iterator[Job]:
        return map(Job, self.job_ids, self.sizes)


class ArrivalOrder(_Frozen):
    """A permutation of an instance's job ids, giving the arrival sequence."""

    __slots__ = __match_args__ = ("permutation",)
    permutation: tuple[int, ...]

    def __init__(self, permutation: Iterable[int]):
        object.__setattr__(self, "permutation", tuple(permutation))

    @classmethod
    def as_listed(cls, instance: Instance) -> "ArrivalOrder":
        return cls(instance.job_ids)

    def covers(self, instance: Instance) -> bool:
        """True when this is a permutation of exactly the instance's job ids."""
        return len(self.permutation) == len(instance) and sorted(
            self.permutation
        ) == sorted(instance.job_ids)

    def __len__(self) -> int:
        return len(self.permutation)


class Schedule(NamedTuple):
    """A complete assignment of jobs to machines with the induced loads.

    Machines are numbered 1..m and keep their identity; loads[k] is the
    total size on machine k+1, and makespan is the maximum load.
    """

    assignment: Mapping[int, int]
    loads: tuple[Time, ...]
    makespan: Time


def build_schedule(instance: Instance, assignment: Mapping[int, int]) -> Schedule:
    """Construct a schedule from a job-id -> machine map, checking it fully."""
    lanes = instance.lanes
    size_of = dict(zip(instance.job_ids, lanes.sizes))
    loads = [lanes.zero] * instance.machines
    for job_id, machine in assignment.items():
        try:
            size = size_of[job_id]
        except KeyError:
            raise ValueError(f"assignment mentions unknown job {job_id}") from None
        if not 1 <= machine <= instance.machines:
            raise ValueError(f"job {job_id} assigned to invalid machine {machine}")
        loads[machine - 1] += size
    missing = set(instance.job_ids) - set(assignment)
    if missing:
        raise ValueError(f"jobs never assigned: {sorted(missing)}")
    makespan = lanes.time(max(loads))
    return Schedule(dict(assignment), tuple(map(lanes.time, loads)), makespan)


def total_load(instance: Instance) -> Time:
    lanes = instance.lanes
    return lanes.time(sum(lanes.sizes, lanes.zero))


def validate_schedule(instance: Instance, schedule: Schedule) -> Optional[str]:
    """Return None when the schedule is consistent, else a diagnostic string."""
    if len(schedule.loads) != instance.machines:
        return (
            f"schedule has {len(schedule.loads)} loads for "
            f"{instance.machines} machines"
        )
    try:
        expected = build_schedule(instance, schedule.assignment).loads
    except ValueError as exc:
        return str(exc)
    for k, (want, got) in enumerate(zip(expected, schedule.loads), start=1):
        if want != got:
            return f"machine {k} load is {got}, assignment implies {want}"
    if schedule.makespan != max(schedule.loads):
        return f"makespan {schedule.makespan} is not the maximum load"
    return None


class InstanceParseError(ValueError):
    """A malformed instance file, with the offending line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def format_instance(instance: Instance) -> str:
    """Serialize: 'm=<machines>' then one job size per line, listed order."""
    lines = [f"m={instance.machines}"]
    lines.extend(map(format_time, instance.sizes))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> Instance:
    """Parse the serialized form; '#' starts a comment, blank lines skipped."""
    lines = text.split("\n")  # only '\n' ends a line; '\r' is whitespace
    end = len(lines) + bool(lines[-1])  # the line number past the last line
    bare = ((no, raw.split("#", 1)[0].strip(_SPACE)) for no, raw in enumerate(lines, 1))
    content = [(line_no, line) for line_no, line in bare if line]
    if not content:
        raise InstanceParseError(end, "missing machine count 'm=<int>'")
    (machines_line, header), *body = content
    if not header.startswith("m="):
        raise InstanceParseError(machines_line, "expected machine count 'm=<int>'")
    try:
        machines = _parse_int(header[2:])
    except ValueError:
        raise InstanceParseError(
            machines_line, f"bad machine count {header[2:]!r}"
        ) from None
    sizes = []
    for line_no, line in body:
        try:
            sizes.append(parse_time(line))
        except ValueError as exc:
            raise InstanceParseError(line_no, str(exc)) from None
    try:
        _check_count("machine count", machines, 2)
    except ValueError as exc:
        raise InstanceParseError(machines_line, str(exc)) from None
    if not sizes:
        raise InstanceParseError(end, "instance has no jobs")
    try:
        return Instance.from_sizes(sizes, machines)
    except ValueError as exc:
        # from_sizes names the first zero-size job before it checks m against
        # sys.maxsize; report either at its line
        line_no = machines_line if all(sizes) else body[sizes.index(0)][0]
        raise InstanceParseError(line_no, str(exc)) from None


def load_instance(path: Union[str, Path]) -> Instance:
    return parse_instance(Path(path).read_text(encoding="utf-8"))


def save_instance(instance: Instance, path: Union[str, Path]) -> None:
    _write_atomic(Path(path), format_instance(instance))


def _write_atomic(destination: Path, text: str) -> None:
    """Write text to destination through a temporary file in the same
    directory, renamed into place: a failed write leaves neither a partial
    file nor the temporary one. The temporary file has a random name of
    fixed length, so any valid destination name can be written, and is
    created exclusively, so concurrent writers never share one; it has the
    mode open() gives a new file under the process umask."""
    tmp = destination.parent / f".{os.urandom(8).hex()}.tmp"
    try:
        out = open(tmp, "x", encoding="utf-8")
        try:
            with out:
                out.write(text)
            os.replace(tmp, destination)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # name the destination, not a temporary file that no longer exists
        if exc.filename is None:
            raise
        raise OSError(exc.errno, exc.strerror, str(destination)) from exc
