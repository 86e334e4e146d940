"""Exact arithmetic, domain types, and the instance file format."""
from __future__ import annotations

import copy
import errno
import math
import os
import pickle
import random
import sys
from collections import namedtuple
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from listsched import model
from listsched.model import (
    SQRT2,
    ArrivalOrder,
    Instance,
    InstanceParseError,
    Job,
    Schedule,
    Time,
    as_time,
    build_schedule,
    format_instance,
    format_time,
    load_instance,
    parse_instance,
    parse_time,
    save_instance,
    sqrt2_sign,
    total_load,
    validate_schedule,
)


def test_construction_and_parts():
    t = Time(3)
    assert t.rational_part == 3
    assert t.sqrt2_part == 0
    assert t.is_rational and t.is_integer
    u = Time(Fraction(1, 2), Fraction(3, 4))
    assert u.rational_part == Fraction(1, 2)
    assert u.sqrt2_part == Fraction(3, 4)
    assert not u.is_rational and not u.is_integer
    assert float(Time(3, 2)) == 3 + 2 * math.sqrt(2)
    assert Time("4 + 3 r2") == Time(4, 3)
    assert Time(Time(4, 3)) == Time(4, 3)
    with pytest.raises(TypeError, match="cannot be combined"):
        Time("1", 1)
    with pytest.raises(ValueError, match="irrational part"):
        SQRT2.as_fraction()


@pytest.mark.parametrize(
    "t",
    [Time(0), Time(7), Time(Fraction(3, 8)), SQRT2, Time(Fraction(5, 2), Fraction(-1, 3)),
     Time(0, Fraction(4, 9)), Time(2, 1)],
    ids=repr,
)
def test_repr_literal_builds_the_same_value(t):
    assert repr(t).startswith("Time('") and repr(t).endswith("')")
    assert Time(repr(t)[6:-2]) == t


def test_integer_values_round_trip_exactly():
    for n in (0, 1, 7, 10**18):
        t = Time(n)
        assert t.as_fraction() == n
        assert t == n
        assert parse_time(format_time(t)) == t


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        Time(-1)
    with pytest.raises(ValueError):
        Time(1, -1)  # 1 - sqrt(2) < 0
    assert Time(3, -2)  # 3 - 2*sqrt(2) > 0 is a fine value


def test_addition_and_subtraction():
    a = Time(1, 1)
    assert a + a == Time(2, 2)
    assert Time(2, 2) - a == a
    assert a + 1 == Time(2, 1)
    assert (a - a) == Time(0)
    with pytest.raises(ValueError):
        _ = a - Time(2, 2)


def test_multiplication_and_division():
    a = Time(1, 1)
    assert a * a == Time(3, 2)
    assert (a * a) / a == a
    assert Time(4, 3) / Time(2, 2) == Time(1, Fraction(1, 2))
    assert Time(1) / SQRT2 == Time(0, Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        _ = a / Time(0)


def test_scaling_by_rationals():
    assert Time(1, 1) * 2 == Time(2, 2)
    assert 2 * Time(1, 1) == Time(2, 2)
    assert Time(1, 1) * Fraction(1, 2) == Time(Fraction(1, 2), Fraction(1, 2))
    assert Time(3) / 2 == Fraction(3, 2)
    assert sum([Time(1), Time(2)]) == 3
    assert sum([Time(1), SQRT2], Time(0)) == Time(1, 1)


def test_floats_are_rejected():
    for bad in ((0.1,), (1, 0.5), (1.0,)):
        with pytest.raises(TypeError):
            Time(*bad)
    with pytest.raises(TypeError):
        Job(1, 0.5)


@pytest.mark.parametrize("operand", ["1", 1.0, 0.5, None])
def test_every_operator_refuses_the_same_operands(operand):
    t = Time(2, 1)
    for op in (
        lambda: t + operand,
        lambda: t - operand,
        lambda: t * operand,
        lambda: t / operand,
        lambda: t < operand,
        lambda: t <= operand,
        lambda: t > operand,
        lambda: t >= operand,
    ):
        with pytest.raises(TypeError):
            op()
    assert t != operand


def test_every_operator_takes_ints_and_fractions():
    t = Time(2, 1)
    for operand in (1, Fraction(1, 2), Time(1)):
        assert t + operand - operand == t
        assert (t * operand) / operand == t
        assert t > operand and t >= operand and not t < operand and not t <= operand


def test_comparisons_mix_time_and_rationals():
    assert 1 < SQRT2 < 2
    assert SQRT2 < Fraction(3, 2)
    assert SQRT2 != 1
    assert Time(2) == 2
    assert Time(Fraction(1, 2)) == Fraction(1, 2)
    assert Time(0) <= Time(0)
    assert Time(2, 1) > Time(2)
    assert hash(Time(2)) == hash(2)
    assert hash(Time(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({Time(1, 1), Time(1, 1), Time(2, 2)}) == 2


def test_sign_agrees_with_high_precision_decimal():
    getcontext().prec = 200
    root2 = Decimal(2).sqrt()
    rng = random.Random(20260815)
    for trial in range(10_000):
        if trial % 4 == 0:
            # near-cancellation: a deliberately close to -b*sqrt(2)
            b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            grid = 10**6
            a = Fraction(round(-float(b) * 2**0.5 * grid), grid)
        elif trial % 4 == 1:
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            b = Fraction(0)
        else:
            a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            b = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        value = (
            Decimal(a.numerator) / Decimal(a.denominator)
            + Decimal(b.numerator) / Decimal(b.denominator) * root2
        )
        want = 0 if value == 0 else (1 if value > 0 else -1)
        assert sqrt2_sign(a, b) == want, (a, b)


def test_sqrt2_sign_refuses_floats_and_strings():
    for bad in (0.5, 1.0, "1", "1/2"):
        with pytest.raises(TypeError):
            sqrt2_sign(bad, 1)
        with pytest.raises(TypeError):
            sqrt2_sign(1, bad)


def test_floor_is_exact():
    assert SQRT2.floor() == 1
    assert Time(2, 2).floor() == 4  # 4.828...
    assert Time(3, -2).floor() == 0  # 0.171...
    assert Time(Fraction(7, 2)).floor() == 3
    assert Time(7).floor() == 7
    assert Time(0).floor() == 0


def test_decimal_rounds_half_up():
    assert Time(2, 2).decimal(4) == "4.8284"
    assert (Time(4, 3) / Time(2, 2)).decimal(4) == "1.7071"
    assert Time(Fraction(5, 3)).decimal(4) == "1.6667"
    assert Time(Fraction(1, 3)).decimal(4) == "0.3333"
    assert Time(Fraction(1, 2)).decimal(0) == "1"
    assert Time(Fraction(25, 1000)).decimal(2) == "0.03"
    assert Time(Fraction(3, 2)).decimal(4) == "1.5000"
    assert Time(2).decimal(4) == "2.0000"


def test_parse_and_format_literals():
    assert parse_time("3") == Time(3)
    assert parse_time("3/2") == Time(Fraction(3, 2))
    assert parse_time("1 + 1/2 r2") == Time(1, Fraction(1, 2))
    assert parse_time("1+1/2r2") == Time(1, Fraction(1, 2))
    assert parse_time("3 - 1 r2") == Time(3, -1)
    assert parse_time("0/5") == Time(0)
    assert format_time(Time(4, 3)) == "4 + 3 r2"
    assert format_time(Time(4, 3), compact=True) == "4+3r2"
    assert format_time(Time(Fraction(3, 2))) == "3/2"
    assert format_time(Time(3, -1)) == "3 - 1 r2"
    assert str(Time(1, Fraction(1, 2))) == "1 + 1/2 r2"


def test_parse_rejects_malformed_literals():
    for bad in ("", "abc", "1 +", "1 + r2", "1 + 2 r3", "1/0", "--3", "1 2"):
        with pytest.raises(ValueError):
            parse_time(bad)


def test_parse_format_round_trip_random():
    rng = random.Random(7)
    for _ in range(500):
        a = Fraction(rng.randint(0, 999), rng.randint(1, 99))
        b = Fraction(rng.randint(0, 999), rng.randint(1, 99))
        t = Time(a, b)
        assert parse_time(format_time(t)) == t
        assert parse_time(format_time(t, compact=True)) == t


def test_as_time_coercions():
    assert as_time(3) == Time(3)
    assert as_time(Fraction(1, 2)) == Time(Fraction(1, 2))
    assert as_time("1 + 1 r2") == Time(1, 1)
    t = Time(5)
    assert as_time(t) is t
    with pytest.raises(TypeError):
        as_time(1.5)


def test_job_requires_positive_size():
    assert Job(1, Time(2)).size == Time(2)
    assert Job(2, 3).size == Time(3)  # coerced
    with pytest.raises(ValueError):
        Job(1, Time(0))
    with pytest.raises(ValueError):
        Job(1, 0)


def test_instance_invariants():
    inst = Instance.from_sizes([1, 1, 2], 2)
    assert inst.machines == 2
    assert inst.job_ids == (1, 2, 3)
    assert [j.size for j in inst] == [Time(1), Time(1), Time(2)]
    assert inst.job(3).size == Time(2)
    assert len(inst) == 3
    with pytest.raises(ValueError):
        Instance.from_sizes([1], 1)
    with pytest.raises(ValueError):
        Instance.from_sizes([], 2)
    with pytest.raises(ValueError):
        Instance((Job(1, Time(1)), Job(1, Time(2))), 2)


def test_instance_ids_in_any_order_and_their_duplicates():
    jobs = [Job(job_id, Time(job_id)) for job_id in (5, 2, 9, 1)]
    inst = Instance(tuple(jobs), 2)
    assert inst.job_ids == (5, 2, 9, 1)
    assert inst.sizes == (Time(5), Time(2), Time(9), Time(1))
    # the instance keeps the columns of the Job objects given, not the Jobs
    assert inst.jobs == tuple(jobs)
    assert inst.job(9) == jobs[2]
    assert ArrivalOrder((1, 2, 5, 9)).covers(inst)
    with pytest.raises(ValueError, match="duplicate job id 2"):
        Instance(tuple(jobs) + (Job(2, Time(3)), Job(5, Time(1))), 2)
    # the machine count is checked before the ids
    with pytest.raises(ValueError, match="machine count must be >= 2, got 1"):
        Instance((Job(1, 1), Job(1, 2)), 1)


def _model_values() -> list:
    """Each validated model type: a value built by position, its twin built
    by keyword, its field values and its repr."""
    jobs = (Job(1, 2), Job(2, "1/2"), Job(3, "1 + 1 r2"))
    return [
        (Job(3, "1/2"), Job(id=3, size=Fraction(1, 2)), (3, Time(Fraction(1, 2))),
         "Job(id=3, size=Time('1/2'))"),
        (Instance.from_sizes([2, "1/2", "1 + 1 r2"], 2), Instance(jobs=jobs, machines=2),
         ((1, 2, 3), (Time(2), Time(Fraction(1, 2)), Time(1, 1)), 2),
         "Instance(job_ids=(1, 2, 3), sizes=(Time('2'), Time('1/2'), Time('1+1r2')), "
         "machines=2)"),
        (ArrivalOrder([3, 1, 2]), ArrivalOrder(permutation=iter((3, 1, 2))), ((3, 1, 2),),
         "ArrivalOrder(permutation=(3, 1, 2))"),
    ]


MODEL_TYPES = (Job, Instance, ArrivalOrder)


def _fields_of(value) -> tuple:
    """The field values, read by positional pattern as for a dataclass."""
    match value:
        case Job(job_id, size):
            return job_id, size
        case Instance(job_ids, sizes, machines):
            return job_ids, sizes, machines
        case ArrivalOrder(permutation):
            return (permutation,)


@pytest.mark.parametrize("index", range(len(MODEL_TYPES)))
def test_model_type_equality_hash_and_repr(index):
    value, twin, fields, text = _model_values()[index]
    kind = MODEL_TYPES[index]
    assert type(value) is type(twin) is kind
    assert value == twin and twin is not value and not value != twin
    assert hash(value) == hash(twin) == hash(fields)
    assert repr(value) == repr(twin) == text
    # a plain tuple or another record type with the same fields is not equal
    look_alike = namedtuple(kind.__name__, kind.__match_args__)(*fields)
    others = [v for v, *_ in _model_values() if type(v) is not kind]
    for other in (fields, look_alike, *others):
        assert value.__eq__(other) is NotImplemented
        assert value != other and other != value
    assert _fields_of(value) == fields


def test_model_types_differ_by_any_field():
    assert Job(1, 2) != Job(2, 2) and Job(1, 2) != Job(1, 3)
    assert Instance.from_sizes([1, 2], 2) != Instance.from_sizes([2, 1], 2)
    assert Instance.from_sizes([1, 2], 2) != Instance.from_sizes([1, 2], 3)
    assert Instance((Job(2, 1), Job(1, 2)), 2) != Instance.from_sizes([1, 2], 2)
    assert ArrivalOrder((1, 2)) != ArrivalOrder((2, 1))


@pytest.mark.parametrize("index", range(len(MODEL_TYPES)))
def test_model_type_attributes_cannot_be_set_or_deleted(index):
    value, _, fields, text = _model_values()[index]
    for name in (*type(value).__match_args__, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert _fields_of(value) == fields and repr(value) == text


@pytest.mark.parametrize("index", range(len(MODEL_TYPES)))
def test_model_type_pickle_and_copy_round_trips(index):
    value, _, fields, text = _model_values()[index]
    if isinstance(value, Instance):  # the lanes and the Job views before the copy
        lanes, jobs = value.lanes, value.jobs
    for back in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert type(back) is type(value) and back is not value
        assert back == value and hash(back) == hash(fields)
        assert repr(back) == text
        if isinstance(value, Instance):
            assert back.lanes == lanes  # lowered by the constructor
            assert back.jobs == jobs
            assert back.job(3) == value.job(3)


def test_model_types_pickle_and_copy_through_their_constructors():
    """A pickled or copied value is rebuilt by calling its class, so it is
    checked again as the original was; an instance numbered 1..n is rebuilt
    by from_sizes, and any other by Instance from its jobs."""
    assert Job(1, 2).__reduce__() == (Job, (1, Time(2)))
    assert ArrivalOrder((3, 1)).__reduce__() == (ArrivalOrder, ((3, 1),))
    jobs = (Job(2, 1), Job(1, "1/2"))
    assert Instance(jobs, 3).__reduce__() == (Instance, (jobs, 3))
    assert Instance.from_sizes([2, 1], 2).__reduce__() == (
        Instance.from_sizes,
        ((Time(2), Time(1)), 2),
    )
    numbered = Instance((Job(1, 2), Job(2, 1)), 2)
    assert numbered.__reduce__() == Instance.from_sizes([2, 1], 2).__reduce__()
    skipped = (Job(1, 2), Job(3, 1))
    assert Instance(skipped, 2).__reduce__() == (Instance, (skipped, 2))


def test_a_pickled_instance_numbered_1_to_n_stores_each_size_once():
    """The sizes of an instance numbered 1..n repeat a few values, which
    pickle stores once each: 9,901 jobs of two sizes take under 25 KB
    (one Job per job took 108,790 bytes). Loading calls from_sizes, so a
    stream carrying a zero size is refused as from_sizes refuses it."""
    instance = Instance.from_sizes([1] * 9900 + [10000], 100)
    data = pickle.dumps(instance)
    assert len(data) < 25_000
    back = pickle.loads(data)
    assert back == instance and back.lanes == instance.lanes
    build, (sizes, machines) = instance.__reduce__()
    with pytest.raises(ValueError, match="^job 9901 must have positive size$"):
        build(sizes[:-1] + (Time(0),), machines)


@pytest.mark.parametrize("sqrt2", [False, True])
def test_from_sizes_hashes_each_size_once(monkeypatch, sqrt2):
    """One pass over the size table codes every job: n lookups, and one
    more hash for each of the k distinct sizes as it is entered."""
    rng = random.Random(20)
    values = [Time(Fraction(k, 7)) for k in range(1, 60)]
    values += [Time(k, 1) for k in range(1, 60)] if sqrt2 else [Time(k) for k in range(60, 120)]
    sizes = [rng.choice(values) for _ in range(500)]
    distinct = len(set(sizes))
    calls = []
    original = Time.__hash__

    def counted(t):
        calls.append(t)
        return original(t)

    jobs = tuple(map(Job, range(500), sizes))
    monkeypatch.setattr(Time, "__hash__", counted)
    for build in (lambda: Instance.from_sizes(sizes, 3), lambda: Instance(jobs, 3)):
        calls.clear()
        assert build().sizes == tuple(sizes)
        assert len(calls) == len(sizes) + distinct


def test_sqrt2_sizes_are_the_lane_column():
    for inst in (
        Instance.from_sizes([1, Time(1, 1), "1/2", Time(1, 1)], 2),
        Instance((Job(4, Time(1, 1)), Job(2, 1)), 2),
    ):
        assert inst.lanes.scale == 0
        assert inst.sizes is inst.lanes.sizes
    rational = Instance.from_sizes([1, "1/2", 1], 2)
    assert rational.sizes == (Time(1), Time(Fraction(1, 2)), Time(1))
    assert rational.lanes.sizes == (2, 1, 2)


def test_from_sizes_checks_each_distinct_size_once():
    inst = Instance.from_sizes([2, "1/2", 2, Fraction(1, 2), Time(2), 7], 3)
    assert list(inst) == [
        Job(i, Time(s))
        for i, s in enumerate([2, Fraction(1, 2), 2, Fraction(1, 2), 2, 7], start=1)
    ]
    # equal sizes share one checked Time; every job is a plain Job
    assert inst.jobs[0].size is inst.jobs[2].size is inst.jobs[4].size
    assert all(type(job) is Job for job in inst)
    with pytest.raises(ValueError, match="job 2 must have positive size"):
        Instance.from_sizes([1, 0, 0], 2)
    with pytest.raises(TypeError):
        Instance.from_sizes([1, 1.5], 2)


@pytest.mark.parametrize(
    "exact, inexact",
    [(1, 1.0), (Fraction(1, 2), 0.5), (Time(2), Decimal(2)), (3, Decimal("3.0"))],
)
def test_from_sizes_refuses_inexact_sizes_wherever_they_stand(exact, inexact):
    # an inexact size equal to an exact one is refused on either side of it
    for sizes in ([exact, inexact], [inexact, exact], [exact, exact, inexact]):
        with pytest.raises(TypeError, match="not an exact rational"):
            Instance.from_sizes(sizes, 2)


def test_machine_counts_past_the_largest_list_index_are_refused():
    with pytest.raises(ValueError, match="largest list index"):
        Instance.from_sizes([1, 2], sys.maxsize + 1)


def test_arrival_order_bijection():
    inst = Instance.from_sizes([1, 1, 2], 2)
    listed = ArrivalOrder.as_listed(inst)
    assert listed.permutation == (1, 2, 3)
    assert listed.covers(inst)
    assert ArrivalOrder((3, 1, 2)).covers(inst)
    assert len(ArrivalOrder((3, 1, 2))) == 3
    assert not ArrivalOrder((1, 2)).covers(inst)
    assert not ArrivalOrder((1, 2, 2)).covers(inst)
    assert not ArrivalOrder((1, 2, 4)).covers(inst)


def test_makespan_examples():
    inst = Instance.from_sizes([1, 1, 2], 2)
    sched = build_schedule(inst, {1: 1, 3: 1, 2: 2})
    assert sched.makespan == Time(3)
    assert sched.loads == (Time(3), Time(1))

    single = Instance.from_sizes([5], 3)
    assert build_schedule(single, {1: 2}).makespan == Time(5)

    big_alone = Instance.from_sizes([1] * 9 + [4], 4)
    assignment = {10: 1}
    for i in range(9):
        assignment[i + 1] = 2 + i % 3
    assert build_schedule(big_alone, assignment).makespan == Time(4)


def test_build_schedule_rejects_bad_assignments():
    inst = Instance.from_sizes([1, 1, 2], 2)
    with pytest.raises(ValueError):
        build_schedule(inst, {1: 1, 2: 2})  # job 3 unplaced
    with pytest.raises(ValueError):
        build_schedule(inst, {1: 1, 2: 2, 3: 5})  # no machine 5
    with pytest.raises(ValueError):
        build_schedule(inst, {1: 1, 2: 2, 3: 1, 4: 1})  # unknown job


def test_validate_schedule_names_first_violation():
    inst = Instance.from_sizes([1, 1, 2], 2)
    good = build_schedule(inst, {1: 1, 2: 2, 3: 2})
    assert validate_schedule(inst, good) is None

    missing = Schedule({1: 1, 2: 2}, (Time(1), Time(1)), Time(1))
    assert "never assigned" in validate_schedule(inst, missing)

    stale = Schedule({1: 1, 2: 2, 3: 2}, (Time(1), Time(1)), Time(1))
    assert "load" in validate_schedule(inst, stale)

    bad_machine = Schedule({1: 1, 2: 2, 3: 7}, (Time(1), Time(1)), Time(1))
    assert "invalid machine" in validate_schedule(inst, bad_machine)

    unknown = Schedule({1: 1, 2: 2, 9: 1}, (Time(1), Time(1)), Time(1))
    assert "unknown job" in validate_schedule(inst, unknown)

    wrong_count = Schedule({1: 1, 2: 2, 3: 2}, (Time(1),), Time(1))
    assert "machines" in validate_schedule(inst, wrong_count)

    bad_makespan = Schedule({1: 1, 2: 2, 3: 2}, (Time(1), Time(3)), Time(1))
    assert "makespan" in validate_schedule(inst, bad_makespan)


BROKEN_ASSIGNMENTS = {
    "unknown job": {1: 1, 2: 2, 3: 2, 4: 1},
    "machine 0": {1: 1, 2: 0, 3: 2},
    "machine m+1": {1: 1, 2: 2, 3: 3},
    "job never assigned": {1: 1, 3: 2},
}


@pytest.mark.parametrize(
    "sizes", [[1, 1, 2], [Fraction(1, 2), 3, Fraction(5, 3)], [SQRT2, 1, Time(1, 1)]]
)
@pytest.mark.parametrize("broken", BROKEN_ASSIGNMENTS)
def test_validate_schedule_returns_what_build_schedule_raises(sizes, broken):
    inst = Instance.from_sizes(sizes, 2)
    assignment = BROKEN_ASSIGNMENTS[broken]
    with pytest.raises(ValueError) as exc:
        build_schedule(inst, assignment)
    loads = (Time(1), Time(1))
    assert validate_schedule(inst, Schedule(assignment, loads, Time(1))) == str(exc.value)


def test_total_load_examples():
    assert total_load(Instance.from_sizes([1] * 4 + [3], 3)) == Time(7)
    assert total_load(Instance.from_sizes([1, 1, 4], 2)) == Time(6)
    assert total_load(Instance.from_sizes([Time(1, 1)], 2)) == Time(1, 1)


def test_work_conservation_and_load_bounds():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 8)
        m = rng.randint(2, 4)
        inst = Instance.from_sizes([rng.randint(1, 9) for _ in range(n)], m)
        assignment = {j.id: rng.randint(1, m) for j in inst.jobs}
        sched = build_schedule(inst, assignment)
        assert validate_schedule(inst, sched) is None
        total = total_load(inst)
        assert sum(sched.loads, Time(0)) == total
        assert sched.makespan >= total / m
        assert sched.makespan >= max(j.size for j in inst.jobs)


def test_instance_file_round_trip():
    inst = Instance.from_sizes(
        [Time(1), Time(Fraction(3, 2)), Time(1, 1), Time(2, Fraction(1, 3))], 3
    )
    text = format_instance(inst)
    assert text.splitlines()[0] == "m=3"
    again = parse_instance(text)
    assert again == inst
    assert format_instance(again) == text


def test_instance_file_round_trip_random():
    rng = random.Random(13)
    for _ in range(100):
        sizes = []
        for _ in range(rng.randint(1, 10)):
            a = Fraction(rng.randint(0, 50), rng.randint(1, 9))
            b = Fraction(rng.randint(0, 50), rng.randint(1, 9))
            if a == 0 and b == 0:
                a = Fraction(1)
            sizes.append(Time(a, b))
        inst = Instance.from_sizes(sizes, rng.randint(2, 9))
        assert parse_instance(format_instance(inst)) == inst


def test_instance_file_comments_and_shorthand():
    text = "# adversarial example\nm=2\n1  # a unit job\n\n1/1\n2 + 0/3 r2\n"
    inst = parse_instance(text)
    assert inst.machines == 2
    assert [j.size for j in inst.jobs] == [Time(1), Time(1), Time(2)]


def test_instance_file_errors_name_lines():
    with pytest.raises(InstanceParseError, match="line 1"):
        parse_instance("machines=2\n1\n")
    with pytest.raises(InstanceParseError, match="line 1"):
        parse_instance("m=two\n1\n")
    with pytest.raises(InstanceParseError, match="line 1"):
        parse_instance("m=1\n1\n")
    with pytest.raises(InstanceParseError, match="line 3"):
        parse_instance("m=2\n1\nbogus\n")
    with pytest.raises(InstanceParseError, match="line 3"):
        parse_instance("m=2\n1\n0\n")
    with pytest.raises(InstanceParseError, match="no jobs"):
        parse_instance("m=2\n")
    with pytest.raises(InstanceParseError, match="machine count"):
        parse_instance("")


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        # each file holds two faults; the one reported is pinned
        ("m=2\n1\n0\nbogus\n", 4, "bad time literal: 'bogus'"),
        ("m=1\nbogus\n", 2, "bad time literal: 'bogus'"),
        ("m=1\n0\n", 1, "machine count must be >= 2, got 1"),
        ("m=1\n", 1, "machine count must be >= 2, got 1"),
        ("m=two\n0\n", 1, "bad machine count 'two'"),
        ("x=2\nbogus\n", 1, "expected machine count 'm=<int>'"),
        ("m=99999999999999999999\n# c\n1\n\n0\n", 5, "job 2 must have positive size"),
        ("m=2\n1\n# c\n0 + 0 r2\n0\n", 4, "job 2 must have positive size"),
        ("m=2\n-1\n0\n", 2, "negative quantity: -1"),
        ("m=2\n1\nm=3\n", 3, "bad time literal: 'm=3'"),
        ("", 1, "missing machine count 'm=<int>'"),
        ("# only a comment\n\n", 3, "missing machine count 'm=<int>'"),
        ("\n\nm=2\n# no jobs\n", 5, "instance has no jobs"),
        ("m=2", 2, "instance has no jobs"),
        ("m=2\n1\n0", 3, "job 2 must have positive size"),
    ],
)
def test_instance_file_error_precedence(text, line_no, message):
    with pytest.raises(InstanceParseError) as raised:
        parse_instance(text)
    assert str(raised.value) == f"line {line_no}: {message}"
    assert raised.value.line_no == line_no


# only '\n' ends a line: the other characters str.splitlines() breaks at are
# neither line ends nor the ASCII whitespace a line may hold
@pytest.mark.parametrize(
    "separator", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_instance_file_lines_end_only_at_newline(separator):
    for text, line in [
        (f"m=2\n1{separator}2\n", f"1{separator}2"),
        (f"m=2\n1{separator}2 3\n", f"1{separator}2 3"),
    ]:
        with pytest.raises(InstanceParseError) as raised:
            parse_instance(text)
        assert str(raised.value) == f"line 2: bad time literal: {line!r}"
    # a comment runs to the '\n', past any of them
    assert parse_instance(f"m=2\n1 # a{separator}2\n").sizes == (Time(1),)


def test_instance_file_line_ends_that_still_read():
    want = Instance.from_sizes([1, Time(1, 1)], 2)
    assert parse_instance("m=2\n1\n1 + 1 r2\n") == want
    assert parse_instance("m=2\n1\n1 + 1 r2") == want
    # a '\r' before the '\n' is ASCII whitespace, stripped with the rest
    assert parse_instance("m=2\r\n1\r\n1 + 1 r2\r\n") == want
    assert parse_instance("m=2\r\n1\r\n1 + 1 r2") == want
    # and errors keep their line numbers, the end of the file's among them
    for text, line_no, message in [
        ("m=2\r\n1\r\nbogus\r\n", 3, "bad time literal: 'bogus'"),
        ("\r\n\r\nm=2\r\n# no jobs\r\n", 5, "instance has no jobs"),
        ("# only a comment\r\n\r\n", 3, "missing machine count 'm=<int>'"),
        ("m=2\n\t\n", 3, "instance has no jobs"),
    ]:
        with pytest.raises(InstanceParseError) as raised:
            parse_instance(text)
        assert str(raised.value) == f"line {line_no}: {message}"


def test_a_lone_carriage_return_ends_no_line_until_a_file_read_turns_it(tmp_path):
    with pytest.raises(InstanceParseError) as raised:
        parse_instance("m=2\r1\r")
    assert str(raised.value) == "line 1: bad machine count '2\\r1'"
    # reading a file in text mode turns each '\r' into '\n'
    path = tmp_path / "mac.txt"
    path.write_bytes(b"m=2\r1\r1 + 1 r2\r")
    assert load_instance(path) == Instance.from_sizes([1, Time(1, 1)], 2)


@pytest.mark.parametrize("machines", [sys.maxsize + 1, 10**20])
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("head, line_no", [("", 1), ("# c\n\n", 3)])
def test_instance_file_machine_count_past_maxsize_is_reported_at_its_line(
    head, line_no, ending, machines
):
    with pytest.raises(InstanceParseError) as raised:
        parse_instance(f"{head}m={machines}\n1\n2\n".replace("\n", ending))
    assert str(raised.value) == (
        f"line {line_no}: machine count {machines} is past the largest list "
        f"index {sys.maxsize}"
    )
    assert raised.value.line_no == line_no


# An integer in the file grammar is an optional '-' and ASCII digits; none
# of these spellings is one, though int() or Fraction() would read each.
@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("m=2_0\n1\n", 1, "bad machine count '2_0'"),
        ("m=+2\n1\n", 1, "bad machine count '+2'"),
        ("m= 2\n1\n", 1, "bad machine count ' 2'"),
        ("m=\u0663\n1\n", 1, "bad machine count '\u0663'"),
        ("m=2\n\u0661\n", 2, "bad time literal: '\u0661'"),
        ("m=2\n1 + 1/\u0662 r2\n", 2, "bad time literal: '1 + 1/\u0662 r2'"),
        # the whitespace around a line's content is ASCII only, as inside it
        ("m=2\u00a0\n1\n", 1, "bad machine count '2\\xa0'"),
        ("m=2\n\u00a01\n", 2, "bad time literal: '\\xa01'"),
    ],
)
def test_instance_file_integers_are_ascii_digits_only(text, line_no, message):
    with pytest.raises(InstanceParseError) as raised:
        parse_instance(text)
    assert str(raised.value) == f"line {line_no}: {message}"


# a size literal's digits and the spaces between its tokens are ASCII ones
@pytest.mark.parametrize(
    "build", [Time, parse_time, lambda s: Instance.from_sizes([s], 2)]
)
@pytest.mark.parametrize(
    "literal",
    ["\u0663", "\u0661", "1_0", "+1", "1/\u0662", "1\u00a0+ 1 r2", "\u20031", "1\u00a0"],
)
def test_size_literals_are_ascii_only(build, literal):
    with pytest.raises(ValueError) as raised:
        build(literal)
    assert str(raised.value) == f"bad time literal: {literal!r}"


def test_instance_file_integer_forms_still_read():
    assert parse_instance("m=03\n1\n").machines == 3
    assert parse_instance("m=2\n-1 + 1 r2\n").sizes == (Time(-1, 1),)
    assert parse_instance(" m=2\t\n\t1 + 1 r2 \t# padded\n").sizes == (Time(1, 1),)
    assert parse_time("\v 3/2\t") == Time(Fraction(3, 2))
    limit = sys.get_int_max_str_digits()
    # numerator and denominator of as many digits as int() reads, coprime
    wide = f"{'7' * limit}/1{'0' * (limit - 1)}"
    instance = parse_instance(f"m=2\n{wide}\n")
    assert instance.sizes == (Time(Fraction(int("7" * limit), 10 ** (limit - 1))),)
    assert format_instance(instance) == f"m=2\n{wide}\n"


def test_save_and_load_instance(tmp_path):
    inst = Instance.from_sizes([1, Time(1, 1), 2], 2)
    path = tmp_path / "inst.txt"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_failed_save_instance_leaves_old_file_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "inst.txt"
    path.write_text("m=2\n1\n")
    monkeypatch.setattr(model, "format_instance", lambda instance: "m=2\n\ud800\n")
    with pytest.raises(UnicodeEncodeError):  # fails while writing
        save_instance(Instance.from_sizes([3], 2), path)
    assert path.read_text() == "m=2\n1\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_save_instance_names_the_destination_not_the_temp_file(tmp_path):
    # the temporary file cannot be created: the parent "directory" is a file
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    path = blocker / "inst.txt"
    with pytest.raises(NotADirectoryError) as raised:
        save_instance(Instance.from_sizes([3], 2), path)
    code = errno.ENOTDIR
    assert str(raised.value) == f"[Errno {code}] {os.strerror(code)}: {str(path)!r}"
    assert raised.value.filename == str(path)
    assert raised.value.filename2 is None


@pytest.mark.parametrize("machines", [2.0, 2.5, Fraction(3), "3"])
def test_machine_count_must_be_an_int(machines):
    message = f"machine count must be an int, not {machines!r}"
    with pytest.raises(TypeError) as raised:
        Instance.from_sizes([1, 2, 3], machines)
    assert str(raised.value) == message
    with pytest.raises(TypeError) as raised:
        Instance([Job(1, 1), Job(2, 2)], machines)
    assert str(raised.value) == message


@pytest.mark.parametrize("machines", [True, False])
def test_bool_machine_count_is_below_two(machines):
    with pytest.raises(ValueError, match=f"machine count must be >= 2, got {machines}"):
        Instance.from_sizes([1, 2, 3], machines)
