"""The one count rule, as every library count applies it: a count is an
int within its bounds, and each one refuses any other value with the rule's
message, before any work is done. The CLI's integer options apply the same
rule to the parameters they feed. Machine counts have their own module,
tests/test_machine_count.py."""
from __future__ import annotations

import argparse
from fractions import Fraction
from functools import partial

import pytest

from listsched import harness, model, oracle
from listsched.cli import build_parser, main
from listsched.harness import (
    VERIFY_MAX_M,
    VERIFY_MAX_N,
    verify_bound,
    worst_order_search,
)
from listsched.model import Instance, Time, _check_count
from listsched.multiperm import permutation_count, unrank_permutation
from listsched.oracle import opt_exact

INSTANCE = Instance.from_sizes([3, 3, 2, 2, 2], 2)
ITEMS = [1, 2, 2]  # three distinct permutations: ranks 0..2

# each library count, keyed by its name in the message: the call that takes
# it, the ints just out of its range with their messages, and the routine
# that does the call's work after the check (None where the range needs the
# work: the rank's upper end is the permutation count)
COUNTS = {
    "node_budget": (
        lambda v: opt_exact(INSTANCE, node_budget=v),
        [(-1, "node_budget must be >= 0, got -1")],
        (oracle, "lower_bound"),
    ),
    "enumeration_cap": (
        lambda v: worst_order_search(INSTANCE, enumeration_cap=v),
        [(0, "enumeration_cap must be >= 1, got 0")],
        (harness, "_kernel_high"),
    ),
    "trials": (
        verify_bound,
        [(0, "trials must be >= 1, got 0")],
        (harness, "_kernel_high"),
    ),
    "max_n": (
        lambda v: verify_bound(1, max_n=v),
        [(0, "max_n must be >= 1, got 0"), (13, "max_n must be <= 12, got 13")],
        (harness, "_kernel_high"),
    ),
    "max_m": (
        lambda v: verify_bound(1, max_m=v),
        [(1, "max_m must be >= 2, got 1"), (5, "max_m must be <= 4, got 5")],
        (harness, "_kernel_high"),
    ),
    "size_range lo": (
        lambda v: verify_bound(1, size_range=(v, 9)),
        [(0, "size_range lo must be >= 1, got 0")],
        (harness, "_kernel_high"),
    ),
    "size_range hi": (
        lambda v: verify_bound(1, size_range=(5, v)),
        [(4, "size_range hi must be >= 5, got 4")],
        (harness, "_kernel_high"),
    ),
    "rank": (
        partial(unrank_permutation, ITEMS),
        [(-1, "rank must be >= 0, got -1"), (3, "rank must be <= 2, got 3")],
        None,
    ),
    "places": (
        Time(1, 1).decimal,
        [(-1, "places must be >= 0, got -1")],
        (model, "_floor_pair"),
    ),
}

OUT_OF_RANGE = [
    (name, value, message)
    for name, (_, cases, _) in COUNTS.items()
    for value, message in cases
]


@pytest.fixture
def no_work(monkeypatch):
    """Make the routine behind each count's call fail if it is reached."""

    def forbid(name):
        work = COUNTS[name][2]
        if work is not None:
            def reached(*args, **kwargs):
                raise AssertionError(f"{name}: work began before the check")

            monkeypatch.setattr(*work, reached)

    return forbid


@pytest.mark.parametrize("value", [0.5, Fraction(3), "3"])
@pytest.mark.parametrize("name", COUNTS)
def test_a_count_that_is_not_an_int_is_refused_in_one_message(name, value, no_work):
    no_work(name)
    with pytest.raises(TypeError) as raised:
        COUNTS[name][0](value)
    assert str(raised.value) == f"{name} must be an int, not {value!r}"


@pytest.mark.parametrize("name, value, message", OUT_OF_RANGE)
def test_a_count_out_of_range_is_refused_in_one_message(name, value, message, no_work):
    no_work(name)
    with pytest.raises(ValueError) as raised:
        COUNTS[name][0](value)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_the_bounds_are_inclusive():
    assert opt_exact(INSTANCE, node_budget=0).value == Time(6)
    assert worst_order_search(INSTANCE, enumeration_cap=1).orders_examined == 1
    assert verify_bound(1, max_n=12, max_m=4, size_range=(1, 1)).trials == 1
    assert verify_bound(1, max_n=1, max_m=2, size_range=(9, 9)).trials == 1
    assert unrank_permutation(ITEMS, 0) == (1, 2, 2)
    assert unrank_permutation(ITEMS, permutation_count(ITEMS) - 1) == (2, 2, 1)
    assert Time(Fraction(1, 2)).decimal(0) == "1"


def test_a_bool_is_an_int_and_its_range_decides():
    assert unrank_permutation([1, 2], True) == (2, 1)
    assert Time(Fraction(1, 2)).decimal(False) == "1"
    with pytest.raises(ValueError, match=r"^trials must be >= 1, got False$"):
        verify_bound(False)


def test_a_fractional_node_budget_no_longer_stops_the_search():
    # 0.5 let one node through and reported the lower bound alone
    with pytest.raises(TypeError, match=r"^node_budget must be an int, not 0\.5$"):
        opt_exact(INSTANCE, node_budget=0.5)


@pytest.mark.parametrize("sizes", [[1, 2], [1, 2, 3]])
def test_a_fractional_cap_no_longer_decides_the_search(sizes):
    # 2.5 called two orders an exhaustive search, and failed in
    # random.sample once the orders outnumbered it
    instance = Instance.from_sizes(sizes, 2)
    with pytest.raises(TypeError, match=r"^enumeration_cap must be an int, not 2\.5$"):
        worst_order_search(instance, enumeration_cap=2.5)


def test_a_fractional_rank_is_not_unranked():
    # 0.5 unranked to the first permutation
    with pytest.raises(TypeError, match=r"^rank must be an int, not 0\.5$"):
        unrank_permutation([1, 2], 0.5)


# the library's seeded calls; INSTANCE's 10 orders are past a cap of 1, so
# worst_order_search samples
SEEDED = {
    "verify_bound": lambda seed: verify_bound(1, seed=seed),
    "worst_order_search": lambda seed: worst_order_search(
        INSTANCE, enumeration_cap=1, seed=seed
    ),
}


@pytest.mark.parametrize("value", [0.5, 1.0, "7"])
@pytest.mark.parametrize("call", SEEDED)
def test_a_seed_that_is_not_an_int_is_refused_before_any_draw(call, value, monkeypatch):
    # 0.5 drew the trials of hash(0.5) = 2**60, 1.0 those of seed 1, and a
    # string those of its sha512
    def reached(*args, **kwargs):
        raise AssertionError(f"{call}: work began before the check")

    monkeypatch.setattr(harness, "_kernel_high", reached)
    with pytest.raises(TypeError) as raised:
        SEEDED[call](value)
    assert str(raised.value) == f"seed must be an int, not {value!r}"


@pytest.mark.parametrize("seed", [True, -1, 2**70, -(2**70)])
@pytest.mark.parametrize("call", SEEDED)
def test_a_seed_of_any_sign_and_size_is_taken(call, seed):
    SEEDED[call](seed)


# each CLI integer option but --seed: the argv before its value, and the
# library parameter it feeds, as its name in the rule's message and its bounds
CLI_COUNTS = {
    "run --m": (["run", "--family", "class1", "--m"], "machine count", 2, None),
    "run --cap": (
        ["run", "--family", "class1", "--m", "3", "--order", "worst", "--cap"],
        "enumeration_cap",
        1,
        None,
    ),
    "run --node-budget": (
        ["run", "--family", "class1", "--m", "3", "--node-budget"],
        "node_budget",
        0,
        None,
    ),
    "table2 --machines": (["table2", "--machines"], "machine count", 2, None),
    "verify --trials": (["verify", "--trials"], "trials", 1, None),
    "verify --max-n": (["verify", "--max-n"], "max_n", 1, VERIFY_MAX_N),
    "verify --max-m": (["verify", "--max-m"], "machine count", 2, VERIFY_MAX_M),
    "verify --size-min": (["verify", "--size-min"], "size_range lo", 1, None),
    "verify --size-max": (["verify", "--size-max"], "size_range hi", 1, None),
    "worst-order --m": (
        ["worst-order", "--family", "class2", "--m"],
        "machine count",
        2,
        None,
    ),
    "worst-order --cap": (
        ["worst-order", "--family", "class2", "--m", "2", "--cap"],
        "enumeration_cap",
        1,
        None,
    ),
}


def test_every_integer_option_but_seed_feeds_a_listed_count():
    parser = build_parser()
    (commands,) = (
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    typed = {
        f"{command} {option}"
        for command, sub in commands.items()
        for action in sub._actions
        if action.type is not None
        for option in action.option_strings
        if option != "--seed"
    }
    assert typed == set(CLI_COUNTS)


@pytest.mark.parametrize(
    "option, value",
    [
        (option, value)
        for option, (_, _, low, high) in CLI_COUNTS.items()
        for value in (low - 1, *([] if high is None else [high + 1]))
    ],
)
def test_the_cli_refuses_a_count_in_the_rules_words(option, value, capsys):
    argv, name, low, high = CLI_COUNTS[option]
    with pytest.raises(ValueError) as rule:
        _check_count(name, value, low, high)
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(value)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    command, flag = argv[0], argv[-1]
    assert captured.out == ""
    assert captured.err.startswith(f"usage: listsched {command} ")
    assert captured.err.endswith(
        f"\nlistsched {command}: error: argument {flag}: {rule.value}\n"
    )


@pytest.mark.parametrize("option", CLI_COUNTS)
def test_the_cli_takes_a_count_at_its_bounds(option):
    argv, _, low, high = CLI_COUNTS[option]
    dest = argv[-1].removeprefix("--").replace("-", "_")
    for value in (low,) if high is None else (low, high):
        parsed = vars(build_parser().parse_args([*argv, str(value)]))[dest]
        assert parsed == ([value] if dest == "machines" else value)
