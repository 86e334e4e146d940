"""The one machine-count rule, as every entry point applies it: a machine
count is an int of at least 2, and each entry point refuses any other value
with the same message."""
from __future__ import annotations

from fractions import Fraction
from functools import partial

import pytest

from listsched.cli import main
from listsched.families import (
    gen_class1,
    gen_class2,
    gen_faigle,
    gen_graham_tight,
    generate,
)
from listsched.model import Instance, InstanceParseError, Job, Time, parse_instance
from listsched.online import Lsa
from listsched.oracle import opt_structured

# each entry point that takes a machine count, called with that count
ENTRY_POINTS = {
    "Instance": lambda m: Instance([Job(1, 1), Job(2, 2)], m),
    "Instance.from_sizes": lambda m: Instance.from_sizes([1, 2], m),
    "gen_class1": gen_class1,
    "gen_class2": gen_class2,
    "gen_graham_tight": gen_graham_tight,
    "gen_faigle": gen_faigle,
    **{
        f"generate {name}": partial(generate, name)
        for name in ("class1", "class2", "graham_tight", "faigle")
    },
    "opt_structured class1": partial(opt_structured, "class1"),
    "opt_structured class2": partial(opt_structured, "class2"),
}


@pytest.mark.parametrize("machines", [1, 0, -3, True])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_count_below_two_is_refused_in_one_message(entry, machines):
    with pytest.raises(ValueError) as raised:
        ENTRY_POINTS[entry](machines)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"machine count must be >= 2, got {machines}"


@pytest.mark.parametrize("machines", [2.0, Fraction(3), "3"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_a_count_that_is_not_an_int_is_refused_in_one_message(entry, machines):
    with pytest.raises(TypeError) as raised:
        ENTRY_POINTS[entry](machines)
    assert str(raised.value) == f"machine count must be an int, not {machines!r}"


def test_opt_structured_refuses_a_fractional_count():
    with pytest.raises(TypeError) as raised:
        opt_structured("class2", Fraction(5, 2))
    assert str(raised.value) == "machine count must be an int, not Fraction(5, 2)"


@pytest.mark.parametrize("tie_break", ["low", "high"])
@pytest.mark.parametrize("loads", [(), (Time(1),)])
def test_lsa_choose_refuses_fewer_than_two_loads(loads, tie_break):
    with pytest.raises(ValueError) as raised:
        Lsa(tie_break).choose(list(loads))
    assert str(raised.value) == f"machine count must be >= 2, got {len(loads)}"


@pytest.mark.parametrize("machines", [1, 0, -3])
def test_an_instance_file_header_below_two_is_refused_at_its_line(machines):
    with pytest.raises(InstanceParseError) as raised:
        parse_instance(f"m={machines}\n1\n2\n")
    assert str(raised.value) == f"line 1: machine count must be >= 2, got {machines}"
    assert raised.value.line_no == 1


@pytest.mark.parametrize("value", ["1", "0", "-3"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["run", "--family", "class1", "--m"], "--m"),
        (["table2", "--machines"], "--machines"),
        (["verify", "--trials", "1", "--max-m"], "--max-m"),
    ],
)
def test_machine_count_options_refuse_a_count_below_two(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    command = argv[0]
    assert captured.err.endswith(
        f"\nlistsched {command}: error: argument {option}: "
        f"machine count must be >= 2, got {value}\n"
    )


def test_an_instance_file_below_two_machines_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("m=1\n1\n")
    assert main(["run", "--instance", str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        "error: line 1: machine count must be >= 2, got 1\n",
    )
