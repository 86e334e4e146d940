"""End-to-end coverage of the command-line interface."""
from __future__ import annotations

import argparse
import ast
import errno
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import listsched
from conftest import deep_instance
from listsched import cli, harness
from listsched.cli import OUTPUT_DIR_VAR, main
from listsched.harness import REPORT_COLUMNS, verify_bound
from listsched.model import Time, format_instance, load_instance
from listsched.oracle import OptResult, opt_exact


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown stdout lines) for each `$ listsched ...` line in the
    README's console blocks; output shown up to a '...' line is only the
    first lines of what the command prints."""
    examples = []
    for block in re.findall(r"```console\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *shown = chunk.splitlines()
            examples.append((shlex.split(command), shown))
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_console_examples(argv, shown, capsys):
    assert argv[0] == "listsched"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    if shown and shown[-1] == "...":
        shown = shown[:-1]
        out = out[: len(shown)]
    assert out == shown


def test_a_seed_and_its_negation_draw_the_same_trials(capsys):
    # CPython seeds a Random with |S|, so --seed -42 prints the README's
    # --seed 42 run
    (shown,) = (
        shown
        for argv, shown in README_EXAMPLES
        if argv == ["listsched", "verify", "--trials", "1000", "--seed", "42"]
    )
    assert main(["verify", "--trials", "1000", "--seed", "-42"]) == 0
    assert capsys.readouterr().out.splitlines() == shown


def test_readme_library_example():
    """Run the README's Library block: a bare comparison must hold, and any
    other bare expression must equal the value its comment shows."""
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S)
    lines = block.group(1).splitlines()
    namespace: dict = {}
    checked = 0
    for statement in ast.parse(block.group(1)).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(statement.value), "README", "eval"), namespace)
        if isinstance(statement.value, ast.Compare):
            assert value is True, lines[statement.lineno - 1]
        else:
            comment = lines[statement.lineno - 1][statement.end_col_offset :]
            assert value == eval(comment.strip().removeprefix("# "), namespace)
        checked += 1
    assert checked == 6


def test_readme_instance_file_runs(tmp_path):
    """Run the README's Instance files block as a file."""
    block = re.search(r"## Instance files\n.*?\n```\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "readme.txt"
    path.write_text(block.group(1))
    instance = load_instance(path)
    assert (instance.machines, len(instance)) == (4, 4)
    assert main(["run", "--instance", str(path)]) == 0


def test_run_family_text(capsys):
    assert main(["run", "--family", "class1", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "family: class1" in out
    assert "machines: 4" in out
    assert "policy: LSA" in out
    assert "alg makespan: 6" in out
    assert "opt: 4 (certified-by-bound, 0 nodes)" in out
    assert "ratio: 6/4 = 1.5000" in out
    assert "bound 2-1/m: 1.7500" in out
    assert "bound satisfied: yes" in out


def test_run_faigle_exact_ratio(capsys):
    assert main(["run", "--family", "faigle", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "family: faigle_sqrt2" in out
    assert "alg makespan: 4 + 3 r2" in out
    assert "ratio: (4+3r2)/(2+2r2) = 1.7071" in out
    assert "bound satisfied: yes" in out


def test_run_with_worst_order_search(capsys):
    rc = main(["run", "--family", "graham_tight", "--m", "3", "--order", "worst"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ratio: 5/3 = 1.6667" in out
    assert "bound 2-1/m: 1.6667" in out
    assert "bound satisfied: yes" in out


def test_run_high_tiebreak_policy(capsys):
    assert main(["run", "--family", "class2", "--m", "3", "--policy", "lsa-high"]) == 0
    out = capsys.readouterr().out
    assert "policy: LSA-high" in out
    assert "ratio: 11/9 = 1.2222" in out


def test_run_csv_and_json_formats(capsys):
    assert main(["run", "--family", "class2", "--m", "10", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert "1.0900" in lines[1]

    assert main(["run", "--family", "class1", "--m", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["ratio_4dp"] == "1.3333"
    assert payload[0]["satisfied"] is True


def test_run_instance_file(tmp_path, capsys):
    path = tmp_path / "jobs.txt"
    path.write_text("m=2\n3\n3\n2\n2\n2\n")
    assert main(["run", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "machines: 2" in out
    assert "alg makespan: 7" in out
    assert "opt: 6" in out
    assert "ratio: 7/6 = 1.1667" in out
    assert "bound satisfied: yes" in out


def test_run_instance_certified_at_a_whole_unit(tmp_path, capsys):
    # total/m is 9/2, but every makespan is whole, so LPT's 5 needs no search
    path = tmp_path / "jobs.txt"
    path.write_text("m=2\n2\n3\n4\n")
    assert main(["run", "--instance", str(path)]) == 0
    assert "opt: 5 (certified-by-bound, 0 nodes)" in capsys.readouterr().out


def test_a_zero_node_budget_keeps_only_the_lpt_certificate(tmp_path, capsys):
    # LPT's 7 on 3 3 2 2 2 is above the load bound 12/2 = 6, so no certificate
    # decides it, and with no search budget only that bound is left
    path = tmp_path / "jobs.txt"
    path.write_text("m=2\n3\n3\n2\n2\n2\n")
    assert opt_exact(load_instance(path), 0) == OptResult(Time("6"), "lower-bound-only", 1)
    assert main(["run", "--instance", str(path), "--node-budget", "0"]) == 0
    out = capsys.readouterr().out
    assert "\nopt: 6 (lower-bound-only, 1 nodes)\n" in out
    assert out.endswith("\nbound satisfied: n/a (optimum not exact)\n")
    assert main(["run", "--family", "class2", "--m", "10", "--node-budget", "0"]) == 0
    assert "\nopt: 100 (certified-by-bound, 0 nodes)\n" in capsys.readouterr().out


def test_the_largest_families_give_the_papers_bounds(capsys):
    # class2 at m=100: greedy m^2 + m - 1 against the certified optimum m^2
    assert main(["run", "--family", "class2", "--m", "100", "--format", "json"]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert (row["alg_makespan"], row["opt"], row["opt_kind"]) == (
        "10099",
        "10000",
        "certified-by-bound",
    )
    # class1 at m=100: the ratio 2 - 2/m
    assert main(["run", "--family", "class1", "--m", "100", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["100,class1,198,100,198/100,1.9800,1.9900,true"]


# sha256 over every call's argv, exit code, stdout and stderr in the sweep
# below, taken before families were scored from the lanes' per-size tally:
# the sweep's bytes are pinned, not only its values
SWEEP_DIGEST = "5df7ce5da2f27ddb3d7d4365dff5a8f598a47257095a43d6ebb0d167b8f3d0e6"


def test_the_family_sweep_prints_its_pinned_bytes(capsys):
    """`run --family F --m M` for the four families: json at every m in
    2..100, text and csv at a stride."""
    calls = [("json", m) for m in range(2, 101)]
    calls += [(fmt, m) for fmt in ("text", "csv") for m in range(2, 101, 7)]
    digest = hashlib.sha256()
    for family in ("class1", "class2", "faigle", "graham_tight"):
        for fmt, m in calls:
            argv = ["run", "--family", family, "--m", str(m), "--format", fmt]
            code = main(argv)
            out, err = capsys.readouterr()
            digest.update(f"{' '.join(argv)}\0{code}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == SWEEP_DIGEST


def test_run_instance_deeper_than_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(format_instance(deep_instance()))
    assert main(["run", "--instance", str(path), "--node-budget", "5000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "opt: 11495 (lower-bound-only, 5001 nodes)" in captured.out


def test_run_family_without_m_is_usage_error(capsys):
    assert main(["run", "--family", "class1"]) == 2
    assert "--family requires --m" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "worst-order"])
def test_m_with_instance_is_usage_error(command, tmp_path, capsys):
    path = tmp_path / "jobs.txt"
    path.write_text("m=3\n1\n2\n")
    assert main([command, "--instance", str(path), "--m", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --m applies only to --family\n"


@pytest.mark.parametrize("order", [[], ["--order", "given"], ["--order", "as-listed"]])
@pytest.mark.parametrize("option", [["--cap", "5"], ["--seed", "9"], ["--seed", "0"]])
def test_search_options_without_worst_order_are_usage_errors(order, option, capsys):
    assert main(["run", "--family", "class1", "--m", "3", *order, *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option[0]} applies only to --order worst\n"


def test_table2_takes_no_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--machines", "2", "--seed", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --seed 5" in captured.err


def test_run_worst_order_takes_the_search_options(tmp_path, capsys):
    # 21 distinct sizes: past sys.maxsize orders, so cap and seed pick a sample
    path = tmp_path / "distinct.txt"
    path.write_text("m=3\n" + "".join(f"{k}\n" for k in range(1, 22)))
    options = ["--instance", str(path), "--cap", "30", "--seed", "7"]
    assert main(["worst-order", *options]) == 0
    worst = re.search(r"worst makespan: (\S+)", capsys.readouterr().out).group(1)
    assert main(["run", "--order", "worst", *options]) == 0
    assert f"alg makespan: {worst}\n" in capsys.readouterr().out


ORDER_FILES = {
    "rational-file": "m=3\n1/2\n2/3\n1\n5/4\n2\n",
    "sqrt2-file": "m=2\n1 + 1 r2\n1\n2\n3/2 + 1/2 r2\n",
}
ORDER_SOURCES = [
    f"--family {family} --m {m}"
    for family in ("class1", "class2", "graham_tight", "faigle")
    for m in (2, 3, 5)
] + list(ORDER_FILES)


@pytest.mark.parametrize("source", ORDER_SOURCES)
def test_given_and_as_listed_orders_print_the_same_bytes(source, tmp_path, capsys):
    argv = source.split()
    if source in ORDER_FILES:
        path = tmp_path / "jobs.txt"
        path.write_text(ORDER_FILES[source])
        argv = ["--instance", str(path)]
    outputs = []
    for order in ("given", "as-listed"):
        assert main(["run", *argv, "--order", order]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_machine_counts_past_sys_maxsize_are_usage_errors(tmp_path, capsys):
    huge = "100000000000000000000"
    path = tmp_path / "huge.txt"
    path.write_text(f"m={huge}\n1\n2\n")
    for argv in (["run", "--family", "class1", "--m", huge], ["run", "--instance", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert huge in captured.err


def test_family_too_large_for_memory_is_usage_error(capsys):
    # m = 10^9 asks for (m-1)^2 ~ 10^18 jobs: the family's job count is
    # refused before any of its list is allocated
    assert main(["run", "--family", "class1", "--m", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: m=1000000000 is too large: class1 lists 999999998000000002 "
        "jobs, more than 10000000\n"
    )


@pytest.mark.parametrize(
    "text, err",
    [
        ("m=2\n3\nbogus\n", "error: line 3: bad time literal: 'bogus'\n"),
        ("m=3\n1\n0\n2\n", "error: line 3: job 2 must have positive size\n"),
    ],
    ids=["bad-size", "zero-size"],
)
def test_malformed_instance_reports_line(text, err, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["run", "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", err)


def test_missing_instance_file(tmp_path, capsys):
    assert main(["run", "--instance", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


def test_argparse_rejections():
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])  # no instance source
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--family", "class1", "--m", "1"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--trials", "0"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ("run --family class1 --m x", "run: error: argument --m: not an integer: 'x'"),
        ("table2 --machines ,", "table2: error: argument --machines: empty machine list"),
        ("verify --trials x", "verify: error: argument --trials: not an integer: 'x'"),
        # an integer option takes the one form of the file grammar, an
        # optional '-' and ASCII digits; int() would read each of these
        ("run --family class1 --m 1_0", "run: error: argument --m: not an integer: '1_0'"),
        (
            "verify --trials \u0663",
            "verify: error: argument --trials: not an integer: '\u0663'",
        ),
        ("verify --seed +7", "verify: error: argument --seed: not an integer: '+7'"),
        ("verify --seed x", "verify: error: argument --seed: not an integer: 'x'"),
        (
            "run --family class1 --m 3 --order worst --seed x",
            "run: error: argument --seed: not an integer: 'x'",
        ),
        (
            "worst-order --family class1 --m 3 --seed 1_0",
            "worst-order: error: argument --seed: not an integer: '1_0'",
        ),
        (
            "table2 --machines 2,\u0663",
            "table2: error: argument --machines: not an integer: '\u0663'",
        ),
        # the whitespace around a value is ASCII only, as in instance files
        (
            "run --family class1 --m \u00a03",
            "run: error: argument --m: not an integer: '\\xa03'",
        ),
        (
            "table2 --machines 2,\u00a03",
            "table2: error: argument --machines: not an integer: '\\xa03'",
        ),
    ],
)
def test_bad_option_values_are_argparse_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split(" "))  # split() would also split at the no-break spaces
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"\nlistsched {message}\n")


def test_integer_options_take_leading_zeros_a_minus_and_ascii_padding(capsys):
    assert main(["run", "--family", "class1", "--m", "3"]) == 0
    plain = capsys.readouterr()
    for m in ("003", " 3", "3\t"):
        assert main(["run", "--family", "class1", "--m", m]) == 0
        assert capsys.readouterr() == plain
    assert main(["verify", "--trials", "5", "--seed", "-7"]) == 0
    assert capsys.readouterr().out.startswith("trials: 5\n")
    assert main(["verify", "--trials", "5\n", "--seed", "-7 "]) == 0
    assert capsys.readouterr().out.startswith("trials: 5\n")
    assert main(["table2", "--machines", "3,4"]) == 0
    plain = capsys.readouterr()
    assert main(["table2", "--machines", "\t3, 4 "]) == 0
    assert capsys.readouterr() == plain


@pytest.mark.parametrize("count", ["2_0", "+2", " 2", "\u0663"])
def test_instance_file_machine_count_is_ascii_digits_only(count, tmp_path, capsys):
    path = tmp_path / "jobs.txt"
    path.write_text(f"m={count}\n1\n", encoding="utf-8")
    assert main(["run", "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: line 1: bad machine count {count!r}\n")


def test_instance_file_lines_end_only_at_newline(tmp_path, capsys):
    # a form feed ends no line, so this file has two lines, not three
    path = tmp_path / "feed.txt"
    path.write_bytes(b"m=3\n1\f2\n")
    assert main(["run", "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: line 2: bad time literal: '1\\x0c2'\n")


def test_instance_file_with_crlf_line_ends_reads_as_its_newline_twin(tmp_path, capsys):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"m=3\r\n1\r\n2\r\n")
    assert main(["run", "--instance", str(path)]) == 0
    crlf = capsys.readouterr()
    path.write_bytes(b"m=3\n1\n2\n")
    assert main(["run", "--instance", str(path)]) == 0
    assert capsys.readouterr() == crlf


# the help pages as the parser with the choices written out printed them, at
# COLUMNS=80; compared word for word, since the wrapping is argparse's own
HELP_PAGES = {
    "run": """\
usage: listsched run [-h]
                     (--instance PATH | --family {class1,class2,graham_tight,faigle})
                     [--m M] [--order {given,worst,as-listed}]
                     [--policy {lsa,lsa-high}] [--format {text,csv,json}]
                     [--cap CAP] [--node-budget NODE_BUDGET] [--seed SEED]
                     [--output PATH]

options:
  -h, --help            show this help message and exit
  --instance PATH       instance file to load
  --family {class1,class2,graham_tight,faigle}
                        generate a structured family instead of loading a file
  --m M                 machine count for --family
  --order {given,worst,as-listed}
                        given = family's adversarial order or the file's
                        listed order
  --policy {lsa,lsa-high}
                        greedy tie-break variant
  --format {text,csv,json}
  --cap CAP             order-search cap when --order worst (default 1000000)
  --node-budget NODE_BUDGET
                        search budget for the exact optimum
  --seed SEED           RNG seed when --order worst (default 0)
  --output PATH         write output to a file
""",
    "worst-order": """\
usage: listsched worst-order [-h]
                             (--instance PATH | --family {class1,class2,graham_tight,faigle})
                             [--m M] [--policy {lsa,lsa-high}] [--cap CAP]
                             [--seed SEED] [--output PATH]

options:
  -h, --help            show this help message and exit
  --instance PATH       instance file to load
  --family {class1,class2,graham_tight,faigle}
                        generate a structured family instead of loading a file
  --m M                 machine count for --family
  --policy {lsa,lsa-high}
  --cap CAP
  --seed SEED           RNG seed (default 0)
  --output PATH         write output to a file
""",
}


@pytest.mark.parametrize("command", sorted(HELP_PAGES))
def test_help_lists_the_family_and_policy_choices(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.split() == HELP_PAGES[command].split()
    assert "--family {class1,class2,graham_tight,faigle}" in out
    assert "--policy {lsa,lsa-high}" in out


# (COLUMNS, argv, exit code): every subcommand, help, usage errors and
# repeats, with the terminal width changed between calls
PARSER_CORPUS = [
    ("80", "run --family class1 --m 3", 0),
    ("80", "--help", 0),
    ("80", "run --help", 0),
    ("80", "table2 --machines 2,3 --format json", 0),
    ("80", "run", 2),
    ("80", "frobnicate", 2),
    ("80", "run --family class1 --m 3 --seed 9", 2),
    ("50", "run --help", 0),
    ("50", "run --family class1 --m x", 2),
    ("50", "table2 --machines ,", 2),
    ("50", "table2 --machines 2 --seed 5", 2),
    ("50", "verify --trials 0", 2),
    ("50", "verify --trials 5 --seed 3", 0),
    ("50", "worst-order --family class2 --m 2", 0),
    ("50", "run --family class2 --m 3 --format csv", 0),
    ("50", "--help", 0),
    ("80", "run --family class1 --m 3", 0),
    ("80", "table2 --machines 2,3 --format json", 0),
    ("80", "worst-order --help", 0),
    ("80", "run --family class1 --m x", 2),
]


def _run_corpus(monkeypatch, capsys) -> list[tuple]:
    results = []
    for columns, argv, _ in PARSER_CORPUS:
        monkeypatch.setenv("COLUMNS", columns)
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        results.append((code, *capsys.readouterr()))
    return results


def test_reused_parser_prints_what_a_fresh_parser_prints(monkeypatch, capsys):
    reused = _run_corpus(monkeypatch, capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert _run_corpus(monkeypatch, capsys) == reused
    assert [code for code, _, _ in reused] == [code for _, _, code in PARSER_CORPUS]
    # help is wrapped to COLUMNS as it stands at each call
    assert reused[2][1] != reused[7][1]
    assert reused[1][1] != reused[15][1]


def test_main_builds_its_parser_once(monkeypatch):
    assert main(["table2", "--machines", "2"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["table2", "--machines", "2"]) == 0
    assert built == []
    assert cli.build_parser() is not cli.build_parser()
    assert len(built) == 10  # a top-level parser and four subcommand parsers, twice


def test_table2_defaults_are_shared_by_no_call(capsys):
    assert main(["table2"]) == 0
    first = capsys.readouterr()
    assert main(["table2", "--machines", "3"]) == 0
    assert capsys.readouterr().out == "m,class1_ratio,class2_ratio\n3,1.3333,1.2222\n"
    assert main(["table2"]) == 0
    assert capsys.readouterr() == first
    assert cli._parser().parse_args(["table2"]).machines == cli.DEFAULT_MACHINES


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def exhausted(path):
        raise MemoryError

    monkeypatch.setattr(cli, "load_instance", exhausted)
    assert main(["run", "--instance", "jobs.txt"]) == 2
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_wrong_class1_optimum_is_an_invariant_violation(monkeypatch, capsys):
    real = harness.opt_exact

    def off_by_one(instance, budget):
        opt = real(instance, budget)
        return type(opt)(opt.value + 1, opt.kind, opt.nodes_explored)

    monkeypatch.setattr(harness, "opt_exact", off_by_one)
    assert main(["run", "--family", "class1", "--m", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "invariant violated: oracle disagreement on class1 m=4: "
        "search says 5, closed form says 4\n"
    )


def test_verify_exits_1_when_the_bound_fails(monkeypatch, capsys):
    monkeypatch.setattr(harness, "greedy_bound", lambda m: Fraction(1, 2))
    assert main(["verify", "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bound violated: ratio ")
    assert "exceeds bound 0.5000" in captured.err


# the third run ends one unit past ub = (total - largest)/m + largest on
# the first trial at seed 2, yet stays below (2 - 1/m) lb
@pytest.mark.parametrize(
    "shift", [lambda load: load + 100, lambda load: 0, lambda load: load + 1]
)
def test_verify_with_a_broken_kernel_is_an_invariant_violation(shift, monkeypatch, capsys):
    """A greedy run outside Graham's bracket [lb, ub] is a kernel bug, not
    a counterexample to the bound."""
    real = harness.greedy

    def broken(sizes, loads, high=False, steps=None):
        return [shift(load) for load in real(sizes, loads, high, steps)]

    monkeypatch.setattr(harness, "greedy", broken)
    assert main(["verify", "--trials", "1", "--seed", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violated: greedy makespan ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert "bound violated" not in captured.err


def test_run_prints_its_report_then_exits_1_when_the_bound_fails(monkeypatch, capsys):
    monkeypatch.setattr(harness, "greedy_bound", lambda m: Fraction(1, 2))
    assert main(["run", "--family", "class1", "--m", "4"]) == 1
    captured = capsys.readouterr()
    assert "ratio: 6/4 = 1.5000\nbound 2-1/m: 0.5000\nbound satisfied: NO\n" in captured.out
    assert captured.err == "bound violated: see report above\n"


def test_table2_csv(capsys):
    assert main(["table2", "--machines", "2,3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [
        "m,class1_ratio,class2_ratio",
        "2,1.0000,1.2500",
        "3,1.3333,1.2222",
    ]


def test_table2_json(capsys):
    assert main(["table2", "--machines", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == [{"m": 4, "class1_ratio": "1.5000", "class2_ratio": "1.1875"}]


def test_verify_reports_clean_run(capsys):
    assert main(["verify", "--trials", "50"]) == 0
    out = capsys.readouterr().out
    assert "trials: 50" in out
    assert "violations: 0" in out
    assert "max ratio:" in out
    assert "witness order:" in out


def test_verify_reports_undecided_trials_on_stderr_only(monkeypatch, capsys):
    assert main(["verify", "--trials", "40", "--seed", "3"]) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(harness, "opt_exact", lambda instance, budget: opt_exact(instance, 0))
    assert main(["verify", "--trials", "40", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    undecided = verify_bound(40, seed=3).undecided
    assert undecided > 0
    assert captured.err == f"undecided: {undecided}\n"
    assert "violations: 0" in captured.out


def test_readme_verify_run_prints_five_pinned_lines(capsys):
    assert main(["verify", "--trials", "1000", "--seed", "42"]) == 0
    assert capsys.readouterr() == (
        "trials: 1000\n"
        "violations: 0\n"
        "max ratio: 14/9 = 1.5556 (m=4, bound 1.7500)\n"
        "witness instance: 21cde52f04a1\n"
        "witness order: 7 3 1 5 2 4 6\n",
        "",
    )


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--max-n", "13", "max_n must be <= 12, got 13"),
        ("--max-n", "0", "max_n must be >= 1, got 0"),
        ("--max-m", "5", "machine count must be <= 4, got 5"),
        ("--size-min", "10", "must be at most --size-max (9), got 10"),
    ],
)
def test_verify_sizes_past_the_contract_are_usage_errors(option, value, message, capsys):
    """verify's contract range (n <= 12, 2 <= m <= 4) is checked by the
    option types, and a size range that is empty by verify's parser, so a
    value past it is refused with the usage line."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", option, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: listsched verify ")
    assert captured.err.endswith(f"\nlistsched verify: error: argument {option}: {message}\n")


def test_verify_size_range_must_not_be_empty(capsys):
    """--size-min past --size-max is a usage error that names both options,
    not the library's size_range; an equal pair is a one-size range."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--size-min", "9", "--size-max", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: listsched verify ")
    assert captured.err.endswith(
        "\nlistsched verify: error: argument --size-min: "
        "must be at most --size-max (2), got 9\n"
    )
    assert main(["verify", "--trials", "5", "--size-min", "5", "--size-max", "5"]) == 0
    assert "trials: 5\nviolations: 0\n" in capsys.readouterr().out


def test_verify_takes_the_contract_limits(capsys):
    assert main(["verify", "--trials", "5", "--max-n", "12", "--max-m", "4"]) == 0
    assert "trials: 5\n" in capsys.readouterr().out


def test_worst_order_family(capsys):
    assert main(["worst-order", "--family", "class2", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "orders examined: 3 (exhaustive)" in out
    assert "worst makespan: 5" in out
    assert "order: 1 2 3" in out
    assert "predicted worst makespan: 5" in out


def test_worst_order_instance_file(tmp_path, capsys):
    path = tmp_path / "jobs.txt"
    path.write_text("m=2\n# two small, one large\n1\n1\n2\n")
    assert main(["worst-order", "--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "worst makespan: 3" in out
    assert "predicted" not in out


def _greedy_makespan(sizes: list[Fraction], m: int) -> Fraction:
    loads = [Fraction(0)] * m
    for size in sizes:
        loads[loads.index(min(loads))] += size
    return max(loads)


def test_values_past_the_int_digit_limit_print_exactly(tmp_path, capsys):
    """Sizes 1/A, 1/B, 1/C with 2,201-digit A, B, C give makespans whose
    denominators pass the interpreter's digit limit for str(int); they
    print in full, as a Fraction reference writes them with the limit
    lifted. A size literal past that limit stays a parse error."""
    base = 10**2200
    sizes = [Fraction(1, base + k) for k in (1, 3, 7)]
    path = tmp_path / "wide.txt"
    path.write_text("m=2\n" + "".join(f"1/{base + k}\n" for k in (1, 3, 7)))
    alg = _greedy_makespan(sizes, 2)
    worst = max(_greedy_makespan(list(p), 2) for p in itertools.permutations(sizes))
    limit = sys.get_int_max_str_digits()
    assert alg.denominator > 10**limit > 1  # more than limit digits
    sys.set_int_max_str_digits(0)
    try:
        alg_text, worst_text = str(alg), str(worst)
    finally:
        sys.set_int_max_str_digits(limit)
    assert main(["run", "--instance", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"alg makespan: {alg_text}\n" in captured.out
    assert main(["worst-order", "--instance", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"worst makespan: {worst_text}\n" in captured.out
    path.write_text(f"m=2\n1\n{'7' * (limit + 1)}\n")
    assert main(["run", "--instance", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: line 3: ")


def test_output_written_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["table2", "--machines", "2", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "m,class1_ratio,class2_ratio\n2,1.0000,1.2500\n"


def test_output_to_a_255_byte_file_name(tmp_path, capsys):
    """The temporary file's name does not grow with the destination's, so
    a name at the usual 255-byte limit is written like any other."""
    target = tmp_path / ("t" * 251 + ".csv")
    assert len(os.fsencode(target.name)) == 255
    assert main(["table2", "--machines", "2", "--output", str(target)]) == 0
    assert capsys.readouterr() == ("", "")
    assert target.read_text() == "m,class1_ratio,class2_ratio\n2,1.0000,1.2500\n"
    assert list(tmp_path.iterdir()) == [target]


def test_failed_output_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch, capsys):
    target = tmp_path / "table.csv"
    target.write_text("previous\n")

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", refuse)
    assert main(["table2", "--machines", "2", "--output", str(target)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert target.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def test_output_to_a_directory_names_the_directory(tmp_path, capsys):
    target = tmp_path / "reports"
    target.mkdir()
    argv = ["run", "--family", "class1", "--m", "3", "--output", str(target)]
    runs = []
    for _ in range(2):
        assert main(argv) == 2
        runs.append(capsys.readouterr())
    message = f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(target)!r}\n"
    assert runs == [("", message)] * 2
    if sys.platform == "linux":
        assert message == f"error: [Errno 21] Is a directory: '{target}'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["reports"]
    assert list(target.iterdir()) == []


def test_relative_output_resolves_against_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_VAR, str(tmp_path))
    assert main(["table2", "--machines", "2", "--output", "reports/t2.csv"]) == 0
    assert (tmp_path / "reports" / "t2.csv").exists()


def test_worst_order_past_sys_maxsize_orders(tmp_path, capsys):
    # 21 distinct sizes: 21! arrival orders, more than sys.maxsize
    path = tmp_path / "distinct.txt"
    path.write_text("m=3\n" + "".join(f"{k}\n" for k in range(1, 22)))
    argv = ["worst-order", "--instance", str(path), "--cap", "30", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert first.err == ""
    assert first.out.startswith("orders examined: 30 (sampled)\n")
    assert main(argv) == 0
    assert capsys.readouterr().out == first.out


def test_console_script_runs_main():
    # pip writes the `listsched` script as sys.exit(main()) for this binding,
    # so the tests of main here are tests of the installed script
    pyproject = (README.parent / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n\n", 1)[0]
    assert scripts == 'listsched = "listsched.cli:main"'


def test_module_entry_point():
    # run from the directory that holds the package under test, so the
    # child imports it whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "listsched", "table2", "--machines", "2"],
        capture_output=True,
        text=True,
        cwd=Path(listsched.__file__).parents[1],
    )
    assert proc.returncode == 0
    assert "2,1.0000,1.2500" in proc.stdout


def test_module_entry_point_output_follows_a_strict_umask(tmp_path):
    # the process, not the test, runs under umask 077, so --output's file
    # gets the mode a file the shell creates under that umask gets
    out = tmp_path / "strict.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "listsched", "table2", "--machines", "2", "--output", str(out)],
        capture_output=True,
        text=True,
        cwd=Path(listsched.__file__).parents[1],
        preexec_fn=lambda: os.umask(0o077),
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("m,class1_ratio,class2_ratio\n2,1.0000,1.2500\n")
    assert out.stat().st_mode & 0o777 == 0o600


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for what `import listsched.cli` loads: dataclasses
    # alone pulls in inspect, ast, dis and tokenize; -S keeps site from
    # loading either first
    code = (
        "import sys; before = set(sys.modules); import listsched.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(listsched.__file__).parents[1],
    )
    loaded = set(proc.stdout.split())
    assert "listsched.model" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_verify_digests_without_loading_openssl():
    # hashlib loads _hashlib, OpenSSL's binding, which adds megabytes to a
    # run's peak memory; verify's witness label needs only CPython's sha256
    code = (
        "import sys; from listsched.cli import main; "
        "main(['verify', '--trials', '5']); "
        "print('_hashlib' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(listsched.__file__).parents[1],
    )
    assert "witness" in proc.stdout
    assert proc.stderr == "False\n"
