"""End-to-end coverage of the command-line interface."""
from __future__ import annotations

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import listsched
from conftest import deep_instance
from listsched import harness
from listsched.cli import OUTPUT_DIR_VAR, main
from listsched.harness import REPORT_COLUMNS, verify_bound
from listsched.model import format_instance


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, shown stdout lines) for each `$ listsched ...` line in the
    README's console blocks; output shown up to a '...' line is only the
    first lines of what the command prints."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = []
    for block in re.findall(r"```console\n(.*?)```", readme.read_text(), re.S):
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


def test_run_instance_deeper_than_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(format_instance(deep_instance()))
    assert main(["run", "--instance", str(path), "--node-budget", "5000"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "opt: 80464/7 (lower-bound-only, 5001 nodes)" in captured.out


def test_run_family_without_m_is_usage_error(capsys):
    assert main(["run", "--family", "class1"]) == 2
    assert "--family requires --m" in capsys.readouterr().err


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
        "error: m=1000000000 is too large: a family lists up to m^2 jobs\n"
    )


def test_malformed_instance_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("m=2\n3\nbogus\n")
    assert main(["run", "--instance", str(path)]) == 2
    assert "line 3" in capsys.readouterr().err


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
    monkeypatch.setattr(harness, "DEFAULT_NODE_BUDGET", 0)
    assert main(["verify", "--trials", "40", "--seed", "3"]) == 0
    captured = capsys.readouterr()
    undecided = verify_bound(40, seed=3).undecided
    assert undecided > 0
    assert captured.err == f"undecided: {undecided}\n"
    assert "violations: 0" in captured.out


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


def test_output_written_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert main(["table2", "--machines", "2", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == "m,class1_ratio,class2_ratio\n2,1.0000,1.2500\n"


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
