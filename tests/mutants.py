"""Hand-written mutants of src/listsched, each with the tests that must kill it.

A mutant names one file under src/listsched/, a text that occurs there
exactly once, the text put in its place, and the ids of the tests that
must fail once it is applied (mutation analysis: DeMillo, Lipton and
Sayward, IEEE Computer 11(4), 1978). Run it from the repository root:

    python tests/mutants.py

It copies src/, tests/, pyproject.toml and README.md (which test_cli
reads when it is imported) to a temporary directory, as pytest's
pythonpath = ["src"] would otherwise import the checkout's own src/. It
runs every listed test once on the unchanged copy, which must pass, and
then applies one mutant at a time and runs that mutant's tests with -x.
A mutant whose tests all pass survives, and the run exits 1 naming it.
Nothing is written outside the temporary directory.
tests/test_mutants.py checks, in Tier-1, that each old text occurs
exactly once, so a refactor cannot orphan a mutant quietly.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    name: str
    path: str  # under src/listsched/
    old: str
    new: str
    tests: tuple[str, ...]  # ids under tests/


DRAWS = "test_harness.py::test_verify_bound_draws_the_trials_of_randint_and_shuffle"

MUTANTS = (
    Mutant(
        "equal-load prune dropped",
        "oracle.py",
        "if symmetry_breaking and loads.index(load) < k - 1:",
        "if False:",
        ("test_oracle.py::test_opt_exact_pinned_values_kinds_and_node_counts",),
    ),
    Mutant(
        "graham_bracket's lb not rounded up",
        "oracle.py",
        "max(-(-total // m), largest)",
        "max(total // m, largest)",
        (
            "test_harness.py::test_verify_bound_witness_when_no_trial_is_decided",
            "test_properties.py::test_lower_bound_is_a_whole_lane_unit_on_rational_sizes",
        ),
    ),
    Mutant(
        "graham_bracket's ub one unit high",
        "oracle.py",
        "(total - largest) // m + largest",
        "(total - largest) // m + largest + 1",
        ("test_families.py::test_graham_bracket_gives_every_familys_predictions",),
    ),
    Mutant(
        "Lanes.total sums distinct without its counts",
        "model.py",
        "sum(map(mul, self.distinct, self.counts), self.zero)",
        "sum(self.distinct, self.zero)",
        (
            "test_model.py::test_total_load_examples",
            "test_families.py::test_graham_bracket_gives_every_familys_predictions",
        ),
    ),
    Mutant(
        "listed-order fast path taken for every order",
        "online.py",
        "if high is not None and steps is None and order._ids is ids:",
        "if high is not None and steps is None:",
        ("test_online.py::test_only_the_listed_order_skips_the_permutation_check",),
    ),
    Mutant(
        "exclusive upper end in _check_count",
        "model.py",
        "if high is not None and value > high:",
        "if high is not None and value >= high:",
        ("test_count_rule.py::test_the_bounds_are_inclusive",),
    ),
    Mutant(
        "size_range hi checked against 1",
        "harness.py",
        '_check_count("size_range hi", hi, lo)',
        '_check_count("size_range hi", hi, 1)',
        ("test_count_rule.py::test_a_count_out_of_range_is_refused_in_one_message",),
    ),
    Mutant(
        "verify draws (w - 1).bit_length() bits in below",
        "harness.py",
        "k = w.bit_length()",
        "k = (w - 1).bit_length()",
        (DRAWS,),
    ),
    Mutant(
        "verify draws (width - 1).bit_length() bits for a size",
        "harness.py",
        "k = width.bit_length()",
        "k = (width - 1).bit_length()",
        (DRAWS,),
    ),
    Mutant(
        "verify keeps a draw equal to w in below",
        "harness.py",
        "while r >= w:",
        "while r > w:",
        (DRAWS,),
    ),
    Mutant(
        "verify keeps a size draw equal to width",
        "harness.py",
        "while r >= width:",
        "while r > width:",
        (DRAWS,),
    ),
    Mutant(
        "verify's shuffle runs down to i = 0",
        "harness.py",
        "for i in range(n - 1, 0, -1):",
        "for i in range(n - 1, -1, -1):",
        (DRAWS,),
    ),
    Mutant(
        "verify draws nothing for a width of 1 in below",
        "harness.py",
        "        k = w.bit_length()\n",
        "        if w == 1:\n            return 0\n        k = w.bit_length()\n",
        (DRAWS,),
    ),
    Mutant(
        "verify draws nothing for a size of width 1",
        "harness.py",
        "            r = bits(k)\n            while r >= width:",
        "            r = bits(k) if width > 1 else 0\n            while r >= width:",
        (DRAWS,),
    ),
    Mutant(
        "verify hands the oracle a budget of 0",
        "harness.py",
        "competitive_ratio(instance, ArrivalOrder(tuple(ids)), policy)",
        "competitive_ratio(instance, ArrivalOrder(tuple(ids)), policy, node_budget=0)",
        (
            "test_properties.py::test_verify_bound_matches_the_oracle_on_every_trial",
            "test_cli.py::test_readme_verify_run_prints_five_pinned_lines",
            "test_harness.py::test_verify_bound_counts_undecided_trials",
            "test_cli.py::test_verify_reports_undecided_trials_on_stderr_only",
        ),
    ),
)


def _pytest(copy: Path, tests, *flags: str) -> int:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)  # the copy's pythonpath = ["src"] decides
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *flags]
    command += [f"tests/{test}" for test in tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        every_test = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code = _pytest(copy, every_test)
        if code != 0:
            print(f"the listed tests fail with no mutant applied (pytest exit {code})")
            return 1
        survivors = []
        for mutant in MUTANTS:
            target = copy / "src" / "listsched" / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                print(f"{mutant.name}: its old text is not once in {mutant.path}")
                return 1
            target.write_text(text.replace(mutant.old, mutant.new))
            code = _pytest(copy, mutant.tests, "-x")
            target.write_text(text)
            # pytest exits 1 when a test failed; any other code is no kill
            verdict = "killed" if code == 1 else f"SURVIVED (pytest exit {code})"
            print(f"{mutant.name}: {verdict}", flush=True)
            if code != 1:
                survivors.append(mutant.name)
        print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
