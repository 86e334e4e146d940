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
    Mutant(
        "Instance.sizes is the lane column on int lanes too",
        "model.py",
        "if not lanes.scale:",
        "if True:",
        (
            "test_model.py::test_model_types_pickle_and_copy_through_their_constructors",
            "test_model.py::test_from_sizes_hashes_each_size_once",
            "test_model.py::test_sqrt2_sizes_are_the_lane_column",
            "test_model.py::test_job_reads_one_lane_and_builds_no_size_column",
            "test_model.py::test_from_sizes_checks_each_distinct_size_once",
            "test_model.py::test_instance_file_integer_forms_still_read",
            "test_model.py::test_failed_save_instance_names_the_destination_not_the_temp_file",
            "test_properties.py::test_from_sizes_matches_building_each_job",
            "test_properties.py::test_instance_files_are_ascii_and_parse_back",
            "test_properties.py::test_instance_digest_is_hashlib_sha256_of_the_file_text",
            "test_properties.py::test_ids_other_than_1_to_n_score_as_their_renumbering",
            "test_harness.py::test_exact_optimum_below_the_greedy_makespan_is_an_invariant_violation",
            "test_harness.py::test_untagged_report_uses_digest_label",
            "test_harness.py::test_instance_digest_looks_its_sha256_up_once",
            "test_harness.py::test_instance_digest_falls_back_to_hashlib_without_cpythons_sha256",
            "test_harness.py::test_an_instance_is_its_three_columns_before_and_after_use",
            "test_harness.py::test_verify_bound_catches_a_bad_policy",
            "test_records.py::test_verify_hashes_only_the_printed_witness",
            "test_records.py::test_bound_violation_reads_its_counterexample_from_the_report",
            "test_records.py::test_bound_violation_survives_pickling",
            "test_records.py::test_report_derives_what_it_does_not_store",
            "test_records.py::test_record_repr_equality_hash_and_immutability",
            "test_cli.py::test_readme_console_examples",
            "test_cli.py::test_a_seed_and_its_negation_draw_the_same_trials",
            "test_cli.py::test_run_instance_file",
            "test_cli.py::test_run_instance_certified_at_a_whole_unit",
            "test_cli.py::test_a_zero_node_budget_keeps_only_the_lpt_certificate",
            "test_cli.py::test_run_instance_deeper_than_the_recursion_limit",
            "test_cli.py::test_run_worst_order_takes_the_search_options",
            "test_cli.py::test_given_and_as_listed_orders_print_the_same_bytes",
            "test_cli.py::test_integer_options_take_leading_zeros_a_minus_and_ascii_padding",
            "test_cli.py::test_instance_file_with_crlf_line_ends_reads_as_its_newline_twin",
            "test_cli.py::test_reused_parser_prints_what_a_fresh_parser_prints",
            "test_cli.py::test_verify_exits_1_when_the_bound_fails",
            "test_cli.py::test_verify_reports_clean_run",
            "test_cli.py::test_verify_reports_undecided_trials_on_stderr_only",
            "test_cli.py::test_readme_verify_run_prints_five_pinned_lines",
            "test_cli.py::test_verify_size_range_must_not_be_empty",
            "test_cli.py::test_verify_takes_the_contract_limits",
            "test_cli.py::test_values_past_the_int_digit_limit_print_exactly",
            "test_cli.py::test_verify_digests_without_loading_openssl",
        ),
    ),
    Mutant(
        "Instance.sizes builds one Time per job",
        "model.py",
        "tuple(map(time_of.__getitem__, lanes.sizes))",
        "tuple(map(lanes.time, lanes.sizes))",
        (
            "test_model.py::test_a_pickled_instance_numbered_1_to_n_stores_each_size_once",
            "test_model.py::test_from_sizes_checks_each_distinct_size_once",
        ),
    ),
    Mutant(
        "Instance.job reads the lane before its own",
        "model.py",
        "lanes.time(lanes.sizes[k])",
        "lanes.time(lanes.sizes[k - 1])",
        (
            "test_model.py::test_instance_invariants",
            "test_model.py::test_job_reads_one_lane_and_builds_no_size_column",
            "test_model.py::test_instance_ids_in_any_order_and_their_duplicates",
            "test_harness.py::test_an_instance_is_its_three_columns_before_and_after_use",
            "test_online.py::test_schedule_and_trace_are_consistent",
            "test_online.py::test_prefix_of_order_gives_prefix_of_trace",
            "test_online.py::test_greedy_balance_invariant",
            "test_properties.py::test_kernel_matches_reference_scan",
            "test_properties.py::test_coded_search_matches_plain_enumeration",
            "test_properties.py::test_sampled_search_draws_the_ranks_of_the_sizes",
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
