"""The mutant list of tests/mutants.py stays in step with src/ and tests/."""
from __future__ import annotations

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_each_mutant_edits_one_place_in_src_and_names_existing_tests(mutant):
    text = (ROOT / "src" / "listsched" / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        assert f"\ndef {name}(" in (ROOT / "tests" / path).read_text(), test
