"""The checked-in mutants (tests/mutants.py) still apply to the code: each old
text occurs exactly once in its file, and each listed test exists. Running
the mutants themselves is opt-in: `python tests/mutants.py`."""

import re

import pytest

from mutants import MUTANTS, ROOT


def test_names_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_listed_tests_exist(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *scopes = node.split("::")
        source = (ROOT / path).read_text()
        for kind, scope in zip(("class", "def")[-len(scopes):], scopes):
            assert re.search(rf"^\s*{kind} {scope}\b", source, re.M), node
