"""The mutant table of ``tests/mutants.py`` still applies to the source.

Running the mutants takes minutes, so it stays outside the suite; this
check takes milliseconds, so a change that moves mutated code must update
the table with it.
"""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


def test_names_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_and_new_differs(mutant):
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.breaks

