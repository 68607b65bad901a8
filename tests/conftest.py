import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from collections import Counter

from confrel import ConfidenceRelation, core, make_space, relations


@pytest.fixture
def s2():
    return make_space(["s1", "s2"])


@pytest.fixture
def s3():
    return make_space(["s1", "s2", "s3"])


@pytest.fixture
def view_builds(monkeypatch):
    """Counts, from here on, of _transpose calls (each transpose; a dual
    reads its relation's cols) and core._inclusion_rows calls (each
    inclusion table built). Every loaded confrel module that imports
    _transpose gets the counting one. The per-n table cache starts
    empty, so a table that an earlier test built is counted again here."""
    core._inclusion_table.cache_clear()
    counts = Counter()
    transpose, build = relations._transpose, core._inclusion_rows

    def counted_transpose(rows):
        counts["transpose"] += 1
        return transpose(rows)

    def counted_build(n):
        counts["inclusion"] += 1
        return build(n)

    for name, module in list(sys.modules.items()):
        if (name.startswith("confrel.")
                and getattr(module, "_transpose", None) is transpose):
            monkeypatch.setattr(module, "_transpose", counted_transpose)
    monkeypatch.setattr(core, "_inclusion_rows", counted_build)
    return counts


def inclusion_relation(space):
    rows = tuple(
        sum(1 << b for b in range(space.size) if b & ~a == 0)
        for a in range(space.size)
    )
    return ConfidenceRelation(space, rows)


@pytest.fixture
def penguin_doc():
    return {
        "atoms": ["b", "f", "p"],
        "rules": [
            {"if": "b", "then": "f"},
            {"if": "p", "then": "b"},
            {"if": "p", "then": "!f"},
        ],
    }
