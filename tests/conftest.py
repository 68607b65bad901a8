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
    """Counts, from here on, of relations._delta_swap calls (each
    transpose or dual) and core._inclusion_rows calls (each inclusion
    table built). The per-n table cache starts empty, so a table that an
    earlier test built is counted again here."""
    core._inclusion_table.cache_clear()
    counts = Counter()
    swap, build = relations._delta_swap, core._inclusion_rows

    def counted_swap(rows, anti):
        counts["delta_swap"] += 1
        return swap(rows, anti)

    def counted_build(n):
        counts["inclusion"] += 1
        return build(n)

    monkeypatch.setattr(relations, "_delta_swap", counted_swap)
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
