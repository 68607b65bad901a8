import pytest

from confrel import (
    DuplicateState,
    EmptySpace,
    Event,
    SpaceMismatch,
    TooLarge,
    all_events,
    disjoint_pairs,
    disjoint_triples,
    make_space,
    submasks,
)
from confrel.core import _triple_masks


def test_make_space_rejects_bad_input():
    with pytest.raises(EmptySpace):
        make_space([])
    with pytest.raises(DuplicateState):
        make_space(["a", "a"])
    with pytest.raises(TooLarge):
        make_space([f"s{i}" for i in range(13)])
    make_space([f"s{i}" for i in range(13)], max_states=13)


def test_space_lookups(s3):
    assert s3.n == 3
    assert s3.size == 8
    assert s3.full_mask == 7
    assert s3.index("s2") == 1
    assert s3.event(["s1", "s3"]).bits == 0b101
    assert s3.names_of(0b101) == ("s1", "s3")
    assert s3.empty().bits == 0
    assert s3.full().bits == 7
    with pytest.raises(KeyError):
        s3.index("zz")


def test_event_algebra(s3):
    a = s3.event(["s1", "s2"])
    b = s3.event(["s2", "s3"])
    assert (a & b).names() == ("s2",)
    assert (a | b).bits == 7
    assert (a - b).names() == ("s1",)
    assert a.complement().names() == ("s3",)
    assert s3.event([]).is_empty()
    assert a.subset_of(s3.full())
    assert not a.subset_of(b)
    assert len(a) == 2
    assert repr(a) == "{s1,s2}"


def test_event_space_mismatch(s2, s3):
    with pytest.raises(SpaceMismatch):
        s2.full() & s3.full()


def test_submasks_ascending_and_complete():
    subs = list(submasks(0b1010))
    assert subs == sorted(subs)
    assert subs[0] == 0
    assert set(subs) == {0, 2, 8, 10}
    assert list(submasks(0)) == [0]


def test_enumerators(s3):
    assert len(list(all_events(s3))) == 8
    pairs = list(disjoint_pairs(s3))
    assert all((a.bits & b.bits) == 0 for a, b in pairs)
    assert len(pairs) == 3 ** 3
    triples = list(disjoint_triples(s3))
    assert all(
        not (a.bits & b.bits or a.bits & c.bits or b.bits & c.bits)
        for a, b, c in triples
    )
    assert len(triples) == 4 ** 3
    # the negligibility witnesses are the first failing triple in this order
    for n in range(5):
        size = 1 << n
        brute = sorted((a, b, c) for a in range(size) for b in range(size)
                       for c in range(size) if not (a & b or a & c or b & c))
        assert list(_triple_masks(size - 1)) == brute
        if n:
            space = make_space([f"s{i}" for i in range(n)])
            assert [(a.bits, b.bits, c.bits)
                    for a, b, c in disjoint_triples(space)] == brute


def test_event_from_bits_bounds(s2):
    with pytest.raises(ValueError):
        Event(s2, 1 << 5)
