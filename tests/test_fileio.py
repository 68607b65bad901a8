import json

import pytest

from confrel import (
    AtomUniverse,
    ConfidenceRelation,
    EmptySpace,
    Family,
    LabelledSpace,
    TooLarge,
    close_p,
    dump_family,
    dump_kb,
    dump_measure,
    dump_relation,
    load_family,
    load_kb,
    load_measure,
    load_relation,
    make_base,
    make_space,
    mass,
    possibility,
    uniform_probability,
)
from conftest import inclusion_relation


def necessity_relation(s3):
    values = [0, 2, 0, 3, 0, 2, 0, 4]
    rows = tuple(
        sum(1 << b for b in range(8) if values[a] >= values[b]) for a in range(8)
    )
    return ConfidenceRelation(s3, rows)


def test_relation_roundtrip(s3):
    rel = necessity_relation(s3)
    assert load_relation(dump_relation(rel)) == rel


def test_relation_from_file_path(tmp_path, s3):
    rel = inclusion_relation(s3)
    path = tmp_path / "rel.json"
    path.write_text(json.dumps(dump_relation(rel)))
    assert load_relation(str(path)) == rel


def test_strict_only_relations_are_closed_then_lifted(s2):
    doc = {"states": ["s1", "s2"], "pairs": [[["s1"], []]], "strict_only": True}
    rel = load_relation(doc)
    assert rel.strict(s2.singleton("s1"), s2.empty())
    assert rel.strict(s2.full(), s2.empty())
    assert rel.incomparable(s2.singleton("s1"), s2.singleton("s2"))


def test_relation_needs_its_keys():
    with pytest.raises(ValueError):
        load_relation({"states": ["s1"]})
    with pytest.raises(ValueError):
        load_relation({"pairs": []})


def test_max_states_guard_applies():
    names = [f"s{i}" for i in range(1, 14)]
    doc = {"states": names, "pairs": []}
    with pytest.raises(TooLarge):
        load_relation(doc)
    assert load_relation(doc, max_states=13).space.n == 13
    kb = {"states": names, "atoms": ["a"], "labels": {"s1": ["a"]},
          "rules": [{"if": "a", "then": "!a"}]}
    with pytest.raises(TooLarge):
        load_kb(kb)
    assert load_kb(kb, max_states=13)[0].space.n == 13


# an event list is decoded once per file; a string or a mapping equal to
# a list read before it must still be refused, never served from that list
@pytest.mark.parametrize("event", ["ab", {"a": 1, "b": 1}])
def test_event_after_an_equal_list_is_read_on_its_own(event):
    doc = {"states": ["a", "b"], "pairs": [[["a", "b"], ["b"]], [event, []]]}
    with pytest.raises(ValueError, match="each a list of state names"):
        load_relation(doc)
    with pytest.raises(ValueError, match="each a list of state names"):
        load_family({"states": ["a", "b"], "members": [doc["pairs"]]})


def test_repeated_event_lists_decode_alike(s3):
    rel = necessity_relation(s3)
    doc = dump_relation(rel)
    assert load_relation(doc) == rel
    # each pair list fresh, and names in another order
    doc["pairs"] = [[list(reversed(a)), b[:]] for a, b in doc["pairs"]]
    assert load_relation(doc) == rel
    with pytest.raises(KeyError):
        load_relation({"states": ["a"], "pairs": [[["a"], []], [["a", "z"], []]]})


def test_measure_roundtrips(s3):
    for m in (
        uniform_probability(s3),
        possibility(s3, [1, "1/2", "1/4"]),
        mass(s3, {1: "2/5", 6: "3/5"}),
    ):
        assert load_measure(dump_measure(m)) == m


def test_measure_values_by_state_name(s3):
    doc = {
        "states": ["s1", "s2", "s3"],
        "type": "possibility",
        "values": {"s1": 1, "s2": "1/2"},
    }
    m = load_measure(doc)
    assert m.weight_of(2) == pytest.approx(0.5)
    assert m.weight_of(4) == 0
    doc["values"] = {"s9": 1}
    with pytest.raises(ValueError):
        load_measure(doc)
    doc["type"] = "entropy"
    with pytest.raises(ValueError):
        load_measure(doc)


def test_mass_values_use_comma_joined_names(s3):
    doc = {
        "states": ["s1", "s2", "s3"],
        "type": "mass",
        "values": {"s1": "2/5", "s2,s3": "3/5"},
    }
    m = load_measure(doc)
    assert m.focal_masks() == (1, 6)
    assert dump_measure(m)["values"] == {"s1": "2/5", "s2,s3": "3/5"}
    doc["values"] = {" s1": "2/5", "s2 , s3": "3/5"}
    assert load_measure(doc) == m


def test_kb_roundtrip_over_atoms(penguin_doc):
    universe, base = load_kb(penguin_doc)
    assert isinstance(universe, AtomUniverse)
    assert len(base.pairs) == 3
    universe2, base2 = load_kb(dump_kb(universe, base))
    assert set(base2.pairs) == set(base.pairs)


def test_kb_over_labelled_states():
    doc = {
        "states": ["calm", "storm", "gale"],
        "atoms": ["wind", "rain"],
        "labels": {"storm": ["wind", "rain"], "gale": ["wind"]},
        "rules": [{"if": "wind", "then": "rain"}],
    }
    universe, base = load_kb(doc)
    assert isinstance(universe, LabelledSpace)
    assert base.pairs == ((2, 4),)
    universe2, base2 = load_kb(dump_kb(universe, base))
    assert base2.pairs == base.pairs
    assert universe2.space.states == universe.space.states


def test_dump_kb_rejects_undefinable_events():
    universe = LabelledSpace(["w1", "w2"], ["a"], {"w1": ["a"], "w2": ["a"]})
    base = make_base(universe.space, [(1, 2)])
    with pytest.raises(ValueError):
        dump_kb(universe, base)


def test_closed_kb_survives_dump_and_reclosure(penguin_doc):
    # trivial derived pairs are dropped by the dumper and re-derived here
    universe, base = load_kb(penguin_doc)
    closed = close_p(base)
    _, again = load_kb(dump_kb(universe, closed))
    assert set(close_p(again).pairs) == set(closed.pairs)


def test_family_roundtrip(s2):
    fam = Family(
        s2,
        (
            ConfidenceRelation(s2, (1, 7, 5, 15)),
            ConfidenceRelation(s2, (1, 3, 7, 15)),
        ),
    )
    assert load_family(dump_family(fam)) == fam
    with pytest.raises(EmptySpace):
        load_family({"states": ["s1", "s2"], "members": []})
