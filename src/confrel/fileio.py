"""JSON file formats for relations, measures, knowledge bases and families.

Every loader accepts either an already-parsed dict or a path to a JSON
file; every dumper returns a plain dict that json.dump can write and the
matching loader can read back. Events are encoded as arrays of state
names, rationals as strings like "3/10" (whatever parse_rational takes).
A field of the wrong shape raises ValueError naming the field.
"""

from __future__ import annotations

import json
from typing import Union

from .core import RELATION_MAX, StateSpace, make_space
from .errors import EmptySpace
from .logic import AtomUniverse, LabelledSpace
from .measures import MASS, POSSIBILITY, PROBABILITY, Measure, mass, possibility, probability
from .preferential import ConditionalBase, conditional_from_formulas, make_base
from .relations import ConfidenceRelation, close_strict_pairs, lift_strict
from .representation import Family

Source = Union[str, dict]


def _load(source: Source) -> dict:
    if isinstance(source, dict):
        return source
    with open(source, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{source} does not hold a JSON object")
    return doc


def _space(doc: dict, where: str, max_states) -> StateSpace:
    names = _names(doc, "states", where)
    if max_states is None:
        return make_space(names)
    return make_space(names, max_states)


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise ValueError(f"{where} file needs a {key!r} entry")
    return doc[key]


def _names(doc: dict, key: str, where: str) -> list[str]:
    names = _need(doc, key, where)
    if not (isinstance(names, list) and all(isinstance(s, str) for s in names)):
        raise ValueError(f"{where} {key!r} must be a list of names")
    return names


def _event_pairs(space: StateSpace, pairs, field: str) -> list:
    # (mask, mask) pairs; reading checks the shape: an entry that is not a
    # pair of name lists fails inside the comprehension, at no cost. A file
    # repeats each event many times, so each distinct list of names is
    # decoded once; any other value goes to space._mask, which refuses a
    # string or a mapping even when an equal list came before it
    decoded: dict[tuple, int] = {}

    def mask(names) -> int:
        if type(names) is not list:
            return space._mask(names)
        key = tuple(names)
        bits = decoded.get(key)
        if bits is None:
            bits = decoded[key] = space._mask(names)
        return bits

    try:
        if isinstance(pairs, list):
            return [(mask(a), mask(b)) for a, b in pairs]
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{field} must list pairs of events, each a list of "
                     "state names")


# -- relations --------------------------------------------------------------

def load_relation(source: Source, max_states=None) -> ConfidenceRelation:
    doc = _load(source)
    space = _space(doc, "relation", max_states)
    pairs = _event_pairs(space, _need(doc, "pairs", "relation"),
                         "relation 'pairs'")
    strict_only = doc.get("strict_only", False)
    if not isinstance(strict_only, bool):
        raise ValueError("relation 'strict_only' must be true or false")
    if strict_only:
        return lift_strict(space, close_strict_pairs(space, pairs))
    return ConfidenceRelation.from_weak_pairs(space, pairs)


def dump_relation(rel: ConfidenceRelation) -> dict:
    space = rel.space
    names = [list(space.names_of(m)) for m in range(space.size)]
    pairs = [[names[a], names[b]] for a, row in enumerate(rel.rows)
             for b in range(space.size) if row >> b & 1]
    return {"states": list(space.states), "pairs": pairs}


# -- measures ---------------------------------------------------------------

def load_measure(source: Source, max_states=None) -> Measure:
    doc = _load(source)
    space = _space(doc, "measure", max_states)
    kind = _need(doc, "type", "measure")
    values = _need(doc, "values", "measure")
    if kind in (PROBABILITY, POSSIBILITY):
        if not isinstance(values, (dict, list)):
            raise ValueError(f"{kind} 'values' must be an object or a list")
        if isinstance(values, dict):
            stray = set(values) - set(space.states)
            if stray:
                raise ValueError(f"values for unknown states {sorted(stray)}")
            values = [values.get(s, 0) for s in space.states]
        maker = probability if kind == PROBABILITY else possibility
        return maker(space, values)
    if kind == MASS:
        if not isinstance(values, dict):
            raise ValueError("mass 'values' must be an object keyed by focal sets")
        focal = {}
        for key, v in values.items():
            focal[space.event(name.strip() for name in key.split(","))] = v
        return mass(space, focal)
    raise ValueError(f"unknown measure type {kind!r}")


def dump_measure(measure: Measure) -> dict:
    if measure.kind == MASS:
        values = {
            ",".join(measure.space.names_of(m)): str(v)
            for m, v in measure.weights
        }
    else:
        values = {
            measure.space.states[m.bit_length() - 1]: str(v)
            for m, v in measure.weights
        }
    return {
        "states": list(measure.space.states),
        "type": measure.kind,
        "values": values,
    }


# -- knowledge bases --------------------------------------------------------

def load_kb(source: Source, max_states=None):
    """Universe and base from a file of rules.

    Two shapes: {"atoms", "rules"} reads the rules over all valuations of
    the atoms; {"states", "atoms", "labels", "rules"} evaluates them over
    the declared states instead. Returns (universe, base).
    """
    doc = _load(source)
    where = "knowledge base"
    rules = _need(doc, "rules", where)
    if not (isinstance(rules, list) and all(
            isinstance(r, dict) and isinstance(r.get("if"), str)
            and isinstance(r.get("then"), str) for r in rules)):
        raise ValueError(
            f"{where} 'rules' must be a list of objects with 'if' and 'then' "
            "formulas"
        )
    atoms = _names(doc, "atoms", where)
    cap = RELATION_MAX if max_states is None else max_states
    if "states" in doc:
        labels = doc.get("labels", {})
        if not (isinstance(labels, dict) and all(
                isinstance(v, list) and all(isinstance(a, str) for a in v)
                for v in labels.values())):
            raise ValueError(f"{where} 'labels' must map states to lists of atoms")
        universe = LabelledSpace(_names(doc, "states", where), atoms, labels,
                                 cap)
    else:
        universe = AtomUniverse(atoms, cap)
    conditionals = [
        conditional_from_formulas(universe, r["if"], r["then"]) for r in rules
    ]
    return universe, make_base(universe.space, conditionals)


def _minterm(universe, state: str) -> str:
    if isinstance(universe, LabelledSpace):
        true_atoms = universe.labels[state]
    else:
        true_atoms = {a for i, a in enumerate(universe.atoms) if state[i] == "1"}
    return " & ".join(a if a in true_atoms else f"!{a}" for a in universe.atoms)


def _formula_for(universe, bits: int) -> str:
    if bits == 0:
        return "false"
    space = universe.space
    terms = [f"({_minterm(universe, s)})" for s in space.names_of(bits)]
    text = " | ".join(terms)
    if universe.models(text).bits != bits:
        raise ValueError(
            f"event {space.names_of(bits)} is not definable over these atoms"
        )
    return text


def dump_kb(universe, base: ConditionalBase) -> dict:
    """Rules file for the base; pair events become minterm disjunctions.

    Pairs with an empty violating side are skipped: the loader rejects
    rules that assert nothing, and closing the reloaded base derives them
    again anyway.
    """
    rules = []
    for e, f in base.pairs:
        if f == 0:
            continue
        rules.append({
            "if": _formula_for(universe, e | f),
            "then": _formula_for(universe, e),
        })
    doc: dict = {"atoms": list(universe.atoms)}
    if isinstance(universe, LabelledSpace):
        doc["states"] = list(universe.space.states)
        doc["labels"] = {s: sorted(universe.labels[s]) for s in universe.space.states}
    doc["rules"] = rules
    return doc


# -- families ---------------------------------------------------------------

def load_family(source: Source, max_states=None) -> Family:
    doc = _load(source)
    space = _space(doc, "family", max_states)
    members = _need(doc, "members", "family")
    if not isinstance(members, list):
        raise ValueError("family 'members' must be a list of pair lists")
    members = [
        ConfidenceRelation.from_weak_pairs(
            space, _event_pairs(space, pairs, "family 'members'"))
        for pairs in members
    ]
    if not members:
        raise EmptySpace("a family needs at least one member")
    return Family(space, tuple(members))


def dump_family(family: Family) -> dict:
    return {
        "states": list(family.space.states),
        "members": [dump_relation(m)["pairs"] for m in family.members],
    }
