"""Completing partial acceptance preorders into families of complete ones.

A constrained relation carries the usual weak matrix plus a matrix of
forbidden weak edges; forbidding the reverse edge of a weak one is what
makes a strict preference a durable commitment that closure steps can
build on. Closing applies monotony, transitivity and the acceptance
axiom to a fixpoint; a step that needs an edge that is forbidden (or
must forbid an edge already present) yields a Contradiction value
carrying the colliding pair.

Decomposition branches on the first incomparable pair, committing each
orientation in turn and discarding contradictory branches; surviving
complete leaves form the family. Recomposition intersects the members'
weak matrices, which is sound when all members agree on equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import DECOMPOSE_MAX, Event, StateSpace, _triple_masks, submasks
from .errors import NotAcceptance, SharedEquivalenceViolated, TooLarge
from .relations import ConfidenceRelation, _inclusion_rows, is_acceptance_preorder


@dataclass(frozen=True)
class Contradiction:
    pair: tuple[Event, Event]


@dataclass(frozen=True)
class ConstrainedRelation:
    space: StateSpace
    rows: tuple[int, ...]
    forbidden: tuple[int, ...]

    def __post_init__(self):
        if any(r & f for r, f in zip(self.rows, self.forbidden)):
            raise ValueError("a weak edge cannot also be forbidden")

    def relation(self) -> ConfidenceRelation:
        return ConfidenceRelation(self.space, self.rows)

    def committed_strict(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1) and bool(self.forbidden[y] >> x & 1)

    def is_complete(self) -> bool:
        return self.relation().is_complete()


def constrain(rel: ConfidenceRelation) -> ConstrainedRelation:
    """Wrap a relation, committing every strict preference it already has."""
    forbidden = [0] * rel.space.size
    for a in range(rel.space.size):
        for b in range(rel.space.size):
            if rel.s(a, b):
                forbidden[b] |= 1 << a
    return ConstrainedRelation(rel.space, rel.rows, tuple(forbidden))


def _commit(rows, forbidden, x: int, y: int) -> Optional[tuple[int, int]]:
    # forbid the reverse edge first, then require the weak edge; the
    # returned pair is the edge found both weak and forbidden
    if rows[y] >> x & 1:
        return (y, x)
    forbidden[y] |= 1 << x
    if forbidden[x] >> y & 1:
        return (x, y)
    rows[x] |= 1 << y
    return None


def ac_close(cr: ConstrainedRelation) -> Union[ConstrainedRelation, Contradiction]:
    """Close under monotony, transitivity, orientation growth for committed
    strict pairs, and the acceptance axiom; fixpoint or Contradiction."""
    space = cr.space
    n = space.size
    full = space.full_mask
    rows = list(cr.rows)
    forbidden = list(cr.forbidden)

    required = _inclusion_rows(space.n)

    def clash(pair) -> Contradiction:
        return Contradiction((Event(space, pair[0]), Event(space, pair[1])))

    changed = True
    while changed:
        changed = False
        for a in range(n):
            missing = required[a] & ~rows[a]
            if missing:
                if missing & forbidden[a]:
                    bad = missing & forbidden[a]
                    return clash((a, (bad & -bad).bit_length() - 1))
                rows[a] |= missing
                changed = True
        stable = False
        while not stable:
            stable = True
            for a in range(n):
                row = rows[a]
                acc = row
                r = row
                while r:
                    b = (r & -r).bit_length() - 1
                    acc |= rows[b]
                    r &= r - 1
                new = acc & ~row
                if new:
                    if new & forbidden[a]:
                        bad = new & forbidden[a]
                        return clash((a, (bad & -bad).bit_length() - 1))
                    rows[a] = acc
                    stable = False
                    changed = True
        committed = [
            (x, y)
            for x in range(n)
            for y in range(n)
            if rows[x] >> y & 1 and forbidden[y] >> x & 1
        ]
        for x, y in committed:
            for sup in submasks(full & ~x):
                x2 = x | sup
                for y2 in submasks(y):
                    if rows[x2] >> y2 & 1 and forbidden[y2] >> x2 & 1:
                        continue
                    pair = _commit(rows, forbidden, x2, y2)
                    if pair is not None:
                        return clash(pair)
                    changed = True
        strict = set(committed)
        for a, b, c in _triple_masks(full):
            if (a | b, c) in strict and (a | c, b) in strict:
                if (a, b | c) in strict:
                    continue
                pair = _commit(rows, forbidden, a, b | c)
                if pair is not None:
                    return clash(pair)
                changed = True
    return ConstrainedRelation(space, tuple(rows), tuple(forbidden))


def commit_strict(cr: ConstrainedRelation, a: Event, b: Event
                  ) -> Union[ConstrainedRelation, Contradiction]:
    """One strict commitment followed by a full closure."""
    rows = list(cr.rows)
    forbidden = list(cr.forbidden)
    pair = _commit(rows, forbidden, a.bits, b.bits)
    if pair is not None:
        return Contradiction((Event(cr.space, pair[0]), Event(cr.space, pair[1])))
    return ac_close(ConstrainedRelation(cr.space, tuple(rows), tuple(forbidden)))


@dataclass(frozen=True)
class Family:
    space: StateSpace
    members: tuple[ConfidenceRelation, ...]


def _equivalence_pairs(rows) -> frozenset:
    n = len(rows)
    return frozenset(
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rows[a] >> b & 1 and rows[b] >> a & 1
    )


def _first_incomparable(rows) -> Optional[tuple[int, int]]:
    n = len(rows)
    for a in range(n):
        for b in range(n):
            if not (rows[a] >> b & 1 or rows[b] >> a & 1):
                return (a, b)
    return None


def decompose(rel: ConfidenceRelation, mode: str = "all",
              max_states: int = DECOMPOSE_MAX) -> Family:
    """Every way of completing the relation by orienting incomparable
    pairs, one commitment at a time, closing after each.

    The result is deduplicated and sorted. Members are re-verified:
    complete, still an acceptance preorder, and no equivalences beyond the
    original's.
    """
    if mode not in ("all", "maximal"):
        raise ValueError(f"unknown mode {mode!r}")
    if rel.space.n > max_states:
        raise TooLarge(f"decomposition is capped at {max_states} states")
    verdicts = is_acceptance_preorder(rel)
    if not all(v.holds for v in verdicts):
        raise NotAcceptance(verdicts)

    space = rel.space
    root = ac_close(constrain(rel))
    if isinstance(root, Contradiction):
        raise AssertionError(f"closure of an acceptance preorder clashed: {root}")

    def explore(state: ConstrainedRelation) -> list[tuple[int, ...]]:
        pick = _first_incomparable(state.rows)
        if pick is None:
            return [state.rows]
        a, b = pick
        leaves = []
        for x, y in ((a, b), (b, a)):
            branch = commit_strict(state, Event(space, x), Event(space, y))
            if isinstance(branch, Contradiction):
                continue
            leaves.extend(explore(branch))
        return leaves

    members = sorted(set(explore(root)))
    base_equiv = _equivalence_pairs(rel.rows)
    relations = []
    for rows in members:
        member = ConfidenceRelation(space, rows)
        if not all(v.holds for v in is_acceptance_preorder(member)):
            raise AssertionError("completion lost the acceptance axioms")
        if not member.is_complete():
            raise AssertionError("decomposition leaf is not complete")
        if _equivalence_pairs(rows) != base_equiv:
            raise AssertionError("completion changed the equivalences")
        relations.append(member)

    if mode == "maximal":
        stricts = [
            {(a, b) for a in range(space.size) for b in range(space.size)
             if m.s(a, b)}
            for m in relations
        ]
        keep = [
            i
            for i, si in enumerate(stricts)
            if not any(j != i and sj > si for j, sj in enumerate(stricts))
        ]
        relations = [relations[i] for i in keep]
    return Family(space, tuple(relations))


def recompose(family: Family) -> ConfidenceRelation:
    """Pointwise intersection of the members' weak matrices."""
    if not family.members:
        raise ValueError("cannot recompose an empty family")
    space = family.space
    equivs = [_equivalence_pairs(m.rows) for m in family.members]
    for i in range(1, len(equivs)):
        if equivs[i] != equivs[0]:
            diff = sorted(equivs[i] ^ equivs[0])[0]
            pair = (Event(space, diff[0]), Event(space, diff[1]))
            raise SharedEquivalenceViolated(pair, (0, i))
    rows = list(family.members[0].rows)
    for member in family.members[1:]:
        for a in range(space.size):
            rows[a] &= member.rows[a]
    result = ConfidenceRelation(space, tuple(rows))
    verdicts = is_acceptance_preorder(result)
    if not all(v.holds for v in verdicts):
        raise NotAcceptance(verdicts)
    return result
