"""Completing partial acceptance preorders into families of complete ones.

A constrained relation carries the usual weak matrix plus a matrix of
forbidden weak edges; forbidding the reverse edge of a weak one is what
makes a strict preference a durable commitment that closure steps can
build on. Closing works on bit rows in passes: transitivity on the weak
rows, orientation growth (O) on the committed strict pairs by shift-or
passes over the subset lattice, and the acceptance axiom, which commits
all c per disjoint (a, b) by shift masks rather than one disjoint triple
at a time, until a pass changes nothing. A pass that leaves an edge both
weak and forbidden yields a Contradiction value carrying that pair.

Decomposition branches on the first incomparable pair, committing each
orientation in turn and discarding contradictory branches; surviving
complete leaves form the family. Recomposition intersects the members'
weak matrices, which is sound when all members agree on equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import DECOMPOSE_MAX, Event, StateSpace
from .errors import NotAcceptance, SharedEquivalenceViolated, TooLarge
from .relations import (ConfidenceRelation, _ac_steps, _first_incomparable,
                        _grow_orientation, _inclusion_rows, _strict_parts,
                        _transitive_close, _transpose, is_acceptance_preorder)


@dataclass(frozen=True)
class Contradiction:
    """pair is (A, B) for an edge A >= B both weak and forbidden: from
    ac_close the first in bitmask order when the closing pass ends, from
    commit_strict's own commitment the edge it would put on both sides."""

    pair: tuple[Event, Event]


@dataclass(frozen=True)
class ConstrainedRelation:
    space: StateSpace
    rows: tuple[int, ...]
    forbidden: tuple[int, ...]

    def __post_init__(self):
        if any(r & f for r, f in zip(self.rows, self.forbidden)):
            raise ValueError("a weak edge cannot also be forbidden")

    def committed_strict(self, x: int, y: int) -> bool:
        return bool(self.rows[x] >> y & 1) and bool(self.forbidden[y] >> x & 1)


def constrain(rel: ConfidenceRelation) -> ConstrainedRelation:
    """Wrap a relation, committing every strict preference it already has."""
    # a > b forbids b >= a: forbidden[b] is the column of strict edges into b
    _, above = _strict_parts(rel.rows)
    return ConstrainedRelation(rel.space, rel.rows, tuple(above))


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
    strict pairs, and the acceptance axiom; fixpoint or Contradiction.

    The inclusion edges (monotony) go in once. Each pass then closes the
    weak rows under transitivity, grows the committed part of forbidden
    (bit x of forbidden[y] with x >= y weak: x > y) under O, and commits
    a > b|c for each disjoint (a, b), all c at once: every c disjoint
    from both with a|b > c and a|c > b committed, read from the committed
    matrix (above) and its transpose (strict) as _ac_steps reaches them.
    Commits for different c of one (a, b) never enable each other, so
    this leaves the state that committing triple by triple would.
    Passes repeat until nothing changes; one clash check ends each pass.
    """
    space = cr.space
    inclusion = _inclusion_rows(space.n)
    rows = [r | i for r, i in zip(cr.rows, inclusion)]
    forbidden = list(cr.forbidden)
    before = None
    while rows + forbidden != before:
        before = rows + forbidden
        _transitive_close(rows)
        # O grows only the forbidden reverse edges: the weak edge under
        # a grown x' > y' follows from monotony and transitivity
        above = [f & w for f, w in zip(forbidden, _transpose(rows))]
        _grow_orientation(above, inclusion)
        forbidden = [f | c for f, c in zip(forbidden, above)]
        strict = _transpose(above)
        for a, b, cs in _ac_steps(strict, above, inclusion):
            # each c is disjoint from b, so bit b|c of row a is bit c of
            # cs << b
            rows[a] |= cs << b
            strict[a] |= cs << b
            while cs:
                c = (cs & -cs).bit_length() - 1
                forbidden[b | c] |= 1 << a
                above[b | c] |= 1 << a
                cs &= cs - 1
        for a, row in enumerate(rows):
            bad = row & forbidden[a]
            if bad:
                b = (bad & -bad).bit_length() - 1
                return Contradiction((Event(space, a), Event(space, b)))
    return ConstrainedRelation(space, tuple(rows), tuple(forbidden))


def commit_strict(cr: ConstrainedRelation, a: Event, b: Event
                  ) -> Union[ConstrainedRelation, Contradiction]:
    """One strict commitment followed by a full closure."""
    rows, forbidden = list(cr.rows), list(cr.forbidden)
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


def decompose(rel: ConfidenceRelation, mode: str = "all",
              max_states: int = DECOMPOSE_MAX) -> Family:
    """Every way of completing the relation by orienting incomparable
    pairs, one commitment at a time, closing after each.

    The result is deduplicated and sorted. Members are re-verified:
    complete, still an acceptance preorder, and no equivalences beyond the
    original's.

    mode "maximal" keeps the members whose strict part no other member's
    properly contains. That is every member: all are complete with the
    original's equivalences, so all have the same number of strict pairs,
    and "maximal" returns the same family as "all".
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
