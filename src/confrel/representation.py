"""Completing partial acceptance preorders into families of complete ones.

A constrained relation carries the usual weak matrix plus a matrix of
forbidden weak edges; forbidding the reverse edge of a weak one is what
makes a strict preference a durable commitment that closure steps can
build on. One closure engine, _close, works on a state that is closed
except for a list of seed commitments, and whose only forbidden edges
are the reverses of its committed pairs. It draws only what each new
strict pair adds: one transitive step on the weak rows, the pair's
orientation (O) rectangle, and a rescan of the acceptance axiom on just
the strict rows that grew, whose commits seed the next round. One scan
for an edge both weak and forbidden ends it; such an edge yields a
Contradiction value carrying that pair. ac_close runs the engine in
passes, each seeded with the weak edges whose reverse its input forbids
and that are not committed yet, until a pass finds none.

Decomposition needs no closure to start: an acceptance preorder is
already closed, its strict part committed (T and MI give O, and Ac
holds). It branches on the first incomparable pair, committing each
orientation in turn with the engine seeded by that commitment alone,
and discarding contradictory branches; surviving complete leaves form
the family. Each member is re-verified (T, MI, Ac, completeness, the
equivalences) with one transpose, its cols, which recompose reads again.
Recomposition intersects the members' weak matrices, which is sound when
all members agree on equivalences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .core import (DECOMPOSE_MAX, Event, StateSpace, _bits_of, _first_pair,
                   submasks)
from .errors import (NotAcceptance, SharedEquivalenceViolated, SpaceMismatch,
                     TooLarge)
from .relations import (ConfidenceRelation, _first_incomparable,
                        _strict_parts, _transitive_close, _transpose,
                        is_acceptance_preorder)


@dataclass(frozen=True)
class Contradiction:
    """pair is (A, B) for an edge A >= B both weak and forbidden: from
    ac_close the first in bitmask order at the closure's fixpoint, the
    least state closed under its rules in whatever order they ran; from
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
    _, above = _strict_parts(rel.rows, rel.cols)
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


def _close(state, seeds, inclusion) -> Optional[tuple[int, int]]:
    """Close a state that is closed except for the seed strict pairs, in
    place; return the first edge (a, b) in bitmask order that is both
    weak and forbidden at the fixpoint, or None.

    state is (rows, cols, strict, above): weak rows holding monotony and
    closed under transitivity, and their transpose; the committed pairs
    by row (bit b of strict[a]: a > b) and by column (bit a of above[b]),
    each forbidden in reverse, and no other edge forbidden.

    Each new pair x > y goes weak with one transitive step (every row
    holding x gains rows[y]) and is committed with its O rectangle,
    every superset of x over every subset of y, one row OR per subset
    and per superset. An Ac triple (a, b, c) can only become live when
    the later of its premises a|b > c and a|c > b arrives, and the two
    differ only by swapping b and c, so a round rescans just the strict
    rows r that grew: each a within r against the new bits c outside r,
    committing a > b|c for b = r ^ a wherever a|c > b. Those commits seed
    the next round; the closure ends when a round commits nothing.
    """
    rows, cols, strict, above = state
    full = len(rows) - 1
    while seeds:
        grown = {}
        for x, y in seeds:
            if not rows[x] >> y & 1:
                reach, add = cols[x], rows[y]
                for r in _bits_of(reach):
                    rows[r] |= add
                for s in _bits_of(add):
                    cols[s] |= reach
            if strict[x] >> y & 1:
                continue
            up = inclusion[full ^ x] << x
            for y2 in submasks(y):
                above[y2] |= up
            down = inclusion[y]
            for s in submasks(full ^ x):
                new = down & ~strict[x | s]
                if new:
                    strict[x | s] |= new
                    grown[x | s] = grown.get(x | s, 0) | new
        seeds = []
        for r, new in grown.items():
            new &= inclusion[full ^ r]
            if new:
                for a in submasks(r):
                    b = r ^ a
                    # bit c of above[b] >> a is a|c > b, of strict[a] >> b
                    # a > b|c
                    cs = new & above[b] >> a & ~(strict[a] >> b)
                    seeds.extend((a, b | c) for c in _bits_of(cs))
    return _first_pair(row & f for row, f in zip(rows, above))


def ac_close(cr: ConstrainedRelation) -> Union[ConstrainedRelation, Contradiction]:
    """Close under monotony, transitivity, orientation growth for committed
    strict pairs, and the acceptance axiom; fixpoint or Contradiction.

    A committed pair is a weak edge x >= y whose reverse is forbidden.
    The inclusion edges (monotony) go in with one transitive closure.
    Then each pass seeds _close with the committed pairs it has not yet
    committed, from a state with no strict pairs at first: a forbidden
    edge whose reverse is not weak yet waits for a later pass, and the
    passes end when one finds no such pair. That is the least state
    closed under all four rules. The Contradiction carries the first
    edge in bitmask order that is both weak and forbidden in it.
    """
    space = cr.space
    inclusion = space.inclusion
    rows = [r | i for r, i in zip(cr.rows, inclusion)]
    _transitive_close(rows)
    strict, above = [0] * space.size, [0] * space.size
    state = (rows, _transpose(rows), strict, above)
    # bit x of reverse[y]: x >= y has its reverse forbidden
    reverse = _transpose(cr.forbidden)
    while True:
        # a pair comes before the pairs its O rectangle covers, which
        # have a larger x or a smaller y
        seeds = [(x, y) for x, (row, rev, done)
                 in enumerate(zip(rows, reverse, strict))
                 for y in sorted(_bits_of(row & rev & ~done), reverse=True)]
        if not seeds:
            break
        _close(state, seeds, inclusion)
    forbidden = tuple(f | a for f, a in zip(cr.forbidden, above))
    clash = _first_pair(row & f for row, f in zip(rows, forbidden))
    if clash is not None:
        return Contradiction((Event(space, clash[0]), Event(space, clash[1])))
    return ConstrainedRelation(space, tuple(rows), forbidden)


def commit_strict(cr: ConstrainedRelation, a: Event, b: Event
                  ) -> Union[ConstrainedRelation, Contradiction]:
    """One strict commitment followed by a full closure."""
    if a.space != cr.space or b.space != cr.space:
        raise SpaceMismatch("event from another state space than the relation")
    rows, forbidden = list(cr.rows), list(cr.forbidden)
    pair = _commit(rows, forbidden, a.bits, b.bits)
    if pair is not None:
        return Contradiction((Event(cr.space, pair[0]), Event(cr.space, pair[1])))
    return ac_close(ConstrainedRelation(cr.space, tuple(rows), tuple(forbidden)))


@dataclass(frozen=True)
class Family:
    space: StateSpace
    members: tuple[ConfidenceRelation, ...]

    def __post_init__(self):
        if any(member.space != self.space for member in self.members):
            raise SpaceMismatch("family member from another state space")


def _equivalences(rel: ConfidenceRelation) -> tuple[int, ...]:
    """Bit b of row a: a and b are equivalent."""
    return tuple(r & c for r, c in zip(rel.rows, rel.cols))


def decompose(rel: ConfidenceRelation,
              max_states: int = DECOMPOSE_MAX) -> Family:
    """Every way of completing the relation by orienting incomparable
    pairs, one commitment at a time, closing after each.

    The search starts from the relation itself: T and MI give its strict
    part O (a2 >= a > b >= b2 gives a2 > b2) and Ac holds, so closing it
    would add nothing. The result is deduplicated and sorted. Members are
    re-verified: complete, still an acceptance preorder, and no
    equivalences beyond the original's.
    """
    if rel.space.n > max_states:
        raise TooLarge(f"decomposition is capped at {max_states} states")
    verdicts = is_acceptance_preorder(rel)
    if not all(v.holds for v in verdicts):
        raise NotAcceptance(verdicts)

    space = rel.space
    # every forbidden edge of a closed decomposition state is committed,
    # so a state is its weak rows, their transpose, and the strict part
    # by row and by column; branches copy it before they change it
    leaves = set()
    todo = [(rel.rows, rel.cols, *_strict_parts(rel.rows, rel.cols))]
    while todo:
        state = todo.pop()
        pick = _first_incomparable(state[0], state[1])
        if pick is None:
            leaves.add(tuple(state[0]))
            continue
        a, b = pick
        for seed in ((a, b), (b, a)):
            branch = tuple(list(part) for part in state)
            if _close(branch, [seed], space.inclusion) is None:
                todo.append(branch)

    base_equiv = _equivalences(rel)
    relations = []
    for rows in sorted(leaves):
        member = ConfidenceRelation(space, rows)
        if not all(v.holds for v in is_acceptance_preorder(member)):
            raise AssertionError("completion lost the acceptance axioms")
        if not member.is_complete():
            raise AssertionError("decomposition leaf is not complete")
        if _equivalences(member) != base_equiv:
            raise AssertionError("completion changed the equivalences")
        relations.append(member)
    return Family(space, tuple(relations))


def recompose(family: Family) -> ConfidenceRelation:
    """Pointwise intersection of the members' weak matrices."""
    if not family.members:
        raise ValueError("cannot recompose an empty family")
    space = family.space
    first = _equivalences(family.members[0])
    for i, member in enumerate(family.members[1:], 1):
        mine = _equivalences(member)
        if mine != first:
            # the first (a, b), a != b, on which member i and member 0
            # differ; the rows are symmetric, so a < b. Members that
            # differ only on the diagonal are not reflexive, which the
            # acceptance check below reports
            pair = _first_pair((row ^ row0) & ~(1 << a)
                               for a, (row, row0) in enumerate(zip(mine, first)))
            if pair:
                raise SharedEquivalenceViolated(
                    (Event(space, pair[0]), Event(space, pair[1])), (0, i))
    rows = list(family.members[0].rows)
    for member in family.members[1:]:
        for a in range(space.size):
            rows[a] &= member.rows[a]
    result = ConfidenceRelation(space, tuple(rows))
    verdicts = is_acceptance_preorder(result)
    if not all(v.holds for v in verdicts):
        raise NotAcceptance(verdicts)
    return result
