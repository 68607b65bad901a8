"""Conditional knowledge bases and their preferential closure.

A conditional "if phi then normally psi" is stored extensionally as a
disjoint pair of events: the worlds of the context where the consequent
holds, and those where it fails. Closing a base applies the five pair
rules below to a fixpoint; every derived pair remembers its rule and
premises so a derivation chain can be replayed. Deriving a pair whose
supporting side is empty is a consistency violation and stops the
closure immediately.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterator, Optional, Sequence

from .core import Event, StateSpace, submasks
from .errors import EmptyAntecedent, ReflexiveAssertion, SpaceMismatch
from .relations import ConfidenceRelation, Verdict

Pair = tuple[int, int]


@dataclass(frozen=True)
class Conditional:
    supporting: Event
    violating: Event

    def __post_init__(self):
        if self.supporting.space != self.violating.space:
            raise SpaceMismatch("conditional halves from different spaces")
        if self.supporting.bits & self.violating.bits:
            raise ValueError("conditional halves must be disjoint")

    @property
    def context(self) -> Event:
        return Event(
            self.supporting.space, self.supporting.bits | self.violating.bits
        )

    def pair(self) -> Pair:
        return (self.supporting.bits, self.violating.bits)


def conditional_from_formulas(universe, antecedent: str, consequent: str,
                              allow_trivial: bool = False) -> Conditional:
    """Normalize two formulas into a disjoint event pair over the universe.

    The antecedent must have at least one model. Assertions the context
    already entails carry no information and are rejected unless
    explicitly allowed.
    """
    ante = universe.models(universe.parse(antecedent))
    cons = universe.models(universe.parse(consequent))
    ctx = ante.bits
    if ctx == 0:
        raise EmptyAntecedent(f"antecedent {antecedent!r} has no models")
    supporting = ctx & cons.bits
    violating = ctx & ~cons.bits
    if violating == 0 and not allow_trivial:
        raise ReflexiveAssertion(
            f"{antecedent!r} already entails {consequent!r}; nothing is asserted"
        )
    space = ante.space
    return Conditional(Event(space, supporting), Event(space, violating))


@dataclass(frozen=True)
class Provenance:
    rule: str
    premises: tuple[Pair, ...]


@dataclass(frozen=True)
class ConditionalBase:
    space: StateSpace
    pairs: tuple[Pair, ...]
    closed: bool = False
    consistent: bool = True
    contradiction: Optional[Pair] = None
    provenance: Optional[dict] = field(default=None, compare=False)

    @cached_property
    def member_set(self) -> frozenset[Pair]:
        """The pairs as a set, built on first use."""
        return frozenset(self.pairs)

    def __contains__(self, item) -> bool:
        key = item.pair() if isinstance(item, Conditional) else tuple(item)
        return key in self.member_set

    def conditionals(self) -> Iterator[Conditional]:
        for e, f in self.pairs:
            yield Conditional(Event(self.space, e), Event(self.space, f))

    def derivation(self, pair: Pair) -> list[tuple[Pair, Provenance]]:
        """Premise-first replay of how the pair was obtained."""
        if self.provenance is None or pair not in self.provenance:
            raise KeyError(f"no derivation recorded for {pair}")
        steps: list[tuple[Pair, Provenance]] = []
        seen: set[Pair] = set()

        def walk(p: Pair) -> None:
            if p in seen:
                return
            seen.add(p)
            prov = self.provenance[p]
            for parent in prov.premises:
                walk(parent)
            steps.append((p, prov))

        walk(pair)
        return steps


def make_base(space: StateSpace, conditionals) -> ConditionalBase:
    """The base of the given conditionals or raw (supporting, violating)
    mask pairs. A conditional must be over `space`, a raw pair two
    disjoint masks of it: the closure reads every mask state by state."""
    full = space.full_mask
    pairs = set()
    for cond in conditionals:
        if isinstance(cond, Conditional):
            if cond.supporting.space != space:
                raise SpaceMismatch("conditional from another state space")
            pairs.add(cond.pair())
            continue
        pair = tuple(cond)
        if not (len(pair) == 2
                and all(isinstance(m, int) and 0 <= m <= full for m in pair)
                and not pair[0] & pair[1]):
            raise ValueError(f"{cond!r} is not a pair of disjoint masks "
                             f"in 0..{full}")
        pairs.add(pair)
    return ConditionalBase(space, tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# the five closure rules, in pair form

def rule_cand(p: Pair, q: Pair) -> Optional[Pair]:
    if p[0] | p[1] != q[0] | q[1]:
        return None
    return (p[0] & q[0], p[1] | q[1])


def rule_or(p: Pair, q: Pair) -> Optional[Pair]:
    if p[0] & q[1] or q[0] & p[1]:
        return None
    return (p[0] | q[0], p[1] | q[1])


def rule_rw(p: Pair) -> Iterator[Pair]:
    for x in submasks(p[1]):
        if x:
            yield (p[0] | x, p[1] & ~x)


def rule_cm(p: Pair, q: Pair) -> Optional[Pair]:
    if p[0] | p[1] != q[0] | q[1]:
        return None
    return (p[0] & q[0], p[0] & q[1])


def rule_cut(p: Pair, q: Pair) -> Optional[Pair]:
    if q[0] | q[1] != p[0]:
        return None
    return (q[0], p[1] | q[1])


_BINARY_RULES = (("CAND", rule_cand), ("OR", rule_or), ("CM", rule_cm),
                 ("CUT", rule_cut))


def _context_index(ordered) -> dict[int, list[Pair]]:
    """Pairs keyed by their context p0|p1, each bucket kept in the order
    of `ordered`."""
    index: dict[int, list[Pair]] = {}
    for p in ordered:
        index.setdefault(p[0] | p[1], []).append(p)
    return index


def _partners(name: str, p: Pair, by_context) -> Sequence[Pair]:
    """The pairs q, in the order of the index, that binary rule `name` can
    join with p: CAND and CM need q in p's context, CUT needs q's context
    to be p's supporting side. CAND is symmetric, so it takes only the q
    after p in its bucket (see `_or_joins`). `by_context` is a
    `_context_index` of a sorted list.
    """
    if name == "CUT":
        return by_context.get(p[0], ())
    bucket = by_context.get(p[0] | p[1], ())
    if name == "CAND":
        return bucket[bisect_right(bucket, p):]
    return bucket


def _keyed_joins(name, rule, known, ordered, by_context, new,
                 new_by_context) -> Iterator[tuple[Pair, Pair, Pair]]:
    """(p, q, conclusion) of CAND, CM or CUT with a conclusion not in
    `known` at the time it is found: p over `ordered`, q over its
    `_partners`, and p or q in `new`, whose own index is
    `new_by_context`."""
    for p in ordered:
        index = by_context if p in new else new_by_context
        for q in _partners(name, p, index):
            conclusion = rule(p, q)
            if conclusion is not None and conclusion not in known:
                yield p, q, conclusion


def _or_joins(known, ordered, n: int,
              new) -> Iterator[tuple[Pair, Pair, Pair]]:
    """(p, q, rule_or(p, q)) with a conclusion not in `known` at the time
    it is found: p over `ordered`, q after p in `ordered`, compatible with
    p and not containing p half by half, and p or q in `new`. Every mask
    must lie in n states.

    OR is symmetric and so is the set of (p, q) a scan visits, so the
    first (p, q) in p-major, q-ascending order to give a conclusion has q
    after p (q = p gives p back). A q with q0 >= p0 and q1 >= p1 gives q
    back. Dropping the rest leaves the first producer of every new
    conclusion as a scan of all (p, q) finds it.

    Bit i of sup[s] (vio[s]) is set when state s lies in the supporting
    (violating) side of ordered[i]. The q that clash with p are the OR of
    vio over p0 and of sup over p1; those that contain p are the AND of
    sup over p0 and of vio over p1. Both are found once per distinct side.
    """
    by_sup: dict[int, int] = {}
    by_vio: dict[int, int] = {}
    fresh = 0
    for i, (e, f) in enumerate(ordered):
        bit = 1 << i
        by_sup[e] = by_sup.get(e, 0) | bit
        by_vio[f] = by_vio.get(f, 0) | bit
        if (e, f) in new:
            fresh |= bit
    sup = _by_state(by_sup, n)
    vio = _by_state(by_vio, n)
    sup_side = {e: _side_masks(e, vio, sup, n) for e in by_sup}
    vio_side = {f: _side_masks(f, sup, vio, n) for f in by_vio}
    everything = (1 << len(ordered)) - 1
    for i, p in enumerate(ordered):
        pool = everything if fresh >> i & 1 else fresh
        later = pool >> (i + 1) << (i + 1)
        if not later:
            continue
        e, f = p
        clash0, covering0 = sup_side[e]
        clash1, covering1 = vio_side[f]
        left = later & ~(clash0 | clash1 | covering0 & covering1)
        while left:
            low = left & -left
            q = ordered[low.bit_length() - 1]
            conclusion = (e | q[0], f | q[1])
            if conclusion not in known:
                yield p, q, conclusion
            left ^= low


def _by_state(by_side: dict[int, int], n: int) -> list[int]:
    """Per state s, the OR of the position sets of the sides holding s."""
    out = [0] * n
    for side, positions in by_side.items():
        for s in range(n):
            if side >> s & 1:
                out[s] |= positions
    return out


def _side_masks(side: int, other: list[int], same: list[int],
                n: int) -> tuple[int, int]:
    """The positions whose other half meets `side`, and those whose same
    half contains it."""
    clash = 0
    covering = -1
    for s in range(n):
        if side >> s & 1:
            clash |= other[s]
            covering &= same[s]
    return clash, covering


def close_p(base: ConditionalBase) -> ConditionalBase:
    """Least fixpoint of the five rules, with provenance.

    Deterministic: each round fires CAND, OR, CM, CUT and then RW, with p
    ascending over a sorted snapshot of the pairs and q ascending among
    its join partners, and the first derivation of a pair is the one
    recorded. A pair with empty supporting side marks the base
    inconsistent and ends the closure; the pairs derived so far are kept.

    Rounds are semi-naive: a binary rule joins only (p, q) with p or q new
    in the last round, and RW runs on new pairs only. Every conclusion of
    two older pairs was derived in an earlier round, so skipping them
    leaves each round's new pairs, their order and their recorded
    premises as a whole-snapshot round would give them. CAND, CM and CUT
    read a by-context index of the snapshot and of the new pairs (see
    `_partners`). OR and CAND are symmetric, so they join p only with the
    q after it, and OR reads per-state bitsets that drop the q which clash
    with p or contain it (see `_or_joins`): neither skip changes the first
    producer of a new pair.

    The joins read only the snapshot, so a round's new pairs enter the
    table as they are found and the joins pass over a conclusion already
    there. When the round has found a pair with empty supporting side,
    the pairs found after it are taken out again.
    """
    if base.closed:
        return base
    n = base.space.n
    pairs: dict[Pair, Provenance] = {}
    bad: Optional[Pair] = None
    for p in base.pairs:
        pairs[p] = Provenance("given", ())
        if p[0] == 0 and bad is None:
            bad = p
    new = set(pairs)
    while bad is None:
        snapshot = sorted(pairs)
        by_context = _context_index(snapshot)
        delta = sorted(new)
        delta_by_context = _context_index(delta)
        start = len(pairs)
        for name, rule in _BINARY_RULES:
            if name == "OR":
                joins = _or_joins(pairs, snapshot, n, new)
            else:
                joins = _keyed_joins(name, rule, pairs, snapshot, by_context,
                                     new, delta_by_context)
            for p, q, candidate in joins:
                pairs[candidate] = Provenance(name, (p, q))
        for p in delta:
            for candidate in rule_rw(p):
                if candidate not in pairs:
                    pairs[candidate] = Provenance("RW", (p,))
        fresh = list(islice(pairs, start, None))
        if not fresh:
            break
        for i, candidate in enumerate(fresh):
            if candidate[0] == 0:
                bad = candidate
                for later in fresh[i + 1:]:
                    del pairs[later]
                break
        new = set(fresh)
    return ConditionalBase(
        base.space,
        tuple(sorted(pairs)),
        closed=True,
        consistent=bad is None,
        contradiction=bad,
        provenance=pairs,
    )


def entails(base: ConditionalBase, query: Conditional) -> bool:
    if query.supporting.space != base.space:
        raise SpaceMismatch("query from another state space than the base")
    if query.context.bits == 0:
        raise EmptyAntecedent("query antecedent has no models")
    closed = base if base.closed else close_p(base)
    return query.pair() in closed.member_set


# ---------------------------------------------------------------------------
# round trips between bases and relations

def strict_disjoint_pairs(rel: ConfidenceRelation) -> set[Pair]:
    out = set()
    full = rel.space.full_mask
    for a in range(rel.space.size):
        for b in submasks(full & ~a):
            if rel.s(a, b):
                out.add((a, b))
    return out


def _pair_events(space, *pairs) -> tuple:
    return tuple(
        (Event(space, e), Event(space, f)) for e, f in pairs
    )


def _first(name: str, witnesses) -> Verdict:
    """Verdict on the first witness the generator yields, if any."""
    witness = next(witnesses, None)
    return Verdict(name, witness is None, witness)


def _unclosed(space, members, ordered, name, rule) -> Iterator[tuple]:
    """Witnesses (p, q, conclusion) of binary rule `name` over `ordered`
    whose conclusion is not in `members`. The first is the one a scan of
    all (p, q), p-major and q ascending, finds first: with every pair
    new, the joins visit each (p, q) that scan visits."""
    if name == "OR":
        joins = _or_joins(members, ordered, space.n, members)
    else:
        index = _context_index(ordered)
        joins = _keyed_joins(name, rule, members, ordered, index, members,
                             index)
    for p, q, conclusion in joins:
        yield _pair_events(space, p, q, conclusion)


def _empty_support(space, ordered) -> Iterator[tuple]:
    return (_pair_events(space, (e, f)) for e, f in ordered if e == 0)


def roundtrip_kb(base: ConditionalBase) -> dict[str, Verdict]:
    """Check that a closed base's pairs form a strict acceptance order on
    disjoint events.

    Ordering instances that would leave the asserting context cannot be
    expressed by any conditional base, so the O check quantifies within
    each pair's own context: the supporting side may absorb part of the
    violating side and the rest may shrink. Transitivity and the
    acceptance axiom are checked on pair membership directly.
    """
    closed = base if base.closed else close_p(base)
    space = closed.space
    members = closed.member_set
    ordered = sorted(members)
    by_support: dict[int, list[Pair]] = {}
    for p in ordered:
        by_support.setdefault(p[0], []).append(p)

    return {
        "IR": _first("IR", (
            _pair_events(space, (e, f)) for e, f in ordered if e == f)),
        "T": _first("T", (
            _pair_events(space, (a, b), (b, c), (a, c))
            for a, b in ordered
            for _, c in by_support.get(b, ())
            if a & c == 0 and (a, c) not in members)),
        "O": _first("O", (
            _pair_events(space, (a, b), (a | x, b2))
            for a, b in ordered
            for x in submasks(b)
            for b2 in submasks(b & ~x)
            if (a | x, b2) not in members)),
        "Ac": _first("Ac", _unclosed(space, members, ordered, "CAND",
                                     rule_cand)),
        "CP": _first("CP", _empty_support(space, ordered)),
    }


def roundtrip_relation(rel: ConfidenceRelation) -> dict[str, Verdict]:
    """Check that the strict disjoint part of a relation is stable under
    the five closure rules and violates no consistency requirement."""
    space = rel.space
    members = strict_disjoint_pairs(rel)
    ordered = sorted(members)
    verdicts = {
        name: _first(name, _unclosed(space, members, ordered, name, rule))
        for name, rule in _BINARY_RULES
    }
    verdicts["RW"] = _first("RW", (
        _pair_events(space, p, conclusion)
        for p in ordered
        for conclusion in rule_rw(p)
        if conclusion not in members))
    verdicts["CP"] = _first("CP", _empty_support(space, ordered))
    return verdicts


def roundtrip_check(subject) -> dict[str, Verdict]:
    if isinstance(subject, ConditionalBase):
        return roundtrip_kb(subject)
    if isinstance(subject, ConfidenceRelation):
        return roundtrip_relation(subject)
    raise TypeError("expected a conditional base or a confidence relation")
