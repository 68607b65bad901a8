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

from dataclasses import dataclass, field
from functools import cached_property
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
    pairs = set()
    for cond in conditionals:
        pairs.add(cond.pair() if isinstance(cond, Conditional) else tuple(cond))
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


def _partners(name: str, p: Pair, ordered, by_context) -> Sequence[Pair]:
    """The pairs q, in the order of `ordered`, that binary rule `name` can
    join with p: CAND and CM need q in p's context, CUT needs q's context
    to be p's supporting side. OR has no such key and scans them all.
    `by_context` is `_context_index(ordered)`.
    """
    if name == "OR":
        return ordered
    return by_context.get(p[0] if name == "CUT" else p[0] | p[1], ())


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
    premises as a whole-snapshot round would give them. The joins read a
    by-context index of the snapshot and of the new pairs (see
    `_partners`); OR, which has no key, scans new x all.
    """
    if base.closed:
        return base
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
        fresh: dict[Pair, Provenance] = {}
        for name, rule in _BINARY_RULES:
            for p in snapshot:
                if p in new:
                    partners = _partners(name, p, snapshot, by_context)
                else:
                    partners = _partners(name, p, delta, delta_by_context)
                for q in partners:
                    candidate = rule(p, q)
                    if (candidate is not None and candidate not in pairs
                            and candidate not in fresh):
                        fresh[candidate] = Provenance(name, (p, q))
        for p in delta:
            for candidate in rule_rw(p):
                if candidate not in pairs and candidate not in fresh:
                    fresh[candidate] = Provenance("RW", (p,))
        if not fresh:
            break
        for candidate, prov in fresh.items():
            pairs[candidate] = prov
            if candidate[0] == 0:
                bad = candidate
                break
        new = fresh.keys()
    return ConditionalBase(
        base.space,
        tuple(sorted(pairs)),
        closed=True,
        consistent=bad is None,
        contradiction=bad,
        provenance=pairs,
    )


def entails(base: ConditionalBase, query: Conditional) -> bool:
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
    by_context = _context_index(ordered)
    for p in ordered:
        for q in _partners(name, p, ordered, by_context):
            conclusion = rule(p, q)
            if conclusion is not None and conclusion not in members:
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
