"""Explicit confidence relations over the powerset of a finite state space.

A relation is stored as one integer row per event: bit b of rows[a] says
event a is held at least as confident as event b. The strict part,
equivalence and incomparability all derive from the rows; nothing is
assumed at construction, axioms are checked on demand.

Axiom checkers scan events in increasing bitmask order and return the
first violating instance, so a failing Verdict is reproducible and can be
re-evaluated directly against the relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Optional

from .core import Event, StateSpace, _bits, _triple_masks, submasks
from .errors import SpaceMismatch, StrictAxiomViolation, TooLarge


@dataclass(frozen=True)
class Verdict:
    axiom: str
    holds: bool
    witness: Optional[tuple] = None
    detail: Optional[str] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class Kernel:
    """Accepted beliefs in a context, and their intersection."""

    context: Event
    accepted: tuple[Event, ...]
    kernel: Event
    flags: frozenset[str] = field(default_factory=frozenset)


@dataclass(frozen=True)
class ConfidenceRelation:
    space: StateSpace
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.space.size:
            raise ValueError("need one row per event")

    # raw-mask accessors used by the checkers
    def w(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def s(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1) and not self.rows[b] >> a & 1

    def e(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1) and bool(self.rows[b] >> a & 1)

    def weak(self, a: Event, b: Event) -> bool:
        self._check(a, b)
        return self.w(a.bits, b.bits)

    def strict(self, a: Event, b: Event) -> bool:
        self._check(a, b)
        return self.s(a.bits, b.bits)

    def equivalent(self, a: Event, b: Event) -> bool:
        self._check(a, b)
        return self.e(a.bits, b.bits)

    def incomparable(self, a: Event, b: Event) -> bool:
        self._check(a, b)
        return not self.w(a.bits, b.bits) and not self.w(b.bits, a.bits)

    def _check(self, a: Event, b: Event) -> None:
        if a.space != self.space or b.space != self.space:
            raise SpaceMismatch("event from a different space")

    def is_complete(self) -> bool:
        n = self.space.size
        return all(
            self.w(a, b) or self.w(b, a) for a in range(n) for b in range(a + 1, n)
        )

    def weak_pairs(self) -> Iterator[tuple[Event, Event]]:
        for a in range(self.space.size):
            row = self.rows[a]
            while row:
                b = (row & -row).bit_length() - 1
                yield Event(self.space, a), Event(self.space, b)
                row &= row - 1

    def dual(self) -> "ConfidenceRelation":
        full = self.space.full_mask
        n = self.space.size
        rows = []
        for a in range(n):
            row = 0
            for b in range(n):
                if self.w(full & ~b, full & ~a):
                    row |= 1 << b
            rows.append(row)
        return ConfidenceRelation(self.space, tuple(rows))

    def condition(self, c: Event) -> "ConfidenceRelation":
        self._check(c, c)
        cb = c.bits
        n = self.space.size
        rows = []
        for a in range(n):
            row = 0
            for b in range(n):
                if self.w(a & cb, b & cb):
                    row |= 1 << b
            rows.append(row)
        return ConfidenceRelation(self.space, tuple(rows))

    @classmethod
    def from_weak_pairs(cls, space: StateSpace, pairs) -> "ConfidenceRelation":
        rows = [0] * space.size
        for a, b in pairs:
            rows[_bits(a)] |= 1 << _bits(b)
        return cls(space, tuple(rows))


def _inclusion_rows(n: int) -> list[int]:
    """Weak rows of reverse inclusion over n states: bit b of row a is set
    iff b is a submask of a."""
    rows = [1]
    for a in range(1, 1 << n):
        # the submasks of a are those of a without its low bit, each
        # also taken with that bit added (index shifted up by low)
        low = a & -a
        rest = rows[a ^ low]
        rows.append(rest | rest << low)
    return rows


def _transpose(rows: list[int]) -> list[int]:
    """The bit matrix with bit a of row b set iff bit b of rows[a] is."""
    cols = [0] * len(rows)
    for a, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << a
            row ^= low
    return cols


def _transitive_close(rows: list[int]) -> None:
    """Transitive closure of bit rows, in place. Rows close in index
    order, so a row already closed brings all that it reaches at once."""
    for a in range(len(rows)):
        row = rows[a]
        done = 1 << a
        todo = row & ~done
        while todo:
            low = todo & -todo
            b = low.bit_length() - 1
            row |= rows[b]
            done |= low | rows[b] if b < a else low
            todo = row & ~done
        rows[a] = row


def _grow_orientation(strict: list[int], inclusion: list[int]) -> None:
    """O axiom in place on a strict matrix kept per right side (bit a of
    strict[b] means a > b): per state i, each row gains its left sides
    with i added (shift-or over the events lacking i, a row of the
    _inclusion_rows) and is ORed into the row of its right side minus i."""
    size = len(strict)
    bit = 1
    while bit < size:
        lacking = inclusion[(size - 1) ^ bit]
        for b in range(size):
            row = strict[b]
            if row:
                row |= (row & lacking) << bit
                strict[b] = row
                if b & bit:
                    strict[b ^ bit] |= row
        bit <<= 1


# ---------------------------------------------------------------------------
# axiom checkers

def _ev(space, *masks) -> tuple:
    return tuple(Event(space, m) for m in masks)


def _check_t(rel):
    n = rel.space.size
    rows = rel.rows
    for a in range(n):
        row_a = rows[a]
        row = row_a
        while row:
            b = (row & -row).bit_length() - 1
            row &= row - 1
            missing = rows[b] & ~row_a
            if missing:
                c = (missing & -missing).bit_length() - 1
                return Verdict("T", False, _ev(rel.space, a, b, c))
    return Verdict("T", True)


def _check_mi(rel):
    full = rel.space.full_mask
    for a in range(rel.space.size):
        for sub in submasks(full & ~a):
            b = a | sub
            if not rel.w(b, a):
                return Verdict("MI", False, _ev(rel.space, a, b))
    return Verdict("MI", True)


def _check_o(rel):
    full = rel.space.full_mask
    for a in range(rel.space.size):
        for sup in submasks(full & ~a):
            a2 = a | sup
            for b in range(rel.space.size):
                if not rel.s(a, b):
                    continue
                for b2 in submasks(b):
                    if not rel.s(a2, b2):
                        return Verdict("O", False, _ev(rel.space, a, a2, b, b2))
    return Verdict("O", True)


def _check_ir(rel):
    for a in range(rel.space.size):
        if rel.s(a, a):
            return Verdict("IR", False, _ev(rel.space, a))
    return Verdict("IR", True)


def _ac_like(rel, axiom, triples):
    for a, b, c in triples:
        if rel.s(a | b, c) and rel.s(a | c, b) and not rel.s(a, b | c):
            return Verdict(axiom, False, _ev(rel.space, a, b, c))
    return Verdict(axiom, True)


def _check_ac(rel):
    return _ac_like(rel, "Ac", _triple_masks(rel.space.full_mask))


def _check_qual(rel):
    n = rel.space.size
    return _ac_like(rel, "Qual", product(range(n), repeat=3))


def _check_cp(rel):
    for a in range(rel.space.size):
        if rel.s(0, a):
            return Verdict("CP", False, _ev(rel.space, a))
    return Verdict("CP", True)


def _check_cs(rel):
    full = rel.space.full_mask
    for a in range(rel.space.size):
        if not rel.s(a, full & ~a):
            continue
        for sup in submasks(full & ~a):
            b = a | sup
            if not rel.s(b, full & ~b):
                return Verdict("CS", False, _ev(rel.space, a, b))
    return Verdict("CS", True)


def _check_and(rel):
    full = rel.space.full_mask
    n = rel.space.size
    for a in range(n):
        if not rel.s(a, full & ~a):
            continue
        for b in range(n):
            if rel.s(b, full & ~b) and not rel.s(a & b, full & ~(a & b)):
                return Verdict("AND", False, _ev(rel.space, a, b))
    return Verdict("AND", True)


def _check_ccs(rel):
    full = rel.space.full_mask
    for c in range(rel.space.size):
        for a in range(rel.space.size):
            if not rel.s(a & c, (full & ~a) & c):
                continue
            for sup in submasks(full & ~a):
                b = a | sup
                if not rel.s(b & c, (full & ~b) & c):
                    return Verdict("CCS", False, _ev(rel.space, c, a, b))
    return Verdict("CCS", True)


def _check_cand(rel):
    full = rel.space.full_mask
    n = rel.space.size
    for c in range(n):
        for a in range(n):
            if not rel.s(a & c, (full & ~a) & c):
                continue
            for b in range(n):
                if not rel.s(b & c, (full & ~b) & c):
                    continue
                ab = a & b
                if not rel.s(ab & c, (full & ~ab) & c):
                    return Verdict("CAND", False, _ev(rel.space, c, a, b))
    return Verdict("CAND", True)


def _additivity_domain(space):
    # A disjoint from B and from C; B and C may overlap
    full = space.full_mask
    for a in range(space.size):
        rest = full & ~a
        for b in submasks(rest):
            for c in submasks(rest):
                yield a, b, c


def _check_add(rel):
    for a, b, c in _additivity_domain(rel.space):
        if rel.w(a | b, a | c) != rel.w(b, c):
            return Verdict("ADD", False, _ev(rel.space, a, b, c))
    return Verdict("ADD", True)


def _check_type_or(rel):
    for a, b, c in _additivity_domain(rel.space):
        if rel.w(b, c) and not rel.w(a | b, a | c):
            return Verdict("TYPE_OR", False, _ev(rel.space, a, b, c))
    return Verdict("TYPE_OR", True)


def _check_type_and(rel):
    for a, b, c in _additivity_domain(rel.space):
        if rel.w(a | b, a | c) and not rel.w(b, c):
            return Verdict("TYPE_AND", False, _ev(rel.space, a, b, c))
    return Verdict("TYPE_AND", True)


def _check_weak_and(rel):
    for a, b, c in _triple_masks(rel.space.full_mask):
        if rel.s(a | b, b) and not rel.s(a | b | c, b | c):
            return Verdict("WEAK_AND", False, _ev(rel.space, a, b, c))
    return Verdict("WEAK_AND", True)


def _check_weak_or(rel):
    for a, b, c in _triple_masks(rel.space.full_mask):
        if rel.s(a | b | c, b | c) and not rel.s(a | b, b):
            return Verdict("WEAK_OR", False, _ev(rel.space, a, b, c))
    return Verdict("WEAK_OR", True)


def _check_self_dual(rel):
    full = rel.space.full_mask
    n = rel.space.size
    for a in range(n):
        for b in range(n):
            if rel.w(a, b) != rel.w(full & ~b, full & ~a):
                return Verdict("SELF_DUAL", False, _ev(rel.space, a, b))
    return Verdict("SELF_DUAL", True)


def _check_poss_like(rel):
    full = rel.space.full_mask
    for a in range(rel.space.size):
        if rel.e(a, 0) and rel.e(full & ~a, 0):
            return Verdict("POSS_LIKE", False, _ev(rel.space, a))
    return Verdict("POSS_LIKE", True)


def _check_cert_like(rel):
    full = rel.space.full_mask
    for a in range(rel.space.size):
        if rel.e(a, full) and rel.e(full & ~a, full):
            return Verdict("CERT_LIKE", False, _ev(rel.space, a))
    return Verdict("CERT_LIKE", True)


_CHECKERS = {
    "T": _check_t,
    "MI": _check_mi,
    "O": _check_o,
    "IR": _check_ir,
    "Ac": _check_ac,
    "Qual": _check_qual,
    "CP": _check_cp,
    "CS": _check_cs,
    "AND": _check_and,
    "CCS": _check_ccs,
    "CAND": _check_cand,
    "ADD": _check_add,
    "TYPE_OR": _check_type_or,
    "TYPE_AND": _check_type_and,
    "WEAK_AND": _check_weak_and,
    "WEAK_OR": _check_weak_or,
    "SELF_DUAL": _check_self_dual,
    "POSS_LIKE": _check_poss_like,
    "CERT_LIKE": _check_cert_like,
}

AXIOMS = tuple(_CHECKERS)


def check_axiom(rel: ConfidenceRelation, axiom: str) -> Verdict:
    try:
        checker = _CHECKERS[axiom]
    except KeyError:
        raise KeyError(f"unknown axiom {axiom!r}; know {sorted(_CHECKERS)}") from None
    return checker(rel)


def is_acceptance_preorder(rel: ConfidenceRelation) -> tuple[Verdict, ...]:
    """Verdicts for the three defining axioms T, MI, Ac."""
    return tuple(check_axiom(rel, a) for a in ("T", "MI", "Ac"))


def is_acceptance(rel: ConfidenceRelation) -> bool:
    return all(v.holds for v in is_acceptance_preorder(rel))


# ---------------------------------------------------------------------------
# lifting strict orders (weak part = strict or reverse inclusion)

def lift_strict(space: StateSpace, strict_pairs) -> ConfidenceRelation:
    """Lift a bare strict order to a preorder: A >= B iff A > B or B <= A.

    The input is checked as given (irreflexive, transitive, O, the
    acceptance axiom on disjoint triples); no closure is applied first.
    """
    pairs = {(_bits(a), _bits(b)) for a, b in strict_pairs}
    ordered = sorted(pairs)

    full = space.full_mask
    for a, b in ordered:
        if a == b:
            raise StrictAxiomViolation("IR", _ev(space, a))
    for a, b in ordered:
        for b2, c in ordered:
            if b2 == b and (a, c) not in pairs:
                raise StrictAxiomViolation("T", _ev(space, a, b, c))
    for a, b in ordered:
        for sup in submasks(full & ~a):
            a2 = a | sup
            for b2 in submasks(b):
                if (a2, b2) not in pairs:
                    raise StrictAxiomViolation("O", _ev(space, a, a2, b, b2))
    for a, b, c in _triple_masks(full):
        if (a | b, c) in pairs and (a | c, b) in pairs and (a, b | c) not in pairs:
            raise StrictAxiomViolation("Ac", _ev(space, a, b, c))

    rows = _inclusion_rows(space.n)
    for a, b in pairs:
        rows[a] |= 1 << b
    return ConfidenceRelation(space, tuple(rows))


def close_strict_pairs(space: StateSpace, seed_pairs) -> set[tuple[Event, Event]]:
    """Least superset of the pairs closed under transitivity and the O
    axiom (growing the left side, shrinking the right side); the result
    is what lift_strict can accept, unless the seeds force a cycle."""
    inclusion = _inclusion_rows(space.n)
    strict = [0] * space.size
    for a, b in seed_pairs:
        strict[_bits(b)] |= 1 << _bits(a)
    before = None
    while strict != before:
        before = list(strict)
        _grow_orientation(strict, inclusion)
        _transitive_close(strict)
    return {(Event(space, a), Event(space, b))
            for b, row in enumerate(strict)
            for a in range(space.size) if row >> a & 1}


def strict_order_from_chain(space: StateSpace, chain) -> set[tuple[Event, Event]]:
    """Materialize a descending chain of events as an admissible strict order."""
    masks = [_bits(e) for e in chain]
    seeds = [
        (masks[i], masks[j])
        for i in range(len(masks))
        for j in range(i + 1, len(masks))
    ]
    return close_strict_pairs(space, seeds)


# ---------------------------------------------------------------------------
# accepted beliefs

def accepted_set(rel: ConfidenceRelation, context: Event) -> Kernel:
    """Events accepted in the context: A with A&C strictly above comp(A)&C.

    Degenerate contexts are flagged, never raised: no_belief when nothing
    is accepted (kernel then reported as the full event), empty_kernel when
    accepted events exist but their intersection is empty.
    """
    rel._check(context, context)
    c = context.bits
    full = rel.space.full_mask
    accepted = []
    kern = full
    for a in range(rel.space.size):
        if rel.s(a & c, (full & ~a) & c):
            accepted.append(a)
            kern &= a
    flags = set()
    if not accepted:
        kern = full
        flags.add("no_belief")
    elif kern == 0:
        flags.add("empty_kernel")
    return Kernel(
        context=context,
        accepted=tuple(Event(rel.space, a) for a in accepted),
        kernel=Event(rel.space, kern),
        flags=frozenset(flags),
    )


def check_closure(rel: ConfidenceRelation, context: Event) -> Verdict:
    """Is the accepted set closed under supersets and pairwise intersection?"""
    acc = [a.bits for a in accepted_set(rel, context).accepted]
    members = set(acc)
    full = rel.space.full_mask
    for a in acc:
        for sup in submasks(full & ~a):
            b = a | sup
            if b not in members:
                return Verdict(
                    "closure", False, _ev(rel.space, a, b), detail="superset"
                )
    for a in acc:
        for b in acc:
            if a & b not in members:
                return Verdict(
                    "closure", False, _ev(rel.space, a, b), detail="intersection"
                )
    return Verdict("closure", True)


# ---------------------------------------------------------------------------
# consequences of the acceptance axioms, checkable per relation

def kernel_characterization(rel: ConfidenceRelation) -> Verdict:
    """Accepted exactly = supersets of the kernel (vacuous if nothing accepted)."""
    result = accepted_set(rel, rel.space.full())
    if "no_belief" in result.flags:
        return Verdict("kernel_characterization", True, detail="no accepted beliefs")
    k = result.kernel.bits
    members = {a.bits for a in result.accepted}
    for a in range(rel.space.size):
        if (a in members) != (k & ~a == 0):
            return Verdict("kernel_characterization", False, _ev(rel.space, a))
    return Verdict("kernel_characterization", True)


def conditional_kernel_characterization(rel: ConfidenceRelation) -> Verdict:
    """Same characterization inside every context that is strictly plausible."""
    for b in range(rel.space.size):
        if not rel.s(b, 0):
            continue
        ctx = Event(rel.space, b)
        result = accepted_set(rel, ctx)
        members = {a.bits for a in result.accepted}
        if not members:
            return Verdict(
                "conditional_kernel_characterization",
                False,
                (ctx,),
                detail="plausible context with nothing accepted",
            )
        k = result.kernel.bits
        for a in range(rel.space.size):
            if (a in members) != (k & ~a == 0):
                return Verdict(
                    "conditional_kernel_characterization",
                    False,
                    (ctx, Event(rel.space, a)),
                )
    return Verdict("conditional_kernel_characterization", True)


def negligibility_chain(rel: ConfidenceRelation) -> Verdict:
    """Disjoint C equiv A > B forces A equiv A|B equiv C equiv C|B > B."""
    for a, b, c in _triple_masks(rel.space.full_mask):
        if not (rel.e(c, a) and rel.s(a, b)):
            continue
        ok = (
            rel.e(a, a | b)
            and rel.e(a | b, c)
            and rel.e(c, c | b)
            and rel.s(c | b, b)
        )
        if not ok:
            return Verdict("negligibility_chain", False, _ev(rel.space, a, b, c))
    return Verdict("negligibility_chain", True)


def plausible_union_growth(rel: ConfidenceRelation) -> Verdict:
    """B strictly plausible implies A|B strictly above A, for disjoint A."""
    full = rel.space.full_mask
    for b in range(rel.space.size):
        if not rel.s(b, 0):
            continue
        for a in submasks(full & ~b):
            if not rel.s(a | b, a):
                return Verdict("plausible_union_growth", False, _ev(rel.space, a, b))
    return Verdict("plausible_union_growth", True)


def negligibility_collapse(rel: ConfidenceRelation) -> Verdict:
    """Disjoint C equiv A > B forces B equiv the empty event."""
    for a, b, c in _triple_masks(rel.space.full_mask):
        if rel.e(c, a) and rel.s(a, b) and not rel.e(b, 0):
            return Verdict("negligibility_collapse", False, _ev(rel.space, a, b, c))
    return Verdict("negligibility_collapse", True)


# ---------------------------------------------------------------------------
# exhaustive enumeration (tiny spaces only)

def all_acceptance_preorders(space: StateSpace) -> Iterator[ConfidenceRelation]:
    """Every relation over the space satisfying T, MI and Ac.

    Enumerates all 2^(size^2) weak matrices with a monotony prefilter, so
    only spaces with at most 2 states are feasible.
    """
    n = space.size
    if space.n > 2:
        raise TooLarge("exhaustive relation enumeration needs n <= 2")
    required = _inclusion_rows(space.n)
    for rows in product(range(1 << n), repeat=n):
        if any(rows[a] & required[a] != required[a] for a in range(n)):
            continue
        rel = ConfidenceRelation(space, rows)
        if _check_t(rel).holds and _check_ac(rel).holds:
            yield rel
