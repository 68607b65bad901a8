"""Explicit confidence relations over the powerset of a finite state space.

A relation is one integer row per event: bit b of rows[a] says a is held
at least as confident as b. Nothing is assumed at construction; axioms
are checked on demand, each returning the first violating instance in
increasing bitmask order, which re-evaluates against the relation.
Transpose and dual are one delta-swap kernel (_delta_swap): the rows are
packed into one integer, and each of the n levels is one masked swap
over the whole matrix. A relation's transpose is its cols, built once on
first use; the strict part, the equivalences and completeness all read
it (_strict_parts), and the space's inclusion table is built once per n
(StateSpace.inclusion). Checkers test a row of events a step:

- T walks the classes of identical rows by growing popcount, each row
  from its highest bit, where a met row strictly inside belongs to a
  class that has passed and is cleared whole (_t_gap, once per relation
  as its t_gap); MI is one mask test per row (_mi_gap). O "holds" is
  decided by n * 2^n row tests (_o_holds), and Ac "holds", once T and MI
  give O, by the paper's closure theorem: one kernel test per context on
  its accepted parts (_kernels_accepted). Only where these fail do the
  scans run, with all b2 or c at once, to find the first witness (_o_gap
  and _ac_gap). lift_strict shares all four, measures the Ac pair.
- ADD, TYPE_OR, TYPE_AND: adding a's states one at a time turns (b, c)
  into (a|b, a|c) by one-state steps, so the first failing a is a single
  state x, and one shifted row per b holds every c (_additivity_gap).
- An up-set gap, a member with a superset outside a set of events, is
  found by one shift-or per state that closes the complement downward
  (_upward_gap). It decides CS, CCS and check_closure on accepted sets,
  and WEAK_AND/WEAK_OR on the first a whose one-state steps b to b|x
  break, read off the shear rows a|x > x of above (_shear_rows), which
  also give plausible_union_growth.
- Qual takes every c of one (a, b) at once, spreading the shifted rows
  over the parts of c inside a and inside b by carry-free products
  (_qual_gap). SELF_DUAL reads dual row a as cols[comp(a)] reversed, and
  CP and the poles are a mask on row and column 0 or full (_reversed_bits).
- The events accepted in context c are the parts u <= c with u > c ^ u,
  spread over every u | x with x outside c by the carry-free product
  with inclusion[comp(c)] (_accepted); condition(c) uses the same
  product. One transpose gives these parts for every context at once
  (_accepted_parts; _accepted_by_context spreads them for CCS, CAND and
  the conditional kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from operator import or_, xor
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
        if not isinstance(self.rows, tuple):
            raise TypeError("rows must be a tuple, as cols is cached")
        if len(self.rows) != self.space.size:
            raise ValueError("need one row per event")
        if min(self.rows) < 0 or max(self.rows) >> self.space.size:
            raise ValueError("a row holds a bit beyond the space's events")

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

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """The transpose of rows: bit a of cols[b] iff a >= b."""
        return tuple(_transpose(self.rows))

    @cached_property
    def t_gap(self) -> Optional[tuple[int, int, int]]:
        """The first T witness as masks (_t_gap), or None; the T and Ac
        checkers both read it."""
        return _t_gap(self.rows)

    def is_complete(self) -> bool:
        return _first_incomparable(self.rows, self.cols) is None

    def weak_pairs(self) -> Iterator[tuple[Event, Event]]:
        for a in range(self.space.size):
            row = self.rows[a]
            while row:
                b = (row & -row).bit_length() - 1
                yield Event(self.space, a), Event(self.space, b)
                row &= row - 1

    def dual(self) -> "ConfidenceRelation":
        """A >= B in the dual iff comp(B) >= comp(A)."""
        return ConfidenceRelation(self.space,
                                  tuple(_delta_swap(self.rows, True)))

    def condition(self, c: Event) -> "ConfidenceRelation":
        """A >= B given c iff A&c >= B&c. Row a is the carry-free product
        (rows[a & c] & inclusion[c]) * inclusion[comp(c)], which spreads
        each bit b <= c over every b | x with x outside c."""
        self._check(c, c)
        cb = c.bits
        inclusion = self.space.inclusion
        inside, outside = inclusion[cb], inclusion[self.space.full_mask & ~cb]
        parts = {a: (self.rows[a] & inside) * outside for a in submasks(cb)}
        return ConfidenceRelation(
            self.space, tuple(parts[a & cb] for a in range(self.space.size)))

    @classmethod
    def from_weak_pairs(cls, space: StateSpace, pairs) -> "ConfidenceRelation":
        rows = [0] * space.size
        for a, b in pairs:
            rows[_bits(a, space)] |= 1 << _bits(b, space)
        return cls(space, tuple(rows))


def _delta_swap(rows, anti: bool) -> list[int]:
    """The transpose of a square bit matrix (bit b of row a to bit a of
    row b), or with anti its anti-transpose (bit b of row a to bit
    comp(a) of row comp(b)), as a new list of rows.

    The rows are packed into one integer, row r at bit r * stride, with
    the stride rounded up to whole bytes so that to_bytes and from_bytes
    do the packing. For j = size/2, ..., 1, each row r with bit j clear
    trades bits with row r + j in one delta swap over the whole matrix:
    the transpose swaps bit c + j of row r with bit c of row r + j, a
    distance of j * stride - j, and the anti-transpose bit c of row r
    with bit c + j of row r + j, a distance of j * stride + j, for every
    column c with bit j clear. Each level flips bit j of both row and
    column, where they differ for the transpose and where they agree for
    the anti-transpose. The level's mask is the column pattern copied to
    the rows with bit j clear, by one shift-or doubling for each bit of
    the row index but j. It is built on each call: cached, the masks of
    n=10 would hold megabytes for the life of the process.

    At n=10 the packed matrix is a 140 KB integer, and packing and
    unpacking its 1,024 rows take about two fifths of the time. Each
    swap makes integers of that size, and where the allocator maps and
    unmaps each one, three transposes inside a larger job can cost a
    millisecond more than they do back to back."""
    size = len(rows)
    width = (size + 7) >> 3
    stride = width << 3
    packed = int.from_bytes(
        b"".join([row.to_bytes(width, "little") for row in rows]), "little")
    full = (1 << size) - 1
    j = size >> 1
    while j:
        mask = full // ((1 << 2 * j) - 1) * ((1 << j) - 1)
        if anti:
            shift = j * stride + j
        else:
            mask <<= j
            shift = j * stride - j
        k = 1
        while k < size:
            if k != j:
                mask |= mask << k * stride
            k <<= 1
        swap = (packed ^ packed >> shift) & mask
        packed ^= swap ^ swap << shift
        j >>= 1
    data = packed.to_bytes(size * width, "little")
    return [int.from_bytes(data[i:i + width], "little")
            for i in range(0, size * width, width)]


def _transpose(rows) -> list[int]:
    """The bit matrix with bit a of row b set iff bit b of rows[a] is."""
    return _delta_swap(rows, False)


def _strict_parts(rows, cols) -> tuple[list[int], list[int]]:
    """The strict part of weak rows, cols their transpose: bit b of strict[a]
    means a > b, and above is its transpose (bit a of above[b] means a > b)."""
    return ([r & ~c for r, c in zip(rows, cols)],
            [c & ~r for r, c in zip(rows, cols)])


def _first_incomparable(rows, cols) -> Optional[tuple[int, int]]:
    """First (a, b), a < b, with neither a >= b nor b >= a; cols is the
    transpose of rows."""
    full = (1 << len(rows)) - 1
    for a, (row, col) in enumerate(zip(rows, cols)):
        missing = (full & ~(row | col)) >> a >> 1
        if missing:
            return a, a + (missing & -missing).bit_length()
    return None


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


def _grow_orientation(strict: list[int], inclusion) -> None:
    """O axiom in place on a strict matrix kept per right side (bit a of
    strict[b] means a > b): per state i, each row gains its left sides
    with i added (shift-or over the events lacking i, a row of the
    inclusion table) and is ORed into the row of its right side minus i."""
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


def _t_gap(rows) -> Optional[tuple[int, int, int]]:
    """First (a, b, c) with a >= b and b >= c but not a >= c. Events are
    grouped by identical row, classes go by growing popcount, and each
    class's row is walked from its highest bit b, one met class
    met = rows[b] at a time. A met row strictly inside has a smaller
    popcount, so its class is decided, and one that holds is cleared with
    its whole row. Each step clears the met class's members, so
    irreflexive rows end. Under MI high events tend to hold the most, so
    from the top most of a row clears in a few steps; from the bottom,
    the first met row is the empty event's, which clears little. A met
    row not inside fails the class, and only then is the row scanned for
    the witness: a its lowest member, b the lowest event in the row whose
    row is not inside, c the lowest bit outside."""
    # the events of each row class, and once the class passes its row too:
    # what meeting that class clears
    cleared = {}
    for a, row in enumerate(rows):
        cleared[row] = cleared.get(row, 0) | 1 << a
    first = None
    for row in sorted(cleared, key=int.bit_count):
        todo = row
        while todo:
            met = rows[todo.bit_length() - 1]
            if met & ~row:
                a = (cleared[row] & -cleared[row]).bit_length() - 1
                if first is None or a < first[0]:
                    scan = row
                    while not rows[(scan & -scan).bit_length() - 1] & ~row:
                        scan &= scan - 1
                    b = (scan & -scan).bit_length() - 1
                    excess = rows[b] & ~row
                    first = a, b, (excess & -excess).bit_length() - 1
                break
            todo &= ~cleared[met]
        else:
            cleared[row] |= row
    return first


def _mi_gap(rows, inclusion):
    """Row b must hold every subset of b: one mask test per b. The
    witness is the lowest a missing anywhere, with the first b missing it."""
    gaps = [sub & ~row for row, sub in zip(rows, inclusion)]
    union = reduce(or_, gaps)
    if not union:
        return None
    a = (union & -union).bit_length() - 1
    return a, next(b for b, gap in enumerate(gaps) if gap >> a & 1)


def _o_holds(strict, inclusion) -> bool:
    """O on a strict matrix (bit b of strict[a] means a > b), by rows: O
    holds iff each row is a down-set and strict[a] is inside
    strict[a | x] for every state x outside a, as any a2 >= a and b2 <= b
    are reached by one-state steps. Per state, a row is closed under
    removing it iff no member with the state lacks its part without."""
    size = len(strict)
    bit = 1
    while bit < size:
        lacking = inclusion[(size - 1) ^ bit]
        for a, row in enumerate(strict):
            if row >> bit & lacking & ~row:
                return False
            if not a & bit and row & ~strict[a | bit]:
                return False
        bit <<= 1
    return True


def _o_gap(strict, inclusion) -> Optional[tuple[int, int, int, int]]:
    """The witness finder for O, and its reference: the first
    (a, a2, b, b2) with a > b, a2 a superset of a and b2 a subset of b,
    but not a2 > b2; b2 is the lowest bit of inclusion[b] missing from
    strict[a2]. Callers run it where _o_holds fails."""
    full = len(strict) - 1
    for a, row in enumerate(strict):
        for sup in submasks(full & ~a):
            row2 = strict[a | sup]
            # once sup = 0 has passed, row is closed under subsets, so a
            # gap at a | sup needs a member of row missing from row2
            if sup and not row & ~row2:
                continue
            todo = row
            while todo:
                b = (todo & -todo).bit_length() - 1
                todo &= todo - 1
                missing = inclusion[b] & ~row2
                if missing:
                    return a, a | sup, b, (missing & -missing).bit_length() - 1
    return None


def _ac_gap(strict, above, inclusion) -> Optional[tuple[int, int, int]]:
    """The witness finder for Ac, and its reference: the first disjoint
    (a, b, c) with a|b > c and a|c > b but not a > b|c. For each disjoint
    (a, b), the mask of every such c disjoint from both is taken at once,
    and its lowest c is the witness. Bit c of above[b] >> a is a|c > b,
    and bit c of strict[a] >> b is a > b|c. It costs 3^n shifted rows, so
    under O callers run it only where _kernels_accepted fails."""
    full = len(strict) - 1
    for a in range(len(strict)):
        free = full & ~a
        for b in submasks(free):
            cs = (strict[a | b] & inclusion[free & ~b] & above[b] >> a
                  & ~(strict[a] >> b))
            if cs:
                return a, b, (cs & -cs).bit_length() - 1
    return None


def _qual_gap(rel) -> Optional[tuple[int, int, int]]:
    """First (a, b, c), in product order, with a|b > c and a|c > b but
    not a > b|c; every c of one (a, b) at once. c splits into a part
    outside a and one inside it: bit x of above[b] >> a, for x outside a,
    is a|x > b, and the carry-free product with inclusion[a] spreads it
    over every x | d with d inside a. strict[a] >> b, spread over the
    parts inside b, marks a > b|c the same way."""
    strict, above = _strict_parts(rel.rows, rel.cols)
    inclusion, full = rel.space.inclusion, rel.space.full_mask
    for a in range(rel.space.size):
        inside, outside = inclusion[a], inclusion[full & ~a]
        for b in range(rel.space.size):
            cs = strict[a | b]
            if cs:
                cs &= ((above[b] >> a & outside) * inside
                       & ~((strict[a] >> b & inclusion[full & ~b]) * inclusion[b]))
                if cs:
                    return a, b, (cs & -cs).bit_length() - 1
    return None


def _accepted(rows, c: int, inclusion) -> int:
    """Bit a for each event a accepted in context c: a & c strictly above
    comp(a) & c. The parts u of c with u > c ^ u are read one per row,
    and the product with inclusion[comp(c)] spreads each over every u | x
    with x outside c, without carries (as in condition)."""
    inside = sum(1 << u for u in submasks(c)
                 if rows[u] >> (c ^ u) & 1 and not rows[c ^ u] >> u & 1)
    return inside * inclusion[(len(rows) - 1) & ~c]


def _accepted_parts(strict, inclusion) -> list[int]:
    """Row c holds each u inside c with u > c ^ u. Bit v of strict[u],
    for v disjoint from u, is u > v; moved up to bit u | v, one transpose
    gives every context's row at once."""
    full = len(strict) - 1
    return _transpose([(row & inclusion[full & ~u]) << u
                       for u, row in enumerate(strict)])


def _accepted_by_context(rel) -> Iterator[int]:
    """_accepted of every context in turn: its accepted parts, times
    inclusion[comp(c)]."""
    strict, _ = _strict_parts(rel.rows, rel.cols)
    inclusion, full = rel.space.inclusion, rel.space.full_mask
    for c, row in enumerate(_accepted_parts(strict, inclusion)):
        yield row * inclusion[full & ~c]


def _kernels_accepted(strict, inclusion) -> bool:
    """Does every context's row of _accepted_parts hold its kernel, or
    nothing? Under O (a2 >= a > b >= b2 gives a2 > b2), this holds iff Ac
    does, which is the paper's theorem that Ac is the accepted beliefs of
    every context being closed under conjunction.

    Proof. Let u, v be accepted in C, and set a = u & v, b = u - v,
    c = v - u and d = C - (u | v). Then a|b > c|d, and O turns
    a|c > b|d into a|c|d > b. Ac on the disjoint (a, b, c|d) gives
    a > b|c|d: u & v is accepted in C. Conversely, a|b > c and a|c > b
    say that a|b and a|c are accepted in C = a|b|c (the case d = 0), and
    their meet a is accepted iff a > b|c. Under O the accepted parts of
    C are an up-set inside C (u2 >= u > C - u >= C - u2), and an up-set
    is closed under meets iff it is empty or holds its kernel. A kernel
    that is a member is the numerically least member, so a row passes
    iff its lowest member k lies inside every member: the row is within
    the supersets of k, inclusion[comp(k)] << k."""
    full = len(strict) - 1
    for row in _accepted_parts(strict, inclusion):
        if row:
            k = (row & -row).bit_length() - 1
            if row & ~(inclusion[full ^ k] << k):
                return False
    return True


def _upward_gap(members: int, inclusion, within=None) -> Optional[tuple[int, int]]:
    """First (b, b2): b a member inside within (all states by default;
    members outside it are ignored) and b2 the lowest superset of b inside
    within that is not a member. One shift-or per state closes the
    non-members downward (each event with the state passes it on to the
    event without it, as in _grow_orientation); b is the first reached."""
    full = len(inclusion) - 1
    within = full if within is None else within
    outside = inclusion[within] & ~members
    below = outside
    bit = 1
    while bit <= within:
        if within & bit:
            below |= below >> bit & inclusion[full ^ bit]
        bit <<= 1
    gap = members & below
    if not gap:
        return None
    b = (gap & -gap).bit_length() - 1
    cs = outside >> b & inclusion[within & ~b]
    return b, b | (cs & -cs).bit_length() - 1


def _intersection_gap(members: int, inclusion) -> Optional[tuple[int, int]]:
    """First (a, b): both members, a & b not. The b meeting a in u are
    u | x with x outside a, so the non-members inside a, times
    inclusion[comp(a)], cover every b that fails with a."""
    full = len(inclusion) - 1
    todo = members
    while todo:
        a = (todo & -todo).bit_length() - 1
        todo &= todo - 1
        bad = members & (inclusion[a] & ~members) * inclusion[full & ~a]
        if bad:
            return a, (bad & -bad).bit_length() - 1
    return None


def _context_gap(rel, gap) -> Optional[tuple[int, int, int]]:
    """First (c, a, b): a gap found in the accepted set of context c."""
    inclusion = rel.space.inclusion
    for c, acc in enumerate(_accepted_by_context(rel)):
        found = gap(acc, inclusion)
        if found:
            return (c, *found)
    return None


def _gap_verdict(rel, axiom, found):
    if found is None:
        return Verdict(axiom, True)
    return Verdict(axiom, False, _ev(rel.space, *found))


def _full_gap(rel, gap):
    """CS or AND: a gap in the accepted set of the full context."""
    inclusion = rel.space.inclusion
    return gap(_accepted(rel.rows, rel.space.full_mask, inclusion), inclusion)


def _additivity_gap(rel, gap) -> Optional[tuple[int, int, int]]:
    """ADD, TYPE_OR or TYPE_AND over disjoint a, b and disjoint a, c.
    Adding a's states one at a time takes (b, c) to (a|b, a|c) in steps
    that are each the one-state case at (x, a'|b, a'|c), a' the states
    added before; where the ends break the axiom, so does some step, and
    x < a when a has two states. The first failing a is thus a state x:
    for each b without x, bit c of moved is x|b >= x|c, and gap(moved,
    rows[b]) marks every failing c at once."""
    full = rel.space.full_mask
    rows = rel.rows
    inclusion = rel.space.inclusion
    for x in range(rel.space.n):
        bit = 1 << x
        lacking = inclusion[full ^ bit]
        for b in submasks(full ^ bit):
            bad = gap(rows[b | bit] >> bit & lacking, rows[b]) & lacking
            if bad:
                return bit, b, (bad & -bad).bit_length() - 1
    return None


def _shear_rows(rel) -> list[int]:
    """Row x is above[x] >> x: bit a, for a disjoint from x, is a|x > x.
    Bits a that meet x mean nothing."""
    _, above = _strict_parts(rel.rows, rel.cols)
    return [row >> x for x, row in enumerate(above)]


def _weak_gap(rel, grows: bool) -> Optional[tuple[int, int, int]]:
    """WEAK_AND when grows (disjoint a, b, c: a|b > b gives a|b|c > b|c),
    else WEAK_OR (the converse). For each a, the b disjoint from it with
    a|b > b (bit a of shear row b) must form an up-set inside comp(a) for
    WEAK_AND, its complement there for WEAK_OR. A set that is not one has
    a failing one-state step b to b|x, so the failing a are one mask over
    the (x, b) steps. The first a's column of shear bits then gives the
    first (b, b|c) by _upward_gap."""
    full = rel.space.full_mask
    inclusion = rel.space.inclusion
    shear = _shear_rows(rel)
    bad = 0
    for x in range(rel.space.n):
        bit = 1 << x
        for b in submasks(full ^ bit):
            low, high = shear[b], shear[b | bit]
            step = low & ~high if grows else high & ~low
            bad |= step & inclusion[full & ~(b | bit)]
    if not bad:
        return None
    a = (bad & -bad).bit_length() - 1
    free = full & ~a
    up = sum(1 << x for x in submasks(free) if shear[x] >> a & 1)
    b, sup = _upward_gap(up if grows else inclusion[free] & ~up, inclusion, free)
    return a, b, sup ^ b


def _reversed_bits(x: int, size: int) -> int:
    """x read as size bits in reverse order: bit i goes to bit size-1-i,
    which for a row of events is bit comp(i)."""
    return int(format(x, f"0{size}b")[::-1], 2)


def _self_dual_gap(rel):
    """First (a, b) where the relation and its dual differ. Row a of the
    dual is cols[comp(a)] reversed, built one row at a time, so an order
    that fails early pays only for the rows up to its witness."""
    full, size = rel.space.full_mask, rel.space.size
    cols = rel.cols
    for a, row in enumerate(rel.rows):
        diff = row ^ _reversed_bits(cols[full & ~a], size)
        if diff:
            return a, (diff & -diff).bit_length() - 1
    return None


def _cp_gap(rel):
    """First event a with the empty event strictly above it: the lowest
    bit of rows[0] that cols[0] lacks."""
    found = rel.rows[0] & ~rel.cols[0]
    return ((found & -found).bit_length() - 1,) if found else None


def _pole_gap(rel, pole: int):
    """POSS_LIKE (pole empty) or CERT_LIKE (pole full): the first event
    that is equivalent to the pole together with its complement. e holds
    the events equivalent to the pole; reversed, bit a is comp(a)'s."""
    e = rel.rows[pole] & rel.cols[pole]
    found = e & _reversed_bits(e, rel.space.size)
    return ((found & -found).bit_length() - 1,) if found else None


def _o_check(strict, inclusion):
    """O by the row tests; the scan runs only to find the witness."""
    return None if _o_holds(strict, inclusion) else _o_gap(strict, inclusion)


def _ac_check(rel):
    """Ac by the kernel test where T and MI hold, as they give O; the
    scan finds the witness where the test fails, and decides alone on a
    relation without them."""
    strict, above = _strict_parts(rel.rows, rel.cols)
    inclusion = rel.space.inclusion
    if (rel.t_gap is None and _mi_gap(rel.rows, inclusion) is None
            and _kernels_accepted(strict, inclusion)):
        return None
    return _ac_gap(strict, above, inclusion)


# each checker gives the first witness, as masks, or None
_CHECKERS = {
    "T": lambda rel: rel.t_gap,
    "MI": lambda rel: _mi_gap(rel.rows, rel.space.inclusion),
    "O": lambda rel: _o_check(_strict_parts(rel.rows, rel.cols)[0],
                              rel.space.inclusion),
    # a > a would need a >= a and not a >= a: IR holds for every relation
    "IR": lambda rel: None,
    "Ac": _ac_check,
    "Qual": _qual_gap,
    "CP": _cp_gap,
    "CS": lambda rel: _full_gap(rel, _upward_gap),
    "AND": lambda rel: _full_gap(rel, _intersection_gap),
    "CCS": lambda rel: _context_gap(rel, _upward_gap),
    "CAND": lambda rel: _context_gap(rel, _intersection_gap),
    "ADD": lambda rel: _additivity_gap(rel, xor),
    "TYPE_OR": lambda rel: _additivity_gap(rel, lambda moved, row: row & ~moved),
    "TYPE_AND": lambda rel: _additivity_gap(rel, lambda moved, row: moved & ~row),
    "WEAK_AND": lambda rel: _weak_gap(rel, True),
    "WEAK_OR": lambda rel: _weak_gap(rel, False),
    "SELF_DUAL": _self_dual_gap,
    "POSS_LIKE": lambda rel: _pole_gap(rel, 0),
    "CERT_LIKE": lambda rel: _pole_gap(rel, rel.space.full_mask),
}

AXIOMS = tuple(_CHECKERS)


def check_axiom(rel: ConfidenceRelation, axiom: str) -> Verdict:
    try:
        checker = _CHECKERS[axiom]
    except KeyError:
        raise KeyError(f"unknown axiom {axiom!r}; know {sorted(_CHECKERS)}") from None
    return _gap_verdict(rel, axiom, checker(rel))


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
    O is checked on the strict matrix itself, so Ac is decided by the
    kernel test, and the scans run only to find a witness.
    """
    strict = [0] * space.size  # bit b of strict[a]: a > b
    for a, b in strict_pairs:
        strict[_bits(a, space)] |= 1 << _bits(b, space)

    for a, row in enumerate(strict):
        if row >> a & 1:
            raise StrictAxiomViolation("IR", _ev(space, a))
    found = _t_gap(strict)
    if found:
        raise StrictAxiomViolation("T", _ev(space, *found))
    rows = space.inclusion
    found = _o_check(strict, rows)
    if found:
        raise StrictAxiomViolation("O", _ev(space, *found))
    found = (None if _kernels_accepted(strict, rows)
             else _ac_gap(strict, _transpose(strict), rows))
    if found:
        raise StrictAxiomViolation("Ac", _ev(space, *found))

    return ConfidenceRelation(space, tuple(i | s for i, s in zip(rows, strict)))


def close_strict_pairs(space: StateSpace, seed_pairs) -> set[tuple[Event, Event]]:
    """Least superset of the pairs closed under transitivity and the O
    axiom (growing the left side, shrinking the right side); the result
    is what lift_strict can accept, unless the seeds force a cycle.

    One O growth, then one transitive closure: the closure of an O-closed
    relation stays O-closed, since from a > b > c with a2 a superset of a
    and c2 a subset of c, O gives a2 > b and b > c2, and T a2 > c2."""
    strict = [0] * space.size
    for a, b in seed_pairs:
        strict[_bits(b, space)] |= 1 << _bits(a, space)
    _grow_orientation(strict, space.inclusion)
    _transitive_close(strict)
    return {(Event(space, a), Event(space, b))
            for b, row in enumerate(strict)
            for a in range(space.size) if row >> a & 1}


def strict_order_from_chain(space: StateSpace, chain) -> set[tuple[Event, Event]]:
    """Materialize a descending chain of events as an admissible strict order."""
    masks = [_bits(e, space) for e in chain]
    seeds = [(a, b) for i, a in enumerate(masks) for b in masks[i + 1:]]
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
    inclusion = rel.space.inclusion
    acc = _accepted(rel.rows, context.bits, inclusion)
    kern = _kernel(acc, inclusion)
    flags = set()
    if not acc:
        flags.add("no_belief")
    elif kern == 0:
        flags.add("empty_kernel")
    accepted = []
    todo = acc
    while todo:
        accepted.append(Event(rel.space, (todo & -todo).bit_length() - 1))
        todo &= todo - 1
    return Kernel(
        context=context,
        accepted=tuple(accepted),
        kernel=Event(rel.space, kern),
        flags=frozenset(flags),
    )


def check_closure(rel: ConfidenceRelation, context: Event) -> Verdict:
    """Is the accepted set closed under supersets and pairwise intersection?
    An up-set is closed under intersection iff it is empty or holds its
    kernel, so _intersection_gap runs only when neither is so."""
    rel._check(context, context)
    inclusion = rel.space.inclusion
    acc = _accepted(rel.rows, context.bits, inclusion)
    found = _upward_gap(acc, inclusion)
    if found:
        return Verdict("closure", False, _ev(rel.space, *found), detail="superset")
    if acc and not acc >> _kernel(acc, inclusion) & 1:
        found = _intersection_gap(acc, inclusion)
        return Verdict("closure", False, _ev(rel.space, *found),
                       detail="intersection")
    return Verdict("closure", True)


# ---------------------------------------------------------------------------
# consequences of the acceptance axioms, checkable per relation

def _kernel(members: int, inclusion) -> int:
    """The intersection of the member events, full when there are none:
    the states that no member lacks."""
    full = len(inclusion) - 1
    return sum(1 << i for i in range(full.bit_length())
               if not members & inclusion[full ^ 1 << i])


def _kernel_gap(members: int, inclusion) -> Optional[tuple[int]]:
    """(a,) for the first event a that contains the kernel but is not a
    member. Every member contains the kernel, so membership is exactly
    containing the kernel iff there is none."""
    kern = _kernel(members, inclusion)
    missing = inclusion[(len(inclusion) - 1) & ~kern] << kern & ~members
    return ((missing & -missing).bit_length() - 1,) if missing else None


def kernel_characterization(rel: ConfidenceRelation) -> Verdict:
    """Accepted exactly = supersets of the kernel (vacuous if nothing accepted)."""
    inclusion = rel.space.inclusion
    acc = _accepted(rel.rows, rel.space.full_mask, inclusion)
    if not acc:
        return Verdict("kernel_characterization", True, detail="no accepted beliefs")
    return _gap_verdict(rel, "kernel_characterization", _kernel_gap(acc, inclusion))


def conditional_kernel_characterization(rel: ConfidenceRelation) -> Verdict:
    """Same characterization inside every context that is strictly plausible."""
    axiom = "conditional_kernel_characterization"
    inclusion = rel.space.inclusion
    for c, acc in enumerate(_accepted_by_context(rel)):
        if not rel.s(c, 0):
            continue
        if not acc:
            return Verdict(axiom, False, _ev(rel.space, c),
                           detail="plausible context with nothing accepted")
        found = _kernel_gap(acc, inclusion)
        if found:
            return Verdict(axiom, False, _ev(rel.space, c, *found))
    return Verdict(axiom, True)


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
    """B strictly plausible implies A|B strictly above A, for disjoint A.
    Bit b of shear row 0 is b > 0, and bit b of shear row a is b|a > a,
    so the first failing b is the lowest plausible one that some shear
    row misses inside comp(a); a is then its first such row."""
    full = rel.space.full_mask
    inclusion = rel.space.inclusion
    shear = _shear_rows(rel)
    missed = reduce(or_, (inclusion[full & ~a] & ~row
                          for a, row in enumerate(shear)))
    bad = shear[0] & missed
    if not bad:
        return Verdict("plausible_union_growth", True)
    b = (bad & -bad).bit_length() - 1
    a = next(a for a in submasks(full & ~b) if not shear[a] >> b & 1)
    return Verdict("plausible_union_growth", False, _ev(rel.space, a, b))


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
    required = space.inclusion
    for rows in product(range(1 << n), repeat=n):
        if any(rows[a] & required[a] != required[a] for a in range(n)):
            continue
        rel = ConfidenceRelation(space, rows)
        if rel.t_gap is None and check_axiom(rel, "Ac").holds:
            yield rel
