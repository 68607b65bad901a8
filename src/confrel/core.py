"""Finite state spaces and events as bit-vectors.

Every other module works over these two value types. States are named
strings in a fixed order; an event is a subset of states stored as an int
bitmask (bit i set means state i belongs to the event). Enumeration order
is always the numeric order of bitmasks, which is what makes witnesses and
reports reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Iterator, Optional

from .errors import DuplicateState, EmptySpace, SpaceMismatch, TooLarge

# Default caps. Relation matrices are 2^n rows of 2^n bits, so 12 states
# (4096 x 4096 bits ~ 2 MB) is the storage cap; branching decomposition and
# exhaustive axiom sweeps blow up much earlier.
RELATION_MAX = 12
DECOMPOSE_MAX = 5


@dataclass(frozen=True)
class StateSpace:
    states: tuple[str, ...]
    # the atoms the states are valuations of; spaces over other atoms differ
    atoms: tuple[str, ...] = ()
    # the true atoms of each state, for declared states with per-state
    # labels; spaces labelled otherwise differ
    labels: tuple[frozenset[str], ...] = ()

    def __post_init__(self):
        if not self.states:
            raise EmptySpace("a state space needs at least one state")
        seen = set()
        for name in self.states:
            if not name:
                raise EmptySpace("state names must be non-empty")
            if name in seen:
                raise DuplicateState(f"duplicate state name {name!r}")
            seen.add(name)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def size(self) -> int:
        """Number of events, 2^n."""
        return 1 << len(self.states)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.states)) - 1

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.states)}

    @cached_property
    def inclusion(self) -> tuple[int, ...]:
        """The _inclusion_rows of the space: one table per n, shared by
        every space of n states (_inclusion_table)."""
        return _inclusion_table(self.n)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"no state named {name!r}") from None

    def event(self, names) -> "Event":
        """The event of the named states. A string or a mapping is refused
        rather than read one character or one key per name."""
        return Event(self, self._mask(names))

    def _mask(self, names) -> int:
        """The bitmask of the named states, refusing a string or a mapping
        as event."""
        if isinstance(names, (str, dict)):
            raise TypeError("an event takes a collection of state names, "
                            f"not {names!r}")
        bits = 0
        for name in names:
            bits |= 1 << self.index(name)
        return bits

    def event_from_bits(self, bits: int) -> "Event":
        return Event(self, bits)

    def singleton(self, name: str) -> "Event":
        return Event(self, 1 << self.index(name))

    def empty(self) -> "Event":
        return Event(self, 0)

    def full(self) -> "Event":
        return Event(self, self.full_mask)

    def names_of(self, bits: int) -> tuple[str, ...]:
        return tuple(s for i, s in enumerate(self.states) if bits >> i & 1)


def make_space(names, max_states: int = RELATION_MAX) -> StateSpace:
    """Build a state space, enforcing the storage cap.

    Direct StateSpace construction skips the cap on purpose (tests build
    tiny spaces in bulk); anything user-facing goes through here.
    """
    names = list(names)
    if len(names) > max_states:
        raise TooLarge(
            f"{len(names)} states exceeds the cap of {max_states}; "
            "raise max_states explicitly if you accept the cost"
        )
    return StateSpace(tuple(names))


@dataclass(frozen=True)
class Event:
    """A subset of a state space's states, as a bitmask value type.

    Events from different spaces never combine or compare equal; mixing
    them raises SpaceMismatch, which catches usage bugs early.
    """

    space: StateSpace
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.space.full_mask:
            raise ValueError(f"bits {self.bits:#x} out of range for n={self.space.n}")

    def _check(self, other: "Event") -> None:
        if self.space != other.space:
            raise SpaceMismatch("events belong to different state spaces")

    def complement(self) -> "Event":
        return Event(self.space, self.space.full_mask & ~self.bits)

    def union(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.bits | other.bits)

    def intersection(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.bits & other.bits)

    def difference(self, other: "Event") -> "Event":
        self._check(other)
        return Event(self.space, self.bits & ~other.bits)

    def subset_of(self, other: "Event") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    def is_empty(self) -> bool:
        return self.bits == 0

    def names(self) -> tuple[str, ...]:
        return self.space.names_of(self.bits)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __repr__(self) -> str:
        return "{%s}" % ",".join(self.names())


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


@cache
def _inclusion_table(n: int) -> tuple[int, ...]:
    """_inclusion_rows(n) as a tuple, built once per n."""
    return tuple(_inclusion_rows(n))


def _bits(x, space: StateSpace) -> int:
    """The mask of an Event of space, or the value itself when it is a
    mask of space; an Event of another space raises SpaceMismatch, a mask
    outside [0, full_mask] ValueError."""
    if isinstance(x, Event):
        if x.space != space:
            raise SpaceMismatch("event from a different space")
        return x.bits
    if x < 0 or x >> len(space.states):
        raise ValueError(f"mask {x!r} out of range for n={space.n}")
    return x


def submasks(mask: int) -> Iterator[int]:
    """All submasks of mask in increasing numeric order, starting at 0."""
    sub = 0
    while True:
        yield sub
        sub = (sub - mask) & mask
        if sub == 0:
            return


def _bits_of(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _first_pair(masks) -> Optional[tuple[int, int]]:
    """(i, b) for the first non-zero masks[i] and its lowest bit b, or
    None when every mask is zero."""
    for i, mask in enumerate(masks):
        if mask:
            return i, (mask & -mask).bit_length() - 1
    return None


def all_events(space: StateSpace) -> Iterator[Event]:
    for bits in range(space.size):
        yield Event(space, bits)


def disjoint_pairs(space: StateSpace) -> Iterator[tuple[Event, Event]]:
    """All ordered pairs (A, B) with A and B disjoint; 3^n of them."""
    full = space.full_mask
    for a in range(space.size):
        for b in submasks(full & ~a):
            yield Event(space, a), Event(space, b)


def _triple_masks(full: int) -> Iterator[tuple[int, int, int]]:
    """All ordered pairwise-disjoint mask triples (a, b, c) under full, a
    ascending, then b and c ascending among the submasks left free."""
    for a in range(full + 1):
        for b in submasks(full & ~a):
            for c in submasks(full & ~a & ~b):
                yield a, b, c


def disjoint_triples(space: StateSpace) -> Iterator[tuple[Event, Event, Event]]:
    """All ordered pairwise-disjoint triples (A, B, C); 4^n of them."""
    for a, b, c in _triple_masks(space.full_mask):
        yield Event(space, a), Event(space, b), Event(space, c)
