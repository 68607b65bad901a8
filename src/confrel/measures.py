"""Numerical uncertainty measures with exact rational arithmetic.

Three kinds are supported: probability and possibility distributions
(one value per state) and mass assignments (one positive weight per focal
event, summing to one). Each set function of theirs is one entry of
_SET_FUNCTIONS, tabled in integers over a common denominator by
_int_table, which the orders and recognizers read; Fractions are made
only by table_for, behind evaluate and condition_measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from math import lcm
from typing import Optional, Sequence

from .core import Event, StateSpace, _bits, _inclusion_table, submasks
from .errors import KindMismatch, SpaceMismatch, ZeroDenominator
from .relations import (ConfidenceRelation, _ac_gap, _accepted, _kernel,
                        _kernels_accepted, _mi_gap, _strict_parts, _transpose)

PROBABILITY = "probability"
POSSIBILITY = "possibility"
MASS = "mass"

_ONE = Fraction(1)
# Fraction expands "1e9999999" into a ten-million-digit integer, so
# exponent spellings beyond this size are refused before parsing
_MAX_EXPONENT = 1000
_GRID = 4
_MAX_WEIGHT = 9


def parse_rational(value) -> Fraction:
    """Exact rational from an int, a float literal, '3/10', '0.3' or
    '3e-1'; an exponent beyond _MAX_EXPONENT either way is refused."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, Fraction):
        return value
    text = str(value).strip()
    _, e, exponent = text.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > len(str(_MAX_EXPONENT))
                                     or int(digits) > _MAX_EXPONENT):
        raise ValueError(f"exponent of {value!r} is beyond {_MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


@dataclass(frozen=True)
class Measure:
    space: StateSpace
    kind: str
    weights: tuple[tuple[int, Fraction], ...]

    def weight_of(self, mask: int) -> Fraction:
        for m, v in self.weights:
            if m == mask:
                return v
        return Fraction(0)

    def focal_masks(self) -> tuple[int, ...]:
        return tuple(m for m, _ in self.weights)


def probability(space: StateSpace, values: Sequence) -> Measure:
    vals = [parse_rational(v) for v in values]
    if len(vals) != space.n:
        raise ValueError("need one value per state")
    if any(v < 0 for v in vals):
        raise ValueError("probabilities must be nonnegative")
    if sum(vals) != _ONE:
        raise ValueError("probabilities must sum to 1")
    return Measure(
        space, PROBABILITY, tuple((1 << i, v) for i, v in enumerate(vals))
    )


def possibility(space: StateSpace, values: Sequence) -> Measure:
    vals = [parse_rational(v) for v in values]
    if len(vals) != space.n:
        raise ValueError("need one value per state")
    if any(v < 0 or v > 1 for v in vals):
        raise ValueError("possibility degrees must lie in [0, 1]")
    if max(vals) != _ONE:
        raise ValueError("a possibility distribution must reach 1")
    return Measure(
        space, POSSIBILITY, tuple((1 << i, v) for i, v in enumerate(vals))
    )


def mass(space: StateSpace, focal) -> Measure:
    pairs = []
    for key, v in focal.items() if hasattr(focal, "items") else focal:
        pairs.append((_bits(key, space), parse_rational(v)))
    pairs.sort()
    if any(m == 0 for m, _ in pairs):
        raise ValueError("the empty event cannot be focal")
    if len({m for m, _ in pairs}) != len(pairs):
        raise ValueError("duplicate focal event")
    if any(v <= 0 for _, v in pairs):
        raise ValueError("masses must be positive")
    if sum(v for _, v in pairs) != _ONE:
        raise ValueError("masses must sum to 1")
    return Measure(space, MASS, tuple(pairs))


def _require(measure: Measure, *kinds: str) -> None:
    if measure.kind not in kinds:
        raise KindMismatch(f"needs a {' or '.join(kinds)} measure, got {measure.kind}")


def _int_weights(measure: Measure) -> tuple[int, list[tuple[int, int]]]:
    denom = lcm(*(v.denominator for _, v in measure.weights))
    return denom, [(m, int(v * denom)) for m, v in measure.weights]


def _bel_int(n: int, weights) -> list[int]:
    tab = [0] * (1 << n)
    full = (1 << n) - 1
    for f, w in weights:
        for sup in submasks(full & ~f):
            tab[f | sup] += w
    return tab


def _dual_int(tab: list[int]) -> list[int]:
    """The dual set function: the total less the value of the complement."""
    full = len(tab) - 1
    return [tab[full] - tab[full & ~a] for a in range(len(tab))]


def _poss_int(n: int, weights) -> list[int]:
    # weights are per-state: (1 << i, degree); an event's possibility is
    # the larger of its low state's degree and that of the rest
    w = dict(weights)
    tab = [0] * (1 << n)
    for a in range(1, 1 << n):
        tab[a] = max(tab[a & (a - 1)], w[a & -a])
    return tab


# each set function: the kind of measure it needs, and its integer table
# from the measure's integer weights over their common denominator
_SET_FUNCTIONS = {
    "probability": (PROBABILITY, _bel_int),
    "possibility": (POSSIBILITY, _poss_int),
    "necessity": (POSSIBILITY, lambda n, w: _dual_int(_poss_int(n, w))),
    "belief": (MASS, _bel_int),
    "plausibility": (MASS, lambda n, w: _dual_int(_bel_int(n, w))),
}
_DEFAULT_FLAVOR = {PROBABILITY: "probability", POSSIBILITY: "possibility", MASS: "belief"}


def _int_table(measure: Measure, flavor: Optional[str] = None) -> tuple[int, list[int]]:
    """(denominator, table) of the set function, the measure's default one
    when flavor is None: value(a) is table[a] / denominator."""
    try:
        kind, build = _SET_FUNCTIONS[_DEFAULT_FLAVOR[measure.kind]
                                     if flavor is None else flavor]
    except (KeyError, TypeError):
        raise KindMismatch(f"unknown set function {flavor!r}") from None
    _require(measure, kind)
    denom, weights = _int_weights(measure)
    return denom, build(measure.space.n, weights)


def table_for(measure: Measure, flavor: Optional[str] = None) -> tuple[Fraction, ...]:
    """Per-event value table of the requested set function."""
    denom, tab = _int_table(measure, flavor)
    return tuple(Fraction(v, denom) for v in tab)


def evaluate(measure: Measure, event: Event, flavor: Optional[str] = None) -> Fraction:
    return table_for(measure, flavor)[_bits(event, measure.space)]


@dataclass(frozen=True)
class SetFunctionTable:
    """A set function given extensionally, one exact value per event."""

    space: StateSpace
    name: str
    values: tuple[Fraction, ...]

    def __call__(self, event: Event) -> Fraction:
        return self.values[_bits(event, self.space)]


# ---------------------------------------------------------------------------
# induced orders

def relation_from_table(space: StateSpace, values: Sequence) -> ConfidenceRelation:
    """Complete preorder: A at least as confident as B iff value(A) >= value(B)."""
    return ConfidenceRelation(space, tuple(_table_rows(values)))


def _table_rows(values: Sequence) -> list[int]:
    """Weak rows of the table's order: bit b of row a iff value(a) >= value(b)."""
    order = sorted(range(len(values)), key=values.__getitem__)
    rows = [0] * len(values)
    prefix = 0
    for _, group in groupby(order, key=values.__getitem__):
        group = list(group)
        prefix |= sum(1 << a for a in group)
        for a in group:
            rows[a] = prefix
    return rows


def induce_relation(measure: Measure, flavor: Optional[str] = None) -> ConfidenceRelation:
    # integers over one denominator sort as their fractions do
    return relation_from_table(measure.space, _int_table(measure, flavor)[1])


def induce_sup_relation(measure: Measure) -> ConfidenceRelation:
    """Partial order from a possibility distribution by comparing set
    differences: A beats B when the best state of A minus B is strictly
    better than the best state of B minus A, and ties fall back to
    reverse inclusion. The strict part is self dual by construction.

    Built by possibility levels over whole rows. With U_t the states at
    level t or above and L_t those at exactly t, a >= b iff b <= a, or
    for some positive level t, b meets no state of U_t - a and misses a
    state of c = a & L_t. The b inside m = a | comp(U_t) are inclusion[m],
    and those that hold all of c are inclusion[m - c] << c (a shift
    without carries, as in _accepted), so row a is inclusion[a] ORed with
    inclusion[m] & ~(inclusion[m - c] << c) for each level where c is not
    empty."""
    _require(measure, POSSIBILITY)
    space = measure.space
    full, inclusion = space.full_mask, space.inclusion
    levels: dict[int, int] = {}
    for state, degree in _int_weights(measure)[1]:
        if degree:
            levels[degree] = levels.get(degree, 0) | state

    rows = list(inclusion)
    upper = 0
    for degree in sorted(levels, reverse=True):
        level = levels[degree]
        upper |= level
        for a in range(space.size):
            c = a & level
            if c:
                m = full & ~(upper & ~a)
                rows[a] |= inclusion[m] & ~(inclusion[m & ~c] << c)
    return ConfidenceRelation(space, tuple(rows))


# ---------------------------------------------------------------------------
# probability: the lexicographic regime

def is_big_stepped(measure: Measure) -> bool:
    """Each atom outweighs all strictly smaller ones put together; a single
    tie between the two smallest positive atoms is allowed."""
    _require(measure, PROBABILITY)
    vals = sorted((v for _, v in measure.weights if v > 0), reverse=True)
    r = len(vals)
    for i in range(r - 2):
        if not vals[i] > sum(vals[i + 1 :]):
            return False
    return True


def uniform_probability(space: StateSpace) -> Measure:
    return probability(space, [Fraction(1, space.n)] * space.n)


def descending_powers_probability(space: StateSpace) -> Measure:
    denom = (1 << space.n) - 1
    return probability(
        space, [Fraction(1 << (space.n - 1 - i), denom) for i in range(space.n)]
    )


def random_possibility(space: StateSpace, rng) -> Measure:
    """Random distribution on multiples of 1/_GRID; ties are likely."""
    while True:
        vals = [Fraction(rng.randint(0, _GRID), _GRID) for _ in range(space.n)]
        if max(vals) == _ONE:
            return possibility(space, vals)


def random_mass(space: StateSpace, rng, max_focals: int = 4) -> Measure:
    """Up to max_focals focal sets, weighed 1 to _MAX_WEIGHT, normalised."""
    full = space.full_mask
    count = rng.randint(1, min(max_focals, full))
    focal_masks = rng.sample(range(1, full + 1), count)
    weights = [rng.randint(1, _MAX_WEIGHT) for _ in focal_masks]
    total = sum(weights)
    return mass(space, {m: Fraction(w, total) for m, w in zip(focal_masks, weights)})


# ---------------------------------------------------------------------------
# context tolerance

def brute_force_ct(values: Sequence) -> bool:
    """Acceptance axiom checked directly on a value table: no disjoint
    A, B, C may have A|B above C and A|C above B yet A not above B|C.
    The table's order is complete, so T holds; where it is monotone in
    inclusion (MI) too, the kernel test on the accepted parts of each
    context decides (relations._kernels_accepted), and a table that
    fails MI is scanned for a witness triple (relations._ac_gap)."""
    size = len(values)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("table length must be a power of two")
    rows = _table_rows(values)
    inclusion = _inclusion_table(n)
    strict, above = _strict_parts(rows, _transpose(rows))
    if _mi_gap(rows, inclusion) is None:
        return _kernels_accepted(strict, inclusion)
    return _ac_gap(strict, above, inclusion) is None


def classify_acceptance_belief(measure: Measure) -> str:
    """Which structural family makes both the belief and the plausibility
    order acceptance relations. Returns one of singleton_kernel,
    nested_over_kernel, twin_singletons, or none.

    The shape is read off the kernel of the belief order's accepted
    events. The shapes are necessary but not sufficient on four or more
    states, so both orders are checked for Ac as well (brute_force_ct).
    Belief and plausibility tables are monotone, so that check takes the
    kernel route: Ac holds iff in every context where something is
    accepted, the kernel is accepted too.
    """
    full = measure.space.full_mask
    _, bel = _int_table(measure, "belief")
    focal = dict(_int_weights(measure)[1])

    inclusion = measure.space.inclusion
    # never empty: bel(full) = 1 > bel(empty) = 0 accepts the full event
    acc = _accepted(_table_rows(bel), full, inclusion)
    kern = _kernel(acc, inclusion)

    label = "none"
    if kern.bit_count() == 1 and kern in focal and focal[kern] > bel[full & ~kern]:
        label = "singleton_kernel"
    elif kern.bit_count() >= 2 and kern in focal and all(f & kern == kern for f in focal):
        label = "nested_over_kernel"
    else:
        singles = [f for f in focal if f.bit_count() == 1]
        if (
            len(singles) == 2
            and singles[0] | singles[1] == kern
            and focal[singles[0]] == focal[singles[1]]
            and all(f & kern == kern for f in focal if f not in singles)
        ):
            label = "twin_singletons"
    if label == "none":
        return "none"
    if not (brute_force_ct(bel) and brute_force_ct(_dual_int(bel))):
        return "none"
    return label


def is_context_tolerant_belief(measure: Measure) -> bool:
    """Does the belief order stay an acceptance relation in every context?

    Decided structurally from the focal layout: the minimal focals must be
    singletons (at most one non singleton is tolerated), their masses must
    descend steeply enough to dominate what remains, and at most one final
    tie between twin singletons is allowed, guarded against focals that
    dodge one twin but not the other.
    """
    full = measure.space.full_mask
    _, tab = _int_table(measure, "belief")
    focal = dict(_int_weights(measure)[1])
    fsets = sorted(focal)

    minimals = [f for f in fsets if not any(g != f and g & ~f == 0 for g in fsets)]
    non_single = [f for f in minimals if f.bit_count() > 1]
    if len(non_single) > 1:
        return False
    singles = sorted(
        (f for f in minimals if f.bit_count() == 1),
        key=lambda f: focal[f],
        reverse=True,
    )
    masses = [focal[f] for f in singles]

    def tails_ok(upto: int) -> bool:
        gone = 0
        for f in singles[:upto]:
            gone |= f
            if not focal[f] > tab[full & ~gone]:
                return False
        return True

    if all(masses[i] > masses[i + 1] for i in range(len(masses) - 1)) and tails_ok(
        len(singles)
    ):
        return True
    if (
        not non_single
        and len(singles) >= 2
        and masses[-1] == masses[-2]
        and all(masses[i] > masses[i + 1] for i in range(len(masses) - 2))
        and tails_ok(len(singles) - 2)
    ):
        u, v = singles[-2], singles[-1]
        beluv = tab[u | v]
        for f in fsets:
            if f in (u, v):
                continue
            if f & v == 0 and tab[f & ~u] < beluv:
                return False
            if f & u == 0 and tab[f & ~v] < beluv:
                return False
        return True
    return False


@dataclass(frozen=True)
class CtPlausibility:
    holds: bool
    via: str


def _matches_ranked_singletons(focal) -> bool:
    # singleton focals strictly ranked, every one outweighing all smaller
    # singletons plus every non singleton focal it does not intersect;
    # non singleton focals must form a nested chain
    singles = sorted(
        (f for f in focal if f.bit_count() == 1), key=lambda f: focal[f], reverse=True
    )
    others = [f for f in focal if f.bit_count() > 1]
    others.sort(key=lambda f: f.bit_count())
    for f, g in zip(others, others[1:]):
        if f & ~g:
            return False
    masses = [focal[f] for f in singles]
    if any(masses[i] <= masses[i + 1] for i in range(len(masses) - 1)):
        return False
    seen = 0
    for i, f in enumerate(singles):
        seen |= f
        bound = sum(masses[i + 1 :]) + sum(focal[e] for e in others if e & seen == 0)
        if not focal[f] > bound:
            return False
    return True


def _matches_kernel_satellites(focal) -> bool:
    # one minimal focal K; every other focal adds exactly one fresh state
    # to K, with steeply decreasing masses over those satellites
    fsets = sorted(focal)
    minimals = [f for f in fsets if not any(g != f and g & ~f == 0 for g in fsets)]
    if len(minimals) != 1:
        return False
    k = minimals[0]
    satellites = []
    for f in fsets:
        if f == k:
            continue
        extra = f & ~k
        if f & k != k or extra.bit_count() != 1:
            return False
        satellites.append(focal[f])
    satellites.sort(reverse=True)
    for i in range(len(satellites)):
        if not satellites[i] > sum(satellites[i + 1 :]):
            return False
    return True


def recognize_ct_plausibility(measure: Measure) -> CtPlausibility:
    """Does the plausibility order stay an acceptance relation in every
    context, and which argument certifies it. The exhaustive check
    always decides; when it holds, two structural patterns name the
    argument (via), and anything else is certified by the check itself."""
    _, pl = _int_table(measure, "plausibility")
    focal = dict(_int_weights(measure)[1])
    holds = brute_force_ct(pl)
    via = "brute_force"
    if holds:
        if _matches_ranked_singletons(focal):
            via = "example1"
        elif _matches_kernel_satellites(focal):
            via = "example2"
    return CtPlausibility(holds, via)


# ---------------------------------------------------------------------------
# conditioning

def condition_measure(measure: Measure, context: Event, rule: str, flavor=None):
    """Condition on a context. The geometric rule renormalizes the lower
    set function, the dempster rule the upper one; both return a value
    table. The qualitative rule conditions the induced order instead and
    returns a relation."""
    if context.space != measure.space:
        raise SpaceMismatch("context from a different space")
    if rule == "qualitative":
        return induce_relation(measure, flavor).condition(context)
    lower = {PROBABILITY: "probability", POSSIBILITY: "necessity", MASS: "belief"}
    upper = {PROBABILITY: "probability", POSSIBILITY: "possibility", MASS: "plausibility"}
    if rule == "geometric":
        name = lower[measure.kind]
    elif rule == "dempster":
        name = upper[measure.kind]
    else:
        raise ValueError(f"unknown conditioning rule {rule!r}")
    tab = table_for(measure, name)
    c = context.bits
    base = tab[c]
    if base == 0:
        raise ZeroDenominator(f"{name} of the context is zero")
    values = tuple(tab[a & c] / base for a in range(measure.space.size))
    return SetFunctionTable(measure.space, f"{name}|{rule}", values)
