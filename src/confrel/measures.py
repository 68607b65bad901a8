"""Numerical uncertainty measures with exact rational arithmetic.

Three kinds are supported: probability and possibility distributions
(one value per state) and mass assignments (one positive weight per focal
event, summing to one). Set functions derived from them, and the orders
those induce, are computed exactly with fractions; the recognizers below
work on integer tables over a common denominator, which keeps exhaustive
sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .core import Event, StateSpace, _bits, _triple_masks, submasks
from .errors import KindMismatch, ZeroDenominator
from .relations import ConfidenceRelation

PROBABILITY = "probability"
POSSIBILITY = "possibility"
MASS = "mass"

_ONE = Fraction(1)


def parse_rational(value) -> Fraction:
    """Exact rational from an int, a float literal, '3/10' or '0.3'."""
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, Fraction):
        return value
    return Fraction(str(value).strip())


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
        pairs.append((_bits(key), parse_rational(v)))
    pairs.sort()
    if any(m == 0 for m, _ in pairs):
        raise ValueError("the empty event cannot be focal")
    if any(m > space.full_mask for m, _ in pairs):
        raise ValueError("focal event outside the space")
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


def _pl_int(n: int, weights) -> list[int]:
    bel = _bel_int(n, weights)
    full = (1 << n) - 1
    total = bel[full]
    return [total - bel[full & ~a] for a in range(1 << n)]


def _poss_int(n: int, weights) -> list[int]:
    # weights are per-state: (1 << i, degree); an event's possibility is
    # the larger of its low state's degree and that of the rest
    w = dict(weights)
    tab = [0] * (1 << n)
    for a in range(1, 1 << n):
        tab[a] = max(tab[a & (a - 1)], w[a & -a])
    return tab


def table_for(measure: Measure, flavor: Optional[str] = None) -> tuple[Fraction, ...]:
    """Per-event value table of the requested set function."""
    if flavor is None:
        flavor = {PROBABILITY: "probability", POSSIBILITY: "possibility", MASS: "belief"}[
            measure.kind
        ]
    n = measure.space.n
    size = measure.space.size
    full = measure.space.full_mask
    if flavor == "probability":
        _require(measure, PROBABILITY)
        denom, weights = _int_weights(measure)
        tab = _bel_int(n, weights)
        return tuple(Fraction(tab[a], denom) for a in range(size))
    if flavor in ("possibility", "necessity"):
        _require(measure, POSSIBILITY)
        denom, weights = _int_weights(measure)
        tab = _poss_int(n, weights)
        if flavor == "possibility":
            return tuple(Fraction(tab[a], denom) for a in range(size))
        return tuple(Fraction(denom - tab[full & ~a], denom) for a in range(size))
    if flavor in ("belief", "plausibility"):
        _require(measure, MASS)
        denom, weights = _int_weights(measure)
        tab = _bel_int(n, weights) if flavor == "belief" else _pl_int(n, weights)
        return tuple(Fraction(tab[a], denom) for a in range(size))
    raise KindMismatch(f"unknown set function {flavor!r}")


def evaluate(measure: Measure, event: Event, flavor: Optional[str] = None) -> Fraction:
    return table_for(measure, flavor)[event.bits]


@dataclass(frozen=True)
class SetFunctionTable:
    """A set function given extensionally, one exact value per event."""

    space: StateSpace
    name: str
    values: tuple[Fraction, ...]

    def __call__(self, event: Event) -> Fraction:
        return self.values[event.bits]


# ---------------------------------------------------------------------------
# induced orders

def relation_from_table(space: StateSpace, values: Sequence) -> ConfidenceRelation:
    """Complete preorder: A at least as confident as B iff value(A) >= value(B)."""
    order = sorted(range(space.size), key=lambda a: values[a])
    rows = [0] * space.size
    prefix = 0
    i = 0
    while i < len(order):
        j = i
        group = 0
        while j < len(order) and values[order[j]] == values[order[i]]:
            group |= 1 << order[j]
            j += 1
        prefix |= group
        for a in order[i:j]:
            rows[a] = prefix
        i = j
    return ConfidenceRelation(space, tuple(rows))


def induce_relation(measure: Measure, flavor: Optional[str] = None) -> ConfidenceRelation:
    return relation_from_table(measure.space, table_for(measure, flavor))


def induce_sup_relation(measure: Measure) -> ConfidenceRelation:
    """Partial order from a possibility distribution by comparing set
    differences: A beats B when the best state of A minus B is strictly
    better than the best state of B minus A, and ties fall back to
    reverse inclusion. The strict part is self dual by construction."""
    _require(measure, POSSIBILITY)
    space = measure.space
    _, weights = _int_weights(measure)
    poss = _poss_int(space.n, weights)

    rows = [0] * space.size
    for a in range(space.size):
        row = 0
        for b in range(space.size):
            if b & ~a == 0 or poss[a & ~b] > poss[b & ~a]:
                row |= 1 << b
        rows[a] = row
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


def random_possibility(space: StateSpace, rng, denominator: int = 4) -> Measure:
    """Random grid-valued distribution; coarse grids make ties likely."""
    while True:
        vals = [Fraction(rng.randint(0, denominator), denominator) for _ in range(space.n)]
        if max(vals) == _ONE:
            return possibility(space, vals)


def random_mass(space: StateSpace, rng, max_focals: int = 4, max_weight: int = 9) -> Measure:
    full = space.full_mask
    count = rng.randint(1, min(max_focals, full))
    focal_masks = rng.sample(range(1, full + 1), count)
    weights = [rng.randint(1, max_weight) for _ in focal_masks]
    total = sum(weights)
    return mass(space, {m: Fraction(w, total) for m, w in zip(focal_masks, weights)})


# ---------------------------------------------------------------------------
# context tolerance

def brute_force_ct(values: Sequence) -> bool:
    """Acceptance axiom checked directly on a value table: no disjoint
    A, B, C may have A|B above C and A|C above B yet A not above B|C."""
    size = len(values)
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError("table length must be a power of two")
    for a, b, c in _triple_masks(size - 1):
        if (values[a | b] > values[c] and values[a | c] > values[b]
                and not values[a] > values[b | c]):
            return False
    return True


def _kernel_context_ok(n: int, tab: Sequence) -> bool:
    # in every context, whenever something is accepted the intersection of
    # everything accepted must itself be accepted
    for c in range(1 << n):
        kern = c
        any_acc = False
        for x in submasks(c):
            if tab[x] > tab[c & ~x]:
                any_acc = True
                kern &= x
        if any_acc and not tab[kern] > tab[c & ~kern]:
            return False
    return True


def classify_acceptance_belief(measure: Measure) -> str:
    """Which structural family makes both the belief and the plausibility
    order acceptance relations. Returns one of singleton_kernel,
    nested_over_kernel, twin_singletons, or none.

    The shape is read off the belief order's kernel; the shapes are
    necessary but not sufficient on four or more states, so the per
    context kernel condition is verified on both tables as well.
    """
    _require(measure, MASS)
    n = measure.space.n
    full = measure.space.full_mask
    _, weights = _int_weights(measure)
    bel = _bel_int(n, weights)
    pl = _pl_int(n, weights)
    focal = dict(weights)

    kern = full
    any_acc = False
    for a in range(1 << n):
        if bel[a] > bel[full & ~a]:
            any_acc = True
            kern &= a
    if not any_acc:
        return "none"

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
    if not (_kernel_context_ok(n, bel) and _kernel_context_ok(n, pl)):
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
    _require(measure, MASS)
    n = measure.space.n
    full = measure.space.full_mask
    _, weights = _int_weights(measure)
    tab = _bel_int(n, weights)
    focal = dict(weights)
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
    context, and which argument certifies it. Two structural patterns are
    tried first; anything else falls back to the exhaustive check."""
    _require(measure, MASS)
    n = measure.space.n
    _, weights = _int_weights(measure)
    focal = dict(weights)
    holds = brute_force_ct(_pl_int(n, weights))
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
        raise KindMismatch("context from a different space")
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
