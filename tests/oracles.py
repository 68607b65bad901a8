"""Independent recomputations the tests compare module output against.

Everything here is written from the definitions with plain set and
Fraction arithmetic, no imports from the package internals, so a bug
would have to be made twice to slip through.
"""

from fractions import Fraction
from itertools import permutations


def naive_close_pairs(pairs, full):
    """Fixpoint of the five preferential rules by whole-set recomputation."""
    pairs = set(pairs)
    while True:
        new = set(pairs)
        new |= {
            (p[0] & q[0], p[1] | q[1])
            for p in pairs for q in pairs
            if p[0] | p[1] == q[0] | q[1]
        }
        new |= {
            (p[0] | q[0], p[1] | q[1])
            for p in pairs for q in pairs
            if not (p[0] & q[1]) and not (q[0] & p[1])
        }
        new |= {
            (p[0] & q[0], p[0] & q[1])
            for p in pairs for q in pairs
            if p[0] | p[1] == q[0] | q[1]
        }
        new |= {
            (q[0], p[1] | q[1])
            for p in pairs for q in pairs
            if q[0] | q[1] == p[0]
        }
        new |= {
            (p[0] | x, p[1] & ~x)
            for p in pairs
            for x in range(1, full + 1)
            if x & ~p[1] == 0
        }
        if new == pairs:
            return pairs
        pairs = new


def naive_bel(weights, event):
    return sum(
        (v for f, v in weights if f & ~event == 0), Fraction(0)
    )


def naive_pl(weights, event):
    return sum(
        (v for f, v in weights if f & event), Fraction(0)
    )


def naive_poss(values, event):
    """Possibility of an event: the best degree among its states."""
    return max(
        (v for i, v in enumerate(values) if event >> i & 1), default=Fraction(0)
    )


def naive_sup_rows(values):
    """Weak rows of the order that compares set differences: A >= B when
    B lies inside A, or the best state of A - B beats that of B - A."""
    size = 1 << len(values)
    return tuple(
        sum(
            1 << b for b in range(size)
            if b & ~a == 0
            or naive_poss(values, a & ~b) > naive_poss(values, b & ~a)
        )
        for a in range(size)
    )


def reference_sup_rows(values):
    """The same order by one (a, b) pair per step over a table of the
    possibility of every event, each the larger of its low state's
    degree and that of the rest; faster than naive_sup_rows at n >= 9."""
    size = 1 << len(values)
    poss = [0] * size
    for a in range(1, size):
        poss[a] = max(poss[a & (a - 1)], values[(a & -a).bit_length() - 1])
    rows = []
    for a in range(size):
        row = 0
        for b in range(size):
            if b & ~a == 0 or poss[a & ~b] > poss[b & ~a]:
                row |= 1 << b
        rows.append(row)
    return tuple(rows)


def weak_holds(rows, a, b):
    return bool(rows[a] >> b & 1)


def strict_holds(rows, a, b):
    return weak_holds(rows, a, b) and not weak_holds(rows, b, a)


def naive_t(rows):
    n = len(rows)
    return all(
        weak_holds(rows, a, c)
        for a in range(n) for b in range(n) for c in range(n)
        if weak_holds(rows, a, b) and weak_holds(rows, b, c)
    )


def naive_mi(rows):
    n = len(rows)
    return all(
        weak_holds(rows, a, b)
        for a in range(n) for b in range(n)
        if b & ~a == 0
    )


def naive_ac(rows):
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if a & b or a & c or b & c:
                    continue
                if (strict_holds(rows, a | b, c)
                        and strict_holds(rows, a | c, b)
                        and not strict_holds(rows, a, b | c)):
                    return False
    return True


def naive_acceptance_rows(n_events):
    """All weak matrices over n_events events passing T, MI and Ac."""
    found = []
    for code in range(1 << (n_events * n_events)):
        rows = tuple(
            (code >> (a * n_events)) & ((1 << n_events) - 1)
            for a in range(n_events)
        )
        if naive_mi(rows) and naive_t(rows) and naive_ac(rows):
            found.append(rows)
    return found


def linear_acceptance_rows(n_events):
    """Complete antisymmetric acceptance matrices, by permutation filter."""
    found = []
    for perm in permutations(range(n_events)):
        rank = {e: i for i, e in enumerate(perm)}
        if not all(
            rank[a] >= rank[b]
            for a in range(n_events) for b in range(n_events)
            if b & ~a == 0
        ):
            continue
        rows = tuple(
            sum(1 << b for b in range(n_events) if rank[a] >= rank[b])
            for a in range(n_events)
        )
        if naive_ac(rows):
            found.append(rows)
    return found


def _context(p):
    return p[0] | p[1]


def _ascending_submasks(mask):
    return [x for x in range(mask + 1) if x & ~mask == 0]


# the four binary rules in firing order, each giving its conclusion or
# None when the premises do not fit
PAIR_RULES = (
    ("CAND", lambda p, q: (p[0] & q[0], p[1] | q[1])
     if _context(p) == _context(q) else None),
    ("OR", lambda p, q: (p[0] | q[0], p[1] | q[1])
     if not (p[0] & q[1]) and not (q[0] & p[1]) else None),
    ("CM", lambda p, q: (p[0] & q[0], p[0] & q[1])
     if _context(p) == _context(q) else None),
    ("CUT", lambda p, q: (q[0], p[1] | q[1])
     if _context(q) == p[0] else None),
)


def reference_close_p(pairs):
    """The preferential closure as a rule-major, whole-snapshot loop.

    Each round fires CAND, OR, CM and CUT over every (p, q) of the sorted
    snapshot, p outer and q inner, then RW on every p; a pair is recorded
    with the first rule and premises that give it. Once a round is done
    its new pairs join in the order they were found, and a pair with an
    empty supporting side stops the closure right after it joins.
    Returns (provenance, contradiction): provenance maps each pair, in
    insertion order, to (rule, premises).
    """
    provenance = {}
    bad = None
    for p in sorted(set(pairs)):
        provenance[p] = ("given", ())
        if p[0] == 0 and bad is None:
            bad = p
    while bad is None:
        snapshot = sorted(provenance)
        fresh = {}
        for rule, conclude in PAIR_RULES:
            for p in snapshot:
                for q in snapshot:
                    conclusion = conclude(p, q)
                    if (conclusion is not None and conclusion not in provenance
                            and conclusion not in fresh):
                        fresh[conclusion] = (rule, (p, q))
        for p in snapshot:
            for x in _ascending_submasks(p[1])[1:]:
                conclusion = (p[0] | x, p[1] & ~x)
                if conclusion not in provenance and conclusion not in fresh:
                    fresh[conclusion] = ("RW", (p,))
        if not fresh:
            break
        for pair, step in fresh.items():
            provenance[pair] = step
            if pair[0] == 0:
                bad = pair
                break
    return provenance, bad


def reference_derivation(provenance, pair):
    """Premise-first replay of a pair: each premise chain in turn, then
    the pair, every pair listed once."""
    steps = []
    seen = set()

    def walk(p):
        if p in seen:
            return
        seen.add(p)
        for parent in provenance[p][1]:
            walk(parent)
        steps.append((p, provenance[p]))

    walk(pair)
    return steps


def _unclosed_pairs(members, ordered, conclude):
    for p in ordered:
        for q in ordered:
            conclusion = conclude(p, q)
            if conclusion is not None and conclusion not in members:
                yield p, q, conclusion


def reference_roundtrip_kb(pairs):
    """First witness of each roundtrip_kb check, as pairs of masks, or
    None when the check holds; every scan runs over all pairs."""
    members = set(pairs)
    ordered = sorted(members)
    found = {
        "IR": (((e, f),) for e, f in ordered if e == f),
        "T": (((a, b), (b2, c), (a, c))
              for a, b in ordered for b2, c in ordered
              if b2 == b and a & c == 0 and (a, c) not in members),
        "O": (((a, b), (a | x, b2))
              for a, b in ordered
              for x in _ascending_submasks(b)
              for b2 in _ascending_submasks(b & ~x)
              if (a | x, b2) not in members),
        "Ac": _unclosed_pairs(members, ordered, PAIR_RULES[0][1]),
        "CP": (((e, f),) for e, f in ordered if e == 0),
    }
    return {name: next(witnesses, None) for name, witnesses in found.items()}


def reference_roundtrip_relation(rows):
    """First witness of each roundtrip_relation check on a weak matrix,
    as pairs of masks, or None when the check holds."""
    size = len(rows)
    members = {
        (a, b) for a in range(size) for b in range(size)
        if a & b == 0 and strict_holds(rows, a, b)
    }
    ordered = sorted(members)
    found = {
        rule: _unclosed_pairs(members, ordered, conclude)
        for rule, conclude in PAIR_RULES
    }
    found["RW"] = ((p, (p[0] | x, p[1] & ~x))
                   for p in ordered
                   for x in _ascending_submasks(p[1])[1:]
                   if (p[0] | x, p[1] & ~x) not in members)
    found["CP"] = (((e, f),) for e, f in ordered if e == 0)
    return {name: next(witnesses, None) for name, witnesses in found.items()}


def _disjoint_triples(subs):
    # subs[m] lists the submasks of m in ascending order
    full = len(subs) - 1
    for a in range(full + 1):
        for b in subs[full & ~a]:
            for c in subs[full & ~a & ~b]:
                yield a, b, c


def reference_ac_close(rows, forbidden, n):
    """Closure of a constrained relation one item at a time: monotony,
    transitivity sweeps, orientation growth of each committed pair over
    every superset and subset, then the acceptance axiom on a committed
    set taken before that growth. Returns (rows, forbidden, None) at the
    fixpoint, or (None, None, pair) for the first edge found both weak
    and forbidden, in this loop's order."""
    size = 1 << n
    full = size - 1
    rows = list(rows)
    forbidden = list(forbidden)
    subs = [_ascending_submasks(m) for m in range(size)]

    def commit(x, y):
        # forbid y >= x, then require x >= y
        if rows[y] >> x & 1:
            return (y, x)
        forbidden[y] |= 1 << x
        if forbidden[x] >> y & 1:
            return (x, y)
        rows[x] |= 1 << y
        return None

    changed = True
    while changed:
        changed = False
        for a in range(size):
            for b in subs[a]:
                if not rows[a] >> b & 1:
                    if forbidden[a] >> b & 1:
                        return None, None, (a, b)
                    rows[a] |= 1 << b
                    changed = True
        stable = False
        while not stable:
            stable = True
            for a in range(size):
                reach = rows[a]
                for b in range(size):
                    if rows[a] >> b & 1:
                        reach |= rows[b]
                new = reach & ~rows[a]
                if new:
                    if new & forbidden[a]:
                        bad = new & forbidden[a]
                        return None, None, (a, (bad & -bad).bit_length() - 1)
                    rows[a] = reach
                    stable = False
                    changed = True
        committed = [(x, y) for x in range(size) for y in range(size)
                     if rows[x] >> y & 1 and forbidden[y] >> x & 1]
        for x, y in committed:
            for sup in subs[full & ~x]:
                for y2 in subs[y]:
                    x2 = x | sup
                    if rows[x2] >> y2 & 1 and forbidden[y2] >> x2 & 1:
                        continue
                    pair = commit(x2, y2)
                    if pair is not None:
                        return None, None, pair
                    changed = True
        strict = set(committed)
        for a, b, c in _disjoint_triples(subs):
            if ((a | b, c) in strict and (a | c, b) in strict
                    and (a, b | c) not in strict):
                pair = commit(a, b | c)
                if pair is not None:
                    return None, None, pair
                changed = True
    return tuple(rows), tuple(forbidden), None


def reference_close_strict_pairs(seed_pairs, n):
    """Least set of mask pairs holding the seeds, closed under the O axiom
    (every superset on the left, every subset on the right) and under
    transitivity, as a set of tuples grown until a sweep adds nothing."""
    full = (1 << n) - 1
    subs = [_ascending_submasks(m) for m in range(full + 1)]
    pairs = set(seed_pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for sup in subs[full & ~a]:
                for b2 in subs[b]:
                    if (a | sup, b2) not in pairs:
                        pairs.add((a | sup, b2))
                        changed = True
        below = {}
        for b, c in pairs:
            below.setdefault(b, []).append(c)
        for a, b in list(pairs):
            for c in below.get(b, ()):
                if (a, c) not in pairs:
                    pairs.add((a, c))
                    changed = True
    return pairs


def reference_lift_strict(pairs, n):
    """lift_strict as a loop over a sorted list and a set of mask pairs:
    IR, then T over pairs x pairs, then O over each left side a, every
    superset of a, each pair (a, b) and every subset of b, then the
    acceptance axiom on disjoint triples. Returns (rows, None) with the
    lifted weak rows, or (None, (axiom, witness)) for the first
    violation."""
    full = (1 << n) - 1
    subs = [_ascending_submasks(m) for m in range(full + 1)]
    pairs = set(pairs)
    ordered = sorted(pairs)
    for a, b in ordered:
        if a == b:
            return None, ("IR", (a,))
    for a, b in ordered:
        for b2, c in ordered:
            if b2 == b and (a, c) not in pairs:
                return None, ("T", (a, b, c))
    for a in range(full + 1):
        for sup in subs[full & ~a]:
            for b in (b for a1, b in ordered if a1 == a):
                for b2 in subs[b]:
                    if (a | sup, b2) not in pairs:
                        return None, ("O", (a, a | sup, b, b2))
    for a, b, c in _disjoint_triples(subs):
        if (a | b, c) in pairs and (a | c, b) in pairs and (a, b | c) not in pairs:
            return None, ("Ac", (a, b, c))
    rows = [sum(1 << b for b in subs[a]) for a in range(full + 1)]
    for a, b in pairs:
        rows[a] |= 1 << b
    return tuple(rows), None


# the acceptance family, one loop per property as the definitions read:
# A is accepted in context C when A&C is strictly above comp(A)&C

def reference_accepted(rows, c):
    full = len(rows) - 1
    return [a for a in range(full + 1)
            if strict_holds(rows, a & c, full & ~a & c)]


def reference_cs(rows):
    full = len(rows) - 1
    for a in range(full + 1):
        if not strict_holds(rows, a, full & ~a):
            continue
        for b in _ascending_submasks(full):
            if a & ~b == 0 and not strict_holds(rows, b, full & ~b):
                return a, b
    return None


def reference_and(rows):
    full = len(rows) - 1
    for a in range(full + 1):
        if not strict_holds(rows, a, full & ~a):
            continue
        for b in range(full + 1):
            if (strict_holds(rows, b, full & ~b)
                    and not strict_holds(rows, a & b, full & ~(a & b))):
                return a, b
    return None


def reference_ccs(rows):
    full = len(rows) - 1
    for c in range(full + 1):
        for a in range(full + 1):
            if not strict_holds(rows, a & c, full & ~a & c):
                continue
            for b in range(full + 1):
                if a & ~b == 0 and not strict_holds(rows, b & c, full & ~b & c):
                    return c, a, b
    return None


def reference_cand(rows):
    full = len(rows) - 1
    for c in range(full + 1):
        for a in range(full + 1):
            if not strict_holds(rows, a & c, full & ~a & c):
                continue
            for b in range(full + 1):
                if not strict_holds(rows, b & c, full & ~b & c):
                    continue
                ab = a & b
                if not strict_holds(rows, ab & c, full & ~ab & c):
                    return c, a, b
    return None


def reference_closure(rows, c):
    """(detail, (a, b)) for the first gap in the accepted set of c: a
    superset first, then an intersection; None when it is closed."""
    full = len(rows) - 1
    acc = reference_accepted(rows, c)
    for a in acc:
        for b in range(full + 1):
            if a & ~b == 0 and b not in acc:
                return "superset", (a, b)
    for a in acc:
        for b in acc:
            if a & b not in acc:
                return "intersection", (a, b)
    return None


def _kernel_mismatch(rows, c):
    # first event whose acceptance in c differs from containing the
    # intersection of the accepted events
    acc = reference_accepted(rows, c)
    kern = len(rows) - 1
    for a in acc:
        kern &= a
    for a in range(len(rows)):
        if (a in acc) != (kern & ~a == 0):
            return a
    return None


def reference_kernel_characterization(rows):
    """None when the accepted events are exactly the supersets of their
    intersection (or nothing is accepted), else the first event off."""
    if not reference_accepted(rows, len(rows) - 1):
        return None
    return _kernel_mismatch(rows, len(rows) - 1)


def reference_conditional_kernel_characterization(rows):
    """None when every context strictly above the empty event accepts
    something and passes the kernel characterization; else (c,) for a
    context accepting nothing, or (c, a) for the first event off."""
    for c in range(len(rows)):
        if not strict_holds(rows, c, 0):
            continue
        if not reference_accepted(rows, c):
            return (c,)
        a = _kernel_mismatch(rows, c)
        if a is not None:
            return c, a
    return None


# the strict-part axioms, T, MI, dual, condition and completeness, one
# bit per step over every instance in bitmask order; each checker returns
# the first witness or None

def reference_t(rows):
    for a in range(len(rows)):
        for b in range(len(rows)):
            if not weak_holds(rows, a, b):
                continue
            for c in range(len(rows)):
                if weak_holds(rows, b, c) and not weak_holds(rows, a, c):
                    return a, b, c
    return None


def reference_mi(rows):
    """First a, then the first superset b of a, with not b >= a."""
    for a in range(len(rows)):
        for b in range(len(rows)):
            if b & a == a and not weak_holds(rows, b, a):
                return a, b
    return None


def reference_condition(rows, c):
    """A >= B given c when A&c >= B&c."""
    return tuple(
        sum(1 << b for b in range(len(rows)) if weak_holds(rows, a & c, b & c))
        for a in range(len(rows))
    )


def reference_o(rows):
    full = len(rows) - 1
    for a in range(full + 1):
        for sup in _ascending_submasks(full & ~a):
            for b in range(full + 1):
                if not strict_holds(rows, a, b):
                    continue
                for b2 in _ascending_submasks(b):
                    if not strict_holds(rows, a | sup, b2):
                        return a, a | sup, b, b2
    return None


def reference_ac(rows):
    subs = [_ascending_submasks(m) for m in range(len(rows))]
    for a, b, c in _disjoint_triples(subs):
        if (strict_holds(rows, a | b, c) and strict_holds(rows, a | c, b)
                and not strict_holds(rows, a, b | c)):
            return a, b, c
    return None


def reference_weak_and(rows):
    subs = [_ascending_submasks(m) for m in range(len(rows))]
    for a, b, c in _disjoint_triples(subs):
        if (strict_holds(rows, a | b, b)
                and not strict_holds(rows, a | b | c, b | c)):
            return a, b, c
    return None


def reference_weak_or(rows):
    subs = [_ascending_submasks(m) for m in range(len(rows))]
    for a, b, c in _disjoint_triples(subs):
        if (strict_holds(rows, a | b | c, b | c)
                and not strict_holds(rows, a | b, b)):
            return a, b, c
    return None


def _first_upward_gap(members, within):
    """First member b inside within with a superset inside within that is
    not a member, and the lowest such superset."""
    for b in _ascending_submasks(within):
        if members >> b & 1:
            for c in _ascending_submasks(within & ~b):
                if not members >> (b | c) & 1:
                    return b, b | c
    return None


def rowwise_weak_gap(rows, grows):
    """WEAK_AND (grows) or WEAK_OR read row by row: the first a whose
    members, the b disjoint from a with a|b > b (for WEAK_OR, the other b
    disjoint from a), are not an up-set inside comp(a), with the first
    (b, c) that shows it."""
    full = len(rows) - 1
    for a in range(full + 1):
        free = full & ~a
        members = sum(1 << b for b in _ascending_submasks(free)
                      if strict_holds(rows, a | b, b) == grows)
        found = _first_upward_gap(members, free)
        if found:
            b, sup = found
            return a, b, sup ^ b
    return None


def _additivity_triples(rows):
    # a disjoint from b and from c; b and c may overlap
    full = len(rows) - 1
    for a in range(full + 1):
        for b in _ascending_submasks(full & ~a):
            for c in _ascending_submasks(full & ~a):
                yield a, b, c


def reference_add(rows):
    for a, b, c in _additivity_triples(rows):
        if weak_holds(rows, a | b, a | c) != weak_holds(rows, b, c):
            return a, b, c
    return None


def reference_type_or(rows):
    for a, b, c in _additivity_triples(rows):
        if weak_holds(rows, b, c) and not weak_holds(rows, a | b, a | c):
            return a, b, c
    return None


def reference_type_and(rows):
    for a, b, c in _additivity_triples(rows):
        if weak_holds(rows, a | b, a | c) and not weak_holds(rows, b, c):
            return a, b, c
    return None


def reference_plausible_union_growth(rows):
    """First (a, b): b strictly above the empty event, a disjoint from b,
    and not a|b > a; b outer, a inner."""
    full = len(rows) - 1
    for b in range(full + 1):
        if not strict_holds(rows, b, 0):
            continue
        for a in _ascending_submasks(full & ~b):
            if not strict_holds(rows, a | b, a):
                return a, b
    return None


def reference_qual(rows):
    n = len(rows)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if (strict_holds(rows, a | b, c) and strict_holds(rows, a | c, b)
                        and not strict_holds(rows, a, b | c)):
                    return a, b, c
    return None


def reference_cp(rows):
    """First event a with the empty event strictly above it."""
    for a in range(len(rows)):
        if strict_holds(rows, 0, a):
            return (a,)
    return None


def reference_pole(rows, pole):
    """First event equivalent to the pole, its complement too."""
    full = len(rows) - 1
    for a in range(full + 1):
        if all(weak_holds(rows, e, pole) and weak_holds(rows, pole, e)
               for e in (a, full & ~a)):
            return (a,)
    return None


def reference_transpose(rows):
    """Bit a of row b when bit b of rows[a] is set."""
    return tuple(
        sum(1 << a for a in range(len(rows)) if rows[a] >> b & 1)
        for b in range(len(rows))
    )


def reference_dual(rows):
    """A >= B in the dual when comp(B) >= comp(A)."""
    full = len(rows) - 1
    return tuple(
        sum(1 << b for b in range(full + 1)
            if weak_holds(rows, full & ~b, full & ~a))
        for a in range(full + 1)
    )


def reference_self_dual(rows):
    full = len(rows) - 1
    for a in range(full + 1):
        for b in range(full + 1):
            if weak_holds(rows, a, b) != weak_holds(rows, full & ~b, full & ~a):
                return a, b
    return None


def reference_first_incomparable(rows):
    """First (a, b) in row-major order with neither a >= b nor b >= a."""
    for a in range(len(rows)):
        for b in range(len(rows)):
            if not (weak_holds(rows, a, b) or weak_holds(rows, b, a)):
                return a, b
    return None


def reference_forbidden(rows):
    """Bit a of row b when a > b: the edges a constrained relation
    forbids to keep each strict preference."""
    return tuple(
        sum(1 << a for a in range(len(rows)) if strict_holds(rows, a, b))
        for b in range(len(rows))
    )


def reference_brute_force_ct(values):
    """The acceptance axiom read off a value table: no disjoint A, B, C
    with A|B above C and A|C above B but A not above B|C."""
    subs = [_ascending_submasks(m) for m in range(len(values))]
    return not any(
        values[a | b] > values[c] and values[a | c] > values[b]
        and not values[a] > values[b | c]
        for a, b, c in _disjoint_triples(subs)
    )


def reference_kernel_in_every_context(values):
    """In every context c where some event x is accepted (values[x] above
    values[c - x]), the intersection of the accepted parts of c is
    accepted too."""
    full = len(values) - 1
    for c in range(full + 1):
        accepted = [x for x in _ascending_submasks(c)
                    if values[x] > values[c & ~x]]
        kern = c
        for x in accepted:
            kern &= x
        if accepted and not values[kern] > values[c & ~kern]:
            return False
    return True
