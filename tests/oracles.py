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
