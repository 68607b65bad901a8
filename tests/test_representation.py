import random
from collections import Counter
from fractions import Fraction

import pytest

from confrel import (
    ConfidenceRelation,
    ConstrainedRelation,
    Contradiction,
    Family,
    NotAcceptance,
    SharedEquivalenceViolated,
    SpaceMismatch,
    StrictAxiomViolation,
    TooLarge,
    ac_close,
    all_acceptance_preorders,
    commit_strict,
    constrain,
    decompose,
    close_strict_pairs,
    induce_relation,
    induce_sup_relation,
    is_acceptance,
    lift_strict,
    make_space,
    possibility,
    random_mass,
    random_possibility,
    recompose,
    representation,
    strict_order_from_chain,
)
from confrel.core import _inclusion_rows
from confrel.relations import _strict_parts, _transpose
from conftest import inclusion_relation
from oracles import (
    linear_acceptance_rows,
    reference_ac_close,
    reference_close_strict_pairs,
)


def necessity_relation(s3):
    values = [0, 2, 0, 3, 0, 2, 0, 4]
    rows = tuple(
        sum(1 << b for b in range(8) if values[a] >= values[b]) for a in range(8)
    )
    return ConfidenceRelation(s3, rows)


def lottery_relation(s3):
    rows = tuple(
        sum(1 << b for b in range(8) if bin(a).count("1") >= bin(b).count("1"))
        for a in range(8)
    )
    return ConfidenceRelation(s3, rows)


# -- closure -----------------------------------------------------------------

def test_closure_fixes_acceptance_preorders(s3):
    # T and MI make the strict part of an acceptance preorder O-closed,
    # and Ac holds, so closing it adds nothing: decompose starts from the
    # relation as it is
    relations = [necessity_relation(s3)]
    for n in (1, 2):
        relations += all_acceptance_preorders(
            make_space([f"s{i}" for i in range(1, n + 1)]))
    rng = random.Random(15)
    kinds = Counter()
    while min(kinds[k] for k in ("induced", "sup", "lifted")) < 200:
        space = make_space([f"s{i}" for i in range(1, rng.choice((3, 4)) + 1)])
        kind = rng.choice(("induced", "sup", "lifted"))
        if kind == "induced":
            flavor = rng.choice(("belief", "plausibility", "possibility",
                                 "necessity"))
            make = (random_mass if flavor in ("belief", "plausibility")
                    else random_possibility)
            rel = induce_relation(make(space, rng), flavor)
        elif kind == "sup":
            rel = induce_sup_relation(random_possibility(space, rng))
        else:
            seeds = [(rng.randrange(space.size), rng.randrange(space.size))
                     for _ in range(rng.randint(1, 3))]
            try:
                rel = lift_strict(space, close_strict_pairs(space, seeds))
            except StrictAxiomViolation:
                continue
        if is_acceptance(rel):
            relations.append(rel)
            kinds[kind] += 1
    for rel in relations:
        assert ac_close(constrain(rel)) == constrain(rel), rel


def test_commit_propagates_orientation_growth(s2):
    cr = constrain(inclusion_relation(s2))
    grown = commit_strict(cr, s2.singleton("s1"), s2.empty())
    assert not isinstance(grown, Contradiction)
    assert grown.committed_strict(1, 0)
    assert grown.committed_strict(3, 0)
    assert not grown.committed_strict(0, 1)


def test_opposite_commitments_contradict(s2):
    cr = constrain(inclusion_relation(s2))
    a, b = s2.singleton("s1"), s2.singleton("s2")
    once = commit_strict(cr, a, b)
    assert not isinstance(once, Contradiction)
    twice = commit_strict(once, b, a)
    assert isinstance(twice, Contradiction)
    assert twice.pair == (a, b)
    # a >= b forbidden while b >= a is not weak: the clash is the
    # commitment's own edge
    forbidding = ConstrainedRelation(s2, cr.rows, (0, 1 << b.bits, 0, 0))
    assert commit_strict(forbidding, a, b) == Contradiction((a, b))


def test_commit_strict_refuses_events_of_another_space(s2):
    # the events' masks would fit the relation; their space does not
    cr = constrain(inclusion_relation(s2))
    xy = make_space(["x", "y"])
    for a, b in ((xy.singleton("x"), xy.empty()),
                 (s2.singleton("s1"), xy.empty())):
        with pytest.raises(SpaceMismatch):
            commit_strict(cr, a, b)


def test_weak_and_forbidden_edges_exclude_each_other(s2):
    with pytest.raises(ValueError):
        ConstrainedRelation(s2, (1, 3, 5, 15), (1, 0, 0, 0))


# -- decomposition -----------------------------------------------------------

def test_decompose_starts_from_the_relation_as_it_is(monkeypatch):
    # an acceptance preorder is its own closure, so the first state
    # decompose hands the closure engine is the relation's weak rows,
    # their transpose and its whole strict part, by row and by column
    real = representation._close
    for seed in ((1, 6), (3, 4), (1, 14), (4, 1), (3, 12)):
        space = make_space([f"s{i}" for i in range(1, max(seed).bit_length() + 1)])
        rel = lift_strict(space, close_strict_pairs(space, [seed]))
        first = []

        def record(state, seeds, inclusion):
            if not first:
                first.append(tuple(tuple(part) for part in state))
            return real(state, seeds, inclusion)

        monkeypatch.setattr(representation, "_close", record)
        decompose(rel)
        monkeypatch.undo()
        strict, above = _strict_parts(rel.rows, rel.cols)
        assert first == [(rel.rows, tuple(_transpose(rel.rows)),
                          tuple(strict), tuple(above))], seed


def test_decompose_and_recompose_transpose_each_relation_once(view_builds):
    # the root's cols, one per member (re-verified and compared for
    # equivalences, then compared again by recompose) and one for the
    # recomposed relation; each of these len(members) + 2 relations is
    # checked for Ac once, and passing T and MI, its kernel test
    # transposes the accepted parts once more; the members share the
    # root's space, so its inclusion table is built at most once
    for seed in ((1, 6), (3, 4), (1, 14), (4, 1), (3, 12)):
        names = [f"s{i}" for i in range(1, max(seed).bit_length() + 1)]
        built = lift_strict(make_space(names), close_strict_pairs(
            make_space(names), [seed]))
        rel = ConfidenceRelation(make_space(names), built.rows)
        view_builds.clear()
        family = decompose(rel)
        assert recompose(family) == rel, seed
        assert view_builds["transpose"] == 2 * (len(family.members) + 2), seed
        assert view_builds["inclusion"] <= 1, seed


def test_complete_relation_decomposes_to_itself(s3):
    rel = necessity_relation(s3)
    family = decompose(rel)
    assert family.members == (rel,)


def test_inclusion_order_decomposes_into_linear_orders(s2, s3):
    fam2 = decompose(inclusion_relation(s2))
    assert sorted(m.rows for m in fam2.members) == sorted(linear_acceptance_rows(4))
    assert len(fam2.members) == 2
    fam3 = decompose(inclusion_relation(s3))
    assert sorted(m.rows for m in fam3.members) == sorted(linear_acceptance_rows(8))
    assert len(fam3.members) == 12


def test_decompose_requires_acceptance(s3):
    with pytest.raises(NotAcceptance) as err:
        decompose(lottery_relation(s3))
    assert [v.axiom for v in err.value.verdicts if not v.holds] == ["Ac"]


def test_decompose_caps_space_size(s3):
    big = make_space(["s1", "s2", "s3", "s4", "s5", "s6"])
    with pytest.raises(TooLarge):
        decompose(inclusion_relation(big))
    with pytest.raises(TooLarge):
        decompose(inclusion_relation(s3), max_states=2)


# -- recomposition -----------------------------------------------------------

def test_recompose_inverts_decompose(s2, s3):
    chain = [s3.event(["s1", "s2"]), s3.singleton("s1")]
    partial = lift_strict(s3, strict_order_from_chain(s3, chain))
    for rel in (
        inclusion_relation(s2),
        inclusion_relation(s3),
        necessity_relation(s3),
        partial,
    ):
        assert recompose(decompose(rel)) == rel


def test_recompose_needs_shared_equivalences(s2):
    tied = ConfidenceRelation(s2, (1, 7, 7, 15))
    ordered = ConfidenceRelation(s2, (1, 7, 5, 15))
    with pytest.raises(SharedEquivalenceViolated) as err:
        recompose(Family(s2, (tied, ordered)))
    a, b = err.value.pair
    assert (a.bits, b.bits) == (1, 2)
    assert err.value.members == (0, 1)


def test_recompose_witness_is_first_differing_equivalence(s3):
    # member 0 ties {s1}, {s1,s3} and {s2,s3}; member 2 ties {s2} with
    # {s3} instead: the differing pairs are (1, 5), (1, 6), (5, 6) and
    # (2, 4), and the first in (a, b) order has neither the lowest b nor
    # the highest b of its row
    def by_values(values):
        return ConfidenceRelation(s3, tuple(
            sum(1 << b for b in range(8) if values[a] >= values[b])
            for a in range(8)))

    first = by_values([0, 1, 2, 3, 4, 1, 1, 7])
    other = by_values([0, 1, 2, 3, 2, 5, 6, 7])
    with pytest.raises(SharedEquivalenceViolated) as err:
        recompose(Family(s3, (first, first, other)))
    a, b = err.value.pair
    assert (a.bits, b.bits) == (1, 5)
    assert err.value.members == (0, 2)


def test_recompose_leaves_a_diagonal_only_difference_to_the_acceptance_check(s2):
    # a member without {s1} >= {s1} differs from the inclusion order only
    # on the diagonal, where no two events are equivalent; the
    # intersection then fails MI
    member = ConfidenceRelation(s2, (1, 1, 5, 15))
    with pytest.raises(NotAcceptance) as err:
        recompose(Family(s2, (inclusion_relation(s2), member)))
    assert [v.axiom for v in err.value.verdicts if not v.holds] == ["MI"]


def test_family_refuses_a_member_of_another_space(s3):
    xyz = make_space(["x", "y", "z"])
    with pytest.raises(SpaceMismatch):
        Family(s3, (inclusion_relation(s3), inclusion_relation(xyz)))


def test_recompose_rejects_empty_family(s2):
    with pytest.raises(ValueError):
        recompose(Family(s2, ()))


# -- the closure engine against its item-by-item reference -------------------

def recorded_closures(monkeypatch, run):
    """(given, closed) of every _close call that run() makes. given is
    the call's state as rows and forbidden rows with the seed commitments
    applied one at a time, as commit_strict would, and the pair that
    clashed doing so or None; closed is the engine's fixpoint as rows and
    forbidden rows, or None when it reported a clash."""
    calls = []
    real = representation._close

    def record(state, seeds, inclusion):
        rows, cols, strict, above = state
        assert cols == _transpose(rows) and strict == _transpose(above)
        rows, forbidden_in = list(rows), list(above)
        clash = None
        for x, y in seeds:
            # forbid y >= x, then require x >= y
            if rows[y] >> x & 1 or forbidden_in[x] >> y & 1:
                clash = (x, y)
                break
            forbidden_in[y] |= 1 << x
            rows[x] |= 1 << y
        result = real(state, seeds, inclusion)
        rows_out, cols_out, strict_out, above_out = state
        assert cols_out == _transpose(rows_out)
        assert strict_out == _transpose(above_out)
        closed = None
        if result is None:
            closed = (tuple(rows_out), tuple(above_out))
        calls.append(((tuple(rows), tuple(forbidden_in), clash), closed))
        return result

    monkeypatch.setattr(representation, "_close", record)
    run()
    monkeypatch.undo()
    return calls


def agrees_with_reference(n, given, closed):
    """closed, what the engine gave for given, is reference_ac_close's
    fixpoint, or both contradict; returns whether they contradicted."""
    rows, forbidden, clash = given
    if clash is None:
        rows, forbidden, clash = reference_ac_close(rows, forbidden, n)
    if clash is not None:
        assert closed is None, (given, clash)
        return True
    assert closed == (rows, forbidden), given
    return False


def test_ac_close_matches_reference_on_decompositions(monkeypatch):
    spaces = [make_space([f"s{i}" for i in range(1, k + 1)]) for k in (2, 3, 4)]
    relations = [inclusion_relation(space) for space in spaces]
    for values in (("1", "1/2", "1/2", "1/4"), ("1", "1", "1/2", "0"),
                   ("1/4", "1", "1/2", "1/2"), ("1", "1/2", "1/2"),
                   ("0", "1", "1")):
        space = spaces[len(values) - 2]
        relations.append(induce_sup_relation(
            possibility(space, [Fraction(v) for v in values])))
    for space, seed in ((spaces[1], (1, 6)), (spaces[1], (3, 4)),
                        (spaces[2], (1, 14)), (spaces[2], (4, 1)),
                        (spaces[2], (3, 12))):
        relations.append(lift_strict(space, close_strict_pairs(space, [seed])))
    count = 0
    for rel in relations:
        for given, closed in recorded_closures(monkeypatch,
                                               lambda: decompose(rel)):
            agrees_with_reference(rel.space.n, given, closed)
            count += 1
    assert count > 4000


def test_ac_close_matches_reference_on_commit_chains(monkeypatch):
    rng = random.Random(11)
    outcomes = []
    for _ in range(80):
        space = make_space([f"s{i}" for i in range(1, rng.choice((2, 3, 4)) + 1)])
        state = constrain(inclusion_relation(space))

        def chain():
            # mostly orient a random incomparable pair, as decompose
            # would in some order; now and then commit any pair at all
            nonlocal state
            for _ in range(8):
                open_pairs = [(a, b) for a in range(space.size)
                              for b in range(space.size)
                              if not (state.rows[a] >> b & 1
                                      or state.rows[b] >> a & 1)]
                if open_pairs and rng.random() < 0.8:
                    a, b = rng.choice(open_pairs)
                else:
                    a, b = rng.randrange(space.size), rng.randrange(space.size)
                step = commit_strict(state, space.event_from_bits(a),
                                     space.event_from_bits(b))
                if isinstance(step, Contradiction):
                    return
                state = step

        for given, closed in recorded_closures(monkeypatch, chain):
            outcomes.append(agrees_with_reference(space.n, given, closed))
    assert len(outcomes) > 200


def test_incremental_close_matches_commit_strict_on_any_pair():
    # the engine seeded with one pair on a closed state, as decompose
    # calls it, against commit_strict, which closes from scratch; the
    # pairs include reversed commitments, a > a and decided pairs
    rng = random.Random(14)
    clashes = fixpoints = kinds = 0
    for _ in range(60):
        space = make_space([f"s{i}" for i in range(1, rng.choice((2, 3, 4)) + 1)])
        size = space.size
        inclusion = _inclusion_rows(space.n)
        state = ac_close(constrain(inclusion_relation(space)))
        for _ in range(10):
            rows, forbidden = state.rows, state.forbidden
            pairs = {
                "open": [(a, b) for a in range(size) for b in range(size)
                         if not (rows[a] >> b & 1 or rows[b] >> a & 1)],
                "reversed": [(b, a) for a in range(size) for b in range(size)
                             if state.committed_strict(a, b)],
                "self": [(a, a) for a in range(size)],
                "decided": [(a, b) for a in range(size) for b in range(size)
                            if rows[a] >> b & 1],
            }
            kind = rng.choice([k for k, v in pairs.items() if v])
            a, b = rng.choice(pairs[kind])
            expected = commit_strict(state, space.event_from_bits(a),
                                     space.event_from_bits(b))
            engine = (list(rows), _transpose(rows), _transpose(forbidden),
                      list(forbidden))
            clash = representation._close(engine, [(a, b)], inclusion)
            kinds += kind != "open"
            if isinstance(expected, Contradiction):
                assert clash is not None, (state, a, b)
                clashes += 1
                continue
            assert clash is None, (state, a, b)
            assert (tuple(engine[0]), tuple(engine[3])) == (
                expected.rows, expected.forbidden), (state, a, b)
            fixpoints += 1
            state = expected
    assert clashes >= 50
    assert fixpoints >= 100
    assert kinds >= 200


def test_ac_close_matches_reference_on_hand_built_relations():
    rng = random.Random(12)
    outcomes = []
    uncommitted = 0
    for trial in range(400):
        space = make_space([f"s{i}" for i in range(1, rng.choice((1, 2, 3)) + 1)])
        size = space.size
        if trial % 2:
            rows = list(inclusion_relation(space).rows)
        else:
            rows = [rng.getrandbits(size) & rng.getrandbits(size)
                    for _ in range(size)]
        # forbidden bits are drawn apart from the weak edges, so some
        # stand on no weak edge at all
        forbidden = [rng.getrandbits(size) & rng.getrandbits(size)
                     & rng.getrandbits(size) & ~row for row in rows]
        if rng.random() < 0.5:
            forbidden = [f & rng.getrandbits(size) for f in forbidden]
        cr = ConstrainedRelation(space, tuple(rows), tuple(forbidden))
        closed = ac_close(cr)
        outcomes.append(agrees_with_reference(
            space.n, (cr.rows, cr.forbidden, None),
            None if isinstance(closed, Contradiction)
            else (closed.rows, closed.forbidden)))
        if not outcomes[-1]:
            uncommitted += any(
                closed.forbidden[y] >> x & 1 and not closed.rows[x] >> y & 1
                for x in range(size) for y in range(size))
    assert 50 < sum(outcomes) < 350
    assert uncommitted > 20


def test_close_commits_a_forbidden_edge_once_its_reverse_goes_weak(monkeypatch):
    # a forbidden edge whose reverse is not weak waits; once the reverse
    # goes weak the pair is committed, with its own O rectangle, in the
    # next pass of _close
    passes = []
    real = representation._close

    def record(state, seeds, inclusion):
        passes.append(list(seeds))
        return real(state, seeds, inclusion)

    monkeypatch.setattr(representation, "_close", record)
    # on three states, {s2} >= {s1} is weak, {s1} > {s3} committed and
    # {s3} >= {s2} forbidden: {s2} >= {s3} is weak by transitivity
    # before the first pass, which commits {s2} > {s3} with {s1} > {s3},
    # and so {s2,s3} > {s3}
    rows3 = list(_inclusion_rows(3))
    for a in (2, 3, 6, 7):
        rows3[a] |= rows3[1]
    rows3[1] |= 1 << 4
    forbidden3 = [0] * 8
    forbidden3[4] = 1 << 1 | 1 << 2
    # on four states, {s1} > {s4} and {s1,s3,s4} > {s2,s3,s4} are
    # committed, {s2,s3} >= {s1,s3} is weak and {s2,s4} >= {s2,s3}
    # forbidden. The first pass commits {s1,s3} > {s2,s4} by Ac, from
    # {s1,s3,s4} > {s2} and {s1,s2,s3} > {s4}, so {s2,s3} >= {s2,s4}
    # goes weak, and only a second pass commits it
    rows4 = list(_inclusion_rows(4))
    rows4[1] |= 1 << 8
    rows4[6] |= 1 << 5
    rows4[13] |= 1 << 14
    forbidden4 = [0] * 16
    forbidden4[8] = 1 << 1
    forbidden4[10] = 1 << 6
    forbidden4[14] = 1 << 13
    for n, rows, forbidden, seeded, last in (
            (3, rows3, forbidden3, [[(1, 4), (2, 4)]], (6, 4)),
            (4, rows4, forbidden4, [[(1, 8), (13, 14)], [(6, 10)]], (6, 10))):
        space = make_space([f"s{i}" for i in range(1, n + 1)])
        cr = ConstrainedRelation(space, tuple(rows), tuple(forbidden))
        passes.clear()
        closed = ac_close(cr)
        assert passes == seeded
        assert not agrees_with_reference(
            n, (cr.rows, cr.forbidden, None), (closed.rows, closed.forbidden))
        assert closed.committed_strict(*last)


def test_close_strict_pairs_matches_reference():
    rng = random.Random(13)
    cycles = 0
    for trial in range(320):
        n = 1 + trial % 5
        space = make_space([f"s{i}" for i in range(1, n + 1)])
        seeds = [(rng.randrange(space.size), rng.randrange(space.size))
                 for _ in range(rng.randint(1, 3))]
        closed = {(a.bits, b.bits) for a, b in close_strict_pairs(space, seeds)}
        assert closed == reference_close_strict_pairs(seeds, n), seeds
        cycles += any(a == b for a, b in closed)
    assert cycles > 30
