import random
from fractions import Fraction

import pytest

from confrel import (
    ConfidenceRelation,
    ConstrainedRelation,
    Contradiction,
    Family,
    NotAcceptance,
    SharedEquivalenceViolated,
    TooLarge,
    ac_close,
    commit_strict,
    constrain,
    decompose,
    close_strict_pairs,
    induce_sup_relation,
    lift_strict,
    make_space,
    possibility,
    recompose,
    representation,
    strict_order_from_chain,
)
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
    rel = necessity_relation(s3)
    closed = ac_close(constrain(rel))
    assert closed.rows == rel.rows


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


def test_weak_and_forbidden_edges_exclude_each_other(s2):
    with pytest.raises(ValueError):
        ConstrainedRelation(s2, (1, 3, 5, 15), (1, 0, 0, 0))


# -- decomposition -----------------------------------------------------------

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
    with pytest.raises(ValueError):
        decompose(inclusion_relation(s3), mode="best")


def test_maximal_mode_agrees_with_all(s3):
    for rel in (inclusion_relation(s3), necessity_relation(s3)):
        assert decompose(rel, mode="maximal") == decompose(rel, mode="all")


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


def test_recompose_rejects_empty_family(s2):
    with pytest.raises(ValueError):
        recompose(Family(s2, ()))


# -- the closure engine against its item-by-item reference -------------------

def recorded_closures(monkeypatch, run):
    """(input, result) of every ac_close call that run() makes."""
    calls = []
    real = representation.ac_close

    def record(cr):
        calls.append((cr, real(cr)))
        return calls[-1][1]

    monkeypatch.setattr(representation, "ac_close", record)
    run()
    monkeypatch.undo()
    return calls


def agrees_with_reference(cr, closed):
    """closed, what ac_close(cr) gave, is reference_ac_close's fixpoint,
    or both contradict; returns whether they contradicted."""
    rows, forbidden, clash = reference_ac_close(cr.rows, cr.forbidden,
                                                cr.space.n)
    if clash is not None:
        assert isinstance(closed, Contradiction), (cr, clash)
        return True
    assert not isinstance(closed, Contradiction), (cr, closed)
    assert (closed.rows, closed.forbidden) == (rows, forbidden), cr
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
        for cr, closed in recorded_closures(monkeypatch,
                                            lambda: decompose(rel)):
            agrees_with_reference(cr, closed)
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

        for cr, closed in recorded_closures(monkeypatch, chain):
            outcomes.append(agrees_with_reference(cr, closed))
    assert len(outcomes) > 200


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
        outcomes.append(agrees_with_reference(cr, closed))
        if not outcomes[-1]:
            uncommitted += any(
                closed.forbidden[y] >> x & 1 and not closed.rows[x] >> y & 1
                for x in range(size) for y in range(size))
    assert 50 < sum(outcomes) < 350
    assert uncommitted > 20


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
