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
    lift_strict,
    make_space,
    recompose,
    strict_order_from_chain,
)
from conftest import inclusion_relation
from oracles import linear_acceptance_rows


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
