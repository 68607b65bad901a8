import random
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confrel import (
    AXIOMS,
    ConfidenceRelation,
    SpaceMismatch,
    StrictAxiomViolation,
    TooLarge,
    accepted_set,
    all_acceptance_preorders,
    check_axiom,
    check_closure,
    close_strict_pairs,
    conditional_kernel_characterization,
    is_acceptance,
    is_acceptance_preorder,
    kernel_characterization,
    lift_strict,
    make_space,
    negligibility_chain,
    plausible_union_growth,
    strict_order_from_chain,
)
from conftest import inclusion_relation
from oracles import (
    naive_ac,
    naive_acceptance_rows,
    naive_mi,
    naive_t,
    reference_accepted,
    reference_and,
    reference_cand,
    reference_ccs,
    reference_closure,
    reference_conditional_kernel_characterization,
    reference_cs,
    reference_kernel_characterization,
    reference_lift_strict,
)


def from_table(space, values):
    rows = tuple(
        sum(1 << b for b in range(space.size) if values[a] >= values[b])
        for a in range(space.size)
    )
    return ConfidenceRelation(space, rows)


def uniform_relation(space):
    return from_table(space, [bin(a).count("1") for a in range(space.size)])


# -- axiom checkers ----------------------------------------------------------

def test_inclusion_relation_is_acceptance(s3):
    assert is_acceptance(inclusion_relation(s3))


def test_uniform_probability_order_fails_ac(s3):
    rel = uniform_relation(s3)
    t, mi, ac = is_acceptance_preorder(rel)
    assert t.holds and mi.holds
    assert not ac.holds
    a, b, c = ac.witness
    assert rel.strict(a | b, c) and rel.strict(a | c, b)
    assert not rel.strict(a, b | c)


def test_acceptance_preorder_can_fail_qual(s2):
    # reflexive, MI-closed, with {s1,s2} > {s1} > {s2}
    rel = from_table(s2, [0, 2, 1, 3])
    assert is_acceptance(rel)
    verdict = check_axiom(rel, "Qual")
    assert not verdict.holds
    a, b, c = verdict.witness
    assert (a.names(), b.names(), c.names()) == (("s1",), ("s1",), ("s2",))


def test_ir_holds_for_any_weak_matrix(s2):
    # the strict part of a weak relation is irreflexive by construction
    rel = from_table(s2, [3, 1, 4, 1])
    assert check_axiom(rel, "IR").holds


def test_readme_lists_every_axiom():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    listed = re.findall(r"^\| `(\w+)` \|", readme, flags=re.M)
    assert listed == list(AXIOMS)


def test_check_axiom_rejects_unknown_name(s2):
    with pytest.raises(KeyError):
        check_axiom(inclusion_relation(s2), "XYZ")
    assert set(AXIOMS) >= {"T", "MI", "O", "Ac", "Qual", "ADD", "SELF_DUAL"}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=4, max_size=4))
def test_checkers_match_naive_oracles_on_arbitrary_matrices(rows):
    sp = make_space(["s1", "s2"])
    rel = ConfidenceRelation(sp, tuple(rows))
    assert check_axiom(rel, "T").holds == naive_t(rows)
    assert check_axiom(rel, "MI").holds == naive_mi(rows)
    if naive_t(rows) and naive_mi(rows):
        assert check_axiom(rel, "Ac").holds == naive_ac(rows)
    assert check_axiom(rel, "SELF_DUAL").holds == (rel.dual() == rel)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=8, max_size=8))
def test_table_relations_satisfy_t_and_mi_after_monotone_repair(values):
    # tables that respect inclusion induce T+MI relations
    sp = make_space(["s1", "s2", "s3"])
    repaired = [
        max(values[b] for b in range(8) if b & ~a == 0) for a in range(8)
    ]
    rel = from_table(sp, repaired)
    assert check_axiom(rel, "T").holds
    assert check_axiom(rel, "MI").holds


# -- dual and conditioning ---------------------------------------------------

def test_dual_is_an_involution(s3):
    rel = from_table(s3, [0, 5, 2, 5, 1, 6, 3, 9])
    assert rel.dual().dual() == rel


def test_self_dual_axiom_matches_dual_equality(s2):
    rel = uniform_relation(s2)
    assert check_axiom(rel, "SELF_DUAL").holds == (rel.dual() == rel)


def test_conditioning_composes_by_intersection(s3):
    rel = from_table(s3, [0, 4, 2, 6, 1, 5, 3, 7])
    c1 = s3.event(["s1", "s2"])
    c2 = s3.event(["s2", "s3"])
    assert rel.condition(c1).condition(c2) == rel.condition(c1 & c2)
    assert rel.condition(s3.full()) == rel


def test_space_mismatch_between_relations_and_events(s2, s3):
    rel = inclusion_relation(s2)
    with pytest.raises(SpaceMismatch):
        rel.weak(s3.full(), s3.empty())


# -- lifting strict orders ---------------------------------------------------

def test_lift_strict_of_acceptance_strict_part_roundtrips(s3):
    for seed_rel in (inclusion_relation(s3), from_table(s3, [0, 1, 1, 3, 2, 4, 4, 8])):
        if not is_acceptance(seed_rel):
            continue
        pairs = {
            (a, b)
            for a in range(8) for b in range(8)
            if seed_rel.s(a, b)
        }
        lifted = lift_strict(s3, pairs)
        assert is_acceptance(lifted)
        lifted_strict = {
            (a, b)
            for a in range(8) for b in range(8)
            if lifted.s(a, b)
        }
        assert lifted_strict == pairs


def test_lift_strict_rejects_cycles(s2):
    with pytest.raises(StrictAxiomViolation) as err:
        lift_strict(s2, [(1, 2), (2, 1)])
    assert err.value.axiom == "T"
    assert tuple(e.bits for e in err.value.witness) == (1, 2, 1)


def test_lift_strict_rejects_missing_orientation_growth(s2):
    # {s1} > {} alone: O demands ({s1,s2}, {}) too
    with pytest.raises(StrictAxiomViolation) as err:
        lift_strict(s2, [(1, 0)])
    assert err.value.axiom == "O"


def test_chain_closure_produces_liftable_orders(s3):
    chain = [s3.event(["s1", "s2"]), s3.singleton("s1"), s3.empty()]
    pairs = strict_order_from_chain(s3, chain)
    rel = lift_strict(s3, pairs)
    assert is_acceptance(rel)
    assert rel.strict(s3.event(["s1", "s2"]), s3.empty())
    assert rel.strict(s3.full(), s3.singleton("s1"))


def test_close_strict_pairs_is_idempotent(s3):
    seed = [(s3.singleton("s1"), s3.empty())]
    once = close_strict_pairs(s3, seed)
    assert close_strict_pairs(s3, once) == once


# -- accepted beliefs --------------------------------------------------------

def test_lottery_accepted_set_and_closure_witness(s3):
    rel = uniform_relation(s3)
    kernel = accepted_set(rel, s3.full())
    assert {a.bits for a in kernel.accepted} == {3, 5, 6, 7}
    assert kernel.kernel.is_empty()
    assert kernel.flags == frozenset({"empty_kernel"})
    verdict = check_closure(rel, s3.full())
    assert not verdict.holds
    assert verdict.detail == "intersection"
    a, b = verdict.witness
    assert (a.bits, b.bits) == (3, 5)


def test_all_equivalent_relation_accepts_nothing(s2):
    rel = from_table(s2, [1, 1, 1, 1])
    kernel = accepted_set(rel, s2.full())
    assert kernel.accepted == ()
    assert kernel.flags == frozenset({"no_belief"})
    assert kernel_characterization(rel).holds
    assert kernel_characterization(rel).detail == "no accepted beliefs"


def test_acceptance_preorders_admit_kernel_characterizations(s3):
    # necessity degrees (x4) for the possibility profile 1, 1/2, 1/4
    rel = from_table(s3, [0, 2, 0, 3, 0, 2, 0, 4])
    assert is_acceptance(rel)
    assert kernel_characterization(rel).holds
    assert conditional_kernel_characterization(rel).holds
    assert negligibility_chain(rel).holds
    assert plausible_union_growth(rel).holds


# -- exhaustive n=2 enumeration ----------------------------------------------

def test_all_acceptance_preorders_matches_naive_enumeration(s2):
    ours = sorted(rel.rows for rel in all_acceptance_preorders(s2))
    naive = sorted(naive_acceptance_rows(4))
    assert ours == naive
    assert len(ours) == 13


def test_all_acceptance_preorders_caps_space_size(s3):
    with pytest.raises(TooLarge):
        list(all_acceptance_preorders(s3))


def test_weak_pairs_roundtrip(s2):
    rel = uniform_relation(s2)
    again = ConfidenceRelation.from_weak_pairs(s2, rel.weak_pairs())
    assert again == rel
    assert rel.is_complete()
    assert not inclusion_relation(s2).is_complete()


# -- against the per-definition loops of tests/oracles.py --------------------

def _lift_outcome(space, pairs):
    try:
        return lift_strict(space, pairs).rows, None
    except StrictAxiomViolation as err:
        return None, (err.axiom, tuple(e.bits for e in err.witness))


def test_lift_strict_matches_set_of_pairs_reference():
    rng = random.Random(31)
    outcomes = Counter()
    for trial in range(1500):
        n = 1 + trial % 3
        sp = make_space([f"s{i}" for i in range(n)])
        size = 1 << n
        if trial % 2:
            # closures of seeds with disjoint sides mostly lift; the rest
            # fail on IR (a forced cycle) or Ac
            seeds = []
            for _ in range(rng.randint(1, 3)):
                a = rng.randrange(1, size)
                seeds.append((a, rng.randrange(size) & ~a))
            pairs = {(a.bits, b.bits) for a, b in close_strict_pairs(sp, seeds)}
        else:
            drawn = [(rng.randrange(size), rng.randrange(size))
                     for _ in range(rng.randint(0, 2 * size))]
            pairs = {(a, b) for a, b in drawn if a != b or rng.random() < 0.05}
        got = _lift_outcome(sp, pairs)
        assert got == reference_lift_strict(pairs, n), (n, sorted(pairs))
        outcomes[got[1][0] if got[1] else "lifted"] += 1
    assert min(outcomes[k] for k in ("lifted", "IR", "T", "O", "Ac")) >= 20, outcomes


def _family_matrices(rng, count):
    # random weak rows, tables with ties, and tables monotone in inclusion
    for i in range(count):
        n = 1 + i % 4
        size = 1 << n
        kind = i // 4 % 3
        if kind == 0:
            yield n, tuple(rng.randrange(1 << size) for _ in range(size))
            continue
        values = [rng.randrange(3 if kind == 1 else 2 * n) for _ in range(size)]
        if kind == 2:
            values = [max(values[b] for b in range(size) if b & ~a == 0)
                      for a in range(size)]
        yield n, tuple(
            sum(1 << b for b in range(size) if values[a] >= values[b])
            for a in range(size)
        )


def _bits_of(verdict):
    return tuple(e.bits for e in verdict.witness) if verdict.witness else None


def test_acceptance_family_matches_per_definition_loops():
    outcomes = Counter()
    for n, rows in _family_matrices(random.Random(5), 1200):
        sp = make_space([f"s{i}" for i in range(n)])
        rel = ConfidenceRelation(sp, rows)
        for axiom, reference in (("CS", reference_cs), ("AND", reference_and),
                                 ("CCS", reference_ccs),
                                 ("CAND", reference_cand)):
            verdict = check_axiom(rel, axiom)
            assert _bits_of(verdict) == reference(rows), (axiom, rows)
            assert verdict.holds == (verdict.witness is None)
            outcomes[axiom, verdict.holds] += 1
        for check, reference in (
            (kernel_characterization, reference_kernel_characterization),
            (conditional_kernel_characterization,
             reference_conditional_kernel_characterization),
        ):
            verdict = check(rel)
            expected = reference(rows)
            assert verdict.holds == (expected is None), (check, rows)
            if expected is not None:
                expected = expected if isinstance(expected, tuple) else (expected,)
                assert _bits_of(verdict) == expected, (check, rows)
            outcomes[check.__name__, verdict.holds] += 1
        for c in range(sp.size):
            accepted = reference_accepted(rows, c)
            kernel = accepted_set(rel, sp.event_from_bits(c))
            assert [e.bits for e in kernel.accepted] == accepted
            kern = sp.full_mask
            for a in accepted:
                kern &= a
            assert kernel.kernel.bits == kern
            assert kernel.flags == ({"no_belief"} if not accepted else
                                    {"empty_kernel"} if kern == 0 else set())
            closure = check_closure(rel, sp.event_from_bits(c))
            expected = reference_closure(rows, c)
            if expected is None:
                assert closure.holds and closure.witness is None
            else:
                assert (closure.detail, _bits_of(closure)) == expected, (c, rows)
            outcomes["closure", closure.holds] += 1
    for name in ("CS", "AND", "CCS", "CAND", "kernel_characterization",
                 "conditional_kernel_characterization", "closure"):
        assert min(outcomes[name, True], outcomes[name, False]) >= 100, outcomes
