import random
import re
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from itertools import product
from operator import or_
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
    constrain,
    induce_relation,
    induce_sup_relation,
    is_acceptance,
    is_acceptance_preorder,
    kernel_characterization,
    lift_strict,
    make_space,
    mass,
    negligibility_chain,
    plausible_union_growth,
    possibility,
    strict_order_from_chain,
)
from confrel import core, relations
from confrel.relations import _delta_swap, _first_incomparable, _transpose
from conftest import inclusion_relation
from oracles import (
    naive_ac,
    naive_acceptance_rows,
    naive_mi,
    naive_t,
    reference_ac,
    reference_accepted,
    reference_add,
    reference_and,
    reference_cand,
    reference_ccs,
    reference_closure,
    reference_condition,
    reference_conditional_kernel_characterization,
    reference_cp,
    reference_cs,
    reference_dual,
    reference_first_incomparable,
    reference_forbidden,
    reference_kernel_characterization,
    reference_lift_strict,
    reference_mi,
    reference_o,
    reference_plausible_union_growth,
    reference_pole,
    reference_qual,
    reference_self_dual,
    reference_t,
    reference_transpose,
    reference_type_and,
    reference_type_or,
    reference_weak_and,
    reference_weak_or,
    rowwise_weak_gap,
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
    # an event of another space is refused wherever events come in as
    # pairs, chains or focal sets, not read as a mask of this space
    one, seven = s3.event_from_bits(1), s3.event_from_bits(7)
    with pytest.raises(SpaceMismatch):
        ConfidenceRelation.from_weak_pairs(s2, [(one, seven)])
    with pytest.raises(SpaceMismatch):
        lift_strict(s2, [(seven, one)])
    with pytest.raises(SpaceMismatch):
        close_strict_pairs(s2, [(seven, one)])
    with pytest.raises(SpaceMismatch):
        strict_order_from_chain(s2, [seven, one])
    with pytest.raises(SpaceMismatch):
        mass(s3, {s2.event_from_bits(1): "1"})
    # rows are refused with a bit beyond the space's events, or negative
    with pytest.raises(ValueError):
        ConfidenceRelation.from_weak_pairs(s2, [(1, 7)])
    with pytest.raises(ValueError):
        ConfidenceRelation(s2, (1, 3, 5, 16))
    with pytest.raises(ValueError):
        ConfidenceRelation(s2, (1, 3, -1, 15))
    # and unless they are a tuple, as a relation caches its transpose
    with pytest.raises(TypeError):
        ConfidenceRelation(s2, [1, 3, 5, 15])
    # a mask outside [0, full_mask] is refused by name, not read from the
    # end of the rows or past them
    for bad in (-1, 4, 7):
        for pair in ((bad, 0), (3, bad)):
            for build in (ConfidenceRelation.from_weak_pairs, lift_strict,
                          close_strict_pairs):
                with pytest.raises(ValueError, match=f"mask {bad} out of range"):
                    build(s2, [pair])
        with pytest.raises(ValueError, match=f"mask {bad} out of range"):
            strict_order_from_chain(s2, [3, bad])
        with pytest.raises(ValueError, match=f"mask {bad} out of range"):
            mass(s2, {bad: "1"})
    # events of the space itself, and masks, still go through
    pairs = [(s2.full(), s2.empty()), (1, 0)]
    assert ConfidenceRelation.from_weak_pairs(s2, pairs).rows == (0, 1, 0, 1)
    assert mass(s2, {s2.full(): "1"}).weights == ((3, 1),)


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


def test_lift_strict_matches_set_of_pairs_reference(monkeypatch):
    # the O and Ac scans run only to find a witness: once on an input
    # that fails O, once on one that fails Ac, and never on one that lifts
    scans = Counter()
    for name in ("_o_gap", "_ac_gap"):
        def counted(*args, _real=getattr(relations, name), _name=name):
            scans[_name] += 1
            return _real(*args)
        monkeypatch.setattr(relations, name, counted)
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
        scans.clear()
        got = _lift_outcome(sp, pairs)
        assert got == reference_lift_strict(pairs, n), (n, sorted(pairs))
        failed = got[1][0] if got[1] else None
        assert (scans["_o_gap"], scans["_ac_gap"]) == (
            failed == "O", failed == "Ac"), (n, sorted(pairs))
        outcomes[failed or "lifted"] += 1
        if trial % 2 and got[1] and got[1][0] == "Ac":
            # the witness check_axiom gives on the grown weak relation
            grown = ConfidenceRelation.from_weak_pairs(
                sp, [(a, b) for a in range(size) for b in range(size)
                     if b & ~a == 0 or (a, b) in pairs])
            assert _bits_of(check_axiom(grown, "Ac")) == got[1][1]
            outcomes["grown"] += 1
    assert min(outcomes[k] for k in ("lifted", "IR", "T", "O", "Ac",
                                     "grown")) >= 20, outcomes


def _family_matrices(rng, count, kinds=3):
    # random weak rows, tables with ties, tables monotone in inclusion,
    # with kinds=4 monotone tables with a few weak bits knocked out and,
    # with kinds=5, the strict part of those (irreflexive, as lift_strict
    # checks it)
    for i in range(count):
        n = 1 + i % 4
        size = 1 << n
        kind = i // 4 % kinds
        if kind == 0:
            yield n, tuple(rng.randrange(1 << size) for _ in range(size))
            continue
        values = [rng.randrange(3 if kind == 1 else 2 * n) for _ in range(size)]
        if kind >= 2:
            values = [max(values[b] for b in range(size) if b & ~a == 0)
                      for a in range(size)]
        rows = [sum(1 << b for b in range(size) if values[a] >= values[b])
                for a in range(size)]
        if kind >= 3:
            for _ in range(rng.randint(1, 3)):
                rows[rng.randrange(size)] &= ~(1 << rng.randrange(size))
        if kind == 4:
            rows = [sum(1 << b for b in range(size)
                        if rows[a] >> b & 1 and not rows[b] >> a & 1)
                    for a in range(size)]
        yield n, tuple(rows)


def _bits_of(verdict):
    return tuple(e.bits for e in verdict.witness) if verdict.witness else None


def _kernel_matrices(rng, n):
    # random rows, reverse inclusion, and the orders of a sum (probability
    # like) and a max (possibility like) over small integer weights
    size = 1 << n
    for _ in range(3):
        yield tuple(rng.getrandbits(size) for _ in range(size))
    yield tuple(sum(1 << b for b in range(size) if b & ~a == 0)
                for a in range(size))
    weights = [rng.randrange(4) for _ in range(n)]
    for combine in (sum, lambda ws: max(ws, default=0)):
        values = [combine([w for i, w in enumerate(weights) if a >> i & 1])
                  for a in range(size)]
        yield tuple(sum(1 << b for b in range(size) if values[a] >= values[b])
                    for a in range(size))


def test_transpose_kernels_match_per_bit_loops():
    # n <= 2 packs rows narrower than a byte into byte-wide strides
    rng = random.Random(12)
    matrices = [rows for n in range(10) for rows in _kernel_matrices(rng, n)]
    matrices.append(tuple(rng.getrandbits(1 << 10) for _ in range(1 << 10)))
    for rows in matrices:
        n = len(rows).bit_length() - 1
        cols, dual = _transpose(rows), _delta_swap(rows, True)
        assert tuple(cols) == reference_transpose(rows), (n, rows)
        assert tuple(dual) == reference_dual(rows), (n, rows)
        assert tuple(_transpose(cols)) == rows, (n, rows)
        assert tuple(_delta_swap(dual, True)) == rows, (n, rows)
        if n:
            space = make_space([f"s{i}" for i in range(n)])
            assert ConfidenceRelation(space, rows).cols == tuple(cols), (n, rows)


def test_checkers_share_one_transpose_and_one_inclusion_table(view_builds):
    # on a fresh space, the checkers read the relation's cols and the
    # space's inclusion table, each built once
    space = make_space(["s1", "s2", "s3", "s4"])
    rel = from_table(space, [3 * a.bit_count() - (a & 5) for a in range(16)])
    for axiom in ("T", "MI", "O", "Ac", "CS", "AND", "ADD", "Qual", "CP",
                  "SELF_DUAL", "POSS_LIKE", "CERT_LIKE"):
        check_axiom(rel, axiom)
    assert view_builds == {"delta_swap": 1, "inclusion": 1}


def test_cached_views_leave_equality_hash_and_repr_alone(s3):
    rel = from_table(s3, [0, 1, 1, 3, 2, 4, 4, 8])
    seen = (repr(rel), hash(rel), repr(s3), hash(s3))
    is_acceptance(rel)
    assert {"cols"} <= set(vars(rel)) and {"inclusion"} <= set(vars(s3))
    fresh_space = make_space(s3.states)
    fresh = ConfidenceRelation(fresh_space, rel.rows)
    assert "inclusion" not in vars(fresh_space) and "cols" not in vars(fresh)
    assert rel == fresh and s3 == fresh_space
    assert (repr(rel), hash(rel), repr(s3), hash(s3)) == seen
    assert (repr(fresh), hash(fresh), repr(fresh_space), hash(fresh_space)) == seen


def test_acceptance_family_matches_per_definition_loops(monkeypatch):
    outcomes = Counter()
    # check_closure runs _intersection_gap only when the accepted set is
    # an up-set that is neither empty nor holds its kernel
    real_gap = relations._intersection_gap
    gap_calls = []

    def counted_gap(members, inclusion):
        gap_calls.append(members)
        return real_gap(members, inclusion)

    monkeypatch.setattr(relations, "_intersection_gap", counted_gap)
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
            gap_calls.clear()
            closure = check_closure(rel, sp.event_from_bits(c))
            if closure.detail != "superset":
                ran = bool(gap_calls)
                assert ran == (closure.detail == "intersection"), (c, rows)
                outcomes["closure by", "intersection" if ran else "kernel"] += 1
            expected = reference_closure(rows, c)
            if expected is None:
                assert closure.holds and closure.witness is None
            else:
                assert (closure.detail, _bits_of(closure)) == expected, (c, rows)
            outcomes["closure", closure.holds] += 1
    for name in ("CS", "AND", "CCS", "CAND", "kernel_characterization",
                 "conditional_kernel_characterization", "closure"):
        assert min(outcomes[name, True], outcomes[name, False]) >= 100, outcomes
    assert min(outcomes["closure by", "intersection"],
               outcomes["closure by", "kernel"]) >= 100, outcomes


def test_strict_part_checkers_match_per_bit_loops():
    outcomes = Counter()
    for n, rows in _family_matrices(random.Random(8), 1500, kinds=5):
        sp = make_space([f"s{i}" for i in range(n)])
        rel = ConfidenceRelation(sp, rows)
        for axiom, reference in (("T", reference_t), ("MI", reference_mi),
                                 ("O", reference_o), ("Ac", reference_ac),
                                 ("WEAK_AND", reference_weak_and),
                                 ("WEAK_OR", reference_weak_or),
                                 ("SELF_DUAL", reference_self_dual)):
            verdict = check_axiom(rel, axiom)
            assert _bits_of(verdict) == reference(rows), (axiom, rows)
            assert verdict.holds == (verdict.witness is None)
            outcomes[axiom, verdict.holds] += 1
        assert rel.dual().rows == reference_dual(rows), rows
        for c in range(sp.size):
            conditioned = rel.condition(sp.event_from_bits(c)).rows
            assert conditioned == reference_condition(rows, c), (c, rows)
        # decompose branches on rows that hold the diagonal; is_complete
        # ignores it
        diagonal = tuple(row | 1 << a for a, row in enumerate(rows))
        pick = reference_first_incomparable(diagonal)
        assert _first_incomparable(rows, _transpose(rows)) == pick, rows
        assert rel.is_complete() == (pick is None), rows
        outcomes["complete", pick is None] += 1
        assert constrain(rel).forbidden == reference_forbidden(rows), rows
    for name in ("T", "MI", "O", "Ac", "WEAK_AND", "WEAK_OR", "SELF_DUAL",
                 "complete"):
        assert min(outcomes[name, True], outcomes[name, False]) >= 100, outcomes


def test_row_routes_match_the_scans_on_every_two_state_matrix(s2):
    # each of the 2^16 matrices, read as a strict matrix (every strict part
    # is among them), gets the same O verdict from the row tests as from
    # the scan; Ac on each matrix that holds T and MI, where the kernel
    # test decides, agrees with the per-triple loop. T's class walk gives
    # the per-triple loop's verdict and first witness on every matrix, and
    # lift_strict its reference's outcome on every irreflexive one
    inclusion = s2.inclusion
    outcomes = Counter()
    for rows in product(range(16), repeat=4):
        o = relations._o_holds(rows, inclusion)
        assert o == (relations._o_gap(rows, inclusion) is None), rows
        outcomes["O", o] += 1
        rel = ConfidenceRelation(s2, rows)
        t = reference_t(rows)
        assert _bits_of(check_axiom(rel, "T")) == t, rows
        outcomes["T", t is None] += 1
        if not any(row >> a & 1 for a, row in enumerate(rows)):
            pairs = {(a, b) for a in range(4) for b in range(4) if rows[a] >> b & 1}
            got = _lift_outcome(s2, pairs)
            assert got == reference_lift_strict(pairs, 2), rows
            outcomes["lift", got[1][0] if got[1] else "lifted"] += 1
        if t is None and relations._mi_gap(rows, inclusion) is None:
            assert check_axiom(rel, "Ac").holds == naive_ac(rows), rows
            outcomes["T+MI"] += 1
    assert outcomes["T+MI"] == 13, outcomes
    assert min(outcomes["O", True], outcomes["O", False]) >= 100, outcomes
    assert min(outcomes["T", True], outcomes["T", False]) >= 100, outcomes
    assert sum(v for k, v in outcomes.items() if k[0] == "lift") == 4096, outcomes
    assert min(outcomes["lift", k] for k in ("lifted", "T", "O")) >= 10, outcomes


def _intersected_order(rng, n):
    # a T+MI relation: the intersection of one to three orders induced by
    # possibility, necessity, belief and plausibility
    space = make_space([f"s{k}" for k in range(n)])
    rows = None
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(4)
        if kind < 2:
            values = [F(rng.randint(0, 3), 3) for _ in range(n - 1)] + [F(1)]
            rng.shuffle(values)
            measure = possibility(space, values)
            flavor = "necessity" if kind else None
        else:
            focal = rng.sample(range(1, 1 << n), rng.randint(1, 3))
            measure = mass(space, {m: F(1, len(focal)) for m in focal})
            flavor = "plausibility" if kind == 3 else None
        induced = induce_relation(measure, flavor).rows
        rows = induced if rows is None else tuple(
            r & s for r, s in zip(rows, induced))
    return ConfidenceRelation(space, rows)


def _intersected_orders(rng, count):
    # T+MI relations at n = 3..6
    for i in range(count):
        yield _intersected_order(rng, 3 + i % 4)


def test_ac_kernel_route_matches_the_scan_on_intersected_orders(monkeypatch):
    # on T+MI relations, Ac holds exactly where the kernel test passes,
    # and the scan then runs only to find the same first witness; O by
    # rows agrees with its scan on the strict parts
    scans = []
    real_gap = relations._ac_gap

    def counted_gap(*args):
        scans.append(args)
        return real_gap(*args)

    monkeypatch.setattr(relations, "_ac_gap", counted_gap)
    outcomes = Counter()
    for rel in _intersected_orders(random.Random(41), 1200):
        assert rel.t_gap is None and check_axiom(rel, "MI").holds, rel.rows
        strict, above = relations._strict_parts(rel.rows, rel.cols)
        inclusion = rel.space.inclusion
        scans.clear()
        verdict = check_axiom(rel, "Ac")
        assert len(scans) == (not verdict.holds), rel.rows
        assert _bits_of(verdict) == real_gap(strict, above, inclusion), rel.rows
        assert relations._o_holds(strict, inclusion), rel.rows
        outcomes[rel.space.n, verdict.holds] += 1
    assert min(outcomes.values()) >= 50 and len(outcomes) == 8, outcomes


def _t_orders(rng, count):
    # (family, rows) at n = 3..6, one n = 6 in forty as the per-triple
    # loop takes 25 ms there: sup orders of possibility degrees with ties,
    # intersections of one to three induced orders, and transitive
    # closures of random rows with one set bit dropped
    for i in range(count):
        family = ("sup", "intersection", "dropped")[i % 3]
        n = 6 if i // 3 % 40 == 39 else 3 + i // 3 % 3
        if family == "sup":
            space = make_space([f"s{k}" for k in range(n)])
            values = [F(rng.randint(0, 3), 3) for _ in range(n - 1)] + [F(1)]
            rng.shuffle(values)
            yield family, induce_sup_relation(possibility(space, values)).rows
        elif family == "intersection":
            yield family, _intersected_order(rng, n).rows
        else:
            size = 1 << n
            density = rng.choice((0.02, 0.05, 0.1, 0.2))
            rows = [sum(1 << b for b in range(size) if rng.random() < density)
                    | (1 << a if rng.random() < 0.5 else 0)
                    for a in range(size)]
            for k in range(size):
                for a in range(size):
                    if rows[a] >> k & 1:
                        rows[a] |= rows[k]
            bits = [(a, b) for a in range(size) for b in range(size)
                    if rows[a] >> b & 1]
            if bits:
                a, b = rng.choice(bits)
                rows[a] &= ~(1 << b)
            yield family, tuple(rows)


def test_t_walk_matches_the_triple_loop_on_seeded_orders():
    # the class walk gives the per-triple loop's verdict and first witness
    outcomes = Counter()
    for family, rows in _t_orders(random.Random(43), 1200):
        expected = reference_t(rows)
        space = make_space([f"s{k}" for k in range(len(rows).bit_length() - 1)])
        verdict = check_axiom(ConfidenceRelation(space, rows), "T")
        assert _bits_of(verdict) == expected, (family, rows)
        outcomes[family, verdict.holds] += 1
    assert outcomes["sup", True] == outcomes["intersection", True] == 400, outcomes
    assert min(outcomes["dropped", True], outcomes["dropped", False]) >= 100, outcomes


def _measure_orders(rng):
    # possibility, necessity, sup, belief and plausibility orders at
    # n = 5..7, with ties and zero degrees
    for n in (5, 6, 7):
        space = make_space([f"s{i}" for i in range(n)])
        values = [F(rng.randint(0, 3), 3) for _ in range(n - 1)] + [F(1)]
        poss = possibility(space, values)
        yield induce_sup_relation(poss)
        yield induce_relation(poss, "necessity")
        yield induce_relation(poss)
        if n < 7:
            focal = {m: F(1, 3) for m in rng.sample(range(1, 1 << n), 3)}
            yield induce_relation(mass(space, focal))
            yield induce_relation(mass(space, focal), "plausibility")


def test_qual_cp_self_dual_and_poles_match_per_bit_loops():
    # random rows, monotone tables with weak bits knocked out and strict
    # parts at n = 1..4, none of them a preorder, and measure orders
    outcomes = Counter()
    matrices = [(n, rows) for n, rows in _family_matrices(random.Random(21), 5400,
                                                          kinds=5)
                if any(not row >> a & 1 for a, row in enumerate(rows))
                or relations._t_gap(rows) is not None]
    assert len(matrices) >= 3000
    cases = [ConfidenceRelation(make_space([f"s{i}" for i in range(n)]), rows)
             for n, rows in matrices]
    cases += _measure_orders(random.Random(22))
    axioms = ("Qual", "CP", "SELF_DUAL", "POSS_LIKE", "CERT_LIKE")
    for rel in cases:
        for axiom in axioms:
            verdict = check_axiom(rel, axiom)
            assert _bits_of(verdict) == _REFERENCES[axiom](rel.rows), (axiom, rel.rows)
            outcomes[axiom, verdict.holds] += 1
    for axiom in axioms:
        assert min(outcomes[axiom, True], outcomes[axiom, False]) >= 300, outcomes


def _additive_matrices(rng, count):
    # orders of a sum of small weights, which keep ADD, and half of them
    # with a weak bit knocked out, which break it at any instance
    for i in range(count):
        n = 1 + i % 4
        size = 1 << n
        weights = [rng.randrange(4) for _ in range(n)]
        values = [sum(w for j, w in enumerate(weights) if a >> j & 1)
                  for a in range(size)]
        rows = [sum(1 << b for b in range(size) if values[a] >= values[b])
                for a in range(size)]
        if i // 4 % 2:
            rows[rng.randrange(size)] &= ~(1 << rng.randrange(size))
        yield n, tuple(rows)


def test_additivity_family_matches_per_bit_loops():
    outcomes = Counter()
    matrices = [*_family_matrices(random.Random(9), 1500, kinds=5),
                *_additive_matrices(random.Random(10), 400)]
    for n, rows in matrices:
        sp = make_space([f"s{i}" for i in range(n)])
        rel = ConfidenceRelation(sp, rows)
        for axiom, reference in (("ADD", reference_add),
                                 ("TYPE_OR", reference_type_or),
                                 ("TYPE_AND", reference_type_and)):
            verdict = check_axiom(rel, axiom)
            assert _bits_of(verdict) == reference(rows), (axiom, rows)
            assert verdict.holds == (verdict.witness is None)
            outcomes[axiom, verdict.holds, n > 2] += 1
        verdict = plausible_union_growth(rel)
        assert _bits_of(verdict) == reference_plausible_union_growth(rows), rows
        outcomes["growth", verdict.holds, n > 2] += 1
    for name in ("ADD", "TYPE_OR", "TYPE_AND", "growth"):
        assert min(outcomes[name, holds, True] + outcomes[name, holds, False]
                   for holds in (True, False)) >= 100, outcomes
        # past two states, where a composite a could come first
        assert min(outcomes[name, holds, True]
                   for holds in (True, False)) >= 50, outcomes


def _growth_matrices(rng, count):
    # at 1 to 6 states: random rows, orders of tables with ties, of
    # possibility-like max tables (which keep WEAK_OR), of probability-like
    # sum tables (which keep WEAK_AND), and of either with a weak bit or
    # two knocked out
    for i in range(count):
        n = 1 + i % 6
        size = 1 << n
        kind = i // 6 % 5
        if kind == 0:
            yield n, tuple(rng.getrandbits(size) for _ in range(size))
            continue
        weights = [rng.randrange(1, 4) for _ in range(n)]
        picked = [[w for j, w in enumerate(weights) if a >> j & 1]
                  for a in range(size)]
        if kind == 1:
            values = [rng.randrange(3) for _ in range(size)]
        elif kind == 2 or kind == 4 and rng.random() < 0.5:
            values = [max(p, default=0) for p in picked]
        else:
            values = [sum(p) for p in picked]
        rows = [sum(1 << b for b in range(size) if values[a] >= values[b])
                for a in range(size)]
        if kind == 4:
            for _ in range(rng.randint(1, 2)):
                rows[rng.randrange(size)] &= ~(1 << rng.randrange(size))
        yield n, tuple(rows)


def test_growth_axioms_match_row_by_row_and_per_bit_loops():
    # WEAK_AND, WEAK_OR and plausible union growth read the shear rows
    # of one transpose; the row-by-row reading of their transpose and
    # the triple loops must give the same first witness
    outcomes = Counter()
    for n, rows in _growth_matrices(random.Random(11), 2100):
        rel = ConfidenceRelation(make_space([f"s{i}" for i in range(n)]), rows)
        for axiom, grows, reference in (("WEAK_AND", True, reference_weak_and),
                                        ("WEAK_OR", False, reference_weak_or)):
            found = _bits_of(check_axiom(rel, axiom))
            assert found == rowwise_weak_gap(rows, grows), (axiom, rows)
            assert found == reference(rows), (axiom, rows)
            outcomes[axiom, found is None, n > 4] += 1
        found = _bits_of(plausible_union_growth(rel))
        assert found == reference_plausible_union_growth(rows), rows
        outcomes["growth", found is None, n > 4] += 1
    for name in ("WEAK_AND", "WEAK_OR", "growth"):
        for holds in (True, False):
            assert outcomes[name, holds, False] >= 100, outcomes
            assert outcomes[name, holds, True] >= 50, outcomes


def _violated(rel, axiom, witness):
    """Does the witness break its axiom, read through rel.w and rel.s?"""
    full = rel.space.full_mask
    W, S = rel.w, rel.s

    def accepted(a, c=full):
        return S(a & c, full & ~a & c)

    def disjoint(*masks):
        return sum(masks) == reduce(or_, masks)

    def pole(a, p):
        return all(W(e, p) and W(p, e) for e in (a, full & ~a))

    return {
        "T": lambda a, b, c: W(a, b) and W(b, c) and not W(a, c),
        "MI": lambda a, b: a & ~b == 0 and not W(b, a),
        "O": lambda a, a2, b, b2: (S(a, b) and a & ~a2 == 0 and b2 & ~b == 0
                                   and not S(a2, b2)),
        "IR": lambda a: S(a, a),
        "Ac": lambda a, b, c: (disjoint(a, b, c) and S(a | b, c)
                               and S(a | c, b) and not S(a, b | c)),
        "Qual": lambda a, b, c: S(a | b, c) and S(a | c, b) and not S(a, b | c),
        "CP": lambda a: S(0, a),
        "CS": lambda a, b: accepted(a) and a & ~b == 0 and not accepted(b),
        "AND": lambda a, b: accepted(a) and accepted(b) and not accepted(a & b),
        "CCS": lambda c, a, b: (accepted(a, c) and a & ~b == 0
                                and not accepted(b, c)),
        "CAND": lambda c, a, b: (accepted(a, c) and accepted(b, c)
                                 and not accepted(a & b, c)),
        "ADD": lambda a, b, c: (disjoint(a, b) and disjoint(a, c)
                                and W(a | b, a | c) != W(b, c)),
        "TYPE_OR": lambda a, b, c: (disjoint(a, b) and disjoint(a, c)
                                    and W(b, c) and not W(a | b, a | c)),
        "TYPE_AND": lambda a, b, c: (disjoint(a, b) and disjoint(a, c)
                                     and W(a | b, a | c) and not W(b, c)),
        "WEAK_AND": lambda a, b, c: (disjoint(a, b, c) and S(a | b, b)
                                     and not S(a | b | c, b | c)),
        "WEAK_OR": lambda a, b, c: (disjoint(a, b, c) and S(a | b | c, b | c)
                                    and not S(a | b, b)),
        "SELF_DUAL": lambda a, b: W(a, b) != W(full & ~b, full & ~a),
        "POSS_LIKE": lambda a: pole(a, 0),
        "CERT_LIKE": lambda a: pole(a, full),
    }[axiom](*witness)


_REFERENCES = {
    "T": reference_t, "MI": reference_mi, "O": reference_o,
    "Ac": reference_ac, "Qual": reference_qual, "CP": reference_cp,
    "CS": reference_cs, "AND": reference_and, "CCS": reference_ccs,
    "CAND": reference_cand, "ADD": reference_add,
    "TYPE_OR": reference_type_or, "TYPE_AND": reference_type_and,
    "WEAK_AND": reference_weak_and, "WEAK_OR": reference_weak_or,
    "SELF_DUAL": reference_self_dual,
    "POSS_LIKE": lambda rows: reference_pole(rows, 0),
    "CERT_LIKE": lambda rows: reference_pole(rows, len(rows) - 1),
}


def _check_every_axiom(rel):
    for axiom in AXIOMS:
        verdict = check_axiom(rel, axiom)
        assert verdict.holds == (verdict.witness is None), (axiom, rel.rows)
        if axiom in _REFERENCES:
            assert _bits_of(verdict) == _REFERENCES[axiom](rel.rows), (
                axiom, rel.rows)
        if not verdict.holds:
            assert _violated(rel, axiom, _bits_of(verdict)), (axiom, rel.rows)
        yield axiom, verdict


def test_every_axiom_at_one_and_two_states(s2):
    s1 = make_space(["s1"])
    rng = random.Random(11)
    relations = [ConfidenceRelation(s1, (r0, r1))
                 for r0 in range(4) for r1 in range(4)]
    relations += [ConfidenceRelation(s2, tuple(rng.randrange(16)
                                               for _ in range(4)))
                  for _ in range(400)]
    relations += list(all_acceptance_preorders(s2))
    outcomes = Counter()
    for rel in relations:
        for axiom, verdict in _check_every_axiom(rel):
            outcomes[axiom, verdict.holds] += 1
    # IR holds for every relation, and Ac, AND and CAND need three states
    # to fail; each other axiom both holds and fails
    never_fail = {"IR", "Ac", "AND", "CAND"}
    assert not any(outcomes[axiom, False] for axiom in never_fail), outcomes
    assert min(outcomes[axiom, holds] for axiom in AXIOMS
               if axiom not in never_fail
               for holds in (True, False)) >= 10, outcomes


def test_witnesses_led_by_the_full_event(s2):
    # each first witness starts at the full event, where nothing is left
    # outside it: a one-state space for the additivity family, and two
    # states for O (full > {s1} but not full > {}) and MI (full >= full
    # missing)
    s1 = make_space(["s1"])
    cases = [
        (ConfidenceRelation(s1, (0b01, 0b01)), ("ADD", "TYPE_OR")),
        (ConfidenceRelation(s1, (0b00, 0b11)), ("ADD", "TYPE_AND")),
        (ConfidenceRelation(s2, (0b1111, 0b0111, 0b0111, 0b1111)), ("O",)),
        (ConfidenceRelation(s2, (0b0001, 0b0011, 0b0101, 0b0111)), ("MI",)),
    ]
    for rel, axioms in cases:
        verdicts = dict(_check_every_axiom(rel))
        for axiom in axioms:
            witness = _bits_of(verdicts[axiom])
            assert witness and witness[0] == rel.space.full_mask, (axiom, witness)
