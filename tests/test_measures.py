import random
from collections import Counter
from fractions import Fraction

import pytest

from confrel import (
    CtPlausibility,
    KindMismatch,
    SpaceMismatch,
    ZeroDenominator,
    brute_force_ct,
    check_axiom,
    classify_acceptance_belief,
    condition_measure,
    descending_powers_probability,
    disjoint_pairs,
    evaluate_measure,
    induce_relation,
    induce_sup_relation,
    is_acceptance,
    is_big_stepped,
    is_context_tolerant_belief,
    make_space,
    mass,
    parse_rational,
    possibility,
    probability,
    random_mass,
    random_possibility,
    recognize_ct_plausibility,
    relation_from_table,
    table_for,
    uniform_probability,
)
from confrel import measures
from oracles import (naive_bel, naive_pl, naive_poss, naive_sup_rows,
                     reference_brute_force_ct, reference_kernel_in_every_context,
                     reference_sup_rows)

F = Fraction


def test_parse_rational_accepts_the_usual_spellings():
    assert parse_rational(1) == F(1)
    assert parse_rational(0.3) == F(3, 10)
    assert parse_rational("3/10") == F(3, 10)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(F(2, 7)) == F(2, 7)
    with pytest.raises(ValueError):
        parse_rational(True)


def test_constructor_validation(s3):
    with pytest.raises(ValueError):
        probability(s3, ["1/2", "1/2"])
    with pytest.raises(ValueError):
        probability(s3, ["1/2", "1/2", "1/2"])
    with pytest.raises(ValueError):
        possibility(s3, ["1/2", "1/4", "1/8"])
    with pytest.raises(ValueError):
        possibility(s3, [1, 1, "9/8"])
    with pytest.raises(ValueError):
        mass(s3, {0: 1})
    with pytest.raises(ValueError):
        mass(s3, {9: 1})
    with pytest.raises(ValueError):
        mass(s3, [(1, "1/2"), (1, "1/2")])
    with pytest.raises(ValueError):
        mass(s3, {1: "3/2", 2: "-1/2"})
    with pytest.raises(ValueError):
        mass(s3, {1: "1/2", 2: "1/4"})


def test_mass_accepts_event_keys(s3):
    m = mass(s3, {s3.singleton("s1"): "2/5", s3.event(["s2", "s3"]): "3/5"})
    assert m.focal_masks() == (1, 6)
    assert m.weight_of(6) == F(3, 5)
    assert m.weight_of(2) == 0


def test_belief_plausibility_duality_fixture():
    sp = make_space(["s1", "s2", "s3", "s4"])
    m = mass(sp, {sp.singleton("s1"): "2/5", sp.event(["s3", "s4"]): "3/5"})
    a = sp.event(["s1", "s2"])
    b = sp.singleton("s3")
    assert evaluate_measure(m, a, "belief") == F(2, 5)
    assert evaluate_measure(m, b, "belief") == F(0)
    assert evaluate_measure(m, a, "plausibility") == F(2, 5)
    assert evaluate_measure(m, b, "plausibility") == F(3, 5)
    # the lower order and the upper order disagree on (a, b)
    assert induce_relation(m, "belief").strict(a, b)
    assert induce_relation(m, "plausibility").strict(b, a)


def test_belief_and_plausibility_match_naive_sums(s3):
    rng = random.Random(11)
    for _ in range(60):
        m = random_mass(s3, rng)
        bel = table_for(m, "belief")
        pl = table_for(m, "plausibility")
        for ev in range(s3.size):
            assert bel[ev] == naive_bel(m.weights, ev)
            assert pl[ev] == naive_pl(m.weights, ev)
            assert pl[ev] == bel[s3.full_mask] - bel[s3.full_mask & ~ev]


def test_necessity_is_one_minus_possibility_of_complement(s3):
    m = possibility(s3, [1, "1/2", "1/4"])
    poss = table_for(m, "possibility")
    nec = table_for(m, "necessity")
    full = s3.full_mask
    assert all(nec[a] == 1 - poss[full & ~a] for a in range(s3.size))
    assert poss[0] == 0 and poss[full] == 1


def _possibility_draws(rng, n, count):
    """Distributions with zero degrees and from one to n distinct positive
    levels: k levels j/k, some states at 0, one state at 1."""
    draws = [([F(1)] + [F(0), F(1, 2), F(1, 2), F(1)] * n)[:n],
             [F(i + 1, n) for i in range(n)]]
    while len(draws) < count:
        k = rng.randint(1, n)
        if rng.random() < 0.3:
            values = [F(1 + i % k, k) for i in range(n)]
            rng.shuffle(values)
        else:
            values = [F(rng.randint(0, k), k) for _ in range(n)]
            values[rng.randrange(n)] = F(1)
        draws.append(values)
    return draws


def test_possibility_tables_and_sup_order_match_naive_max():
    # 1,042 distributions, fewer where the naive rows cost more
    rng = random.Random(5)
    outcomes = Counter()
    for n, count in ((1, 30), (2, 250), (3, 250), (4, 250), (5, 200),
                     (6, 50), (7, 12)):
        space = make_space([f"s{i}" for i in range(n)])
        full = space.full_mask
        for values in _possibility_draws(rng, n, count):
            m = possibility(space, values)
            poss = table_for(m, "possibility")
            nec = table_for(m, "necessity")
            for a in range(space.size):
                assert type(poss[a]) is F and type(nec[a]) is F
                assert poss[a] == naive_poss(values, a)
                assert nec[a] == 1 - naive_poss(values, full & ~a)
            assert induce_sup_relation(m).rows == naive_sup_rows(values), values
            outcomes["zero", F(0) in values] += 1
            outcomes["levels", len(set(values) - {F(0)})] += 1
    assert min(outcomes["zero", True], outcomes["zero", False]) >= 300, outcomes
    assert all(outcomes["levels", k] for k in range(1, 8)), outcomes
    assert all(outcomes["levels", k] >= 50 for k in range(1, 5)), outcomes


def test_sup_order_matches_the_pair_loop_at_nine_and_ten_states():
    rng = random.Random(19)
    for n in (9, 10):
        space = make_space([f"s{i}" for i in range(n)])
        for values in ([F(1 + i % 3, 3) for i in range(n)],
                       [F(rng.randint(0, n), n) for _ in range(n - 1)] + [F(1)]):
            rows = induce_sup_relation(possibility(space, values)).rows
            assert rows == reference_sup_rows(values), values
    with pytest.raises(KindMismatch):
        induce_sup_relation(uniform_probability(space))


def test_flavor_kind_mismatches(s3):
    with pytest.raises(KindMismatch):
        table_for(uniform_probability(s3), "belief")
    with pytest.raises(KindMismatch):
        table_for(mass(s3, {7: 1}), "necessity")
    with pytest.raises(KindMismatch):
        table_for(uniform_probability(s3), "entropy")
    # a flavor that is no set function's name, hashable or not
    for flavor in (1, ["belief"], {}):
        with pytest.raises(KindMismatch):
            table_for(mass(s3, {7: 1}), flavor)


def test_values_are_read_only_for_events_of_the_measure_space(s3):
    m = uniform_probability(make_space(["a", "b"]))
    table = condition_measure(m, m.space.full(), "geometric")
    for event in (s3.event(["s1", "s2"]), s3.full(), s3.empty()):
        with pytest.raises(SpaceMismatch):
            evaluate_measure(m, event)
        with pytest.raises(SpaceMismatch):
            table(event)
    a = m.space.event(["a"])
    assert evaluate_measure(m, a) == table(a) == F(1, 2)


def test_induced_orders_read_integer_tables(monkeypatch):
    # induce_relation sorts the integer table; only table_for makes
    # Fractions, so it must not run
    rng = random.Random(5)
    sp = make_space(["s1", "s2", "s3", "s4"])
    measures = [(random_possibility(sp, rng), "necessity"),
                (random_mass(sp, rng), "plausibility"),
                (uniform_probability(sp), None)]
    expected = [relation_from_table(sp, table_for(m, f)) for m, f in measures]

    def refused(*args):
        raise AssertionError("table_for called")

    monkeypatch.setattr("confrel.measures.table_for", refused)
    assert [induce_relation(m, f) for m, f in measures] == expected


def test_relation_from_table_groups_ties(s2):
    rel = relation_from_table(s2, [F(0), F(1), F(1), F(2)])
    assert rel.equivalent(s2.singleton("s1"), s2.singleton("s2"))
    assert rel.strict(s2.full(), s2.singleton("s1"))
    assert rel.is_complete()


def test_possibility_order_is_dual_to_necessity_order(s3):
    rng = random.Random(3)
    for _ in range(25):
        m = random_possibility(s3, rng)
        assert induce_relation(m, "possibility").dual() == induce_relation(
            m, "necessity"
        )


def test_sup_relation_is_self_dual_and_refines_possibility(s3):
    rng = random.Random(7)
    for _ in range(25):
        m = random_possibility(s3, rng)
        sup = induce_sup_relation(m)
        assert check_axiom(sup, "SELF_DUAL").holds
        assert is_acceptance(sup)
        pi = induce_relation(m, "possibility")
        for a, b in disjoint_pairs(s3):
            if pi.strict(a, b):
                assert sup.strict(a, b)


def test_big_stepped_recognizer():
    sp = make_space(["s1", "s2", "s3", "s4"])
    assert is_big_stepped(probability(sp, ["12/20", "5/20", "2/20", "1/20"]))
    assert is_big_stepped(probability(sp, ["12/20", "6/20", "1/20", "1/20"]))
    assert not is_big_stepped(probability(sp, ["10/20", "5/20", "4/20", "1/20"]))
    assert not is_big_stepped(probability(sp, ["12/20", "4/20", "2/20", "2/20"]))
    assert not is_big_stepped(uniform_probability(sp))
    assert is_big_stepped(descending_powers_probability(sp))
    assert is_big_stepped(uniform_probability(make_space(["s1", "s2"])))


def test_big_stepped_probability_is_context_tolerant():
    sp = make_space(["s1", "s2", "s3"])
    good = descending_powers_probability(sp)
    assert brute_force_ct(table_for(good))
    assert not brute_force_ct(table_for(uniform_probability(sp)))
    with pytest.raises(ValueError):
        brute_force_ct([0, 1, 2])


def test_brute_force_ct_matches_triple_loop(monkeypatch):
    # on a table monotone in inclusion, as the tables of measures are,
    # Ac is the kernel being accepted in every context where something
    # is, which classify_acceptance_belief relies on; there the kernel
    # test decides, and only a table that fails MI is scanned
    scans = []
    real_gap = measures._ac_gap

    def counted_gap(*args):
        scans.append(args)
        return real_gap(*args)

    monkeypatch.setattr(measures, "_ac_gap", counted_gap)
    rng = random.Random(37)
    verdicts = Counter()
    monotone = Counter()
    for i in range(5000):
        n = 1 + i % 5
        size = 1 << n
        values = [rng.randrange(1 + i % 7) for _ in range(size)]
        if i % 3 == 0:
            values = [max(values[b] for b in range(size) if b & ~a == 0)
                      for a in range(size)]
        if i % 4 == 1:
            values = [F(v, 3) for v in values]
        scans.clear()
        holds = brute_force_ct(values)
        assert holds == reference_brute_force_ct(values), values
        verdicts[holds] += 1
        mi = all(values[a] >= values[b] for a in range(size)
                 for b in range(size) if b & ~a == 0)
        assert len(scans) == (not mi), values
        if not mi:
            verdicts["scanned", holds] += 1
        if i % 3 == 0:
            assert holds == reference_kernel_in_every_context(values), values
            monotone[holds] += 1
    assert min(verdicts[True], verdicts[False]) >= 1000, verdicts
    assert min(verdicts["scanned", True], verdicts["scanned", False]) >= 300, verdicts
    assert min(monotone[True], monotone[False]) >= 300, monotone


def test_classify_acceptance_belief(s3):
    assert classify_acceptance_belief(mass(s3, {1: "3/5", 3: "2/5"})) == "singleton_kernel"
    assert classify_acceptance_belief(mass(s3, {3: "3/5", 7: "2/5"})) == "nested_over_kernel"
    assert (
        classify_acceptance_belief(mass(s3, {1: "2/5", 2: "2/5", 7: "1/5"}))
        == "twin_singletons"
    )
    lottery = mass(s3, {1: "1/3", 2: "1/3", 4: "1/3"})
    assert classify_acceptance_belief(lottery) == "none"


def test_classification_implies_acceptance_both_ways(s3):
    rng = random.Random(23)
    for _ in range(150):
        m = random_mass(s3, rng)
        label = classify_acceptance_belief(m)
        bel_ok = is_acceptance(induce_relation(m, "belief"))
        pl_ok = is_acceptance(induce_relation(m, "plausibility"))
        if label != "none":
            assert bel_ok and pl_ok


def test_context_tolerant_belief_matches_brute_force():
    rng = random.Random(29)
    spaces = [make_space([f"s{i}" for i in range(n)]) for n in (3, 4, 5, 6)]
    verdicts = Counter()
    for i in range(2000):
        m = random_mass(spaces[i % 4], rng)
        structural = is_context_tolerant_belief(m)
        assert structural == brute_force_ct(table_for(m, "belief")), m
        verdicts[m.space.n > 3, structural] += 1
    # 1,500 masses at four to six states
    assert min(verdicts[True, True], verdicts[True, False]) >= 300, verdicts


def test_ct_plausibility_via_labels(s3):
    ranked = recognize_ct_plausibility(mass(s3, {1: "4/7", 2: "2/7", 4: "1/7"}))
    assert ranked == CtPlausibility(True, "example1")
    satellites = recognize_ct_plausibility(mass(s3, {1: "3/6", 3: "2/6", 5: "1/6"}))
    assert satellites.holds and satellites.via == "example2"
    lottery = recognize_ct_plausibility(mass(s3, {1: "1/3", 2: "1/3", 4: "1/3"}))
    assert not lottery.holds and lottery.via == "brute_force"


def test_condition_measure_rules():
    sp = make_space(["s1", "s2", "s3", "s4"])
    m = mass(sp, {sp.singleton("s1"): "2/5", sp.event(["s3", "s4"]): "3/5"})
    ctx = sp.event(["s1", "s3"])
    geo = condition_measure(m, ctx, "geometric")
    assert geo.name == "belief|geometric"
    assert geo(sp.singleton("s1")) == F(1)
    dem = condition_measure(m, ctx, "dempster")
    assert dem(sp.singleton("s3")) == F(3, 5)
    assert dem(ctx) == F(1)
    qual = condition_measure(m, ctx, "qualitative")
    assert qual.condition(ctx) == qual
    with pytest.raises(ZeroDenominator):
        condition_measure(m, sp.singleton("s2"), "geometric")
    with pytest.raises(ValueError):
        condition_measure(m, ctx, "bayes")
    for rule in ("geometric", "dempster", "qualitative"):
        with pytest.raises(SpaceMismatch):
            condition_measure(m, make_space(["s1", "s2"]).full(), rule)


def test_generators_are_deterministic(s3):
    m1 = random_mass(s3, random.Random(77))
    m2 = random_mass(s3, random.Random(77))
    assert m1 == m2
    p1 = random_possibility(s3, random.Random(77))
    p2 = random_possibility(s3, random.Random(77))
    assert p1 == p2
    assert max(v for _, v in p1.weights) == 1
