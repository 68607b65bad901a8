import random
from itertools import permutations, product

import pytest

from confrel import (
    AtomUniverse,
    Conditional,
    ConfidenceRelation,
    EmptyAntecedent,
    LabelledSpace,
    ReflexiveAssertion,
    SpaceMismatch,
    close_p,
    conditional_from_formulas,
    entails,
    make_base,
    make_space,
    roundtrip_check,
    strict_disjoint_pairs,
)
from confrel.preferential import rule_cand, rule_cm, rule_cut, rule_or, rule_rw
from oracles import (
    naive_close_pairs,
    reference_close_p,
    reference_derivation,
    reference_roundtrip_kb,
    reference_roundtrip_relation,
)


def penguin_base():
    u = AtomUniverse(["b", "f", "p"])
    conds = [
        conditional_from_formulas(u, "b", "f"),
        conditional_from_formulas(u, "p", "b"),
        conditional_from_formulas(u, "p", "!f"),
    ]
    return u, make_base(u.space, conds)


# -- building conditionals ---------------------------------------------------

def test_conditional_from_formulas_normalizes():
    u = AtomUniverse(["b", "f"])
    c = conditional_from_formulas(u, "b", "f")
    assert c.supporting == u.models("b & f")
    assert c.violating == u.models("b & !f")
    assert c.context == u.models("b")


def test_conditional_rejects_degenerate_inputs():
    u = AtomUniverse(["b", "f"])
    with pytest.raises(EmptyAntecedent):
        conditional_from_formulas(u, "b & !b", "f")
    with pytest.raises(ReflexiveAssertion):
        conditional_from_formulas(u, "b & f", "f")
    trivial = conditional_from_formulas(u, "b & f", "f", allow_trivial=True)
    assert trivial.violating.is_empty()
    with pytest.raises(ValueError):
        Conditional(u.models("b"), u.models("b"))


# -- the closure -------------------------------------------------------------

def test_penguin_closure_matches_naive_oracle():
    u, base = penguin_base()
    closed = close_p(base)
    assert closed.closed and closed.consistent
    naive = naive_close_pairs(base.pairs, u.space.full_mask)
    assert set(closed.pairs) == naive
    assert len(closed.pairs) == 108


def test_penguin_entailments():
    u, base = penguin_base()
    assert entails(base, conditional_from_formulas(u, "p", "!f"))
    assert not entails(base, conditional_from_formulas(u, "p", "f"))
    assert entails(base, conditional_from_formulas(u, "b & p", "!f"))
    with pytest.raises(EmptyAntecedent):
        entails(base, conditional_from_formulas(u, "f & !f", "b", allow_trivial=True))


# raw pairs that are not two disjoint masks of a 3-state space: halves
# that overlap, masks out of range (a negative one would keep the closure's
# submask loop from ending), and entries that are no pair of ints
@pytest.mark.parametrize("pair", [
    (3, 1), (1, 16), (8, 0), (1, -2), (-1, 0), (1,), (1, 2, 4), ("1", 2),
    (1.0, 2), (None, 0),
])
def test_make_base_refuses_malformed_raw_pairs(s3, pair):
    # make_base alone must raise: no closure of a malformed base is tried
    with pytest.raises(ValueError):
        make_base(s3, [(1, 2), pair])


def test_make_base_and_entails_refuse_other_spaces():
    small = AtomUniverse(["a", "b"])
    u, base = penguin_base()
    foreign = conditional_from_formulas(small, "a", "b")
    with pytest.raises(SpaceMismatch):
        make_base(u.space, [conditional_from_formulas(u, "b", "f"), foreign])
    with pytest.raises(SpaceMismatch):
        entails(base, foreign)
    with pytest.raises(SpaceMismatch):
        entails(close_p(base), foreign)
    # raw pairs over the full range, and the empty supporting side, pass
    assert make_base(u.space, [(255, 0), (0, 1)]).pairs == ((0, 1), (255, 0))
    # valuation spaces over other atoms of the same count differ too
    bf, pq = AtomUniverse(["b", "f"]), AtomUniverse(["p", "q"])
    assert bf.space.states == pq.space.states and bf.space != pq.space
    assert bf.space == AtomUniverse(["b", "f"]).space
    base = make_base(bf.space, [conditional_from_formulas(bf, "b", "f")])
    with pytest.raises(SpaceMismatch):
        entails(base, conditional_from_formulas(pq, "p", "q"))
    assert entails(base, conditional_from_formulas(bf, "b", "f"))
    # and so do declared states with the same names but other labels
    a = LabelledSpace(["w1", "w2"], ["p", "q"], {"w1": ["p", "q"], "w2": ["p"]})
    b = LabelledSpace(["w1", "w2"], ["p", "q"], {"w1": ["p"], "w2": ["p", "q"]})
    assert a.space.states == b.space.states and a.space != b.space
    assert a.space == LabelledSpace(["w1", "w2"], ["p", "q"],
                                    {"w2": ["p"], "w1": ["q", "p"]}).space
    closed = close_p(make_base(a.space, [conditional_from_formulas(a, "p", "q")]))
    with pytest.raises(SpaceMismatch):
        entails(closed, conditional_from_formulas(b, "p", "!q"))
    assert entails(closed, conditional_from_formulas(a, "p", "q"))


def test_derivations_replay():
    _, base = penguin_base()
    closed = close_p(base)
    rules = {"CAND": rule_cand, "OR": rule_or, "CM": rule_cm, "CUT": rule_cut}
    for pair, prov in closed.provenance.items():
        if prov.rule == "given":
            assert prov.premises == ()
            assert pair in base.pairs
        elif prov.rule == "RW":
            assert pair in set(rule_rw(*prov.premises))
        else:
            assert rules[prov.rule](*prov.premises) == pair
    steps = closed.derivation(closed.pairs[0])
    seen = set()
    for pair, prov in steps:
        assert all(p in seen for p in prov.premises)
        seen.add(pair)
    with pytest.raises(KeyError):
        closed.derivation((5, 2))


def test_close_p_is_idempotent_and_monotone():
    _, base = penguin_base()
    closed = close_p(base)
    assert close_p(closed) is closed
    assert set(base.pairs) <= set(closed.pairs)


def test_contradictory_base_is_flagged():
    u = AtomUniverse(["a", "b"])
    base = make_base(
        u.space,
        [
            conditional_from_formulas(u, "b", "a"),
            conditional_from_formulas(u, "b", "!a"),
        ],
    )
    closed = close_p(base)
    assert not closed.consistent
    assert closed.contradiction is not None
    assert closed.contradiction[0] == 0
    # entailment on an inconsistent base stays plain membership
    assert entails(closed, conditional_from_formulas(u, "b", "a"))


def _random_pair(rng, full):
    """A disjoint pair with a non-empty supporting side."""
    context = rng.randint(1, full)
    supporting = rng.randint(1, full) & context or context & -context
    return supporting, context & ~supporting


def _rival(rng, full, pair):
    """A pair whose supporting side lies in the violating side of `pair`,
    which often makes the base inconsistent a few rounds in."""
    e, f = pair
    x = rng.randint(1, full) & f or f or e
    return x, rng.randint(0, full) & ~x


def _random_literal(rng, atoms):
    return rng.choice(("", "!")) + rng.choice(atoms)


def seeded_bases(count, seed=1990):
    """Seeded bases: random event pairs over 2 atoms, 2 pairs over 3
    atoms for one base in eight (their closures cost the most), and
    literal rules over labelled spaces of 3 to 6 states. Half the atom
    bases pair their first rule with a rival."""
    rng = random.Random(seed)
    bases = []
    while len(bases) < count:
        if len(bases) % 8 == 0 or len(bases) % 2:
            three = len(bases) % 8 == 0
            space = AtomUniverse(["a", "b", "c"] if three else ["a", "b"]).space
            full = space.full_mask
            pairs = [_random_pair(rng, full)
                     for _ in range(1 if three else rng.randint(1, 3))]
            if rng.random() < 0.5:
                pairs.append(_rival(rng, full, pairs[0]))
            elif three:
                pairs.append(_random_pair(rng, full))
            bases.append(make_base(space, pairs))
            continue
        states = [f"w{i}" for i in range(rng.randint(3, 6))]
        atoms = ["a", "b", "c"]
        labels = {s: [a for a in atoms if rng.random() < 0.5] for s in states}
        universe = LabelledSpace(states, atoms, labels)
        conds = []
        for _ in range(rng.randint(1, 3)):
            try:
                conds.append(conditional_from_formulas(
                    universe, _random_literal(rng, atoms),
                    _random_literal(rng, atoms)))
            except (EmptyAntecedent, ReflexiveAssertion):
                pass
        if conds:
            bases.append(make_base(universe.space, conds))
    return bases


# the rule shapes of the template rule bases, over atom roles x, y, z; a
# leading '!' negates the role
TEMPLATE_SHAPES = {
    "penguin": (("y", "z"), ("x", "y"), ("x", "!z")),
    "chain": (("x", "y"), ("y", "z")),
    "cycle": (("x", "y"), ("y", "z"), ("z", "!x")),
    "conjunctive": (("x & y", "z"), ("x", "!y")),
    "disjunctive": (("x | y", "z"), ("z", "x")),
    "inconsistent": (("x", "y"), ("x", "!y"), ("z", "x")),
}


def template_bases(per_shape=8, seed=2013):
    """Each template shape under `per_shape` distinct seeded assignments
    of the roles to the atoms a, b, c with seeded polarity flips, then
    under two more over labelled spaces of 7 and of 8 valuations in
    seeded order. Rules a labelled space makes vacuous are left out."""
    rng = random.Random(seed)
    atoms = ["a", "b", "c"]
    variants = list(product(permutations(atoms), product((False, True),
                                                         repeat=3)))
    bases = []
    for shape in TEMPLATE_SHAPES.values():
        for k, (order, flips) in enumerate(rng.sample(variants,
                                                      per_shape + 2)):
            role = dict(zip("xyz", order))
            flip = dict(zip(atoms, flips))

            def side(text):
                for op in (" & ", " | "):
                    if op in text:
                        return op.join(side(part) for part in text.split(op))
                atom = role[text.lstrip("!")]
                return ("!" if text.startswith("!") != flip[atom] else "") + atom

            if k < per_shape:
                universe = AtomUniverse(atoms)
            else:
                picked = rng.sample(range(8), 7 + k - per_shape)
                labels = {f"w{i}": [a for j, a in enumerate(atoms) if v >> j & 1]
                          for i, v in enumerate(picked)}
                universe = LabelledSpace(list(labels), atoms, labels)
            conds = []
            for ante, cons in shape:
                try:
                    conds.append(conditional_from_formulas(
                        universe, side(ante), side(cons)))
                except (EmptyAntecedent, ReflexiveAssertion):
                    pass
            bases.append(make_base(universe.space, conds))
    return bases


def _steps(chain):
    return [(pair, (prov.rule, prov.premises)) for pair, prov in chain]


def test_close_p_matches_whole_snapshot_reference():
    outcomes = {"consistent": 0, "given": 0, "derived": 0}
    for base in seeded_bases(240) + template_bases():
        closed = close_p(base)
        provenance, bad = reference_close_p(base.pairs)
        assert closed.pairs == tuple(sorted(provenance))
        assert _steps(closed.provenance.items()) == list(provenance.items())
        assert closed.consistent == (bad is None)
        assert closed.contradiction == bad
        for pair in closed.pairs:
            assert _steps(closed.derivation(pair)) == reference_derivation(
                provenance, pair)
        outcomes["consistent" if closed.consistent
                 else "given" if bad in base.pairs else "derived"] += 1
    # every outcome, partial closures included, is well represented
    assert min(outcomes.values()) >= 25


def _masks(witness):
    return None if witness is None else tuple(
        (e.bits, f.bits) for e, f in witness)


def test_roundtrip_matches_all_pairs_reference(s3):
    for base in seeded_bases(60, seed=7):
        closed = close_p(base)
        expected = reference_roundtrip_kb(closed.pairs)
        verdicts = roundtrip_check(closed)
        assert {k: _masks(v.witness) for k, v in verdicts.items()} == expected
        assert all(v.holds == (expected[k] is None)
                   for k, v in verdicts.items())
    rng = random.Random(3)
    for _ in range(40):
        rows = tuple(rng.randint(0, 255) | 1 << a for a in range(8))
        verdicts = roundtrip_check(ConfidenceRelation(s3, rows))
        expected = reference_roundtrip_relation(rows)
        assert {k: _masks(v.witness) for k, v in verdicts.items()} == expected


def _necessity_rows(ranks):
    """Weak rows of the necessity order of a possibility distribution
    given by integer ranks per state: a >= b when the most plausible
    state outside a is at most as plausible as the one outside b."""
    size = 1 << len(ranks)
    outside = [max((r for s, r in enumerate(ranks) if not a >> s & 1),
                   default=-1) for a in range(size)]
    return [sum(1 << b for b in range(size) if outside[a] <= outside[b])
            for a in range(size)]


def test_roundtrip_relation_or_witness_matches_reference():
    """OR joins p only with the later q that fit it; the first witness
    stays the one a scan of all (p, q) finds. Necessity orders pass every
    check; giving up one or two of their strict pairs (a, b) with a of two
    states or more makes OR fail deep in the scan, random rows make it
    fail early."""
    rng = random.Random(17)
    failing = deep = 0
    for n in (2, 3, 4):
        space = make_space([f"s{i}" for i in range(n)])
        size = 1 << n
        for k in range(40):
            if k % 3 == 0:
                rows = [rng.randint(0, (1 << size) - 1) | 1 << a
                        for a in range(size)]
            else:
                rows = _necessity_rows([rng.randint(0, 3) for _ in range(n)])
                joins = sorted((a, b) for a, b in strict_disjoint_pairs(
                    ConfidenceRelation(space, tuple(rows)))
                    if a.bit_count() > 1)
                for a, b in rng.sample(joins, min(k % 3, len(joins))):
                    rows[b] |= 1 << a
            rel = ConfidenceRelation(space, tuple(rows))
            verdict = roundtrip_check(rel)["OR"]
            expected = reference_roundtrip_relation(rel.rows)["OR"]
            assert _masks(verdict.witness) == expected
            assert verdict.holds == (expected is None)
            if expected is not None:
                failing += 1
                deep += expected[0] != min(strict_disjoint_pairs(rel))
    assert failing >= 40 and deep >= 20


# -- individual rules --------------------------------------------------------

def test_pair_rules():
    assert rule_cand((0b100, 0b010), (0b110, 0b000)) == (0b100, 0b010)
    assert rule_cand((0b100, 0b010), (0b001, 0b000)) is None
    assert rule_or((0b100, 0b010), (0b001, 0b000)) == (0b101, 0b010)
    assert rule_or((0b100, 0b010), (0b010, 0b001)) is None
    assert rule_cm((0b101, 0b010), (0b110, 0b001)) == (0b100, 0b001)
    assert rule_cut((0b110, 0b001), (0b100, 0b010)) == (0b100, 0b011)
    assert rule_cut((0b110, 0b001), (0b100, 0b001)) is None
    assert sorted(rule_rw((0b100, 0b011))) == [
        (0b101, 0b010),
        (0b110, 0b001),
        (0b111, 0b000),
    ]


# -- round trips -------------------------------------------------------------

def test_roundtrip_kb_holds_on_consistent_closure():
    _, base = penguin_base()
    verdicts = roundtrip_check(close_p(base))
    assert set(verdicts) == {"IR", "T", "O", "Ac", "CP"}
    assert all(v.holds for v in verdicts.values())


def test_roundtrip_relation_on_acceptance_order(s3):
    # necessity degrees (x4) for the possibility profile 1, 1/2, 1/4
    rows = tuple(
        sum(1 << b for b in range(8) if [0, 2, 0, 3, 0, 2, 0, 4][a] >= [0, 2, 0, 3, 0, 2, 0, 4][b])
        for a in range(8)
    )
    verdicts = roundtrip_check(ConfidenceRelation(s3, rows))
    assert set(verdicts) == {"CAND", "OR", "CM", "CUT", "RW", "CP"}
    assert all(v.holds for v in verdicts.values())


def test_roundtrip_relation_flags_lottery(s3):
    rows = tuple(
        sum(1 << b for b in range(8) if bin(a).count("1") >= bin(b).count("1"))
        for a in range(8)
    )
    verdicts = roundtrip_check(ConfidenceRelation(s3, rows))
    assert not verdicts["CAND"].holds


def test_strict_disjoint_pairs_of_inclusion_order(s3):
    rows = tuple(
        sum(1 << b for b in range(8) if b & ~a == 0) for a in range(8)
    )
    pairs = strict_disjoint_pairs(ConfidenceRelation(s3, rows))
    assert pairs == {(a, 0) for a in range(1, 8)}


def test_roundtrip_check_rejects_other_subjects():
    with pytest.raises(TypeError):
        roundtrip_check("penguin")
