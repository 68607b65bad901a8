import random

import pytest

from confrel import (
    AtomUniverse,
    DuplicateState,
    FormulaSyntaxError,
    LabelledSpace,
    TooLarge,
    UnknownAtom,
    evaluate,
    parse,
    to_text,
)
from confrel.logic import And, Atom, Const, Implies, Not, Or


def test_precedence_and_associativity():
    f = parse("a | b & c")
    assert isinstance(f, Or)
    assert isinstance(f.right, And)
    g = parse("a -> b -> c")
    assert isinstance(g, Implies)
    assert isinstance(g.right, Implies)
    h = parse("!a & b")
    assert isinstance(h, And)
    assert isinstance(h.left, Not)


@pytest.mark.parametrize("text", [
    "a", "!a", "a & b | c", "a -> (b | !c)", "!(a -> b) & c",
    "true | false", "!!a",
])
def test_to_text_roundtrips_structure(text):
    f = parse(text)
    assert parse(to_text(f)) == f


def _random_formula(rng, depth, atoms="abc"):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice([*map(Atom, atoms), Const(True), Const(False)])
    kind = rng.choice([Not, And, Or, Implies])
    if kind is Not:
        return Not(_random_formula(rng, depth - 1, atoms))
    return kind(_random_formula(rng, depth - 1, atoms),
                _random_formula(rng, depth - 1, atoms))


def test_to_text_roundtrips_generated_formulas():
    rng = random.Random(3)
    for _ in range(10000):
        f = _random_formula(rng, rng.randint(1, 7))
        assert parse(to_text(f)) == f, f


@pytest.mark.parametrize("text", [
    "!" * 5000 + "a",
    "(" * 5000 + "a" + ")" * 5000,
    " & ".join(["a"] * 5000),
    " -> ".join(["a"] * 5000),
    "!" * 101 + "a",
])
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(FormulaSyntaxError):
        parse(text)


def test_nesting_at_the_bound_parses_and_evaluates():
    # 98 negations, the parentheses and the disjunction: depth 100
    f = parse("!" * 98 + "(a | a)")
    assert evaluate(f, lambda name: True) is True
    with pytest.raises(FormulaSyntaxError):
        parse("!" * 99 + "(a | a)")
    chain = parse(" & ".join(["a"] * 101))
    assert evaluate(chain, lambda name: True) is True
    assert parse(to_text(chain)) == chain


def test_syntax_error_reports_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse("a & (b |")
    assert err.value.position == 8
    with pytest.raises(FormulaSyntaxError):
        parse("a b")
    with pytest.raises(FormulaSyntaxError):
        parse("")
    # a stray character is a token of its own, so the parser reports what
    # the grammar expects at it
    after_operand = ("'&'", "'->'", "'|'", "end of input")
    operand = ("'!'", "'('", "'false'", "'true'", "atom")
    for text, position, expected in (("s1,", 2, after_operand),
                                     ("a $ b", 2, after_operand),
                                     ("a -", 2, after_operand),
                                     ("b | ~ f", 4, operand),
                                     ("é", 0, operand),
                                     ("a & é", 4, operand),
                                     ("1a", 0, operand)):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert (err.value.position, err.value.expected) == (position, expected)
        assert err.value.found == text[position], text
    # whitespace after the last token ends the input
    assert parse("a & b \t\n") == parse("a & b")


def test_unknown_atom_rejected_when_vocabulary_given():
    with pytest.raises(UnknownAtom):
        parse("a & q", known_atoms=("a", "b"))
    parse("a & q")  # free vocabulary is fine


def test_evaluate():
    f = parse("(a -> b) & !c")
    assign = {"a": True, "b": True, "c": False}
    assert evaluate(f, assign.__getitem__)
    assert not evaluate(f, {"a": True, "b": False, "c": False}.__getitem__)
    assert evaluate(Const(True), assign.__getitem__)
    assert evaluate(Atom("b"), assign.__getitem__)


def test_universe_models_match_bit_pattern_names():
    u = AtomUniverse(["b", "f"])
    assert u.space.states == ("00", "10", "01", "11")
    assert u.models("b -> f").names() == ("00", "01", "11")
    assert u.models("b & !f").names() == ("10",)
    assert u.models("false").is_empty()
    assert u.models("true").bits == u.space.full_mask
    # the labels are the bit-pattern reading of the names, and the models
    # of a formula are the valuations v where it evaluates true, atom i
    # taking bit i of v
    rng = random.Random(11)
    for m in range(1, 5):
        atoms = "abcd"[:m]
        u = AtomUniverse(atoms, max_states=16)
        assert u.labels == {
            name: frozenset(a for a, bit in zip(atoms, name) if bit == "1")
            for name in u.space.states}
        for _ in range(200):
            f = _random_formula(rng, rng.randint(1, 5), atoms)
            expected = sum(1 << v for v in range(1 << m) if evaluate(
                f, lambda a, v=v: v >> atoms.index(a) & 1 == 1))
            assert u.models(f).bits == expected, (m, f)
            assert u.models(to_text(f)).bits == expected, (m, f)


def test_atom_names_are_non_empty_and_distinct():
    for atoms, error in (([""], UnknownAtom), (["a", "b", "a"], DuplicateState)):
        with pytest.raises(error):
            AtomUniverse(atoms)
        with pytest.raises(error):
            LabelledSpace(["x"], atoms, {})


def test_universe_caps_state_count():
    with pytest.raises(TooLarge):
        AtomUniverse([f"a{i}" for i in range(5)])
    AtomUniverse([f"a{i}" for i in range(5)], max_states=32)


def test_labelled_space_models():
    ls = LabelledSpace(
        ["dry", "wet", "storm"],
        ["rain", "wind"],
        {"wet": ["rain"], "storm": ["rain", "wind"]},
    )
    assert ls.models("rain").names() == ("wet", "storm")
    assert ls.models("rain & wind").names() == ("storm",)
    assert ls.models("!rain").names() == ("dry",)
    with pytest.raises(UnknownAtom):
        LabelledSpace(["x"], ["a"], {"x": ["zz"]})
