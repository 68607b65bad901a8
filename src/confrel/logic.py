"""Propositional formulas and their model sets.

The grammar is deliberately small:

    formula := or ('->' formula)?          implication, right-associative
    or      := and ('|' and)*
    and     := unary ('&' unary)*
    unary   := '!' unary | 'true' | 'false' | atom | '(' formula ')'
    atom    := [A-Za-z_][A-Za-z0-9_]*

There is no biconditional; write (f -> g) & (g -> f). Operators and
parentheses nest at most _MAX_DEPTH (100) deep, which keeps parsing and
every recursive walk over a formula well inside Python's recursion limit.
Only the parser reports a syntax error, naming what the grammar expects
there; a character outside the grammar scans as a token of its own.
A formula denotes an event (its set of models) in a space whose states
carry truth assignments, either the full valuation space of an
AtomUniverse or a user-declared space with per-state atom labellings;
_models evaluates it over either by its labels.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Union

from .core import RELATION_MAX, Event, StateSpace, make_space
from .errors import DuplicateState, FormulaSyntaxError, TooLarge, UnknownAtom


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Const:
    value: bool


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Const, Not, And, Or, Implies]

_MAX_DEPTH = 100

_ATOM = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"->|[!&|()]|{_ATOM.pattern}|\S")


class _Parser:
    """Recursive descent; each rule returns (formula, depth), where depth
    counts the operators and parentheses on the formula's deepest path."""

    def __init__(self, text: str, known_atoms=None):
        self.tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.tokens.append(("", len(text)))  # end marker
        self.i = 0
        self.known = None if known_atoms is None else frozenset(known_atoms)
        self.open = 0  # '!', '(' and '->' the descent is currently inside

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        tok, at = self.tokens[self.i]
        raise FormulaSyntaxError(at, expected, tok if tok else "end of input")

    def too_deep(self):
        self.fail({f"at most {_MAX_DEPTH} nested operators"})

    def descend(self, rule):
        # the open count never exceeds the final depth, so checking it
        # here stops runaway recursion before any depth is known
        self.open += 1
        if self.open > _MAX_DEPTH:
            self.too_deep()
        result = rule()
        self.open -= 1
        return result

    def node(self, f: Formula, *depths: int) -> tuple[Formula, int]:
        depth = max(depths) + 1
        if depth > _MAX_DEPTH:
            self.too_deep()
        return f, depth

    def parse(self) -> Formula:
        f, _ = self.implies()
        if self.peek() != "":
            self.fail({"'&'", "'|'", "'->'", "end of input"})
        return f

    def implies(self) -> tuple[Formula, int]:
        left, d = self.disj()
        if self.peek() == "->":
            self.next()
            right, dr = self.descend(self.implies)
            return self.node(Implies(left, right), d, dr)
        return left, d

    def disj(self) -> tuple[Formula, int]:
        f, d = self.conj()
        while self.peek() == "|":
            self.next()
            g, dg = self.conj()
            f, d = self.node(Or(f, g), d, dg)
        return f, d

    def conj(self) -> tuple[Formula, int]:
        f, d = self.unary()
        while self.peek() == "&":
            self.next()
            g, dg = self.unary()
            f, d = self.node(And(f, g), d, dg)
        return f, d

    def unary(self) -> tuple[Formula, int]:
        tok = self.peek()
        if tok == "!":
            self.next()
            f, d = self.descend(self.unary)
            return self.node(Not(f), d)
        if tok == "(":
            self.next()
            f, d = self.descend(self.implies)
            if self.peek() != ")":
                self.fail({"')'"})
            self.next()
            return self.node(f, d)
        if tok == "true":
            self.next()
            return Const(True), 0
        if tok == "false":
            self.next()
            return Const(False), 0
        if _ATOM.fullmatch(tok):
            self.next()
            if self.known is not None and tok not in self.known:
                raise UnknownAtom(f"atom {tok!r} is not declared")
            return Atom(tok), 0
        self.fail({"atom", "'true'", "'false'", "'!'", "'('"})


def parse(text: str, known_atoms=None) -> Formula:
    """Parse formula text; known_atoms, when given, bounds the vocabulary."""
    return _Parser(text, known_atoms).parse()


_PREC = {Implies: 1, Or: 2, And: 3, Not: 4, Atom: 5, Const: 5}


def to_text(f: Formula) -> str:
    """Render a formula so that parse(to_text(f)) is structurally f."""
    p = _PREC[type(f)]
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Not):
        inner = to_text(f.operand)
        if _PREC[type(f.operand)] < p:
            inner = f"({inner})"
        return "!" + inner
    op = {Implies: " -> ", Or: " | ", And: " & "}[type(f)]
    left, right = to_text(f.left), to_text(f.right)
    lp, rp = _PREC[type(f.left)], _PREC[type(f.right)]
    if isinstance(f, Implies):
        # right-associative: parenthesize an implication on the left
        if lp <= p:
            left = f"({left})"
        return left + op + right
    # & and | associate left: equal precedence on the right needs parens
    if lp < p:
        left = f"({left})"
    if rp <= p:
        right = f"({right})"
    return left + op + right


def evaluate(f: Formula, assign: Callable[[str], bool]) -> bool:
    if isinstance(f, Atom):
        return assign(f.name)
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Not):
        return not evaluate(f.operand, assign)
    if isinstance(f, And):
        return evaluate(f.left, assign) and evaluate(f.right, assign)
    if isinstance(f, Or):
        return evaluate(f.left, assign) or evaluate(f.right, assign)
    return not evaluate(f.left, assign) or evaluate(f.right, assign)


def _check_atoms(atoms) -> tuple[str, ...]:
    atoms = tuple(atoms)
    seen = set()
    for a in atoms:
        if not a:
            raise UnknownAtom("atom names must be non-empty")
        if a in seen:
            raise DuplicateState(f"duplicate atom {a!r}")
        seen.add(a)
    return atoms


class AtomUniverse:
    """Atoms plus the induced space of all 2^m valuations.

    Valuation states are named by bit patterns: character i of the name is
    '1' exactly when atom i (in declaration order) is true; labels maps
    each name to its true atoms, as in LabelledSpace. Over atoms (b, f)
    the models of "b -> f" are the states {"00", "01", "11"}.
    """

    def __init__(self, atoms, max_states: int = RELATION_MAX):
        self.atoms = _check_atoms(atoms)
        m = len(self.atoms)
        if 1 << m > max_states:
            raise TooLarge(
                f"{m} atoms induce {1 << m} valuation states, over the cap "
                f"of {max_states}"
            )
        self.labels = {}
        for v in range(1 << m):
            true_atoms = frozenset(a for i, a in enumerate(self.atoms) if v >> i & 1)
            name = "".join("1" if a in true_atoms else "0" for a in self.atoms)
            self.labels[name] = true_atoms
        self.space = StateSpace(tuple(self.labels), self.atoms)

    def models(self, f) -> Event:
        """The event of valuations satisfying f (a Formula or text)."""
        return _models(self, f)


class LabelledSpace:
    """User-declared states with per-state sets of true atoms.

    Covers knowledge bases over arbitrary spaces: the file names the states
    and says which atoms hold in each; formulas then evaluate per state.
    """

    def __init__(self, states, atoms, labels: dict,
                 max_states: int = RELATION_MAX):
        self.atoms = _check_atoms(atoms)
        space = make_space(states, max_states)
        stray = set(labels) - set(space.states)
        if stray:
            raise ValueError(f"'labels' name undeclared states {sorted(stray)}")
        known = set(self.atoms)
        self.labels = {}
        for s in space.states:
            true_atoms = frozenset(labels.get(s, ()))
            stray = true_atoms - known
            if stray:
                raise UnknownAtom(f"state {s!r} labelled with undeclared {sorted(stray)}")
            self.labels[s] = true_atoms
        # the atoms and labels are part of the space's identity
        self.space = replace(space, atoms=self.atoms,
                             labels=tuple(self.labels[s] for s in space.states))

    def models(self, f) -> Event:
        return _models(self, f)


def _models(universe, f) -> Event:
    """The event of the states where f (a Formula or text) holds, each
    state read off its labels: the set of atoms true in it."""
    if isinstance(f, str):
        f = parse(f, universe.atoms)
    bits = 0
    for i, s in enumerate(universe.space.states):
        if evaluate(f, universe.labels[s].__contains__):
            bits |= 1 << i
    return Event(universe.space, bits)
