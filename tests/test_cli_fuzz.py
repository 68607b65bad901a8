"""Generated input files fed to the CLI: relation, measure, knowledge
base and family files. Whatever their shape, a run exits 0, 1 or 2, exit
2 prints nothing but an error line, and no exception escapes main."""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from confrel.cli import main

NAMES = st.sampled_from(["a", "b", "c", ""])
NAME_LIKE = st.one_of(NAMES, st.integers(-1, 3), st.none(),
                      st.lists(NAMES, max_size=2))
EVENT = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c"]), unique=True, max_size=3),
    st.lists(NAME_LIKE, max_size=3),
    NAMES, st.integers(-1, 8), st.none(),
    st.dictionaries(NAMES, st.integers(0, 1), max_size=2),
)
PAIR = st.one_of(st.lists(EVENT, min_size=2, max_size=2),
                 st.lists(EVENT, max_size=3), EVENT)
STATES = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c"]), unique=True, min_size=1,
             max_size=3),
    st.lists(NAME_LIKE, max_size=3),
    NAMES, st.integers(0, 3), st.none(),
)
STRICT_ONLY = st.one_of(st.booleans(),
                        st.sampled_from(["false", "true", 0, 1, None, [], {}]))
DOC = st.fixed_dictionaries({}, optional={
    "states": STATES,
    "pairs": st.one_of(st.lists(PAIR, max_size=4), EVENT),
    "strict_only": STRICT_ONLY,
})


@st.composite
def well_formed_docs(draw):
    """A usable relation file, or one with a single field spoiled."""
    states = draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True,
                           min_size=1, max_size=3))
    event = st.lists(st.sampled_from(states), unique=True)
    doc = {"states": states,
           "pairs": draw(st.lists(st.lists(event, min_size=2, max_size=2),
                                  max_size=4))}
    if draw(st.booleans()):
        doc["strict_only"] = draw(st.booleans())
    spoil = draw(st.sampled_from(
        [None, None, None, "states", "pairs", "entry", "strict_only", "drop"]))
    if spoil == "states":
        doc["states"] = draw(STATES)
    elif spoil == "pairs":
        doc["pairs"] = draw(EVENT)
    elif spoil == "entry":
        doc["pairs"] = doc["pairs"] + [draw(PAIR)]
    elif spoil == "strict_only":
        doc["strict_only"] = draw(STRICT_ONLY)
    elif spoil == "drop":
        del doc[draw(st.sampled_from(["states", "pairs"]))]
    return doc


TOP = st.one_of(well_formed_docs(), DOC, st.lists(st.integers(), max_size=2),
                st.integers(), st.none())


# values: exact spellings, zero denominators, and what is no number
VALUE = st.one_of(
    st.sampled_from(["1/0", "0/0", "1", "0", "1/2", "2/3", "0.5", "-1", "x",
                     ""]),
    st.sampled_from([-1, 0, 1, 2, 0.5, float("nan"), None, True, [0]]),
)


@st.composite
def measure_docs(draw):
    """A measure file of some type over up to 3 states: usable, or with
    one value or field spoiled."""
    states = draw(st.lists(st.sampled_from(["a", "b", "c"]), unique=True,
                           min_size=1, max_size=3))
    kind = draw(st.sampled_from(["probability", "possibility", "mass"]))
    weights = draw(st.lists(st.integers(0, 2), min_size=len(states),
                            max_size=len(states)))
    if kind == "possibility":
        weights[draw(st.sampled_from(range(len(states))))] = 2
    total = sum(weights) or 1
    values = {s: f"{w}/{2 if kind == 'possibility' else total}"
              for s, w in zip(states, weights)}
    if kind == "mass":
        values = {",".join(draw(st.lists(st.sampled_from(states), unique=True,
                                         min_size=1))) or "a": v
                  for v in values.values()}
    doc = {"states": states, "type": kind, "values": values}
    spoil = draw(st.sampled_from(
        [None, "value", "value", "value", "key", "values", "type", "states",
         "drop"]))
    if spoil == "value":
        doc["values"][draw(st.sampled_from(sorted(values)))] = draw(VALUE)
    elif spoil == "key":
        doc["values"][draw(st.sampled_from(["zz", "", "a,zz", " a "]))] = (
            draw(VALUE))
    elif spoil == "values":
        doc["values"] = draw(st.one_of(st.lists(VALUE, max_size=4), VALUE))
    elif spoil == "type":
        doc["type"] = draw(st.one_of(st.sampled_from(["belief", ""]), VALUE))
    elif spoil == "states":
        doc["states"] = draw(STATES)
    elif spoil == "drop":
        del doc[draw(st.sampled_from(["states", "type", "values"]))]
    return doc


FORMULA = st.sampled_from(["p", "q", "!p", "p & q", "p | !q", "p -> q",
                           "true", "false", "p &", "r", "", "((p)"])


@st.composite
def kb_docs(draw):
    """A rule base over 2 atoms, or over up to 3 labelled states: usable,
    or with one field spoiled."""
    rule = st.fixed_dictionaries({"if": FORMULA, "then": FORMULA})
    doc = {"atoms": ["p", "q"], "rules": draw(st.lists(rule, max_size=3))}
    if draw(st.booleans()):
        states = draw(st.lists(st.sampled_from(["w", "v", "u"]), unique=True,
                               min_size=1, max_size=3))
        doc["states"] = states
        doc["labels"] = {s: draw(st.lists(st.sampled_from(["p", "q"]),
                                          unique=True)) for s in states}
    spoil = draw(st.sampled_from(
        [None, None, "rule", "rules", "atoms", "labels", "label", "states",
         "drop"]))
    if spoil == "rule":
        doc["rules"] = doc["rules"] + [draw(st.one_of(
            st.fixed_dictionaries({"if": VALUE, "then": FORMULA}), VALUE))]
    elif spoil == "rules":
        doc["rules"] = draw(VALUE)
    elif spoil == "atoms":
        doc["atoms"] = draw(st.one_of(
            st.lists(st.sampled_from(["p", "q", "p", "", "1"]), max_size=3),
            VALUE))
    elif spoil == "labels":
        doc["labels"] = draw(st.one_of(VALUE, st.dictionaries(
            st.sampled_from(["w", "vv"]), st.one_of(VALUE, st.just(["r"])),
            max_size=2)))
    elif spoil == "label":
        doc.setdefault("states", ["w"])
        doc["labels"] = dict(doc.get("labels", {}), vv=["p"])
    elif spoil == "states":
        doc["states"] = draw(STATES)
    elif spoil == "drop":
        del doc[draw(st.sampled_from(["atoms", "rules"]))]
    return doc


@st.composite
def family_docs(draw):
    """A family of up to 3 orders over up to 2 states, each induced by a
    value table (so members may or may not agree on equivalences), or
    with one field spoiled."""
    states = draw(st.lists(st.sampled_from(["a", "b"]), unique=True,
                           min_size=1, max_size=2))
    events = [[s for i, s in enumerate(states) if m >> i & 1]
              for m in range(1 << len(states))]
    members = []
    for _ in range(draw(st.integers(0, 3))):
        values = draw(st.lists(st.integers(0, 2), min_size=len(events),
                               max_size=len(events)))
        members.append([[events[a], events[b]]
                        for a in range(len(events)) for b in range(len(events))
                        if values[a] >= values[b]])
    doc = {"states": states, "members": members}
    spoil = draw(st.sampled_from([None, None, "member", "members", "states"]))
    if spoil == "member":
        doc["members"] = members + [draw(st.one_of(st.lists(PAIR, max_size=2),
                                                   EVENT))]
    elif spoil == "members":
        doc["members"] = draw(st.one_of(EVENT, VALUE))
    elif spoil == "states":
        doc["states"] = draw(STATES)
    return doc


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_runs(doc, commands):
    """Write doc to a file and hold each command, given its path, to the
    exit-code contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in commands(str(path)):
            code, out, err = run(argv)
            assert code in (0, 1, 2), (argv, doc)
            if code == 2:
                assert out == "" and err.startswith("error:"), (argv, doc)
            else:
                assert err == "" and json.loads(out)["command"] == argv[0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=TOP)
def test_relation_files_never_crash_the_cli(doc):
    check_runs(doc, lambda path: [["check-axioms", path], ["decompose", path]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=st.one_of(measure_docs(), st.lists(VALUE, max_size=2), VALUE))
def test_measure_files_never_crash_the_cli(doc):
    check_runs(doc, lambda path: [["classify-measure", path],
                                  ["induce", path]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=kb_docs(), query=st.one_of(
    st.builds("{} |~ {}".format, FORMULA, FORMULA), FORMULA))
def test_kb_files_never_crash_the_cli(doc, query):
    check_runs(doc, lambda path: [["close-kb", path],
                                  ["entail", query, "--kb", path]])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(doc=family_docs())
def test_family_files_never_crash_the_cli(doc):
    check_runs(doc, lambda path: [["recompose", path]])
