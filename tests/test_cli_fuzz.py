"""Generated relation files fed to the CLI: whatever their shape, a run
exits 0, 1 or 2, exit 2 prints nothing but an error line, and no
exception escapes main."""

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


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=TOP)
def test_relation_files_never_crash_the_cli(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "relation.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("check-axioms", "decompose"):
            code, out, err = run([command, str(path)])
            assert code in (0, 1, 2), (command, doc)
            if code == 2:
                assert out == "" and err.startswith("error:"), (command, doc)
            else:
                assert err == "" and json.loads(out)["command"] == command
