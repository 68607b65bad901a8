"""Spans around the calls into each confrel layer, recorded from outside.

install() replaces public functions and methods on confrel's module and
class attributes with wrappers that record a span per call: name, start,
end, parent span, job id and, for some boundaries, a work count taken
from the result. Spans stay in memory until the run ends.

A wrapper sees only calls that look the name up on the patched
attribute. Calls inside one module go through its globals and are seen;
a name imported into another module is seen only where that module's
copy is patched too (fileio's close_strict_pairs and lift_strict are).
representation imports is_acceptance_preorder by name, so its calls to
that function stay in the caller's self time, while the check_axiom
calls inside it are seen.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter


def _witnesses(verdict) -> int:
    return 0 if verdict.holds else 1


def _length(result) -> int:
    return len(result)


def _pairs(closed) -> int:
    return len(closed.pairs)


def _members(family) -> int:
    return len(family.members)


def _path_bytes(args) -> int:
    source = args[0] if args else None
    return os.path.getsize(source) if isinstance(source, str) else 0


# (module, owner inside the module or None, attribute, span name, counter)
BOUNDARIES = (
    ("relations", None, "check_axiom", "relations.check_axiom", _witnesses),
    ("relations", "ConfidenceRelation", "dual", "relations.dual_condition", None),
    ("relations", "ConfidenceRelation", "condition", "relations.dual_condition", None),
    ("relations", None, "accepted_set", "relations.accepted", None),
    ("relations", None, "check_closure", "relations.accepted", None),
    ("relations", None, "close_strict_pairs", "relations.strict_lift", None),
    ("relations", None, "lift_strict", "relations.strict_lift", None),
    ("fileio", None, "close_strict_pairs", "relations.strict_lift", None),
    ("fileio", None, "lift_strict", "relations.strict_lift", None),
    ("measures", None, "induce_relation", "measures.induce", None),
    ("measures", None, "relation_from_table", "measures.induce", None),
    ("measures", None, "induce_sup_relation", "measures.induce_sup", None),
    ("measures", None, "table_for", "measures.table_for", None),
    ("measures", None, "is_big_stepped", "measures.recognizers", None),
    ("measures", None, "brute_force_ct", "measures.recognizers", None),
    ("measures", None, "classify_acceptance_belief", "measures.recognizers", None),
    ("measures", None, "is_context_tolerant_belief", "measures.recognizers", None),
    ("measures", None, "recognize_ct_plausibility", "measures.recognizers", None),
    ("logic", None, "parse", "logic.models", None),
    ("logic", "AtomUniverse", "models", "logic.models", None),
    ("logic", "LabelledSpace", "models", "logic.models", None),
    ("preferential", None, "close_p", "preferential.close_p", _pairs),
    ("preferential", None, "entails", "preferential.entails", None),
    ("preferential", None, "roundtrip_check", "preferential.roundtrip", None),
    ("preferential", None, "roundtrip_kb", "preferential.roundtrip", None),
    ("preferential", None, "roundtrip_relation", "preferential.roundtrip", None),
    ("preferential", "ConditionalBase", "derivation", "preferential.derivation", _length),
    ("representation", None, "decompose", "representation.decompose", _members),
    ("representation", None, "ac_close", "representation.ac_close", None),
    ("representation", None, "commit_strict", "representation.commit_strict", None),
    ("representation", None, "recompose", "representation.recompose", None),
    ("fileio", None, "load_relation", "fileio.load", None),
    ("fileio", None, "load_measure", "fileio.load", None),
    ("fileio", None, "load_kb", "fileio.load", None),
    ("fileio", None, "load_family", "fileio.load", None),
    ("fileio", None, "dump_relation", "fileio.dump", None),
    ("fileio", None, "dump_measure", "fileio.dump", None),
    ("fileio", None, "dump_kb", "fileio.dump", None),
    ("fileio", None, "dump_family", "fileio.dump", None),
)

# loaders whose first argument may be a path; its size is fileio's input
_LOADERS = {"load_relation", "load_measure", "load_kb", "load_family"}


class Tracer:
    """Span store. A span is [name, start, end, parent index, job, count]."""

    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self.bytes_in: dict = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None, path_arg=False):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0]
            spans.append(span)
            stack.append(index)
            if path_arg:
                self.bytes_in[self.job] = (self.bytes_in.get(self.job, 0)
                                           + _path_bytes(args))
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(result)
            return result

        return wrapper


def install(tracer: Tracer):
    """Patch every boundary in BOUNDARIES; returns a function that undoes it."""
    import confrel.fileio
    import confrel.logic
    import confrel.measures
    import confrel.preferential
    import confrel.relations
    import confrel.representation

    modules = {
        "relations": confrel.relations, "measures": confrel.measures,
        "logic": confrel.logic, "preferential": confrel.preferential,
        "representation": confrel.representation, "fileio": confrel.fileio,
    }
    undo = []
    for module, owner, attr, name, counter in BOUNDARIES:
        target = modules[module]
        if owner is not None:
            target = getattr(target, owner)
        original = target.__dict__[attr]
        wrapped = tracer.wrap(name, original, counter,
                              path_arg=module == "fileio" and attr in _LOADERS)
        setattr(target, attr, wrapped)
        undo.append((target, attr, original))

    def restore():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return restore


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name: duration minus the children's.

    Children of one span never overlap (one thread), so the part of the
    parent they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, job, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, parent, job, count) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def outermost_time(spans, name: str) -> float:
    """Inclusive time of the spans with this name that no same-name span
    encloses."""
    total = 0.0
    for name_i, start, end, parent, job, count in spans:
        if name_i != name:
            continue
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total
