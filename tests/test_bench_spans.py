"""The benchmark's span boundaries must name attributes that exist.

bench/spans.py patches each (module, owner, attribute) in BOUNDARIES by
looking it up in the module's or class's __dict__; a rename in confrel
would otherwise only show up as a failing traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_boundaries_resolve():
    boundaries = load_spans().BOUNDARIES
    assert boundaries
    for module, owner, attr, _name, _counter in boundaries:
        target = importlib.import_module(f"confrel.{module}")
        if owner is not None:
            target = getattr(target, owner)
        assert callable(target.__dict__.get(attr)), (module, owner, attr)
