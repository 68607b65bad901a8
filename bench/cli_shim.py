"""Run one confrel CLI command the way a shell would, optionally traced.

    python3 bench/cli_shim.py [--trace-out SPANS.json] <confrel arguments>

Puts the checkout's src/ on the path and calls confrel.cli.main(argv).
With --trace-out, it first installs the span wrappers of spans.py and,
once main returns, writes the spans, the monotonic time at which
`import confrel.cli` finished, and the bytes its loaders read.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    argv = sys.argv[1:]
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    import confrel.cli

    imported = time.monotonic()
    if trace_out is None:
        return confrel.cli.main(argv)
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    code = confrel.cli.main(argv)
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"imported": imported, "spans": tracer.spans,
                   "bytes_in": sum(tracer.bytes_in.values())}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
