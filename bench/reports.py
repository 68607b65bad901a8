"""Shape check for a confrel CLI report.

    python3 bench/reports.py REPORT.json COMMAND

exits 0 when the file parses as JSON whose top-level keys are command,
inputs and result in that order, with the given command; otherwise it
prints the problem and exits 1. run.py runs this in a child process
for large reports, so that parsing them never inflates its own
memory, which every later child would inherit in its rusage peak.
"""

import json
import sys


def report_problems(data: bytes, command: str) -> list[str]:
    try:
        report = json.loads(data)
    except ValueError:
        return ["report is not JSON"]
    if not isinstance(report, dict) or list(report) != ["command", "inputs", "result"]:
        return [f"report keys {list(report) if isinstance(report, dict) else type(report).__name__}"]
    if report["command"] != command:
        return [f"report command {report['command']!r}"]
    return []


if __name__ == "__main__":
    with open(sys.argv[1], "rb") as fh:
        problems = report_problems(fh.read(), sys.argv[2])
    print("; ".join(problems))
    sys.exit(1 if problems else 0)
