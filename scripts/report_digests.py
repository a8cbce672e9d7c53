#!/usr/bin/env python3
"""Print the SHA-256 of the JSON report of each scenario file.

Runs ``load_scenario -> run_scenario -> emit_report(json)`` on every given
file (default: ``scenarios/*.json``) and prints ``sha256  name`` per file.
A file that is not a valid scenario gets an ``error:`` line on stderr, the
remaining files are still digested, and the exit status is 2.  Comparing the
output of two checkouts shows whether a change left every report
byte-identical:

    python3 scripts/report_digests.py                 # the bundled scenarios
    python3 scripts/report_digests.py a.json b.json   # any scenario files
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dirac_reduce.scenario import (  # noqa: E402
    ScenarioError,
    emit_report,
    load_scenario,
    run_scenario,
)


def digest(path: pathlib.Path) -> str:
    report = run_scenario(load_scenario(str(path)))
    return hashlib.sha256(emit_report(report, "json").encode("utf-8")).hexdigest()


def main(argv: list[str]) -> int:
    paths = [pathlib.Path(a) for a in argv] or sorted((ROOT / "scenarios").glob("*.json"))
    status = 0
    for path in paths:
        try:
            print(f"{digest(path)}  {path.name}")
        except ScenarioError as exc:  # the message starts with the path
            print(f"error: {exc}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
