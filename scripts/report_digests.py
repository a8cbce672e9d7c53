#!/usr/bin/env python3
"""Print the SHA-256 of the JSON reports of each scenario file.

Runs ``load_scenario -> run_scenario -> emit_report(json)`` on every given
file (default: ``scenarios/*.json``) and prints, per file, the digest of the
default report, that of the report with the per-point bases
(``run --format json --bases``) and the file's name: ``sha256  sha256  name``.
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


def digests(path: pathlib.Path) -> str:
    """The digests of the default and of the ``--bases`` report, joined by two spaces."""
    report = run_scenario(load_scenario(str(path)))
    return "  ".join(
        hashlib.sha256(emit_report(report, "json", bases).encode("utf-8")).hexdigest()
        for bases in (False, True)
    )


def main(argv: list[str]) -> int:
    paths = [pathlib.Path(a) for a in argv] or sorted((ROOT / "scenarios").glob("*.json"))
    status = 0
    for path in paths:
        try:
            print(f"{digests(path)}  {path.name}")
        except ScenarioError as exc:  # the message starts with the path
            print(f"error: {exc}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
