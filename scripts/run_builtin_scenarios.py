#!/usr/bin/env python3
"""Run every scenario shipped under scenarios/ and print a one-line verdict.

The noninvariant and the non-closed scenario are expected to exit 1 (their
whole point is to show the invariance and the integrability gate tripping);
everything else must exit 0.  An uncaught
exception also exits 1, so a run whose stderr holds a traceback, or an
expected exit 1 without a final ``summary:`` line, is UNEXPECTED too.

Then a few malformed inputs, written to a temporary directory, must each
exit 2 with no traceback: a polynomial entry nested deeper than the parser
allows, one made of a long run of unary minus signs, JSON nested deeper
than the decoder's recursion limit, and a file that is not UTF-8.  The
recursion limits differ between Python versions, so these are checked on
each version CI runs.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

EXPECTED_NONZERO = {
    "rotation_noninvariant_form.json": 1,
    "nonclosed_circle_two_form.json": 1,
}


def _scenario_with_entry(entry: str) -> bytes:
    """A two-dimensional bivector scenario whose (0, 1) entry is ``entry``."""
    return json.dumps(
        {
            "version": "dirac-reduce/1",
            "n": 2,
            "dirac": {"bivector": [[0, entry], ["-x", 0]]},
            "action": {"finite": [[[1, 0], [0, 1]]]},
            "samples": {"explicit": [[0.5, 0.0]]},
        }
    ).encode()


MALFORMED = {
    "nested_parentheses.json": _scenario_with_entry("(" * 340 + "x" + ")" * 340),
    "minus_run.json": _scenario_with_entry("-" * 1000),
    "deep_json.json": b"[" * 100_000,
    "not_utf8.json": b"\xff\xfe{}",
}


def check(path: pathlib.Path, expected: int) -> bool:
    """Run ``path``, print its verdict line, and say whether it exited as expected."""
    proc = subprocess.run(
        [sys.executable, "-m", "dirac_reduce", "run", str(path), "--format", "text"],
        capture_output=True,
        text=True,
    )
    last = proc.stdout if expected != 2 else proc.stderr
    summary = last.strip().splitlines()[-1] if last.strip() else ""
    crashed = "Traceback" in proc.stderr or (
        expected == 1 and not summary.startswith("summary:")
    )
    ok = proc.returncode == expected and not crashed
    verdict = "ok" if ok else "UNEXPECTED"
    print(f"{verdict:>10}  exit={proc.returncode} (want {expected})  {path.name}: {summary}")
    if not ok:
        sys.stderr.write(proc.stdout + proc.stderr)
    return ok


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    bad = 0
    for path in sorted((root / "scenarios").glob("*.json")):
        bad += not check(path, EXPECTED_NONZERO.get(path.name, 0))
    with tempfile.TemporaryDirectory() as directory:
        for name, content in MALFORMED.items():
            path = pathlib.Path(directory) / name
            path.write_bytes(content)
            bad += not check(path, 2)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
