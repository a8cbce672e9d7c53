#!/usr/bin/env python3
"""Run every scenario shipped under scenarios/ and print a one-line verdict.

The noninvariant and the non-closed scenario are expected to exit 1 (their
whole point is to show the invariance and the integrability gate tripping);
everything else must exit 0.  An uncaught
exception also exits 1, so a run whose stderr holds a traceback, or an
expected exit 1 without a final ``summary:`` line, is UNEXPECTED too.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

EXPECTED_NONZERO = {
    "rotation_noninvariant_form.json": 1,
    "nonclosed_circle_two_form.json": 1,
}


def main() -> int:
    root = pathlib.Path(__file__).resolve().parent.parent
    scenario_dir = root / "scenarios"
    bad = 0
    for path in sorted(scenario_dir.glob("*.json")):
        proc = subprocess.run(
            [sys.executable, "-m", "dirac_reduce", "run", str(path), "--format", "text"],
            capture_output=True,
            text=True,
        )
        expected = EXPECTED_NONZERO.get(path.name, 0)
        summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        crashed = "Traceback" in proc.stderr or (
            expected == 1 and not summary.startswith("summary:")
        )
        verdict = "ok" if proc.returncode == expected and not crashed else "UNEXPECTED"
        if verdict != "ok":
            bad += 1
        print(f"{verdict:>10}  exit={proc.returncode} (want {expected})  {path.name}: {summary}")
        if verdict != "ok":
            sys.stderr.write(proc.stdout + proc.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
