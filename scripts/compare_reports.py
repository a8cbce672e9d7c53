#!/usr/bin/env python3
"""Print how two JSON reports of one scenario differ, grouped by field.

    python3 scripts/compare_reports.py A.json B.json

A ``dirac-reduce/2`` report is first lifted to the ``dirac-reduce/1`` layout
(:func:`lift_v1`), so a report of either version compares with one of the
other.  The bases are compared only where both reports carry them: give a v2
report made with ``run --format json --bases``.
Every JSON path whose value differs is printed under its field (the path
with list indices dropped, e.g. ``points[].route_b.basis``).  A basis of
``d_q``, ``route_a`` or ``route_b`` is compared as a subspace: the line gives
the operator 2-norm distance of the two orthogonal projectors, not the raw
numbers.  Bases and the distances derived from them
(``points[].agreement.distance``, ``summary.max_distance``) may move by
rounding; any other difference (a status, a dimension, a flag, a verdict, a
count, a missing key) makes the exit status 1.  The exit status is 0 when
only those may-move values differ (or nothing does), 2 on a usage error.
"""

from __future__ import annotations

import json
import pathlib
import sys
from collections import defaultdict

import numpy as np

BASES = {"d_q", "route_a", "route_b"}
DISTANCES = {"points[].agreement.distance", "summary.max_distance"}


def projector_distance(a: list, b: list) -> float:
    """Operator 2-norm distance of the projectors onto two row spans (NaN
    when the rows have different lengths)."""
    widths = {len(row) for row in a + b}
    if len(widths) > 1:
        return float("nan")
    width = widths.pop() if widths else 0
    if not width:
        return 0.0
    pa, pb = (np.asarray(x, dtype=float).reshape(-1, width) for x in (a, b))
    return float(np.linalg.norm(pa.T @ pa - pb.T @ pb, 2))


def lift_v1(report: dict) -> dict:
    """A ``dirac-reduce/2`` report in the ``dirac-reduce/1`` layout: each
    point's ``isotropy`` and ``dims`` read from ``strata``, in v1 key order,
    with no ``strata`` and version ``dirac-reduce/1``.  Any other report is
    returned as it is."""
    if report.get("version") != "dirac-reduce/2":
        return report
    strata = report["strata"]
    points = []
    for point in report["points"]:
        stratum, row = point["stratum"], {}
        for key, value in point.items():
            if key == "stratum":
                row["isotropy"] = None if stratum is None else strata[stratum]["isotropy"]
            elif key == "dims":
                row["dims"] = None if value is None else strata[stratum]["dims"][value]
            else:
                row[key] = value
        points.append(row)
    lifted = {key: value for key, value in report.items() if key != "strata"}
    return {**lifted, "version": "dirac-reduce/1", "points": points}


def differences(a, b, path: str = "", field: str = ""):
    """(field, path, description, may_move) for every differing value."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            sub_path = f"{path}.{key}" if path else key
            sub_field = f"{field}.{key}" if field else key
            if key not in a or key not in b:
                side = "first" if key in a else "second"
                yield sub_field, sub_path, f"only in the {side} report", False
            elif key == "basis" and field.rsplit(".", 1)[-1] in BASES:
                if a[key] != b[key]:
                    distance = projector_distance(a[key], b[key])
                    moved = f"projector distance {distance:.3g}"
                    yield sub_field, sub_path, moved, distance == distance  # NaN: widths differ
            else:
                yield from differences(a[key], b[key], sub_path, sub_field)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield field, path, f"{len(a)} entries -> {len(b)} entries", False
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]", f"{field}[]")
    elif a != b or type(a) is not type(b):
        yield field, path, f"{json.dumps(a)} -> {json.dumps(b)}", field in DISTANCES


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_reports.py A.json B.json", file=sys.stderr)
        return 2
    try:
        first, second = (
            lift_v1(json.loads(pathlib.Path(p).read_text(encoding="utf-8"))) for p in argv
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    groups = defaultdict(list)
    for field, path, description, may_move in differences(first, second):
        groups[field].append((path, description, may_move))
    fixed = 0
    for field, entries in groups.items():
        moved = sum(1 for *_, may_move in entries if not may_move)
        fixed += moved
        print(f"{field}: {len(entries)} differ" + (f", {moved} of them must not" if moved else ""))
        for path, description, _ in entries:
            print(f"  {path}: {description}")
    return 1 if fixed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
