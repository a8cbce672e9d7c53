#!/usr/bin/env python3
"""Paired benchmark of a base commit against the working tree: alternating
runs of ``perfbench/run.py --trace 0``.

    python3 scripts/bench_pairs.py --out BENCH_<n>.json          # HEAD against the working tree
    python3 scripts/bench_pairs.py --base HEAD~1 --out b.json

Each side is a fresh directory under ``.bench_build/pairs/``: the committed
files of ``--base`` (``git archive``), and the files ``git ls-files`` lists,
as they are in the working tree (on a clean tree, those of HEAD).  For each
workload of BENCHMARK.json, ``PAIRS`` pairs of runs follow each other, and
the side that runs first alternates from pair to pair.  Each run measures for
BENCHMARK.json's ``run_seconds``.

The JSON written to ``--out`` holds, per workload and end-to-end metric, the
median and quartiles of each side, the number of pairs the change wins
(is better in, in the metric's direction) and the :func:`verdict` under the
metric's bound in BENCHMARK.json, plus the failed repetitions of each side,
perfbench's machine note and ``PYTHONDONTWRITEBYTECODE``.  The
base side is named by its commit, the change by the git tree hash of the
exported files and that of their ``src`` directory, the code measured: once
committed unchanged, ``git rev-parse <commit>:src`` gives the same hash.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "pairs"
PAIRS = 10


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def export(ref: str | None, dest: Path) -> str | dict:
    """Write the committed files of ``ref``, or for None the working tree's
    tracked files, to ``dest``; return what names them: the commit of
    ``ref``, or the tree hashes of the working tree and of its ``src``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if ref is not None:
        archive = dest / "source.tar"
        archive.write_bytes(_git("archive", "--format=tar", ref))
        with tarfile.open(archive) as tar:
            tar.extractall(dest, filter="data")
        archive.unlink()
        return _git("rev-parse", ref).decode().strip()
    for name in _git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)
    commit = _git("stash", "create").decode().strip() or "HEAD"  # no commit on a clean tree
    return {
        "tree": _git("rev-parse", commit + "^{tree}").decode().strip(),
        "src": _git("rev-parse", commit + ":src").decode().strip(),
    }


def run(side: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` run in ``side``: its last stdout line (the
    result object) and its machine note."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "0"]
    lines = subprocess.run(cmd, cwd=side, capture_output=True, check=True).stdout.decode()
    lines = lines.strip().splitlines()
    machine = next(json.loads(ln[len("machine: "):]) for ln in lines if ln.startswith("machine: "))
    return {**json.loads(lines[-1]), "machine": machine}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def change_wins(parent: list, change: list, higher: bool) -> int:
    """The pairs (run i of each side) in which the change is better; a tie
    counts for neither side."""
    return sum((c > p) if higher else (c < p) for p, c in zip(parent, change, strict=True))


def verdict(parent: list, change: list, higher: bool, bound: float) -> str:
    """What the paired runs ``parent`` and ``change`` (run i of each is pair i)
    show, for a metric that is better ``higher`` or lower, whose median may
    worsen by the relative ``bound``:

    - ``gain``: the change is better in at least nine tenths of the pairs,
      ties counting for neither, and its median is better by more than the
      parent's q3 - q1;
    - ``regression``: the change's median is worse by more than ``bound``;
    - ``unresolved``: the parent's q3 - q1 is wider than ``bound`` of its
      median, and not every run of the change is better than every run of
      the parent;
    - ``no regression``: otherwise.
    """
    sign = 1 if higher else -1
    before, after = summary(parent), summary(change)
    better = sign * (after["median"] - before["median"])  # < 0 where the change is worse
    spread = before["q3"] - before["q1"]
    if change_wins(parent, change, higher) >= 0.9 * len(parent) and better > spread:
        return "gain"
    if better < -bound * before["median"]:
        return "regression"
    separated = min(change) > max(parent) if higher else max(change) < min(parent)
    if spread > bound * before["median"] and not separated:
        return "unresolved"
    return "no regression"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref of the base side (default HEAD)")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": BUILD / "parent", "change": BUILD / "change"}
    refs = {"parent": export(args.base, sides["parent"]), "change": export(None, sides["change"])}
    runs: dict = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for pair in range(PAIRS):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for name in order:
                runs[workload][name].append(run(sides[name], workload))
            print(f"[{workload}] pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    results = {}
    for workload, by_side in runs.items():
        metrics = {}
        for metric in spec["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {k: [r["metrics"][name]["value"] for r in v] for k, v in by_side.items()}
            metrics[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": summary(values["parent"]),
                "change": summary(values["change"]),
                "change_wins": change_wins(values["parent"], values["change"], higher),
                "verdict": verdict(values["parent"], values["change"], higher, metric["bound"]),
            }
        failed = {k: sum(r["failed"] for r in v) for k, v in by_side.items()}
        results[workload] = {"pairs": PAIRS, "failed_repetitions": failed, "metrics": metrics}
    record = {
        "command": "perfbench/run.py --trace 0",
        "seconds_per_run": spec["run_seconds"],
        "parent": refs["parent"],
        "change": refs["change"],
        "machine": {
            **runs[workloads[0]]["parent"][0]["machine"],
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "workloads": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(BUILD)
    return 0


if __name__ == "__main__":
    sys.exit(main())
