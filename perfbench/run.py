"""dirac-reduce benchmark: generated workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload strata-dense --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a source checkout; the package is taken from
``src/`` and need not be installed.  Each repetition runs one generated
scenario to completion in a fresh interpreter (perfbench/child.py), the way
``dirac-reduce run <file> --format json`` does: a closed loop with one
client.  Repetitions continue until ``--seconds`` have passed.  Every
repetition must pass the correctness gate (``gate``).

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
``--trace 1`` runs the same untraced loop, then one traced repetition, and
prints the per-layer metrics derived from its spans (perfbench/tracing.py).
Units and directions come from BENCHMARK.json.  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Generated scenarios and a full result record (machine note, every
repetition, report SHA-256) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 120
THREAD_ENV = ("DIRAC_REDUCE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_note() -> dict:
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in handle if ln.startswith("model name")), model
            )
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": _git_commit(),
    }


def _child_env() -> dict:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def run_rep(scenario_path: Path, trace_path: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter; time it from outside."""
    cmd = [sys.executable, str(HERE / "child.py"), str(scenario_path)]
    if trace_path is not None:
        cmd.append(str(trace_path))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    rep = {"wall_s": time.perf_counter() - start, "exit": proc.returncode}
    try:
        rep.update(json.loads(proc.stderr.decode().strip().splitlines()[-1]))
    except (IndexError, ValueError):
        rep["stderr"] = proc.stderr.decode(errors="replace")[-2000:]
    rep["report"] = proc.stdout
    return rep


def gate(exit_code, report, expect: dict) -> list:
    """Reasons a repetition is not a correct run; empty when it is.

    Requires exit code 0, the generator's point and skip counts, no
    failures of any kind, every route distance within agree_tol, and
    passing integrability and invariance checks.  ``iq_identity_all`` and
    ``rank_constant`` are reported by the program but not gated."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        summary = report["summary"]
        agree_tol = report["scenario"]["tolerances"]["agree_tol"]
    except (KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]
    problems = [
        f"{key} = {summary.get(key)!r}, expected {want!r}"
        for key, want in (
            ("points", expect["points"]),
            ("skipped", expect["skipped"]),
            ("failures", 0),
            ("lagrangian_failures", 0),
            ("agreement_failures", 0),
            ("integrability", "pass"),
            ("invariance", "pass"),
        )
        if summary.get(key) != want
    ]
    if summary.get("max_distance") is None or summary["max_distance"] > agree_tol:
        problems.append(f"max_distance = {summary.get('max_distance')!r} > agree_tol {agree_tol}")
    return problems


def _finish_rep(rep: dict, expect: dict) -> dict:
    """Gate a repetition and replace its report by the report's hash."""
    raw = rep.pop("report", b"")
    rep["report_sha256"] = hashlib.sha256(raw).hexdigest()
    try:
        report = json.loads(raw)
    except ValueError:
        report = None
    problems = rep.get("problems", []) + gate(rep["exit"], report, expect)
    if "setup_s" not in rep:
        problems.append("no timing line on stderr")
    rep["problems"] = problems
    if not problems:
        rep["skipped"] = report["summary"]["skipped"]
        rep["classes"] = len(report["classes"])
    return rep


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    """Generate the workload, run it for ``seconds``, gate every repetition
    and derive the metrics.  ``scale`` shrinks the workload for smoke tests."""
    spec = load_spec()
    path, expect = workloads.write_workload(workload, seed, OUT / "workloads", scale)
    # Compile the package's bytecode and warm the file cache before timing.
    subprocess.run([sys.executable, "-c", "import dirac_reduce"], env=_child_env(), cwd=ROOT)
    reps = []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        reps.append(_finish_rep(run_rep(path), expect))
    timed = [r for r in reps if not r["problems"]]
    values = {}
    if timed:
        values["wall_s"] = _median(timed, "wall_s")
        values["setup_s"] = _median(timed, "setup_s")
        values["points_per_s"] = statistics.median(expect["points"] / r["run_s"] for r in timed)
        values["peak_rss_mb"] = _median(timed, "maxrss_kb") / 1024
    if trace:
        trace_path = OUT / "traces" / f"{workload}-{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        traced = _finish_rep(run_rep(path, trace_path), expect)
        reps.append(traced)
        if not traced["problems"]:
            layers = tracing.layer_metrics(json.loads(trace_path.read_text(encoding="utf-8")))
            layers["reduction.skipped"] = traced["skipped"]
            layers["reduction.classes"] = traced["classes"]
            if timed:
                layers["trace.overhead_s"] = traced["wall_s"] - values["wall_s"]
            values = layers
    failed = sum(1 for r in reps if r["problems"])
    values["gate.failed_share"] = failed / len(reps)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "expect": expect,
        "machine": machine_note(),
        "repetitions": reps,
        "report_sha256": sorted({r["report_sha256"] for r in reps if not r["problems"]}),
        "correct": failed == 0 and len(metrics) == len(wanted),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }


def _print_result(result: dict) -> None:
    name = result["workload"]
    print(f"[{name}] seed {result['seed']}: {result['attempted']} repetitions, "
          f"{result['failed']} failed the gate")
    for rep in result["repetitions"]:
        for problem in rep["problems"]:
            print(f"[{name}] gate: {problem}")
    for metric, entry in result["metrics"].items():
        print(f"[{name}] {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"[{name}] failed_share = {result['failed'] / result['attempted']:.6g} ratio")
    print(f"[{name}] report sha256: {', '.join(result['report_sha256']) or 'none'}")


def main(argv=None, scale: float = 1.0) -> int:
    names = list(workloads.GENERATORS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dirac_reduce" / "__init__.py").is_file():
        print(f"error: no dirac_reduce sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seconds = load_spec()["run_seconds"] if args.seconds is None else args.seconds
    results = []
    for name in names if args.workload == "all" else [args.workload]:
        result = measure(name, args.seed, seconds, bool(args.trace), scale)
        record = OUT / "results" / f"{name}-{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        _print_result(result)
        results.append(result)
    print("machine: " + json.dumps(results[0]["machine"]))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
