"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
SMOKE = 0.1


@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    generate = workloads.GENERATORS[name]
    assert generate(3) == generate(3)
    assert generate(3)[0] != generate(4)[0]
    scenario, expect = generate(3)
    assert expect["points"] == len(scenario["samples"]["explicit"])


def test_orbit_types_places_one_guard_band_point_per_axis():
    _, expect = workloads.orbit_types(5)
    assert expect["skipped"] == len(workloads.AXES) == 13


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.GENERATORS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.GENERATORS))
def test_smoke_run_passes_gate_and_emits_every_metric(name, trace):
    start = time.perf_counter()
    result = run.measure(name, seed=2, seconds=0, trace=trace, scale=SMOKE)
    assert time.perf_counter() - start < 60
    assert result["failed"] == 0, result["repetitions"]
    assert result["correct"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_last_line_is_the_result_object(capsys):
    assert run.main(["--workload", "orbit-types", "--seconds", "0"], scale=SMOKE) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0


def test_gate_rejects_a_wrong_count():
    report = {
        "scenario": {"tolerances": {"agree_tol": 1e-8}},
        "summary": {
            "points": 4, "skipped": 0, "failures": 0, "lagrangian_failures": 0,
            "agreement_failures": 0, "integrability": "pass", "invariance": "pass",
            "max_distance": 1e-12,
        },
    }
    expect = {"points": 4, "skipped": 0}
    assert run.gate(0, report, expect) == []
    assert run.gate(0, report, {"points": 5, "skipped": 0})
    assert run.gate(1, report, expect)
    assert run.gate(0, None, expect)
    report["summary"]["max_distance"] = 1e-6
    assert run.gate(0, report, expect)


def test_self_time_subtracts_the_union_of_children():
    trace = {
        "spans": [
            (1, "scenario.run_scenario", 0.0, 10.0, None, 1),
            (2, "reduction.reduce_point", 1.0, 3.0, 1, 1),
            (3, "reduction.reduce_point", 2.0, 5.0, 1, 2),
        ],
        "counts": {},
        "svd_flops": 0.0,
    }
    metrics = tracing.layer_metrics(trace)
    assert metrics["scenario.run_scenario.self_s"] == pytest.approx(6.0)
    assert metrics["reduction.reduce_point_s"] == pytest.approx(5.0)
    assert metrics["reduction.reduce_point.calls"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "strata-dense", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
