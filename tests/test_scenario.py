"""Scenario files, the runner, report emission, and the command line."""

import copy
import hashlib
import importlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dirac_reduce.cli import main
from dirac_reduce.scenario import (
    MAX_SAMPLES,
    ScenarioError,
    VERSION,
    emit_report,
    exit_code,
    load_bracket_payload,
    load_scenario,
    run_scenario,
    sample_points,
    scenario_from_dict,
    scenario_to_dict,
    summarize,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_FILES = sorted(SCENARIO_DIR.glob("*.json"))


def base_scenario() -> dict:
    return {
        "version": VERSION,
        "n": 2,
        "dirac": {"two_form": [[0, 1], [-1, 0]]},
        "action": {"finite": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]},
        "samples": {"explicit": [[0.5, 0.0], [1.2, 0.0]]},
    }


# -- parsing -------------------------------------------------------------------


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
def test_builtin_scenario_files_load(path):
    s = load_scenario(str(path))
    assert s.n >= 1
    assert len(sample_points(s)) > 0


def test_builtin_corpus_is_present():
    assert len(SCENARIO_FILES) == 9


def test_version_is_checked():
    data = base_scenario()
    data["version"] = "dirac-reduce/999"
    with pytest.raises(ScenarioError, match="version"):
        scenario_from_dict(data)
    del data["version"]
    with pytest.raises(ScenarioError, match="version"):
        scenario_from_dict(data)


def test_unknown_fields_are_rejected():
    data = base_scenario()
    data["extra"] = 1
    with pytest.raises(ScenarioError, match="extra"):
        scenario_from_dict(data)
    del data["extra"]
    data["tolerances"] = {"rank_tl": 1e-9}
    with pytest.raises(ScenarioError, match=re.escape("tolerances: unknown fields ['rank_tl']")):
        scenario_from_dict(data)
    data["tolerances"] = [1e-9]
    with pytest.raises(ScenarioError, match="tolerances: expected an object"):
        scenario_from_dict(data)


def test_exactly_one_dirac_variant():
    data = base_scenario()
    data["dirac"]["bivector"] = [[0, 1], [-1, 0]]
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_dict(data)
    data["dirac"] = {}
    with pytest.raises(ScenarioError, match="exactly one"):
        scenario_from_dict(data)


def test_matrix_shape_errors_carry_field_paths():
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, 1, 0], [-1, 0, 0]]}
    with pytest.raises(ScenarioError, match="dirac.two_form"):
        scenario_from_dict(data)


def test_symmetric_two_form_is_rejected():
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, 1], [1, 0]]}
    with pytest.raises(ScenarioError, match="dirac.two_form"):
        scenario_from_dict(data)


def test_action_errors_carry_field_paths():
    data = base_scenario()
    data["action"] = {"finite": [[[1, 0], [0, 1]], [[2, 0], [0, 1]]]}
    with pytest.raises(ScenarioError, match="action"):
        scenario_from_dict(data)
    data["action"] = {"circle": {"weights": [0]}}
    with pytest.raises(ScenarioError, match="weights"):
        scenario_from_dict(data)


def test_random_block_needs_count_seed_and_box():
    data = base_scenario()
    data["samples"] = {"random": {"count": 5, "seed": 1}}
    with pytest.raises(ScenarioError, match="box"):
        scenario_from_dict(data)
    data["samples"] = {"random": {"count": 5, "box": [[0, 1], [0, 1]]}}
    with pytest.raises(ScenarioError, match="seed"):
        scenario_from_dict(data)
    data["samples"] = {
        "random": {"count": 5, "seed": 1, "box": [[0, 1]]}
    }  # box must list one interval per coordinate
    with pytest.raises(ScenarioError, match="box"):
        scenario_from_dict(data)


def test_tolerances_must_be_positive():
    data = base_scenario()
    data["tolerances"] = {"rank_tol": 0.0}
    with pytest.raises(ScenarioError, match="rank_tol"):
        scenario_from_dict(data)


BAD_TOLERANCES = ["nan", "inf", "1e300", "1.0"]


@pytest.mark.parametrize("flag", ["--rank-tol", "--agree-tol"])
@pytest.mark.parametrize("value", BAD_TOLERANCES)
def test_bad_tolerance_override_exits_2_naming_the_flag(flag, value):
    """A tolerance must be finite and in (0, 1): with NaN, infinity or a value
    of 1 or more no rank or agreement decision means anything, so the run
    stops with an input error instead of a traceback or a verdict."""
    cmd = [sys.executable, "-m", "dirac_reduce", "run",
           str(SCENARIO_DIR / "z2_circle_r3_two_form.json"), flag, value]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {flag}: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("field", ["rank_tol", "agree_tol"])
@pytest.mark.parametrize("value", [float(v) for v in BAD_TOLERANCES])
def test_bad_tolerance_in_a_scenario_exits_2_naming_the_field(tmp_path, field, value):
    data = json.loads((SCENARIO_DIR / "z2_circle_r3_two_form.json").read_text())
    data["tolerances"] = {field: value}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))  # json.dumps writes NaN and Infinity
    proc = subprocess.run(
        [sys.executable, "-m", "dirac_reduce", "run", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {path}: tolerances.{field}: ")
    assert "Traceback" not in proc.stderr


def _run_cli_on(tmp_path, data) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))  # json.dumps writes NaN and Infinity
    return main(["run", str(path)])


def test_zero_denominator_in_polynomial_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, "1/0*x"], ["-1/0*x", 0]]}
    assert _run_cli_on(tmp_path, data) == 2
    assert "dirac.two_form[0][1]: zero denominator in '1/0'" in capsys.readouterr().err


def test_polynomial_entry_with_surrounding_whitespace_runs(tmp_path, capsys):
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, "1 "], ["\n-1", 0]]}
    assert _run_cli_on(tmp_path, data) == 0
    assert capsys.readouterr().err == ""


def test_nan_polynomial_entry_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, float("nan")], [float("nan"), 0]]}
    assert _run_cli_on(tmp_path, data) == 2
    assert "dirac.two_form[0][1]: not a finite number: nan" in capsys.readouterr().err


def test_nan_sample_point_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["samples"]["explicit"][0] = [float("nan"), 0.0]
    assert _run_cli_on(tmp_path, data) == 2
    assert "samples.explicit[0]: not a finite number: nan" in capsys.readouterr().err


def test_infinite_random_box_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["samples"]["random"] = {"count": 3, "seed": 1, "box": [[0, float("inf")], [0, 1]]}
    assert _run_cli_on(tmp_path, data) == 2
    assert "samples.random.box[0]: not a finite number: inf" in capsys.readouterr().err


def test_integer_beyond_float_range_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["samples"]["explicit"][0] = [10**400, 0.0]
    assert _run_cli_on(tmp_path, data) == 2
    assert "samples.explicit[0]: number out of the float range" in capsys.readouterr().err


def test_sample_point_whose_norm_overflows_exits_2(tmp_path, capsys):
    """|m|^2 = 1e400 is inf in float64, where the circle-fixed test
    |A m| <= tol |m| would compare two infinite norms."""
    data = base_scenario()
    data["action"] = {"circle": {"weights": [1]}}
    data["samples"]["explicit"] = [[1e200, 1.0]]
    assert _run_cli_on(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "samples.explicit[0]: the point's norm overflows float64" in err
    assert "Traceback" not in err


def test_random_box_whose_corner_norm_overflows_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["samples"]["random"] = {"count": 3, "seed": 1, "box": [[-1e308, 1e308], [0.4, 2.0]]}
    assert _run_cli_on(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "samples.random.box: the farthest corner's norm overflows float64" in err
    assert "Traceback" not in err
    data["samples"]["random"]["box"][0] = [-1e150, 1e150]  # |corner|^2 ~ 1e300 is finite
    assert len(sample_points(scenario_from_dict(data))) == 5


@pytest.mark.parametrize("where", ["file", "flag"])
def test_oversized_sample_count_exits_2_naming_the_field(tmp_path, where):
    """A random draw of 10^12 points would need terabytes: the count is
    bounded by MAX_SAMPLES, in the file and on the command line alike."""
    data = json.loads((SCENARIO_DIR / "so3_lie_poisson.json").read_text())
    args = []
    if where == "file":
        data["samples"]["random"]["count"] = 10**12
    else:
        args = ["--samples", str(10**12)]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    cmd = [sys.executable, "-m", "dirac_reduce", "run", str(path), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    context = f"{path}: samples.random.count" if where == "file" else "--samples"
    assert proc.stderr == f"error: {context}: more than {MAX_SAMPLES} points\n"


@pytest.mark.parametrize("weight", [1001, -1001, 10**30])
def test_oversized_circle_weight_exits_2_promptly(tmp_path, capsys, weight):
    data = base_scenario()
    data["action"] = {"circle": {"weights": [weight]}}
    start = time.perf_counter()
    assert _run_cli_on(tmp_path, data) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "action.circle.weights: a weight exceeds 1000 in absolute value" in err


@pytest.mark.parametrize(
    "entry, message",
    [
        ("(x + y + x*y + 1)^40", "^40 of a 4-term factor takes the expansion past 1000 terms"),
        ("(x + y + x*y + 1)^80", "^80 of a 4-term factor takes the expansion past 1000 terms"),
        ("3*(x + y + x*y + 1)^12 - (x + y + x*y + 1)^12 + (x + y + x*y + 1)^12",
         "^12 of a 4-term factor takes the expansion past 1000 terms"),
        ("(x + y + x*y + 1)^5*(x + y + x*y + 1)^5",
         "a parenthesised product takes the expansion past 1000 terms"),
        ("9^999999999*x", "exponent exceeds 1000"),
        ("x^2000", "exponent exceeds 1000"),
        ("((9)^100)^100*x", "^100 may give coefficients of more than 3000 bits"),
        ("(x^10)^101", "^101 gives degree above 1000"),
    ],
)
def test_oversized_expansion_exits_2_promptly(tmp_path, capsys, entry, message):
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, entry], [f"-({entry})", 0]]}
    start = time.perf_counter()
    assert _run_cli_on(tmp_path, data) == 2
    assert time.perf_counter() - start < 1.0
    assert f"dirac.two_form[0][1]: {message}" in capsys.readouterr().err


def test_coefficient_beyond_float_range_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, "10^400*x"], ["-10^400*x", 0]]}
    assert _run_cli_on(tmp_path, data) == 2
    assert "dirac.two_form[0][1]: coefficient out of the float range" in capsys.readouterr().err


def test_evaluation_overflow_names_the_sample_point(tmp_path, capsys):
    data = base_scenario()
    # each power is finite at (3, 3); the products overflow to inf silently
    # and their difference is NaN
    entry = "x^600*y^600 - x^601*y^599"
    data["dirac"] = {"two_form": [[0, entry], [f"-({entry})", 0]]}
    data["samples"]["explicit"] = [[0.5, 0.0], [3.0, 3.0]]
    assert _run_cli_on(tmp_path, data) == 2
    err = capsys.readouterr().err
    assert "sample evaluation: polynomial value at point (3.0, 3.0)" in err
    assert "out of the float range" in err


def test_sections_basepoint_overflow_exits_2(tmp_path, capsys):
    data = base_scenario()
    data["dirac"] = {
        "sections": [
            {"tangent": ["x^1000", 0], "covector": [0, 0]},
            {"tangent": [0, 0], "covector": [0, 1]},
        ],
        "basepoint": [3.0, 0.0],
    }
    assert _run_cli_on(tmp_path, data) == 2
    assert "dirac.sections: polynomial value at point (3.0, 0.0)" in capsys.readouterr().err


def test_json_syntax_errors_report_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "version": }\n')
    with pytest.raises(ScenarioError, match=r"broken\.json:2"):
        load_scenario(str(bad))


def test_missing_file_is_an_input_error(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "nope.json"))


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
def test_echoed_scenario_is_a_fixed_point(path):
    s = load_scenario(str(path))
    echoed = scenario_to_dict(s)
    assert scenario_to_dict(scenario_from_dict(copy.deepcopy(echoed))) == echoed


def test_sample_points_are_deterministic_and_explicit_first():
    data = base_scenario()
    data["samples"] = {
        "explicit": [[0.5, 0.0]],
        "random": {"count": 3, "seed": 9, "box": [[0.4, 2.0], [0.4, 2.0]]},
    }
    s = scenario_from_dict(data)
    pts = sample_points(s)
    assert pts.shape == (4, 2)
    np.testing.assert_allclose(pts[0], [0.5, 0.0])
    np.testing.assert_array_equal(pts, sample_points(s))
    assert np.all(pts[1:] >= 0.4) and np.all(pts[1:] <= 2.0)


# -- running -------------------------------------------------------------------


def test_run_canonical_circle_scenario():
    s = load_scenario(str(SCENARIO_DIR / "circle_canonical_poisson.json"))
    report = run_scenario(s)
    summary = summarize(report)
    assert summary["points"] == 20 and summary["ok"] == 20
    assert summary["failures"] == 0
    assert summary["comparisons"] == "applicable"
    assert summary["max_distance"] < 1e-8
    assert summary["rank_constant"] and summary["iq_identity_all"]
    assert summary["integrability"] == "pass" and summary["invariance"] == "pass"
    assert exit_code(report) == 0


def test_noninvariant_form_fails_and_suppresses_comparisons():
    s = load_scenario(str(SCENARIO_DIR / "rotation_noninvariant_form.json"))
    report = run_scenario(s)
    summary = summarize(report)
    assert summary["invariance"] == "fail"
    assert summary["comparisons"] == "not-applicable"
    assert summary["max_distance"] is None
    assert summary["failures"] == 1
    assert exit_code(report) == 1
    payload = json.loads(emit_report(report, "json"))
    ok_rows = [p for p in payload["points"] if p["status"] == "ok"]
    assert ok_rows and all(p["agreement"] == "not-applicable" for p in ok_rows)


def test_boundary_points_are_skipped_not_failed():
    data = base_scenario()
    data["samples"] = {"explicit": [[0.5, 0.0], [1.0, 1e-8]]}
    report = run_scenario(scenario_from_dict(data))
    summary = summarize(report)
    assert summary["ok"] == 1 and summary["skipped"] == 1
    assert summary["failures"] == 0
    payload = json.loads(emit_report(report, "json"))
    skipped = payload["points"][1]
    assert skipped["status"] == "skipped-boundary"
    assert skipped["agreement"] is None and skipped["dims"] is None


def test_empty_sample_set_yields_an_empty_passing_report():
    data = base_scenario()
    data["samples"] = {"explicit": []}
    report = run_scenario(scenario_from_dict(data))
    summary = summarize(report)
    assert summary["points"] == 0 and summary["failures"] == 0
    assert exit_code(report) == 0


def test_json_report_is_deterministic_and_structured():
    s = load_scenario(str(SCENARIO_DIR / "z2_reflection_area_form.json"))
    report = run_scenario(s)
    first = emit_report(report, "json")
    second = emit_report(run_scenario(s), "json")
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"version", "scenario", "points", "classes", "checks", "summary"}
    assert payload["version"] == VERSION
    assert {c["kind"] for c in payload["checks"].values() if c} >= {
        "integrability",
        "invariance",
    }


def test_text_report_shape():
    s = load_scenario(str(SCENARIO_DIR / "z2_reflection_area_form.json"))
    text = emit_report(run_scenario(s), "text")
    assert text.startswith("scenario: n=2, dirac=two_form")
    assert "integrability: pass" in text
    assert "summary: failures=0" in text
    assert text.endswith("\n")


def test_unknown_format_is_rejected():
    s = load_scenario(str(SCENARIO_DIR / "z2_reflection_area_form.json"))
    with pytest.raises(ScenarioError, match="format"):
        emit_report(run_scenario(s), "yaml")


def _count_calls(monkeypatch, module: str, name: str) -> list:
    """Count calls of ``dirac_reduce.<module>.<name>`` through every
    ``dirac_reduce`` module that bound it."""
    original = getattr(importlib.import_module(f"dirac_reduce.{module}"), name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "dirac_reduce":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


@pytest.mark.parametrize("name", ["z2_circle_r3_two_form.json", "dihedral_distribution.json"])
def test_run_builds_each_point_once(monkeypatch, name):
    s = load_scenario(str(SCENARIO_DIR / name))
    calls = {
        func: _count_calls(monkeypatch, module, func)
        for module, func in (
            ("action", "isotropy"),
            ("polyfield", "evaluate_fibers"),
            ("polyfield", "evaluate_at"),
        )
    }
    per_class = {
        func: _count_calls(monkeypatch, "action", func)
        for func in ("fixed_subspace", "average_projector")
    }
    stacks = _count_calls(monkeypatch, "reduction", "_reduce_stack")
    report = run_scenario(s)
    assert all(r.status == "ok" for r in report.points)
    n_points = len(report.points)
    # isotropy and the fibers are decided for the whole sample in one call
    # each, and no fiber is evaluated point by point
    assert {k: len(v) for k, v in calls.items()} == {
        "isotropy": 1, "evaluate_fibers": 1, "evaluate_at": 0
    }
    # the reduction runs once per stack: the points of one exact isotropy class
    keys = {(r.descriptor.continuous_circle, r.descriptor.pairs) for r in report.points}
    assert len(stacks) == len(keys) < n_points
    if s.action.circle is None:
        # V = 0 at every point: P and Fix are built once per isotropy class
        n_classes = len(report.classes)
        assert n_classes < n_points
        assert {k: len(v) for k, v in per_class.items()} == dict.fromkeys(
            per_class, n_classes
        )


def _fresh_json(path) -> bytes:
    cmd = [sys.executable, "-m", "dirac_reduce", "run", str(path), "--format", "json"]
    return subprocess.run(cmd, capture_output=True, check=True).stdout


def test_large_fiber_entries_run_without_a_traceback(tmp_path):
    """omega = x^10 dx^dy on R^3 under z -> -z is invariant and of constant
    rank; at x = 10 its fiber has entries 1e10, above 1/rank_tol.  The run
    exits 0, and that point has the dims of a small point of its stratum."""
    path = tmp_path / "x10.json"
    path.write_text(
        json.dumps(
            {
                "version": VERSION,
                "n": 3,
                "dirac": {"two_form": [[0, "x^10", 0], ["-x^10", 0, 0], [0, 0, 0]]},
                "action": {"finite": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                      [[1, 0, 0], [0, 1, 0], [0, 0, -1]]]},
                "samples": {"explicit": [[10, 0.3, 0], [0.5, 0.2, 0], [1, 0.7, 0],
                                         [0.5, 0.2, 0.4], [10, 0.3, 0.4]]},
            }
        )
    )
    cmd = [sys.executable, "-m", "dirac_reduce", "run", str(path), "--format", "json"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
    points = {tuple(p["point"]): p for p in json.loads(proc.stdout)["points"]}
    assert all(p["status"] == "ok" for p in points.values())
    assert points[(10.0, 0.3, 0.0)]["dims"] == points[(0.5, 0.2, 0.0)]["dims"]


def test_point_within_tol_of_the_circle_axis_is_an_axis_point(tmp_path):
    """|A m| <= tol |m| puts the circle in the isotropy subgroup of
    (1e-12, 0, 1), and V(m) follows that decision: the run exits 0 and the
    point gets the descriptor and dims of the axis point (0, 0, 1)."""
    data = json.loads((SCENARIO_DIR / "z2_circle_r3_two_form.json").read_text())
    data["samples"] = {"explicit": [[1e-12, 0.0, 1.0], [0.0, 0.0, 1.0]]}
    path = tmp_path / "near_axis.json"
    path.write_text(json.dumps(data))
    cmd = [sys.executable, "-m", "dirac_reduce", "run", str(path), "--format", "json"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0 and "internal consistency" not in proc.stderr, proc.stderr
    near, axis = json.loads(proc.stdout)["points"]
    assert near["status"] == axis["status"] == "ok"
    assert (near["isotropy"], near["dims"]) == (axis["isotropy"], axis["dims"])


def _compare_reports(a, b, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, report in zip(paths, (a, b)):
        path.write_text(json.dumps(report))
    script = Path(__file__).resolve().parent.parent / "scripts" / "compare_reports.py"
    cmd = [sys.executable, str(script), *map(str, paths)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_compare_reports_reads_bases_as_subspaces(tmp_path):
    """scripts/compare_reports.py: identical reports print nothing and exit 0;
    another basis of the same route span prints its projector distance and
    exits 0; a changed dimension or verdict exits 1, naming the path."""
    s = load_scenario(str(SCENARIO_DIR / "circle_canonical_poisson.json"))
    report = json.loads(emit_report(run_scenario(s), "json"))
    same = _compare_reports(report, report, tmp_path)
    assert (same.returncode, same.stdout) == (0, "")
    rotated = copy.deepcopy(report)
    basis = rotated["points"][0]["route_b"]["basis"]
    basis[0] = [-x for x in basis[0]]
    rotated["points"][0]["agreement"]["distance"] += 1e-17
    moved = _compare_reports(report, rotated, tmp_path)
    assert moved.returncode == 0, moved.stdout
    assert "points[0].route_b.basis: projector distance 0" in moved.stdout
    assert "points[].agreement.distance: 1 differ" in moved.stdout
    rotated["points"][1]["dims"]["V"] += 1
    rotated["summary"]["agreement_failures"] = 1
    broken = _compare_reports(report, rotated, tmp_path)
    assert broken.returncode == 1
    assert "points[1].dims.V: 1 -> 2" in broken.stdout
    assert "summary.agreement_failures: 0 -> 1" in broken.stdout


def test_interleaved_runs_share_no_class_geometry(tmp_path):
    """Two scenarios whose isotropy descriptors coincide but mean different
    subgroups (the reflection y -> -y, then x -> -x), run alternately in one
    process, each report exactly what a fresh interpreter reports."""
    first = SCENARIO_DIR / "z2_reflection_area_form.json"
    mirrored = tmp_path / "mirrored.json"
    mirrored.write_text(
        json.dumps(
            {
                "version": VERSION,
                "n": 2,
                "dirac": {"distribution": [[0, 1]]},
                "action": {"finite": [[[1, 0], [0, 1]], [[-1, 0], [0, 1]]]},
                "samples": {
                    "explicit": [[0.0, 0.4], [0.0, 1.2], [0.0, -0.7], [0.5, 0.3]]
                },
            }
        )
    )
    expected = {path: _fresh_json(path) for path in (first, mirrored)}
    for path in (first, mirrored, first):
        report = run_scenario(load_scenario(str(path)))
        assert emit_report(report, "json").encode() == expected[path]


# -- command line ---------------------------------------------------------------


def test_cli_validate_prints_a_summary_line(capsys):
    assert main(["validate", str(SCENARIO_DIR / "circle_canonical_poisson.json")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: n=2, dirac=bivector")
    assert "20 sample points" in out


def test_cli_validate_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": VERSION}))
    assert main(["validate", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_run_json_exit_zero(capsys):
    code = main(
        ["run", str(SCENARIO_DIR / "z2_reflection_area_form.json"), "--format", "json"]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["summary"]["failures"] == 0
    assert captured.err == ""


def test_cli_run_reports_failures_on_stderr(capsys):
    code = main(["run", str(SCENARIO_DIR / "rotation_noninvariant_form.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED: 1 failure(s)" in captured.err


def test_cli_sample_overrides(capsys):
    path = str(SCENARIO_DIR / "circle_canonical_poisson.json")
    code = main(["run", path, "--samples", "3", "--seed", "11", "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["points"]) == 3
    assert payload["scenario"]["samples"]["random"]["seed"] == 11


def test_cli_sample_override_requires_a_random_block(capsys):
    path = str(SCENARIO_DIR / "z2_reflection_area_form.json")
    assert main(["run", path, "--samples", "3"]) == 2
    assert "random sample block" in capsys.readouterr().err


def test_cli_bracket_worked_example(tmp_path, capsys):
    payload = {
        "version": VERSION,
        "n": 2,
        "s1": {"tangent": ["y", "0"], "covector": ["0", "0"]},
        "s2": {"tangent": ["0", "x"], "covector": ["x*y", "1"]},
    }
    path = tmp_path / "sections.json"
    path.write_text(json.dumps(payload))
    assert main(["bracket", str(path)]) == 0
    text = capsys.readouterr().out
    assert "courant tangent:  [-x, y]" in text
    assert "courant covector: [1/2*y^2, 0]" in text
    assert "dorfman covector: [y^2, x*y]" in text
    assert main(["bracket", str(path), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dorfman"]["tangent"] == ["-x", "y"]


def _sections_scenario(sections) -> dict:
    data = base_scenario()
    data["dirac"] = {"sections": sections, "basepoint": [1.0, 0.0]}
    return data


def _bracket_payload(**sections) -> dict:
    payload = {
        "version": VERSION,
        "n": 2,
        "s1": {"tangent": ["y", "0"], "covector": ["0", "0"]},
        "s2": {"tangent": ["0", "x"], "covector": ["x*y", "1"]},
    }
    payload.update(sections)
    return payload


GOOD_SECTION = {"tangent": ["1", "0"], "covector": ["0", "0"]}


@pytest.mark.parametrize(
    "command, data, message",
    [
        (
            "run",
            _sections_scenario([GOOD_SECTION, {"tangent": ["0", "1"]}]),
            "dirac.sections[1]: missing required field 'covector'",
        ),
        (
            "run",
            _sections_scenario([["1", "0"], GOOD_SECTION]),
            "dirac.sections[0]: expected an object",
        ),
        ("bracket", _bracket_payload(s2=["0", "x"]), "payload.s2: expected an object"),
        (
            "bracket",
            _bracket_payload(s1={"tangent": ["y"], "covector": ["0", "0"]}),
            "payload.s1.tangent: expected 2 components",
        ),
        (
            "run",
            _sections_scenario([GOOD_SECTION, {**GOOD_SECTION, "tangnet": ["x", "y"]}]),
            "dirac.sections[1]: unknown fields ['tangnet']",
        ),
        ("bracket", _bracket_payload(s3=GOOD_SECTION), "payload: unknown fields ['s3']"),
        (
            "run",
            {**base_scenario(), "dirac": {"two_form": [[0, 1], [-1, 0]], "basepoint": [1.0, 0.0]}},
            "dirac: unknown fields ['basepoint']",
        ),
    ],
    ids=["scenario-missing-covector", "scenario-non-object", "payload-non-object",
         "payload-short-tangent", "scenario-section-typo", "payload-extra-section",
         "graph-basepoint"],
)
def test_malformed_sections_exit_2_naming_the_field(tmp_path, capsys, command, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.endswith(f": {message}\n"), err
    assert err.count(str(path)) == 1, err


def test_bracket_payload_version_checked(tmp_path):
    path = tmp_path / "sections.json"
    path.write_text(json.dumps({"version": "other/1", "n": 1, "s1": {}, "s2": {}}))
    with pytest.raises(ScenarioError, match="version"):
        load_bracket_payload(str(path))


def test_report_digests_names_a_non_scenario_file_and_goes_on(tmp_path):
    """A non-scenario JSON among the inputs (such as a workload's
    ``*.expect.json`` side file) gets one error line naming it; the next
    file is still digested and the script exits 2."""
    scenario = tmp_path / "area.json"
    scenario.write_bytes((SCENARIO_DIR / "z2_reflection_area_form.json").read_bytes())
    other = tmp_path / "area.expect.json"
    other.write_text(json.dumps({"points": 3, "skipped": 0}))
    script = SCENARIO_DIR.parent / "scripts" / "report_digests.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(other), str(scenario)], capture_output=True, text=True
    )
    assert proc.returncode == 2
    report = emit_report(run_scenario(load_scenario(str(scenario))), "json")
    assert proc.stdout == f"{hashlib.sha256(report.encode('utf-8')).hexdigest()}  area.json\n"
    assert proc.stderr.startswith(f"error: {other}: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_module_entry_point_is_byte_deterministic():
    cmd = [
        sys.executable,
        "-m",
        "dirac_reduce",
        "run",
        str(SCENARIO_DIR / "z2_circle_r3_two_form.json"),
        "--format",
        "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"}\n")
