"""Scenario files, the runner, report emission, and the command line."""

import copy
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirac_reduce.cli import main
from dirac_reduce.polyfield import courant_bracket, dorfman_bracket
from dirac_reduce.scenario import (
    MAX_SAMPLES,
    REPORT_VERSION,
    ScenarioError,
    VERSION,
    _dumps,
    _section_to_dict,
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
    assert len(SCENARIO_FILES) == 11


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


def _cli(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "dirac_reduce", *map(str, args)], capture_output=True, text=True
    )


@pytest.mark.parametrize(
    "entry, message",
    [
        ("(" * 340 + "x" + ")" * 340, "more than 100 nested parentheses"),
        ("-" * 1000, "unexpected end of input"),
    ],
    ids=["nested-parentheses", "minus-run"],
)
def test_deep_polynomial_entry_exits_2_naming_it(tmp_path, entry, message):
    """Nesting beyond MAX_DEPTH, and the end of input after a long run of
    unary minus signs, are input errors; the recursive parser died of a
    RecursionError on both."""
    data = base_scenario()
    data["dirac"] = {"bivector": [[0, entry], ["-x", 0]]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    proc = _cli("run", path)
    expected = f"error: {path}: dirac.bivector[0][1]: {message}\n"
    assert (proc.returncode, proc.stderr) == (2, expected)


def test_long_unary_minus_runs_parse(tmp_path, capsys):
    data = base_scenario()
    data["dirac"] = {"two_form": [[0, "-" * 1000 + "1"], ["-" * 1001 + "1", 0]]}
    assert _run_cli_on(tmp_path, data) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["run", "validate", "bracket"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 100_000, "JSON nested too deeply to read"),
        (
            b"\xff\xfe{}",
            "not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
        ),
    ],
    ids=["deep-json", "not-utf8"],
)
def test_unreadable_json_exits_2_naming_the_file(tmp_path, command, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    proc = _cli(command, path)
    assert (proc.returncode, proc.stderr) == (2, f"error: {path}: {message}\n")


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


@st.composite
def _spanning_rows(draw):
    """1 to n rows in R^n, n in {2, 3, 4}, of small rationals, not all zero."""
    n = draw(st.integers(2, 4))
    entry = st.builds(lambda a, b: a / b, st.integers(-5, 5), st.integers(1, 9))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=n)
    return draw(rows.filter(lambda r: any(x for row in r for x in row)))


@settings(max_examples=60, deadline=None)
@given(_spanning_rows())
@example([[1, 1, 0]])
def test_echoed_distribution_is_a_fixed_point(rows):
    """The echo of any distribution loads back to itself: its rows are an
    orthonormal basis, kept as given, not rebuilt by another SVD."""
    n = len(rows[0])
    data = {
        "version": VERSION,
        "n": n,
        "dirac": {"distribution": rows},
        "samples": {"explicit": [[1.0] * n]},
    }
    echoed = scenario_to_dict(scenario_from_dict(data))
    assert scenario_to_dict(scenario_from_dict(copy.deepcopy(echoed))) == echoed


def test_hand_typed_orthonormal_distribution_is_respanned():
    """Rows orthonormal to 5 digits only are re-spanned, not kept as given:
    the xy-plane typed as two rotated unit vectors stays invariant under the
    circle turning it, and its echo loads back to itself."""
    data = {
        "version": VERSION,
        "n": 3,
        "dirac": {"distribution": [[0.70711, 0.70711, 0], [-0.70711, 0.70711, 0]]},
        "action": {"circle": {"weights": [1], "fixed_dim": 1}},
        "samples": {"explicit": [[0.6, -0.7, 0.5], [0.0, 0.0, 0.8], [0.9, 0.0, 0.0]]},
    }
    s = scenario_from_dict(data)
    summary = summarize(run_scenario(s))
    assert summary["invariance"] == "pass"
    assert summary["comparisons"] == "applicable"
    assert summary["ok"] == 3 and summary["failures"] == 0
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
    assert skipped["stratum"] is None
    assert [s["count"] for s in payload["strata"]] == [1]


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
    assert list(payload) == [
        "version", "scenario", "strata", "points", "classes", "checks", "summary"
    ]
    assert payload["version"] == REPORT_VERSION == "dirac-reduce/2"
    assert payload["scenario"]["version"] == VERSION == "dirac-reduce/1"
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


@pytest.mark.parametrize(
    "name, labels, flags",
    [
        ("dihedral_distribution.json", {"circle:none"}, {True}),
        ("z2_circle_r3_two_form.json", {"circle:S1", "circle:-"}, {True, False}),
    ],
)
def test_text_labels_say_circle_none_where_the_action_has_no_circle(name, labels, flags):
    """continuous_circle is vacuously true without a circle factor: the text
    rows say ``circle:none`` there, as the header does, and the JSON keeps
    the flag.  With a circle, the rows say ``S1`` or ``-``."""
    report = run_scenario(load_scenario(str(SCENARIO_DIR / name)))
    text = emit_report(report, "text")
    assert ("circle none" in text.splitlines()[0]) == (flags == {True})
    assert set(re.findall(r" (circle:\S+) components:\d+ ", text)) == labels
    points = _resolved_points(json.loads(emit_report(report, "json")))
    assert {p["isotropy"]["continuous_circle"] for p in points} == flags


def _resolved_points(payload: dict) -> list:
    """The point rows of a report, each with its ``isotropy`` and ``dims``
    read from ``strata`` (None where the row has none)."""
    strata = payload["strata"]
    out = []
    for p in payload["points"]:
        stratum = None if p["stratum"] is None else strata[p["stratum"]]
        dims = None if p["dims"] is None else stratum["dims"][p["dims"]]
        out.append({**p, "isotropy": stratum and stratum["isotropy"], "dims": dims})
    return out


def _v1_point(index: int, row, applicable: bool) -> dict:
    """A point row of the ``dirac-reduce/1`` report, built from the reduction
    row itself: the layout a lifted report must reproduce."""
    def image(x, full):
        if x is None:
            return None
        if not full:
            return {"base_dim": x.base_dim, "basis": x.space.basis.tolist()}
        return {"base_dim": x.base_dim, "dim": x.space.dim, "lagrangian": x.lagrangian,
                "surjective": x.surjective, "basis": x.space.basis.tolist()}

    if row.status != "ok":
        agreement = None
    elif not applicable:
        agreement = "not-applicable"
    else:
        agreement = {"distance": row.distance, "agree": row.agree}
    return {
        "index": index,
        "point": list(row.point),
        "status": row.status,
        "reason": row.reason,
        "isotropy": row.descriptor.to_dict() if row.descriptor else None,
        "dims": row.dims.to_dict() if row.dims else None,
        "iq_identity": row.iq_identity,
        "d_q": image(row.d_q, False),
        "route_a": image(row.route_a, True),
        "route_b": image(row.route_b, True),
        "lagrangian_ok": row.lagrangian_ok,
        "agreement": agreement,
    }


def _script(name: str):
    """The module of ``scripts/<name>.py``."""
    path = SCENARIO_DIR.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
def test_report_with_bases_lifts_to_the_v1_report(path):
    """Every point's descriptor, dims and bases survive the per-stratum
    layout bit for bit: the ``--bases`` report, lifted by
    scripts/compare_reports.py, writes the bytes of the v1 report built from
    the reduction rows; without ``bases`` the rows lack exactly the bases."""
    report = run_scenario(load_scenario(str(path)))
    with_bases = json.loads(emit_report(report, "json", bases=True))
    applicable = report.invariance.ok
    expected = {
        "version": VERSION,
        "scenario": with_bases["scenario"],
        "points": [_v1_point(i, r, applicable) for i, r in enumerate(report.points)],
        **{k: with_bases[k] for k in ("classes", "checks", "summary")},
    }
    assert _dumps(_script("compare_reports").lift_v1(with_bases)) == _dumps(expected)
    default = json.loads(emit_report(report, "json"))
    assert {k: v for k, v in default.items() if k != "points"} == {
        k: v for k, v in with_bases.items() if k != "points"
    }
    for short, full in zip(default["points"], with_bases["points"]):
        assert short == {k: v for k, v in full.items() if k not in ("d_q", "route_a", "route_b")}
    strata = default["strata"]
    assert sum(s["count"] for s in strata) == sum(p["stratum"] is not None
                                                  for p in default["points"])
    assert all(len({json.dumps(d) for d in s["dims"]}) == len(s["dims"]) for s in strata)
    assert len({json.dumps(s["isotropy"]) for s in strata}) == len(strata)


def test_unknown_format_is_rejected():
    s = load_scenario(str(SCENARIO_DIR / "z2_reflection_area_form.json"))
    with pytest.raises(ScenarioError, match="format"):
        emit_report(run_scenario(s), "yaml")


# -- the JSON writer: json.dumps(indent=2, allow_nan=False), byte for byte ----------

EDGE_FLOATS = [-0.0, 0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, -1.5e-300, 0.1]
BIG_INTS = [2**63, -(2**63) - 1, 2**64 + 1, 10**40]
ODD_TEXT = [",", ":", '"', "]", "[", "\n", "{", "}", ",\"", "\\", "é", "∂x∧dy", "😀", "\x00", ""]

WRITER_CASES = {
    "edge floats": EDGE_FLOATS,
    "big ints": BIG_INTS,
    "bools in a number list": [1, True, 2.5, False, None, 0],
    "bools in a matrix": [[True, 1], [0.5, False], [None, 2**70]],
    "bool first": [True, 1.0],
    "numpy floats": [np.float64(0.1), np.float64(-0.0), 3],
    "numpy float matrix": [[np.float64(1e-5), 1.0], [np.float64(2.0), -7]],
    "numpy float leaf": {"d": np.float64(1e16)},
    "empties": {"l": [], "d": {}, "ll": [[]], "ld": [{}], "nested": [[], []]},
    "empty row among rows": [[1, 2], [], [3]],
    "empty dict in rows": [[{}], [{}, 1]],
    "ragged rows": [[1], [2, 3, 4], [5.5]],
    "rows and scalars": [[1], 2, [[3]]],
    "number then rows": [1, [2, 3]],
    "deep matrix": [[[1, 2], [3, 4]], [[5, 6]]],
    "tuples": ((1, 2), (3.5,), ()),
    "strings in rows": [["a,b", "c]"], ["d"]],
    "number then string": [1.5, ",", "]"],
    "odd keys and strings": {k: k for k in ODD_TEXT},
    "non-string keys": {1: "a", 2.5: [1], True: None, None: 0, -0.0: {}},
    "scalar top": 1e16,
    "string top": 'a\n"b',
}


@pytest.mark.parametrize("obj", list(WRITER_CASES.values()), ids=list(WRITER_CASES))
def test_json_writer_equals_json_dumps_on_edge_cases(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)


_numbers = st.one_of(
    st.integers(),
    st.sampled_from(BIG_INTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from(EDGE_FLOATS),
    st.booleans(),
    st.none(),
)
_text = st.one_of(st.text(max_size=6), st.sampled_from(ODD_TEXT))
_json_trees = st.recursive(
    st.one_of(_numbers, _text),
    lambda tree: st.one_of(
        st.lists(tree, max_size=5),
        st.dictionaries(_text, tree, max_size=5),
        st.lists(_numbers, max_size=6),  # the writer's flat fast path
        st.lists(st.lists(_numbers, max_size=4), max_size=4),  # and its matrices
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_json_trees)
def test_json_writer_equals_json_dumps(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2, allow_nan=False)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "where",
    [
        lambda x: x,
        lambda x: [1.0, x],
        lambda x: [[1.0], [2.0, x]],
        lambda x: {"a": {"b": x}},
        lambda x: {x: 1},
        lambda x: [np.float64(x)],
    ],
    ids=["leaf", "number list", "matrix", "dict value", "key", "numpy float"],
)
def test_json_writer_rejects_nan_and_infinity(bad, where):
    obj = where(bad)
    with pytest.raises(ValueError):
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        _dumps(obj)


@pytest.mark.parametrize("obj", [object(), [1, object()], {"a": {1, 2}}, {(1, 2): 0}])
def test_json_writer_raises_the_type_error_json_raises(obj):
    with pytest.raises(TypeError) as expected:
        json.dumps(obj, indent=2, allow_nan=False)
    with pytest.raises(TypeError) as raised:
        _dumps(obj)
    assert str(raised.value) == str(expected.value)


def _refuse_pure_python_encoder(*args, **kwargs):
    raise AssertionError("the pure-Python json encoder was used")


def test_json_emission_uses_no_pure_python_encoder():
    """Every bundled scenario is emitted with ``json.encoder._make_iterencode``,
    the pure-Python encoder an indent selects before CPython 3.14, made to
    raise, and its report equals that encoder's bytes.  A fresh interpreter
    also checks that emission imports no module that was not already loaded."""
    code = (
        "import json, sys\n"
        "from dirac_reduce.scenario import emit_report, load_scenario, report_to_dict, "
        "run_scenario\n"
        "def refuse(*args, **kwargs):\n"
        "    raise AssertionError('the pure-Python json encoder was used')\n"
        "for path in sys.argv[1:]:\n"
        "    report = run_scenario(load_scenario(path))\n"
        "    loaded = set(sys.modules)\n"
        "    original, json.encoder._make_iterencode = json.encoder._make_iterencode, refuse\n"
        "    try:\n"
        "        out = [emit_report(report, 'json', bases) for bases in (False, True)]\n"
        "    finally:\n"
        "        json.encoder._make_iterencode = original\n"
        "    new = sorted(set(sys.modules) - loaded)\n"
        "    assert not new, f'{path}: emission imported {new}'\n"
        "    expected = [json.dumps(report_to_dict(report, bases), indent=2, allow_nan=False)\n"
        "                + '\\n' for bases in (False, True)]\n"
        "    assert out == expected, f'{path}: the report differs from json.dumps'\n"
    )
    src = str(SCENARIO_DIR.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-c", code, *map(str, SCENARIO_FILES)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


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
    # Fix is built once per exact isotropy class; the reduction runs once per
    # stack, the points of one shape (V(m) = 0 or not, dim Fix), and once
    # more for each part of a stack that is cut by rank
    keys = {(r.descriptor.continuous_circle, r.descriptor.pairs) for r in report.points}
    assert len(per_class["fixed_subspace"]) == len(keys) < n_points
    shapes: dict = {}
    for r in report.points:
        shape = (r.descriptor.continuous_circle, r.dims.tangent_isotropy)
        shapes.setdefault(shape, set()).add(r.dims)
    cut = sum(len(dims) for dims in shapes.values() if len(dims) > 1)
    assert len(stacks) == len(shapes) + cut < n_points
    if name == "dihedral_distribution.json":
        # 6 exact classes make 3 shapes; the reflection stack is cut by rank
        # in 2, as D = span{e1} meets the axes of the reflections differently
        assert (len(keys), len(shapes), len(stacks)) == (6, 3, 3 + 2)
    if s.action.circle is None:
        # V = 0 at every point: P and Fix are built once per isotropy class
        n_classes = len(report.classes)
        assert n_classes < n_points
        assert {k: len(v) for k, v in per_class.items()} == dict.fromkeys(
            per_class, n_classes
        )


def test_runs_do_not_import_numpy_ma():
    """No bundled scenario's load, run or emission imports numpy.ma: plain
    np.unique imports it on first use, which costs more than a whole small
    run.  A fresh interpreter runs the scenarios one after another and names
    the first after which numpy.ma is loaded."""
    code = (
        "import sys\n"
        "from dirac_reduce.scenario import emit_report, load_scenario, run_scenario\n"
        "for path in sys.argv[1:]:\n"
        "    emit_report(run_scenario(load_scenario(path)), 'json')\n"
        "    if 'numpy.ma' in sys.modules:\n"
        "        sys.exit('numpy.ma imported by ' + path)\n"
    )
    src = str(SCENARIO_DIR.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    cmd = [sys.executable, "-c", code, *map(str, SCENARIO_FILES)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


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
    points = {tuple(p["point"]): p for p in _resolved_points(json.loads(proc.stdout))}
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
    near, axis = _resolved_points(json.loads(proc.stdout))
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
    report = json.loads(emit_report(run_scenario(s), "json", bases=True))
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
    # point 1 gets a dims table of its own, with V one larger
    tables = rotated["strata"][rotated["points"][1]["stratum"]]["dims"]
    tables.append({**tables[rotated["points"][1]["dims"]]})
    tables[-1]["V"] += 1
    rotated["points"][1]["dims"] = len(tables) - 1
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


@pytest.mark.parametrize("where", ["file", "flag"])
def test_rank_tol_decides_the_rank_of_a_distribution(tmp_path, capsys, where):
    """[[1, 0], [1, 1e-7]] spans a line at rank tolerance 1e-6, set in the
    file or by --rank-tol: the distribution is built at the run's rank
    tolerance, not at the default."""
    data = base_scenario()
    data["dirac"] = {"distribution": [[1, 0], [1, 1e-7]]}
    args = ["--rank-tol", "1e-6"]
    if where == "file":
        data["tolerances"], args = {"rank_tol": 1e-6}, []
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--format", "json", *args]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scenario"]["tolerances"]["rank_tol"] == 1e-6
    assert len(payload["scenario"]["dirac"]["distribution"]) == 1


def test_cli_bases_add_the_point_bases_to_the_json_report(capsys):
    path = str(SCENARIO_DIR / "z2_circle_r3_two_form.json")
    assert main(["run", path, "--format", "json"]) == 0
    short = json.loads(capsys.readouterr().out)
    assert main(["run", path, "--format", "json", "--bases"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert list(short["points"][0]) == [
        "index", "point", "status", "reason", "stratum", "dims", "iq_identity",
        "lagrangian_ok", "agreement",
    ]
    assert list(full["points"][0]) == [
        "index", "point", "status", "reason", "stratum", "dims", "iq_identity",
        "d_q", "route_a", "route_b", "lagrangian_ok", "agreement",
    ]
    assert {k: v for k, v in full.items() if k != "points"} == {
        k: v for k, v in short.items() if k != "points"
    }


@pytest.mark.parametrize("args", [[], ["--format", "text"]])
def test_cli_bases_need_the_json_format(capsys, args):
    path = str(SCENARIO_DIR / "z2_circle_r3_two_form.json")
    assert main(["run", path, "--bases", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --bases needs --format json\n"


def test_cli_fiber_failing_the_lagrangian_test_exits_1_without_a_traceback(tmp_path):
    """so(3) Lie-Poisson times 1e8: a valid input whose fiber fails the
    absolute self-pairing test.  The run says so on one stderr line and
    exits 1."""
    data = json.loads((SCENARIO_DIR / "so3_lie_poisson.json").read_text())
    data["dirac"]["bivector"] = [
        [e if e == "0" else f"100000000*({e})" for e in row] for row in data["dirac"]["bivector"]
    ]
    path = tmp_path / "so3_scaled.json"
    path.write_text(json.dumps(data))
    cmd = [sys.executable, "-m", "dirac_reduce", "run", str(path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        "numerical failure: a fiber failed the Lagrangian test: "
        "self-pairing 6.934e-08 exceeds tolerance 1.000e-09\n"
    )


def test_cli_sample_override_requires_a_random_block(capsys):
    path = str(SCENARIO_DIR / "z2_reflection_area_form.json")
    assert main(["run", path, "--samples", "3"]) == 2
    assert "random sample block" in capsys.readouterr().err


def test_cli_bracket_worked_example(tmp_path, capsys, monkeypatch):
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
    with monkeypatch.context() as patch:  # not the pure-Python json encoder
        patch.setattr(json.encoder, "_make_iterencode", _refuse_pure_python_encoder)
        assert main(["bracket", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["dorfman"]["tangent"] == ["-x", "y"]
    # byte for byte json.dumps(indent=2) of the two brackets
    s1, s2 = load_bracket_payload(str(path))
    brackets = {
        "courant": _section_to_dict(courant_bracket(s1, s2)),
        "dorfman": _section_to_dict(dorfman_bracket(s1, s2)),
    }
    assert out == json.dumps(brackets, indent=2) + "\n"


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
    report = run_scenario(load_scenario(str(scenario)))
    default, bases = (
        hashlib.sha256(emit_report(report, "json", b).encode("utf-8")).hexdigest()
        for b in (False, True)
    )
    assert default != bases
    assert proc.stdout == f"{default}  {bases}  area.json\n"
    assert proc.stderr.startswith(f"error: {other}: ") and proc.stderr.count("\n") == 1, proc.stderr


def test_untrafficked_lists_the_functions_no_command_enters():
    """On one scenario and the built-in bracket payload, vertical_space (only
    tests and the tracer call it) is listed; isotropy, which every run
    enters, and courant_bracket, which the bracket enters, are not."""
    script = SCENARIO_DIR.parent / "scripts" / "untrafficked.py"
    proc = subprocess.run(
        [sys.executable, str(script), str(SCENARIO_DIR / "z2_circle_r3_two_form.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    names = {line.split()[-1] for line in lines[:-1]}
    assert "vertical_space" in names and not names & {"isotropy", "courant_bracket"}
    assert lines[-1] == f"{len(lines) - 1} functions entered by no run"


STEADY = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]  # q3 - q1 = 1.75
WIDE = [10, 10, 10, 50, 50, 50, 90, 90, 90, 90]  # median 50, q3 - q1 = 70


@pytest.mark.parametrize(
    "parent, change, higher, expected",
    [
        # 9 of 10 pairs won, medians 10 apart
        (STEADY, [c + 10 for c in STEADY[:9]] + [90], True, "gain"),
        ([1 / c for c in STEADY], [1 / (c + 10) for c in STEADY[:9]] + [1], False, "gain"),
        # 8 of 10 pairs won
        (STEADY, [c + 10 for c in STEADY[:8]] + [90, 90], True, "no regression"),
        # every pair won, by less than the parent's q3 - q1
        (STEADY, [c + 1 for c in STEADY], True, "no regression"),
        # the median 30% worse, against a bound of 24%
        (STEADY, [c * 0.7 for c in STEADY], True, "regression"),
        ([c / 100 for c in STEADY], [c * 0.013 for c in STEADY], False, "regression"),
        # 20% worse: within the bound
        (STEADY, [c * 0.8 for c in STEADY], True, "no regression"),
        # the parent's q3 - q1 is 140% of its median
        (WIDE, WIDE[::-1], True, "unresolved"),
        (WIDE, WIDE[::-1], False, "unresolved"),
        # ... unless every run of the change is better than every parent run
        (WIDE, [91] * 10, True, "no regression"),
        (WIDE, [9] * 10, False, "no regression"),
    ],
)
def test_bench_pairs_verdict(parent, change, higher, expected):
    """scripts/bench_pairs.py's verdict on paired runs (run i of each side
    is pair i) under a bound of 24%."""
    assert _script("bench_pairs").verdict(parent, change, higher, 0.24) == expected


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
