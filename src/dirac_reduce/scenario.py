"""Scenario files, the point-set runner, and report emission.

A scenario is a JSON document (version ``dirac-reduce/1``) bundling a Dirac
field spec, a group action, a sample set (explicit points and/or a seeded
random box) and tolerances.  Loading
validates everything; running produces a deterministic report: same file,
same seed, same bytes.  The JSON report (version ``dirac-reduce/2``) has one
entry per isotropy stratum and one short row per point; the per-point bases
are written only on request.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from .action import (
    MAX_WEIGHT,
    ActionSpec,
    ActionValidationError,
    CircleFactor,
    FiniteGroupRep,
    validate_action,
)
from .poly import Poly, PolyParseError, _coerce, _Record, parse_poly
from .polyfield import (
    BivectorSpec,
    CheckReport,
    DiracFieldSpec,
    DistributionSpec,
    PolyOneForm,
    PolySection,
    PolyTwoForm,
    PolyVectorField,
    SectionsSpec,
    TwoFormSpec,
    infinitesimal_invariance,
    integrability_check,
)
from .reduction import DEFAULT_AGREE_TOL, STATUS_OK, PointReduction, rank_classes, reduce_point
from .subspace import DEFAULT_TOL, Subspace, span

__all__ = [
    "VERSION",
    "REPORT_VERSION",
    "dirac_kind",
    "ScenarioError",
    "SampleSpec",
    "Scenario",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "sample_points",
    "RunReport",
    "run_scenario",
    "summarize",
    "emit_report",
    "exit_code",
    "load_bracket_payload",
    "check_tolerance",
]

VERSION = "dirac-reduce/1"  # scenario files and bracket payloads
REPORT_VERSION = "dirac-reduce/2"  # the JSON run report
# largest random sample count: the draw and each point's reduction are held in memory
MAX_SAMPLES = 1_000_000

_DIRAC_KINDS = {
    BivectorSpec: "bivector",
    TwoFormSpec: "two_form",
    DistributionSpec: "distribution",
    SectionsSpec: "sections",
}


def dirac_kind(spec: DiracFieldSpec) -> str:
    """The scenario-file name of a Dirac field spec variant."""
    return _DIRAC_KINDS[type(spec)]


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


class SampleSpec(_Record):
    """Explicit points plus an optional seeded uniform box."""

    explicit: tuple = ()
    count: int | None = None
    seed: int | None = None
    box: tuple | None = None


class Scenario(_Record):
    n: int
    dirac: DiracFieldSpec
    action: ActionSpec
    samples: SampleSpec
    rank_tol: float = DEFAULT_TOL
    agree_tol: float = DEFAULT_AGREE_TOL


# -- parsing ------------------------------------------------------------------


def _object(value, context: str, fields) -> dict:
    """``value`` if it is a JSON object with no field outside ``fields``."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected an object")
    extra = set(value) - set(fields)
    if extra:
        raise ScenarioError(f"{context}: unknown fields {sorted(extra)}")
    return value


def _need(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"{context}: missing required field {key!r}")
    return mapping[key]


def check_tolerance(value: float, context: str) -> float:
    """``value`` if it is a usable rank or agreement tolerance: finite, in (0, 1)."""
    if not 0.0 < value < 1.0:  # also false for NaN
        raise ScenarioError(f"{context}: must be a finite number in (0, 1), got {value!r}")
    return value


def _as_number(value, context: str) -> float:
    if isinstance(value, bool):
        raise ScenarioError(f"{context}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ScenarioError(f"{context}: expected a number, got {type(value).__name__}")
    try:
        number = float(_coerce(value)) if isinstance(value, str) else float(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"{context}: not a number: {value!r}") from exc
    except OverflowError:
        raise ScenarioError(f"{context}: number out of the float range") from None
    if not math.isfinite(number):
        raise ScenarioError(f"{context}: not a finite number: {value!r}")
    return number


def _as_matrix(value, context: str) -> list:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{context}: expected a non-empty matrix (list of rows)")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ScenarioError(f"{context}: row {i} is not a list")
        rows.append([_as_number(entry, f"{context}[{i}]") for entry in row])
    return rows


def _as_poly(value, n: int, context: str) -> Poly:
    if isinstance(value, bool):
        raise ScenarioError(f"{context}: expected a polynomial, got a boolean")
    if isinstance(value, (int, float)):
        _as_number(value, context)  # finite and within the float range
        return Poly.constant(value, n)
    if isinstance(value, str):
        try:
            poly = parse_poly(value, n)
            for _, c in poly.terms:
                float(c)  # OverflowError beyond the float range
        except PolyParseError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
        except OverflowError:
            raise ScenarioError(f"{context}: coefficient out of the float range") from None
        return poly
    raise ScenarioError(
        f"{context}: expected a number or polynomial string, got {type(value).__name__}"
    )


def _as_poly_matrix(value, n: int, context: str) -> PolyTwoForm:
    if not isinstance(value, list) or len(value) != n:
        raise ScenarioError(f"{context}: expected an {n} x {n} matrix")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != n:
            raise ScenarioError(f"{context}: row {i} must have {n} entries")
        rows.append(
            tuple(_as_poly(entry, n, f"{context}[{i}][{j}]") for j, entry in enumerate(row))
        )
    try:
        return PolyTwoForm(tuple(rows))
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def _poly_components(value, n: int, context: str) -> tuple:
    if not isinstance(value, list) or len(value) != n:
        raise ScenarioError(f"{context}: expected {n} components")
    return tuple(_as_poly(entry, n, f"{context}[{i}]") for i, entry in enumerate(value))


def _as_section(value, n: int, context: str) -> PolySection:
    _object(value, context, ("tangent", "covector"))
    tangent = _poly_components(_need(value, "tangent", context), n, f"{context}.tangent")
    covector = _poly_components(_need(value, "covector", context), n, f"{context}.covector")
    return PolySection(PolyVectorField(tangent), PolyOneForm(covector))


_VARIANTS = ("bivector", "two_form", "distribution", "sections")


def _parse_dirac(value, n: int, rank_tol: float = DEFAULT_TOL) -> DiracFieldSpec:
    """The Dirac field spec; a distribution's rank is decided at ``rank_tol``."""
    _object(value, "dirac", (*_VARIANTS, "basepoint"))
    variants = [k for k in _VARIANTS if k in value]
    if len(variants) != 1:
        raise ScenarioError(
            "dirac: exactly one of bivector / two_form / distribution / sections required"
        )
    kind = variants[0]
    if kind != "sections":
        _object(value, "dirac", (kind,))  # a basepoint belongs to generating sections only
    if kind == "bivector":
        return BivectorSpec(_as_poly_matrix(value[kind], n, "dirac.bivector"))
    if kind == "two_form":
        return TwoFormSpec(_as_poly_matrix(value[kind], n, "dirac.two_form"))
    if kind == "distribution":
        rows = _as_matrix(value[kind], "dirac.distribution")
        if any(len(r) != n for r in rows):
            raise ScenarioError(f"dirac.distribution: rows must have {n} entries")
        rows = np.array(rows)
        # rows orthonormal to rounding (an echoed SVD basis is) are kept as
        # given; any others, hand-typed decimals included, are re-spanned
        if np.abs(rows @ rows.T - np.eye(len(rows))).max() <= 4 * n * np.finfo(float).eps:
            return DistributionSpec(Subspace(n, rows, rank_tol))
        return DistributionSpec(span(rows, ambient_dim=n, tol=rank_tol))
    pairs = value["sections"]
    if not isinstance(pairs, list):
        raise ScenarioError("dirac.sections: expected a list of sections")
    sections = [_as_section(pair, n, f"dirac.sections[{i}]") for i, pair in enumerate(pairs)]
    basepoint = _need(value, "basepoint", "dirac.sections")
    if not isinstance(basepoint, list) or len(basepoint) != n:
        raise ScenarioError("dirac.basepoint: expected a point with n coordinates")
    try:
        return SectionsSpec(
            tuple(sections),
            tuple(_as_number(c, "dirac.basepoint") for c in basepoint),
        )
    except (ValueError, OverflowError) as exc:
        raise ScenarioError(f"dirac.sections: {exc}") from exc


def _parse_action(value, n: int) -> ActionSpec:
    value = _object({} if value is None else value, "action", ("finite", "circle"))
    if "finite" in value and value["finite"] is not None:
        mats = value["finite"]
        if not isinstance(mats, list) or not mats:
            raise ScenarioError("action.finite: expected a non-empty list of matrices")
        elements = []
        for i, mat in enumerate(mats):
            rows = _as_matrix(mat, f"action.finite[{i}]")
            if len(rows) != n or any(len(r) != n for r in rows):
                raise ScenarioError(f"action.finite[{i}]: expected an {n} x {n} matrix")
            elements.append(np.array(rows))
        finite = FiniteGroupRep(tuple(elements))
    else:
        finite = FiniteGroupRep.trivial(n)
    circle = None
    if value.get("circle") is not None:
        c = _object(value["circle"], "action.circle", ("weights", "fixed_dim"))
        weights = _need(c, "weights", "action.circle")
        if (
            not isinstance(weights, list)
            or not weights
            or any(not isinstance(w, int) or isinstance(w, bool) or w == 0 for w in weights)
        ):
            raise ScenarioError("action.circle.weights: expected nonzero integers")
        if any(abs(w) > MAX_WEIGHT for w in weights):
            raise ScenarioError(
                f"action.circle.weights: a weight exceeds {MAX_WEIGHT} in absolute value"
            )
        fixed_dim = c.get("fixed_dim", 0)
        if not isinstance(fixed_dim, int) or isinstance(fixed_dim, bool) or fixed_dim < 0:
            raise ScenarioError("action.circle.fixed_dim: expected a nonnegative integer")
        circle = CircleFactor(tuple(weights), fixed_dim)
        if circle.n != n:
            raise ScenarioError(
                f"action.circle: acts on R^{circle.n}, scenario dimension is {n}"
            )
    try:
        return validate_action(ActionSpec(n, finite, circle))
    except (ActionValidationError, ValueError) as exc:
        raise ScenarioError(f"action: {exc}") from exc


def _norm_overflows(point) -> bool:
    """Points are reduced in float64, where |m|^2 must stay finite."""
    return not math.isfinite(sum(c * c for c in point))


def _parse_samples(value, n: int) -> SampleSpec:
    value = _object({} if value is None else value, "samples", ("explicit", "random"))
    explicit = []
    if value.get("explicit") is not None:
        if not isinstance(value["explicit"], list):
            raise ScenarioError("samples.explicit: expected a list of points")
        for i, point in enumerate(value["explicit"]):
            if not isinstance(point, list) or len(point) != n:
                raise ScenarioError(
                    f"samples.explicit[{i}]: expected a point with {n} coordinates"
                )
            explicit.append(
                tuple(_as_number(c, f"samples.explicit[{i}]") for c in point)
            )
            if _norm_overflows(explicit[-1]):
                raise ScenarioError(f"samples.explicit[{i}]: the point's norm overflows float64")
    count = seed = box = None
    if value.get("random") is not None:
        r = _object(value["random"], "samples.random", ("count", "seed", "box"))
        count = _need(r, "count", "samples.random")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ScenarioError("samples.random.count: expected a nonnegative integer")
        if count > MAX_SAMPLES:
            raise ScenarioError(f"samples.random.count: more than {MAX_SAMPLES} points")
        seed = _need(r, "seed", "samples.random")
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ScenarioError("samples.random.seed: expected a nonnegative integer")
        raw_box = _need(r, "box", "samples.random")
        if not isinstance(raw_box, list) or len(raw_box) != n:
            raise ScenarioError(f"samples.random.box: expected {n} coordinate intervals")
        box = []
        for i, interval in enumerate(raw_box):
            if not isinstance(interval, list) or len(interval) != 2:
                raise ScenarioError(
                    f"samples.random.box[{i}]: expected an interval [low, high]"
                )
            lo = _as_number(interval[0], f"samples.random.box[{i}]")
            hi = _as_number(interval[1], f"samples.random.box[{i}]")
            if not lo <= hi:
                raise ScenarioError(f"samples.random.box[{i}]: low > high")
            box.append((lo, hi))
        if _norm_overflows([max(abs(lo), abs(hi)) for lo, hi in box]):
            raise ScenarioError("samples.random.box: the farthest corner's norm overflows float64")
        box = tuple(box)
    return SampleSpec(explicit=tuple(explicit), count=count, seed=seed, box=box)


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a JSON object")
    version = _need(data, "version", "scenario")
    if version != VERSION:
        raise ScenarioError(f"scenario: unsupported version {version!r}, expected {VERSION!r}")
    _object(data, "scenario", ("version", "n", "dirac", "action", "samples", "tolerances"))
    n = _need(data, "n", "scenario")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ScenarioError("scenario: n must be a positive integer")
    tolerances = {"rank_tol": DEFAULT_TOL, "agree_tol": DEFAULT_AGREE_TOL}
    if data.get("tolerances") is not None:
        for name, value in _object(data["tolerances"], "tolerances", tolerances).items():
            context = f"tolerances.{name}"
            tolerances[name] = check_tolerance(_as_number(value, context), context)
    dirac = _parse_dirac(_need(data, "dirac", "scenario"), n, tolerances["rank_tol"])
    action = _parse_action(data.get("action"), n)
    samples = _parse_samples(data.get("samples"), n)
    return Scenario(n=n, dirac=dirac, action=action, samples=samples, **tolerances)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{path}: JSON nested too deeply to read") from exc


def _scenario_from_file(path: str, data) -> Scenario:
    """:func:`scenario_from_dict` of the document ``data`` read from ``path``,
    whose errors name the file."""
    try:
        return scenario_from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def load_scenario(path: str) -> Scenario:
    """Load and fully validate a scenario file."""
    return _scenario_from_file(path, _read_json(path))


# -- canonical serialization -----------------------------------------------------


def _section_to_dict(section: PolySection) -> dict:
    """A section as its scenario-file object: each component's string."""
    return {
        "tangent": [p.to_str() for p in section.tangent.components],
        "covector": [p.to_str() for p in section.covector.components],
    }


def _dirac_to_dict(spec: DiracFieldSpec) -> dict:
    kind = dirac_kind(spec)
    if kind == "distribution":
        return {kind: [list(map(float, row)) for row in spec.subspace.basis]}
    if kind == "sections":
        sections = [_section_to_dict(s) for s in spec.sections]
        return {kind: sections, "basepoint": list(spec.basepoint)}
    return {kind: [[p.to_str() for p in row] for row in spec.matrix.entries]}


def scenario_to_dict(s: Scenario) -> dict:
    finite = [[list(map(float, row)) for row in e] for e in s.action.finite.elements]
    action: dict = {"finite": finite}
    action["circle"] = (
        None
        if s.action.circle is None
        else {"weights": list(s.action.circle.weights), "fixed_dim": s.action.circle.fixed_dim}
    )
    samples: dict = {"explicit": [list(p) for p in s.samples.explicit]}
    samples["random"] = (
        None
        if s.samples.count is None
        else {
            "count": s.samples.count,
            "seed": s.samples.seed,
            "box": [list(interval) for interval in s.samples.box],
        }
    )
    return {
        "version": VERSION,
        "n": s.n,
        "dirac": _dirac_to_dict(s.dirac),
        "action": action,
        "samples": samples,
        "tolerances": {"rank_tol": s.rank_tol, "agree_tol": s.agree_tol},
    }


def sample_points(s: Scenario) -> np.ndarray:
    """Explicit points followed by the seeded uniform box draw."""
    points = [list(p) for p in s.samples.explicit]
    if s.samples.count:
        rng = np.random.default_rng(s.samples.seed)
        lows = [b[0] for b in s.samples.box]
        highs = [b[1] for b in s.samples.box]
        points.extend(rng.uniform(lows, highs, size=(s.samples.count, s.n)).tolist())
    return np.array(points, dtype=float).reshape(len(points), s.n)


# -- running ---------------------------------------------------------------------


class RunReport(_Record):
    scenario: Scenario
    points: tuple  # PointReduction, in input order
    classes: tuple  # RankClass
    integrability: CheckReport
    invariance: CheckReport


def run_scenario(s: Scenario) -> RunReport:
    """Reduce every sample point along both routes, in input order, and run
    the whole-scenario checks.  The checks are decided from the spec alone;
    the reduction evaluates each fiber D(m) once and runs once over all the
    points, as one stack per shape of isotropy class (see :mod:`.reduction`)."""
    points = sample_points(s)
    try:  # every polynomial evaluation at the samples happens here
        rows = reduce_point(s.dirac, s.action, points, s.rank_tol, s.agree_tol)
    except OverflowError as exc:
        raise ScenarioError(f"sample evaluation: {exc}") from None
    return RunReport(
        scenario=s,
        points=rows,
        classes=rank_classes(rows),
        integrability=integrability_check(s.dirac),
        invariance=infinitesimal_invariance(s.dirac, s.action, s.rank_tol),
    )


def summarize(report: RunReport) -> dict:
    """Aggregate counts; a pure function of the report entries."""
    rows = report.points
    ok_rows = [r for r in rows if r.status == STATUS_OK]
    invariance_ok = report.invariance.ok
    lagrangian_failures = sum(1 for r in ok_rows if not r.lagrangian_ok)
    compared = ok_rows if invariance_ok else []  # comparisons apply to an invariant structure
    agreement_failures = sum(1 for r in compared if r.agree is False)
    distances = [r.distance for r in compared if r.distance is not None]
    failures = (
        lagrangian_failures
        + agreement_failures
        + (0 if report.integrability.ok else 1)
        + (0 if invariance_ok else 1)
    )
    return {
        "points": len(rows),
        "ok": len(ok_rows),
        "skipped": len(rows) - len(ok_rows),
        "comparisons": "applicable" if invariance_ok else "not-applicable",
        "lagrangian_failures": lagrangian_failures,
        "agreement_failures": agreement_failures,
        "max_distance": max(distances) if distances else None,
        "rank_constant": all(c.constant for c in report.classes),
        "iq_identity_all": all(r.iq_identity for r in ok_rows),
        "integrability": "pass" if report.integrability.ok else "fail",
        "invariance": "pass" if invariance_ok else "fail",
        "failures": failures,
    }


def exit_code(report: RunReport) -> int:
    return 0 if summarize(report)["failures"] == 0 else 1


# -- emission ---------------------------------------------------------------------


def _check_to_dict(check: CheckReport) -> dict:
    return {
        "kind": check.kind,
        "method": check.method,
        "ok": check.ok,
        "tol": check.tol,
        "max_residual": check.max_residual,
        # every check is decided from the spec, so no failure has a point
        # and no point is skipped; both keys stay for the report's layout
        "failures": [
            {"index": list(f.index), "point": None, "residual": f.residual}
            for f in check.failures
        ],
        "skipped": [],
    }


def _dirac_value_dict(value) -> dict | None:
    if value is None:
        return None
    return {
        "base_dim": value.base_dim,
        "basis": value.space.basis.tolist(),
    }


def _image_dict(image) -> dict | None:
    if image is None:
        return None
    return {
        "base_dim": image.base_dim,
        "dim": image.space.dim,
        "lagrangian": image.lagrangian,
        "surjective": image.surjective,
        "basis": image.space.basis.tolist(),
    }


def _agreement(row: PointReduction, applicable: bool):
    if row.status != STATUS_OK:
        return None
    if not applicable:
        return "not-applicable"
    return {"distance": row.distance, "agree": row.agree}


def _strata_and_points(rows, applicable: bool, bases: bool) -> tuple:
    """The ``strata`` table and the ``points`` rows of a report.

    A stratum is one exact isotropy descriptor, in first-seen point order,
    with the number of points carrying it and the distinct ``dims`` tables
    seen there.  A point row names its stratum and its ``dims`` by index.
    Descriptors are told apart by the repr of their dict, which keeps every
    point's descriptor, signed zeros included, bit for bit."""
    strata: list = []
    index_of: dict = {}  # repr of a descriptor's dict -> its stratum
    points = []
    for index, row in enumerate(rows):
        stratum = dims = None
        if row.descriptor is not None:
            isotropy = row.descriptor.to_dict()
            stratum = index_of.setdefault(repr(isotropy), len(strata))
            if stratum == len(strata):
                strata.append({"isotropy": isotropy, "count": 0, "dims": []})
            entry = strata[stratum]
            entry["count"] += 1
            if row.dims is not None:
                table, tables = row.dims.to_dict(), entry["dims"]
                if table not in tables:
                    tables.append(table)
                dims = tables.index(table)
        out: dict = {
            "index": index,
            "point": list(row.point),
            "status": row.status,
            "reason": row.reason,
            "stratum": stratum,
            "dims": dims,
            "iq_identity": row.iq_identity,
        }
        if bases:
            out["d_q"] = _dirac_value_dict(row.d_q)
            out["route_a"] = _image_dict(row.route_a)
            out["route_b"] = _image_dict(row.route_b)
        out["lagrangian_ok"] = row.lagrangian_ok
        out["agreement"] = _agreement(row, applicable)
        points.append(out)
    return strata, points


def report_to_dict(report: RunReport, bases: bool = False) -> dict:
    """The JSON report (``dirac-reduce/2``): one entry per stratum and one
    short row per point; with ``bases``, each point row also carries D_Q(m)
    and both route images."""
    strata, points = _strata_and_points(report.points, report.invariance.ok, bases)
    return {
        "version": REPORT_VERSION,
        "scenario": scenario_to_dict(report.scenario),
        "strata": strata,
        "points": points,
        "classes": [
            {
                "indices": list(c.indices),
                "descriptor": c.descriptor.to_dict(),
                "rank_constant": c.constant,
            }
            for c in report.classes
        ],
        "checks": {
            "integrability": _check_to_dict(report.integrability),
            "invariance": _check_to_dict(report.invariance),
        },
        "summary": summarize(report),
    }


def _check_lines(check: CheckReport, tag: str) -> list:
    verdict = "pass" if check.ok else "fail"
    lines = [f"{tag}: {verdict} ({check.method}, max residual {check.max_residual:.3e})"]
    if not check.ok:
        label = "component" if check.method == "exact" else "section"
        for f in check.failures[:5]:
            index = ",".join(map(str, f.index))
            lines.append(f"{tag}: FAIL ({label} ({index}), residual {f.residual:.3e})")
        if len(check.failures) > 5:
            lines.append(f"{tag}: ... {len(check.failures) - 5} more failures")
    return lines


def _describe(s: Scenario) -> str:
    """The one-line account of a scenario that opens a text report and the
    output of ``validate``."""
    circle, order = s.action.circle, s.action.finite.order
    shown = "none" if circle is None else f"weights {list(circle.weights)} fixed {circle.fixed_dim}"
    return f"n={s.n}, dirac={dirac_kind(s.dirac)}, finite order {order}, circle {shown}"


def _format_text(report: RunReport) -> str:
    s = report.scenario
    summary = summarize(report)
    lines = [
        f"scenario: {_describe(s)}",
        f"points: {summary['points']} ({summary['ok']} ok, {summary['skipped']} skipped)",
    ]
    lines.extend(_check_lines(report.integrability, "integrability"))
    lines.extend(_check_lines(report.invariance, "invariance"))
    lines.append(
        f"{'idx':>4} {'status':<18} {'isotropy':<26} {'dims(T_G,V)':<12} {'distance':<12} agree"
    )
    applicable = report.invariance.ok
    for i, r in enumerate(report.points):
        if r.status != STATUS_OK:
            lines.append(f"{i:>4} {r.status:<18} {r.reason or ''}")
            continue
        dims = f"({r.dims.tangent_isotropy},{r.dims.vertical})"
        if not applicable:
            verdict, dist = "n/a", "n/a"
        elif r.distance is None:
            verdict, dist = "no", "n/a"  # a route failed to be Lagrangian
        else:
            verdict, dist = ("yes" if r.agree else "NO"), f"{r.distance:.3e}"
        h = r.descriptor  # continuous_circle is vacuously true where there is no circle
        fixes = "none" if s.action.circle is None else "S1" if h.continuous_circle else "-"
        label = f"circle:{fixes} components:{h.component_count}"
        lines.append(f"{i:>4} {r.status:<18} {label:<26} {dims:<12} {dist:<12} {verdict}")
    constant = "yes" if summary["rank_constant"] else "NO"
    iq = "yes" if summary["iq_identity_all"] else "no"
    lines.append(f"classes: {len(report.classes)}, ranks constant within each: {constant}")
    lines.append(f"iq dimension identity at all ok points: {iq}")
    max_distance = summary["max_distance"]
    shown = "n/a" if max_distance is None else f"{max_distance:.3e}"
    lines.append(
        f"summary: failures={summary['failures']} max distance {shown} "
        f"(comparisons {summary['comparisons']})"
    )
    return "\n".join(lines) + "\n"


@functools.cache
def _encoder(separator: str):
    """CPython's json C encoder, one per item separator: keys joined by ": ",
    no circular check, NaN and ±inf rejected with ValueError.  With an indent,
    json.dumps never reaches it before CPython 3.14."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", separator, False, False, False,
    )


_ascii = json.encoder.encode_basestring_ascii
# the scalars written as json writes them, without a call of the C encoder; a
# float is left to the C encoder, which rejects NaN and ±inf
_SCALAR = {
    str: _ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key(key) -> str:
    """A key that is not a string, as json spells it: '{K: null}' → 'K'."""
    return "".join(_encoder(",")({key: None}, 0))[1:-7]


def _dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, byte for byte, for a
    value whose first line is indented as ``nl`` (a newline and the indent).

    Python walks the dicts and the lists of strings or containers.  A list of
    numbers (or of booleans and nulls), or a list of non-empty lists of them,
    is written by the C encoder in one call, with the separator of its
    innermost level; a matrix's row breaks are then set with ``str.replace``.
    No such literal holds a quote or a bracket, and floats are written by
    ``float.__repr__``, as json writes them."""
    if not isinstance(obj, (dict, list, tuple)):
        write = _SCALAR.get(type(obj))
        return write(obj) if write else "".join(_encoder(",")(obj, 0))
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    inner = nl + "  "
    if isinstance(obj, dict):
        items = [
            f"{_ascii(k) if isinstance(k, str) else _key(k)}: "
            f"{write(v) if (write := _SCALAR.get(type(v))) else _dumps(v, inner)}"
            for k, v in obj.items()
        ]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    first = obj[0]
    if isinstance(first, (list, tuple)):
        if all(isinstance(row, (list, tuple)) for row in obj):
            cell = inner + "  "
            flat = "".join(_encoder("," + cell)(obj, 0))
            # no string (an empty dict is {} either way), no empty row, and
            # one bracket per row: no list inside a row
            if '"' not in flat and "[]" not in flat and flat.count("[") == len(obj) + 1:
                rows = flat[2:-2].replace("]," + cell + "[", f"{inner}],{inner}[{cell}")
                return f"[{inner}[{cell}{rows}{inner}]{nl}]"
    elif not isinstance(first, (dict, str)):
        flat = "".join(_encoder("," + inner)(obj, 0))
        if '"' not in flat and flat.count("[") == 1:  # no string, no list inside
            return f"[{inner}{flat[1:-1]}{nl}]"
    items = [_dumps(v, inner) for v in obj]
    return f"[{inner}{(',' + inner).join(items)}{nl}]"


def emit_report(report: RunReport, format: str = "text", bases: bool = False) -> str:
    """Render a run report; json output is stable byte-for-byte: the bytes of
    ``json.dumps(report_to_dict(report, bases), indent=2, allow_nan=False)``.
    ``bases`` adds each point's bases to the json report."""
    if format == "json":
        return _dumps(report_to_dict(report, bases)) + "\n"
    if format == "text":
        return _format_text(report)
    raise ScenarioError(f"unknown report format {format!r}")


# -- bracket payloads ---------------------------------------------------------------


def load_bracket_payload(path: str):
    """Load a two-section payload for the symbolic bracket command."""
    data = _read_json(path)
    try:
        if not isinstance(data, dict):
            raise ScenarioError("expected a JSON object")
        version = data.get("version", VERSION)
        if version != VERSION:
            raise ScenarioError(f"unsupported version {version!r}")
        _object(data, "payload", ("version", "n", "s1", "s2"))
        n = _need(data, "n", "payload")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ScenarioError("payload: n must be a positive integer")
        return tuple(
            _as_section(_need(data, k, "payload"), n, f"payload.{k}") for k in ("s1", "s2")
        )
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
