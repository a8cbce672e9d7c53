"""The whole-sample passes give each point exactly what it gets alone.

Isotropy and fiber evaluation run once over a stack of all sample points;
the per-point functions are stacks of one.  On every bundled scenario and
on the three benchmark workloads (seed 7) a point's descriptor or error,
and its fiber basis, must not depend on the rest of the stack, bit for bit,
and the stacked polynomial evaluation must be Poly.evaluate's arithmetic;
a sections spec's fibers, spanned by one stacked SVD, must equal the span of
each point's own section values.
The reduction checks each stage once per stack and places each exact
isotropy descriptor into its rank class once, so its check and comparison
counts grow with the stacks and classes, not with the points.  Integer
polynomial input is parsed and checked on ints, with no Fraction built.
"""

import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dirac_reduce import reduction
from dirac_reduce.action import AmbiguousIsotropyError, IsotropyDescriptor, isotropy
from dirac_reduce.lindirac import is_lagrangian
from dirac_reduce.polyfield import (
    DegeneratePointError,
    SectionsSpec,
    evaluate_at,
    evaluate_fibers,
    generating_sections,
)
from dirac_reduce.scenario import _parse_dirac, load_scenario, run_scenario, sample_points
from dirac_reduce.subspace import Subspace, span

from helpers import vanishing_sections

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import write_workload  # noqa: E402

WORKLOADS = ("strata-dense", "exact-symbolic", "orbit-types")
BUNDLED = sorted(p.name for p in (ROOT / "scenarios").glob("*.json"))


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("workloads")
    for name in WORKLOADS:
        write_workload(name, 7, directory)
    return directory


def _scenario(name, workload_dir):
    if name in WORKLOADS:
        return load_scenario(str(workload_dir / f"{name}-7.json"))
    return load_scenario(str(ROOT / "scenarios" / name))


def _bits(values) -> np.ndarray:
    """The IEEE bit patterns, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("name", [*BUNDLED, *WORKLOADS])
def test_stacked_isotropy_equals_the_per_point_calls(name, workload_dir):
    s = _scenario(name, workload_dir)
    points = sample_points(s)
    stacked = isotropy(s.action, points, s.rank_tol)
    assert len(stacked) == len(points)
    for m, h in zip(points, stacked):
        try:
            alone = isotropy(s.action, m, s.rank_tol)
        except AmbiguousIsotropyError as exc:
            alone = exc
        if isinstance(alone, AmbiguousIsotropyError):
            assert type(h) is AmbiguousIsotropyError and str(h) == str(alone), m
            continue
        assert h.continuous_circle == alone.continuous_circle, m
        assert [i for i, _ in h.pairs] == [i for i, _ in alone.pairs], m
        assert np.array_equal(_bits([t for _, t in h.pairs]), _bits([t for _, t in alone.pairs])), m


@pytest.mark.parametrize("name", [*BUNDLED, *WORKLOADS])
def test_stacked_fibers_equal_evaluate_at(name, workload_dir):
    s = _scenario(name, workload_dir)
    points = sample_points(s)
    fibers = evaluate_fibers(s.dirac, points, s.rank_tol)
    assert len(fibers) == len(points)
    for i, m in enumerate(points):
        try:
            alone = evaluate_at(s.dirac, m, s.rank_tol)
        except DegeneratePointError as exc:
            assert str(fibers.errors[i]) == str(exc), m
            continue
        assert fibers.errors[i] is None, m
        assert np.array_equal(_bits(fibers.bases[i]), _bits(alone.space.basis)), m


_CONSTANT = load_scenario(str(ROOT / "scenarios" / "sections_constant_poisson.json"))
_SO3 = load_scenario(str(ROOT / "scenarios" / "so3_lie_poisson.json"))
_SKEW = [  # (d/dx, 0) and (x d/dy, y dx) pair to y: Dirac only where y = 0 and x != 0
    {"tangent": ["1", "0"], "covector": ["0", "0"]},
    {"tangent": ["0", "x"], "covector": ["y", "0"]},
]
SECTIONS = {  # a sections spec, and points at which to evaluate it besides random ones
    "constant": (_CONSTANT.dirac, sample_points(_CONSTANT).tolist()),
    "vanishing": (vanishing_sections(), [[0.0, 1.0], [0.0, 1e-8], [0.0, 0.0], [0.0, -2.5]]),
    "skew": (_parse_dirac({"sections": _SKEW, "basepoint": [1, 0]}, 2), [[2.0, 0.0], [0.0, 0.0]]),
    # the graph sections (pi(dx_i), dx_i) of the so(3)* Lie-Poisson bivector
    "lie-poisson": (SectionsSpec(generating_sections(_SO3.dirac), (1, 0, 0)), [[0.0, 0.0, 0.0]]),
}


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_stacked_sections_fibers_equal_the_span_at_each_point(name):
    """One stacked SVD over all points gives each point the basis and the
    verdict of the span() of its own section values and is_lagrangian, bit
    for bit, and the same message where that span is not Dirac (whose rows
    stay zero): at the given points and at 40 seeded random ones."""
    spec, points = SECTIONS[name]
    points = points + np.random.default_rng(40).uniform(-2, 2, (40, spec.base_dim)).tolist()
    fibers = evaluate_fibers(spec, points)
    for point, basis, error in zip(points, fibers.bases, fibers.errors, strict=True):
        alone = span([x.evaluate(point) for x in spec.sections], ambient_dim=2 * spec.base_dim)
        if is_lagrangian(alone):
            assert error is None and np.array_equal(_bits(basis), _bits(alone.basis)), point
        else:
            message = f"sections span a rank-{alone.dim} non-Dirac space at point {tuple(point)}"
            assert str(error) == message and not basis.any(), point


def test_stacked_evaluation_is_poly_evaluate_bit_for_bit(workload_dir):
    """exact-symbolic's omega has degree 8, so powers up to the 8th: numpy's
    vectorised pow rounds some of them differently from float ** int, and a
    pairwise sum adds the terms in another order; either shows here."""
    s = _scenario("exact-symbolic", workload_dir)
    rng = np.random.default_rng(5)
    points = np.concatenate([sample_points(s), rng.uniform(-3.0, 3.0, (40, s.n))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = s.dirac.matrix.evaluate_stack(points)
    entries = s.dirac.matrix.entries
    reference = [
        [[float(entries[i][j].evaluate(list(m))) for j in range(s.n)] for i in range(s.n)]
        for m in points.tolist()
    ]
    assert np.array_equal(_bits(stacked), _bits(reference))


def _counted(monkeypatch, owner, name: str) -> list:
    """Record each call of ``owner.name`` (a function or method) while the
    test runs."""
    original, calls = vars(owner)[name], []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("name", ["strata-dense", "orbit-types"])
def test_checks_and_comparisons_scale_with_stacks_not_points(name, workload_dir, monkeypatch):
    """Every Subspace the reduction returns is a view of a stack checked
    once, and each exact descriptor meets at most one representative per
    class; per point, orbit-types made 840 Subspace constructions and 3,748
    same_as calls."""
    s = _scenario(name, workload_dir)
    constructions = _counted(monkeypatch, Subspace, "__post_init__")
    comparisons = _counted(monkeypatch, IsotropyDescriptor, "same_as")
    stacks = _counted(monkeypatch, reduction, "_stack_geometry")
    report = run_scenario(s)
    ok = [r for r in report.points if r.status == "ok"]
    groups = {r.descriptor for r in ok}
    assert len(stacks) < len(ok) / 10 and len(groups) < len(ok) / 10
    assert len(constructions) <= 4 * len(stacks)
    assert len(comparisons) <= len(groups) * len(report.classes)


@pytest.mark.parametrize("name", WORKLOADS)
def test_integer_input_builds_no_fraction(name, workload_dir, monkeypatch):
    """Every coefficient of the workloads is an integer, so loading and
    running one makes no Fraction; with Fraction coefficients throughout,
    exact-symbolic made 10,485, strata-dense 19 and orbit-types 24."""
    constructions = _counted(monkeypatch, Fraction, "__new__")
    run_scenario(_scenario(name, workload_dir))
    assert len(constructions) == 0
