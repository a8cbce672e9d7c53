"""The whole-sample passes give each point exactly what it gets alone.

Isotropy and fiber evaluation run once over a stack of all sample points;
the per-point functions are stacks of one.  On every bundled scenario and
on the three benchmark workloads (seed 7) a point's descriptor or error,
and its fiber basis, must not depend on the rest of the stack, bit for bit,
and the stacked polynomial evaluation must be Poly.evaluate's arithmetic.
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dirac_reduce.action import AmbiguousIsotropyError, isotropy
from dirac_reduce.polyfield import DegeneratePointError, evaluate_at, evaluate_fibers
from dirac_reduce.scenario import load_scenario, sample_points

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
