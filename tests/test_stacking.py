"""The whole-sample passes give each point exactly what it gets alone.

Isotropy and fiber evaluation run once over a stack of all sample points;
the per-point functions are stacks of one.  A point's descriptor or error
must be what the reference in helpers.py gives it, bit for bit: that
reference applies isotropy's one rule (each candidate (f, theta) of the
point's rotation block with the largest |w| |m_j| decided by its residual
|f R(theta) m - m|, and, where that is above the tolerance, by whether f
moves m by at most the guard band near theta, to first order in the angle)
to one point, element and candidate at a time.  The comparison runs
on every bundled scenario, on the three benchmark workloads (seeds 7 and
31) and on planted stacks around every guard band; the circle's rotations
are built once per pass over the points, not once per candidate angle.
On the bundled scenarios and the workloads (seed 7) a point's fiber basis
must not depend on the rest of the stack, bit for bit, and the stacked
polynomial evaluation must be Poly.evaluate's arithmetic (lower triangle and
signed zeros included, in one pass or in many);
a sections spec's fibers, spanned by one stacked SVD, must equal the span of
each point's own section values.
The reduction checks each stage once per stack and places each exact
isotropy descriptor into its rank class once, so its check and comparison
counts grow with the stacks and classes, not with the points; its stacks
are one per shape (V(m) = 0 or not, dim Fix), shared by conjugate classes,
and a row must not depend on which classes share its stack.  Integer
polynomial input is parsed and checked on ints, with no Fraction built.
"""

import functools
import json
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from dirac_reduce import polyfield, reduction
from dirac_reduce.action import (
    ActionSpec,
    AmbiguousIsotropyError,
    CircleFactor,
    FiniteGroupRep,
    IsotropyDescriptor,
    isotropy,
    validate_action,
)
from dirac_reduce.lindirac import is_lagrangian
from dirac_reduce.polyfield import (
    DegeneratePointError,
    PolyTwoForm,
    SectionsSpec,
    TwoFormSpec,
    evaluate_at,
    evaluate_fibers,
    generating_sections,
)
from dirac_reduce.scenario import _parse_dirac, load_scenario, run_scenario, sample_points
from dirac_reduce.subspace import Subspace, span

from helpers import (
    circle_action,
    poly_values,
    reference_isotropies,
    section_polys,
    vanishing_sections,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import write_workload  # noqa: E402

WORKLOADS = ("strata-dense", "exact-symbolic", "orbit-types")
SEEDS = (7, 31)
BUNDLED = sorted(p.name for p in (ROOT / "scenarios").glob("*.json"))
GRAPHS = [  # the bundled bivector and two-form scenarios
    path.name
    for path in sorted((ROOT / "scenarios").glob("*.json"))
    if json.loads(path.read_text())["dirac"].keys() & {"bivector", "two_form"}
]


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("workloads")
    for name in WORKLOADS:
        for seed in SEEDS:
            write_workload(name, seed, directory)
    return directory


def _scenario(name, workload_dir):
    """A bundled scenario, or a workload by name (seed 7) or by name-seed."""
    if name in BUNDLED:
        return load_scenario(str(ROOT / "scenarios" / name))
    return load_scenario(str(workload_dir / f"{name}{'-7' if name in WORKLOADS else ''}.json"))


def _bits(values) -> np.ndarray:
    """The IEEE bit patterns, so that 0.0 and -0.0 differ."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


def _assert_same_isotropy(stacked, reference, points):
    """Each point's descriptor equals the reference's, indices and angle bit
    patterns included, or both are AmbiguousIsotropyErrors with one message."""
    assert len(stacked) == len(reference) == len(points)
    for h, expected, m in zip(stacked, reference, points):
        if isinstance(expected, AmbiguousIsotropyError):
            assert type(h) is AmbiguousIsotropyError and str(h) == str(expected), m
            continue
        assert type(h) is IsotropyDescriptor, m
        assert h.continuous_circle == expected.continuous_circle, m
        assert [i for i, _ in h.pairs] == [i for i, _ in expected.pairs], m
        angles = [[t for _, t in x.pairs] for x in (h, expected)]
        assert np.array_equal(_bits(angles[0]), _bits(angles[1])), m


@pytest.mark.parametrize("name", [*BUNDLED, *WORKLOADS, *(f"{w}-31" for w in WORKLOADS)])
def test_stacked_isotropy_equals_the_per_point_calls(name, workload_dir):
    """The stacked isotropy gives every sample point what the reference
    (helpers.reference_isotropies, one point, element and candidate at a
    time) gives it, angle bits and error messages included: on the bundled
    scenarios and the workloads at seeds 7 and 31."""
    s = _scenario(name, workload_dir)
    points = sample_points(s)
    stacked = isotropy(s.action, points, s.rank_tol)
    _assert_same_isotropy(stacked, reference_isotropies(s.action, points, s.rank_tol), points)


# (weights, the finite element besides z -> -z): the quarter turn of the
# first block; the swap of the blocks, the one element that moves block norms;
# the third of a turn, whose entries are not integers, so f^T m is rounded
PLANTED = [
    ((1, 2), "quarter"),
    ((3, 2), "quarter"),
    ((4, 6), "quarter"),
    ((2, -4), "quarter"),
    ((1000, 999), "quarter"),
    ((3, 3), "swap"),
    ((1, 2), "third"),
]
PLANTED_TOLS = [1e-9, 1e-7]


@functools.cache
def _planted(weights, turn, tol):
    """An action of the circle of ``weights`` on two blocks of R^5, with a
    fixed last coordinate, times the reflection z -> -z and the group of the
    element ``turn``; points with |m| < 1 (so the isotropy tolerance is
    ``tol`` and the guard band 1000 tol) at offsets d of 0 and just inside
    and just outside +-tol and +-1000 tol: from the reflection plane z = 0
    (z = d and d/2, which the reflection moves by 2|z|), from the axis of
    each block and of the whole circle, on that axis, with blocks of equal
    norm and with the second block the first turned by d; their images under
    random group elements; and the reference's isotropy of each point."""
    g, reflection = np.eye(5), np.diag([1.0, 1.0, 1.0, 1.0, -1.0])
    rotation = CircleFactor((1,)).rotation
    if turn == "swap":
        g[:4, :4], order = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2)), 2
    elif turn == "quarter":
        g[:2, :2], order = [[0.0, -1.0], [1.0, 0.0]], 4
    else:
        g[:2, :2], order = rotation(2 * np.pi / 3), 3
    powers = [np.linalg.matrix_power(g, k) for k in range(order)]
    elements = tuple(h @ r for r in (np.eye(5), reflection) for h in powers)
    act = validate_action(ActionSpec(5, FiniteGroupRep(elements), CircleFactor(weights, 1)))

    rng = np.random.default_rng(19)
    bands = [d * f for d in (tol, 1000 * tol) for f in (0.999, 1.001)]
    offsets = [0.0] + [s * d for d in bands for s in (1, -1)]
    points = []
    for d in offsets:
        for m in rng.uniform(-0.35, 0.35, (3, 5)):
            planted = [m.copy() for _ in range(8)]
            planted[0][4], planted[1][4] = d, d / 2
            planted[6][:] = [0.0, 0.0, 0.0, 0.0, d]
            planted[2][:2] = planted[3][2:4] = planted[4][:2] = planted[4][2:4] = [0.6 * d, 0.8 * d]
            turned = rotation(rng.uniform(0, 2 * np.pi)) @ m[:2]
            planted[5][2:4] = turned * (1 + d / np.linalg.norm(m[:2]))
            planted[7][2:4] = rotation(d) @ m[:2]
            points += planted
    for m in list(points):
        h = elements[rng.integers(len(elements))] @ act.circle.rotation(rng.uniform(0, 2 * np.pi))
        points.append(h @ m)
    points = np.array(points)
    return act, points, reference_isotropies(act, points, tol)


@pytest.mark.parametrize("tol", PLANTED_TOLS)
@pytest.mark.parametrize("weights, turn", PLANTED)
def test_stacked_isotropy_equals_the_reference_at_planted_points(weights, turn, tol):
    act, points, reference = _planted(weights, turn, tol)
    _assert_same_isotropy(isotropy(act, points, tol), reference, points)


def test_planted_points_meet_every_ambiguity():
    """The planted stacks make the reference raise each of its guard-band
    errors, so the comparison above covers every one: a residual inside the
    band with the circle free or fixed, and every rotation block inside it."""
    raised = {
        str(h)
        for weights, turn in PLANTED
        for tol in PLANTED_TOLS
        for h in _planted(weights, turn, tol)[2]
        if isinstance(h, AmbiguousIsotropyError)
    }
    for pattern in (
        r"the rotating part of the point lies inside the guard band",
        r"element \d+ with angle \d\.\d{6} fixes the point only inside the guard band",
        r"finite element \d+ fixes the point only inside the guard band",
    ):
        assert any(re.fullmatch(pattern, message) for message in raised), pattern


def test_an_element_that_moves_the_point_inside_the_band_is_not_missed():
    """At the (4, 6) stack, a point whose first block has norm 1.001e-6, just
    above the guard band of 1e-6, and whose second block is large.  Element 1
    (the quarter turn of the first block) at theta = pi/3 turns the second
    block by 2 pi and moves the first by 4.1e-7, inside the band: the point
    is 8e-7 from a point with 24 components.  The candidates of the first
    block above the band miss theta = pi/3 and give 2 components; those of
    the block with the largest |w| |m_j| make the point a skip."""
    act = _planted((4, 6), "quarter", 1e-9)[0]
    m = np.array(
        [6.006e-7, 8.008e-7, -0.19663566004949334, 0.07515139872245724, -0.13389035722283768]
    )
    g = act.finite.elements[1] @ act.circle.rotation(np.pi / 3)
    assert 1e-9 < np.abs(g @ m - m).max() <= 1e-6
    assert isotropy(act, m * [0, 0, 1, 1, 1], 1e-9).component_count == 24
    with pytest.raises(AmbiguousIsotropyError, match=r"element 1 with angle 1\.047198"):
        isotropy(act, m, 1e-9)
    spec = TwoFormSpec(PolyTwoForm.from_constant(np.zeros((5, 5))))
    row = reduction.reduce_point(spec, act, [m], 1e-9)[0]
    assert row.status == reduction.STATUS_BOUNDARY and row.descriptor is None


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
        values = [poly_values(section_polys(x), point) for x in spec.sections]
        alone = span(values, ambient_dim=2 * spec.base_dim)
        if is_lagrangian(alone):
            assert error is None and np.array_equal(_bits(basis), _bits(alone.basis)), point
        else:
            message = f"sections span a rank-{alone.dim} non-Dirac space at point {tuple(point)}"
            assert str(error) == message and not basis.any(), point


def _evaluation_points(s) -> np.ndarray:
    """The sample points, 40 seeded random ones, the same with about half of
    their coordinates set to 0.0 and about half of all coordinates negated
    (so many are -0.0), and the all-0.0 and all--0.0 points."""
    rng = np.random.default_rng(5)
    random = rng.uniform(-3.0, 3.0, (40, s.n))
    zeros = np.where(rng.random(random.shape) < 0.5, 0.0, random)
    zeros = np.where(rng.random(random.shape) < 0.5, -zeros, zeros)
    extremes = np.array([[0.0] * s.n, [-0.0] * s.n])
    points = np.concatenate([sample_points(s), random, zeros, extremes])
    assert (np.signbit(points) & (points == 0.0)).any()
    return points


def _evaluated_entries(s, points) -> list:
    """Poly.evaluate of every stored entry, the lower triangle and the
    diagonal included, at each point."""
    entries = s.dirac.matrix.entries
    return [
        [[float(entries[i][j].evaluate(list(m))) for j in range(s.n)] for i in range(s.n)]
        for m in points.tolist()
    ]


@pytest.mark.parametrize("name", [*GRAPHS, "exact-symbolic"])
def test_stacked_evaluation_is_poly_evaluate_bit_for_bit(name, workload_dir):
    """The matrix evaluates its upper triangle and negates it as 0.0 - upper
    for the lower: every entry, signed zeros included, has the bits of
    Poly.evaluate of the stored entry, on every bundled bivector and two-form
    scenario and on exact-symbolic.  exact-symbolic's omega has degree 8, so
    powers up to the 8th: numpy's vectorised pow rounds some of them
    differently from float ** int, and a pairwise sum adds the terms in
    another order; either shows there."""
    s = _scenario(name, workload_dir)
    points = _evaluation_points(s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = s.dirac.matrix.evaluate_stack(points)
    assert np.array_equal(_bits(stacked), _bits(_evaluated_entries(s, points)))


@pytest.mark.parametrize("bound", [1, 1 << 12])
def test_stacked_evaluation_in_passes_equals_one_pass(bound, workload_dir, monkeypatch):
    """With the pass bound cut to 1 float (one point per pass) or to 4096
    floats (exact-symbolic's 458 upper terms in 6 rows of at most 84 slots
    take 504 floats per point: passes of 8 points, the last one shorter), the
    101 points evaluate to the bits of one pass and of Poly.evaluate."""
    s = _scenario("exact-symbolic", workload_dir)
    points = _evaluation_points(s)
    whole = s.dirac.matrix.evaluate_stack(points)
    monkeypatch.setattr(polyfield, "_PASS_FLOATS", bound)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        passes = s.dirac.matrix.evaluate_stack(points)
    assert len(points) % 8  # at 4096 floats, the last pass is shorter
    assert np.array_equal(_bits(passes), _bits(whole))
    assert np.array_equal(_bits(passes), _bits(_evaluated_entries(s, points)))


def _counted(monkeypatch, owner, name: str) -> list:
    """Record each call of ``owner.name`` (a function or method) while the
    test runs."""
    original, calls = vars(owner)[name], []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("weights", [(1,), (1, 2), (1000, 999)])
def test_circle_isotropy_builds_rotations_per_stack_not_per_angle(weights, monkeypatch):
    """The residual of every candidate angle of a pass over the points that
    the screen keeps is one stacked product, so isotropy calls
    CircleFactor.rotation once per pass, on 10 points as on 200, whatever
    the number of candidates; solved per pair, it made one call per
    candidate angle.  A pass holds at most _PASS_FLOATS floats: for each of
    a point's |w| candidates per element, the larger of the screen's 16 per
    rotation block and the three n x n matrices of a candidate it keeps."""
    act = circle_action(weights, fixed_dim=1)
    points = np.random.default_rng(8).uniform(-2.0, 2.0, (200, act.n))
    per_candidate = max(16 * len(weights), 3 * act.n**2)
    per_pass = max(1, polyfield._PASS_FLOATS // (per_candidate * max(weights)))
    for count in (10, 200):
        calls = _counted(monkeypatch, CircleFactor, "rotation")
        isotropy(act, points[:count])
        assert len(calls) == -(-count // per_pass)


# stacks per workload (seed 7): one per shape (V(m) = 0 or not, dim Fix), so
# orbit-types' 15 exact classes, 13 of them rotation axes, share 3 stacks
SHAPE_STACKS = {"orbit-types": 3, "strata-dense": 4, "exact-symbolic": 3}


@pytest.mark.parametrize("name", ["strata-dense", "orbit-types"])
def test_checks_and_comparisons_scale_with_stacks_not_points(name, workload_dir, monkeypatch):
    """Every Subspace the reduction returns is a view of a stack checked
    once, so the only ones constructed are Fix and its annihilator, once per
    exact descriptor; and each exact descriptor meets at most one
    representative per class.  Per point, orbit-types made 840 Subspace
    constructions and 3,748 same_as calls."""
    s = _scenario(name, workload_dir)
    constructions = _counted(monkeypatch, Subspace, "__post_init__")
    comparisons = _counted(monkeypatch, IsotropyDescriptor, "same_as")
    stacks = _counted(monkeypatch, reduction, "_stack_geometry")
    report = run_scenario(s)
    ok = [r for r in report.points if r.status == "ok"]
    groups = {r.descriptor for r in ok}
    assert len(stacks) == SHAPE_STACKS[name]
    assert len(stacks) < len(ok) / 10 and len(groups) < len(ok) / 10
    assert len(constructions) <= 2 * len(groups)
    assert len(comparisons) <= len(groups) * len(report.classes)


def test_exact_symbolic_runs_one_stack_per_shape(workload_dir, monkeypatch):
    stacks = _counted(monkeypatch, reduction, "_stack_geometry")
    run_scenario(_scenario("exact-symbolic", workload_dir))
    assert len(stacks) == SHAPE_STACKS["exact-symbolic"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_integer_input_builds_no_fraction(name, workload_dir, monkeypatch):
    """Every coefficient of the workloads is an integer, so loading and
    running one makes no Fraction; with Fraction coefficients throughout,
    exact-symbolic made 10,485, strata-dense 19 and orbit-types 24."""
    constructions = _counted(monkeypatch, Fraction, "__new__")
    run_scenario(_scenario(name, workload_dir))
    assert len(constructions) == 0
