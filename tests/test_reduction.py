"""Both reduction routes on worked examples with frozen outcomes, plus the
rank bookkeeping that the runner reports."""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_reduce import lindirac, reduction
from dirac_reduce.action import (
    ANGLE_TOL,
    TWO_PI,
    ActionSpec,
    AmbiguousIsotropyError,
    CircleFactor,
    FiniteGroupRep,
    IsotropyDescriptor,
    average_projector,
    fixed_subspace,
    isotropy,
    validate_action,
)
from dirac_reduce.poly import parse_poly
from dirac_reduce.polyfield import (
    BivectorSpec,
    DegeneratePointError,
    DistributionSpec,
    PolyTwoForm,
    TwoFormSpec,
    evaluate_at,
    evaluate_fibers,
)
from dirac_reduce.reduction import (
    STATUS_BOUNDARY,
    STATUS_DEGENERATE,
    STATUS_OK,
    InternalConsistencyError,
    compare_routes,
    descriptor_classes,
    rank_report,
    reduce_isotropy_route,
    reduce_orbit_route,
    reduce_point,
    restrict_to_stratum,
)
from dirac_reduce.scenario import (
    VERSION,
    SampleSpec,
    Scenario,
    load_scenario,
    run_scenario,
    sample_points,
    scenario_from_dict,
)
from dirac_reduce.subspace import Subspace, direct_sum, span

from helpers import (
    action_geometry,
    assert_subspace_close,
    circle_action,
    d4_action,
    product_action_r3,
    reference_isotropies,
    vanishing_sections,
    z2_reflection_action,
)

CANONICAL = np.array([[0.0, 1.0], [-1.0, 0.0]])
PI_SPEC = BivectorSpec(PolyTwoForm.from_constant(CANONICAL))
AREA_SPEC = TwoFormSpec(PolyTwoForm.from_constant(CANONICAL))
AXIS_DISTRIBUTION = DistributionSpec(span(np.array([[1.0, 0.0]]), ambient_dim=2))


def trivial_action(n: int):
    return validate_action(ActionSpec(n, FiniteGroupRep.trivial(n)))


# -- the smooth-orthogonal window ---------------------------------------------


def test_k_perp_finite_action_is_everything():
    # no continuous directions: V = 0, so the window is all of R^n + (R^n)*
    w = action_geometry(z2_reflection_action(), [0.7, 0.3]).k_perp
    assert_subspace_close(w, Subspace.full(4))


def test_k_perp_circle_dimensions():
    act = circle_action((1,))
    assert action_geometry(act, [1.0, 0.0]).k_perp.dim == 3
    assert action_geometry(act, np.zeros(2)).k_perp.dim == 4


# -- restriction to the isotropy stratum --------------------------------------


def test_restrict_area_form_to_reflection_axis():
    d_q = restrict_to_stratum(AREA_SPEC, z2_reflection_action(), np.array([0.5, 0.0]))
    assert d_q.space.ambient_dim == 2
    assert_subspace_close(d_q.space, span(np.array([[1.0, 0.0]]), ambient_dim=2))


def test_restrict_trivial_action_returns_same_structure():
    m = np.array([0.4, -1.2])
    d_q = restrict_to_stratum(PI_SPEC, trivial_action(2), m)
    assert d_q.space.distance(evaluate_at(PI_SPEC, m).space) < 1e-12


def test_restrict_at_circle_origin_is_zero_dimensional():
    d_q = restrict_to_stratum(PI_SPEC, circle_action((1,)), np.zeros(2))
    assert d_q.space.ambient_dim == 0
    assert d_q.space.dim == 0


def test_restrict_distribution_to_dihedral_diagonal():
    d_q = restrict_to_stratum(AXIS_DISTRIBUTION, d4_action(), np.array([0.9, 0.9]))
    assert_subspace_close(d_q.space, span(np.array([[0.0, 1.0]]), ambient_dim=2))


# -- quotient models -----------------------------------------------------------


def test_quotient_model_projection_is_isometry_killing_vertical():
    act, m = circle_action((1,)), np.array([1.0, 0.0])
    quotient, _ = reduce_isotropy_route(PI_SPEC, act, m)
    p = quotient.basis
    assert quotient.dim == 1
    np.testing.assert_allclose(p @ p.T, np.eye(1), atol=1e-12)
    np.testing.assert_allclose(p @ action_geometry(act, m).vertical.basis.T, 0.0, atol=1e-12)


def test_free_circle_point_reduces_to_pure_covector_line():
    act = circle_action((1,))
    m = np.array([1.0, 0.0])
    _, image_a = reduce_isotropy_route(PI_SPEC, act, m)
    _, image_b = reduce_orbit_route(PI_SPEC, act, m)
    expected = span(np.array([[0.0, 1.0]]), ambient_dim=2)
    assert image_a.lagrangian and image_b.lagrangian
    assert_subspace_close(image_a.space, expected)
    assert_subspace_close(image_b.space, expected)


def test_weight_two_circle_reduces_the_same_way():
    act = circle_action((2,))
    m = np.array([1.0, 0.0])
    assert isotropy(act, m).component_count == 2  # the point keeps a Z/2
    _, image_a = reduce_isotropy_route(PI_SPEC, act, m)
    assert_subspace_close(image_a.space, span(np.array([[0.0, 1.0]]), ambient_dim=2))
    out = compare_routes(PI_SPEC, act, m)
    assert out.agree and out.distance < 1e-10


def test_reflection_axis_reduces_to_pure_tangent_line():
    act = z2_reflection_action()
    m = np.array([0.5, 0.0])
    _, image_a = reduce_isotropy_route(AREA_SPEC, act, m)
    assert_subspace_close(image_a.space, span(np.array([[1.0, 0.0]]), ambient_dim=2))
    out = compare_routes(AREA_SPEC, act, m)
    assert out.agree and out.distance < 1e-10


def test_full_isotropy_origin_gives_zero_dimensional_quotient():
    act = circle_action((1,))
    _, image_a = reduce_isotropy_route(PI_SPEC, act, np.zeros(2))
    _, image_b = reduce_orbit_route(PI_SPEC, act, np.zeros(2))
    assert image_a.base_dim == 0 and image_a.space.dim == 0 and image_a.lagrangian
    assert image_b.space.dim == 0
    assert compare_routes(PI_SPEC, act, np.zeros(2)).agree
    assert compare_routes(AXIS_DISTRIBUTION, d4_action(), np.zeros(2)).agree


def test_trivial_action_routes_recover_the_structure():
    m = np.array([0.4, -1.2])
    quotient, image = reduce_isotropy_route(PI_SPEC, trivial_action(2), m)
    np.testing.assert_allclose(quotient.basis, np.eye(2), atol=1e-12)
    assert image.space.distance(evaluate_at(PI_SPEC, m).space) < 1e-12
    assert compare_routes(PI_SPEC, trivial_action(2), m).agree


def test_product_action_plane_and_axis_points():
    act = product_action_r3()
    omega = np.zeros((3, 3))
    omega[0, 1], omega[1, 0] = 1.0, -1.0
    spec = TwoFormSpec(PolyTwoForm.from_constant(omega))
    quotient, image = reduce_isotropy_route(spec, act, np.array([0.8, 0.5, 0.0]))
    assert quotient.dim == 1
    assert_subspace_close(image.space, span(np.array([[0.0, 1.0]]), ambient_dim=2))
    quotient, image = reduce_isotropy_route(spec, act, np.array([0.0, 0.0, 1.3]))
    assert quotient.dim == 1
    assert_subspace_close(image.space, span(np.array([[1.0, 0.0]]), ambient_dim=2))
    for pt in ([0.8, 0.5, 0.0], [0.0, 0.0, 1.3], [0.6, -0.4, 0.9]):
        out = compare_routes(spec, act, np.array(pt))
        assert out.agree, pt


def test_routes_agree_at_random_free_circle_points():
    act = circle_action((1,))
    rng = np.random.default_rng(42)
    for _ in range(15):
        m = rng.uniform(0.4, 2.0, 2) * rng.choice([-1.0, 1.0], 2)
        out = compare_routes(PI_SPEC, act, m)
        assert out.agree and out.distance < 1e-8, m


# -- rank bookkeeping -----------------------------------------------------------


def test_rank_dims_reflection_axis():
    report = rank_report(
        AREA_SPEC, z2_reflection_action(), [np.array([0.5, 0.0]), np.array([2.0, 0.0])]
    )
    row = report.rows[0]
    assert row.status == STATUS_OK
    assert row.dims.to_dict() == {
        "V": 0,
        "V_ann": 2,
        "V_G_ann": 1,
        "T_G": 1,
        "T": 1,
        "D_cap_K_perp": 2,
        "D_cap_T_plus_VG": 1,
        "DQ_cap_KQ_perp": 1,
    }
    assert row.iq_identity
    assert len(report.classes) == 1 and report.all_constant


def test_rank_dims_free_circle_point():
    report = rank_report(PI_SPEC, circle_action((1,)), [np.array([1.0, 0.0])])
    dims = report.rows[0].dims.to_dict()
    assert dims["V"] == 1 and dims["T"] == 2 and dims["D_cap_K_perp"] == 1
    assert dims["D_cap_T_plus_VG"] == 1 and dims["DQ_cap_KQ_perp"] == 1
    assert report.rows[0].iq_identity


def test_rank_dims_trivial_action_sees_everything():
    rows = [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]]
    so3 = BivectorSpec(
        PolyTwoForm(tuple(tuple(parse_poly(e, 3) for e in r) for r in rows))
    )
    report = rank_report(so3, trivial_action(3), [np.array([0.3, -0.7, 1.1])])
    dims = report.rows[0].dims.to_dict()
    assert dims["D_cap_K_perp"] == 3 and dims["T"] == 3
    assert report.rows[0].iq_identity


def test_rank_report_product_action_classes():
    act = product_action_r3()
    omega = np.zeros((3, 3))
    omega[0, 1], omega[1, 0] = 1.0, -1.0
    spec = TwoFormSpec(PolyTwoForm.from_constant(omega))
    pts = [
        np.array([0.8, 0.5, 0.0]),  # reflection plane, circle free
        np.array([0.0, 0.0, 1.3]),  # rotation axis, full circle isotropy
        np.array([0.0, 0.0, 0.0]),  # everything fixed
        np.array([0.6, -0.4, 0.9]),  # generic
    ]
    report = rank_report(spec, act, pts)
    assert [r.status for r in report.rows] == [STATUS_OK] * 4
    assert len(report.classes) == 4 and report.all_constant and report.iq_all
    by_point = {r.point: r.dims.to_dict() for r in report.rows}
    assert by_point[(0.8, 0.5, 0.0)]["T"] == 2
    assert by_point[(0.0, 0.0, 1.3)]["T"] == 1
    assert by_point[(0.0, 0.0, 0.0)]["T"] == 0
    assert by_point[(0.6, -0.4, 0.9)]["T"] == 3


def test_rank_report_dihedral_distribution_classes():
    pts = [
        np.zeros(2),
        np.array([1.1, 0.0]),
        np.array([0.0, 1.1]),
        np.array([0.9, 0.9]),
        np.array([0.7, -0.7]),
        np.array([1.3, 0.4]),
    ]
    report = rank_report(AXIS_DISTRIBUTION, d4_action(), pts)
    # six orbit classes: origin, two axis types, two diagonal types, generic
    assert len(report.classes) == 6
    assert report.all_constant
    # the quotient-side count can drop below the ambient window on strata
    # whose tangent contains the distribution; that is reported, not hidden
    assert [r.iq_identity for r in report.rows] == [False, False, True, True, True, True]
    assert not report.iq_all


def test_rank_report_skips_ambiguous_boundary_points():
    report = rank_report(
        AREA_SPEC,
        z2_reflection_action(),
        [np.array([0.5, 0.0]), np.array([1.0, 1e-8])],
    )
    assert report.rows[1].status == STATUS_BOUNDARY
    assert report.rows[1].descriptor is None and report.rows[1].dims is None
    assert "guard band" in report.rows[1].reason
    # classes are built from the surviving rows only
    assert len(report.classes) == 1
    assert report.classes[0].indices == (0,)


def test_rank_report_skips_degenerate_sections_points():
    points = [np.array([1.0, 0.5]), np.array([0.0, 1.0])]
    report = rank_report(vanishing_sections(), trivial_action(2), points)
    assert report.rows[0].status == STATUS_OK
    assert report.rows[1].status == STATUS_DEGENERATE
    assert "rank" in report.rows[1].reason


def test_descriptor_classes_first_fit_partition():
    act = d4_action()
    descriptors = [
        isotropy(act, np.array([1.1, 0.0])),
        isotropy(act, np.array([0.0, 1.1])),
        isotropy(act, np.array([2.0, 0.0])),
    ]
    # conjugate but distinct subgroups stay in separate classes
    assert descriptor_classes(descriptors) == [[0, 2], [1]]


def _first_fit(descriptors) -> list:
    """The reference partition: each descriptor joins the class of the first
    representative it is the same as, one same_as call per row and class."""
    classes: list = []
    reps: list = []
    for pos, h in enumerate(descriptors):
        for cls_idx, rep in enumerate(reps):
            if h.same_as(rep):
                classes[cls_idx].append(pos)
                break
        else:
            reps.append(h)
            classes.append([pos])
    return classes


def _angle(base: float, offset: float) -> float:
    """``base`` moved by ``offset`` angle tolerances, on [0, 2 pi): offsets
    around 0 and 2 pi land on both sides of the wrap."""
    return (base + offset * ANGLE_TOL) % TWO_PI


# Offsets within (|k| <= 0.6) and just outside (1.2, 1.5) ANGLE_TOL of a base.
_OFFSETS = (-1.5, -1.2, -0.6, -0.4, 0.0, 0.4, 0.6, 1.2, 1.5)
_PAIRS = st.tuples(
    st.integers(0, 2), st.sampled_from((0.0, 1.0, TWO_PI)), st.sampled_from(_OFFSETS)
).map(lambda t: (t[0], _angle(t[1], t[2])))
_DESCRIPTORS = st.builds(
    IsotropyDescriptor, st.booleans(), st.lists(_PAIRS, min_size=1, max_size=2).map(tuple)
)


def _chain(base: float) -> list:
    """a ~ b and b ~ c, but not a ~ c."""
    return [IsotropyDescriptor(False, ((1, _angle(base, k)),)) for k in (0.0, 0.6, 1.2)]


@pytest.mark.parametrize("base", [1.0, 0.0, TWO_PI - 0.6 * ANGLE_TOL])
def test_chain_is_not_transitive(base):
    a, b, c = _chain(base)
    assert a.same_as(b) and b.same_as(c) and not a.same_as(c)


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(_DESCRIPTORS, max_size=5),
    chain=st.permutations(_chain(1.0) + _chain(TWO_PI - 0.6 * ANGLE_TOL)),
    picks=st.lists(st.integers(0, 10), max_size=40),
)
def test_descriptor_classes_is_first_fit(pool, chain, picks):
    """Grouping by exact descriptor, then placing each group once, is the
    first-fit partition: repeated descriptors, angles on both sides of the
    tolerance and of the 2 pi wrap, and non-transitive chains in any order."""
    pool = pool + chain
    descriptors = [pool[i % len(pool)] for i in picks]
    # equal descriptors that are distinct objects
    descriptors += [IsotropyDescriptor(h.continuous_circle, h.pairs) for h in descriptors[:3]]
    assert descriptor_classes(descriptors) == _first_fit(descriptors)


# -- each stage is checked on every slice of its stack --------------------------

_STACK_POINTS = np.array([[0.4, -1.2], [1.0, 0.5], [-0.3, 0.8], [2.0, 1.0]])


def test_a_bad_route_image_slice_fails_the_orthonormality_check(monkeypatch):
    """Under the trivial action the points are one stack; route A's image of
    the second point is planted with rows of length 2."""
    push, calls = reduction._push, []

    def planted(rows, onto, tol):
        images = push(rows, onto, tol)
        if not calls:  # the first push is route A's
            images = images.copy()
            images[1] *= 2.0
        calls.append(1)
        return images

    monkeypatch.setattr(reduction, "_push", planted)
    with pytest.raises(ValueError) as excinfo:
        reduce_point(AREA_SPEC, trivial_action(2), _STACK_POINTS)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == "basis rows are not orthonormal; build with span()"


def test_a_non_lagrangian_d_q_slice_raises_the_per_point_message(monkeypatch):
    """The second point's D_Q is planted with orthonormal rows whose first
    row pairs with itself to 1; under the trivial action V = 0, so every
    later stage keeps the ranks of the other slices."""
    bad = np.array([[np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0], [0.0, 1.0, 0.0, 0.0]])
    with pytest.raises(lindirac.NotLagrangianError) as alone:
        lindirac.LinearDirac(2, Subspace(4, bad))
    pull_back = reduction.pull_back

    def planted(phi, fibers, tol):
        rows = pull_back(phi, fibers, tol).copy()
        rows[1] = bad
        return rows

    monkeypatch.setattr(reduction, "pull_back", planted)
    with pytest.raises(lindirac.NotLagrangianError) as excinfo:
        reduce_point(AREA_SPEC, trivial_action(2), _STACK_POINTS)
    assert str(excinfo.value) == str(alone.value)


def test_dims_are_invariant_along_group_motion():
    act = product_action_r3()
    omega = np.zeros((3, 3))
    omega[0, 1], omega[1, 0] = 1.0, -1.0
    spec = TwoFormSpec(PolyTwoForm.from_constant(omega))
    refl = np.diag([1.0, 1.0, -1.0])
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.uniform(0.4, 2.0, 3)
        theta = rng.uniform(0.0, 2 * np.pi)
        rot = np.eye(3)
        rot[:2, :2] = [
            [np.cos(theta), -np.sin(theta)],
            [np.sin(theta), np.cos(theta)],
        ]
        moved = refl @ rot @ m
        a = rank_report(spec, act, [m]).rows[0]
        b = rank_report(spec, act, [moved]).rows[0]
        assert a.dims == b.dims and a.iq_identity == b.iq_identity


# -- the one-point pipeline ------------------------------------------------------


def test_reduce_point_populates_everything_at_a_good_point():
    out = reduce_point(PI_SPEC, circle_action((1,)), [np.array([1.0, 0.0])])[0]
    assert out.status == STATUS_OK and out.reason is None
    assert out.descriptor is not None and out.dims is not None
    assert out.iq_identity and out.lagrangian_ok and out.agree
    assert out.distance < 1e-10
    assert out.d_q.space.dim == 2  # stratum restriction is still Lagrangian there
    assert out.route_a.base_dim == out.route_b.base_dim == 1


def test_reduce_point_skips_boundary_without_comparisons():
    out = reduce_point(AREA_SPEC, z2_reflection_action(), [np.array([1.0, 1e-8])])[0]
    assert out.status == STATUS_BOUNDARY
    assert out.reason
    assert out.distance is None and out.agree is None and out.route_a is None


def test_reduce_point_decides_isotropy_before_using_a_degenerate_fiber():
    spec = vanishing_sections()
    m = np.array([0.0, 1e-8])  # sections vanish, reflection fixes m only in the guard band
    assert isinstance(evaluate_fibers(spec, [m])[0], DegeneratePointError)
    out = reduce_point(spec, z2_reflection_action(), [m])[0]
    assert out.status == STATUS_BOUNDARY
    moved = np.array([0.0, 1.0])
    out = reduce_point(spec, z2_reflection_action(), [moved])[0]
    assert out.status == STATUS_DEGENERATE and "rank" in out.reason


def test_reduce_point_takes_a_stack_of_points():
    """reduce_point, and so rank_report, take points (N, n): one point or
    the wrong width raises, naming the expected shape, and an empty stack
    has no rows."""
    act = circle_action((1,))
    for points in (np.array([1.0, 0.0]), np.zeros((1, 3))):
        for reduce in (reduce_point, rank_report):
            with pytest.raises(ValueError, match=r"expected \(N, 2\)"):
                reduce(PI_SPEC, act, points)
    assert reduce_point(PI_SPEC, act, np.zeros((0, 2))) == ()
    report = rank_report(PI_SPEC, act, np.zeros((0, 2)))
    assert report.rows == () and report.classes == ()


@pytest.mark.parametrize(
    "single", [restrict_to_stratum, reduce_isotropy_route, reduce_orbit_route, compare_routes]
)
def test_single_point_functions_raise_the_error_of_a_skip(single):
    """Where reduce_point reports a skip, each single-point function raises
    the error behind it: at a guard-band point of the reflection, and where
    the sections of a sections spec vanish."""
    act = z2_reflection_action()
    for spec, m, error in [
        (AREA_SPEC, (1.0, 1e-8), AmbiguousIsotropyError),
        (vanishing_sections(), (0.0, 1.0), DegeneratePointError),
    ]:
        reason = reduce_point(spec, act, [m])[0].reason
        with pytest.raises(error) as excinfo:
            single(spec, act, np.array(m))
        assert type(excinfo.value) is error and str(excinfo.value) == reason


def test_vertical_space_outside_the_fixed_space_raises():
    """A circle that does not commute with the finite group (an ActionSpec
    built without validate_action) moves V(m) out of Fix(G_m); the point
    raises instead of reporting a row."""
    act = ActionSpec(2, FiniteGroupRep((np.eye(2), np.diag([1.0, -1.0]))), CircleFactor((1,)))
    with pytest.raises(InternalConsistencyError, match=r"residual \d"):
        reduce_point(AREA_SPEC, act, [np.array([1.0, 0.0])])


BUNDLED = {
    path.name: load_scenario(str(path))
    for path in sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reduce_point_equals_the_public_views_bit_for_bit(data):
    """At a sample point of a bundled scenario moved by a random group
    element and scale (so every sampled stratum is visited), the runner's
    reduce_point takes its status, reason and descriptor from the
    per-candidate isotropy reference and the fiber's DegeneratePointError,
    and its D_Q is lindirac.backward_image of the fiber along the inclusion
    of Fix(G_m), bit for bit.  (Route A is checked against lindirac.forward_image below.)"""
    s = BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))]
    points = sample_points(s)
    base = points[data.draw(st.integers(0, len(points) - 1))]
    g = s.action.finite.elements[data.draw(st.integers(0, s.action.finite.order - 1))]
    if s.action.circle is not None:
        g = g @ s.action.circle.rotation(data.draw(st.floats(0.0, 2 * np.pi)))
    m = g @ (data.draw(st.floats(0.5, 2.0)) * base)
    tol = s.rank_tol
    out = reduce_point(s.dirac, s.action, [m], tol, s.agree_tol)[0]
    h = reference_isotropies(s.action, np.array([m]), tol)[0]
    fiber = evaluate_fibers(s.dirac, [m], tol)[0]
    if isinstance(h, AmbiguousIsotropyError):
        assert (out.status, out.reason, out.descriptor) == (STATUS_BOUNDARY, str(h), None)
    elif isinstance(fiber, DegeneratePointError):
        assert (out.status, out.reason, out.descriptor) == (STATUS_DEGENERATE, str(fiber), None)
    else:
        assert (out.status, out.reason, out.descriptor) == (STATUS_OK, None, h)
        d_q = lindirac.backward_image(fixed_subspace(h, s.action, tol).basis.T, fiber)
        assert np.array_equal(out.d_q.space.basis, d_q.space.basis)


def _cube_lie_poisson():
    """so(3)* Lie-Poisson under the 24 rotations of the cube, sampled at
    the origin, along a four-, a three- and a two-fold rotation axis and at
    generic points."""
    rotations = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([1, -1], repeat=3):
            f = np.zeros((3, 3), dtype=int)
            for row, (col, sign) in enumerate(zip(perm, signs)):
                f[row, col] = sign
            if round(np.linalg.det(f)) == 1:
                rotations.append(f)
    rotations.sort(key=lambda f: not np.array_equal(f, np.eye(3)))
    axes = [(0, 0, 1), (1, 1, 1), (1, -1, 0)]
    points = [[0.0, 0.0, 0.0]]
    points += [[t * c for c in axis] for axis in axes for t in (0.6, -1.1, 1.4)]
    points += [[0.3, -0.8, 1.1], [1.2, 0.5, -0.4], [-0.9, 0.2, 0.7]]
    return scenario_from_dict(
        {
            "version": VERSION,
            "n": 3,
            "dirac": {"bivector": [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]]},
            "action": {"finite": [f.tolist() for f in rotations]},
            "samples": {"explicit": points},
        }
    )


def _twisted_circle_symplectic():
    """The symplectic form on C^2 = R^4 under the circle e^{it}(z1, z2) times
    the order-4 group generated by (z1, z2) -> (i z1, -i z2).  The generator
    fixes points of the z1-plane together with the angle 3pi/2 and points of
    the z2-plane with the angle pi/2: same element, different subgroup."""
    j = np.array([[0, -1], [1, 0]])
    f = np.block([[j, np.zeros((2, 2))], [np.zeros((2, 2)), -j]])
    group = [np.linalg.matrix_power(f, k).round().astype(int) for k in range(4)]
    omega = np.block([[j.T, np.zeros((2, 2))], [np.zeros((2, 2)), j.T]])
    points = [
        [0.8, 0.3, 0.0, 0.0],
        [0.0, 0.0, 0.6, -0.9],
        [-0.5, 1.1, 0.0, 0.0],
        [0.0, 0.0, 1.2, 0.4],
        [0.3, -0.7, 0.9, 0.2],
        [0.0, 0.0, 0.0, 0.0],
    ]
    return scenario_from_dict(
        {
            "version": VERSION,
            "n": 4,
            "dirac": {"bivector": omega.tolist()},
            "action": {"finite": [g.tolist() for g in group], "circle": {"weights": [1, 1]}},
            "samples": {"explicit": points},
        }
    )


sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import GENERATORS  # noqa: E402

# the perfbench workloads at seed 7: orbit-types runs its 15 exact isotropy
# classes, 13 of them rotation axes, as 3 stacks of one shape each
BUILT = {
    "cube_lie_poisson": _cube_lie_poisson,
    "twisted_circle": _twisted_circle_symplectic,
    **{n: lambda n=n: scenario_from_dict(GENERATORS[n](7, 1.0)[0]) for n in GENERATORS},
}


@pytest.mark.parametrize("name", [*sorted(BUNDLED), *BUILT])
def test_run_rows_equal_standalone_reduce_point_bit_for_bit(name):
    """The action side a run shares within a stack gives every ok
    row exactly what reduce_point computes at that point on its own."""
    s = BUILT[name]() if name in BUILT else BUNDLED[name]
    report = run_scenario(s)
    ok_rows = [r for r in report.points if r.status == STATUS_OK]
    assert ok_rows
    if name == "cube_lie_poisson":  # every point ok, three per non-trivial class
        assert len(ok_rows) == len(report.points) > len(report.classes)
    for row in ok_rows:
        alone = reduce_point(s.dirac, s.action, [row.point], s.rank_tol, s.agree_tol)[0]
        _assert_same_row(row, alone)


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_reported_route_images_compare_directly(name):
    """Both routes are given in one quotient model, so wherever the report
    says they agree, the two reported images are the same subspace."""
    s = BUNDLED[name]
    for row in run_scenario(s).points:
        if row.status == STATUS_OK and row.agree:
            assert row.route_a.space.distance(row.route_b.space) <= s.agree_tol, row.point


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_action_geometry_identities_match_the_general_formulas(name):
    """With V(m) inside Fix and P the orthogonal projector onto Fix, V_G° = P V°
    is the quotient, V° is the quotient plus ann Fix, and the window
    Fix + (V_G° + ann Fix) is Fix + V°: at every ok point each object equals
    the formula that holds for any V."""
    s = BUNDLED[name]
    for row in run_scenario(s).points:
        if row.status != STATUS_OK:
            continue
        a = action_geometry(s.action, row.point, s.rank_tol)
        v_ann = a.vertical.annihilator()
        projector = average_projector(a.descriptor, s.action)
        v_g_ann = span(v_ann.basis @ projector, ambient_dim=s.n, tol=s.rank_tol)
        assert a.quotient == v_g_ann, row.point
        assert a.v_ann == v_ann, row.point
        assert a.window == direct_sum(a.fix, v_g_ann.sum(a.fix.annihilator())), row.point


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_route_a_equals_the_reference_forward_image(monkeypatch, name):
    """Route A pushes D_Q ∩ K_Q^⊥ forward by phi.  lindirac.forward_image,
    which solves {(phi v, b) : (v, phi^T b) in D_Q} as one null-space problem,
    is the reference: at every ok point it gives the same span and flags, and
    its kernel has the dimension the table reports as DQ_cap_KQ_perp."""
    kernels = []
    nullspace = lindirac.nullspace

    def recording_nullspace(*args):
        kernels.append(nullspace(*args))
        return kernels[-1]

    monkeypatch.setattr(lindirac, "nullspace", recording_nullspace)
    s = BUNDLED[name]
    for row in run_scenario(s).points:
        if row.status != STATUS_OK:
            continue
        phi = action_geometry(s.action, row.point, s.rank_tol).phi
        kernels.clear()
        reference = lindirac.forward_image(phi, row.d_q)
        assert row.route_a.space.distance(reference.space) <= 1e-12, row.point
        assert (row.route_a.base_dim, row.route_a.lagrangian, row.route_a.surjective) == (
            reference.base_dim, reference.lagrangian, reference.surjective
        ), row.point
        assert [k.shape[0] for k in kernels] == [row.dims.dq_cap_kq_perp], row.point


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_d_q_is_the_backward_image_bit_for_bit(name):
    """The reduction pulls each D(m) back along the inclusion of Fix with the
    stacked lindirac.pull_back, which backward_image applies to a stack of
    one: at every ok point the reported D_Q basis is backward_image's, bit for
    bit, whatever the size of the point's stack."""
    s = BUNDLED[name]
    rows = [row for row in run_scenario(s).points if row.status == STATUS_OK]
    assert rows
    for row in rows:
        fix = fixed_subspace(row.descriptor, s.action, s.rank_tol)
        fiber = evaluate_at(s.dirac, row.point, s.rank_tol)
        reference = lindirac.backward_image(fix.basis.T, fiber)
        assert np.array_equal(reference.space.basis, row.d_q.space.basis), row.point


@pytest.mark.parametrize("name", ["z2_circle_r3_two_form.json", "so3_lie_poisson.json"])
def test_svd_calls_per_point_stay_bounded(monkeypatch, name):
    """A timing-free guard on the per-point cost, which numpy's per-call
    overhead dominates: every np.linalg.svd a run makes is counted.  The
    points of one shape are reduced as one stack, one SVD per stage,
    so doubling the sample count (same classes) adds at most one SVD per
    added point: the graph of its fiber D(m)."""
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    s = BUNDLED[name]
    counts = []
    for count in (s.samples.count, 2 * s.samples.count):
        calls.clear()
        samples = SampleSpec(s.samples.explicit, count, s.samples.seed, s.samples.box)
        report = run_scenario(Scenario(s.n, s.dirac, s.action, samples, s.rank_tol, s.agree_tol))
        counts.append((len(report.points), len(report.classes), len(calls)))
    (points, classes, svds), (more_points, more_classes, more_svds) = counts
    assert more_points > points and more_classes == classes
    assert more_svds - svds <= more_points - points, counts


def _assert_same_row(mine, theirs):
    """Two rows are equal bit for bit, bases included."""
    assert (mine.point, mine.status, mine.reason, mine.descriptor, mine.dims) == (
        theirs.point, theirs.status, theirs.reason, theirs.descriptor, theirs.dims
    )
    assert (mine.iq_identity, mine.lagrangian_ok, mine.distance, mine.agree) == (
        theirs.iq_identity, theirs.lagrangian_ok, theirs.distance, theirs.agree
    )
    if mine.status != STATUS_OK:
        return
    assert np.array_equal(mine.d_q.space.basis, theirs.d_q.space.basis)
    for a, b in ((mine.route_a, theirs.route_a), (mine.route_b, theirs.route_b)):
        assert (a.base_dim, a.lagrangian, a.surjective) == (b.base_dim, b.lagrangian, b.surjective)
        assert np.array_equal(a.space.basis, b.space.basis)


def test_stack_with_mixed_ranks_is_split_and_matches_each_point_alone(monkeypatch):
    """z dx^dy on R^3 under the circle rotating (x, y): points with z = 0 and
    z != 0 share the trivial isotropy class but not their ranks (the descending
    subspace has dimension 3 at z = 0 and 2 elsewhere).  The class's stack is
    split by rank, and every row of the run equals reduce_point alone."""
    s = scenario_from_dict(
        {
            "version": VERSION,
            "n": 3,
            "dirac": {"two_form": [["0", "z", "0"], ["-z", "0", "0"], ["0", "0", "0"]]},
            "action": {"finite": [np.eye(3).tolist()], "circle": {"weights": [1], "fixed_dim": 1}},
            "samples": {
                "explicit": [[0.8, 0.5, 0.7], [0.6, -0.9, 0.0], [1.1, 0.3, -0.4], [-0.5, 0.7, 0.0]]
            },
        }
    )
    stacks = []
    reduce_stack = reduction._reduce_stack

    def recording(action, classes, at, points, *args):
        stacks.append(len(points))
        return reduce_stack(action, classes, at, points, *args)

    monkeypatch.setattr(reduction, "_reduce_stack", recording)
    report = run_scenario(s)
    assert stacks == [4, 2, 2]  # one class, cut by rank into two stacks of two
    assert [c.constant for c in report.classes] == [False]
    assert [r.dims.d_cap_t_vg for r in report.points] == [2, 3, 2, 3]
    for row in report.points:
        alone = reduce_point(s.dirac, s.action, [row.point], s.rank_tol, s.agree_tol)[0]
        _assert_same_row(row, alone)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_permuting_or_duplicating_samples_moves_rows_and_changes_no_bit(data):
    """A point's row does not depend on which other points share its stack:
    running a bundled scenario on its sample points permuted, duplicated or
    thinned gives the rows of those points, bit for bit."""
    s = BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))]
    base = run_scenario(s).points
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=2 * len(base)))
    explicit = tuple(base[i].point for i in picks)
    samples = SampleSpec(explicit=explicit)
    rows = run_scenario(Scenario(s.n, s.dirac, s.action, samples, s.rank_tol, s.agree_tol)).points
    for i, row in zip(picks, rows, strict=True):
        _assert_same_row(row, base[i])


# -- route agreement is a pointwise identity ------------------------------------

_MONOMIALS = ("1", "x", "y", "z", "x^2", "y^2", "z^2", "x*y", "x*z", "y*z")
_QUADRATIC = st.lists(st.integers(-3, 3), min_size=len(_MONOMIALS), max_size=len(_MONOMIALS)).map(
    lambda cs: " + ".join(f"({c})*{m}" for c, m in zip(cs, _MONOMIALS))
)


def _d4_xy() -> list:
    """D4 on the first two coordinates of R^3, as scenario matrices."""
    quarter, flip = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]]), np.diag([1, -1, 1])
    powers = [np.linalg.matrix_power(quarter, k) for k in range(4)]
    return [g.tolist() for g in powers + [p @ flip for p in powers]]


_ROUTE_ACTIONS = {  # actions on R^3 in scenario form; z2_circle_r3 is its scenario's
    "trivial": {},
    "z2_circle_r3": None,
    "circle_weight_2": {"circle": {"weights": [2], "fixed_dim": 1}},
    "d4_xy": {"finite": _d4_xy()},
}


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(["two_form", "bivector"]),
    entries=st.tuples(_QUADRATIC, _QUADRATIC, _QUADRATIC),
    action=st.sampled_from(sorted(_ROUTE_ACTIONS)),
    seed=st.integers(0, 2**16),
)
def test_routes_agree_at_every_point_for_any_spec(kind, entries, action, seed):
    """At a point m the two route images coincide for any D(m), invariant,
    integrable or neither, and both are Lagrangian: random quadratic two-forms
    and bivectors on R^3 (neither invariant nor integrable in general) under
    the trivial group, z2_circle_r3's action, a weight-2 circle about the z
    axis and D4 on the (x, y) plane, at random points of a box and at points
    of the plane z = 0, the z axis, the origin and D4's mirror lines.  A skip
    is allowed."""
    a, b, c = entries
    scenarios = Path(__file__).resolve().parent.parent / "scenarios"
    data = json.loads((scenarios / "z2_circle_r3_two_form.json").read_text())
    if _ROUTE_ACTIONS[action] is not None:
        data["action"] = _ROUTE_ACTIONS[action]
    data["dirac"] = {kind: [["0", a, b], [f"-({a})", "0", c], [f"-({b})", f"-({c})", "0"]]}
    data["samples"] = {
        "explicit": [[0.8, -0.5, 0.0], [-1.2, 0.3, 0.0], [0.0, 0.0, 1.3], [0.0, 0.0, -0.6],
                     [0.0, 0.0, 0.0], [0.9, 0.0, 0.4], [0.7, 0.7, -0.2]],
        "random": {"count": 6, "seed": seed, "box": [[-1.5, 1.5]] * 3},
    }
    report = run_scenario(scenario_from_dict(data))
    ok_rows = [r for r in report.points if r.status == STATUS_OK]
    assert ok_rows
    for r in ok_rows:
        assert r.lagrangian_ok, r.point
        assert r.distance <= 1e-8, (r.point, r.distance)
