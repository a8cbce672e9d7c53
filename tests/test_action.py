import math
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dirac_reduce.action import (
    MAX_WEIGHT,
    ActionSpec,
    ActionValidationError,
    AmbiguousIsotropyError,
    CircleFactor,
    ExactnessWarning,
    FiniteGroupRep,
    IsotropyDescriptor,
    average_projector,
    default_quadrature_nodes,
    fixed_subspace,
    haar_average_section,
    isotropy,
    quadrature_nodes_required,
    validate_action,
    vertical_space,
)
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import PolyOneForm, PolySection, PolyVectorField, d_function
from dirac_reduce.subspace import DEFAULT_TOL, span

import helpers
from helpers import (
    action_geometry,
    assert_subspace_close,
    circle_action,
    d4_action,
    product_action_r3,
    z2_reflection_action,
)


def test_circle_weights_are_bounded():
    """Isotropy tries |w| candidate angles per block, so |w| is capped."""
    assert CircleFactor((MAX_WEIGHT, -MAX_WEIGHT)).weights == (MAX_WEIGHT, -MAX_WEIGHT)
    with pytest.raises(ValueError, match=f"must not exceed {MAX_WEIGHT}"):
        CircleFactor((1, -(MAX_WEIGHT + 1)))


def test_circle_generator_and_rotation():
    c = CircleFactor((1, 2), fixed_dim=1)
    assert c.n == 5
    a = c.generator()
    np.testing.assert_allclose(a, -a.T)
    theta = 0.37
    r = c.rotation(theta)
    np.testing.assert_allclose(r @ r.T, np.eye(5), atol=1e-12)
    # block angles scale with the weights
    assert r[0, 0] == pytest.approx(math.cos(theta))
    assert r[2, 2] == pytest.approx(math.cos(2 * theta))
    assert r[4, 4] == 1.0


def test_circle_rejects_zero_weight():
    with pytest.raises(ValueError):
        CircleFactor((0,))


def test_validate_rejects_non_orthogonal():
    with pytest.raises(ActionValidationError):
        validate_action(ActionSpec(2, FiniteGroupRep((np.eye(2), 2 * np.eye(2)))))


def test_validate_rejects_missing_identity():
    refl = np.diag([1.0, -1.0])
    with pytest.raises(ActionValidationError, match="identity"):
        validate_action(ActionSpec(2, FiniteGroupRep((refl,))))


def test_validate_rejects_closure_failure():
    # {I, R(pi/2)} is missing R(pi)
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ActionValidationError, match="closure"):
        validate_action(ActionSpec(2, FiniteGroupRep((np.eye(2), r))))


def test_validate_rejects_duplicates():
    with pytest.raises(ActionValidationError, match="duplicate"):
        validate_action(ActionSpec(2, FiniteGroupRep((np.eye(2), np.eye(2)))))


def test_validate_rejects_noncommuting_circle():
    # a reflection does not commute with the rotation flow
    refl = np.diag([1.0, -1.0])
    with pytest.raises(ActionValidationError, match="commute"):
        validate_action(
            ActionSpec(2, FiniteGroupRep((np.eye(2), refl)), CircleFactor((1,)))
        )


_R90 = np.array([[0.0, -1.0], [1.0, 0.0]])
_REFL = np.diag([1.0, -1.0])


@pytest.mark.parametrize(
    "elements, circle, message",
    [
        (
            (np.eye(2), 2 * np.eye(2)),
            None,
            "element 1 is not orthogonal at tolerance 1e-09; "
            "closure failure: product of elements 1 and 1 is missing",
        ),
        (
            (_REFL,),
            None,
            "identity matrix missing from the finite group; "
            "closure failure: product of elements 0 and 0 is missing",
        ),
        (
            (np.eye(2), _R90),
            None,
            "closure failure: product of elements 1 and 1 is missing; "
            "inverse of element 1 is missing",
        ),
        (
            # an idempotent, so closed under products, without its transpose
            (np.eye(2), np.array([[1.0, 1.0], [0.0, 0.0]])),
            None,
            "element 1 is not orthogonal at tolerance 1e-09; inverse of element 1 is missing",
        ),
        ((np.eye(2), np.eye(2)), None, "duplicate elements: 0 and 1 coincide"),
        (
            (np.eye(2), _REFL),
            CircleFactor((3,)),
            "element 1 does not commute with the circle generator",
        ),
        (
            # every message of one element comes before the next element's
            (np.eye(2), _R90, _R90),
            None,
            "closure failure: product of elements 1 and 1 is missing; "
            "closure failure: product of elements 1 and 2 is missing; "
            "inverse of element 1 is missing; "
            "duplicate elements: 1 and 2 coincide; "
            "closure failure: product of elements 2 and 1 is missing; "
            "closure failure: product of elements 2 and 2 is missing; "
            "inverse of element 2 is missing",
        ),
    ],
    ids=["non-orthogonal", "identity", "closure", "inverse", "duplicate", "commute", "order"],
)
def test_validate_action_messages(elements, circle, message):
    with pytest.raises(ActionValidationError) as info:
        validate_action(ActionSpec(2, FiniteGroupRep(elements), circle))
    assert str(info.value) == message


def test_product_action_validates():
    spec = ActionSpec(
        3,
        FiniteGroupRep((np.eye(3), np.diag([1.0, 1.0, -1.0]))),
        CircleFactor((1,), fixed_dim=1),
    )
    assert validate_action(spec) is spec


def test_fundamental_vector_field():
    act = circle_action((1,))
    xi = PolyVectorField.from_linear(act.circle.generator())
    assert xi.components == (parse_poly("-y", 2), parse_poly("x", 2))


def test_vertical_space():
    act = circle_action((1,))
    v = vertical_space(act, np.array([1.0, 0.0]))
    assert_subspace_close(v, span(np.array([[0.0, 1.0]]), ambient_dim=2))
    assert vertical_space(act, np.zeros(2)).dim == 0
    assert vertical_space(z2_reflection_action(), np.array([1.0, 1.0])).dim == 0
    # |A m| <= tol |m|: the circle is in the isotropy subgroup, so V(m) = 0
    near_axis = np.array([1e-12, 0.0, 1.0])
    assert isotropy(product_action_r3(), near_axis).continuous_circle
    assert vertical_space(product_action_r3(), near_axis).dim == 0


@pytest.mark.parametrize("shape", [(1, 1, 3), (2, 1, 3), (3, 1), (2,), ()])
def test_isotropy_takes_one_point_or_a_stack_of_points_only(shape):
    """isotropy takes (n,) or (N, n) and vertical_space (n,); any other
    shape raises, naming it, instead of being flattened into one point."""
    act = product_action_r3()
    with pytest.raises(ValueError, match=re.escape(f"points of shape {shape}, expected (N, 3)")):
        isotropy(act, np.ones(shape))
    with pytest.raises(ValueError, match=re.escape(f"points of shape {shape}, expected (3,)")):
        vertical_space(act, np.ones(shape))
    with pytest.raises(ValueError, match=re.escape("points of shape (1, 3), expected (3,)")):
        vertical_space(act, np.ones((1, 3)))


# -- isotropy ----------------------------------------------------------------


def test_isotropy_circle_free_point():
    h = isotropy(circle_action((1,)), np.array([1.0, 0.0]))
    assert not h.continuous_circle
    assert h.pairs == ((0, 0.0),)


def test_isotropy_circle_origin():
    h = isotropy(circle_action((1,)), np.zeros(2))
    assert h.continuous_circle
    assert h.component_count == 1


def test_isotropy_weight_two_has_two_components():
    h = isotropy(circle_action((2,)), np.array([0.9, 0.4]))
    assert not h.continuous_circle
    assert h.component_count == 2
    angles = sorted(t for _, t in h.pairs)
    assert angles[0] == pytest.approx(0.0, abs=1e-12)
    assert angles[1] == pytest.approx(math.pi, abs=1e-12)
    # the nontrivial component really fixes the point
    mats = h.matrices(circle_action((2,)))
    for g in mats:
        np.testing.assert_allclose(g @ [0.9, 0.4], [0.9, 0.4], atol=1e-9)


def test_isotropy_mixed_weights_partial_zero_block():
    act = circle_action((1, 2))
    # first block at the origin: only the second block constrains theta
    h = isotropy(act, np.array([0.0, 0.0, 0.7, 0.2]))
    assert h.component_count == 2
    h_generic = isotropy(act, np.array([0.5, 0.1, 0.7, 0.2]))
    assert h_generic.pairs == ((0, 0.0),)


def test_isotropy_finite_reflection():
    act = z2_reflection_action()
    on_axis = isotropy(act, np.array([1.3, 0.0]))
    assert on_axis.component_count == 2
    off_axis = isotropy(act, np.array([1.3, 0.8]))
    assert off_axis.pairs == ((0, 0.0),)


def test_isotropy_dihedral_table():
    act = d4_action()
    cases = {
        (0.0, 0.0): 8,
        (1.1, 0.0): 2,
        (0.0, 1.3): 2,
        (0.7, 0.7): 2,
        (0.8, -0.8): 2,
        (0.9, 0.4): 1,
    }
    for point, count in cases.items():
        h = isotropy(act, np.array(point))
        assert h.component_count == count, point
        for g in h.matrices(act):
            np.testing.assert_allclose(g @ np.array(point), point, atol=1e-9)


def _pairwise_merge(candidates, block, atol, guard):
    """The merge of two blocks' candidate angles as every candidate against
    every angle of the block: the reference for helpers._merge_angles."""
    merged = []
    for t in candidates.tolist():
        distances = (abs(t - u) % (2 * math.pi) for u in block.tolist())
        best = min(min(d, 2 * math.pi - d) for d in distances)
        if best <= atol:
            merged.append(t)
        elif best <= guard:
            raise AmbiguousIsotropyError(
                "candidate angles of two blocks agree only inside the guard band"
            )
    return np.array(merged)


def _outcome(merge, *args):
    try:
        return merge(*args).tolist()
    except AmbiguousIsotropyError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(40))
def test_merge_angles_matches_the_pairwise_merge(seed):
    """Blocks with planted near-coincidences, some across the wrap at 2 pi,
    at offsets that keep (1e-10), raise (1e-8) or drop (1e-3) a candidate."""
    rng = np.random.default_rng(seed)
    two_pi = 2 * math.pi
    candidates = rng.uniform(0.0, two_pi, rng.integers(1, 12))
    candidates[: rng.integers(0, 3)] = rng.choice([0.0, 1e-11, two_pi - 1e-11], 2)[:1]
    offsets = rng.choice([0.0, 1e-10, -1e-10, 1e-8, 1e-3], len(candidates))
    planted = (candidates + offsets) % two_pi
    block = np.concatenate([planted[rng.random(len(planted)) < 0.6], rng.uniform(0.0, two_pi, 5)])
    rng.shuffle(block)
    args = (candidates, block, 1e-9, 1e-6)
    assert _outcome(helpers._merge_angles, *args) == _outcome(_pairwise_merge, *args)


def test_merge_angles_wraps_around_two_pi():
    candidates = np.array([2 * math.pi - 1e-11, 1.0])
    kept = helpers._merge_angles(candidates, np.array([3.0, 0.0]), 1e-9, 1e-6)
    assert kept.tolist() == [2 * math.pi - 1e-11]


def _rotating_group(weights):
    """{±g^k} for g the quarter turn of the first block: it commutes with the
    circle, so two blocks' candidate angles meet under several elements."""
    g = np.eye(4)
    g[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    powers = [np.linalg.matrix_power(g, k) for k in range(4)]
    group = FiniteGroupRep(tuple(powers + [-p for p in powers]))
    return validate_action(ActionSpec(4, group, CircleFactor(weights)))


@pytest.mark.parametrize("weights", [(3, 2), (4, 6), (2, -4)])
def test_two_block_isotropy_matches_the_pairwise_merge(monkeypatch, weights):
    """The stacked solve against the per-pair reference with its merge done
    pairwise."""
    act = _rotating_group(weights)
    rng = np.random.default_rng(11)
    points = rng.uniform(-2.0, 2.0, (60, 4))
    points[:15, :2] = 0.0  # only the second block constrains the angle
    points[15:30, 2:] = 0.0  # only the first does
    points[30:40, 2:] = points[30:40, :2]  # blocks of equal size
    fast = isotropy(act, points)
    monkeypatch.setattr(helpers, "_merge_angles", _pairwise_merge)
    slow = helpers.reference_isotropies(act, points, DEFAULT_TOL)
    assert [str(h) for h in fast] == [str(h) for h in slow]
    assert any(isinstance(h, IsotropyDescriptor) and h.component_count > 1 for h in fast)


def _large_weights_action():
    return validate_action(
        ActionSpec(4, FiniteGroupRep((np.eye(4), -np.eye(4))), CircleFactor((1000, 999)))
    )


def test_two_large_blocks_merge_promptly():
    """Weights near the bound give about 1000 candidate angles per block,
    which a pairwise merge compares a million times per element and point."""
    act = _large_weights_action()
    points = np.random.default_rng(3).uniform(0.4, 2.0, (3, 4))
    start = time.perf_counter()
    descriptors = [isotropy(act, m) for m in points]
    assert time.perf_counter() - start < 0.5
    assert all(h.pairs == ((0, 0.0),) for h in descriptors)


def test_a_stack_of_two_large_blocks_merges_promptly():
    """200 points at weights (1000, 999): a flat array of 1000 candidate
    angles per point and element, each merged against its nearest angle of
    the second block without listing that block."""
    act = _large_weights_action()
    points = np.random.default_rng(3).uniform(0.4, 2.0, (200, 4))
    start = time.perf_counter()
    descriptors = isotropy(act, points)
    assert time.perf_counter() - start < 0.5
    assert all(h.pairs == ((0, 0.0),) for h in descriptors)


def test_large_weights_are_solved_in_bounded_memory():
    """Under eight elements at weights (1000, 999), 200 points list 1.6
    million candidate angles; solved in passes of a bounded number of
    points, isotropy's arrays peak near 15 MB (in one pass, 185 MB)."""
    act = _rotating_group((1000, 999))
    points = np.random.default_rng(3).uniform(0.4, 2.0, (200, 4))
    tracemalloc.start()
    try:
        descriptors = isotropy(act, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert all(h.component_count == 2 for h in descriptors)


def test_isotropy_boundary_band_is_ambiguous():
    act = z2_reflection_action()
    with pytest.raises(AmbiguousIsotropyError):
        isotropy(act, np.array([1.0, 1e-8]))


def test_isotropy_conjugate_points_share_component_count():
    act = d4_action()
    rot = act.finite.elements[1]
    a = isotropy(act, np.array([1.1, 0.0]))
    b = isotropy(act, rot @ np.array([1.1, 0.0]))
    assert a.component_count == b.component_count
    assert not a.same_as(b)  # different subgroup, same type


def test_descriptor_same_as_tolerates_angle_jitter():
    a = isotropy(circle_action((2,)), np.array([0.9, 0.4]))
    b = isotropy(circle_action((2,)), np.array([-0.3, 1.7]))
    assert a.same_as(b)


# -- averaging ---------------------------------------------------------------


def test_average_projector_idempotent_and_image_fixed():
    act = d4_action()
    for point in [(0.0, 0.0), (1.1, 0.0), (0.7, 0.7), (0.9, 0.4)]:
        h = isotropy(act, np.array(point))
        p = average_projector(h, act)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        fix = fixed_subspace(h, act)
        assert_subspace_close(fix, span(p, ambient_dim=2) if fix.dim else fix)
        # averaging projects onto exactly the fixed vectors
        for g in h.matrices(act):
            np.testing.assert_allclose(g @ p, p, atol=1e-12)


def test_average_projector_continuous_circle_closed_form():
    act = circle_action((1,), fixed_dim=1)
    h = isotropy(act, np.zeros(3))
    assert h.continuous_circle
    np.testing.assert_allclose(average_projector(h, act), np.diag([0.0, 0.0, 1.0]))


def test_fixed_subspace_product_action():
    act = product_action_r3()
    h = isotropy(act, np.zeros(3))  # full group
    assert fixed_subspace(h, act).dim == 0
    h_axis = isotropy(act, np.array([0.0, 0.0, 1.0]))
    assert_subspace_close(
        fixed_subspace(h_axis, act), span(np.array([[0.0, 0.0, 1.0]]), ambient_dim=3)
    )


def exact_section(f: Poly) -> PolySection:
    """(0, df): pull-back commutes with d, so its average is (0, d(avg f))."""
    return PolySection(PolyVectorField.zero(f.n_vars), d_function(f))


def average_of_d(f: Poly, act, nodes=None) -> PolyOneForm:
    """avg(df) = d(avg f), through :func:`haar_average_section`."""
    avg = haar_average_section(exact_section(f), act, nodes)
    assert all(p.is_zero() for p in avg.tangent.components)
    return avg.covector


def test_haar_average_function_frozen():
    """x^2 averaged over the weight-1 circle is (x^2 + y^2)/2, exactly."""
    act = circle_action((1,))
    f = parse_poly("x^2", 2)
    assert average_of_d(f, act) == d_function(parse_poly("1/2*x^2 + 1/2*y^2", 2))


def test_haar_average_field_frozen():
    act = circle_action((1,))
    x_dx = PolyVectorField((parse_poly("x", 2), Poly.zero(2)))
    avg = haar_average_section(PolySection(x_dx, PolyOneForm.zero(2)), act).tangent
    assert avg.components == (parse_poly("1/2*x", 2), parse_poly("1/2*y", 2))
    const = PolyVectorField((Poly.one(2), Poly.zero(2)))
    avg_const = haar_average_section(PolySection(const, PolyOneForm.zero(2)), act)
    assert all(p.is_zero() for p in avg_const.tangent.components)


def test_haar_average_finite_reflection():
    act = z2_reflection_action()
    f = parse_poly("y + x*y + x^2", 2)
    # odd-in-y terms cancel
    assert average_of_d(f, act) == d_function(parse_poly("x^2", 2))


def test_haar_average_is_idempotent():
    act = circle_action((2,))
    f = parse_poly("x^2*y - x + 2", 2)
    once = haar_average_section(exact_section(f), act)
    assert haar_average_section(once, act) == once


def test_haar_node_doubling_is_exact():
    act = circle_action((3,))
    f = parse_poly("x^3 - x*y^2 + y", 2)
    n = default_quadrature_nodes(act.circle, d_function(f).degree())
    assert average_of_d(f, act, nodes=n) == average_of_d(f, act, nodes=2 * n)


def test_quadrature_node_counts():
    c = CircleFactor((1,))
    assert quadrature_nodes_required(c, 2) == 4
    assert default_quadrature_nodes(c, 2) % 2 == 0
    assert default_quadrature_nodes(c, 2) >= 6
    c3 = CircleFactor((3,))
    assert quadrature_nodes_required(c3, 1) == 7


def test_too_few_nodes_warns():
    act = circle_action((1,))
    f = parse_poly("x^2", 2)
    with pytest.warns(ExactnessWarning):
        average_of_d(f, act, nodes=2)


def test_haar_average_section_kills_constant_poisson_frame():
    act = circle_action((1,))
    s = PolySection(
        PolyVectorField((Poly.zero(2), Poly.constant(-1, 2))),
        PolyOneForm((Poly.one(2), Poly.zero(2))),
    )
    avg = haar_average_section(s, act)
    assert all(p.is_zero() for p in avg.tangent.components)
    assert all(p.is_zero() for p in avg.covector.components)


# -- derived subspaces --------------------------------------------------------


def test_v_annihilator_example():
    ann = action_geometry(circle_action((1,)), [1.0, 0.0]).v_ann
    assert_subspace_close(ann, span(np.array([[1.0, 0.0]]), ambient_dim=2))


def test_v_g_annihilator_reflection():
    out = action_geometry(z2_reflection_action(), [1.0, 0.0]).v_g_ann
    assert_subspace_close(out, span(np.array([[1.0, 0.0]]), ambient_dim=2))


def test_v_g_annihilator_free_circle_point_is_v_annihilator():
    geometry = action_geometry(circle_action((1,)), [0.8, 0.3])
    assert_subspace_close(geometry.v_g_ann, geometry.v_ann)


def test_tangent_spaces_product_action():
    act = product_action_r3()
    geometry = action_geometry(act, [0.8, 0.5, 0.0])
    t_g = geometry.fix
    t = geometry.fix
    assert t_g.dim == 2 and t.dim == 2
    # central circle: the vertical sits inside the isotropy-type tangent
    assert all(t_g.contains(row) for row in geometry.vertical.basis)
    assert_subspace_close(t_g, t)


def test_vertical_inside_fixed_subspace_everywhere():
    """With a central circle the orbit direction is fixed by the isotropy."""
    act = product_action_r3()
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = rng.uniform(0.3, 1.5, size=3)
        geometry = action_geometry(act, m)
        for row in geometry.vertical.basis:
            assert geometry.fix.contains(row)
