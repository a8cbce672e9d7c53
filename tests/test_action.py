import itertools
import math
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_reduce.action import (
    ANGLE_TOL,
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
    _angle_distance,
)
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import (
    PolyOneForm,
    PolySection,
    PolyVectorField,
    d_function,
    pushforward_section,
)
from dirac_reduce.scenario import load_scenario
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

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


def _rotating_group(weights):
    """{±g^k} for g the quarter turn of the first block: it commutes with the
    circle, so two blocks' candidate angles meet under several elements."""
    g = np.eye(4)
    g[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    powers = [np.linalg.matrix_power(g, k) for k in range(4)]
    group = FiniteGroupRep(tuple(powers + [-p for p in powers]))
    return validate_action(ActionSpec(4, group, CircleFactor(weights)))


@pytest.mark.parametrize("weights", [(3, 2), (4, 6), (2, -4)])
def test_two_block_isotropy_matches_the_pairwise_merge(weights):
    """The stacked solve against the reference, one point, element and
    candidate angle at a time, where two blocks of different weights both
    pin the angle, where only one does, and where they have equal norms."""
    act = _rotating_group(weights)
    rng = np.random.default_rng(11)
    points = rng.uniform(-2.0, 2.0, (60, 4))
    points[:15, :2] = 0.0  # only the second block pins the angle
    points[15:30, 2:] = 0.0  # only the first does
    points[30:40, 2:] = points[30:40, :2]  # blocks of equal size
    fast = isotropy(act, points)
    slow = helpers.reference_isotropies(act, points, DEFAULT_TOL)
    assert [str(h) for h in fast] == [str(h) for h in slow]
    assert any(isinstance(h, IsotropyDescriptor) and h.component_count > 1 for h in fast)


def _block_swap(weights, fixed_dim):
    """The circle of ``weights`` times {I, f}, f the swap of the first two
    blocks (of equal weight)."""
    c = CircleFactor(weights, fixed_dim)
    f = np.eye(c.n)
    f[:4, :4] = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    return validate_action(ActionSpec(c.n, FiniteGroupRep((np.eye(c.n), f)), c))


@pytest.mark.parametrize(
    "weights, fixed_dim, m",
    [
        ((1, 1, 6), 1, [1.0, 0.0, math.cos(4e-7), math.sin(4e-7), 0.9, 0.0, 0.0]),
        ((1, 1), 1, [0.5, 0.0, 0.5 * math.cos(1.2e-6), 0.5 * math.sin(1.2e-6), 0.0]),
    ],
)
def test_an_element_that_moves_the_point_inside_the_band_between_candidates(
    weights, fixed_dim, m
):
    """The swap f moves m by less than the guard band at theta = 0, but by
    more at every candidate angle, where one block of R(theta) m lies on that
    of f^T m: under weights (1, 1, 6), by 5.7e-7 at 0 and by 2.3e-6 at the
    first block's candidate theta = 4e-7, which turns the third block by
    2.4e-6; under (1, 1), by 8.5e-7 at 0 and by 1.2e-6 at each block's
    candidate.  Deciding f by its residuals at the candidates alone calls
    these points ok with one component."""
    act, m = _block_swap(weights, fixed_dim), np.array(m)
    atol = DEFAULT_TOL * max(np.linalg.norm(m), 1.0)
    f = act.finite.elements[1]
    assert atol < np.linalg.norm(f @ m - m) <= 1000 * atol
    with pytest.raises(AmbiguousIsotropyError, match=r"element 1 with angle .* guard band"):
        isotropy(act, m)
    assert str(helpers.reference_isotropies(act, m[None], DEFAULT_TOL)[0]) == str(
        isotropy(act, m[None])[0]
    )


def _large_weights_action():
    return validate_action(
        ActionSpec(4, FiniteGroupRep((np.eye(4), -np.eye(4))), CircleFactor((1000, 999)))
    )


def test_two_large_blocks_merge_promptly():
    """Weights near the bound give about 1000 candidate angles per point
    and element, each decided by its residual."""
    act = _large_weights_action()
    points = np.random.default_rng(3).uniform(0.4, 2.0, (3, 4))
    start = time.perf_counter()
    descriptors = [isotropy(act, m) for m in points]
    assert time.perf_counter() - start < 0.5
    assert all(h.pairs == ((0, 0.0),) for h in descriptors)


def test_a_stack_of_two_large_blocks_merges_promptly():
    """200 points at weights (1000, 999): a flat array of 1000 candidate
    angles per point and element, decided block by block with no matrix."""
    act = _large_weights_action()
    points = np.random.default_rng(3).uniform(0.4, 2.0, (200, 4))
    start = time.perf_counter()
    descriptors = isotropy(act, points)
    assert time.perf_counter() - start < 0.5
    assert all(h.pairs == ((0, 0.0),) for h in descriptors)


def test_a_stack_under_eight_elements_is_solved_promptly():
    """200 points at weights (1000, 999) under eight elements: 1.6 million
    candidate angles, each decided block by block with no matrix."""
    act = _rotating_group((1000, 999))
    points = np.random.default_rng(3).uniform(0.4, 2.0, (200, 4))
    start = time.perf_counter()
    descriptors = isotropy(act, points)
    assert time.perf_counter() - start < 1.0
    assert all(h.component_count == 2 for h in descriptors)


def test_large_weights_are_solved_in_bounded_memory():
    """Under eight elements at weights (1000, 999), 200 points list up to
    1.6 million candidate angles, each screened by about 16 floats per
    rotation block; solved in passes of a bounded number of points,
    isotropy's arrays peak near 14 MB (in one pass, about 350 MB)."""
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


@st.composite
def _block_actions(draw) -> ActionSpec:
    """A circle of one to three blocks with weights in +-1..6 (drawn from a
    pool of two, so blocks often share a weight) and one or two fixed
    coordinates, times the finite group of all permutations of equal-weight
    blocks, each block optionally negated, and z -> -z on one fixed
    coordinate.  Each such element commutes with the circle."""
    pool = draw(st.lists(st.sampled_from([w for w in range(-6, 7) if w]), min_size=2, max_size=2))
    weights = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
    fixed_dim, signed = draw(st.integers(1, 2)), draw(st.booleans())
    k, n = len(weights), 2 * len(weights) + fixed_dim
    reflection = np.eye(n)
    reflection[2 * k + draw(st.integers(0, fixed_dim - 1))] *= -1.0
    elements = []
    for sigma in itertools.permutations(range(k)):
        if any(weights[sigma[j]] != weights[j] for j in range(k)):
            continue
        for signs in itertools.product((1.0, -1.0) if signed else (1.0,), repeat=k):
            g = np.eye(n)
            g[: 2 * k, : 2 * k] = 0.0
            for j in range(k):
                g[2 * sigma[j] : 2 * sigma[j] + 2, 2 * j : 2 * j + 2] = signs[j] * np.eye(2)
            elements += [g, g @ reflection]
    circle = CircleFactor(weights, fixed_dim)
    return validate_action(ActionSpec(n, FiniteGroupRep(tuple(elements)), circle))


def _order(g: np.ndarray) -> int:
    power, order = g, 1
    while not np.allclose(power, np.eye(len(g))):
        power, order = power @ g, order + 1
    return order


def _outcome(act, m):
    try:
        return repr(isotropy(act, m))
    except AmbiguousIsotropyError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(act=_block_actions(), data=st.data())
def test_isotropy_meets_an_oracle_independent_of_the_algorithm(act, data):
    """At a point m of Fix(g) for g = f R(theta*), theta* = 2 pi q / (|w| ord
    f) with w a block's weight (g has finite order, so the mean of its
    powers projects onto Fix(g); its rounding is cleared): (a) every matrix
    of the descriptor fixes m within the tolerance; (b) (f, theta*) is a
    component, up to same_as's angle tolerance (as (f, 0) where the whole
    circle fixes m); (c) g' m has as many components, for random g' in G;
    (d) a stack gives each point its own outcome."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    i = data.draw(st.integers(0, act.finite.order - 1))
    f = act.finite.elements[i]
    w = abs(act.circle.weights[data.draw(st.integers(0, len(act.circle.weights) - 1))])
    count = w * _order(f)
    theta = 2 * np.pi * data.draw(st.integers(0, count - 1)) / count
    g = f @ act.circle.rotation(theta)
    projector = sum(np.linalg.matrix_power(g, p) for p in range(count)) / count
    m = projector @ rng.uniform(-1.0, 1.0, act.n) * data.draw(st.sampled_from([0.3, 1.0, 3.0]))
    m[np.abs(m) < 1e-12] = 0.0  # the projector's rounding, where Fix(g) has a zero coordinate
    h = isotropy(act, m)
    atol = DEFAULT_TOL * max(np.linalg.norm(m), 1.0)

    for matrix in h.matrices(act):  # (a)
        assert np.abs(matrix @ m - m).max() <= atol, (h, m)
    if h.continuous_circle:  # (b)
        assert (i, 0.0) in h.pairs, (h, i, m)
    else:
        near = [j == i and _angle_distance(t, theta) <= ANGLE_TOL for j, t in h.pairs]
        assert any(near), (h, i, theta, m)
    moved = []
    for _ in range(3):  # (c)
        other = act.finite.elements[rng.integers(act.finite.order)]
        moved.append(other @ act.circle.rotation(rng.uniform(0.0, 2 * np.pi)) @ m)
        image = isotropy(act, moved[-1])
        assert image.continuous_circle == h.continuous_circle, (h, image)
        assert image.component_count == h.component_count, (h, image)
    stack = np.array([m, *moved, *rng.uniform(-1.0, 1.0, (3, act.n)), projector @ moved[0]])
    stacked = isotropy(act, stack)  # (d)
    assert [str(x) if isinstance(x, Exception) else repr(x) for x in stacked] == [
        _outcome(act, p) for p in stack
    ]


def test_isotropy_boundary_band_is_ambiguous():
    act = z2_reflection_action()
    with pytest.raises(AmbiguousIsotropyError):
        isotropy(act, np.array([1.0, 1e-8]))


@pytest.mark.parametrize("m", [[1e-12, 0.0, 0.0], [1e-17, 2e-17, 0.0]])
def test_points_near_the_origin_get_the_origins_isotropy(m):
    """Every element of G moves these points by less than 1e-11, far below
    the tolerance, so they get the origin's descriptor: the whole circle
    (2 |m_rot| <= atol, the tolerance of every residual) and both finite
    elements, with V(m) = 0.  A relative test |A m| <= tol |m| for the circle
    made them skips, their rotating part inside the guard band."""
    act = load_scenario(str(SCENARIOS / "z2_circle_r3_two_form.json")).action
    origin = isotropy(act, np.zeros(3))
    assert origin.continuous_circle and origin.pairs == ((0, 0.0), (1, 0.0))
    assert isotropy(act, np.array(m)) == origin
    assert vertical_space(act, np.array(m)).dim == 0


def _conjugated(act: ActionSpec, frame: np.ndarray) -> ActionSpec:
    """The action in the coordinates x' = L x: each f becomes L f L^T."""
    elements = tuple(frame @ f @ frame.T for f in act.finite.elements)
    return validate_action(ActionSpec(act.n, FiniteGroupRep(elements), act.circle))


def test_isotropy_verdicts_do_not_depend_on_the_frame():
    """An orthogonal L that commutes with the circle (here the turn by
    (3/5, 4/5) of the first block) carries G_m onto L G_m L^T, and every
    residual is a Euclidean norm, which L keeps: at each point m, isotropy
    of L m under the conjugated action is a skip exactly when that of m is,
    with the same circle flag and element indices.  Points m = (0.5, 0,
    0.5 cos d, 0.5 sin d, 0) under the block swap, d in [0.5, 3] 1e-6, meet
    the guard band at theta = 0 and at the candidates; residuals in the max
    norm changed the verdict at 3 of the 26.  Random points, and random
    points with equal blocks (which the swap fixes), follow."""
    act = _block_swap((1, 1), 1)
    frame = np.eye(act.n)
    frame[:2, :2] = [[0.6, -0.8], [0.8, 0.6]]
    turned = _conjugated(act, frame)
    d = np.linspace(0.5e-6, 3e-6, 26)
    band = np.zeros((26, act.n))
    band[:, 0], band[:, 2], band[:, 3] = 0.5, 0.5 * np.cos(d), 0.5 * np.sin(d)
    rng = np.random.default_rng(5)
    generic = rng.uniform(-1.0, 1.0, (40, act.n))
    generic[20:, 2:4] = generic[20:, :2]
    points = np.concatenate([band, generic])

    def outcome(h):
        if isinstance(h, AmbiguousIsotropyError):
            return "skip"
        return h.continuous_circle, [i for i, _ in h.pairs]

    before = [outcome(h) for h in isotropy(act, points)]
    after = [outcome(h) for h in isotropy(turned, points @ frame.T)]
    assert before == after
    assert "skip" in before[:26] and any(o != "skip" for o in before[:26])
    assert any(o != "skip" and len(o[1]) == 2 for o in before[26:])


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
    with pytest.warns(ExactnessWarning) as record:  # the warning names its caller's line
        haar_average_section(exact_section(f), act, nodes=2)
    assert record[0].filename == __file__


def test_haar_average_of_a_section_is_d4_invariant():
    """The mean over the eight elements of D4 of a section with both parts
    nonzero is fixed by every push-forward, and averaging it again changes
    nothing."""
    act = d4_action()
    s = PolySection(
        PolyVectorField((parse_poly("x^3 + x*y^2 + y", 2), parse_poly("2*x^2*y - x", 2))),
        PolyOneForm((parse_poly("x*y^2 - 1/3*x^3", 2), parse_poly("y^3 + x^2*y + 1", 2))),
    )
    avg = haar_average_section(s, act)
    assert not all(p.is_zero() for p in avg.tangent.components + avg.covector.components)
    assert all(pushforward_section(g, avg) == avg for g in act.finite.elements)
    assert haar_average_section(avg, act) == avg


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
