import numpy as np
import pytest

from dirac_reduce.lindirac import (
    LinearDirac,
    NotLagrangianError,
    backward_image,
    forward_image,
    from_bivector,
    from_distribution,
    from_two_form,
    is_lagrangian,
    max_self_pairing,
    pairing_matrix,
    transform,
)
from dirac_reduce.subspace import Subspace, span

from helpers import (
    assert_subspace_close,
    random_antisymmetric,
    random_invertible,
    random_lagrangian,
    random_subspace,
)

CANONICAL_PI = np.array([[0.0, 1.0], [-1.0, 0.0]])
AREA_FORM = np.array([[0.0, 1.0], [-1.0, 0.0]])


def test_pairing_matrix_blocks():
    j = pairing_matrix(2)
    expected = np.zeros((4, 4))
    expected[:2, 2:] = np.eye(2)
    expected[2:, :2] = np.eye(2)
    np.testing.assert_array_equal(j, expected)


def test_pairing_value():
    p = np.array([1.0, 0.0, 0.0, 2.0])  # (u, a)
    q = np.array([0.0, 3.0, 4.0, 0.0])  # (v, b)
    # <(u,a),(v,b)> = b(u) + a(v)
    assert p @ pairing_matrix(2) @ q == pytest.approx(4.0 * 1.0 + 2.0 * 3.0)


def test_from_bivector_sections():
    """Section i of the graph is (Pi column i, e_i)."""
    d = from_bivector(CANONICAL_PI)
    assert d.space.dim == 2 and is_lagrangian(d.space)
    assert d.space.contains(np.array([0.0, -1.0, 1.0, 0.0]))  # (Pi col 1, dx)
    assert d.space.contains(np.array([1.0, 0.0, 0.0, 1.0]))  # (Pi col 2, dy)


def test_from_two_form_sections():
    """Section i of the graph is (e_i, Omega row i)."""
    d = from_two_form(AREA_FORM)
    assert d.space.contains(np.array([1.0, 0.0, 0.0, 1.0]))  # (e1, dy)
    assert d.space.contains(np.array([0.0, 1.0, -1.0, 0.0]))  # (e2, -dx)


def test_antisymmetry_required():
    with pytest.raises(ValueError):
        from_bivector(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        from_two_form(np.eye(2))


def test_from_distribution():
    d = from_distribution(span(np.array([[1.0, 0.0]]), ambient_dim=2))
    assert d.space.dim == 2
    assert d.space.contains(np.array([1.0, 0.0, 0.0, 0.0]))
    assert d.space.contains(np.array([0.0, 0.0, 0.0, 1.0]))
    assert is_lagrangian(d.space)


def test_is_lagrangian_rejects_non_isotropic():
    # span{(e1, 0), (0, dx)} pairs to 1 with itself
    s = span(
        np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]]), ambient_dim=4
    )
    assert not is_lagrangian(s)
    assert max_self_pairing(s) > 0.4


def test_is_lagrangian_odd_ambient_raises():
    with pytest.raises(ValueError):
        is_lagrangian(Subspace.full(3))


def test_linear_dirac_validates():
    with pytest.raises(NotLagrangianError):
        LinearDirac(2, span(np.array([[1.0, 0.0, 0.0, 0.0]]), ambient_dim=4))


def test_from_stack_checks_every_slice_with_the_per_point_messages():
    rng = np.random.default_rng(3)
    stack = np.stack([random_lagrangian(rng, 3).space.basis for _ in range(5)])
    diracs = LinearDirac.from_stack(3, stack, 1e-8)
    assert [d.base_dim for d in diracs] == [3] * 5
    for dirac, basis in zip(diracs, stack):
        assert np.array_equal(dirac.space.basis, basis) and dirac.tol == 1e-8
        assert not dirac.space.basis.flags.writeable
    # the second failing slice is not the one reported
    bad = stack.copy()
    bad[2] = np.eye(6)[[0, 1, 3]]  # <e_1, e_4> = 1
    bad[4] = np.eye(6)[[0, 2, 3]]
    with pytest.raises(NotLagrangianError) as alone:
        LinearDirac(3, Subspace(6, bad[2]))
    with pytest.raises(NotLagrangianError) as stacked:
        LinearDirac.from_stack(3, bad)
    assert str(stacked.value) == str(alone.value)
    with pytest.raises(NotLagrangianError, match="dimension 3 != base dimension 2"):
        LinearDirac.from_stack(2, np.zeros((1, 3, 4)) + np.eye(4)[:3])
    with pytest.raises(ValueError, match="^space lives in R\\^6, expected R\\^4$"):
        LinearDirac.from_stack(2, stack)
    bad[4, 0] *= 2.0  # not orthonormal: the subspace check runs first
    with pytest.raises(ValueError, match="^basis rows are not orthonormal"):
        LinearDirac.from_stack(3, bad)


def test_backward_image_inclusion_of_area_form():
    """Pulling the area form back to the x-axis kills the covector leg."""
    d = from_two_form(AREA_FORM)
    incl = np.array([[1.0], [0.0]])  # R^1 -> R^2
    dq = backward_image(incl, d)
    assert dq.base_dim == 1
    assert_subspace_close(dq.space, span(np.array([[1.0, 0.0]]), ambient_dim=2))


@pytest.mark.parametrize("k", range(-12, 13))
def test_graphs_decide_no_rank_at_any_scale(k):
    """[I | omega] and [pi^T | I] have rank n whatever the size of the
    entries, so s * J stays a Lagrangian graph for every s = 10^k, including
    the unit row of the kernel of J, which a relative rank threshold drops once
    s > 1/tol."""
    j = 10.0**k * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for build, rows in ((from_two_form, np.hstack([np.eye(3), j])),
                        (from_bivector, np.hstack([j.T, np.eye(3)]))):
        d = build(j)
        assert d.space.dim == 3 and is_lagrangian(d.space)
        for row in rows:
            assert d.space.contains(row / np.linalg.norm(row)), (build.__name__, row)


def test_forward_image_projection_of_canonical_poisson():
    """Projecting (x, y) -> x sends the canonical Poisson graph to {0}+R*."""
    d = from_bivector(CANONICAL_PI)
    proj = np.array([[1.0, 0.0]])  # R^2 -> R^1
    image = forward_image(proj, d)
    assert image.surjective and image.lagrangian
    assert_subspace_close(image.space, span(np.array([[0.0, 1.0]]), ambient_dim=2))


def test_forward_image_non_surjective_flagged():
    d = from_distribution(span(np.array([[1.0]]), ambient_dim=1))
    embed = np.array([[1.0], [0.0]])  # R^1 -> R^2, not onto
    image = forward_image(embed, d)
    assert not image.surjective
    # the span is still Lagrangian here: (v, 0) + covectors killing the range
    assert image.lagrangian
    assert image.space.contains(np.array([1.0, 0.0, 0.0, 0.0]))
    assert image.space.contains(np.array([0.0, 0.0, 0.0, 1.0]))


def test_forward_image_dirac_property_raises_when_flagged():
    space = span(np.array([[1.0, 0.0, 0.0, 0.0]]), ambient_dim=4)
    from dirac_reduce.lindirac import ForwardImage

    img = ForwardImage(base_dim=2, space=space, lagrangian=False, surjective=False)
    with pytest.raises(NotLagrangianError):
        _ = img.dirac


def test_images_preserve_lagrangian_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        d = random_lagrangian(rng, n)
        phi = rng.standard_normal((n, m))
        back = backward_image(phi, d)
        assert back.base_dim == m
        assert is_lagrangian(back.space)
        psi = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        fwd = forward_image(psi, d)
        assert is_lagrangian(fwd.space)


def test_transform_matches_bivector_pushforward():
    """transform(g, graph(Pi)) equals graph(g Pi g^T)."""
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        pi = random_antisymmetric(rng, n)
        g = random_invertible(rng, n)
        lhs = transform(g, from_bivector(pi))
        rhs = from_bivector(g @ pi @ g.T)
        assert lhs.space.distance(rhs.space) < 1e-8


def test_transform_matches_two_form_pullback_by_inverse():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        om = random_antisymmetric(rng, n)
        g = random_invertible(rng, n)
        ginv = np.linalg.inv(g)
        lhs = transform(g, from_two_form(om))
        rhs = from_two_form(ginv.T @ om @ ginv)
        assert lhs.space.distance(rhs.space) < 1e-8


def test_transform_rejects_singular():
    d = from_bivector(CANONICAL_PI)
    with pytest.raises(ValueError):
        transform(np.array([[1.0, 0.0], [1.0, 0.0]]), d)


def test_backward_image_to_zero_dimensional_base():
    d = from_bivector(CANONICAL_PI)
    dq = backward_image(np.zeros((2, 0)), d)
    assert dq.base_dim == 0
    assert dq.space.dim == 0
    assert is_lagrangian(dq.space)


def test_max_self_pairing_zero_space():
    assert max_self_pairing(Subspace.zero(4)) == 0.0
