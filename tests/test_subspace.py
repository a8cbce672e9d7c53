import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_reduce.subspace import (
    DEFAULT_TOL,
    DimensionMismatchError,
    MixedRanksError,
    Subspace,
    check_orthonormal,
    direct_sum,
    intersect_rows,
    nullspace,
    orthonormal_rows,
    span,
)

from helpers import assert_subspace_close, random_orthogonal, random_subspace


def test_orthonormal_rows_rank_matches_numpy():
    """Rank detection agrees with numpy's SVD rank on products of known rank."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        r = int(rng.integers(0, min(m, n) + 1))
        a = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        basis = orthonormal_rows(a, 1e-9)
        assert basis.shape == (np.linalg.matrix_rank(a, tol=1e-9), n)
        np.testing.assert_allclose(basis @ basis.T, np.eye(len(basis)), atol=1e-12)


def test_stacked_rank_decisions_match_each_matrix_bit_for_bit():
    """On a stack, span, null space and intersection are per-matrix results,
    bit for bit; matrices of different rank raise MixedRanksError."""
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((20, 4, 3)) @ rng.standard_normal((20, 3, 6))  # rank 3
    bases = orthonormal_rows(stack)
    other = orthonormal_rows(rng.standard_normal((20, 5, 6)))
    meet = intersect_rows(bases, np.swapaxes(other, -1, -2) @ other, 1e-9)
    assert bases.shape == (20, 3, 6) and nullspace(stack).shape == (20, 3, 6)
    assert meet.shape == (20, 2, 6)
    for i in range(len(stack)):
        assert np.array_equal(bases[i], orthonormal_rows(stack[i]))
        assert np.array_equal(nullspace(stack)[i], nullspace(stack[i]))
        alone = intersect_rows(bases[i], other[i].T @ other[i], 1e-9)
        assert np.array_equal(meet[i], alone)
    stack[3, :, :] = 0.0
    stack[3, 0, 0] = 1.0  # rank 1
    with pytest.raises(MixedRanksError) as mixed:
        orthonormal_rows(stack)
    assert list(mixed.value.args[0]) == [3] * 3 + [1] + [3] * 16


def test_non_orthonormal_basis_is_rejected():
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, np.array([[1.0, 1.0]]))


@pytest.mark.parametrize(
    "basis", [[[np.nan, 0.0]], [[1.0, 0.0], [0.0, np.nan]], [[np.inf, 0.0]]]
)
def test_non_finite_basis_is_rejected(basis):
    with pytest.raises(ValueError, match="orthonormal"):
        Subspace(2, np.array(basis))


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 4),
    extra=st.integers(0, 2),
    diagonal=st.floats(-1.5, 1.5),
    off_diagonal=st.floats(-1.5, 1.5),
)
def test_orthonormality_check_matches_allclose(seed, dim, extra, diagonal, off_diagonal):
    """Perturb one Gram diagonal entry by about 1e-8 + 1e-5 and one
    off-diagonal entry by about 1e-8, on either side of the bounds: the
    basis is accepted exactly when np.allclose(G, I, atol=1e-8) holds, alone
    and as the middle slice of a stack whose other slices are orthonormal."""
    rng = np.random.default_rng(seed)
    n = dim + extra
    basis = random_orthogonal(rng, n)[:dim].copy()
    i, j = (int(k) for k in rng.integers(dim, size=2))
    basis[i] *= np.sqrt(1.0 + diagonal * (1e-8 + 1e-5))
    if i != j:
        basis[j] += off_diagonal * 1e-8 * basis[i]
    expected = bool(np.allclose(basis @ basis.T, np.eye(dim), atol=1e-8))
    try:
        Subspace(n, basis)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected
    good = random_orthogonal(rng, n)[:dim]
    try:
        check_orthonormal(np.stack([good, basis, good]))
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == expected


def test_nullspace_rank_nullity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m, n = rng.integers(1, 7, size=2)
        a = rng.standard_normal((m, n))
        ns = nullspace(a, 1e-9)
        assert len(ns) == n - np.linalg.matrix_rank(a, tol=1e-9)
        if len(ns):
            np.testing.assert_allclose(a @ ns.T, 0.0, atol=1e-9)


def test_span_and_contains():
    s = span(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]), ambient_dim=3)
    assert s.dim == 1
    assert s.contains(np.array([-3.0, -3.0, 0.0]))
    assert not s.contains(np.array([1.0, 0.0, 0.0]))


def test_projector_idempotent_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s = random_subspace(rng, 5, int(rng.integers(0, 6)))
        p = s.projector()
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert abs(np.trace(p) - s.dim) < 1e-9


def test_from_stack_checks_every_slice_once_and_returns_read_only_views():
    rng = np.random.default_rng(8)
    stack = np.stack([random_subspace(rng, 5, 3).basis for _ in range(6)])
    spaces = Subspace.from_stack(5, stack, 1e-8)
    assert [s.dim for s in spaces] == [3] * 6 and {s.tol for s in spaces} == {1e-8}
    for space, basis in zip(spaces, stack):
        assert np.array_equal(space.basis, basis)
        assert not space.basis.flags.writeable
        with pytest.raises(ValueError):
            space.basis[0, 0] = 2.0
    # one checked copy: the caller's stack stays writable and unshared
    assert spaces[0].basis.base is spaces[-1].basis.base
    assert not np.shares_memory(spaces[0].basis, stack)
    assert Subspace.from_stack(5, np.zeros((0, 2, 5))) == []
    bad = stack.copy()
    bad[4, 1] *= 1.0 + 1e-4
    with pytest.raises(ValueError, match="^basis rows are not orthonormal"):
        Subspace.from_stack(5, bad)
    with pytest.raises(DimensionMismatchError, match="length 5, ambient dimension is 4"):
        Subspace.from_stack(4, stack)
    with pytest.raises(DimensionMismatchError, match="stack of bases"):
        Subspace.from_stack(5, stack[0])


def test_projector_and_annihilator_are_built_once_and_read_only():
    rng = np.random.default_rng(5)
    for dim in (0, 2, 4):
        s = random_subspace(rng, 4, dim)
        p, ann = s.projector(), s.annihilator()
        assert s.projector() is p and s.annihilator() is ann
        assert not p.flags.writeable
        with pytest.raises(ValueError):
            p[0, 0] = 2.0
        assert np.array_equal(p, s.basis.T @ s.basis)
        assert np.array_equal(ann.basis, nullspace(s.basis, s.tol))


def test_sum_intersect_dimension_formula():
    # dim(A) + dim(B) = dim(A+B) + dim(A cap B)
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        b = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        total = a.sum(b)
        meet = a.intersect(b)
        assert a.dim + b.dim == total.dim + meet.dim
        for row in meet.basis:
            assert a.contains(row) and b.contains(row)


def test_intersect_matches_the_annihilator_formula():
    """The one-SVD intersection spans what ann(ann A + ann B) spans, on
    generic, nested, equal (other basis), zero and full pairs, and its
    dimension does not depend on the operand order."""
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        a = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        nested = span(rng.standard_normal((int(rng.integers(0, a.dim + 1)), a.dim)) @ a.basis,
                      ambient_dim=n)
        rotated = span(random_orthogonal(rng, a.dim) @ a.basis, ambient_dim=n)
        generic = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        for b in (generic, nested, rotated, a, Subspace.zero(n), Subspace.full(n)):
            for x, y in ((a, b), (b, a)):
                meet = x.intersect(y)
                reference = x.annihilator().sum(y.annihilator()).annihilator()
                assert meet.dim == reference.dim == y.intersect(x).dim
                assert meet.distance(reference) <= 1e-12


@pytest.mark.parametrize("sine, dim", [(DEFAULT_TOL / 10, 1), (100 * DEFAULT_TOL, 0)])
def test_intersect_thresholds_the_principal_angle_sine(sine, dim):
    """Two lines in R^3 meet in a line when the sine of their angle is below
    the tolerance, and only in zero when it is well above it."""
    x = Subspace(3, np.array([[1.0, 0.0, 0.0]]))
    y = Subspace(3, np.array([[np.sqrt(1.0 - sine**2), sine, 0.0]]))
    assert x.intersect(y).dim == y.intersect(x).dim == dim


def test_annihilator_involution_and_dim():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        s = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        ann = s.annihilator()
        assert ann.dim == n - s.dim
        if s.dim and ann.dim:
            np.testing.assert_allclose(ann.basis @ s.basis.T, 0.0, atol=1e-9)
        assert_subspace_close(ann.annihilator(), s)


def test_annihilator_of_sum_is_intersection_of_annihilators():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        a = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        b = random_subspace(rng, n, int(rng.integers(0, n + 1)))
        assert_subspace_close(
            a.sum(b).annihilator(), a.annihilator().intersect(b.annihilator())
        )


def test_orthogonal_wrt_form_double():
    """S^perp^perp = S for a nondegenerate symmetric form."""
    rng = np.random.default_rng(6)
    n = 3
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = np.eye(n)
    for _ in range(20):
        s = random_subspace(rng, 2 * n, int(rng.integers(0, 2 * n + 1)))
        perp = s.orthogonal_wrt_form(j)
        assert perp.dim == 2 * n - s.dim
        assert_subspace_close(perp.orthogonal_wrt_form(j), s)


def test_distance_basis_independent():
    rng = np.random.default_rng(7)
    s = random_subspace(rng, 4, 2)
    # same space through a different (non-orthonormal) basis
    mix = np.array([[2.0, 1.0], [0.0, -1.0]])
    t = span(mix @ s.basis, ambient_dim=4)
    assert s.distance(t) < 1e-12
    assert s == t


def test_distance_of_orthogonal_lines_is_one():
    e1 = span(np.array([[1.0, 0.0]]), ambient_dim=2)
    e2 = span(np.array([[0.0, 1.0]]), ambient_dim=2)
    assert abs(e1.distance(e2) - 1.0) < 1e-12


def test_zero_and_full():
    z = Subspace.zero(4)
    f = Subspace.full(4)
    assert z.dim == 0 and f.dim == 4
    assert z.sum(f) == f
    assert z.annihilator() == Subspace.full(4)
    assert f.annihilator().dim == 0


def test_ambient_mismatch_raises():
    a = Subspace.full(2)
    b = Subspace.full(3)
    with pytest.raises(DimensionMismatchError):
        a.sum(b)
    with pytest.raises(DimensionMismatchError):
        a.intersect(b)


def test_direct_sum_blocks():
    a = span(np.array([[1.0, 0.0]]), ambient_dim=2)
    b = span(np.array([[0.0, 1.0, 0.0]]), ambient_dim=3)
    d = direct_sum(a, b)
    assert d.ambient_dim == 5 and d.dim == 2
    assert d.contains(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    assert d.contains(np.array([0.0, 0.0, 0.0, 1.0, 0.0]))
    assert not d.contains(np.array([0.0, 1.0, 0.0, 0.0, 0.0]))


def test_span_needs_ambient_for_empty_input():
    s = span([], ambient_dim=3)
    assert s.dim == 0 and s.ambient_dim == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_rotation_invariance_of_distance(n, dim, seed):
    """Applying one orthogonal matrix to both subspaces preserves distance."""
    dim = min(dim, n)
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, dim)
    b = random_subspace(rng, n, int(rng.integers(0, n + 1)))
    q = random_orthogonal(rng, n)
    qa = span(a.basis @ q.T, ambient_dim=n) if a.dim else Subspace.zero(n)
    qb = span(b.basis @ q.T, ambient_dim=n) if b.dim else Subspace.zero(n)
    assert abs(a.distance(b) - qa.distance(qb)) < 1e-9
