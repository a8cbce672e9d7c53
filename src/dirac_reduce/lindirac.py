"""Linear Dirac structures on V = R^n (+) (R^n)*.

The doubled space carries the symmetric pairing

    <(u, a), (v, b)> = b(u) + a(v),

of signature (n, n).  A linear Dirac structure is a subspace that is
Lagrangian for this pairing: dimension exactly n and self-orthogonal.
Backward and forward images under linear maps are computed by solving a
single null-space problem on a stacked constraint matrix; no pseudo-inverses
are involved.  The graph constructors, the pull-back and the Lagrangian test
also run on stacks of bases, as the fiber evaluation and the reduction need;
on one :class:`LinearDirac` they are stacks of one.
"""

from __future__ import annotations

import numpy as np

from .poly import _Record, _set
from .subspace import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Subspace,
    _assembled,
    _projector,
    block_diagonal,
    direct_sum,
    nullspace,
    orthonormal_rows,
)

__all__ = [
    "NotLagrangianError",
    "LinearDirac",
    "ForwardImage",
    "pairing_matrix",
    "max_self_pairing",
    "self_pairings",
    "lagrangian_flags",
    "is_lagrangian",
    "from_bivector",
    "from_two_form",
    "from_distribution",
    "graph_bases",
    "pull_back",
    "backward_image",
    "forward_image",
    "transform",
]


class NotLagrangianError(ValueError):
    """A subspace fails the Lagrangian conditions (dimension or pairing)."""


def pairing_matrix(n: int) -> np.ndarray:
    """Matrix of the pairing on R^(2n): [[0, I], [I, 0]]."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def self_pairings(basis: np.ndarray) -> np.ndarray:
    """Largest |<b_i, b_j>| over the rows of ``basis`` (k, 2n), or of every
    matrix of a stack (..., k, 2n); 0 where k = 0."""
    gram = basis @ pairing_matrix(basis.shape[-1] // 2) @ np.swapaxes(basis, -1, -2)
    return np.abs(gram).max(axis=(-2, -1), initial=0.0)


def max_self_pairing(space: Subspace) -> float:
    """Largest |<b_i, b_j>| over the (orthonormal) basis of ``space``."""
    if space.ambient_dim % 2:
        raise DimensionMismatchError("ambient dimension must be even")
    return float(self_pairings(space.basis))


def lagrangian_flags(basis: np.ndarray, tol: float) -> np.ndarray:
    """Whether the orthonormal rows of ``basis`` (k, 2n), or of each matrix of
    a stack (..., k, 2n), span a Lagrangian subspace: k = n and every
    self-pairing at most ``tol``."""
    return (2 * basis.shape[-2] == basis.shape[-1]) & (self_pairings(basis) <= tol)


def is_lagrangian(space: Subspace) -> bool:
    """Dimension n and self-orthogonality, both at ``space.tol``."""
    if space.ambient_dim % 2:
        raise DimensionMismatchError("ambient dimension must be even")
    return bool(lagrangian_flags(space.basis, space.tol))


def _check_lagrangian(base_dim: int, bases: np.ndarray, tol: float) -> None:
    """Raise unless the orthonormal rows of each matrix of the stack
    ``bases`` (N, k, 2n) span a Lagrangian subspace of R^n (+) (R^n)*, n =
    ``base_dim``: one :func:`lagrangian_flags` over the stack, and the
    message of the first failing matrix."""
    if bases.shape[-1] != 2 * base_dim:
        raise DimensionMismatchError(
            f"space lives in R^{bases.shape[-1]}, expected R^{2 * base_dim}"
        )
    if bases.shape[-2] != base_dim:
        raise NotLagrangianError(f"dimension {bases.shape[-2]} != base dimension {base_dim}")
    flags = lagrangian_flags(bases, tol)
    if not flags.all():
        worst = float(self_pairings(bases[int(np.argmin(flags))]))
        raise NotLagrangianError(f"self-pairing {worst:.3e} exceeds tolerance {tol:.3e}")


class LinearDirac(_Record):
    """A Lagrangian subspace of R^n (+) (R^n)*; validated on construction."""

    base_dim: int
    space: Subspace

    def __post_init__(self) -> None:
        """The checks of :meth:`from_stack`, on a stack of one."""
        _check_lagrangian(self.base_dim, self.space.basis[None], self.space.tol)

    @classmethod
    def from_stack(cls, base_dim: int, bases: np.ndarray, tol: float = DEFAULT_TOL) -> list:
        """One LinearDirac per matrix of the stack ``bases`` (N, base_dim,
        2 base_dim): the subspace checks and the Lagrangian test run once
        over the stack (:meth:`.Subspace.from_stack`), and each result's
        basis is a read-only view of one slice of a checked copy."""
        spaces = Subspace.from_stack(bases.shape[-1], bases, tol)
        _check_lagrangian(base_dim, bases, tol)
        return [_assembled(cls, base_dim=base_dim, space=space) for space in spaces]

    @property
    def tol(self) -> float:
        return self.space.tol


# -- constructors ------------------------------------------------------


def graph_bases(matrices: np.ndarray, tol: float, kind: str) -> np.ndarray:
    """Orthonormal rows of the graph of each antisymmetric matrix of a stack
    (N, n, n): the rows of [matrixᵀ | I] for a bivector, of [I | matrix] for a
    two-form, by one stacked SVD.  The identity block gives each n x 2n
    matrix rank n at any scale, so all n right singular vectors are kept and
    no rank is decided.  A graph that fails the Lagrangian test at ``tol``
    raises NotLagrangianError (the first such one in the stack)."""
    count, n = matrices.shape[:2]
    transposed = np.swapaxes(matrices, -1, -2)
    scale = np.maximum(1.0, np.abs(matrices).max(axis=(-2, -1), initial=0.0))
    if (np.abs(matrices + transposed).max(axis=(-2, -1), initial=0.0) > tol * scale).any():
        raise ValueError(f"{kind} matrix must be antisymmetric")
    eye = np.broadcast_to(np.eye(n), matrices.shape)
    rows = np.concatenate([transposed, eye] if kind == "bivector" else [eye, matrices], axis=-1)
    basis = np.linalg.svd(rows, full_matrices=False)[2] if n else np.zeros((count, 0, 0))
    _check_lagrangian(n, basis, tol)
    return basis


def _graph(matrix: np.ndarray, tol: float, kind: str) -> LinearDirac:
    """The graph of one antisymmetric matrix: :func:`graph_bases` on a stack
    of one."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionMismatchError(f"{kind} matrix must be square")
    return LinearDirac(n, Subspace(2 * n, graph_bases(matrix[None], tol, kind)[0], tol))


def from_bivector(pi: np.ndarray, tol: float = DEFAULT_TOL) -> LinearDirac:
    """Graph of a bivector: span of (pi @ e_i, e_i) over the dual basis."""
    return _graph(pi, tol, "bivector")


def from_two_form(omega: np.ndarray, tol: float = DEFAULT_TOL) -> LinearDirac:
    """Graph of a 2-form: span of (e_i, omega contracted with e_i);
    the covector attached to e_i is row i of the matrix."""
    return _graph(omega, tol, "two-form")


def from_distribution(delta: Subspace) -> LinearDirac:
    """Delta (+) ann(Delta): tangent directions plus covectors killing them."""
    return LinearDirac(delta.ambient_dim, direct_sum(delta, delta.annihilator()))


# -- images ------------------------------------------------------------


def _check_map(phi: np.ndarray) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2:
        raise DimensionMismatchError("linear map must be a 2-d matrix")
    return phi


def pull_back(phi: np.ndarray, fibers: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows of {(v, phi^T b) : (phi v, b) in D} for each map
    phi: R^m -> R^n of a stack ``phi`` (N, n, m) and the D spanned by the
    orthonormal rows of the matching slice of ``fibers`` (N, n, 2n); every
    slice must decide one rank (else MixedRanksError)."""
    n, m = phi.shape[-2:]
    # Kernel variables (v, b) in R^(m+n) subject to (phi v, b) in D.
    kernel = nullspace((np.eye(2 * n) - _projector(fibers)) @ block_diagonal(phi, np.eye(n)), tol)
    # rows transform contravariantly: b @ phi = (phi^T b)^T
    return orthonormal_rows(kernel @ block_diagonal(np.eye(m), phi), tol)


def backward_image(phi: np.ndarray, dirac: LinearDirac) -> LinearDirac:
    """Pull-back {(v, phi^T b) : (phi v, b) in D} for phi: R^m -> R^n, as a
    stack of one.

    Always Lagrangian on R^m.
    """
    phi = _check_map(phi)
    n, m = phi.shape
    if n != dirac.base_dim:
        raise DimensionMismatchError(
            f"map targets R^{n}, Dirac structure lives on R^{dirac.base_dim}"
        )
    rows = pull_back(phi[None], dirac.space.basis[None], dirac.tol)[0]
    return LinearDirac(m, Subspace(2 * m, rows, dirac.tol))


class ForwardImage(_Record):
    """Result of a push-forward, with status flags.

    The span is always computed; it is Lagrangian whenever the map is
    surjective, and the ``lagrangian`` flag records whether it is one here.
    """

    base_dim: int
    space: Subspace
    lagrangian: bool
    surjective: bool

    def __init__(self, base_dim, space, lagrangian, surjective) -> None:  # two per point
        _set(self, "base_dim", base_dim)
        _set(self, "space", space)
        _set(self, "lagrangian", lagrangian)
        _set(self, "surjective", surjective)

    @property
    def dirac(self) -> LinearDirac:
        if not self.lagrangian:
            raise NotLagrangianError(
                "forward image is not Lagrangian "
                f"(dimension {self.space.dim} on R^{self.base_dim}); "
                "the map was "
                + ("surjective" if self.surjective else "not surjective")
            )
        return LinearDirac(self.base_dim, self.space)


def forward_image(phi: np.ndarray, dirac: LinearDirac) -> ForwardImage:
    """Push-forward {(phi v, b) : (v, phi^T b) in D} for phi: R^m -> R^n."""
    phi = _check_map(phi)
    n, m = phi.shape
    if m != dirac.base_dim:
        raise DimensionMismatchError(
            f"map starts on R^{m}, Dirac structure lives on R^{dirac.base_dim}"
        )
    tol = dirac.tol
    constraint = (np.eye(2 * m) - dirac.space.projector()) @ block_diagonal(np.eye(m), phi.T)
    rows = nullspace(constraint, tol) @ block_diagonal(phi.T, np.eye(n))
    space = Subspace(2 * n, orthonormal_rows(rows, tol), tol)
    return ForwardImage(
        base_dim=n,
        space=space,
        lagrangian=is_lagrangian(space),
        surjective=len(orthonormal_rows(phi, tol)) == n,
    )


def transform(g: np.ndarray, dirac: LinearDirac) -> LinearDirac:
    """Image under the Pontryagin lift (v, a) -> (g v, g^-T a) of an
    invertible g."""
    g = _check_map(g)
    n = dirac.base_dim
    if g.shape != (n, n):
        raise DimensionMismatchError(f"expected a {n} x {n} matrix, got {g.shape}")
    if n == 0:
        return dirac
    if len(nullspace(g, dirac.tol)):
        raise ValueError("transform matrix is singular at tolerance")
    rows = dirac.space.basis @ block_diagonal(g, np.linalg.inv(g).T).T
    tol = dirac.tol
    return LinearDirac(n, Subspace(2 * n, orthonormal_rows(rows, tol), tol))
