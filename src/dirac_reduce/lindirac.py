"""Linear Dirac structures on V = R^n (+) (R^n)*.

The doubled space carries the symmetric pairing

    <(u, a), (v, b)> = b(u) + a(v),

of signature (n, n).  A linear Dirac structure is a subspace that is
Lagrangian for this pairing: dimension exactly n and self-orthogonal.
Backward and forward images under linear maps are computed by solving a
single null-space problem on a stacked constraint matrix; no pseudo-inverses
are involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .subspace import (
    DEFAULT_TOL,
    DimensionMismatchError,
    Subspace,
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
    "is_lagrangian",
    "from_bivector",
    "from_two_form",
    "from_distribution",
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


def is_lagrangian(space: Subspace) -> bool:
    """Dimension n and self-orthogonality, both at ``space.tol``."""
    if space.ambient_dim % 2:
        raise DimensionMismatchError("ambient dimension must be even")
    n = space.ambient_dim // 2
    return space.dim == n and max_self_pairing(space) <= space.tol


@dataclass(frozen=True)
class LinearDirac:
    """A Lagrangian subspace of R^n (+) (R^n)*; validated on construction."""

    base_dim: int
    space: Subspace

    def __post_init__(self) -> None:
        if self.space.ambient_dim != 2 * self.base_dim:
            raise DimensionMismatchError(
                f"space lives in R^{self.space.ambient_dim}, "
                f"expected R^{2 * self.base_dim}"
            )
        if self.space.dim != self.base_dim:
            raise NotLagrangianError(
                f"dimension {self.space.dim} != base dimension {self.base_dim}"
            )
        worst = max_self_pairing(self.space)
        if worst > self.space.tol:
            raise NotLagrangianError(
                f"self-pairing {worst:.3e} exceeds tolerance {self.space.tol:.3e}"
            )

    @property
    def tol(self) -> float:
        return self.space.tol


# -- constructors ------------------------------------------------------


def _graph(matrix: np.ndarray, tol: float, kind: str) -> LinearDirac:
    """Graph of an antisymmetric matrix: the rows of [matrixᵀ | I] for a
    bivector, of [I | matrix] for a two-form.  The identity block gives this
    n x 2n matrix rank n at any scale, so all n right singular vectors are
    kept and no rank is decided."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise DimensionMismatchError(f"{kind} matrix must be square")
    scale = max(1.0, float(np.abs(matrix).max()) if n else 1.0)
    if np.abs(matrix + matrix.T).max(initial=0.0) > tol * scale:
        raise ValueError(f"{kind} matrix must be antisymmetric")
    rows = np.hstack([matrix.T, np.eye(n)] if kind == "bivector" else [np.eye(n), matrix])
    basis = np.linalg.svd(rows, full_matrices=False)[2] if n else np.zeros((0, 0))
    return LinearDirac(n, Subspace(2 * n, basis, tol))


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


def backward_image(phi: np.ndarray, dirac: LinearDirac) -> LinearDirac:
    """Pull-back {(v, phi^T b) : (phi v, b) in D} for phi: R^m -> R^n.

    Always Lagrangian on R^m.
    """
    phi = _check_map(phi)
    n, m = phi.shape
    if n != dirac.base_dim:
        raise DimensionMismatchError(
            f"map targets R^{n}, Dirac structure lives on R^{dirac.base_dim}"
        )
    tol = dirac.tol
    # Kernel variables (v, b) in R^(m+n) subject to (phi v, b) in D.
    lift = np.zeros((2 * n, m + n))
    lift[:n, :m] = phi
    lift[n:, m:] = np.eye(n)
    constraint = (np.eye(2 * n) - dirac.space.projector()) @ lift
    kernel = nullspace(constraint, tol)  # rows
    push = np.zeros((m + n, 2 * m))
    push[:m, :m] = np.eye(m)
    push[m:, m:] = phi  # rows transform contravariantly: b @ phi = (phi^T b)^T
    rows = kernel @ push
    return LinearDirac(m, Subspace(2 * m, orthonormal_rows(rows, tol), tol))


@dataclass(frozen=True)
class ForwardImage:
    """Result of a push-forward, with status flags.

    The span is always computed; it is Lagrangian whenever the map is
    surjective, and the ``lagrangian`` flag records whether it is one here.
    """

    base_dim: int
    space: Subspace
    lagrangian: bool
    surjective: bool

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
    lift = np.zeros((2 * m, m + n))
    lift[:m, :m] = np.eye(m)
    lift[m:, m:] = phi.T
    constraint = (np.eye(2 * m) - dirac.space.projector()) @ lift
    kernel = nullspace(constraint, tol)
    push = np.zeros((m + n, 2 * n))
    push[:m, :n] = phi.T
    push[m:, n:] = np.eye(n)
    rows = kernel @ push
    space = Subspace(2 * n, orthonormal_rows(rows, tol), tol)
    if phi.size:
        s = np.linalg.svd(phi, compute_uv=False)
        rank = int(np.sum(s > tol * s[0])) if s.size else 0
    else:
        rank = 0
    return ForwardImage(
        base_dim=n,
        space=space,
        lagrangian=is_lagrangian(space),
        surjective=rank == n,
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
    s = np.linalg.svd(g, compute_uv=False)
    if s[-1] <= dirac.tol * s[0]:
        raise ValueError("transform matrix is singular at tolerance")
    lift = np.zeros((2 * n, 2 * n))
    lift[:n, :n] = g
    lift[n:, n:] = np.linalg.inv(g).T
    rows = dirac.space.basis @ lift.T
    tol = dirac.tol
    return LinearDirac(n, Subspace(2 * n, orthonormal_rows(rows, tol), tol))
