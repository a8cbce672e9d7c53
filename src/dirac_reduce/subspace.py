"""Tolerance-aware linear subspaces of R^n.

A :class:`Subspace` stores an orthonormal basis (rows) produced by a
rank-revealing SVD.  All comparisons go through orthogonal projectors, so
results do not depend on which spanning set was used to build a subspace.
Spans and null spaces keep singular values above the relative ``tol * s_max``;
an intersection keeps directions whose principal-angle sine is at most the absolute ``tol``.
The graph constructors in :mod:`.lindirac` take no rank decision at all.

The dual space (R^n)* is identified with R^n through the standard basis, so
annihilators are computed as Euclidean orthogonal complements.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .poly import _Record, _set

DEFAULT_TOL = 1e-9
_DIAGONAL_ATOL = 1e-8 + 1e-5  # allclose's atol + rtol * |1|

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "FormDegenerateError",
    "Subspace",
    "span",
    "direct_sum",
    "nullspace",
    "orthonormal_rows",
    "intersect_rows",
    "MixedRanksError",
    "check_orthonormal",
    "block_diagonal",
]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient spaces (or have wrong shapes)."""


class FormDegenerateError(ValueError):
    """A bilinear form is singular at the working tolerance."""


class MixedRanksError(Exception):
    """The matrices of a stack decided different ranks; ``args[0]`` holds them."""


def _rank(s: np.ndarray, cut) -> int:
    """The number of singular values above ``cut``, which every matrix of a
    stack must share."""
    ranks = np.atleast_1d((s > cut).sum(axis=-1))
    if (ranks != ranks[0]).any():
        raise MixedRanksError(ranks)
    return int(ranks[0])


def orthonormal_rows(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of the row space of ``matrix``, or of every
    matrix of a stack ``(..., r, c)`` (all of one rank, else MixedRanksError).

    Rank is the number of singular values above ``tol * s_max``.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, s, vh = np.linalg.svd(matrix, full_matrices=False)
    return vh[..., : _rank(s, tol * s[..., :1]), :].copy()


def nullspace(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (rows) of ``{x : matrix @ x = 0}``, per matrix of a
    stack as in :func:`orthonormal_rows`."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, s, vh = np.linalg.svd(matrix, full_matrices=True)
    return vh[..., _rank(s, tol * s[..., :1]) :, :].copy()


def _projector(rows: np.ndarray) -> np.ndarray:
    """The orthogonal projector onto the span of the orthonormal ``rows``, per
    matrix of a stack ``(..., k, n)``."""
    return np.swapaxes(rows, -1, -2) @ rows


def intersect_rows(basis: np.ndarray, projector: np.ndarray, tol: float) -> np.ndarray:
    """Rows spanning the intersection of the row space of ``basis``
    (orthonormal rows) with the image of the orthogonal ``projector``, per
    matrix of a stack as in :func:`orthonormal_rows`.  One SVD of B - B P,
    whose singular values are the principal-angle sines; the directions whose
    sine is at most the absolute ``tol`` are kept."""
    u, s, _ = np.linalg.svd(basis - basis @ projector, full_matrices=False)
    return np.swapaxes(u[..., _rank(s, tol) :], -1, -2) @ basis


@lru_cache(maxsize=None)
def _gram_bounds(k: int) -> tuple:
    """I_k, and the bound np.allclose(G, I_k, atol=1e-8) puts on |G - I_k|:
    atol off the diagonal, atol + rtol on it."""
    eye = np.eye(k)
    bound = np.where(eye == 1.0, _DIAGONAL_ATOL, 1e-8)
    eye.flags.writeable = bound.flags.writeable = False  # shared by every caller
    return eye, bound


def check_orthonormal(basis: np.ndarray) -> None:
    """Raise ValueError unless the rows of ``basis``, or of every matrix of a
    stack ``(..., k, n)``, are orthonormal to np.allclose's tolerances (a
    NaN fails)."""
    eye, bound = _gram_bounds(basis.shape[-2])
    if not (np.abs(basis @ np.swapaxes(basis, -1, -2) - eye) <= bound).all():
        raise ValueError("basis rows are not orthonormal; build with span()")


def _checked_bases(ambient_dim: int, bases) -> np.ndarray:
    """A read-only copy of the stack ``bases`` (N, k, n), once its rows have
    length n = ``ambient_dim`` and are orthonormal in every matrix."""
    bases = np.array(bases, dtype=float)
    if bases.ndim != 3:
        raise DimensionMismatchError(f"expected a stack of bases (N, k, n), not {bases.shape}")
    if bases.shape[-1] != ambient_dim:
        raise DimensionMismatchError(
            f"basis vectors have length {bases.shape[-1]}, "
            f"ambient dimension is {ambient_dim}"
        )
    check_orthonormal(bases)
    bases.setflags(write=False)
    return bases


def _assembled(cls, **fields):
    """An instance of the record class ``cls`` with these fields, without
    running ``__post_init__``: for the stacked constructors, which have run
    its checks over the whole stack."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def block_diagonal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rows [[a, 0], [0, b]], over the broadcast stack when either is one: a
    basis of the external direct sum of the two row spaces."""
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    rows = np.zeros(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (ra + rb, ca + cb))
    rows[..., :ra, :ca] = a
    rows[..., ra:, ca:] = b
    return rows


class Subspace(_Record):
    """A linear subspace of R^n with an orthonormal row basis.

    ``basis`` has shape ``(dim, ambient_dim)``; the zero subspace has an
    empty basis.  Equality is projector equality at the larger of the two
    tolerances.  Instances are immutable, so the projector and the
    annihilator are computed once per instance and shared.
    """

    ambient_dim: int
    basis: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self) -> None:
        """The checks of :meth:`from_stack`, on a stack of one."""
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        if basis.size == 0:
            basis = basis.reshape(0, self.ambient_dim)
        _set(self, "basis", _checked_bases(self.ambient_dim, basis[None])[0])

    # -- constructors ------------------------------------------------

    @classmethod
    def from_stack(cls, ambient_dim: int, bases, tol: float = DEFAULT_TOL) -> list:
        """One Subspace per matrix of the stack ``bases`` (N, k, n): the
        constructor's checks run once over the whole stack, on a read-only
        copy, and each Subspace's basis is a view of one slice of it."""
        return [
            _assembled(cls, ambient_dim=ambient_dim, basis=basis, tol=tol)
            for basis in _checked_bases(ambient_dim, bases)
        ]

    @classmethod
    def zero(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(ambient_dim, np.zeros((0, ambient_dim)), tol)

    @classmethod
    def full(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim), tol)

    # -- basic queries -----------------------------------------------

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace (n x n), read-only."""
        return self._projection

    @cached_property
    def _projection(self) -> np.ndarray:
        p = _projector(self.basis)
        p.setflags(write=False)
        return p

    def contains(self, vector: np.ndarray) -> bool:
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.ambient_dim,):
            raise DimensionMismatchError(
                f"vector of length {vector.shape}, ambient {self.ambient_dim}"
            )
        residual = vector - self.projector() @ vector
        return bool(
            np.linalg.norm(residual) <= self.tol * max(1.0, np.linalg.norm(vector))
        )

    # -- lattice operations ------------------------------------------

    def _check_same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def sum(self, other: "Subspace") -> "Subspace":
        """Smallest subspace containing both operands."""
        self._check_same_ambient(other)
        tol = max(self.tol, other.tol)
        stacked = np.vstack([self.basis, other.basis])
        return Subspace(self.ambient_dim, orthonormal_rows(stacked, tol), tol)

    def annihilator(self) -> "Subspace":
        """Annihilator in the dual, identified with the Euclidean
        orthogonal complement."""
        return self._annihilator

    @cached_property
    def _annihilator(self) -> "Subspace":
        return Subspace(self.ambient_dim, nullspace(self.basis, self.tol), self.tol)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection from one SVD of B - B P (B this orthonormal basis, P the
        other's projector), whose singular values are the principal-angle sines."""
        self._check_same_ambient(other)
        tol = max(self.tol, other.tol)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim, tol)
        return Subspace(self.ambient_dim, intersect_rows(self.basis, other.projector(), tol), tol)

    def orthogonal_wrt_form(self, form: np.ndarray) -> "Subspace":
        """Orthogonal complement with respect to a symmetric nondegenerate
        bilinear form ``B``: all ``w`` with ``B(w, s) = 0`` for ``s`` here."""
        form = np.asarray(form, dtype=float)
        if form.shape != (self.ambient_dim, self.ambient_dim):
            raise DimensionMismatchError(
                f"form has shape {form.shape}, expected "
                f"({self.ambient_dim}, {self.ambient_dim})"
            )
        if self.ambient_dim == 0:
            return Subspace.zero(0, self.tol)
        singular = np.linalg.svd(form, compute_uv=False)
        scale, smallest = singular[0], singular[-1]  # scale is the 2-norm of the form
        if scale == 0.0:
            raise FormDegenerateError("form is zero")
        if np.linalg.norm(form - form.T, 2) > self.tol * scale:
            raise ValueError("form is not symmetric")
        if smallest <= self.tol * scale:
            raise FormDegenerateError(
                f"form is singular at tolerance {self.tol} "
                f"(smallest singular value {smallest:.3e})"
            )
        if self.dim == 0:
            return Subspace.full(self.ambient_dim, self.tol)
        return Subspace(
            self.ambient_dim, nullspace(self.basis @ form, self.tol), self.tol
        )

    # -- metric ---------------------------------------------------------

    def distance(self, other: "Subspace") -> float:
        """Operator-norm distance of orthogonal projectors; lies in [0, 1],
        and equals 1 when the dimensions differ."""
        self._check_same_ambient(other)
        if self.ambient_dim == 0:
            return 0.0
        return float(np.linalg.norm(self.projector() - other.projector(), 2))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        return self.distance(other) <= max(self.tol, other.tol)

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim!r}, tol={self.tol!r})"


def span(vectors, ambient_dim: int | None = None, tol: float = DEFAULT_TOL) -> Subspace:
    """Subspace spanned by a sequence of vectors (rows).

    ``ambient_dim`` is required when ``vectors`` is empty.
    """
    rows = [np.asarray(v, dtype=float) for v in vectors]
    if not rows:
        if ambient_dim is None:
            raise DimensionMismatchError("empty span needs an explicit ambient_dim")
        return Subspace.zero(ambient_dim, tol)
    length = rows[0].shape[-1] if rows[0].ndim else 0
    for v in rows:
        if v.ndim != 1:
            raise DimensionMismatchError("span expects 1-d vectors")
        if v.shape[0] != length:
            raise DimensionMismatchError("span vectors have inconsistent lengths")
    if ambient_dim is not None and ambient_dim != length:
        raise DimensionMismatchError(
            f"vectors of length {length}, ambient_dim {ambient_dim}"
        )
    matrix = np.vstack(rows)
    return Subspace(length, orthonormal_rows(matrix, tol), tol)


def direct_sum(a: Subspace, b: Subspace) -> Subspace:
    """External direct sum inside R^(n_a + n_b)."""
    return Subspace(
        a.ambient_dim + b.ambient_dim, block_diagonal(a.basis, b.basis), max(a.tol, b.tol)
    )
