"""Compact linear symmetry: a finite orthogonal group times one weighted circle.

The group G = F x S^1 acts on R^n by orthogonal matrices, the circle in
standard block form (2x2 rotation blocks with integer weights, identity on
the remaining coordinates).  This module computes isotropy subgroups
exactly, averaging projectors and fixed subspaces, the vertical space V(m),
and Haar averages of polynomial sections.  Isotropy is decided for a stack of
points at once by one rule, in Euclidean norms throughout: with atol =
tol max(|m|, 1) and the guard band 1000 atol, a group element g belongs to
G_m when |g m - m| <= atol, and a residual inside the guard band makes m a
skip.  The whole circle fixes m when 2 |m_rot| <= atol, m_rot the rotating
coordinates of m.  Elsewhere the elements tried are the candidate angles of
the rotation block of m that pins the angle the most, one flat array for the
whole stack, each decided in the frame of f^T m, to first order in the angle
near it (:func:`_circle_isotropies`).  So the verdicts do not change under an
orthogonal change of coordinates that commutes with G.  The subspaces the
reduction routes build from these are computed for a whole stack of isotropy
classes of one shape at once in :mod:`.reduction`.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np

from .poly import Poly, _from_dict, _Record, _set, _unit
from .polyfield import _PASS_FLOATS, PolyOneForm, PolySection, PolyVectorField, pushforward_section
from .subspace import DEFAULT_TOL, Subspace, span

__all__ = [
    "ActionValidationError",
    "AmbiguousIsotropyError",
    "ExactnessWarning",
    "FiniteGroupRep",
    "CircleFactor",
    "ActionSpec",
    "IsotropyDescriptor",
    "validate_action",
    "vertical_space",
    "isotropy",
    "average_projector",
    "fixed_subspace",
    "haar_average_section",
    "quadrature_nodes_required",
    "default_quadrature_nodes",
]

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-7  # isotropy angles closer than this name one subgroup
MAX_WEIGHT = 1000  # largest |circle weight|: isotropy tries |w| angles per point and element


class ActionValidationError(ValueError):
    """The action data violate a group axiom at tolerance."""


class AmbiguousIsotropyError(ValueError):
    """Point too close to a stratum boundary to classify safely."""


class ExactnessWarning(UserWarning):
    """Quadrature node count below the exactness threshold."""


class FiniteGroupRep(_Record):
    """A finite group given by its orthogonal matrices (identity included)."""

    elements: tuple

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupRep):
            return NotImplemented
        return len(self.elements) == len(other.elements) and all(
            np.array_equal(a, b) for a, b in zip(self.elements, other.elements)
        )

    def __hash__(self) -> int:
        return hash((len(self.elements), self.elements[0].shape))

    def __post_init__(self) -> None:
        mats = []
        for e in self.elements:
            m = np.array(e, dtype=float)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("group elements must be square matrices")
            m.setflags(write=False)
            mats.append(m)
        if not mats:
            raise ValueError("a finite group needs at least the identity")
        if any(m.shape != mats[0].shape for m in mats):
            raise ValueError("group elements act on different spaces")
        _set(self, "elements", tuple(mats))

    @property
    def n(self) -> int:
        return self.elements[0].shape[0]

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def trivial(cls, n: int) -> "FiniteGroupRep":
        return cls((np.eye(n),))


class CircleFactor(_Record):
    """Weighted circle on R^(2k+l): rotation by w_j*theta on block j."""

    weights: tuple
    fixed_dim: int = 0

    def __post_init__(self) -> None:
        ws = tuple(int(w) for w in self.weights)
        if any(w == 0 for w in ws):
            raise ValueError("circle weights must be nonzero")
        if any(abs(w) > MAX_WEIGHT for w in ws):
            raise ValueError(f"circle weights must not exceed {MAX_WEIGHT} in absolute value")
        if self.fixed_dim < 0:
            raise ValueError("fixed_dim must be nonnegative")
        _set(self, "weights", ws)
        _set(self, "fixed_dim", int(self.fixed_dim))

    @property
    def n(self) -> int:
        return 2 * len(self.weights) + self.fixed_dim

    def generator(self) -> np.ndarray:
        """d/dtheta at 0 of the rotation: block-diagonal w_j * [[0,-1],[1,0]]."""
        a = np.zeros((self.n, self.n))
        for j, w in enumerate(self.weights):
            a[2 * j, 2 * j + 1] = -w
            a[2 * j + 1, 2 * j] = w
        return a

    def rotation(self, theta) -> np.ndarray:
        """R(theta) (n, n), or one R per angle of an array of angles (..., n, n)."""
        theta = np.asarray(theta, dtype=float)
        r = np.tile(np.eye(self.n), (*theta.shape, 1, 1))
        for j, w in enumerate(self.weights):
            c, s = np.cos(w * theta), np.sin(w * theta)
            r[..., 2 * j, 2 * j], r[..., 2 * j, 2 * j + 1] = c, -s
            r[..., 2 * j + 1, 2 * j], r[..., 2 * j + 1, 2 * j + 1] = s, c
        return r


class ActionSpec(_Record):
    """G = finite x circle acting orthogonally on R^n."""

    n: int
    finite: FiniteGroupRep
    circle: CircleFactor | None = None

    def __post_init__(self) -> None:
        if self.finite.n != self.n:
            raise ValueError(
                f"finite group acts on R^{self.finite.n}, expected R^{self.n}"
            )
        if self.circle is not None and self.circle.n != self.n:
            raise ValueError(
                f"circle acts on R^{self.circle.n}, expected R^{self.n}"
            )


def validate_action(spec: ActionSpec) -> ActionSpec:
    """Verify orthogonality, identity, closure, inverses, and commutation with
    the circle at DEFAULT_TOL; raises ActionValidationError listing every violation."""
    tol = DEFAULT_TOL
    elements = np.stack(spec.finite.elements)  # (G, n, n)
    order, n = len(elements), spec.n
    eye = np.eye(n)
    transposed = np.swapaxes(elements, -1, -2)
    products = elements[:, None] @ elements[None]  # (G, G, n, n): e_i e_j
    # the identity, each element, each inverse and each product, against every element
    candidates = np.concatenate([eye[None], elements, transposed, products.reshape(-1, n, n)])
    distance = np.stack([np.abs(candidates - e).max(axis=(-2, -1)) for e in elements], -1)
    closest = distance.min(axis=-1)
    inverse = closest[1 + order : 1 + 2 * order]
    closure = closest[1 + 2 * order :].reshape(order, order)

    orthogonality = np.abs(transposed @ elements - eye).max(axis=(-2, -1))
    violations = [
        f"element {i} is not orthogonal at tolerance {tol}"
        for i in np.flatnonzero(orthogonality > tol)
    ]
    if closest[0] > tol:
        violations.append("identity matrix missing from the finite group")
    for i in range(order):
        violations += [
            f"closure failure: product of elements {i} and {j} is missing"
            for j in np.flatnonzero(closure[i] > tol)
        ]
        if inverse[i] > tol:
            violations.append(f"inverse of element {i} is missing")
        violations += [
            f"duplicate elements: {i} and {j} coincide"
            for j in np.flatnonzero(distance[1 + i, i + 1 :] <= tol) + i + 1
        ]
    if spec.circle is not None:
        a = spec.circle.generator()
        scale = max(1.0, float(np.max(np.abs(a))))
        commutator = np.abs(elements @ a - a @ elements).max(axis=(-2, -1))
        violations += [
            f"element {i} does not commute with the circle generator"
            for i in np.flatnonzero(commutator > tol * scale)
        ]
    if violations:
        raise ActionValidationError("; ".join(violations))
    return spec


def _tolerance(points: np.ndarray, tol: float) -> np.ndarray:
    """isotropy's tolerance atol = tol max(|m|, 1) at each point of a stack (N, n)."""
    return tol * np.maximum(np.linalg.norm(points, axis=-1), 1.0)


def _circle_fixes(spec: ActionSpec, points: np.ndarray, atol: np.ndarray) -> np.ndarray:
    """Whether the whole circle fixes each point of a stack (N, n), 2
    |m_rot| <= atol with m_rot its rotating coordinates (vacuously true with
    no circle): no rotation moves m by more than 2 |m_rot|.  The one test by
    which isotropy puts the circle in G_m and vertical_space sets V(m) = 0,
    so that V(m) = 0 exactly there."""
    if spec.circle is None:
        return np.ones(len(points), dtype=bool)
    k2 = 2 * len(spec.circle.weights)
    return 2.0 * np.linalg.norm(points[:, :k2], axis=-1) <= atol


def vertical_space(spec: ActionSpec, m, tol: float = DEFAULT_TOL) -> Subspace:
    """V(m) = span of the fundamental vector fields at m."""
    m = _as_points(spec, m, (1,))
    if _circle_fixes(spec, m[None], _tolerance(m[None], tol))[0]:
        return Subspace.zero(spec.n, tol)
    return span([spec.circle.generator() @ m], ambient_dim=spec.n, tol=tol)


class IsotropyDescriptor(_Record):
    """The subgroup G_m: a circle flag plus finite components (f, theta).

    ``continuous_circle`` is true when the whole circle factor fixes the
    point (vacuously true when there is none); then each pair carries angle
    0 and stands for the component {f} x S^1.
    """

    continuous_circle: bool
    pairs: tuple

    def __init__(self, continuous_circle, pairs) -> None:
        pairs = tuple(sorted((int(i), float(t)) for i, t in pairs))
        _set(self, "continuous_circle", continuous_circle)
        _set(self, "pairs", pairs)
        _set(self, "_hash", hash((continuous_circle, pairs)))  # hashed at each of its points

    def __hash__(self) -> int:
        return self._hash

    @property
    def component_count(self) -> int:
        return len(self.pairs)

    def matrices(self, spec: ActionSpec) -> list:
        return list(_group_matrices(spec, [i for i, _ in self.pairs], [t for _, t in self.pairs]))

    def same_as(self, other: "IsotropyDescriptor") -> bool:
        if self.continuous_circle != other.continuous_circle:
            return False
        if len(self.pairs) != len(other.pairs):
            return False
        for (i, t), (j, u) in zip(self.pairs, other.pairs):
            if i != j or _angle_distance(t, u) > ANGLE_TOL:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "continuous_circle": self.continuous_circle,
            "pairs": [[i, t] for i, t in self.pairs],
        }


def _angle_distance(a, b):
    """Distance of angles on the circle, elementwise on arrays."""
    d = abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _as_points(spec: ActionSpec, m, ndims: tuple) -> np.ndarray:
    """``m`` as floats, of shape (n,) or (N, n) as ``ndims`` allows."""
    points = np.asarray(m, dtype=float)
    if points.ndim not in ndims or points.shape[-1] != spec.n:
        expected = f"(N, {spec.n})" if 2 in ndims else f"({spec.n},)"
        raise ValueError(f"points of shape {points.shape}, expected {expected}")
    return points


def _group_matrices(spec: ActionSpec, idx, theta) -> np.ndarray:
    """f R(theta) for each finite element index of ``idx`` and angle of
    ``theta``, as (len(idx), n, n): the matrices of isotropy pairs."""
    f = np.stack(spec.finite.elements)[idx]
    return f if spec.circle is None else f @ spec.circle.rotation(theta)


def _act(matrices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """g m for each matrix g of ``matrices`` (..., n, n) and point m of
    ``points`` (..., n), over their broadcast stack: isotropy's one rule for
    g m.  The products are summed over the columns in order, so a point's
    values do not depend on the rest of the stack."""
    out = np.zeros(np.broadcast_shapes(matrices.shape[:-1], points.shape))
    for j in range(matrices.shape[-1]):
        out += points[..., j, None] * matrices[..., j]
    return out


def _circle_isotropies(spec: ActionSpec, points: np.ndarray, atol, guard, tol: float) -> list:
    """For each point m of a stack (N, n) that the circle does not fix, the
    pairs (f, theta) with f R(theta) m = m, or the message of its
    AmbiguousIsotropyError; ``atol`` and ``guard`` are per point.

    The candidates come from the rotation block j* of m above the guard band
    with the largest |w_j| |m_j| (the first of equal ones), the block that
    pins theta the most: for each element f, the |w*| angles theta_k = (psi
    + 2 pi k) / w* that turn that block of m onto that of f^T m.  Any theta
    at which f R(theta) moves m by at most the guard band lies close to one
    of them.  Each candidate is decided in the frame of f^T m, where f
    R(theta) m - m = f p with p = R(theta) m - f^T m, and f R(theta + h) m -
    m = f (p + h q) + O(h^2) with q = A R(theta) m.  A candidate with |p| <=
    atol is a component.  Otherwise, if the distance of p from the line
    through q is at most the guard band (f moves m by at most the band at
    some angle near theta, to first order in the angle), the point is a
    skip: the first such candidate in element order, then candidate order.
    A point with no block above the band is a skip.  p and q are built block
    by block, with no matrix; f^T m comes from :func:`_act` and the angles
    from math's atan2 (numpy's rounds some differently), so a point's
    arithmetic does not depend on its stack."""
    circle, elements = spec.circle, np.stack(spec.finite.elements)
    weights = np.array(circle.weights)
    k2 = 2 * len(weights)
    norms = np.hypot(points[:, 0:k2:2], points[:, 1:k2:2])  # (N, blocks)
    above = norms > guard[:, None]
    rotating = above.any(axis=1)
    block = np.where(above, np.abs(weights) * norms, -1.0).argmax(axis=1)
    targets = _act(np.swapaxes(elements, -1, -2), points[:, None])  # f^T m
    gap = np.linalg.norm(targets[..., k2:] - points[:, None, k2:], axis=-1)  # fixed coordinates
    at, idx = np.nonzero(rotating[:, None] & (gap <= guard[:, None]))  # the pairs, point-major
    source, target = points[at], targets[at, idx]
    columns = 2 * block[at, None] + np.arange(2)  # each pair's block: of f^T m, then of m
    blocks = np.stack([np.take_along_axis(v, columns, 1) for v in (target, source)])
    angles = map(math.atan2, blocks[..., 1].ravel().tolist(), blocks[..., 0].ravel().tolist())
    psi = np.subtract(*np.array(list(angles)).reshape(2, len(at)))

    w = weights[block[at]]
    counts = np.abs(w)
    owner = np.repeat(np.arange(len(at)), counts)  # grouped by pair, k ascending
    k = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    theta = ((psi[owner] + TWO_PI * k) / w[owner]) % TWO_PI

    # p and q block by block.  R(theta_k) turns block j by w_j psi / w*, then
    # by 2 pi k w_j / w*, the column k of one table per block j* that lists
    # candidates.
    def spread(v):  # from the pairs to their candidates, along the last axis
        return np.repeat(v, counts, axis=-1)

    turns = [np.arange(abs(v)) * np.sign(v) * weights[:, None] % abs(v) / abs(v) for v in weights]
    table = TWO_PI * np.concatenate(turns, axis=1)  # (blocks, sum |w|)
    column = spread((np.cumsum(np.abs(weights)) - np.abs(weights))[block[at]]) + k
    cos, sin = np.take(np.cos(table), column, axis=1), np.take(np.sin(table), column, axis=1)
    turn, x, y = weights[:, None] * (psi / w), source[:, 0:k2:2].T, source[:, 1:k2:2].T
    x, y = spread(x * np.cos(turn) - y * np.sin(turn)), spread(x * np.sin(turn) + y * np.cos(turn))
    x, y = x * cos - y * sin, x * sin + y * cos  # (blocks, candidates)
    px, py = x - spread(target[:, 0:k2:2].T), y - spread(target[:, 1:k2:2].T)
    qx, qy = -weights[:, None] * y, weights[:, None] * x
    fixed = spread(gap[at, idx] ** 2)
    moved = (px * px + py * py).sum(axis=0) + fixed  # |p|^2
    slope = (px * qx + py * qy).sum(axis=0) / (qx * qx + qy * qy).sum(axis=0)
    off = ((px - slope * qx) ** 2 + (py - slope * qy) ** 2).sum(axis=0) + fixed
    fixes = moved <= spread(atol[at] ** 2)
    inside = ~fixes & (off <= spread(guard[at] ** 2))
    snapped = np.where(_angle_distance(theta[fixes], 0.0) <= max(tol, 1e-12), 0.0, theta[fixes])

    small = "the rotating part of the point lies inside the guard band"
    out = [[] if r else small for r in rotating.tolist()]
    at_list, idx_list = at.tolist(), idx.tolist()
    for o, t in zip(owner[fixes].tolist(), snapped.tolist()):
        out[at_list[o]].append((idx_list[o], t))
    bad = owner[inside]
    failed, first = np.unique(at[bad], return_index=True)
    for p, o, t in zip(failed.tolist(), bad[first].tolist(), theta[inside][first].tolist()):
        candidate = f"element {idx_list[o]} with angle {t:.6f}"
        out[p] = f"{candidate} fixes the point only inside the guard band"
    return out


def _isotropies(spec: ActionSpec, points: np.ndarray, tol: float) -> list:
    """The descriptor, or the AmbiguousIsotropyError, of each point of a stack
    (N, n), in array passes over points x elements.  Where the circle fixes a
    point, theta is free and an element belongs iff it fixes the point by
    itself; elsewhere :func:`_circle_isotropies` tries candidate angles.  A
    point's error is the first one in element order.  Points with one outcome
    share one descriptor."""
    atol = _tolerance(points, tol)
    guard = 1000.0 * atol
    continuous = _circle_fixes(spec, points, atol)
    elements = np.stack(spec.finite.elements)
    outcomes: list = [None] * len(points)  # (continuous, pairs), or an error message

    rows = np.flatnonzero(continuous)
    residual = np.linalg.norm(_act(elements, points[rows, None]) - points[rows, None], axis=-1)
    belongs = residual <= atol[rows, None]
    inside = ~belongs & (residual <= guard[rows, None])
    first = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    for p, member, idx in zip(rows.tolist(), belongs, first.tolist()):
        outcomes[p] = (
            f"finite element {idx} fixes the point only inside the guard band"
            if idx >= 0
            else (True, tuple((i, 0.0) for i in np.flatnonzero(member).tolist()))
        )

    rows = np.flatnonzero(~continuous)
    if rows.size:
        # A point has up to (elements x |w|) candidate angles, each held as
        # about 16 floats per rotation block at once: solve the points in
        # passes of at most _PASS_FLOATS floats of those.
        weights = spec.circle.weights
        per_point = 16 * len(weights) * len(elements) * max(abs(w) for w in weights)
        step = max(1, _PASS_FLOATS // per_point)
        for start in range(0, len(rows), step):
            part = rows[start : start + step]
            solved = _circle_isotropies(spec, points[part], atol[part], guard[part], tol)
            for p, pairs in zip(part.tolist(), solved):
                outcomes[p] = pairs if isinstance(pairs, str) else (False, tuple(pairs))
    shared: dict = {}  # one descriptor per distinct outcome
    for o in outcomes:
        if not isinstance(o, str) and o not in shared:
            shared[o] = IsotropyDescriptor(*o)
    return [AmbiguousIsotropyError(o) if isinstance(o, str) else shared[o] for o in outcomes]


def isotropy(spec: ActionSpec, m, tol: float = DEFAULT_TOL):
    """The isotropy subgroup of m: the group elements g with |g m - m| within
    the tolerance.

    A point that some element moves by a residual inside the guard band
    raises AmbiguousIsotropyError instead of being silently classified.  A
    stack of points (N, n) gives, per point in order, its descriptor or the
    AmbiguousIsotropyError it would raise, all solved in one pass of array
    operations (:func:`_isotropies`); one point is a stack of one, and a
    point's outcome does not depend on the rest of its stack.  Any shape but
    (n,) or (N, n) raises ValueError.
    """
    points = _as_points(spec, m, (1, 2))
    if points.ndim == 2:
        return _isotropies(spec, points, tol)
    h = _isotropies(spec, points[None], tol)[0]
    if isinstance(h, AmbiguousIsotropyError):
        raise h
    return h


def average_projector(h: IsotropyDescriptor, spec: ActionSpec) -> np.ndarray:
    """Mean of the isotropy-subgroup matrices: the orthogonal projector onto
    the fixed subspace.  The circle factor, when entirely contained, is
    averaged in closed form (rotation blocks to zero, fixed block intact)."""
    n = spec.n
    if h.continuous_circle and spec.circle is not None:
        k2 = 2 * len(spec.circle.weights)
        circle_mean = np.zeros((n, n))
        circle_mean[k2:, k2:] = np.eye(spec.circle.fixed_dim)
        mats = [spec.finite.elements[i] @ circle_mean for i, _ in h.pairs]
    else:
        mats = h.matrices(spec)
    return sum(mats) / len(mats)


def fixed_subspace(h: IsotropyDescriptor, spec: ActionSpec, tol: float = DEFAULT_TOL) -> Subspace:
    """Fix(H) = image of the averaging projector."""
    _, s, vh = np.linalg.svd(average_projector(h, spec))
    return Subspace(spec.n, vh[s > 0.5], tol)


# -- Haar averaging of polynomial objects -----------------------------------


def quadrature_nodes_required(circle: CircleFactor, degree: int) -> int:
    """Smallest N for which N-node quadrature of a degree-d field or form is
    exact: pushed through the circle, its coefficients are trigonometric
    polynomials of degree max|w| * (d+1), one factor coming from the frame,
    and uniform N-node quadrature is exact up to trigonometric degree N - 1.
    """
    w = max(abs(x) for x in circle.weights)
    return w * (degree + 1) + 1


def default_quadrature_nodes(circle: CircleFactor, degree: int) -> int:
    w = max(abs(x) for x in circle.weights)
    base = max(2 * (w * degree + 1), quadrature_nodes_required(circle, degree))
    return base if base % 2 == 0 else base + 1


def _circle_node_count(circle: CircleFactor, degree: int, nodes: int | None) -> int:
    needed = quadrature_nodes_required(circle, degree)
    n_nodes = default_quadrature_nodes(circle, degree) if nodes is None else int(nodes)
    if n_nodes < 1:
        raise ValueError("quadrature node count must be positive")
    if n_nodes < needed:
        warnings.warn(
            f"{n_nodes} quadrature nodes cannot integrate trigonometric degree "
            f"{needed - 1} exactly; use at least {needed}",
            ExactnessWarning,
            stacklevel=3,
        )
    return n_nodes


def _gmul(g, h):
    """The product of two Gaussian rationals, each a ``(re, im)`` pair."""
    return (g[0] * h[0] - g[1] * h[1], g[0] * h[1] + g[1] * h[0])


def _gadd(g, h):
    return (g[0] + h[0], g[1] + h[1])


def _substitute_pair(terms: dict, ix: int, iy: int, x_image, y_image) -> dict:
    """``terms``, a ``{exponents: (re, im)}`` polynomial, with x -> a u + b v
    and y -> c u + d v, where x and y are the variables ``ix`` and ``iy``, u
    and v take their slots, and ``x_image`` = (a, b) and ``y_image`` = (c, d)
    are Gaussian rationals."""
    out: dict = {}
    for exps, coeff in terms.items():
        expanded = {0: coeff}  # u exponent -> coefficient, one linear factor at a time
        for (a, b), power in ((x_image, exps[ix]), (y_image, exps[iy])):
            for _ in range(power):
                step: dict = {}
                for k, g in expanded.items():
                    for key, h in ((k + 1, a), (k, b)):
                        step[key] = _gadd(step.get(key, (0, 0)), _gmul(g, h))
                expanded = step
        for k, g in expanded.items():
            e = list(exps)
            e[ix], e[iy] = k, exps[ix] + exps[iy] - k
            out[tuple(e)] = _gadd(out.get(tuple(e), (0, 0)), g)
    return out


_HALF = Fraction(1, 2)
# x, y -> (z + zbar)/2, (z - zbar)/2i, with z in the x slot and zbar in the
# y slot; and back, z, zbar -> x + iy, x - iy
_TO_COMPLEX = (((_HALF, 0), (_HALF, 0)), ((0, -_HALF), (0, _HALF)))
_FROM_COMPLEX = (((1, 0), (0, 1)), ((1, 0), (0, -1)))


def _circle_quadrature_poly(f: Poly, pairs, n_nodes: int) -> Poly:
    """Uniform N-node circle quadrature of ``f``, evaluated exactly.

    ``pairs`` lists ``(ix, iy, weight)`` for each coordinate pair the circle
    rotates.  In complex coordinates z = x + iy the node substitutions become
    harmonic factors e^{i k theta_r}, and the uniform node average of e^{i k
    theta} is 1 when N divides k and 0 otherwise, so the quadrature sum can
    be carried out without floating-point nodes.
    """
    terms = {exps: (c, 0) for exps, c in f.terms}
    for ix, iy, _w in pairs:
        terms = _substitute_pair(terms, ix, iy, *_TO_COMPLEX)
    # z^a zbar^b picks up e^{i w (a - b) theta} at each node; only exponents
    # aliased to zero survive the average.
    terms = {
        exps: coeff
        for exps, coeff in terms.items()
        if sum(w * (exps[ix] - exps[iy]) for ix, iy, w in pairs) % n_nodes == 0
    }
    for ix, iy, _w in pairs:
        terms = _substitute_pair(terms, ix, iy, *_FROM_COMPLEX)
    if any(im for _, im in terms.values()):
        raise RuntimeError("circle average of a real polynomial has an imaginary part")
    return _from_dict(f.n_vars, {exps: re for exps, (re, _) in terms.items()})


def _circle_quadrature_components(components, circle: CircleFactor, n_nodes: int):
    """Exact circle quadrature of a field-like tuple of component polynomials.

    The components are bundled as sum_i comp_i * xi_i on a doubled variable
    set; the frame variables xi rotate with the same weights as the base
    pairs, which reproduces the orthogonal pushforward componentwise.
    """
    n = len(components)
    bundled: dict = {}
    for i, p in enumerate(components):
        frame = _unit(i, n)
        for exps, c in p.terms:
            bundled[exps + frame] = c
    pairs = [(s + 2 * j, s + 2 * j + 1, w) for s in (0, n) for j, w in enumerate(circle.weights)]
    avg = _circle_quadrature_poly(_from_dict(2 * n, bundled), pairs, n_nodes)
    out: list = [{} for _ in range(n)]
    for exps, c in avg.terms:
        frame = exps[n:]
        if sum(frame) != 1:
            raise RuntimeError("circle average changed the degree in the frame variables")
        out[frame.index(1)][exps[:n]] = c
    return tuple(_from_dict(n, d) for d in out)


def haar_average_section(
    s: PolySection, spec: ActionSpec, nodes: int | None = None
) -> PolySection:
    """The G-invariant average of a section of TM + T*M: the mean of its
    push-forwards g^T s(g x) over the finite elements, then the exact circle
    quadrature of both parts, with the node count of the highest degree of ``s``.
    """
    total = PolySection(PolyVectorField.zero(spec.n), PolyOneForm.zero(spec.n))
    for g in spec.finite.elements:
        total = total + pushforward_section(g, s)
    mean = total * Fraction(1, spec.finite.order)
    if spec.circle is None:
        return mean
    degree = max(s.tangent.degree(), s.covector.degree())
    n_nodes = _circle_node_count(spec.circle, degree, nodes)
    tangent, covector = (
        _circle_quadrature_components(part.components, spec.circle, n_nodes)
        for part in (mean.tangent, mean.covector)
    )
    return PolySection(PolyVectorField(tangent), PolyOneForm(covector))
