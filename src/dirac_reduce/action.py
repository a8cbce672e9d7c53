"""Compact linear symmetry: a finite orthogonal group times one weighted circle.

The group G = F x S^1 acts on R^n by orthogonal matrices, the circle in
standard block form (2x2 rotation blocks with integer weights, identity on
the remaining coordinates).  This module computes isotropy subgroups
exactly, averaging projectors and fixed subspaces, the vertical space V(m),
and Haar averages of polynomial sections.  Isotropy is decided for a stack of
points at once: the residuals, fixed-coordinate differences and block norms
of every (point, element) pair are arrays, and only the pairs whose fixed
coordinates match go on to candidate angles.  The subspaces the reduction
routes build from these are computed for a whole isotropy class at once in
:mod:`.reduction`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .poly import Poly, _from_dict
from .polyfield import (
    PolyOneForm,
    PolySection,
    PolyVectorField,
    _fraction_matrix,
    _pushforward_components,
)
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
MAX_WEIGHT = 1000  # largest |circle weight|: isotropy tries |w| angles per block and element


class ActionValidationError(ValueError):
    """The action data violate a group axiom at tolerance."""


class AmbiguousIsotropyError(ValueError):
    """Point too close to a stratum boundary to classify safely."""


class ExactnessWarning(UserWarning):
    """Quadrature node count below the exactness threshold."""


@dataclass(frozen=True, eq=False)
class FiniteGroupRep:
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
        object.__setattr__(self, "elements", tuple(mats))

    @property
    def n(self) -> int:
        return self.elements[0].shape[0]

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def trivial(cls, n: int) -> "FiniteGroupRep":
        return cls((np.eye(n),))


@dataclass(frozen=True)
class CircleFactor:
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
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "fixed_dim", int(self.fixed_dim))

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

    def rotation(self, theta: float) -> np.ndarray:
        r = np.eye(self.n)
        for j, w in enumerate(self.weights):
            c, s = math.cos(w * theta), math.sin(w * theta)
            r[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
        return r


@dataclass(frozen=True)
class ActionSpec:
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


def _circle_fixes(spec: ActionSpec, points: np.ndarray, tol: float) -> np.ndarray:
    """Whether the whole circle fixes each point of a stack (N, n), |A m| <=
    tol |m| (vacuously true with no circle): the one test by which isotropy
    puts the circle in G_m and vertical_space sets V(m) = 0, so that V(m) = 0
    exactly there."""
    if spec.circle is None:
        return np.ones(len(points), dtype=bool)
    moved = points @ spec.circle.generator().T
    return np.linalg.norm(moved, axis=-1) <= tol * np.linalg.norm(points, axis=-1)


def vertical_space(spec: ActionSpec, m, tol: float = DEFAULT_TOL) -> Subspace:
    """V(m) = span of the fundamental vector fields at m."""
    m = _as_point(spec, m)
    if _circle_fixes(spec, m[None], tol)[0]:
        return Subspace.zero(spec.n, tol)
    return span([spec.circle.generator() @ m], ambient_dim=spec.n, tol=tol)


@dataclass(frozen=True)
class IsotropyDescriptor:
    """The subgroup G_m: a circle flag plus finite components (f, theta).

    ``continuous_circle`` is true when the whole circle factor fixes the
    point (vacuously true when there is none); then each pair carries angle
    0 and stands for the component {f} x S^1.
    """

    continuous_circle: bool
    pairs: tuple

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pairs",
            tuple(sorted((int(i), float(t)) for i, t in self.pairs)),
        )

    @property
    def component_count(self) -> int:
        return len(self.pairs)

    def matrices(self, spec: ActionSpec) -> list:
        out = []
        for idx, theta in self.pairs:
            f = spec.finite.elements[idx]
            if spec.circle is None:
                out.append(f)
            else:
                out.append(f @ spec.circle.rotation(theta))
        return out

    def same_as(self, other: "IsotropyDescriptor") -> bool:
        if self.continuous_circle != other.continuous_circle:
            return False
        if len(self.pairs) != len(other.pairs):
            return False
        for (i, t), (j, u) in zip(self.pairs, other.pairs):
            if i != j or _angle_distance(t, u) > ANGLE_TOL:
                return False
        return True

    def label(self) -> str:
        circ = "S1" if self.continuous_circle else "-"
        return f"circle:{circ} components:{len(self.pairs)}"

    def to_dict(self) -> dict:
        return {
            "continuous_circle": self.continuous_circle,
            "pairs": [[i, t] for i, t in self.pairs],
        }


def _angle_distance(a, b):
    """Distance of angles on the circle, elementwise on arrays."""
    d = abs(a - b) % TWO_PI
    return np.minimum(d, TWO_PI - d)


def _as_point(spec: ActionSpec, m) -> np.ndarray:
    m = np.asarray(m, dtype=float).reshape(-1)
    if m.shape != (spec.n,):
        raise ValueError(f"point of length {m.shape[0]}, expected {spec.n}")
    return m


def _act(matrices: np.ndarray, points: np.ndarray) -> np.ndarray:
    """g m for each matrix g of ``matrices`` (G, n, n) and point m of
    ``points`` (N, n), as (N, G, n).  The products are summed over the columns
    in order, so a point's values do not depend on the rest of the stack."""
    out = np.zeros((len(points), len(matrices), matrices.shape[-2]))
    for j in range(matrices.shape[-1]):
        out += points[:, None, j, None] * matrices[:, :, j]
    return out


def _candidate_angles(source, target, ns, nt, weight, atol, guard):
    """Angles theta with R(weight*theta) source = target on one 2-d block,
    the two vectors having norms ``ns`` and ``nt``.

    Returns None for "unconstrained" (both vectors vanish), an array of
    candidate angles, or raises on ambiguity.
    """
    if ns <= atol and nt <= atol:
        return None
    if min(ns, nt) <= guard:
        if min(ns, nt) <= atol and max(ns, nt) > guard:
            return np.empty(0)  # one side is zero, the other is definitely not
        raise AmbiguousIsotropyError(
            "a rotation block has magnitude inside the guard band"
        )
    if abs(ns - nt) > guard:
        return np.empty(0)
    if abs(ns - nt) > atol:
        raise AmbiguousIsotropyError(
            "rotation-block magnitudes match only inside the guard band"
        )
    psi = math.atan2(target[1], target[0]) - math.atan2(source[1], source[0])
    return ((psi + TWO_PI * np.arange(abs(weight))) / weight) % TWO_PI


def _merge_angles(candidates: np.ndarray, block: np.ndarray, atol: float, guard: float):
    """The ``candidates`` within ``atol`` of an angle of ``block`` on the
    circle, in their order; raises if the nearest is farther than ``atol`` but
    within ``guard``.  The angle of the sorted block nearest a candidate is one
    of the two around its insertion point or one of the two ends (the circle
    wraps at 2 pi), so the merge is a binary search, not |c|*|b| distances."""
    u = np.sort(block)
    at = np.searchsorted(u, candidates)
    near = u[np.stack([at - 1, at % len(u), np.zeros_like(at), np.full_like(at, -1)])]
    best = _angle_distance(candidates, near).min(axis=0)
    if ((best > atol) & (best <= guard)).any():
        raise AmbiguousIsotropyError(
            "candidate angles of two blocks agree only inside the guard band"
        )
    return candidates[best <= atol]


def _circle_components(spec: ActionSpec, idx, m, ns, nt, atol, guard, tol) -> list:
    """The pairs (idx, theta) with f R(theta) m = m for the finite element f =
    ``idx``, whose fixed coordinates already match (``ns`` and ``nt`` the
    block norms of m and f^T m); raises on ambiguity.  The angles are read off
    f^T m taken as one matrix-vector product, as for a single point."""
    circle = spec.circle
    f = spec.finite.elements[idx]
    target = f.T @ m
    angle_atol = max(tol, 1e-12)
    angle_guard = 1000.0 * angle_atol
    candidates = None  # None = every angle admissible so far
    for j, w in enumerate(circle.weights):
        block = _candidate_angles(
            m[2 * j : 2 * j + 2], target[2 * j : 2 * j + 2], ns[j], nt[j], w, atol, guard
        )
        if block is None:
            continue
        if block.size and candidates is not None:
            block = _merge_angles(candidates, block, angle_atol, angle_guard)
        if not block.size:
            return []
        candidates = block
    if candidates is None:
        # not continuous, yet no block constrained the angle: the point is
        # too close to the circle-fixed set to classify
        raise AmbiguousIsotropyError(
            "every rotation block is below tolerance while the vertical "
            "direction is not"
        )
    pairs = []
    for theta in candidates.tolist():
        residual = float(np.max(np.abs(f @ circle.rotation(theta) @ m - m)))
        if residual <= atol:
            if _angle_distance(theta, 0.0) <= angle_atol:
                theta = 0.0
            pairs.append((idx, theta))
        elif residual <= guard:
            raise AmbiguousIsotropyError(
                f"element {idx} with angle {theta:.6f} fixes the point only "
                "inside the guard band"
            )
    return pairs


def _isotropies(spec: ActionSpec, points: np.ndarray, tol: float) -> list:
    """The descriptor, or the AmbiguousIsotropyError, of each point of a stack
    (N, n).  Residuals, fixed-coordinate differences and block norms are
    arrays over points x elements; the pairs whose fixed coordinates match go
    on to candidate angles one by one.  A point's error is the first one in
    element order."""
    atol = tol * np.maximum(np.linalg.norm(points, axis=-1), 1.0)
    guard = 1000.0 * atol
    continuous = _circle_fixes(spec, points, tol)
    elements = np.stack(spec.finite.elements)
    out: list = [None] * len(points)

    # theta is unconstrained; f belongs iff it fixes m by itself
    rows = np.flatnonzero(continuous)
    residual = np.abs(_act(elements, points[rows]) - points[rows, None]).max(axis=-1)
    belongs = residual <= atol[rows, None]
    inside = ~belongs & (residual <= guard[rows, None])
    first = np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
    for p, member, idx in zip(rows.tolist(), belongs, first.tolist()):
        out[p] = (
            AmbiguousIsotropyError(
                f"finite element {idx} fixes the point only inside the guard band"
            )
            if idx >= 0
            else IsotropyDescriptor(True, tuple((i, 0.0) for i in np.flatnonzero(member).tolist()))
        )

    rows = np.flatnonzero(~continuous)
    if not rows.size:
        return out
    k2 = 2 * len(spec.circle.weights)
    moving = points[rows]
    targets = _act(np.swapaxes(elements, -1, -2), moving)  # f^T m
    fixed_diff = np.abs(targets[..., k2:] - moving[:, None, k2:]).max(axis=-1, initial=0.0)
    source_norms = np.hypot(moving[:, 0:k2:2], moving[:, 1:k2:2]).tolist()
    target_norms = np.hypot(targets[..., 0:k2:2], targets[..., 1:k2:2])
    for r, p in enumerate(rows.tolist()):
        pairs = []
        try:
            for idx in np.flatnonzero(fixed_diff[r] <= guard[p]).tolist():
                if fixed_diff[r, idx] > atol[p]:
                    raise AmbiguousIsotropyError(
                        f"fixed coordinates under element {idx} match only inside the guard band"
                    )
                pairs += _circle_components(
                    spec, idx, moving[r], source_norms[r], target_norms[r, idx].tolist(),
                    atol[p], guard[p], tol,
                )
        except AmbiguousIsotropyError as exc:
            out[p] = exc
            continue
        out[p] = IsotropyDescriptor(False, tuple(pairs))
    return out


def isotropy(spec: ActionSpec, m, tol: float = DEFAULT_TOL):
    """The isotropy subgroup of m, solved exactly per weight block.

    Points whose classification depends on sub-guard-band distinctions
    raise AmbiguousIsotropyError instead of being silently classified.  A
    stack of points (N, n) gives, per point in order, its descriptor or the
    AmbiguousIsotropyError it would raise; one point is a stack of one.
    """
    points = np.asarray(m, dtype=float)
    if points.ndim == 2:
        if points.shape[1] != spec.n:
            raise ValueError(f"points of length {points.shape[1]}, expected {spec.n}")
        return _isotropies(spec, points, tol)
    h = _isotropies(spec, _as_point(spec, points)[None], tol)[0]
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


def quadrature_nodes_required(circle: CircleFactor, degree: int, kind: str = "field") -> int:
    """Smallest N for which N-node quadrature is exact.

    Pushing a degree-d object through the circle makes its coefficients
    trigonometric polynomials of degree max|w| * d (functions) or
    max|w| * (d+1) (fields/forms, one extra factor from the frame); uniform
    N-node quadrature is exact up to trigonometric degree N - 1.
    """
    w = max(abs(x) for x in circle.weights)
    if kind == "function":
        return w * degree + 1
    return w * (degree + 1) + 1


def default_quadrature_nodes(circle: CircleFactor, degree: int, kind: str = "field") -> int:
    w = max(abs(x) for x in circle.weights)
    base = max(2 * (w * degree + 1), quadrature_nodes_required(circle, degree, kind))
    return base if base % 2 == 0 else base + 1


def _times_i_power(g, k: int):
    """The Gaussian integer ``g`` (a ``(re, im)`` pair) times i**k."""
    re, im = g
    k %= 4
    if k == 0:
        return g
    if k == 1:
        return (-im, re)
    if k == 2:
        return (-re, -im)
    return (im, -re)


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
            stacklevel=4,
        )
    return n_nodes


def _circle_quadrature_poly(f: Poly, pairs, n_nodes: int) -> Poly:
    """Uniform N-node circle quadrature of ``f``, evaluated exactly.

    ``pairs`` lists ``(ix, iy, weight)`` for each coordinate pair the circle
    rotates.  In complex coordinates z = x + iy the node substitutions become
    harmonic factors e^{i k theta_r}, and the uniform node average of e^{i k
    theta} is 1 when N divides k and 0 otherwise, so the quadrature sum can
    be carried out without floating-point nodes.

    The change to z, zbar divides a term of degree d in the rotated
    coordinates by 2^d; every other step multiplies by integers and powers
    of i.  So the work is done on Gaussian-integer numerators over the one
    denominator lcm(denominators) * 2^top, top the largest such d, and the
    division happens once at the end.
    """
    if not f.terms:
        return f
    rotated = [i for ix, iy, _w in pairs for i in (ix, iy)]
    top = max(sum(m[i] for i in rotated) for m, _ in f.terms)
    lcm = math.lcm(*(c.denominator for _, c in f.terms))
    terms = {
        m: ((c.numerator * (lcm // c.denominator)) << (top - sum(m[i] for i in rotated)), 0)
        for m, c in f.terms
    }
    # Change of basis x^p y^q -> z^a zbar^b; the z exponent is stored in the
    # x slot and the zbar exponent in the y slot.
    for ix, iy, _w in pairs:
        expanded: dict = {}
        for exps, coeff in terms.items():
            p, q = exps[ix], exps[iy]
            base = _times_i_power(coeff, -q)
            for a in range(p + 1):
                for b in range(q + 1):
                    scale = math.comb(p, a) * math.comb(q, b) * (-1 if (q - b) & 1 else 1)
                    e = list(exps)
                    e[ix] = a + b
                    e[iy] = (p - a) + (q - b)
                    key = tuple(e)
                    acc = expanded.get(key)
                    if acc:
                        expanded[key] = (acc[0] + base[0] * scale, acc[1] + base[1] * scale)
                    else:
                        expanded[key] = (base[0] * scale, base[1] * scale)
        terms = expanded
    # z^a zbar^b picks up e^{i w (a - b) theta} at each node; only exponents
    # aliased to zero survive the average.
    terms = {
        exps: coeff
        for exps, coeff in terms.items()
        if sum(w * (exps[ix] - exps[iy]) for ix, iy, w in pairs) % n_nodes == 0
    }
    for ix, iy, _w in pairs:
        collapsed: dict = {}
        for exps, coeff in terms.items():
            a, b = exps[ix], exps[iy]
            for aa in range(a + 1):
                for bb in range(b + 1):
                    scale = math.comb(a, aa) * math.comb(b, bb)
                    g = _times_i_power(coeff, (a - aa) - (b - bb))
                    e = list(exps)
                    e[ix] = aa + bb
                    e[iy] = (a - aa) + (b - bb)
                    key = tuple(e)
                    acc = collapsed.get(key)
                    if acc:
                        collapsed[key] = (acc[0] + g[0] * scale, acc[1] + g[1] * scale)
                    else:
                        collapsed[key] = (g[0] * scale, g[1] * scale)
        terms = collapsed
    denominator = lcm << top
    real = {}
    for exps, (re, im) in terms.items():
        if im:
            raise RuntimeError("circle average of a real polynomial has an imaginary part")
        if re:
            real[exps] = Fraction(re, denominator)
    return _from_dict(f.n_vars, real)


def _base_pairs(circle: CircleFactor):
    return tuple((2 * j, 2 * j + 1, w) for j, w in enumerate(circle.weights))


def _circle_quadrature_components(components, circle: CircleFactor, n_nodes: int):
    """Exact circle quadrature of a field-like tuple of component polynomials.

    The components are bundled as sum_i comp_i * xi_i on a doubled variable
    set; the frame variables xi rotate with the same weights as the base
    pairs, which reproduces the orthogonal pushforward componentwise.
    """
    n = len(components)
    bundled: dict = {}
    for i, p in enumerate(components):
        frame = tuple(1 if t == i else 0 for t in range(n))
        for exps, c in p.terms:
            bundled[exps + frame] = c
    pairs = list(_base_pairs(circle))
    pairs += [(n + ix, n + iy, w) for ix, iy, w in _base_pairs(circle)]
    avg = _circle_quadrature_poly(_from_dict(2 * n, bundled), pairs, n_nodes)
    out: list = [{} for _ in range(n)]
    for exps, c in avg.terms:
        frame = exps[n:]
        if sum(frame) != 1:
            raise RuntimeError("circle average changed the degree in the frame variables")
        out[frame.index(1)][exps[:n]] = c
    return tuple(_from_dict(n, d) for d in out)


def _haar_average(groups, spec: ActionSpec, nodes: int | None) -> tuple:
    """The G-invariant average of each tuple of component polynomials, taken
    as the components of a vector field or one-form, g^T C(g x).  The node
    count follows the highest degree over all groups.
    """
    weight = Fraction(1, spec.finite.order)
    totals = [[Poly.zero(spec.n)] * len(comps) for comps in groups]
    for g in spec.finite.elements:
        rows = _fraction_matrix(g)
        for total, comps in zip(totals, groups):
            moved = _pushforward_components(rows, comps)
            total[:] = [a + b for a, b in zip(total, moved)]
    averaged = [tuple(c * weight for c in total) for total in totals]
    if spec.circle is None:
        return tuple(averaged)
    degree = max(c.degree() for comps in groups for c in comps)
    n_nodes = _circle_node_count(spec.circle, degree, nodes)
    return tuple(
        _circle_quadrature_components(comps, spec.circle, n_nodes) for comps in averaged
    )


def haar_average_section(
    s: PolySection, spec: ActionSpec, nodes: int | None = None
) -> PolySection:
    """The G-invariant average of a section of TM + T*M."""
    tangent, covector = _haar_average(
        (s.tangent.components, s.covector.components), spec, nodes
    )
    return PolySection(PolyVectorField(tangent), PolyOneForm(covector))
