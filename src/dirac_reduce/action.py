"""Compact linear symmetry: a finite orthogonal group times one weighted circle.

The group G = F x S^1 acts on R^n by orthogonal matrices, the circle in
standard block form (2x2 rotation blocks with integer weights, identity on
the remaining coordinates).  This module computes isotropy subgroups
exactly, averaging projectors and fixed subspaces, the vertical space V(m),
and Haar averages of polynomial sections.  The subspaces the reduction
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
    violations = []
    elements = spec.finite.elements
    n = spec.n
    eye = np.eye(n)

    def closest(m):
        return min(float(np.max(np.abs(m - e))) for e in elements)

    for i, e in enumerate(elements):
        if np.max(np.abs(e.T @ e - eye)) > tol:
            violations.append(f"element {i} is not orthogonal at tolerance {tol}")
    if closest(eye) > tol:
        violations.append("identity matrix missing from the finite group")
    for i, e in enumerate(elements):
        for j, f in enumerate(elements):
            if closest(e @ f) > tol:
                violations.append(
                    f"closure failure: product of elements {i} and {j} is missing"
                )
        if closest(e.T) > tol:
            violations.append(f"inverse of element {i} is missing")
        for j in range(i + 1, len(elements)):
            if np.max(np.abs(e - elements[j])) <= tol:
                violations.append(f"duplicate elements: {i} and {j} coincide")
    if spec.circle is not None:
        a = spec.circle.generator()
        scale = max(1.0, float(np.max(np.abs(a))))
        for i, e in enumerate(elements):
            if np.max(np.abs(e @ a - a @ e)) > tol * scale:
                violations.append(
                    f"element {i} does not commute with the circle generator"
                )
    if violations:
        raise ActionValidationError("; ".join(violations))
    return spec


def _circle_fixes(spec: ActionSpec, m: np.ndarray, tol: float) -> bool:
    """Whether the whole circle fixes m, |A m| <= tol |m| (vacuously true with
    no circle): the one test by which isotropy puts the circle in G_m and
    vertical_space sets V(m) = 0, so that V(m) = 0 exactly there."""
    if spec.circle is None:
        return True
    return float(np.linalg.norm(spec.circle.generator() @ m)) <= tol * float(np.linalg.norm(m))


def vertical_space(spec: ActionSpec, m, tol: float = DEFAULT_TOL) -> Subspace:
    """V(m) = span of the fundamental vector fields at m."""
    m = _as_point(spec, m)
    if _circle_fixes(spec, m, tol):
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


def _angle_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _as_point(spec: ActionSpec, m) -> np.ndarray:
    m = np.asarray(m, dtype=float).reshape(-1)
    if m.shape != (spec.n,):
        raise ValueError(f"point of length {m.shape[0]}, expected {spec.n}")
    return m


def _candidate_angles(source, target, weight, atol, guard):
    """Angles theta with R(weight*theta) source = target on one 2-d block.

    Returns None for "unconstrained" (both vectors vanish), a list of
    candidate angles, or raises on ambiguity.
    """
    ns = float(np.hypot(*source))
    nt = float(np.hypot(*target))
    if ns <= atol and nt <= atol:
        return None
    if min(ns, nt) <= guard:
        if min(ns, nt) <= atol and max(ns, nt) > guard:
            return []  # one side is zero, the other is definitely not
        raise AmbiguousIsotropyError(
            "a rotation block has magnitude inside the guard band"
        )
    if abs(ns - nt) > guard:
        return []
    if abs(ns - nt) > atol:
        raise AmbiguousIsotropyError(
            "rotation-block magnitudes match only inside the guard band"
        )
    psi = math.atan2(target[1], target[0]) - math.atan2(source[1], source[0])
    return [((psi + TWO_PI * r) / weight) % TWO_PI for r in range(abs(int(weight)))]


def isotropy(spec: ActionSpec, m, tol: float = DEFAULT_TOL) -> IsotropyDescriptor:
    """The isotropy subgroup of m, solved exactly per weight block.

    Points whose classification depends on sub-guard-band distinctions
    raise AmbiguousIsotropyError instead of being silently classified.
    """
    m = _as_point(spec, m)
    norm_m = float(np.linalg.norm(m))
    atol = tol * max(norm_m, 1.0)
    guard = 1000.0 * atol
    angle_atol = max(tol, 1e-12)
    angle_guard = 1000.0 * angle_atol

    circle = spec.circle
    continuous = _circle_fixes(spec, m, tol)

    pairs = []
    for idx, f in enumerate(spec.finite.elements):
        if circle is None or continuous:
            # theta is unconstrained; f belongs iff it fixes m by itself
            residual = float(np.max(np.abs(f @ m - m)))
            if residual <= atol:
                pairs.append((idx, 0.0))
            elif residual <= guard:
                raise AmbiguousIsotropyError(
                    f"finite element {idx} fixes the point only inside the guard band"
                )
            continue

        target = f.T @ m
        k = len(circle.weights)
        fixed_diff = (
            float(np.max(np.abs(target[2 * k :] - m[2 * k :])))
            if circle.fixed_dim
            else 0.0
        )
        if fixed_diff > guard:
            continue
        if fixed_diff > atol:
            raise AmbiguousIsotropyError(
                f"fixed coordinates under element {idx} match only inside the guard band"
            )

        candidates = None  # None = every angle admissible so far
        dead = False
        for j, w in enumerate(circle.weights):
            block = _candidate_angles(
                m[2 * j : 2 * j + 2], target[2 * j : 2 * j + 2], w, atol, guard
            )
            if block is None:
                continue
            if not block:
                dead = True
                break
            if candidates is None:
                candidates = block
                continue
            merged = []
            for t in candidates:
                best = min(_angle_distance(t, u) for u in block)
                if best <= angle_atol:
                    merged.append(t)
                elif best <= angle_guard:
                    raise AmbiguousIsotropyError(
                        "candidate angles of two blocks agree only inside the guard band"
                    )
            candidates = merged
            if not candidates:
                dead = True
                break
        if dead:
            continue
        if candidates is None:
            # not continuous, yet no block constrained the angle: the point is
            # too close to the circle-fixed set to classify
            raise AmbiguousIsotropyError(
                "every rotation block is below tolerance while the vertical "
                "direction is not"
            )
        for theta in candidates:
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
    return IsotropyDescriptor(continuous_circle=continuous, pairs=tuple(pairs))


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
