"""Shared builders for the test suite: random algebra objects and the
group actions used across modules."""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from dirac_reduce import (
    ActionSpec,
    CircleFactor,
    FiniteGroupRep,
    LinearDirac,
    Subspace,
    fixed_subspace,
    from_bivector,
    from_distribution,
    from_two_form,
    isotropy,
    span,
    transform,
    validate_action,
)
from dirac_reduce.action import (
    TWO_PI,
    AmbiguousIsotropyError,
    IsotropyDescriptor,
    _angle_distance,
    _circle_fixes,
)
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import (
    PolyOneForm,
    PolySection,
    PolyVectorField,
    SectionsSpec,
    courant_bracket,
    dorfman_bracket,
    evaluate_fibers,
    evaluate_polys,
    generating_sections,
)
from dirac_reduce.reduction import _action_rows
from dirac_reduce.subspace import DEFAULT_TOL


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        g = rng.standard_normal((n, n))
        s = np.linalg.svd(g, compute_uv=False)
        if s[-1] > 0.1:
            return g


def random_antisymmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a - a.T


def random_subspace(rng: np.random.Generator, ambient: int, dim: int) -> Subspace:
    return span(rng.standard_normal((dim, ambient)), ambient_dim=ambient)


def random_lagrangian(rng: np.random.Generator, n: int) -> LinearDirac:
    """Graph of a random bivector, two-form, or distribution, then a random
    invertible point transform to mix the tangent and covector legs."""
    kind = rng.integers(3)
    if kind == 0:
        d = from_bivector(random_antisymmetric(rng, n))
    elif kind == 1:
        d = from_two_form(random_antisymmetric(rng, n))
    else:
        d = from_distribution(random_subspace(rng, n, int(rng.integers(n + 1))))
    return transform(random_invertible(rng, n), d)


def random_fraction(rng: np.random.Generator) -> Fraction:
    return Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))


def random_poly(rng: np.random.Generator, n_vars: int, degree: int, terms: int = 4) -> Poly:
    out = Poly.zero(n_vars)
    for _ in range(terms):
        exponents = [0] * n_vars
        budget = int(rng.integers(degree + 1))
        for _ in range(budget):
            exponents[int(rng.integers(n_vars))] += 1
        out = out + Poly(n_vars, {tuple(exponents): random_fraction(rng)})
    return out


def random_section(rng: np.random.Generator, n_vars: int, degree: int) -> PolySection:
    return PolySection(
        PolyVectorField(tuple(random_poly(rng, n_vars, degree) for _ in range(n_vars))),
        PolyOneForm(tuple(random_poly(rng, n_vars, degree) for _ in range(n_vars))),
    )


def vanishing_sections() -> SectionsSpec:
    """The sections x ∂x and x ∂y on R^2: the fiber is TM wherever x != 0,
    and the sections span nothing on the line x = 0."""
    x, zero = parse_poly("x", 2), Poly.zero(2)
    return SectionsSpec(
        (
            PolySection(PolyVectorField((x, zero)), PolyOneForm.zero(2)),
            PolySection(PolyVectorField((zero, x)), PolyOneForm.zero(2)),
        ),
        basepoint=(1.0, 0.0),
    )


def poly_values(polys, point) -> np.ndarray:
    """Each of ``polys`` at one point, one Poly.evaluate call each."""
    point = list(point)
    return np.array([float(p.evaluate(point)) for p in polys])


def section_polys(section: PolySection) -> tuple:
    """The tangent components of ``section``, then its covector components."""
    return section.tangent.components + section.covector.components


# -- references for the hypothesis checks --------------------------------------


def sampled_membership(spec, derived, points, tol: float) -> bool:
    """Whether every section of ``derived`` lies in the fiber D(m) at every
    point where D(m) is Dirac (the others are skipped): the defect of its
    value (by evaluate_polys) from the fiber's projector is at most ``tol``
    times max(1, |value|)."""
    points = np.asarray(points, dtype=float)
    fibers = evaluate_fibers(spec, points, tol)
    polys = [c for section in derived for c in section_polys(section)]
    values = evaluate_polys(polys, points).T.reshape(len(points), len(derived), -1)
    for basis, error, rows in zip(fibers.bases, fibers.errors, values):
        if error is None:
            defect = np.linalg.norm(rows - rows @ basis.T @ basis, axis=-1)
            if (defect > tol * np.maximum(1.0, np.linalg.norm(rows, axis=-1))).any():
                return False
    return True


def _lie_derivatives(sections, action) -> list:
    """L_xi s for xi = A x: the Dorfman bracket [(xi, 0), s]."""
    xi = PolySection(PolyVectorField.from_linear(action.circle.generator()), PolyOneForm.zero(action.n))
    return [dorfman_bracket(xi, s) for s in sections]


def sampled_verdicts(spec, action, points, tol: float) -> tuple:
    """(integrability ok, invariance ok) by sampled membership: the Courant
    bracket of every pair of generating sections, and the Lie derivative of
    each along the circle, in D(m) at each point."""
    sections = generating_sections(spec)
    brackets = [courant_bracket(a, b) for i, a in enumerate(sections) for b in sections[i + 1 :]]
    return (
        sampled_membership(spec, brackets, points, tol),
        sampled_membership(spec, _lie_derivatives(sections, action), points, tol),
    )


def _pairing(a: PolySection, b: PolySection):
    return sum(
        (p * q for p, q in zip(section_polys(a), b.covector.components + b.tangent.components)),
        Poly.zero(a.base_dim),
    )


def generic_verdicts(sections, action) -> tuple:
    """(integrability ok, invariance ok) by the identities on ``sections``
    spanning D on a dense set: every <s_i, s_j> and every <[s_i, s_j], s_k>,
    with the Dorfman bracket and all i, j, k, vanish; and every
    <L_xi s_i, s_k> vanishes."""
    pairings = [_pairing(a, b) for a in sections for b in sections]
    tensor = [_pairing(dorfman_bracket(a, b), c) for a in sections for b in sections for c in sections]
    moved = [_pairing(d, s) for d in _lie_derivatives(sections, action) for s in sections]
    return (
        all(p.is_zero() for p in pairings + tensor),
        all(p.is_zero() for p in moved),
    )


# -- actions used in many tests ---------------------------------------------


def z2_reflection_action() -> ActionSpec:
    return validate_action(
        ActionSpec(2, FiniteGroupRep((np.eye(2), np.diag([1.0, -1.0]))))
    )


def d4_action() -> ActionSpec:
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    refl = np.diag([1.0, -1.0])
    powers = [np.linalg.matrix_power(rot, k) for k in range(4)]
    return validate_action(
        ActionSpec(2, FiniteGroupRep(tuple(powers) + tuple(p @ refl for p in powers)))
    )


def circle_action(weights=(1,), fixed_dim: int = 0) -> ActionSpec:
    c = CircleFactor(tuple(weights), fixed_dim)
    return validate_action(ActionSpec(c.n, FiniteGroupRep.trivial(c.n), c))


def product_action_r3() -> ActionSpec:
    return validate_action(
        ActionSpec(
            3,
            FiniteGroupRep((np.eye(3), np.diag([1.0, 1.0, -1.0]))),
            CircleFactor((1,), fixed_dim=1),
        )
    )


def action_geometry(act: ActionSpec, m, tol: float = DEFAULT_TOL) -> SimpleNamespace:
    """The action side of the reduction at m, a stack of one: its isotropy
    ``descriptor``, ``fix`` = Fix(G_m), ``phi``, and each other stacked row set
    as the Subspace it spans at m (``v_g_ann`` is the quotient)."""
    m = np.asarray(m, dtype=float)
    h = isotropy(act, m, tol)
    fix = fixed_subspace(h, act, tol)
    rows = _action_rows(act, {h: fix}, [0], m[None], tol)
    spaces = {k: Subspace(v.shape[-1], v[0], tol) for k, v in rows.items()}
    spaces.update(descriptor=h, fix=fix, phi=rows["phi"][0], v_g_ann=spaces["quotient"])
    return SimpleNamespace(**spaces)


def assert_subspace_close(a: Subspace, b: Subspace, tol: float = 1e-9) -> None:
    assert a.ambient_dim == b.ambient_dim
    d = a.distance(b)
    assert d <= tol, f"subspace distance {d} exceeds {tol}"


# -- the per-pair isotropy solver: the reference for action.isotropy ---------
#
# Each (point, element) pair whose fixed coordinates match is solved on its
# own: candidate angles per rotation block, merged block by block, then one
# residual per surviving angle.


def _product(g, m):
    """g m for matrices g (..., n, n) and points m (..., n), by isotropy's
    rule: the products summed over the columns in order, from 0."""
    return sum((g[..., j] * m[..., j, None] for j in range(m.shape[-1])), np.zeros(1))


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
    block norms of m and f^T m); raises on ambiguity.  Every product g m is
    :func:`_product` of the one matrix g and the point."""
    circle = spec.circle
    f = spec.finite.elements[idx]
    target = _product(f.T, m)
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
        residual = float(np.max(np.abs(_product(f @ circle.rotation(theta), m) - m)))
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


def reference_isotropies(spec: ActionSpec, points: np.ndarray, tol: float) -> list:
    """The reference for ``isotropy`` on a stack: the descriptor, or the
    AmbiguousIsotropyError, of each point of a stack (N, n).  Residuals,
    fixed-coordinate differences and block norms are arrays over points x
    elements; the pairs whose fixed coordinates match go on to candidate
    angles one by one.  A point's error is the first one in element order."""
    atol = tol * np.maximum(np.linalg.norm(points, axis=-1), 1.0)
    guard = 1000.0 * atol
    continuous = _circle_fixes(spec, points, tol)
    elements = np.stack(spec.finite.elements)
    out: list = [None] * len(points)

    # theta is unconstrained; f belongs iff it fixes m by itself
    rows = np.flatnonzero(continuous)
    residual = np.abs(_product(elements, points[rows, None]) - points[rows, None]).max(axis=-1)
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
    targets = _product(np.swapaxes(elements, -1, -2), moving[:, None])  # f^T m
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
