"""Shared builders for the test suite: random algebra objects and the
group actions used across modules."""

from __future__ import annotations

from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from dirac_reduce import (
    ActionSpec,
    CircleFactor,
    FiniteGroupRep,
    LinearDirac,
    Subspace,
    from_bivector,
    from_distribution,
    from_two_form,
    isotropy,
    span,
    transform,
    validate_action,
)
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import PolyOneForm, PolySection, PolyVectorField, SectionsSpec
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
    fix, rows = _action_rows(act, h, m[None], tol)
    spaces = {k: Subspace(v.shape[-1], v[0], tol) for k, v in rows.items()}
    spaces.update(descriptor=h, fix=fix, phi=rows["phi"][0], v_g_ann=spaces["quotient"])
    return SimpleNamespace(**spaces)


def assert_subspace_close(a: Subspace, b: Subspace, tol: float = 1e-9) -> None:
    assert a.ambient_dim == b.ambient_dim
    d = a.distance(b)
    assert d <= tol, f"subspace distance {d} exceeds {tol}"
