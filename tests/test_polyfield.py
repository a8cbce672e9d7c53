import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from dirac_reduce.lindirac import is_lagrangian
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import (
    BivectorSpec,
    DegeneratePointError,
    DistributionSpec,
    PolyOneForm,
    PolySection,
    PolyTwoForm,
    PolyVectorField,
    SectionsSpec,
    TwoFormSpec,
    courant_bracket,
    d_function,
    d_oneform,
    dorfman_bracket,
    evaluate_at,
    evaluate_fibers,
    evaluate_polys,
    generating_sections,
    infinitesimal_invariance,
    integrability_check,
    lie_bracket,
    lie_derivative_oneform,
    pushforward_section,
)
from dirac_reduce.subspace import span

from helpers import circle_action, random_poly, random_section

X2 = Poly.variable(0, 2)
Y2 = Poly.variable(1, 2)


def _poly(text, n=2):
    return parse_poly(text, n)


def _field(*components):
    n = len(components)
    return PolyVectorField(tuple(_poly(c, n) for c in components))


def _oneform(*components):
    n = len(components)
    return PolyOneForm(tuple(_poly(c, n) for c in components))


def test_d_function():
    f = X2**2 * Y2
    df = d_function(f)
    assert df.components == (2 * X2 * Y2, X2**2)


def test_d_oneform_sign_convention():
    """(d alpha)_ij = d_i alpha_j - d_j alpha_i."""
    alpha = _oneform("-y", "x")
    da = d_oneform(alpha)
    assert da.entries[0][1] == Poly.constant(2, 2)
    assert da.entries[1][0] == Poly.constant(-2, 2)


def test_d_squared_is_zero():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, n, 3)
        dd = d_oneform(d_function(f))
        assert all(p.is_zero() for row in dd.entries for p in row)


def test_lie_bracket_frozen_example():
    # [y dx, x dy] = -x dx + y dy
    x_field = _field("y", "0")
    y_field = _field("0", "x")
    b = lie_bracket(x_field, y_field)
    assert b.components == (_poly("-x"), _poly("y"))


def test_lie_bracket_antisymmetry_and_jacobi():
    rng = np.random.default_rng(22)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        fields = [
            PolyVectorField(tuple(random_poly(rng, n, 2) for _ in range(n)))
            for _ in range(3)
        ]
        x, y, z = fields
        anti = lie_bracket(x, y) + lie_bracket(y, x)
        assert all(p.is_zero() for p in anti.components)
        jac = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert all(p.is_zero() for p in jac.components)


def test_lie_derivative_leibniz_on_exact_forms():
    # L_X df = d(X . grad f)
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        x = PolyVectorField(tuple(random_poly(rng, n, 2) for _ in range(n)))
        f = random_poly(rng, n, 3)
        lhs = lie_derivative_oneform(x, d_function(f))
        rhs = d_function(d_function(f).pair(x))
        assert all((a - b).is_zero() for a, b in zip(lhs.components, rhs.components))


def test_bracket_worked_example():
    s1 = PolySection(_field("y", "0"), _oneform("0", "0"))
    s2 = PolySection(_field("0", "x"), _oneform("x*y", "1"))
    c = courant_bracket(s1, s2)
    d = dorfman_bracket(s1, s2)
    assert c.tangent.components == (_poly("-x"), _poly("y"))
    assert c.covector.components == (_poly("1/2*y^2"), _poly("0"))
    assert d.tangent.components == c.tangent.components
    assert d.covector.components == (_poly("y^2"), _poly("x*y"))


def test_courant_is_antisymmetric_exactly():
    rng = np.random.default_rng(24)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        a = random_section(rng, n, 2)
        b = random_section(rng, n, 2)
        s = courant_bracket(a, b) + courant_bracket(b, a)
        assert all(p.is_zero() for p in s.tangent.components)
        assert all(p.is_zero() for p in s.covector.components)


def test_dorfman_minus_courant_is_half_exact_pairing():
    rng = np.random.default_rng(25)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        a = random_section(rng, n, 2)
        b = random_section(rng, n, 2)
        diff = dorfman_bracket(a, b) - courant_bracket(a, b)
        assert all(p.is_zero() for p in diff.tangent.components)
        pairing = a.covector.pair(b.tangent) + b.covector.pair(a.tangent)
        half_d = d_function(pairing) * Fraction(1, 2)
        assert all(
            (p - q).is_zero()
            for p, q in zip(diff.covector.components, half_d.components)
        )


def test_dorfman_satisfies_leibniz_identity():
    """[a,[b,c]] = [[a,b],c] + [b,[a,c]] holds identically on R^n sections."""
    rng = np.random.default_rng(26)
    for _ in range(8):
        n = int(rng.integers(1, 3))
        a = random_section(rng, n, 2)
        b = random_section(rng, n, 2)
        c = random_section(rng, n, 2)
        lhs = dorfman_bracket(a, dorfman_bracket(b, c))
        rhs = dorfman_bracket(dorfman_bracket(a, b), c) + dorfman_bracket(
            b, dorfman_bracket(a, c)
        )
        diff = lhs - rhs
        assert all(p.is_zero() for p in diff.tangent.components)
        assert all(p.is_zero() for p in diff.covector.components)


def test_two_form_antisymmetry_enforced():
    with pytest.raises(ValueError):
        PolyTwoForm(((Poly.zero(2), X2), (X2, Poly.zero(2))))


def test_generating_sections_conventions():
    pi = PolyTwoForm.from_constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    secs = generating_sections(BivectorSpec(pi))
    assert [s.tangent.components for s in secs] == [
        (_poly("0"), _poly("-1")),
        (_poly("1"), _poly("0")),
    ]
    assert [s.covector.components for s in secs] == [
        (_poly("1"), _poly("0")),
        (_poly("0"), _poly("1")),
    ]
    om = PolyTwoForm.from_constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    secs = generating_sections(TwoFormSpec(om))
    assert [s.tangent.components for s in secs] == [
        (_poly("1"), _poly("0")),
        (_poly("0"), _poly("1")),
    ]
    assert [s.covector.components for s in secs] == [
        (_poly("0"), _poly("1")),
        (_poly("-1"), _poly("0")),
    ]
    dist = DistributionSpec(span(np.array([[1.0, 0.0]]), ambient_dim=2))
    secs = generating_sections(dist)
    evald = [s.evaluate(np.zeros(2)) for s in secs]
    np.testing.assert_allclose(evald[0], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(evald[1], [0.0, 0.0, 0.0, 1.0])


_SO3_PI = PolyTwoForm(  # the so(3)* Lie-Poisson bivector
    (
        (Poly.zero(3), parse_poly("z", 3), parse_poly("-y", 3)),
        (parse_poly("-z", 3), Poly.zero(3), parse_poly("x", 3)),
        (parse_poly("y", 3), parse_poly("-x", 3), Poly.zero(3)),
    )
)


def test_evaluate_at_graphs():
    d = evaluate_at(BivectorSpec(_SO3_PI), np.array([1.0, 2.0, 3.0]))
    assert d.base_dim == 3 and is_lagrangian(d.space)
    # section 1 at (1,2,3): Pi column 1 = (0, -z, y) = (0,-3,2), covector dx
    assert d.space.contains(np.array([0.0, -3.0, 2.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("shape", [(3, 0), (0,), (2, 4)])
def test_evaluate_fibers_rejects_a_point_stack_of_the_wrong_shape(shape):
    """Only (N, 3) is a stack of points of R^3; an empty array of another
    shape raises as a full one does."""
    message = re.escape(f"points of shape {shape}, expected (N, 3)")
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_fibers(BivectorSpec(_SO3_PI), np.zeros(shape))


def test_evaluate_fibers_of_an_empty_stack_is_empty():
    fibers = evaluate_fibers(BivectorSpec(_SO3_PI), np.zeros((0, 3)))
    assert len(fibers) == 0 and fibers.bases.shape == (0, 3, 6)


_OVERFLOWING = "x^600*y^600 - x^601*y^599"  # inf - inf at (3, 3): every power is finite


@pytest.mark.parametrize(
    "points, first",
    [
        ([[0.5, 0.0], [3.0, 3.0], [1e10, 1.0]], (3.0, 3.0)),
        # x^600 itself is beyond the float range at the second point
        ([[0.5, 0.0], [1e10, 1.0], [3.0, 3.0]], (1e10, 1.0)),
    ],
)
def test_stacked_evaluation_overflow_names_the_first_point(points, first):
    """The stack raises Poly.evaluate's OverflowError at the first point in
    input order where any entry leaves the float range, and numpy warns
    about none of the inf and NaN on the way."""
    polys = [_poly("x + y"), _poly(_OVERFLOWING), _poly("x^2")]
    with pytest.raises(OverflowError) as reference:
        polys[1].evaluate(list(first))
    form = TwoFormSpec(
        PolyTwoForm(((Poly.zero(2), polys[1]), (-polys[1], Poly.zero(2))))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError) as stacked:
            evaluate_polys(polys, np.array(points))
        with pytest.raises(OverflowError) as fibers:
            evaluate_fibers(form, points)
        assert evaluate_polys(polys, np.array(points[:1])).shape == (3, 1)
    assert str(stacked.value) == str(fibers.value) == str(reference.value)
    assert f"point {first}" in str(stacked.value)


def test_sections_spec_rank_certified_at_basepoint():
    # x * d/dx degenerates on the y-axis but not at the basepoint
    s1 = PolySection(_field("x", "0"), _oneform("0", "0"))
    s2 = PolySection(_field("0", "0"), _oneform("0", "1"))
    spec = SectionsSpec((s1, s2), (1.0, 0.0))
    d = evaluate_at(spec, np.array([2.0, 5.0]))
    assert d.space.dim == 2
    with pytest.raises(DegeneratePointError):
        evaluate_at(spec, np.array([0.0, 1.0]))
    with pytest.raises(DegeneratePointError):
        SectionsSpec((s1, s2), (0.0, 1.0))


def test_sections_spec_needs_exactly_n_sections():
    s1 = PolySection(_field("1", "0"), _oneform("0", "0"))
    with pytest.raises(ValueError):
        SectionsSpec((s1,), (0.0, 0.0))


def test_integrability_lie_poisson_passes():
    pi = PolyTwoForm(
        (
            (Poly.zero(3), parse_poly("z", 3), parse_poly("-y", 3)),
            (parse_poly("-z", 3), Poly.zero(3), parse_poly("x", 3)),
            (parse_poly("y", 3), parse_poly("-x", 3), Poly.zero(3)),
        )
    )
    rng = np.random.default_rng(27)
    samples = rng.uniform(-1, 1, size=(25, 3))
    report = integrability_check(BivectorSpec(pi), samples, 1e-9)
    assert report.ok
    assert report.max_residual < 1e-12


def test_integrability_non_closed_form_fails():
    # Omega = z dx ^ dy has d(Omega) = dz ^ dx ^ dy != 0
    om = PolyTwoForm(
        (
            (Poly.zero(3), parse_poly("z", 3), Poly.zero(3)),
            (parse_poly("-z", 3), Poly.zero(3), Poly.zero(3)),
            (Poly.zero(3), Poly.zero(3), Poly.zero(3)),
        )
    )
    samples = np.array([[0.3, 0.7, 1.1], [1.0, -0.5, 0.4]])
    report = integrability_check(TwoFormSpec(om), samples, 1e-9)
    assert not report.ok
    assert report.max_residual > 1e-3


def test_invariance_canonical_poisson_under_circle():
    pi = PolyTwoForm.from_constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    action = circle_action((1,))
    samples = np.random.default_rng(28).uniform(0.3, 1.5, size=(8, 2))
    report = infinitesimal_invariance(BivectorSpec(pi), action, samples, 1e-9)
    assert report.ok


def test_invariance_linear_form_fails_under_circle():
    om = PolyTwoForm(((Poly.zero(2), X2), (-X2, Poly.zero(2))))
    action = circle_action((1,))
    samples = np.random.default_rng(29).uniform(0.3, 1.5, size=(8, 2))
    report = infinitesimal_invariance(TwoFormSpec(om), action, samples, 1e-9)
    assert not report.ok
    assert report.max_residual > 1e-3


def test_invariance_without_circle_is_vacuous():
    pi = PolyTwoForm.from_constant(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    class NoCircle:
        circle = None

    report = infinitesimal_invariance(
        BivectorSpec(pi), NoCircle(), np.zeros((3, 2)), 1e-9
    )
    assert report.ok and not report.failures


def test_pushforward_requires_orthogonal():
    s = PolySection(_field("1", "0"), PolyOneForm.zero(2))
    with pytest.raises(ValueError):
        pushforward_section(np.array([[2.0, 0.0], [0.0, 1.0]]), s)


def test_pushforward_evaluates_as_conjugation():
    """(g_* X)(m) = g^T X(g m) for orthogonal g acting linearly."""
    rng = np.random.default_rng(30)
    theta = 0.7
    g = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    x = _field("x*y", "x^2 - y")
    alpha = _oneform("y^2", "x")
    moved_section = pushforward_section(g, PolySection(x, alpha))
    moved, moved_form = moved_section.tangent, moved_section.covector
    for _ in range(5):
        m = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(
            moved.evaluate(m), g.T @ x.evaluate(g @ m), atol=1e-12
        )
    for _ in range(5):
        m = rng.uniform(-1, 1, size=2)
        np.testing.assert_allclose(
            moved_form.evaluate(m), g.T @ alpha.evaluate(g @ m), atol=1e-12
        )
