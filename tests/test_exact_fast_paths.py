"""Each fast path of the exact layer against an independent reference:
signed-permutation substitution, the one-pass parser, and trusted arithmetic
results; and Poly.evaluate at float coordinates and the pair-substitution
circle quadrature against plain loops."""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_reduce.action import (
    ActionSpec,
    FiniteGroupRep,
    _circle_quadrature_poly,
    haar_average_section,
)
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import PolyOneForm, PolySection, PolyVectorField

NAMES = ["x", "y", "z"]


@st.composite
def polys(draw, n_vars, max_degree=3, max_terms=6):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n_vars))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Poly(n_vars, terms)


# -- signed-permutation substitution ------------------------------------------


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = tuple(x + y for x, y in zip(m1, m2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def generic_subs(p: Poly, rows) -> Poly:
    """p(M x) by expanding each x_i -> sum_j M_ij x_j over plain dicts."""
    n = p.n_vars
    images = [
        {tuple(1 if k == j else 0 for k in range(n)): Fraction(rows[i][j]) for j in range(n)}
        for i in range(n)
    ]
    total: dict = {}
    for m, c in p.terms:
        term = {(0,) * n: c}
        for i, e in enumerate(m):
            for _ in range(e):
                term = _dict_mul(term, images[i])
        for key, value in term.items():
            total[key] = total.get(key, Fraction(0)) + value
    return Poly(n, total)


@st.composite
def signed_permutations(draw, n):
    order = draw(st.permutations(range(n)))
    signs = [draw(st.sampled_from([1, -1])) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(order):
        rows[i][j] = signs[i]
    return rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_signed_permutation_subs_matches_generic_expansion(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(polys(n))
    rows = data.draw(signed_permutations(n))
    assert p.subs_linear(rows) == generic_subs(p, rows)
    float_rows = [[float(e) for e in row] for row in rows]
    assert p.subs_linear(float_rows) == generic_subs(p, rows)


@settings(max_examples=60, deadline=None)
@given(polys(2), st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_general_subs_matches_generic_expansion(p, entries):
    rows = [entries[:2], entries[2:]]
    assert p.subs_linear(rows) == generic_subs(p, rows)


# -- evaluation at float coordinates ------------------------------------------


def reference_float_evaluate(p: Poly, values):
    """The exact-coefficient loop at float coordinates: every Fraction
    meets a float first, so each term is float(c) * v**e left to right."""
    total = 0
    for m, c in p.terms:
        term = c
        for v, e in zip(values, m):
            if e:
                term = term * v**e
        total = total + term
    return total


coordinates = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_evaluate_is_bit_identical_and_close_to_exact(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(polys(n, max_degree=5, max_terms=8))
    point = data.draw(st.lists(coordinates, min_size=n, max_size=n))
    expected = float(reference_float_evaluate(p, point))
    assert float(p.evaluate(point)).hex() == expected.hex()
    np_point = list(np.array(point, dtype=float))
    assert isinstance(np_point[0], np.float64)
    assert float(p.evaluate(np_point)).hex() == float(
        reference_float_evaluate(p, np_point)
    ).hex()
    assert float(p.evaluate(np.array(point))).hex() == expected.hex()
    exact = p.evaluate([Fraction(v) for v in point])
    scale = sum(
        abs(c) * math.prod(abs(Fraction(v)) ** e for v, e in zip(point, m))
        for m, c in p.terms
    )
    assert abs(Fraction(expected) - exact) <= Fraction(1, 10**12) * scale + Fraction(1, 10**300)


def test_float_evaluate_keeps_exact_path_for_rationals():
    p = parse_poly("1/3*x^2 - y", 2)
    assert p.evaluate([Fraction(1, 2), 1]) == Fraction(-11, 12)
    assert p.evaluate([Fraction(1, 2), 1.0]) == float(Fraction(1, 12)) - 1.0


# -- circle quadrature --------------------------------------------------------

_I_POW = (
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(-1)),
)


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def fraction_circle_quadrature(f: Poly, pairs, n_nodes: int) -> Poly:
    """The quadrature over (re, im) pairs of Fractions, term by term.  An
    integral coefficient is an int, so it is lifted to a Fraction before
    the division by 2**(p + q)."""
    terms = {exps: (Fraction(c), Fraction(0)) for exps, c in f.terms}
    for ix, iy, _w in pairs:
        expanded: dict = {}
        for exps, coeff in terms.items():
            p, q = exps[ix], exps[iy]
            base = _gmul(
                (coeff[0] / 2 ** (p + q), coeff[1] / 2 ** (p + q)), _I_POW[(-q) % 4]
            )
            for a in range(p + 1):
                for b in range(q + 1):
                    scale = math.comb(p, a) * math.comb(q, b) * (-1) ** ((q - b) % 2)
                    g = (base[0] * scale, base[1] * scale)
                    e = list(exps)
                    e[ix] = a + b
                    e[iy] = (p - a) + (q - b)
                    key = tuple(e)
                    acc = expanded.get(key)
                    expanded[key] = (g[0] + acc[0], g[1] + acc[1]) if acc else g
        terms = expanded
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
                    ip = _I_POW[((a - aa) - (b - bb)) % 4]
                    scale = math.comb(a, aa) * math.comb(b, bb)
                    g = _gmul(coeff, (ip[0] * scale, ip[1] * scale))
                    e = list(exps)
                    e[ix] = aa + bb
                    e[iy] = (a - aa) + (b - bb)
                    key = tuple(e)
                    acc = collapsed.get(key)
                    collapsed[key] = (g[0] + acc[0], g[1] + acc[1]) if acc else g
        terms = collapsed
    real = {}
    for exps, (re, im) in terms.items():
        assert im == 0
        if re:
            real[exps] = re
    return Poly(f.n_vars, real)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quadrature_matches_loop_reference(data):
    n_pairs = data.draw(st.integers(1, 2))
    fixed = data.draw(st.integers(0, 1))
    n = 2 * n_pairs + fixed
    weights = [data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) for _ in range(n_pairs)]
    pairs = tuple((2 * j, 2 * j + 1, w) for j, w in enumerate(weights))
    n_nodes = data.draw(st.integers(1, 12))
    f = data.draw(polys(n, max_degree=3, max_terms=6))
    assert _circle_quadrature_poly(f, pairs, n_nodes) == fraction_circle_quadrature(
        f, pairs, n_nodes
    )


# -- one-pass parser ------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(0, 20).map(lambda k: (str(k), Fraction(k))),
    st.tuples(st.integers(0, 20), st.integers(1, 9)).map(
        lambda t: (f"{t[0]}/{t[1]}", Fraction(t[0], t[1]))
    ),
    st.integers(0, 999).map(lambda k: (f"{k // 100}.{k % 100:02d}", Fraction(k, 100))),
)
ATOMS = st.one_of(
    NUMBERS.map(lambda t: (t[0], Poly.constant(t[1], 3))),
    st.integers(0, 2).map(lambda i: (NAMES[i], Poly.variable(i, 3))),
)


def _factor(parts):
    (text, value), power, negate = parts
    if power is not None:
        text, value = f"{text}^{power}", value**power
    if negate:
        text, value = "-" + text, -value
    return text, value


def _product(factors):
    text = "*".join(t for t, _ in factors)
    value = Poly.one(3)
    for _, v in factors:
        value = value * v
    return text, value


def _sum(signed_terms):
    (sign, (text, value)), rest = signed_terms[0], signed_terms[1:]
    if sign == "-":
        text, value = "-" + text, -value
    for sign, (t, v) in rest:
        text += f" {sign} {t}"
        value = value - v if sign == "-" else value + v
    return text, value


def _expressions(children):
    grouped = children.map(lambda e: (f"({e[0]})", e[1]))
    factor = st.tuples(
        st.one_of(ATOMS, grouped), st.none() | st.integers(0, 2), st.booleans()
    ).map(_factor)
    term = st.lists(factor, min_size=1, max_size=3).map(_product)
    return st.lists(
        st.tuples(st.sampled_from("+-"), term), min_size=1, max_size=3
    ).map(_sum)


EXPRESSIONS = st.recursive(ATOMS, _expressions, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS)
def test_parser_matches_poly_arithmetic(expression):
    text, value = expression
    assert parse_poly(text, 3) == value


# -- trusted results ------------------------------------------------------------


def assert_canonical(p: Poly) -> None:
    """Sorted distinct monomials, and every coefficient nonzero and in
    normal form: an int when integral, else a Fraction."""
    monomials = [m for m, _ in p.terms]
    assert monomials == sorted(set(monomials))
    assert all(len(m) == p.n_vars for m in monomials)
    assert all(
        c != 0 and type(c) is (int if c.denominator == 1 else Fraction) for _, c in p.terms
    )
    assert Poly(p.n_vars, p.terms) == p


# the eight sign changes of R^3: the Haar average weighs each by 1/8
SIGN_CHANGES = ActionSpec(
    3, FiniteGroupRep(tuple(np.diag(signs) for signs in itertools.product((1.0, -1.0), repeat=3)))
)


@settings(max_examples=100, deadline=None)
@given(polys(3), polys(3), signed_permutations(3))
def test_trusted_results_are_canonical(a, b, perm):
    results = [
        a + b,
        a - b,
        a - a,
        -a,
        a * b,
        a * Fraction(3, 2),
        a * 0,
        a + 1,
        a**2,
        a.partial(1),
        a.subs_linear(perm),
        a.subs_linear([[1, 1, 0], [0, 1, 0], [0, 0, 2]]),
        parse_poly(f"({a.to_str()}) * ({b.to_str()}) - 3*x*y^2", 3),
        _circle_quadrature_poly(a, ((0, 1, 2),), 3),
        (a * Fraction(1, 2)) * 2,
        a * Fraction(4, 2),
        parse_poly("4/2*x + 2.50*y - 3", 3),
    ]
    average = haar_average_section(
        PolySection(PolyVectorField((a, b, a * b)), PolyOneForm((b, a, a + b))), SIGN_CHANGES
    )
    results += [*average.tangent.components, *average.covector.components]
    for r in results:
        assert_canonical(r)
