import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_reduce.poly import Poly, PolyParseError, coeff_distance, parse_poly

X = Poly.variable(0, 2)
Y = Poly.variable(1, 2)


def test_canonical_merge_and_zero_drop():
    p = Poly(2, {(1, 0): Fraction(1), (0, 0): Fraction(2)})
    q = Poly(2, {(1, 0): Fraction(-1), (0, 1): Fraction(0)})
    s = p + q
    assert s == Poly.constant(2, 2)
    assert s.terms == ((((0, 0)), Fraction(2)),)


def test_constant_and_variable():
    assert Poly.constant(Fraction(3, 2), 1).evaluate([Fraction(7)]) == Fraction(3, 2)
    assert X.evaluate([Fraction(2), Fraction(5)]) == 2


def test_arithmetic_frozen_value():
    p = Fraction(3, 2) * X * Y**2 - Y + 1
    # at (2, 3): 3/2 * 2 * 9 - 3 + 1 = 25
    assert p.evaluate([Fraction(2), Fraction(3)]) == Fraction(25)
    assert (p * p).evaluate([Fraction(2), Fraction(3)]) == Fraction(625)


def test_partial_derivative():
    p = X**3 * Y  # d/dx = 3 x^2 y, d/dy = x^3
    assert p.partial(0) == 3 * X**2 * Y
    assert p.partial(1) == X**3
    assert Poly.constant(5, 2).partial(0).is_zero()


def test_degree():
    assert Poly.zero(2).degree() == 0
    assert (X * Y**2 + X).degree() == 3


def test_pow_matches_repeated_multiplication():
    p = X - 2 * Y + 1
    q = Poly.one(2)
    for _ in range(5):
        q = q * p
    assert p**5 == q
    with pytest.raises(ValueError):
        p ** (-1)


def test_subs_linear_evaluation_consistency():
    p = X**2 - Y
    m = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(-1)]]
    sub = p.subs_linear(m)
    pt = [Fraction(1, 3), Fraction(2)]
    moved = [
        m[0][0] * pt[0] + m[0][1] * pt[1],
        m[1][0] * pt[0] + m[1][1] * pt[1],
    ]
    assert sub.evaluate(pt) == p.evaluate(moved)


def _constant_coefficient(value):
    c = Poly.constant(value, 1).coefficient((0,))
    return type(c), c


def test_float_coefficients_are_exact():
    """A coefficient is the input's exact value, an int when integral."""
    # 0.5 is a dyadic float, so this is exactly 1/2
    assert _constant_coefficient(0.5) == (Fraction, Fraction(1, 2))
    assert _constant_coefficient(2.0) == (int, 2)
    assert _constant_coefficient(np.float64(-2.0)) == (int, -2)
    # 0.1 is not 1/10 but its exact binary expansion
    assert _constant_coefficient(0.1) == (Fraction, Fraction(3602879701896397, 2**55))
    assert _constant_coefficient(True) == (int, 1)
    assert _constant_coefficient(Fraction(6, 3)) == (int, 2)
    assert _constant_coefficient(0) == (int, 0)  # a missing monomial
    with pytest.raises(OverflowError):
        Poly.constant(math.inf, 1)
    with pytest.raises(ValueError):
        Poly.constant(math.nan, 1)


def test_parse_examples():
    assert parse_poly("3/2*x*y^2 - y + 1", 2) == Fraction(3, 2) * X * Y**2 - Y + 1
    assert parse_poly("-x^2", 2) == -(X**2)
    assert parse_poly("x1", 2) == Y  # generic aliases always work
    assert parse_poly("(x + y)^2", 2) == X**2 + 2 * X * Y + Y**2
    assert parse_poly("0", 3).is_zero()
    assert parse_poly("2.25", 1) == Poly.constant(Fraction(9, 4), 1)
    for padded in ["x ", "x\n", " x\t", " ( x ) ^ 1 "]:  # whitespace around any token
        assert parse_poly(padded, 2) == X


def test_parse_errors():
    for bad in ["x +", "q", "x^-1", "x^y", "1 2", "(x", ""]:
        with pytest.raises(PolyParseError):
            parse_poly(bad, 2)
    with pytest.raises(PolyParseError, match=re.escape("unexpected character at ' $'")):
        parse_poly("x $", 2)
    with pytest.raises(PolyParseError, match="unexpected end of input"):
        parse_poly(" \n", 2)


def test_parse_limits_charge_only_expansions():
    """Parentheses without a power, long literals and a 1000-term sum are
    no expansion, so the limits leave them alone; a long literal beyond
    what int() reads is a parse error, not a ValueError."""
    long_sum = " + ".join(f"x^{i}*y" for i in range(1000))
    assert len(parse_poly(f"-({long_sum})", 2).terms) == 1000
    assert parse_poly(f"({'7' * 1000})*x", 2).terms[0][1] == int("7" * 1000)
    assert parse_poly("-(x^600*y^600 - x^601*y^599)", 2).degree() == 1200
    assert parse_poly("(x + y)^300", 2).degree() == 300
    with pytest.raises(PolyParseError, match="too long"):
        parse_poly("1" * 5000, 2)
    with pytest.raises(PolyParseError, match="exponent exceeds"):
        parse_poly("x^" + "1" * 5000, 2)


def test_str_uses_default_names():
    p = Fraction(3, 2) * X * Y**2 - Y + 1
    assert str(p) == "3/2*x*y^2 - y + 1"
    assert Poly.zero(2).to_str() == "0"
    five_vars = Poly.variable(4, 5)
    assert five_vars.to_str() == "x4"


def test_coeff_distance():
    p = X + Y
    q = X + Fraction(1, 2) * Y
    assert coeff_distance(p, q) == pytest.approx(0.5)
    assert coeff_distance(p, p) == 0.0


@st.composite
def polys(draw, n_vars=None, max_degree=3):
    n = n_vars if n_vars is not None else draw(st.integers(1, 3))
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(n)
        )
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Poly(n, terms)


@settings(max_examples=150, deadline=None)
@given(polys())
def test_parser_round_trips_printer(p):
    assert parse_poly(p.to_str(), p.n_vars) == p


@settings(max_examples=80, deadline=None)
@given(polys(n_vars=2), polys(n_vars=2), polys(n_vars=2))
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(polys(n_vars=2), polys(n_vars=2))
def test_partial_is_a_derivation(a, b):
    for i in range(2):
        assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
