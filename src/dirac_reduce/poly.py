"""Exact multivariate polynomials over the rationals.

A coefficient is a Python ``int`` when its value is an integer and a
``fractions.Fraction`` only when its denominator is not 1, so integer input
runs on native int arithmetic.  ``Fraction(2) == 2`` and the two hash and
print alike, so this normal form changes no equality, key or string; but
``int / int`` is a float, so a coefficient is never divided with ``/``:
write ``Fraction(c, k)``.  Floats only appear when a polynomial is
evaluated at a float point.  Terms are kept in a canonical sorted order
with no zero coefficients, so ``==`` is structural equality.

The public constructor validates and canonicalises its input.  Results of
arithmetic are canonical by construction and go through ``_trusted``, which
skips that work.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational
from operator import add

Monomial = tuple[int, ...]

__all__ = [
    "Poly",
    "PolyParseError",
    "parse_poly",
    "default_var_names",
    "coeff_distance",
]


class PolyParseError(ValueError):
    """Malformed polynomial expression."""


def _normal(c: int | Fraction) -> int | Fraction:
    """The coefficient's normal form: an int when its value is integral."""
    if type(c) is int or c.denominator != 1:
        return c
    return c.numerator


def _coerce(value) -> int | Fraction:
    """``value`` as an exact coefficient in normal form."""
    if isinstance(value, int):  # also bool
        return int(value)
    if isinstance(value, Fraction):
        return _normal(value)
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        return _normal(Fraction(value))  # exact binary expansion; inf, nan raise
    if isinstance(value, (Rational, str)):
        return _normal(Fraction(value))
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


@dataclass(frozen=True)
class Poly:
    """A polynomial in ``n_vars`` variables with rational coefficients."""

    n_vars: int
    terms: tuple  # tuple[(Monomial, int | Fraction), ...], canonical

    def __post_init__(self) -> None:
        collected: dict[Monomial, int | Fraction] = {}
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        for exponents, coeff in items:
            exponents = tuple(int(e) for e in exponents)
            if len(exponents) != self.n_vars:
                raise ValueError(
                    f"monomial {exponents} has {len(exponents)} exponents, "
                    f"expected {self.n_vars}"
                )
            if any(e < 0 for e in exponents):
                raise ValueError(f"negative exponent in {exponents}")
            coeff = _coerce(coeff)
            if coeff:
                collected[exponents] = collected.get(exponents, 0) + coeff
        canonical = tuple(
            (m, _normal(c)) for m, c in sorted(collected.items()) if c != 0
        )
        object.__setattr__(self, "terms", canonical)

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "Poly":
        return _trusted(n_vars, ())

    @classmethod
    def one(cls, n_vars: int) -> "Poly":
        return cls.constant(1, n_vars)

    @classmethod
    def constant(cls, value, n_vars: int) -> "Poly":
        c = _coerce(value)
        return _trusted(n_vars, (((0,) * n_vars, c),) if c else ())

    @classmethod
    def variable(cls, index: int, n_vars: int) -> "Poly":
        if not 0 <= index < n_vars:
            raise ValueError(f"variable index {index} out of range for {n_vars}")
        return _trusted(n_vars, ((_unit(index, n_vars), 1),))

    # -- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(m) for m, _ in self.terms)

    def coefficient(self, exponents: Monomial) -> int | Fraction:
        exponents = tuple(int(e) for e in exponents)
        for m, c in self.terms:
            if m == exponents:
                return c
        return 0

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError(
                f"polynomials in {self.n_vars} and {other.n_vars} variables"
            )

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            if not other.terms:
                return self
            if not self.terms:
                return other
            merged = dict(self.terms)
            for m, c in other.terms:
                merged[m] = merged[m] + c if m in merged else c
            return _from_dict(self.n_vars, merged)
        return self + Poly.constant(other, self.n_vars)

    __radd__ = __add__

    def __neg__(self):
        return _trusted(self.n_vars, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -_coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            out: dict[Monomial, int | Fraction] = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    key = tuple(map(add, m1, m2))
                    prod = c1 * c2
                    out[key] = out[key] + prod if key in out else prod
            return _from_dict(self.n_vars, out)
        scalar = _coerce(other)
        if not scalar:
            return _trusted(self.n_vars, ())
        return _trusted(self.n_vars, tuple((m, _normal(c * scalar)) for m, c in self.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.one(self.n_vars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- calculus ---------------------------------------------------------

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.n_vars:
            raise ValueError(f"variable index {index} out of range")
        # Lowering one exponent of every surviving term keeps them distinct
        # and in lexicographic order.
        out = []
        for m, c in self.terms:
            e = m[index]
            if e:
                out.append((m[:index] + (e - 1,) + m[index + 1 :], _normal(c * e)))
        return _trusted(self.n_vars, tuple(out))

    @cached_property
    def _float_terms(self) -> tuple:
        """``(powers, terms)`` for ``polyfield.evaluate_polys``: the distinct
        ``(variable, exponent)`` pairs in use, and per term ``float(c)``
        with the indices into ``powers`` of its factors, in variable order."""
        powers: dict = {}
        terms = []
        for m, c in self.terms:
            factors = tuple(
                powers.setdefault((i, e), len(powers)) for i, e in enumerate(m) if e
            )
            terms.append((float(c), factors))
        return tuple(powers), tuple(terms)

    def evaluate(self, point):
        """Evaluate at a point: each term ``c * v**e`` left to right, the
        terms summed in canonical order; exact at rational coordinates.  Once
        a coordinate is a float (``np.float64`` is taken as ``float``) the
        value is a float, and one beyond the float range (or a power on the
        way) raises OverflowError."""
        values = [float(v) if isinstance(v, float) else v for v in point]
        if len(values) != self.n_vars:
            raise ValueError(
                f"point of length {len(values)}, expected {self.n_vars}"
            )
        if not self.terms:
            return 0
        total = 0
        try:
            for m, c in self.terms:
                term = c
                for v, e in zip(values, m):
                    if e:
                        term = term * v**e
                total = total + term
        except OverflowError:
            total = math.inf
        if not any(isinstance(v, float) for v in values):
            return total
        if not math.isfinite(total):
            raise OverflowError(
                f"polynomial value at point {tuple(float(v) for v in values)} "
                "is out of the float range"
            )
        return float(total)

    def subs_linear(self, matrix) -> "Poly":
        """Compose with a linear substitution: p(M x).

        ``matrix`` is a sequence of rows; entries are coerced to exact
        coefficients, so the composition is exact.
        """
        rows = [[_coerce(entry) for entry in row] for row in matrix]
        if len(rows) != self.n_vars or any(len(r) != self.n_vars for r in rows):
            raise ValueError("substitution matrix has the wrong shape")
        perm = _signed_permutation(rows)
        if perm is not None:
            return self._subs_signed_permutation(perm)
        images = [_linear(row) for row in rows]
        result = Poly.zero(self.n_vars)
        for m, c in self.terms:
            term = Poly.constant(c, self.n_vars)
            for i, e in enumerate(m):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

    def _subs_signed_permutation(self, perm) -> "Poly":
        """p(M x) for M with the single nonzero entry ``sign_i`` at
        ``(i, col_i)`` of row i: x_i becomes sign_i * x_{col_i}, so each
        monomial maps to one monomial and no two collide."""
        if all(col == i and sign > 0 for i, (col, sign) in enumerate(perm)):
            return self
        out = []
        for m, c in self.terms:
            e = [0] * self.n_vars
            negate = False
            for i, k in enumerate(m):
                if k:
                    col, sign = perm[i]
                    e[col] = k
                    if sign < 0 and k & 1:
                        negate = not negate
            out.append((tuple(e), -c if negate else c))
        out.sort()
        return _trusted(self.n_vars, tuple(out))

    # -- formatting ---------------------------------------------------------

    def __str__(self) -> str:
        return self.to_str()

    def to_str(self) -> str:
        """The polynomial in the :func:`default_var_names` of its variables."""
        names = default_var_names(self.n_vars)
        if not self.terms:
            return "0"
        ordered = sorted(
            self.terms, key=lambda t: (-sum(t[0]), tuple(-e for e in t[0]))
        )
        pieces = []
        for m, c in ordered:
            factors = []
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = str(mag) + "*" + "*".join(factors)
            sign = "-" if c < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def _trusted(n_vars: int, terms: tuple) -> Poly:
    """A Poly from terms already canonical: sorted, distinct monomials of
    length ``n_vars``, nonzero coefficients in normal form (see :func:`_normal`)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "n_vars", n_vars)
    object.__setattr__(p, "terms", terms)
    return p


def _from_dict(n_vars: int, merged: dict) -> Poly:
    """A Poly from a ``{monomial: int | Fraction}`` dict of valid monomials;
    the coefficients need not be in normal form."""
    return _trusted(
        n_vars, tuple(sorted([(m, _normal(c)) for m, c in merged.items() if c]))
    )


def _unit(index: int, n: int) -> Monomial:
    """The exponents of the variable ``index`` among ``n``."""
    return tuple(1 if j == index else 0 for j in range(n))


def _linear(row) -> Poly:
    """The linear form sum_j row[j] x_j, for exact coefficients ``row``."""
    n = len(row)
    return _from_dict(n, {_unit(j, n): c for j, c in enumerate(row)})


def _signed_permutation(rows) -> list | None:
    """``[(col_i, sign_i)]`` when every row and column of the square matrix
    holds exactly one nonzero entry, and that entry is +1 or -1."""
    perm = []
    used = set()
    for row in rows:
        nonzero = [(j, c) for j, c in enumerate(row) if c]
        if len(nonzero) != 1:
            return None
        col, c = nonzero[0]
        if (c != 1 and c != -1) or col in used:
            return None
        used.add(col)
        perm.append((col, 1 if c > 0 else -1))
    return perm


def default_var_names(n_vars: int) -> list[str]:
    if n_vars <= 4:
        return ["x", "y", "z", "w"][:n_vars]
    return [f"x{i}" for i in range(n_vars)]


# What one polynomial string may expand to, checked from closed-form bounds
# before the work is done, so that a short string cannot stall the parser.
# The bundled scenarios and generated workloads use no parenthesised powers
# and degrees of at most 8.
MAX_EXPONENT = 1000  # a literal exponent, and the degree a power may produce
MAX_TERMS = 1000  # terms all parenthesised powers and products of one string may produce
MAX_COEFF_BITS = 3000  # bits of a coefficient a power may produce


def _check_power(coefficients, degree: int, power: int) -> int:
    """Bound ``base**power`` before expanding it and return its term bound:
    for k terms of ``bits`` total coefficient bits it has at most
    C(power+k-1, k-1) terms, and numerators and denominators of at most
    power * (bits + log2 k) bits."""
    k = len(coefficients)
    bits = sum(c.numerator.bit_length() + c.denominator.bit_length() for c in coefficients)
    if power * degree > MAX_EXPONENT:
        raise PolyParseError(f"^{power} gives degree above {MAX_EXPONENT}")
    if power * (bits + k.bit_length()) > MAX_COEFF_BITS:
        raise PolyParseError(f"^{power} may give coefficients of more than {MAX_COEFF_BITS} bits")
    return math.comb(power + k - 1, power) if k else 1


_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+/\d+|\d+\.\d+|\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[\^*+\-()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    """The ``(kind, value)`` tokens of ``text``, with the whitespace around
    them dropped; a character no token starts with raises."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise PolyParseError(f"unexpected character at {text[match.start():]!r}")
        tokens.append((kind, match[kind]))
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, *, ^ and parentheses.

    A product of numbers and variables is collected as one coefficient and
    one exponent vector, then added into the sum's ``{monomial: coefficient}``
    dict; only parenthesised factors are multiplied as polynomials.  An
    integer literal is an ``int``; ``a/b`` and ``a.b`` are built as Fractions
    and normalised, so an integral one such as ``4/2`` is an int too.
    """

    def __init__(self, tokens, n_vars: int, variables: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars
        self.variables = variables  # name -> index
        self.budget = MAX_TERMS

    def spend(self, terms: int, what: str) -> None:
        """Charge an expansion's term bound to the string, before the work."""
        self.budget -= terms
        if self.budget < 0:
            raise PolyParseError(f"{what} takes the expansion past {MAX_TERMS} terms")

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self) -> Poly:
        out: dict[Monomial, int | Fraction] = {}
        kind, value = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.take()
            negate = value == "-"
        self.term(out, negate)
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                self.term(out, value == "-")
            else:
                return _from_dict(self.n_vars, out)

    def term(self, out: dict, negate: bool) -> None:
        """Parse one product and add it into ``out``."""
        # [coefficient, exponent vector, product of parenthesised factors]
        product = [-1 if negate else 1, [0] * self.n_vars, None]
        self.factor(product)
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.take()
                self.factor(product)
            else:
                break
        coeff, exps, group = product
        if group is None:
            items = [(tuple(exps), coeff)]
        else:
            items = [(tuple(map(add, m, exps)), c * coeff) for m, c in group.terms]
        for m, c in items:
            out[m] = out[m] + c if m in out else c

    def factor(self, product: list) -> None:
        """Parse one factor and multiply it into ``product``."""
        kind, value = self.peek()
        if kind == "op" and value == "-":
            self.take()
            product[0] = -product[0]
            return self.factor(product)
        kind, value = self.take()
        if kind == "number":
            try:
                number = int(value) if value.isdigit() else _normal(Fraction(value))
            except ZeroDivisionError:
                raise PolyParseError(f"zero denominator in {value!r}") from None
            except ValueError:  # more digits than int() converts
                raise PolyParseError(f"number of {len(value)} characters is too long") from None
        elif kind == "name":
            if value not in self.variables:
                raise PolyParseError(f"unknown variable {value!r}")
        elif kind == "op" and value == "(":
            inner = self.expr()
            if self.take() != ("op", ")"):
                raise PolyParseError("missing closing parenthesis")
        elif kind is None:
            raise PolyParseError("unexpected end of input")
        else:
            raise PolyParseError(f"unexpected token {value!r}")
        power = self.exponent()
        if kind == "number":
            if power > 1:
                _check_power((number,), 0, power)
            product[0] *= number**power
        elif kind == "name":
            product[1][self.variables[value]] += power
        else:
            if power > 1:
                bound = _check_power([c for _, c in inner.terms], inner.degree(), power)
                self.spend(bound, f"^{power} of a {len(inner.terms)}-term factor")
            inner = inner**power
            if product[2] is not None:
                self.spend(len(product[2].terms) * len(inner.terms), "a parenthesised product")
            product[2] = inner if product[2] is None else product[2] * inner

    def exponent(self) -> int:
        kind, value = self.peek()
        if not (kind == "op" and value == "^"):
            return 1
        self.take()
        kind, value = self.take()
        if kind != "number" or not value.isdigit():
            raise PolyParseError("exponent must be a nonnegative integer")
        digits = value.lstrip("0") or "0"  # int() refuses very long strings
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise PolyParseError(f"exponent exceeds {MAX_EXPONENT}")
        return int(digits)


def parse_poly(text: str, n_vars: int) -> Poly:
    """Parse an expression like ``"3/2*x*y^2 - z + 1"``.

    Variable names are x, y, z, w for up to four variables; the aliases
    x0, x1, ... are always accepted.
    """
    table = {name: i for i, name in enumerate(default_var_names(n_vars))}
    for i in range(n_vars):
        table.setdefault(f"x{i}", i)
    parser = _Parser(_tokenize(text), n_vars, table)
    result = parser.expr()
    if parser.pos != len(parser.tokens):
        raise PolyParseError(f"trailing input in {text!r}")
    return result


def coeff_distance(a: Poly, b: Poly) -> float:
    """Largest coefficient difference, as a float."""
    if a.n_vars != b.n_vars:
        raise ValueError("polynomials in different variable counts")
    diff = a - b
    if not diff.terms:
        return 0.0
    return max(abs(float(c)) for _, c in diff.terms)
