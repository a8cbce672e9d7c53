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
from fractions import Fraction
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


_set = object.__setattr__  # writes a record's field past its __setattr__


class _Record:
    """The frozen record every value type of the package is built on.

    A subclass's fields are its annotated names, after those of its bases,
    and a class attribute of a field's name is its default.  The shared
    ``__init__`` takes the fields by position or name and then calls
    ``self.__post_init__()``.  Assigning or deleting an attribute raises
    AttributeError.  Two records are equal when they are of one class and
    their ``__dict__``s are equal: these hold the fields, and nothing but
    values computed from the fields at construction.  A record hashes by its
    fields and prints them.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls) -> None:
        own = tuple(cls.__annotations__)  # this class's own, on Python 3.10 and later
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{k: vars(cls)[k] for k in own if k in vars(cls)}}

    def __init__(self, *args, **kwargs) -> None:
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        values = {**self._defaults, **dict(zip(fields, args))}
        for key, value in kwargs.items():
            if key not in fields or key in fields[: len(args)]:
                raise TypeError(f"{name}() got an unexpected argument {key!r}")
            values[key] = value
        for key in fields:
            if key not in values:
                raise TypeError(f"{name}() is missing the argument {key!r}")
            _set(self, key, values[key])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check and normalise the fields: nothing here."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(tuple([getattr(self, k) for k in self._fields]))

    def __repr__(self) -> str:
        values = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__qualname__}({values})"


class Poly(_Record):
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
            collected[exponents] = collected.get(exponents, 0) + _coerce(coeff)
        _set(self, "terms", _from_dict(self.n_vars, collected).terms)

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
        rows = _exact_rows(matrix)
        if len(rows) != self.n_vars:
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


def _exact_rows(matrix) -> list[list[int | Fraction]]:
    """The rows of the square ``matrix`` as exact coefficients in normal form
    (see :func:`_coerce`)."""
    rows = [[_coerce(entry) for entry in row] for row in matrix]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    return rows


def _trusted(n_vars: int, terms: tuple) -> Poly:
    """A Poly from terms already canonical: sorted, distinct monomials of
    length ``n_vars``, nonzero coefficients in normal form (see :func:`_normal`)."""
    p = object.__new__(Poly)
    _set(p, "n_vars", n_vars)
    _set(p, "terms", terms)
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
MAX_DEPTH = 100  # parenthesised groups open at once


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


# A number, a name, or any other one character: an operator, or a character
# no token starts with, which parse_poly reports.
_TOKEN = re.compile(r"\d+(?:[/.]\d+)?|[A-Za-z_][A-Za-z_0-9]*|\S")
_TOKEN_START = re.compile(r"[\dA-Za-z_^*+\-()]")


def _check_characters(text: str) -> None:
    """Raise at the first character no token starts with, quoting the input
    from the whitespace before it."""
    for match in _TOKEN.finditer(text):
        if not _TOKEN_START.match(match[0]):
            start = len(text[: match.start()].rstrip())
            raise PolyParseError(f"unexpected character at {text[start:]!r}")


def _number(token: str) -> int | Fraction:
    """An integer literal as an ``int``; ``a/b`` and ``a.b`` as a Fraction in
    normal form, so an integral one such as ``4/2`` is an int too."""
    try:
        return int(token) if token.isdecimal() else _normal(Fraction(token))
    except ZeroDivisionError:
        raise PolyParseError(f"zero denominator in {token!r}") from None
    except ValueError:  # more digits than int() converts
        raise PolyParseError(f"number of {len(token)} characters is too long") from None


def _exponent(token: str) -> int:
    """The exponent after a ``^``: an integer literal of at most MAX_EXPONENT."""
    if not token.isdecimal():
        raise PolyParseError("exponent must be a nonnegative integer")
    digits = token.lstrip("0") or "0"  # int() refuses very long strings
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise PolyParseError(f"exponent exceeds {MAX_EXPONENT}")
    return int(digits)


def _spend(budget: int, terms: int, what: str) -> int:
    """The string's term budget left after an expansion's term bound, charged
    before the work."""
    budget -= terms
    if budget < 0:
        raise PolyParseError(f"{what} takes the expansion past {MAX_TERMS} terms")
    return budget


def _parse(tokens: list, n_vars: int, variables: dict, text: str) -> Poly:
    """The polynomial of ``tokens`` (ending with ""), in one pass for +, -, *,
    ^ and parentheses.

    A product of numbers and variables is collected as one coefficient and
    one exponent vector, then added into its sum's ``{monomial: coefficient}``
    dict; only parenthesised factors are multiplied as polynomials.  ``stack``
    holds, for each open group, the sum and the term around it.
    """
    stack: list = []
    out: dict = {}  # the innermost open sum
    budget = MAX_TERMS
    tok, i = tokens[0], 1
    while True:  # a sum opens: its first term may carry a sign
        coeff, exps, group = 1, [0] * n_vars, None  # the sum's current term
        if tok == "+" or tok == "-":
            coeff, tok, i = (-1 if tok == "-" else 1), tokens[i], i + 1
        while True:  # one factor
            while tok == "-":
                coeff, tok, i = -coeff, tokens[i], i + 1
            if tok == "(":
                if len(stack) == MAX_DEPTH:
                    raise PolyParseError(f"more than {MAX_DEPTH} nested parentheses")
                stack.append((out, coeff, exps, group))
                out, tok, i = {}, tokens[i], i + 1
                break
            if tok in variables:
                kind, atom = "name", variables[tok]
            elif tok[:1].isdecimal():
                kind, atom = "number", _number(tok)
            elif tok[:1].isalpha() or tok[:1] == "_":
                raise PolyParseError(f"unknown variable {tok!r}")
            elif tok:
                raise PolyParseError(f"unexpected token {tok!r}")
            else:
                raise PolyParseError("unexpected end of input")
            while True:  # the factor's power, then what follows it
                tok, i, power = tokens[i], i + 1, 1
                if tok == "^":
                    power, tok, i = _exponent(tokens[i]), tokens[i + 1], i + 2
                if kind == "name":
                    exps[atom] += power
                elif kind == "number":
                    if power > 1:
                        _check_power((atom,), 0, power)
                    coeff *= atom**power
                else:
                    if power > 1:
                        bound = _check_power([c for _, c in atom.terms], atom.degree(), power)
                        what = f"^{power} of a {len(atom.terms)}-term factor"
                        budget = _spend(budget, bound, what)
                    if power != 1:
                        atom = atom**power
                    if group is not None:
                        terms = len(group.terms) * len(atom.terms)
                        budget = _spend(budget, terms, "a parenthesised product")
                    group = atom if group is None else group * atom
                if tok == "*":
                    break
                if group is None:  # the term ends: add it into the sum
                    key = tuple(exps)
                    out[key] = out[key] + coeff if key in out else coeff
                else:
                    for m, c in group.terms:
                        key, c = tuple(map(add, m, exps)), c * coeff
                        out[key] = out[key] + c if key in out else c
                if tok == "+" or tok == "-":
                    coeff, exps, group = (-1 if tok == "-" else 1), [0] * n_vars, None
                    break
                if tok == ")" and stack:  # the group is the factor of the term around it
                    kind, atom = "group", _from_dict(n_vars, out)
                    out, coeff, exps, group = stack.pop()
                    continue
                if stack:
                    raise PolyParseError("missing closing parenthesis")
                if tok:
                    raise PolyParseError(f"trailing input in {text!r}")
                return _from_dict(n_vars, out)
            tok, i = tokens[i], i + 1


def parse_poly(text: str, n_vars: int) -> Poly:
    """Parse an expression like ``"3/2*x*y^2 - z + 1"``.

    Variable names are x, y, z, w for up to four variables; the aliases
    x0, x1, ... are always accepted.  A character no token starts with is
    reported before any other error.
    """
    variables = {name: i for i, name in enumerate(default_var_names(n_vars))}
    for i in range(n_vars):
        variables.setdefault(f"x{i}", i)
    try:
        return _parse(_TOKEN.findall(text) + [""], n_vars, variables, text)
    except PolyParseError:
        _check_characters(text)
        raise


def coeff_distance(a: Poly, b: Poly) -> float:
    """Largest coefficient difference, as a float."""
    if a.n_vars != b.n_vars:
        raise ValueError("polynomials in different variable counts")
    diff = a - b
    if not diff.terms:
        return 0.0
    return max(abs(float(c)) for _, c in diff.terms)
