"""Polynomial vector fields, one-forms, and Courant/Dorfman brackets.

Everything symbolic here is exact (rational coefficients); floating point
enters only when a field is evaluated at a point.  A Dirac structure field
is described by one of four specs (bivector graph, two-form graph, constant
distribution, explicit sections), each of which knows its canonical
generating sections and how to evaluate to a :class:`LinearDirac` fiber.

The structure's hypotheses, integrability and circle invariance, are
decided from the spec alone, with no sample points.  Each is a finite list
of identities of exact polynomials, decided with no tolerance: dW = 0 or
the Jacobi identity and L_xi W = 0 for a graph (bivector or two-form), and
for explicit sections the pairings and Courant tensor of the generating
sections.  A constant distribution is integrable, and its invariance is
one membership test of constant vectors, at a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Union

import numpy as np

from .lindirac import LinearDirac, from_distribution, graph_bases, lagrangian_flags
from .poly import Poly, _coerce, _from_dict, _linear, _unit
from .subspace import DEFAULT_TOL, Subspace, block_diagonal

__all__ = [
    "DegeneratePointError",
    "PolyVectorField",
    "PolyOneForm",
    "PolyTwoForm",
    "PolySection",
    "d_function",
    "d_oneform",
    "contract",
    "lie_bracket",
    "lie_derivative_oneform",
    "courant_bracket",
    "dorfman_bracket",
    "pushforward_section",
    "BivectorSpec",
    "TwoFormSpec",
    "DistributionSpec",
    "SectionsSpec",
    "DiracFieldSpec",
    "generating_sections",
    "evaluate_polys",
    "FiberStack",
    "evaluate_at",
    "evaluate_fibers",
    "BracketResidual",
    "CheckReport",
    "integrability_check",
    "infinitesimal_invariance",
]


class DegeneratePointError(ValueError):
    """Section values fail to span a Dirac fiber at a sample point."""


@dataclass(frozen=True)
class _Components:
    """Shared behaviour for tuple-of-polynomial objects."""

    components: tuple

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        n = len(comps)
        for c in comps:
            if not isinstance(c, Poly):
                raise TypeError("components must be Poly instances")
            if c.n_vars != n:
                raise ValueError(
                    f"component in {c.n_vars} variables inside a {n}-component field"
                )
        object.__setattr__(self, "components", comps)

    @property
    def base_dim(self) -> int:
        return len(self.components)

    def degree(self) -> int:
        return max((c.degree() for c in self.components), default=0)

    # componentwise linear structure
    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(tuple(a - b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return type(self)(tuple(-c for c in self.components))

    def __mul__(self, scalar):
        return type(self)(tuple(c * scalar for c in self.components))

    __rmul__ = __mul__

    @classmethod
    def zero(cls, n: int):
        return cls(tuple(Poly.zero(n) for _ in range(n)))

    @classmethod
    def from_constant(cls, values):
        values = list(values)
        n = len(values)
        return cls(
            tuple(Poly.constant(_coerce(v), n) for v in values)
        )

    @classmethod
    def from_linear(cls, matrix):
        """The linear object x -> M x (componentwise M[i] . x)."""
        rows = [[_coerce(entry) for entry in row] for row in matrix]
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("linear coefficient matrix must be square")
        return cls(tuple(_linear(row) for row in rows))


class PolyVectorField(_Components):
    """Vector field on R^n with polynomial components."""


class PolyOneForm(_Components):
    """One-form on R^n with polynomial components."""

    def pair(self, field: PolyVectorField) -> Poly:
        """The function alpha(X)."""
        if field.base_dim != self.base_dim:
            raise ValueError("one-form and field live on different spaces")
        total = Poly.zero(self.base_dim)
        for a, x in zip(self.components, field.components):
            total = total + a * x
        return total


@dataclass(frozen=True)
class PolyTwoForm:
    """Antisymmetric n x n matrix of polynomials.

    The same container serves two-forms and bivectors; the contraction
    convention (i_X W)_j = sum_i X_i W_ij fixes the interpretation.
    """

    entries: tuple

    def __post_init__(self) -> None:
        rows = tuple(tuple(row) for row in self.entries)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("entries must form a square matrix")
            for j, p in enumerate(row):
                if not isinstance(p, Poly):
                    raise TypeError("entries must be Poly instances")
                if p.n_vars != n:
                    raise ValueError(
                        f"entry ({i},{j}) has {p.n_vars} variables, expected {n}"
                    )
        for i in range(n):
            for j in range(i, n):
                if not (rows[i][j] + rows[j][i]).is_zero():
                    raise ValueError(
                        f"entries ({i},{j}) and ({j},{i}) are not antisymmetric"
                    )
        object.__setattr__(self, "entries", rows)

    @property
    def base_dim(self) -> int:
        return len(self.entries)

    @classmethod
    def zero(cls, n: int) -> "PolyTwoForm":
        z = Poly.zero(n)
        return cls(tuple(tuple(z for _ in range(n)) for _ in range(n)))

    @classmethod
    def from_constant(cls, matrix) -> "PolyTwoForm":
        rows = [list(row) for row in matrix]
        n = len(rows)
        return cls(
            tuple(
                tuple(Poly.constant(_coerce(entry), n) for entry in row)
                for row in rows
            )
        )

    def evaluate_stack(self, points: np.ndarray) -> np.ndarray:
        """The matrix at each point of a stack (N, n), as (N, n, n); see
        :func:`evaluate_polys`."""
        n = self.base_dim
        values = evaluate_polys([p for row in self.entries for p in row], points)
        return values.T.reshape(len(points), n, n)


@dataclass(frozen=True)
class PolySection:
    """A section (X, alpha) of TM + T*M with polynomial components."""

    tangent: PolyVectorField
    covector: PolyOneForm

    def __post_init__(self) -> None:
        if self.tangent.base_dim != self.covector.base_dim:
            raise ValueError("tangent and covector parts have different dimensions")

    @property
    def base_dim(self) -> int:
        return self.tangent.base_dim

    def __add__(self, other: "PolySection") -> "PolySection":
        return PolySection(self.tangent + other.tangent, self.covector + other.covector)

    def __sub__(self, other: "PolySection") -> "PolySection":
        return PolySection(self.tangent - other.tangent, self.covector - other.covector)

    def __neg__(self) -> "PolySection":
        return PolySection(-self.tangent, -self.covector)

    def __mul__(self, scalar) -> "PolySection":
        return PolySection(self.tangent * scalar, self.covector * scalar)

    __rmul__ = __mul__


def _float_power(v: float, e: int) -> float:
    try:
        return v**e
    except OverflowError:
        return math.inf


def evaluate_polys(polys, points: np.ndarray) -> np.ndarray:
    """Each of ``polys`` at each point of a stack (N, n), as (len(polys), N).

    Every value is the float arithmetic of :meth:`Poly.evaluate`, bit for
    bit: the powers are Python's ``float ** int`` (numpy's vectorised pow
    rounds differently), each term is multiplied left to right, and the terms
    are accumulated in canonical order (np.cumsum; np.sum would sum pairwise).
    A value beyond the float range raises OverflowError naming the first such
    point in input order, without a numpy warning.
    """
    points = np.asarray(points, dtype=float)
    columns = points.T.tolist()
    ones = np.ones(len(points))
    powers: dict = {}  # (variable, exponent) -> its values at the points
    out = np.zeros((len(polys), len(points)))
    with np.errstate(over="ignore", invalid="ignore"):
        for row, poly in zip(out, polys):
            keys, terms = poly._float_terms
            if not terms:
                continue
            for i, e in keys:
                if (i, e) not in powers:
                    powers[i, e] = np.array([_float_power(v, e) for v in columns[i]])
            table = np.stack([powers[key] for key in keys] + [ones])
            width = max(1, max(len(factors) for _, factors in terms))
            index = np.array([f + (len(keys),) * (width - len(f)) for _, f in terms])
            values = np.array([c for c, _ in terms])[:, None] * table[index[:, 0]]
            for k in range(1, width):
                values *= table[index[:, k]]
            # Poly.evaluate sums from 0, so its total is never -0.0; cumsum starts
            # from the first term, and adding 0.0 turns its -0.0 into that 0.0
            row[:] = np.cumsum(values, axis=0)[-1] + 0.0
    finite = np.isfinite(out).all(axis=0)
    if not finite.all():
        point = tuple(points[int(np.argmin(finite))].tolist())
        raise OverflowError(f"polynomial value at point {point} is out of the float range")
    return out


# -- exterior calculus ----------------------------------------------------


def d_function(f: Poly) -> PolyOneForm:
    """df, componentwise partial derivatives."""
    return PolyOneForm(tuple(f.partial(i) for i in range(f.n_vars)))


def d_oneform(alpha: PolyOneForm) -> PolyTwoForm:
    """(d alpha)_ij = d_i alpha_j - d_j alpha_i."""
    n = alpha.base_dim
    comps = alpha.components
    return PolyTwoForm(
        tuple(
            tuple(comps[j].partial(i) - comps[i].partial(j) for j in range(n))
            for i in range(n)
        )
    )


def contract(field: PolyVectorField, form: PolyTwoForm) -> PolyOneForm:
    """(i_X W)_j = sum_i X_i W_ij."""
    n = field.base_dim
    if form.base_dim != n:
        raise ValueError("field and two-form live on different spaces")
    out = []
    for j in range(n):
        total = Poly.zero(n)
        for i in range(n):
            total = total + field.components[i] * form.entries[i][j]
        out.append(total)
    return PolyOneForm(tuple(out))


def lie_bracket(x: PolyVectorField, y: PolyVectorField) -> PolyVectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i."""
    n = x.base_dim
    if y.base_dim != n:
        raise ValueError("fields live on different spaces")
    out = []
    for i in range(n):
        total = Poly.zero(n)
        for j in range(n):
            total = total + x.components[j] * y.components[i].partial(j)
            total = total - y.components[j] * x.components[i].partial(j)
        out.append(total)
    return PolyVectorField(tuple(out))


def lie_derivative_oneform(x: PolyVectorField, alpha: PolyOneForm) -> PolyOneForm:
    """Cartan formula: L_X alpha = i_X d(alpha) + d(alpha(X))."""
    return contract(x, d_oneform(alpha)) + d_function(alpha.pair(x))


def courant_bracket(s1: PolySection, s2: PolySection) -> PolySection:
    """([X,Y], L_X beta - L_Y alpha + 1/2 d(alpha(Y) - beta(X)))."""
    x, alpha = s1.tangent, s1.covector
    y, beta = s2.tangent, s2.covector
    vec = lie_bracket(x, y)
    correction = alpha.pair(y) - beta.pair(x)
    form = (
        lie_derivative_oneform(x, beta)
        - lie_derivative_oneform(y, alpha)
        + Fraction(1, 2) * d_function(correction)
    )
    return PolySection(vec, form)


def dorfman_bracket(s1: PolySection, s2: PolySection) -> PolySection:
    """([X,Y], L_X beta - i_Y d(alpha))."""
    x, alpha = s1.tangent, s1.covector
    y, beta = s2.tangent, s2.covector
    vec = lie_bracket(x, y)
    form = lie_derivative_oneform(x, beta) - contract(y, d_oneform(alpha))
    return PolySection(vec, form)


# -- push-forwards along orthogonal matrices --------------------------------


def _fraction_matrix(matrix) -> list[list[int | Fraction]]:
    """The rows of the orthogonal ``matrix`` as exact coefficients in normal
    form (see :func:`dirac_reduce.poly._coerce`)."""
    rows = [[_coerce(entry) for entry in row] for row in matrix]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    approx = np.array([[float(e) for e in row] for row in rows])
    if n and np.max(np.abs(approx.T @ approx - np.eye(n))) > 1e-9:
        raise ValueError("push-forward is only defined for orthogonal matrices")
    return rows


def _pushforward_components(rows, comps):
    """g^T . C(g x) for components C, exact in the entries of g."""
    n = len(rows)
    composed = [c.subs_linear(rows) for c in comps]
    out = []
    for i in range(n):
        total = Poly.zero(n)
        for j in range(n):
            if rows[j][i]:
                total = total + rows[j][i] * composed[j]
        out.append(total)
    return tuple(out)


def pushforward_section(matrix, section: PolySection) -> PolySection:
    """(Phi_g)_* s at m, i.e. g^T s(g m) in both parts, for orthogonal g: a
    one-form moves by the same formula as a field since g^{-T} = g."""
    rows = _fraction_matrix(matrix)
    if len(rows) != section.base_dim:
        raise ValueError("matrix and section dimensions differ")
    return PolySection(
        PolyVectorField(_pushforward_components(rows, section.tangent.components)),
        PolyOneForm(_pushforward_components(rows, section.covector.components)),
    )


# -- Dirac field specifications ---------------------------------------------


@dataclass(frozen=True)
class BivectorSpec:
    """Graph of a bivector: sections (Pi e_i, e_i)."""

    matrix: PolyTwoForm

    @property
    def base_dim(self) -> int:
        return self.matrix.base_dim


@dataclass(frozen=True)
class TwoFormSpec:
    """Graph of a two-form: sections (e_i, i_{e_i} W)."""

    matrix: PolyTwoForm

    @property
    def base_dim(self) -> int:
        return self.matrix.base_dim


@dataclass(frozen=True)
class DistributionSpec:
    """Constant Dirac structure Delta + ann(Delta)."""

    subspace: Subspace

    @property
    def base_dim(self) -> int:
        return self.subspace.ambient_dim


@dataclass(frozen=True)
class SectionsSpec:
    """Explicit generating sections, with a basepoint certifying rank n."""

    sections: tuple
    basepoint: tuple

    def __post_init__(self) -> None:
        sections = tuple(self.sections)
        if not sections:
            raise ValueError("sections variant needs at least one section")
        n = sections[0].base_dim
        if any(s.base_dim != n for s in sections):
            raise ValueError("sections live on different spaces")
        if len(sections) != n:
            raise ValueError(f"expected {n} sections, got {len(sections)}")
        basepoint = tuple(float(c) for c in self.basepoint)
        if len(basepoint) != n:
            raise ValueError("basepoint has the wrong number of coordinates")
        object.__setattr__(self, "sections", sections)
        object.__setattr__(self, "basepoint", basepoint)
        evaluate_at(self, basepoint)  # raises DegeneratePointError if rank < n

    @property
    def base_dim(self) -> int:
        return self.sections[0].base_dim


DiracFieldSpec = Union[BivectorSpec, TwoFormSpec, DistributionSpec, SectionsSpec]


def generating_sections(spec: DiracFieldSpec) -> tuple:
    """Canonical polynomial sections spanning the structure pointwise."""
    n = spec.base_dim
    if isinstance(spec, BivectorSpec):
        out = []
        for i in range(n):
            column = PolyVectorField(
                tuple(spec.matrix.entries[j][i] for j in range(n))
            )
            out.append(PolySection(column, PolyOneForm.from_constant(_unit(i, n))))
        return tuple(out)
    if isinstance(spec, TwoFormSpec):
        out = []
        for i in range(n):
            row = PolyOneForm(tuple(spec.matrix.entries[i][j] for j in range(n)))
            out.append(PolySection(PolyVectorField.from_constant(_unit(i, n)), row))
        return tuple(out)
    if isinstance(spec, DistributionSpec):
        out = []
        for v in spec.subspace.basis:
            out.append(
                PolySection(PolyVectorField.from_constant(v), PolyOneForm.zero(n))
            )
        for w in spec.subspace.annihilator().basis:
            out.append(
                PolySection(PolyVectorField.zero(n), PolyOneForm.from_constant(w))
            )
        return tuple(out)
    if isinstance(spec, SectionsSpec):
        return spec.sections
    raise TypeError(f"not a Dirac field spec: {type(spec).__name__}")


@dataclass(frozen=True, eq=False)
class FiberStack:
    """D(m) at each point of a sample: ``bases`` (N, n, 2n) holds the
    orthonormal rows of each fiber, and ``errors[i]`` the
    DegeneratePointError raised at point i (None elsewhere), whose rows are
    then zero.  Indexing gives one point's LinearDirac, or its error."""

    bases: np.ndarray
    errors: tuple
    tol: float

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i: int):
        if self.errors[i] is not None:
            return self.errors[i]
        n = self.bases.shape[-2]
        return LinearDirac(n, Subspace(2 * n, self.bases[i], self.tol))


def _distribution_fiber(spec: DistributionSpec, tol: float):
    """Delta at ``tol``, and the orthonormal rows of its constant fiber
    Delta + ann(Delta)."""
    delta = spec.subspace
    if delta.tol != tol:
        delta = Subspace(delta.ambient_dim, delta.basis, tol)
    return delta, from_distribution(delta).space.basis


def evaluate_fibers(spec: DiracFieldSpec, points, tol: float = DEFAULT_TOL) -> FiberStack:
    """D(m) at each point of the stack ``points`` (N, n), in order, (0, n)
    included; where the sections degenerate, the DegeneratePointError raised
    there takes the fiber's place.  A graph is evaluated at all points at
    once (:func:`evaluate_polys`) and its fibers are one stacked
    :func:`.lindirac.graph_bases`; a distribution's fiber is the same at
    every point.  Sections are evaluated at all points at once and spanned
    by one stacked SVD with the rank rule of :func:`.subspace.orthonormal_rows`;
    a non-Lagrangian span is degenerate."""
    n = spec.base_dim
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != n:
        raise ValueError(f"points of shape {points.shape}, expected (N, {n})")
    count = len(points)
    if isinstance(spec, _GRAPH_SPECS):
        kind = "bivector" if isinstance(spec, BivectorSpec) else "two-form"
        bases = graph_bases(spec.matrix.evaluate_stack(points), tol, kind)
        return FiberStack(bases, (None,) * count, tol)
    if isinstance(spec, DistributionSpec):
        basis = _distribution_fiber(spec, tol)[1]
        return FiberStack(np.broadcast_to(basis, (count, *basis.shape)), (None,) * count, tol)
    if isinstance(spec, SectionsSpec):
        polys = [c for x in spec.sections for c in x.tangent.components + x.covector.components]
        values = evaluate_polys(polys, points).T.reshape(count, n, 2 * n)
        _, sv, vh = np.linalg.svd(values, full_matrices=False)
        ranks = (sv > tol * sv[..., :1]).sum(axis=-1)
        dirac = (ranks == n) & lagrangian_flags(vh, tol)
        errors = tuple(
            None if ok else DegeneratePointError(
                f"sections span a rank-{rank} non-Dirac space at point {tuple(point)}"
            )
            for ok, rank, point in zip(dirac.tolist(), ranks.tolist(), points.tolist())
        )
        return FiberStack(np.where(dirac[:, None, None], vh, 0.0), errors, tol)
    raise TypeError(f"not a Dirac field spec: {type(spec).__name__}")


def evaluate_at(spec: DiracFieldSpec, point, tol: float = DEFAULT_TOL) -> LinearDirac:
    """The fiber D(m) as a LinearDirac: :func:`evaluate_fibers` on a stack of
    one, raising its DegeneratePointError."""
    fiber = evaluate_fibers(spec, [point], tol)[0]
    if isinstance(fiber, DegeneratePointError):
        raise fiber
    return fiber


# -- integrability and invariance checks ---------------------------------------


@dataclass(frozen=True)
class BracketResidual:
    """One failure of a check: the tensor component or section at fault
    (``index``) and its residual (for an exact check, the component's
    largest |coefficient|)."""

    index: tuple
    residual: float


@dataclass(frozen=True)
class CheckReport:
    """Verdict of one check; ``method`` is ``"exact"`` (polynomial
    identities, failing on any nonzero coefficient, so ``tol`` is 0) or
    ``"linear"`` (a constant distribution's membership test at ``tol``)."""

    kind: str
    method: str
    ok: bool
    tol: float
    max_residual: float
    failures: tuple


_GRAPH_SPECS = (BivectorSpec, TwoFormSpec)


def _exact_check(kind, components) -> CheckReport:
    """The identity holds iff every ``(index, poly)`` is the zero polynomial."""
    failures = tuple(
        BracketResidual(index, float(max(abs(c) for _, c in poly.terms)))
        for index, poly in components
        if not poly.is_zero()
    )
    return CheckReport(
        kind=kind,
        method="exact",
        ok=not failures,
        tol=0.0,
        max_residual=max((f.residual for f in failures), default=0.0),
        failures=failures,
    )


def _closure_components(spec):
    """``((i, j, k), poly)`` for i < j < k: dW for a two-form W,
    d_i W_jk + d_j W_ki + d_k W_ij; the Jacobiator for a bivector,
    sum over the cyclic (i, j, k) of sum_l W_il d_l W_jk."""
    n = spec.base_dim
    w = spec.matrix.entries
    for i, j, k in combinations(range(n), 3):
        cyclic = ((i, j, k), (j, k, i), (k, i, j))
        if isinstance(spec, TwoFormSpec):
            yield (i, j, k), sum((w[b][c].partial(a) for a, b, c in cyclic), Poly.zero(n))
        else:
            yield (i, j, k), sum(
                (w[a][l] * w[b][c].partial(l) for a, b, c in cyclic for l in range(n)),
                Poly.zero(n),
            )


def _lie_derivative_components(spec, generator):
    """``((i, j), poly)`` for i < j: (L_xi W)_ij for xi = A x, A = ``generator``:
    xi.grad W + A^T W + W A for a two-form W, xi.grad W - A W - W A^T for
    a bivector.  A circle generator is antisymmetric, so -A^T = A and both
    read xi.grad W + A^T W + W A.  xi.grad = sum A_kl x_l d_k maps each
    term to one monomial per nonzero A_kl, so it is summed term by term
    into one dict per component."""
    n = spec.base_dim
    w = spec.matrix.entries
    a = [[_coerce(e) for e in row] for row in generator]
    flow = [(k, l, a[k][l]) for k in range(n) for l in range(n) if a[k][l]]
    for i, j in combinations(range(n), 2):
        out: dict = {}
        for m, c in w[i][j].terms:
            for k, l, akl in flow:
                if m[k]:
                    e = list(m)
                    e[k] -= 1
                    e[l] += 1
                    key = tuple(e)
                    out[key] = out.get(key, 0) + akl * m[k] * c
        for k in range(n):
            for coeff, entry in ((a[k][i], w[k][j]), (a[k][j], w[i][k])):
                if coeff:
                    for m, c in entry.terms:
                        out[m] = out.get(m, 0) + coeff * c
        yield (i, j), _from_dict(n, out)


def _pairing(s1: PolySection, s2: PolySection) -> Poly:
    """<(X, alpha), (Y, beta)> = alpha(Y) + beta(X)."""
    return s1.covector.pair(s2.tangent) + s2.covector.pair(s1.tangent)


def _sections_closure_components(sections):
    """``((i, j), <s_i, s_j>)`` for i <= j (isotropy), then
    ``((i, j, k), <[s_i, s_j], s_k>)`` for i < j < k (the Courant tensor).
    The sections span D on a dense open set (a SectionsSpec's basepoint
    certifies rank n there), so D is Lagrangian exactly when the pairings
    vanish, and a Lagrangian D is integrable exactly when the tensor, which
    is then totally antisymmetric, vanishes (Courant, Dirac manifolds)."""
    n = len(sections)
    for i in range(n):
        for j in range(i, n):
            yield (i, j), _pairing(sections[i], sections[j])
    for i, j in combinations(range(n - 1), 2):
        bracket = courant_bracket(sections[i], sections[j])
        for k in range(j + 1, n):
            yield (i, j, k), _pairing(bracket, sections[k])


def _linear_invariance(spec: DistributionSpec, generator, tol: float) -> CheckReport:
    """A Delta in Delta for a distribution and xi = A x: the Lie derivative
    of each generating section, (v, 0) or (0, w), is the constant (-A v, 0)
    or (0, A^T w), and it must lie in the constant fiber, within ``tol``
    relative to max(1, its norm)."""
    delta, basis = _distribution_fiber(spec, tol)
    a = np.asarray(generator, dtype=float)
    derived = block_diagonal(-delta.basis @ a.T, delta.annihilator().basis @ a)
    defect = np.linalg.norm(derived - derived @ basis.T @ basis, axis=-1)
    residuals = (defect / np.maximum(1.0, np.linalg.norm(derived, axis=-1))).tolist()
    failures = tuple(BracketResidual((k,), r) for k, r in enumerate(residuals) if r > tol)
    worst = max(residuals, default=0.0)
    return CheckReport("invariance", "linear", not failures, tol, worst, failures)


def integrability_check(spec: DiracFieldSpec) -> CheckReport:
    """Whether the structure is closed under the Courant bracket, decided
    exactly from the spec: dW = 0 or [W, W] = 0 for a two-form or bivector
    graph (:func:`_closure_components`); the pairings and Courant tensor of
    the sections (:func:`_sections_closure_components`); a constant
    distribution is always integrable, as every bracket of constant sections
    vanishes."""
    if isinstance(spec, _GRAPH_SPECS):
        return _exact_check("integrability", _closure_components(spec))
    if isinstance(spec, DistributionSpec):
        return _exact_check("integrability", ())
    return _exact_check("integrability", _sections_closure_components(generating_sections(spec)))


def infinitesimal_invariance(spec: DiracFieldSpec, action, tol: float = DEFAULT_TOL) -> CheckReport:
    """Whether the structure is invariant under the circle generator xi = A x.

    ``action`` only needs a ``circle`` attribute (or None); finite factors
    contribute nothing infinitesimal, so an action without a circle passes
    vacuously.  For a graph it is L_xi W = 0 (:func:`_lie_derivative_components`)
    and for sections <L_xi s_i, s_k> = 0 for all i, k, index (i, k), with
    L_xi s the Dorfman bracket of (xi, 0) and s, both decided exactly; ``tol``
    is used only for a distribution, whose invariance A Delta in Delta is
    :func:`_linear_invariance`.
    """
    circle = getattr(action, "circle", None)
    if circle is None:
        return _exact_check("invariance", ())
    if isinstance(spec, _GRAPH_SPECS):
        return _exact_check("invariance", _lie_derivative_components(spec, circle.generator()))
    if isinstance(spec, DistributionSpec):
        return _linear_invariance(spec, circle.generator(), tol)
    sections = generating_sections(spec)
    xi = PolyVectorField.from_linear(circle.generator())
    derived = [dorfman_bracket(PolySection(xi, PolyOneForm.zero(xi.base_dim)), s) for s in sections]
    return _exact_check(
        "invariance",
        (((i, k), _pairing(d, s)) for i, d in enumerate(derived) for k, s in enumerate(sections)),
    )
