"""Seeded generators for the benchmark's three workloads.

Each generator returns ``(scenario, expect)``: a ``dirac-reduce/1`` scenario
document, which is all the program receives, and the summary counts a
correct run must report for it (``points``, ``skipped``).  Every generator
asserts its own construction before returning.  The generators share no
code with the package under test: polynomials are built here with plain
integer arithmetic and written out as strings.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

VERSION = "dirac-reduce/1"

# The program's isotropy guard band (README "Scenario format"): a residual
# |f m - m| is "fixed" below tol * max(|m|, 1) and undecidable up to 1000
# times that.  The orbit-types generator places points on both sides of it.
RANK_TOL = 1e-9
GUARD_FACTOR = 1000.0


# -- integer polynomials -------------------------------------------------------
# A polynomial is a dict {exponent tuple: nonzero int}.


def _padd(*polys):
    out = {}
    for p in polys:
        for e, c in p.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _pscale(p, k):
    return {e: c * k for e, c in p.items()} if k else {}


def _pmul(p, q):
    out = {}
    for (e1, c1), (e2, c2) in itertools.product(p.items(), q.items()):
        e = tuple(a + b for a, b in zip(e1, e2))
        out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _pderiv(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
    return out


def _pstr(p, names):
    if not p:
        return "0"
    pieces = []
    for e in sorted(p, reverse=True):
        c = p[e]
        factors = [n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k]
        if not factors:
            body = str(abs(c))
        elif abs(c) == 1:
            body = "*".join(factors)
        else:
            body = f"{abs(c)}*" + "*".join(factors)
        pieces.append(("-" if c < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {s} {b}" for s, b in pieces[1:])


def _peval(p, point):
    return sum(c * math.prod(x**k for x, k in zip(point, e)) for e, c in p.items())


def _var(i, n):
    return {tuple(int(j == i) for j in range(n)): 1}


# -- strata-dense ----------------------------------------------------------------


def strata_dense(seed: int, scale: float = 1.0):
    """Z2 x circle on R^3 (weight 1, one fixed coordinate) with dx^dy.

    Explicit points on every stratum (generic, the plane z=0, the z-axis,
    the origin) plus seeded generic points, all kept well clear of the
    strata boundaries so that no point is skipped.
    """
    rng = np.random.default_rng([seed, 1])
    per_stratum = max(1, round(8 * scale))
    generic_count = max(1, round(230 * scale))
    points = [[0.0, 0.0, 0.0]]
    for _ in range(per_stratum):
        r, phi, z = rng.uniform(0.3, 2.0), rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 2.0)
        x, y = r * math.cos(phi), r * math.sin(phi)
        sign = rng.choice([-1.0, 1.0])
        points += [[x, y, sign * z], [x, y, 0.0], [0.0, 0.0, sign * z]]
    while len(points) < 1 + 3 * per_stratum + generic_count:
        m = rng.uniform(-2.0, 2.0, size=3)
        if math.hypot(m[0], m[1]) > 0.05 and abs(m[2]) > 0.05:
            points.append(m.tolist())
    omega = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]
    assert omega == [[-v for v in col] for col in zip(*omega)], "omega not antisymmetric"
    scenario = {
        "version": VERSION,
        "n": 3,
        "dirac": {"two_form": omega},
        "action": {
            "finite": [np.eye(3).tolist(), np.diag([1.0, 1.0, -1.0]).tolist()],
            "circle": {"weights": [1], "fixed_dim": 1},
        },
        "samples": {"explicit": points},
    }
    return scenario, {"points": len(points), "skipped": 0}


# -- exact-symbolic --------------------------------------------------------------


def _circle_invariants():
    """Generators of the polynomial invariants of the weight-(1, 2) circle
    on C^2 = R^4, z1 = x + iy, z2 = z + iw: |z1|^2, |z2|^2 and the real and
    imaginary parts of z1^2 conj(z2)."""
    x, y, z, w = (_var(i, 4) for i in range(4))
    re_sq = _padd(_pmul(x, x), _pscale(_pmul(y, y), -1))  # Re z1^2
    im_sq = _pscale(_pmul(x, y), 2)  # Im z1^2
    return [
        _padd(_pmul(x, x), _pmul(y, y)),
        _padd(_pmul(z, z), _pmul(w, w)),
        _padd(_pmul(re_sq, z), _pmul(im_sq, w)),
        _padd(_pmul(im_sq, z), _pscale(_pmul(re_sq, w), -1)),
    ]


# Which products of invariants make up g, h, p and q (indices into
# _circle_invariants).  Only the coefficients are drawn from the seed, so
# the size of every entry, and with it the work, is the same for all seeds.
PRODUCTS = (
    ((0, 2), (1, 3), (0, 1)),
    ((0, 3), (1, 2), (1, 1)),
    ((2,), (0, 0), (0, 1)),
    ((3,), (1, 2), (0,)),
)


def _invariant_polynomial(coefficients, invariants, products):
    """The sum of the given products of invariants with the given
    coefficients."""
    total = {}
    for c, product in zip(coefficients, products):
        term = {(0, 0, 0, 0): int(c)}
        for k in product:
            term = _pmul(term, invariants[k])
        total = _padd(total, term)
    return total


def _circle_rotation(theta):
    """The element at angle theta of the weight-(1, 2) circle on R^4."""
    out = np.zeros((4, 4))
    for j, k in enumerate((1, 2)):
        c, s = math.cos(k * theta), math.sin(k * theta)
        out[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
    return out


def exact_symbolic(seed: int, scale: float = 1.0):
    """omega = dg^dh + dp^dq on R^4 under the circle with weights [1, 2].

    g, h, p, q are fixed sums of products of the circle invariants with
    seeded coefficients, so omega is closed and circle-invariant by
    construction; its entries have degree up to 8.  19 points cover the
    free stratum, the plane z1 = 0 (isotropy Z2) and the origin.
    """
    rng = np.random.default_rng([seed, 2])
    invariants = _circle_invariants()
    # Distinct primes with seeded signs and order: no product of two
    # coefficients equals another, so no seed cancels terms by accident.
    primes = rng.permutation([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]) * rng.choice([-1, 1], 12)
    g, h, p, q = (
        _invariant_polynomial(primes[3 * i : 3 * i + 3], invariants, products)
        for i, products in enumerate(PRODUCTS)
    )
    grads = [[_pderiv(f, i) for i in range(4)] for f in (g, h, p, q)]
    omega = [
        [
            _padd(
                _pmul(grads[0][i], grads[1][j]), _pscale(_pmul(grads[0][j], grads[1][i]), -1),
                _pmul(grads[2][i], grads[3][j]), _pscale(_pmul(grads[2][j], grads[3][i]), -1),
            )
            for j in range(4)
        ]
        for i in range(4)
    ]
    for i, j in itertools.product(range(4), repeat=2):
        assert omega[i][j] == _pscale(omega[j][i], -1), "omega not antisymmetric"
    assert any(omega[i][j] for i in range(4) for j in range(4)), "omega is zero"
    for inv in invariants:  # the invariants really are invariant
        m = rng.normal(size=4)
        assert math.isclose(
            _peval(inv, m), _peval(inv, _circle_rotation(0.7) @ m), rel_tol=1e-9, abs_tol=1e-12
        )

    count = max(1, round(6 * scale))
    points = [[0.0, 0.0, 0.0, 0.0]]
    while len(points) < 1 + count:
        m = rng.uniform(-1.2, 1.2, size=4)
        if math.hypot(m[0], m[1]) > 0.1 and math.hypot(m[2], m[3]) > 0.1:
            points.append(m.tolist())
    for _ in range(count):
        a, b = rng.uniform(0.3, 1.2, size=2) * rng.choice([-1.0, 1.0], size=2)
        points.append([0.0, 0.0, float(a), float(b)])  # z1 = 0: isotropy Z2
        a, b = rng.uniform(0.3, 1.2, size=2) * rng.choice([-1.0, 1.0], size=2)
        points.append([float(a), float(b), 0.0, 0.0])  # z2 = 0: free
    names = ["x", "y", "z", "w"]
    scenario = {
        "version": VERSION,
        "n": 4,
        "dirac": {"two_form": [[_pstr(e, names) for e in row] for row in omega]},
        "action": {"circle": {"weights": [1, 2], "fixed_dim": 0}},
        "samples": {"explicit": points},
    }
    return scenario, {"points": len(points), "skipped": 0}


# -- orbit-types -------------------------------------------------------------------


def cube_rotations():
    """The 24 rotations of the cube: signed permutation matrices with
    determinant 1, the identity first."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product([1, -1], repeat=3):
            m = np.zeros((3, 3))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            if round(np.linalg.det(m)) == 1:
                out.append(m)
    out.sort(key=lambda m: not np.array_equal(m, np.eye(3)))
    return out


# Rotation axes of the cube: 3 four-fold, 4 three-fold, 6 two-fold.
AXES = (
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    + [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
    + [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1)]
)


def _band(m):
    atol = RANK_TOL * max(float(np.linalg.norm(m)), 1.0)
    return atol, GUARD_FACTOR * atol


def orbit_types(seed: int, scale: float = 1.0):
    """The so(3) Lie-Poisson bivector under the rotation group of the cube.

    Points lie along every rotation axis (both directions, several radii),
    at the origin, at seeded generic positions, and, for each of the 13
    axes, once displaced 3e-8 off the axis: inside the isotropy guard band,
    so the program must report exactly those 13 points as skipped.
    """
    rng = np.random.default_rng([seed, 3])
    group = cube_rotations()
    assert len(group) == 24
    per_axis = max(1, round(3 * scale))
    on_axis, displaced, generic = [], [], []
    for axis in AXES:
        a = np.array(axis, dtype=float)
        for _ in range(per_axis):
            t = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0])
            on_axis.append((t * a).tolist())
        normal = np.cross(a, rng.normal(size=3))
        m = rng.uniform(0.5, 1.0) * a + 3e-8 * normal / np.linalg.norm(normal)
        atol, guard = _band(m)
        stabilizer = [f for f in group if np.array_equal(f @ a, a)]
        assert len(stabilizer) in (2, 3, 4)
        for f in stabilizer[1:]:
            residual = float(np.max(np.abs(f @ m - m)))
            assert 2 * atol < residual < guard / 2, "displaced point left the guard band"
        displaced.append(m.tolist())
    while len(generic) < max(1, round(230 * scale)):
        m = rng.uniform(-1.5, 1.5, size=3)
        _, guard = _band(m)
        if all(float(np.max(np.abs(f @ m - m))) > 100 * guard for f in group[1:]):
            generic.append(m.tolist())
    for m in on_axis:
        assert all(
            np.array_equal(f @ m, m) or float(np.max(np.abs(f @ m - m))) > 100 * _band(m)[1]
            for f in group
        ), "on-axis point near a guard band"
    lie_poisson = [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]]
    points = [[0.0, 0.0, 0.0]] + on_axis + displaced + generic
    scenario = {
        "version": VERSION,
        "n": 3,
        "dirac": {"bivector": lie_poisson},
        "action": {"finite": [f.tolist() for f in group]},
        "samples": {"explicit": points},
    }
    return scenario, {"points": len(points), "skipped": len(displaced)}


GENERATORS = {
    "strata-dense": strata_dense,
    "exact-symbolic": exact_symbolic,
    "orbit-types": orbit_types,
}


def write_workload(name: str, seed: int, directory: Path, scale: float = 1.0):
    """Generate a workload and write ``<name>-<seed>.json`` with its
    expectation beside it as ``<name>-<seed>.expect.json``.  Returns the
    scenario path and the expectation."""
    scenario, expect = GENERATORS[name](seed, scale)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}-{seed}.json"
    path.write_text(json.dumps(scenario) + "\n", encoding="utf-8")
    (directory / f"{name}-{seed}.expect.json").write_text(json.dumps(expect) + "\n", encoding="utf-8")
    return path, expect
