"""Release gate: the nine binding checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every check here is an oracle: frozen worked values, exact
rational identities, or independently computable linear algebra.
"""

import functools
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from dirac_reduce.action import (
    ActionSpec,
    CircleFactor,
    FiniteGroupRep,
    average_projector,
    default_quadrature_nodes,
    fixed_subspace,
    haar_average_section,
    isotropy,
    validate_action,
)
from dirac_reduce.cli import main
from dirac_reduce.lindirac import (
    backward_image,
    forward_image,
    is_lagrangian,
    max_self_pairing,
    pairing_matrix,
)
from dirac_reduce.poly import Poly, coeff_distance, parse_poly
from dirac_reduce.polyfield import (
    BivectorSpec,
    PolyTwoForm,
    TwoFormSpec,
    courant_bracket,
    d_function,
    d_oneform,
    dorfman_bracket,
    integrability_check,
    lie_bracket,
)
from dirac_reduce.reduction import (
    compare_routes,
    rank_report,
    reduce_isotropy_route,
    reduce_orbit_route,
    restrict_to_stratum,
)
from dirac_reduce.scenario import load_scenario, run_scenario, summarize
from dirac_reduce.subspace import Subspace, span

from helpers import (
    random_invertible,
    random_lagrangian,
    random_section,
    random_subspace,
    circle_action,
    product_action_r3,
    z2_reflection_action,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def criterion(number: int, label: str):
    """Print one verdict line per criterion, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number} ({label}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({label}): PASS")

        return run

    return wrap


@criterion(1, "lagrangian closure of images")
def test_criterion_1_image_closure():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for i in range(200):
        n = 1 + i % 5
        d = random_lagrangian(rng, n)
        m = int(rng.integers(1, 6))
        pulled = backward_image(rng.standard_normal((n, m)), d)
        assert is_lagrangian(pulled.space)
        assert max_self_pairing(pulled.space) < 1e-9
        k = 1 + int(rng.integers(n))
        while True:
            psi = rng.standard_normal((k, n))
            if np.linalg.svd(psi, compute_uv=False)[-1] > 0.1:
                break
        pushed = forward_image(psi, d)
        assert pushed.surjective and is_lagrangian(pushed.space)
        assert max_self_pairing(pushed.space) < 1e-9
    assert time.perf_counter() - start < 5.0


@criterion(2, "smooth-orthogonal calculus")
def test_criterion_2_orthogonal_identities():
    rng = np.random.default_rng(202)
    for i in range(200):
        n = 1 + i % 5
        j = pairing_matrix(n)
        s = random_subspace(rng, 2 * n, int(rng.integers(2 * n + 1)))
        twice = s.orthogonal_wrt_form(j).orthogonal_wrt_form(j)
        assert twice.distance(s) < 1e-9
        q = 1 + int(rng.integers(5))
        a = random_subspace(rng, q, int(rng.integers(q + 1)))
        b = random_subspace(rng, q, int(rng.integers(q + 1)))
        lhs = a.sum(b).annihilator()
        rhs = a.annihilator().intersect(b.annihilator())
        assert lhs.distance(rhs) < 1e-9


@criterion(3, "exact bracket calculus")
def test_criterion_3_symbolic_identities():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    pairs = []
    for i in range(55):
        n = 1 + i % 3
        pairs.append((random_section(rng, n, 3), random_section(rng, n, 3)))
    for a, b in pairs:  # 110 random sections in total
        n = a.base_dim
        skew = courant_bracket(a, b) + courant_bracket(b, a)
        assert all(p.is_zero() for p in skew.tangent.components)
        assert all(p.is_zero() for p in skew.covector.components)
        diff = dorfman_bracket(a, b) - courant_bracket(a, b)
        half_pairing = (a.covector.pair(b.tangent) + b.covector.pair(a.tangent)) * (
            Fraction(1, 2)
        )
        assert all(p.is_zero() for p in diff.tangent.components)
        assert diff.covector.components == d_function(half_pairing).components
        for f in (*a.covector.components, *b.covector.components):
            ddf = d_oneform(d_function(f))
            assert all(p.is_zero() for row in ddf.entries for p in row)
    for i in range(0, 54, 2):
        x, y = pairs[i][0].tangent, pairs[i][1].tangent
        z = pairs[i + 1][0].tangent
        if not (x.base_dim == y.base_dim == z.base_dim):
            continue
        jac = (
            lie_bracket(x, lie_bracket(y, z))
            + lie_bracket(y, lie_bracket(z, x))
            + lie_bracket(z, lie_bracket(x, y))
        )
        assert all(p.is_zero() for p in jac.components)
    assert time.perf_counter() - start < 10.0


@criterion(4, "integrability discrimination")
def test_criterion_4_integrability():
    rows = [["0", "z", "-y"], ["-z", "0", "x"], ["y", "-x", "0"]]
    lie_poisson = BivectorSpec(
        PolyTwoForm(tuple(tuple(parse_poly(e, 3) for e in r) for r in rows))
    )
    report = integrability_check(lie_poisson)
    assert report.ok and report.max_residual < 1e-9

    rows = [["0", "z", "0"], ["-z", "0", "0"], ["0", "0", "0"]]
    non_closed = TwoFormSpec(
        PolyTwoForm(tuple(tuple(parse_poly(e, 3) for e in r) for r in rows))
    )
    report = integrability_check(non_closed)
    assert not report.ok
    assert report.max_residual > 1e-3


@criterion(5, "averaging projector and quadrature stability")
def test_criterion_5_averaging():
    rng = np.random.default_rng(505)

    def householder_z2(n):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return validate_action(
            ActionSpec(n, FiniteGroupRep((np.eye(n), np.eye(n) - 2 * np.outer(v, v))))
        )

    def sign_z2(n):
        signs = np.where(rng.integers(2, size=n) == 0, -1.0, 1.0)
        if np.all(signs == 1.0):
            signs[0] = -1.0
        return validate_action(
            ActionSpec(n, FiniteGroupRep((np.eye(n), np.diag(signs))))
        )

    checked_doubling = 0
    for i in range(50):
        family = i % 5
        if family == 0:
            n = 1 + int(rng.integers(4))
            act = validate_action(ActionSpec(n, FiniteGroupRep.trivial(n)))
        elif family == 1:
            act = householder_z2(2 + int(rng.integers(3)))
        elif family == 2:
            act = sign_z2(2 + int(rng.integers(3)))
        elif family == 3:
            weights = ((1,), (2,), (1, 2))[int(rng.integers(3))]
            act = circle_action(weights, fixed_dim=int(rng.integers(2)))
        else:
            act = product_action_r3()
        while True:
            m = rng.uniform(-2.0, 2.0, act.n)
            try:
                h = isotropy(act, m)
                break
            except Exception:
                continue
        p = average_projector(h, act)
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.max(np.abs(p - p.T)) < 1e-12
        image = span(p, ambient_dim=act.n)
        assert image.distance(fixed_subspace(h, act)) < 1e-9
        if act.circle is not None:
            s = random_section(rng, act.n, 2)
            nodes = default_quadrature_nodes(act.circle, 2)
            once = haar_average_section(s, act, nodes=nodes)
            twice = haar_average_section(s, act, nodes=2 * nodes)
            drift = max(
                coeff_distance(a, b)
                for a, b in zip(
                    once.tangent.components + once.covector.components,
                    twice.tangent.components + twice.covector.components,
                )
            )
            assert drift < 1e-12
            checked_doubling += 1
    assert checked_doubling >= 10


@criterion(6, "worked reduction: circle with canonical Poisson")
def test_criterion_6_circle_canonical():
    act = circle_action((1,))
    pi = BivectorSpec(PolyTwoForm.from_constant(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    rng = np.random.default_rng(606)
    expected = span(np.array([[0.0, 1.0]]), ambient_dim=2)
    start = time.perf_counter()
    points = rng.uniform(0.4, 2.0, (20, 2)) * rng.choice([-1.0, 1.0], (20, 2))
    for m in points:
        _, image_a = reduce_isotropy_route(pi, act, m)
        _, image_b = reduce_orbit_route(pi, act, m)
        assert image_a.space.distance(expected) < 1e-8
        assert image_b.space.distance(expected) < 1e-8
        out = compare_routes(pi, act, m)
        assert out.agree and out.distance < 1e-8
    report = rank_report(pi, act, points)
    assert report.iq_all
    assert time.perf_counter() - start < 1.0


@criterion(7, "worked reduction: reflection with area form")
def test_criterion_7_reflection_area():
    act = z2_reflection_action()
    area = TwoFormSpec(PolyTwoForm.from_constant(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    expected = span(np.array([[1.0, 0.0]]), ambient_dim=2)
    points = [np.array([x, 0.0]) for x in np.linspace(0.2, 2.1, 20)]
    for m in points:
        d_q = restrict_to_stratum(area, act, m)
        assert d_q.space.distance(expected) < 1e-8
        out = compare_routes(area, act, m)
        assert out.agree and out.distance < 1e-8
    report = rank_report(area, act, points)
    assert len(report.classes) == 1 and report.all_constant


@criterion(8, "comparison theorem across scenario corpus")
def test_criterion_8_scenario_suite():
    files = (
        "circle_weight2_poisson.json",
        "z2_circle_r3_two_form.json",
        "dihedral_distribution.json",
    )
    for name in files:
        scenario = load_scenario(str(SCENARIO_DIR / name))
        report = run_scenario(scenario)
        summary = summarize(report)
        assert summary["invariance"] == "pass", name
        assert summary["rank_constant"], name
        assert summary["lagrangian_failures"] == 0, name
        assert summary["agreement_failures"] == 0, name
        assert summary["failures"] == 0, name
        assert summary["max_distance"] <= 1e-8, name
        ok_rows = [r for r in report.points if r.status == "ok"]
        assert ok_rows and all(r.agree for r in ok_rows), name


@criterion(9, "byte-identical reruns")
def test_criterion_9_determinism(capsys):
    args = [
        "run",
        str(SCENARIO_DIR / "circle_canonical_poisson.json"),
        "--format",
        "json",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first and first.encode() == second.encode()
    json.loads(first)
