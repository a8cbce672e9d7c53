"""Exact integrability and circle-invariance checks, decided from the spec.

A graph spec's exact verdicts (dW = 0 or Jacobi, L_xi W = 0) are compared
with three references: the generic identities on its generating sections,
written here with the Dorfman bracket (``helpers.generic_verdicts``), the
sections check on ``SectionsSpec(generating_sections(spec), basepoint)``, and
sampled membership of the brackets and Lie derivatives of the generating
sections in the fiber at random points (``helpers.sampled_verdicts``).
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_reduce import polyfield
from dirac_reduce.action import haar_average_section
from dirac_reduce.cli import main
from dirac_reduce.poly import Poly, parse_poly
from dirac_reduce.polyfield import (
    BivectorSpec,
    DistributionSpec,
    PolyOneForm,
    PolySection,
    PolyTwoForm,
    PolyVectorField,
    SectionsSpec,
    TwoFormSpec,
    d_function,
    d_oneform,
    generating_sections,
    infinitesimal_invariance,
    integrability_check,
)
from dirac_reduce.scenario import (
    dirac_kind,
    emit_report,
    exit_code,
    load_scenario,
    run_scenario,
    summarize,
)
from dirac_reduce.subspace import span

from helpers import circle_action, generic_verdicts, random_poly, sampled_verdicts

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
TOL = 1e-9
R3_CIRCLE = circle_action((1,), fixed_dim=1)
# two rotation planes, so that both A^T W and W A enter L_xi W
R4_CIRCLE = circle_action((1, 2))


def verdicts(spec, action) -> tuple:
    """(integrability ok, invariance ok), both decided exactly."""
    integrability = integrability_check(spec)
    invariance = infinitesimal_invariance(spec, action, TOL)
    assert integrability.method == invariance.method == "exact"
    return integrability.ok, invariance.ok


def all_verdicts(spec, action, seed: int) -> list:
    """The graph check's verdicts, then those of its three references."""
    points = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(6, spec.base_dim))
    sections = generating_sections(spec)
    return [
        verdicts(spec, action),
        generic_verdicts(sections, action),
        verdicts(SectionsSpec(sections, (0.0,) * spec.base_dim), action),
        sampled_verdicts(spec, action, points, TOL),
    ]


def antisymmetric(entries: dict, n: int) -> PolyTwoForm:
    """The matrix with ``entries[(i, j)]`` at (i, j) and its negative at (j, i)."""
    rows = [[Poly.zero(n)] * n for _ in range(n)]
    for (i, j), p in entries.items():
        rows[i][j], rows[j][i] = p, -p
    return PolyTwoForm(tuple(map(tuple, rows)))


def compose(q: Poly, values) -> Poly:
    """q(values[0], values[1], ...) for polynomials ``values``."""
    out = Poly.zero(values[0].n_vars)
    for m, c in q.terms:
        term = Poly.constant(c, out.n_vars)
        for v, e in zip(values, m):
            term = term * v**e
        out = out + term
    return out


def perturbation(rng, n: int) -> PolyTwoForm:
    return antisymmetric({(i, j): random_poly(rng, n, 2, 2) for i in range(n) for j in range(i + 1, n)}, n)


def exact_form(rng, action, invariant: bool) -> PolyTwoForm:
    """d alpha for a random alpha, circle-averaged when ``invariant``."""
    n = action.n
    alpha = PolyOneForm(tuple(random_poly(rng, n, 3) for _ in range(n)))
    if invariant:
        alpha = haar_average_section(PolySection(PolyVectorField.zero(n), alpha), action).covector
    return d_oneform(alpha)


def poisson_bivector(rng, action, invariant: bool) -> PolyTwoForm:
    """A random Poisson bivector, circle-invariant when ``invariant``.

    On R^3: pi^{ij} = eps_ijk V_k for V = g grad h, which satisfies Jacobi
    for any g, h (V . curl V = 0); g, h functions of (x^2 + y^2, z) make
    it invariant.  On R^4: the product g(x, y) dx^dy + h(z, w) dz^dw;
    g, h functions of x^2 + y^2 and z^2 + w^2 make it invariant."""
    x = [Poly.variable(i, action.n) for i in range(action.n)]
    if action.n == 3:
        args = [x[0] ** 2 + x[1] ** 2, x[2]] if invariant else x
        g, h = (compose(random_poly(rng, len(args), 2), args) for _ in range(2))
        v = [g * c for c in d_function(h).components]
        return antisymmetric({(0, 1): v[2], (1, 2): v[0], (0, 2): -v[1]}, 3)
    planes = [[x[0] ** 2 + x[1] ** 2], [x[2] ** 2 + x[3] ** 2]] if invariant else [x[:2], x[2:]]
    g, h = (compose(random_poly(rng, len(args), 2), args) for args in planes)
    return antisymmetric({(0, 1): g, (2, 3): h}, 4)


def add(a: PolyTwoForm, b: PolyTwoForm) -> PolyTwoForm:
    return PolyTwoForm(
        tuple(tuple(p + q for p, q in zip(ra, rb)) for ra, rb in zip(a.entries, b.entries))
    )


GRAPHS = {"form": (TwoFormSpec, exact_form), "bivector": (BivectorSpec, poisson_bivector)}
DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    invariant=st.booleans(),
    kind=st.sampled_from(sorted(GRAPHS)),
    action=st.sampled_from([R3_CIRCLE, R4_CIRCLE]),
)


@settings(max_examples=40, deadline=None)
@given(**DRAWS)
def test_closed_graphs_pass_exactly_as_sampled(seed, invariant, kind, action):
    rng = np.random.default_rng(seed)
    spec_type, draw = GRAPHS[kind]
    spec = spec_type(draw(rng, action, invariant))
    out = all_verdicts(spec, action, seed)
    assert out[0][0]
    if invariant:
        assert out[0][1]
    assert out == [out[0]] * 4


@settings(max_examples=40, deadline=None)
@given(**DRAWS)
def test_perturbed_graphs_get_the_sampled_verdict(seed, invariant, kind, action):
    rng = np.random.default_rng(seed)
    spec_type, draw = GRAPHS[kind]
    spec = spec_type(add(draw(rng, action, invariant), perturbation(rng, action.n)))
    out = all_verdicts(spec, action, seed)
    assert out == [out[0]] * 4


def test_exact_failures_name_each_nonzero_component():
    # omega = z dx^dy: d omega = dx^dy^dz, one component, coefficient 1;
    # 3z dx^dy + x^2 dy^dz: d omega = (3 + 2x) dx^dy^dz
    om = antisymmetric({(0, 1): parse_poly("3*z", 3), (1, 2): parse_poly("x^2", 3)}, 3)
    report = integrability_check(TwoFormSpec(om))
    assert (report.method, report.ok, report.tol) == ("exact", False, 0.0)
    assert [(f.index, f.residual) for f in report.failures] == [((0, 1, 2), 3.0)]
    assert report.max_residual == 3.0
    # L_xi (x dx^dy) = -y dx^dy under the unit circle: one failing component
    report = infinitesimal_invariance(
        TwoFormSpec(antisymmetric({(0, 1): parse_poly("x", 2)}, 2)), circle_action((1,))
    )
    assert [(f.index, f.residual) for f in report.failures] == [((0, 1), 1.0)]


def test_jacobiator_of_a_non_poisson_bivector():
    # y d_x ^ d_y + d_y ^ d_z, i.e. V = (1, 0, y) with V . curl V = 1: the
    # Jacobiator's one component is pi^{21} d_y pi^{01} = -1
    pi = antisymmetric({(0, 1): parse_poly("y", 3), (1, 2): Poly.one(3)}, 3)
    report = integrability_check(BivectorSpec(pi))
    assert not report.ok and [f.index for f in report.failures] == [(0, 1, 2)]
    assert {out[0] for out in all_verdicts(BivectorSpec(pi), R3_CIRCLE, 0)} == {False}


def test_nonclosed_form_fails_the_run():
    """Integrability counts in the verdict: a non-closed, circle-invariant
    two-form reports one failure and exits 1."""
    report = run_scenario(load_scenario(str(SCENARIO_DIR / "nonclosed_circle_two_form.json")))
    summary = summarize(report)
    assert (summary["integrability"], summary["invariance"]) == ("fail", "pass")
    assert summary["lagrangian_failures"] == summary["agreement_failures"] == 0
    assert summary["failures"] == 1
    assert exit_code(report) == 1
    checks = json.loads(emit_report(report, "json"))["checks"]
    assert checks["integrability"]["failures"] == [{"index": [0, 1, 2], "point": None, "residual": 1.0}]
    assert set(checks) == {"integrability", "invariance"}


@pytest.mark.parametrize(
    "name", ["so3_lie_poisson.json", "circle_weight2_poisson.json", "z2_circle_r3_two_form.json"]
)
def test_graph_runs_build_no_brackets_or_averages(monkeypatch, name):
    def refuse(*args, **kwargs):
        raise AssertionError("bracket machinery called on a graph spec")

    for attr in ("courant_bracket", "lie_derivative_oneform"):
        monkeypatch.setattr(polyfield, attr, refuse)
    monkeypatch.setattr("dirac_reduce.action.haar_average_section", refuse)
    report = run_scenario(load_scenario(str(SCENARIO_DIR / name)))
    assert exit_code(report) == 0
    checks = json.loads(emit_report(report, "json"))["checks"]
    for check in checks.values():
        assert (check["method"], check["ok"], check["max_residual"]) == ("exact", True, 0.0)


def test_distribution_and_sections_are_exact():
    for name in ("dihedral_distribution.json", "sections_constant_poisson.json"):
        report = run_scenario(load_scenario(str(SCENARIO_DIR / name)))
        for check in (report.integrability, report.invariance):
            assert (check.method, check.ok, check.tol, check.max_residual) == ("exact", True, 0.0, 0.0)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
def test_checks_evaluate_no_polynomial_at_a_point(monkeypatch, name):
    """Both checks are decided from the spec: neither evaluates a polynomial."""
    s = load_scenario(str(SCENARIO_DIR / name))

    def refuse(*args, **kwargs):
        raise AssertionError("a hypothesis check evaluated a polynomial")

    monkeypatch.setattr(polyfield, "evaluate_polys", refuse)
    monkeypatch.setattr(Poly, "evaluate", refuse)
    integrability_check(s.dirac)
    infinitesimal_invariance(s.dirac, s.action, s.rank_tol)


@pytest.mark.parametrize(
    "name",
    sorted(
        p.name for p in SCENARIO_DIR.glob("*.json")
        if isinstance(load_scenario(str(p)).dirac, (BivectorSpec, TwoFormSpec))
    ),
)
def test_bundled_graphs_as_sections_fail_at_the_same_components(name):
    """A bundled graph written as its generating sections fails each check
    at the graph check's components: the tensor (i, j, k) where dW or the
    Jacobiator is nonzero, and the pairings (i, k) and (k, i) where
    (L_xi W)_ik is (nonclosed_circle_two_form at (0, 1, 2),
    rotation_noninvariant_form at (0, 1))."""
    s = load_scenario(str(SCENARIO_DIR / name))
    sections = SectionsSpec(generating_sections(s.dirac), (0.0,) * s.n)
    graph, generic = integrability_check(s.dirac), integrability_check(sections)
    assert [f.index for f in generic.failures] == [f.index for f in graph.failures]
    graph = infinitesimal_invariance(s.dirac, s.action, s.rank_tol)
    generic = infinitesimal_invariance(sections, s.action, s.rank_tol)
    assert {tuple(sorted(f.index)) for f in generic.failures} == {f.index for f in graph.failures}
    assert len(generic.failures) == 2 * len(graph.failures)


def _distribution(*rows) -> DistributionSpec:
    return DistributionSpec(span(np.array(rows, dtype=float), ambient_dim=len(rows[0])))


@pytest.mark.parametrize(
    "rows, invariant",
    [
        # span{e1, e2, e3 + e4}: the rotated plane plus a fixed line, with a
        # basis from an SVD whose pairings leave float residues of about 1e-16
        (((1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1)), True),
        (((1, 0, 0, 0),), False),  # the circle moves e1 to e2
    ],
)
def test_distribution_invariance_is_linear(rows, invariant):
    spec, action = _distribution(*rows), circle_action((1,), fixed_dim=2)
    report = infinitesimal_invariance(spec, action, TOL)
    assert (report.method, report.ok, report.tol) == ("linear", invariant, TOL)
    assert (report.max_residual <= 1e-15) == invariant
    points = np.random.default_rng(5).uniform(-1.5, 1.5, size=(6, 4))
    assert sampled_verdicts(spec, action, points, TOL) == (True, invariant)
    integrability = integrability_check(spec)
    assert (integrability.method, integrability.ok) == ("exact", True)


def test_non_dirac_sections_fail_integrability_at_the_pairing(tmp_path, capsys):
    """(e1, x dx) and (e2, 0) pair to <s0, s0> = 2x: no Dirac structure,
    although the basepoint (0, 1) has rank 2.  The run exits 1 with the
    integrability failure at index [0, 0]."""
    data = {
        "version": "dirac-reduce/1",
        "n": 2,
        "dirac": {
            "sections": [
                {"tangent": ["1", "0"], "covector": ["x", "0"]},
                {"tangent": ["0", "1"], "covector": ["0", "0"]},
            ],
            "basepoint": [0.0, 1.0],
        },
        "action": {"finite": [[[1, 0], [0, 1]], [[1, 0], [0, -1]]]},
        "samples": {"random": {"count": 8, "seed": 1, "box": [[0.4, 2.0], [0.4, 2.0]]}},
    }
    path = tmp_path / "non_dirac_sections.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path), "--format", "json"]) == 1
    check = json.loads(capsys.readouterr().out)["checks"]["integrability"]
    assert (check["method"], check["ok"]) == ("exact", False)
    assert check["failures"] == [{"index": [0, 0], "point": None, "residual": 2.0}]


def test_quad_nodes_flag_exits_2(capsys):
    path = str(SCENARIO_DIR / "circle_canonical_poisson.json")
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--quad-nodes", "8"])
    assert exc.value.code == 2
    assert "--quad-nodes" in capsys.readouterr().err


def test_quadrature_nodes_field_exits_2(tmp_path, capsys):
    data = json.loads((SCENARIO_DIR / "circle_canonical_poisson.json").read_text())
    data["quadrature_nodes"] = 8
    path = tmp_path / "with_nodes.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert "unknown fields ['quadrature_nodes']" in capsys.readouterr().err


def test_every_check_runs_on_a_bundled_scenario(monkeypatch):
    """Each identity the checks decide is computed for at least one bundled
    scenario: graph closure for a two-form and for a bivector, L_xi W for
    both, the pairings and the Courant tensor of explicit sections, their
    invariance pairings, and a distribution's A Delta in Delta."""
    ran, kind = set(), [None]
    exact_check, linear_invariance = polyfield._exact_check, polyfield._linear_invariance

    def exact(check, components):
        components = list(components)
        ran.update((kind[0], check, len(index)) for index, _ in components)
        return exact_check(check, components)

    def linear(*args):
        ran.add((kind[0], "invariance", "linear"))
        return linear_invariance(*args)

    monkeypatch.setattr(polyfield, "_exact_check", exact)
    monkeypatch.setattr(polyfield, "_linear_invariance", linear)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        s = load_scenario(str(path))
        kind[0] = dirac_kind(s.dirac)
        integrability_check(s.dirac)
        infinitesimal_invariance(s.dirac, s.action, s.rank_tol)
    expected = {
        ("two_form", "integrability", 3),
        ("bivector", "integrability", 3),
        ("two_form", "invariance", 2),
        ("bivector", "invariance", 2),
        ("sections", "integrability", 2),
        ("sections", "integrability", 3),
        ("sections", "invariance", 2),
        ("distribution", "invariance", "linear"),
    }
    assert expected <= ran, expected - ran
