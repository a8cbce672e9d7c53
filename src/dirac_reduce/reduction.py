"""Pointwise reduction of a Dirac structure under a compact linear action.

Two routes are computed and compared at each sample point m:

* isotropy route: restrict to the fixed space Fix(G_m) of the isotropy
  subgroup (a backward image), then push forward along the quotient by the
  vertical space V(m);
* orbit route: intersect the fiber with the descending window (orbit-type
  tangent plus admissible covectors) and map both components onto the
  quotient.

The circle factor commutes with every finite element (``validate_action``
enforces it), so each h in G_m fixes the orbit directions:
h.(xi.m) = xi.(h.m) = xi.m.  Hence V(m) lies in Fix(G_m), the orbit-type
tangent T(m) = Fix(G_m) + V(m) is Fix(G_m) itself, and both routes land in
one quotient model: the Euclidean complement of V(m) inside Fix(G_m), which
models the quotient because the action is orthogonal.  A point where V(m)
leaves Fix(G_m) (an action built without ``validate_action``) raises
:class:`InternalConsistencyError`.

Both routes end in one push-forward, rows (u, a) -> (M u, M a).  Route A maps
D_Q ∩ K_Q^⊥ by phi = quotient · Fixᵀ, which has orthonormal rows as the
quotient lies in Fix: so phi is surjective, b = phi phiᵀ b, and
{(phi v, b) : (v, phiᵀ b) in D_Q} = (phi ⊕ phi)(D_Q ∩ (R^s ⊕ im phiᵀ)), where
im phiᵀ is V° in Fix coordinates.  Route B maps D ∩ (Fix ⊕ V°) by the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .action import (
    ActionSpec,
    AmbiguousIsotropyError,
    IsotropyDescriptor,
    average_projector,
    fixed_subspace,
    isotropy,
    vertical_space,
)
from .lindirac import ForwardImage, LinearDirac, backward_image, is_lagrangian
from .polyfield import DegeneratePointError, DiracFieldSpec, evaluate_at
from .subspace import DEFAULT_TOL, Subspace, direct_sum, nullspace, span

__all__ = [
    "InternalConsistencyError",
    "RankDims",
    "RankClass",
    "RankReport",
    "RouteComparison",
    "ActionGeometry",
    "PointGeometry",
    "PointReduction",
    "point_geometry",
    "restrict_to_stratum",
    "reduce_isotropy_route",
    "reduce_orbit_route",
    "compare_routes",
    "rank_report",
    "reduce_point",
    "rank_classes",
    "descriptor_classes",
]

STATUS_OK = "ok"
STATUS_BOUNDARY = "skipped-boundary"
STATUS_DEGENERATE = "skipped-degenerate"


class InternalConsistencyError(RuntimeError):
    """V(m) leaves Fix(G_m), or a covector that must annihilate V(m) does not."""


def _k_perp_space(v_ann: Subspace) -> Subspace:
    """R^n + V° inside R^2n, for V° in R^n."""
    return direct_sum(Subspace.full(v_ann.ambient_dim, v_ann.tol), v_ann)


def _push(space: Subspace, onto: np.ndarray, tol: float) -> ForwardImage:
    """Span of (M u, M a) over the rows (u, a) of ``space``, for M = ``onto`` with
    orthonormal rows (so surjective)."""
    k = onto.shape[1]
    rows = [np.concatenate([onto @ row[:k], onto @ row[k:]]) for row in space.basis]
    image = span(rows, ambient_dim=2 * onto.shape[0], tol=tol)
    return ForwardImage(onto.shape[0], image, is_lagrangian(image), surjective=True)


@dataclass(frozen=True, eq=False)
class ActionGeometry:
    """The action side at a point: every object that depends only on the
    isotropy subgroup h and V(m).  Each is built on first use and kept, so
    the points that share one instance build it once."""

    tol: float
    descriptor: IsotropyDescriptor  # h, the isotropy subgroup G_m
    projector: np.ndarray  # P, the average over G_m
    fix: Subspace  # Fix(G_m) = T_G(m) = T(m)
    vertical: Subspace  # V(m), inside Fix

    @cached_property
    def v_ann(self) -> Subspace:
        """V°(m) = (Fix ⊖ V) ⊕ ann(Fix), as V lies in Fix: the quotient's and
        the class's ann(Fix) bases are orthogonal, so they stack with no SVD."""
        rows = np.vstack([self.quotient.basis, self.fix.annihilator().basis])
        return Subspace(self.fix.ambient_dim, rows, self.tol)

    @property
    def v_g_ann(self) -> Subspace:
        """V_G°(m) = P V° = Fix ⊖ V (P projects onto Fix ⊇ V): the quotient."""
        return self.quotient

    @cached_property
    def window(self) -> Subspace:
        """T + (V_G° + ann T), where alpha restricted to T descends: with
        T = Fix, V_G° + ann Fix = V°, so the window is Fix ⊕ V°."""
        return direct_sum(self.fix, self.v_ann)

    @cached_property
    def quotient(self) -> Subspace:
        """The quotient model, the complement of V inside Fix; its basis rows
        are the quotient projection from ambient coordinates."""
        if not self.vertical.dim:
            return self.fix
        local = nullspace(self.vertical.basis @ self.fix.basis.T, self.tol)
        return Subspace(self.fix.ambient_dim, local @ self.fix.basis, self.tol)

    @cached_property
    def phi(self) -> np.ndarray:
        """Stratum (Fix) coordinates -> quotient coordinates."""
        return self.quotient.basis @ self.fix.basis.T

    @cached_property
    def k_perp(self) -> Subspace:
        """R^n + V°."""
        return _k_perp_space(self.v_ann)

    @cached_property
    def kq_perp(self) -> Subspace:
        """R^s + V° on Fix coordinates, where V° is the row space of phi."""
        return _k_perp_space(Subspace(self.fix.dim, self.phi, self.tol))


@dataclass(frozen=True)
class PointGeometry:
    """Every pointwise object the two routes and the dimension table read,
    built once per sample point by :func:`point_geometry`: the action side
    and the fiber side."""

    action: ActionGeometry
    fiber: LinearDirac  # D(m)
    d_q: LinearDirac  # D_Q(m), on Fix coordinates
    dq_k_perp: Subspace  # D_Q(m) ∩ K_Q^⊥
    descending: Subspace  # D(m) ∩ (T + (V_G° + ann T))

    def route_a(self):
        """Isotropy route: (quotient, ForwardImage of D_Q under phi).  The
        ``lagrangian`` flag records whether it is a Dirac structure (it is
        wherever the constant-rank hypothesis holds at m)."""
        a = self.action
        return a.quotient, _push(self.dq_k_perp, a.phi, a.tol)

    def route_b(self):
        """Orbit route: (quotient, span of the descending values projected
        onto the quotient)."""
        tol = self.action.tol
        v = self.action.vertical
        if v.dim:
            for alpha in self.descending.basis[:, v.ambient_dim :]:
                leak = float(np.linalg.norm(v.basis @ alpha))
                if leak > 1e4 * tol * max(1.0, float(np.linalg.norm(alpha))):
                    raise InternalConsistencyError(
                        f"descending covector does not annihilate the vertical "
                        f"space (residual {leak:.3e})"
                    )
        quotient = self.action.quotient
        return quotient, _push(self.descending, quotient.basis, tol)

    def dims(self) -> tuple["RankDims", bool]:
        """The dimension table and the I_q dimension identity flag."""
        a = self.action
        dims = RankDims(
            vertical=a.vertical.dim,
            v_annihilator=a.v_ann.dim,
            v_g_annihilator=a.v_g_ann.dim,
            tangent_isotropy=a.fix.dim,
            tangent_orbit=a.fix.dim,
            d_cap_k_perp=self.fiber.space.intersect(a.k_perp).dim,
            d_cap_t_vg=self.descending.dim,
            dq_cap_kq_perp=self.dq_k_perp.dim,
        )
        return dims, dims.dq_cap_kq_perp == dims.d_cap_t_vg


def _action_geometry(
    action: ActionSpec, h: IsotropyDescriptor, v: Subspace, tol: float, classes: dict
) -> ActionGeometry:
    """The action side for isotropy h and vertical space V(m).

    ``classes`` maps the exact descriptor (tolerance-equal descriptors can
    differ in the last bits of their angles, and so in P) to the class's
    ActionGeometry with V = 0, built on first sight.  Where V(m) = 0 every
    object of the action side is a function of h, so that instance is
    returned; a point the circle moves gets its own instance over the
    class's P and Fix, once V(m) is checked to lie in Fix.
    """
    key = (h.continuous_circle, h.pairs)
    shared = classes.get(key)
    if shared is None:
        p = average_projector(h, action)
        fix = fixed_subspace(h, action, tol, p)
        shared = classes[key] = ActionGeometry(tol, h, p, fix, Subspace.zero(action.n, tol))
    if v.dim == 0:
        return shared
    residual = float(np.linalg.norm(v.basis - v.basis @ shared.fix.projector()))
    if residual > 1e4 * tol:
        raise InternalConsistencyError(
            f"vertical space leaves the fixed space of the isotropy subgroup "
            f"(residual {residual:.3e}); the circle must commute with the finite group"
        )
    return ActionGeometry(tol, h, shared.projector, shared.fix, v)


def point_geometry(
    spec: DiracFieldSpec,
    action: ActionSpec,
    m,
    tol: float = DEFAULT_TOL,
    fiber=None,
    classes: dict | None = None,
) -> PointGeometry:
    """Build the geometry at m once.

    ``fiber`` is D(m) when already evaluated (or the DegeneratePointError its
    evaluation raised); ``None`` evaluates it here.  Isotropy is decided
    first, so a guard-band point is reported as such even where the fiber
    degenerates.

    ``classes`` is a dict that the points of one run (one action, one
    ``tol``) share, keyed by the exact isotropy descriptor: P and Fix are
    built once per class, and where V(m) = 0 the whole action side is.
    ``None`` builds the action side for this point alone.
    """
    h = isotropy(action, m, tol)
    if fiber is None:
        fiber = evaluate_at(spec, m, tol)
    if isinstance(fiber, DegeneratePointError):
        raise fiber
    v = vertical_space(action, m, tol)
    a = _action_geometry(action, h, v, tol, {} if classes is None else classes)
    d_q = backward_image(a.fix.basis.T, fiber)
    return PointGeometry(
        action=a,
        fiber=fiber,
        d_q=d_q,
        dq_k_perp=d_q.space.intersect(a.kq_perp),
        descending=fiber.space.intersect(a.window),
    )


def restrict_to_stratum(
    spec: DiracFieldSpec, action: ActionSpec, m, tol: float = DEFAULT_TOL
) -> LinearDirac:
    """D_Q(m): backward image of D(m) under the inclusion of Fix(G_m).

    Coordinates on the stratum are an orthonormal basis of Fix(G_m).
    """
    return point_geometry(spec, action, m, tol).d_q


def reduce_isotropy_route(
    spec: DiracFieldSpec, action: ActionSpec, m, tol: float = DEFAULT_TOL
):
    """Restrict to the isotropy stratum, then quotient the vertical part
    (see :meth:`PointGeometry.route_a`)."""
    return point_geometry(spec, action, m, tol).route_a()


def reduce_orbit_route(
    spec: DiracFieldSpec, action: ActionSpec, m, tol: float = DEFAULT_TOL
):
    """Span of descending-section values, pushed to the orbit-type quotient
    (see :meth:`PointGeometry.route_b`)."""
    return point_geometry(spec, action, m, tol).route_b()


@dataclass(frozen=True)
class RouteComparison:
    agree: bool
    distance: float


def _compare_reduced(image_a, image_b, tol: float) -> RouteComparison:
    """Subspace distance between the two routes' images in the one quotient
    model."""
    distance = image_a.dirac.space.distance(image_b.space)
    return RouteComparison(agree=bool(distance <= tol), distance=distance)


def compare_routes(
    spec: DiracFieldSpec, action: ActionSpec, m, tol: float = 1e-8
) -> RouteComparison:
    """Run both routes at m and compare them."""
    geometry = point_geometry(spec, action, m, min(DEFAULT_TOL, tol))
    return _compare_reduced(geometry.route_a()[1], geometry.route_b()[1], tol)


# -- rank bookkeeping ----------------------------------------------------------


@dataclass(frozen=True)
class RankDims:
    """Dimension table at one point."""

    vertical: int
    v_annihilator: int
    v_g_annihilator: int
    tangent_isotropy: int
    tangent_orbit: int
    d_cap_k_perp: int
    d_cap_t_vg: int
    dq_cap_kq_perp: int

    def to_dict(self) -> dict:
        return {
            "V": self.vertical,
            "V_ann": self.v_annihilator,
            "V_G_ann": self.v_g_annihilator,
            "T_G": self.tangent_isotropy,
            "T": self.tangent_orbit,
            "D_cap_K_perp": self.d_cap_k_perp,
            "D_cap_T_plus_VG": self.d_cap_t_vg,
            "DQ_cap_KQ_perp": self.dq_cap_kq_perp,
        }


@dataclass(frozen=True)
class RankClass:
    """Samples sharing an isotropy descriptor, with a constancy verdict."""

    indices: tuple
    descriptor: IsotropyDescriptor
    constant: bool


@dataclass(frozen=True)
class RankReport:
    rows: tuple
    classes: tuple

    @property
    def all_constant(self) -> bool:
        return all(c.constant for c in self.classes)

    @property
    def iq_all(self) -> bool:
        return all(r.iq_identity for r in self.rows if r.status == STATUS_OK)


def descriptor_classes(descriptors, angle_tol: float = 1e-7) -> list:
    """First-fit partition of descriptors by tolerance equality.

    Returns one list of member positions per class, in first-seen order.
    """
    classes: list = []
    reps: list = []
    for pos, h in enumerate(descriptors):
        for cls_idx, rep in enumerate(reps):
            if h.same_as(rep, angle_tol):
                classes[cls_idx].append(pos)
                break
        else:
            reps.append(h)
            classes.append([pos])
    return classes


def rank_classes(rows) -> tuple:
    """Group the ok rows (anything with ``status``, ``descriptor`` and
    ``dims``) by isotropy descriptor; ``indices`` are positions in ``rows``."""
    ok = [(i, r) for i, r in enumerate(rows) if r.status == STATUS_OK]
    classes = []
    for members in descriptor_classes([r.descriptor for _, r in ok]):
        group = [ok[j] for j in members]
        first = group[0][1]
        classes.append(
            RankClass(
                indices=tuple(i for i, _ in group),
                descriptor=first.descriptor,
                constant=all(r.dims == first.dims for _, r in group),
            )
        )
    return tuple(classes)


def rank_report(
    spec: DiracFieldSpec, action: ActionSpec, samples, tol: float = DEFAULT_TOL
) -> RankReport:
    """Per-point intersection dimensions and per-class constancy verdicts.

    Constancy across samples with the same isotropy descriptor is the
    sampled stand-in for the constant-rank hypothesis; it is evidence, not
    proof, and is reported rather than asserted.
    """
    rows = tuple(reduce_point(spec, action, m, tol) for m in samples)
    return RankReport(rows=rows, classes=rank_classes(rows))


# -- one-point pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class PointReduction:
    """Everything the runner records about one sample point."""

    point: tuple
    status: str
    reason: str | None
    descriptor: IsotropyDescriptor | None
    dims: RankDims | None
    iq_identity: bool | None
    d_q: LinearDirac | None
    route_a: ForwardImage | None
    route_b: ForwardImage | None
    lagrangian_ok: bool | None
    distance: float | None
    agree: bool | None


def reduce_point(
    spec: DiracFieldSpec,
    action: ActionSpec,
    m,
    rank_tol: float = DEFAULT_TOL,
    agree_tol: float = 1e-8,
    fiber=None,
    classes: dict | None = None,
) -> PointReduction:
    """Run the full per-point pipeline, classifying boundary and degenerate
    points as skips.  Internal-consistency violations propagate.

    ``fiber`` is D(m) already evaluated at ``rank_tol`` and ``classes`` the
    run's shared action sides (see :func:`point_geometry`); ``None``
    evaluates and builds them here."""
    point = tuple(float(c) for c in m)
    try:
        geometry = point_geometry(spec, action, m, rank_tol, fiber, classes)
    except (AmbiguousIsotropyError, DegeneratePointError) as exc:
        status = (
            STATUS_BOUNDARY if isinstance(exc, AmbiguousIsotropyError) else STATUS_DEGENERATE
        )
        return PointReduction(point, status, str(exc), *[None] * 9)
    dims, iq = geometry.dims()
    _, image_a = geometry.route_a()
    _, image_b = geometry.route_b()
    lagrangian_ok = image_a.lagrangian and image_b.lagrangian
    if lagrangian_ok:
        comparison = _compare_reduced(image_a, image_b, agree_tol)
        distance, agree = comparison.distance, comparison.agree
    else:
        distance, agree = None, None
    return PointReduction(
        point=point,
        status=STATUS_OK,
        reason=None,
        descriptor=geometry.action.descriptor,
        dims=dims,
        iq_identity=iq,
        d_q=geometry.d_q,
        route_a=image_a,
        route_b=image_b,
        lagrangian_ok=lagrangian_ok,
        distance=distance,
        agree=agree,
    )
