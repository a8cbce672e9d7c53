"""Reduction of a Dirac structure under a compact linear action, at sample points.

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

Every stage's shape depends only on whether V(m) = 0 and on dim Fix(G_m), so
the linear algebra runs on stacks: the points of one shape, which conjugate
isotropy subgroups share, form an (N, r, c) stack, and each stage is one
stacked numpy call.  Fix(h) is built once per exact isotropy descriptor h and
gathered to the points by index; where V = 0 so is the whole action side.
Every slice decides its own rank with the per-point thresholds; a stack whose
slices disagree at a stage is cut by rank, and each part is reduced as a stack
of its own.  Per slice the stacked calls are the LAPACK/BLAS calls the
per-matrix code makes, so a point's result does not depend on its stack.
Each stage is checked once per stack, with the checks the per-point
constructors make (orthonormal rows everywhere, and D_Q Lagrangian).  Each
point's row, a :class:`PointReduction`, is built straight from the checked
stacks: its D_Q and route images are read-only views of them
(:meth:`.Subspace.from_stack`, :meth:`.LinearDirac.from_stack`).
:func:`reduce_point` takes a stack of points (N, n); the single-point
functions (:func:`restrict_to_stratum`, both routes, :func:`compare_routes`)
reduce a stack of one and raise at a skipped point.  Rank classes are the
first-fit partition by ``same_as``, placed once per exact isotropy
descriptor (:func:`descriptor_classes`).
"""

from __future__ import annotations

import numpy as np

from .action import (
    ActionSpec,
    AmbiguousIsotropyError,
    IsotropyDescriptor,
    fixed_subspace,
    isotropy,
)
from .lindirac import ForwardImage, LinearDirac, lagrangian_flags, pull_back
from .poly import _Record, _set
from .polyfield import DiracFieldSpec, evaluate_fibers
from .subspace import (
    DEFAULT_TOL,
    MixedRanksError,
    Subspace,
    _projector,
    block_diagonal,
    check_orthonormal,
    intersect_rows,
    nullspace,
    orthonormal_rows,
)

__all__ = [
    "InternalConsistencyError",
    "RankDims",
    "RankClass",
    "RankReport",
    "RouteComparison",
    "PointReduction",
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


def _t(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _push(rows: np.ndarray, onto: np.ndarray, tol: float) -> np.ndarray:
    """Span of (M u, M a) over the rows (u, a), for M = ``onto`` with
    orthonormal rows (so surjective); each M x is one matrix-vector product."""
    (q, k), batch = onto.shape[-2:], rows.shape[:-1]
    images = onto[..., None, None, :, :] @ rows.reshape(*batch, 2, k, 1)
    return orthonormal_rows(images.reshape(*batch, 2 * q), tol)


class PointReduction(_Record):
    """Everything the reduction records about one sample point: its status
    and, at an ok point, the dimension table, D_Q(m) on Fix coordinates and
    both route images in the quotient model."""

    point: tuple
    status: str
    reason: str | None
    descriptor: IsotropyDescriptor | None  # h, the isotropy subgroup G_m
    dims: RankDims | None
    iq_identity: bool | None
    d_q: LinearDirac | None  # D_Q(m), on Fix coordinates
    route_a: ForwardImage | None  # isotropy route: D_Q ∩ K_Q^⊥ pushed by phi
    route_b: ForwardImage | None  # orbit route: D ∩ (Fix ⊕ V°) pushed by the quotient
    lagrangian_ok: bool | None
    distance: float | None  # projector distance of the two route images
    agree: bool | None

    def __init__(  # one per point
        self, point, status, reason, descriptor, dims, iq_identity,
        d_q, route_a, route_b, lagrangian_ok, distance, agree,
    ) -> None:
        _set(self, "point", point)
        _set(self, "status", status)
        _set(self, "reason", reason)
        _set(self, "descriptor", descriptor)
        _set(self, "dims", dims)
        _set(self, "iq_identity", iq_identity)
        _set(self, "d_q", d_q)
        _set(self, "route_a", route_a)
        _set(self, "route_b", route_b)
        _set(self, "lagrangian_ok", lagrangian_ok)
        _set(self, "distance", distance)
        _set(self, "agree", agree)


def _action_rows(action: ActionSpec, classes: dict, at, points, tol: float) -> dict:
    """The action side at each point m of the stack ``points`` (N, n), as
    checked, read-only stacked rows: Fix(G_m), the Fix of the ``at[m]``-th
    descriptor of ``classes``; V(m) inside Fix; the quotient Fix ⊖ V, whose
    rows are the quotient projection and which is V_G° = P V° (P projects onto
    Fix ⊇ V); phi, from Fix coordinates to quotient coordinates; V° = (Fix ⊖ V)
    ⊕ ann(Fix); the window T + (V_G° + ann T) = Fix ⊕ V°, where alpha|T
    descends; K^⊥ = R^n ⊕ V°; and K_Q^⊥ = R^s ⊕ V° on Fix coordinates, the
    row space of phi.  Where V = 0 (at all points or at none), each row is
    the class's, built once per class and gathered by ``at``."""
    n, fixes = action.n, classes.values()
    fb = np.stack([f.basis for f in fixes])
    ann_fix = np.stack([f.annihilator().basis for f in fixes])
    if next(iter(classes)).continuous_circle:  # the circle fixes m (action._circle_fixes): V = 0
        vertical, quotient = np.zeros((len(fb), 0, n)), fb
    else:
        fb, ann_fix, at = fb[at], ann_fix[at], slice(None)
        moved = action.circle.generator() @ points[..., None]
        vertical = orthonormal_rows(_t(moved), tol)
        residual = np.linalg.norm(vertical - vertical @ _projector(fb), axis=(-2, -1)).max()
        if residual > 1e4 * tol:
            raise InternalConsistencyError(
                f"vertical space leaves the fixed space of the isotropy subgroup "
                f"(residual {residual:.3e}); the circle must commute with the finite group"
            )
        quotient = nullspace(vertical @ _t(fb), tol) @ fb
    phi = quotient @ _t(fb)
    v_ann = np.concatenate([quotient, ann_fix], -2)
    rows = dict(fix=fb, vertical=vertical, quotient=quotient, phi=phi, v_ann=v_ann)
    rows.update(window=block_diagonal(fb, v_ann), k_perp=block_diagonal(np.eye(n), v_ann))
    rows.update(kq_perp=block_diagonal(np.eye(fb.shape[-2]), phi))
    for key, basis in rows.items():
        check_orthonormal(basis)
        rows[key] = basis[at]
        rows[key].setflags(write=False)
    return rows


def _stack_geometry(action: ActionSpec, classes: dict, at, points, fibers, tol, agree_tol):
    """The row of each point of ``_reduce_stack``, whose fibers D(m) are the
    stack ``fibers`` (N, n, 2n): one stacked call per stage."""
    rows = _action_rows(action, classes, at, points, tol)
    fix, vertical, quotient = rows["fix"], rows["vertical"], rows["quotient"]
    n, s = action.n, fix.shape[-2]
    d_q = pull_back(_t(fix), fibers, tol)  # D_Q: D(m) pulled back along the inclusion of Fix
    dq_k_perp = intersect_rows(d_q, _projector(rows["kq_perp"]), tol)
    descending = intersect_rows(fibers, _projector(rows["window"]), tol)
    d_k_perp = intersect_rows(fibers, _projector(rows["k_perp"]), tol)
    for basis in (dq_k_perp, descending, d_k_perp):
        check_orthonormal(basis)
    if vertical.shape[-2]:
        alpha = descending[..., n:]
        leak = np.linalg.norm(alpha @ _t(vertical), axis=-1)
        if (leak > 1e4 * tol * np.maximum(1.0, np.linalg.norm(alpha, axis=-1))).any():
            raise InternalConsistencyError(
                f"descending covector does not annihilate the vertical "
                f"space (residual {leak.max():.3e})"
            )
    q = quotient.shape[-2]
    a, b = _push(dq_k_perp, rows["phi"], tol), _push(descending, quotient, tol)
    distances = np.linalg.norm(_projector(a) - _projector(b), 2, axis=(-2, -1)).tolist()
    dims = RankDims(
        vertical.shape[-2], rows["v_ann"].shape[-2], q, s, s,
        d_k_perp.shape[-2], descending.shape[-2], dq_k_perp.shape[-2],
    )
    # One check per stack, the checks each per-point constructor makes; every
    # point's D_Q and route images are read-only views of the checked stacks.
    d_qs = LinearDirac.from_stack(s, d_q, tol)
    spaces_a, spaces_b = Subspace.from_stack(2 * q, a, tol), Subspace.from_stack(2 * q, b, tol)
    flags_a, flags_b = lagrangian_flags(a, tol).tolist(), lagrangian_flags(b, tol).tolist()
    iq_identity, descriptors, out = dims.dq_cap_kq_perp == dims.d_cap_t_vg, list(classes), []
    for i, (point, k) in enumerate(zip(points.tolist(), at.tolist())):
        route_a = ForwardImage(q, spaces_a[i], flags_a[i], True)
        route_b = ForwardImage(q, spaces_b[i], flags_b[i], True)
        lagrangian_ok = flags_a[i] and flags_b[i]
        distance = distances[i] if lagrangian_ok else None
        agree = None if distance is None else distance <= agree_tol
        out.append(PointReduction(
            tuple(point), STATUS_OK, None, descriptors[k], dims, iq_identity,
            d_qs[i], route_a, route_b, lagrangian_ok, distance, agree,
        ))
    return out


def _reduce_stack(action: ActionSpec, classes: dict, at, points, fibers, tol, agree_tol):
    """The row of each point of one stack, of the exact isotropy ``classes``
    (point i of the ``at[i]``-th), which share V = 0 or V != 0, dim Fix and so
    the shapes of every stage.  A stack whose slices decide different ranks
    at a stage is cut by that rank, and each part is reduced as a stack of its own."""
    try:
        return _stack_geometry(action, classes, at, points, fibers, tol, agree_tol)
    except MixedRanksError as mixed:
        out = [None] * len(points)
        for rank in sorted(set(mixed.args[0].tolist())):
            members = np.flatnonzero(mixed.args[0] == rank)
            part = at[members], points[members], fibers[members]
            for i, row in zip(members, _reduce_stack(action, classes, *part, tol, agree_tol)):
                out[i] = row
        return out


def _reductions(spec, action, points, rank_tol: float, agree_tol: float) -> list:
    """The row of each point of the stack ``points`` (N, n), or the
    AmbiguousIsotropyError or DegeneratePointError that makes it a skip.

    The fibers are evaluated at every point, in one :func:`evaluate_fibers`
    call.  Isotropy is decided for all points in one stacked call, and first
    in the verdict, so a guard-band point is reported as such even where
    the fiber degenerates.  Fix(h) is built once per exact isotropy
    descriptor h, and the other points are reduced as one stack per shape
    (V(m) = 0 or not, dim Fix): conjugate subgroups share a stack.
    """
    fibers = evaluate_fibers(spec, points, rank_tol)
    out = isotropy(action, points, rank_tol)
    groups: dict = {}
    for i, h in enumerate(out):
        if not isinstance(h, IsotropyDescriptor):
            continue
        if fibers.errors[i] is not None:
            out[i] = fibers.errors[i]
            continue
        groups.setdefault(h, []).append(i)
    stacks: dict = {}
    for h in groups:
        fix = fixed_subspace(h, action, rank_tol)
        stacks.setdefault((h.continuous_circle, fix.dim), {})[h] = fix
    for classes in stacks.values():
        members = [i for h in classes for i in groups[h]]
        at = np.repeat(np.arange(len(classes)), [len(groups[h]) for h in classes])
        part = at, points[members], fibers.bases[members]
        for i, row in zip(members, _reduce_stack(action, classes, *part, rank_tol, agree_tol)):
            out[i] = row
    return out


def _reduce_one(spec: DiracFieldSpec, action: ActionSpec, m, tol: float) -> PointReduction:
    """The row of the point m, reduced as a stack of one (its ``agree`` at
    :func:`reduce_point`'s default).  A boundary or degenerate point raises
    its AmbiguousIsotropyError or DegeneratePointError."""
    row = _reductions(spec, action, np.asarray([m], dtype=float), tol, DEFAULT_AGREE_TOL)[0]
    if isinstance(row, Exception):
        raise row
    return row


def restrict_to_stratum(
    spec: DiracFieldSpec, action: ActionSpec, m, tol: float = DEFAULT_TOL
) -> LinearDirac:
    """D_Q(m): backward image of D(m) under the inclusion of Fix(G_m).

    Coordinates on the stratum are an orthonormal basis of Fix(G_m).
    """
    return _reduce_one(spec, action, m, tol).d_q


def _quotient(action: ActionSpec, row: PointReduction, tol: float) -> Subspace:
    """The quotient Fix ⊖ V(m) at the point of ``row``, from the action side
    of its stack of one."""
    h, points = row.descriptor, np.array([row.point])
    rows = _action_rows(action, {h: fixed_subspace(h, action, tol)}, [0], points, tol)
    return Subspace(action.n, rows["quotient"][0], tol)


def reduce_isotropy_route(spec: DiracFieldSpec, action: ActionSpec, m, tol: float = DEFAULT_TOL):
    """Isotropy route: (quotient, ForwardImage of D_Q under phi).  The
    ``lagrangian`` flag records whether the computed image passed the
    Lagrangian test.  At a point the image is Lagrangian, and equals route
    B's, for any Lagrangian D(m), so a false flag is a numerical fault."""
    row = _reduce_one(spec, action, m, tol)
    return _quotient(action, row, tol), row.route_a


def reduce_orbit_route(spec: DiracFieldSpec, action: ActionSpec, m, tol: float = DEFAULT_TOL):
    """Orbit route: (quotient, span of the descending values projected onto
    the quotient)."""
    row = _reduce_one(spec, action, m, tol)
    return _quotient(action, row, tol), row.route_b


DEFAULT_AGREE_TOL = 1e-8  # the largest projector distance at which the routes agree


class RouteComparison(_Record):
    agree: bool
    distance: float


def compare_routes(
    spec: DiracFieldSpec, action: ActionSpec, m, tol: float = DEFAULT_AGREE_TOL
) -> RouteComparison:
    """Run both routes at m, deciding ranks at DEFAULT_TOL, and compare the
    projectors of their images at the agreement tolerance ``tol`` (route A
    must be Lagrangian; route B need not be)."""
    row = _reduce_one(spec, action, m, DEFAULT_TOL)
    _ = row.route_a.dirac  # raises NotLagrangianError where it is not
    distance = row.route_a.space.distance(row.route_b.space)
    return RouteComparison(agree=bool(distance <= tol), distance=distance)


# -- rank bookkeeping ----------------------------------------------------------


class RankDims(_Record):
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


class RankClass(_Record):
    """Samples sharing an isotropy descriptor, with a constancy verdict."""

    indices: tuple
    descriptor: IsotropyDescriptor
    constant: bool


class RankReport(_Record):
    rows: tuple
    classes: tuple

    @property
    def all_constant(self) -> bool:
        return all(c.constant for c in self.classes)

    @property
    def iq_all(self) -> bool:
        return all(r.iq_identity for r in self.rows if r.status == STATUS_OK)


def descriptor_classes(descriptors) -> list:
    """First-fit partition of descriptors by :meth:`IsotropyDescriptor.same_as`:
    each descriptor joins the class of the first representative (a class's
    first member) it is the same as, or starts a class.

    Equal descriptors always share a class: a later one fails the
    representatives the first one failed, and reaches the first one's class
    before any younger one (``same_as`` is reflexive).  So the positions are
    grouped by exact descriptor, and each group, taken in first-seen order,
    is placed once.  Returns the sorted member positions of each class, in
    first-seen order.
    """
    groups: dict = {}
    for pos, h in enumerate(descriptors):
        groups.setdefault(h, []).append(pos)
    classes: list = []
    reps: list = []
    for h, members in groups.items():
        for cls_idx, rep in enumerate(reps):
            if h.same_as(rep):
                classes[cls_idx].extend(members)
                break
        else:
            reps.append(h)
            classes.append(members)
    return [sorted(c) for c in classes]


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
    rows = reduce_point(spec, action, samples, tol)
    return RankReport(rows=rows, classes=rank_classes(rows))


# -- rows ----------------------------------------------------------------------


def reduce_point(
    spec: DiracFieldSpec,
    action: ActionSpec,
    points,
    rank_tol: float = DEFAULT_TOL,
    agree_tol: float = DEFAULT_AGREE_TOL,
) -> tuple:
    """The rows of the stack ``points`` (N, n), all reduced in one pass: one
    stack per shape of isotropy class (see :func:`_reductions`).  Boundary and
    degenerate points are classified as skips; internal-consistency
    violations propagate."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != action.n:
        raise ValueError(f"points of shape {points.shape}, expected (N, {action.n})")
    rows = _reductions(spec, action, points, rank_tol, agree_tol)
    for i, (point, row) in enumerate(zip(points.tolist(), rows)):
        if isinstance(row, Exception):
            boundary = isinstance(row, AmbiguousIsotropyError)
            status = STATUS_BOUNDARY if boundary else STATUS_DEGENERATE
            rows[i] = PointReduction(tuple(point), status, str(row), *[None] * 9)
    return tuple(rows)
