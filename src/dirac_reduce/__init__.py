"""Dirac structures on R^n with compact linear symmetry: isotropy-type
restriction, orbit-type reduction via descending sections, and machine
cross-checks that the two routes agree."""

from __future__ import annotations

from .action import (
    ActionSpec,
    ActionValidationError,
    AmbiguousIsotropyError,
    CircleFactor,
    ExactnessWarning,
    FiniteGroupRep,
    IsotropyDescriptor,
    average_projector,
    default_quadrature_nodes,
    fixed_subspace,
    haar_average_section,
    isotropy,
    quadrature_nodes_required,
    validate_action,
    vertical_space,
)
from .lindirac import (
    ForwardImage,
    LinearDirac,
    NotLagrangianError,
    backward_image,
    forward_image,
    from_bivector,
    from_distribution,
    from_two_form,
    is_lagrangian,
    pairing_matrix,
    transform,
)
from .poly import Poly, PolyParseError, parse_poly
from .polyfield import (
    BivectorSpec,
    CheckReport,
    DegeneratePointError,
    DiracFieldSpec,
    DistributionSpec,
    PolyOneForm,
    PolySection,
    PolyTwoForm,
    PolyVectorField,
    SectionsSpec,
    TwoFormSpec,
    courant_bracket,
    d_function,
    d_oneform,
    dorfman_bracket,
    evaluate_at,
    generating_sections,
    infinitesimal_invariance,
    integrability_check,
    lie_bracket,
    lie_derivative_oneform,
)
from .reduction import (
    InternalConsistencyError,
    PointReduction,
    RankReport,
    RouteComparison,
    compare_routes,
    rank_report,
    reduce_isotropy_route,
    reduce_orbit_route,
    reduce_point,
    restrict_to_stratum,
)
from .scenario import (
    RunReport,
    Scenario,
    ScenarioError,
    emit_report,
    exit_code,
    load_scenario,
    run_scenario,
    sample_points,
    scenario_from_dict,
    scenario_to_dict,
    summarize,
)
from .subspace import DimensionMismatchError, Subspace, direct_sum, span

__version__ = "0.1.0"
