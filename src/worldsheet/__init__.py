"""Discretized world-sheet variational mechanics and causal structure.

The package has two halves.  The geometric half discretizes a Lorentzian
sheet r: D -> R^{N+1} on a uniform parameter grid, computes its induced
metric, connection, fundamental forms and curvature, assembles the curvature
and amplitude energies with their quadratic constraint penalties, and drives
a penalty continuation whose constraint residuals decay like 1/K.  The causal
half runs chronological/causal reachability, achronality, boundaries, domains
of dependence, and Cauchy-surface checks on finite event sets, validated
against the exact flat-space cone.
"""

from .grid import (
    ChartMap,
    FieldSet,
    GridError,
    ParameterGrid,
    apply_boundary,
    build_grid,
    finite_difference,
    finite_difference_adjoint,
    interpolate,
    make_chart,
)
from .geometry import (
    ChartMetric,
    DegenerateFrameError,
    DegenerateMetricError,
    GeometryCache,
    GeometryError,
    MetricData,
    NonUnitNormalError,
    NormalFrame,
    SignatureError,
    build_geometry,
    chart_metric,
    christoffel,
    gauss_residual,
    metric,
    minkowski_dot,
    normal_frame,
    riemann,
    second_derivatives,
    second_fundamental_form,
    weingarten_residual,
)
from .energy import (
    EnergyBreakdown,
    NonFiniteValueError,
    QuadratureRule,
    SuperluminalMotionError,
    assemble_JK,
    backward_JK,
    constraint_residuals,
    full_action,
    j1_curvature_energy,
    j2_energy,
    kinetic_energy,
    penalty_terms,
    quadrature,
    reduced_action,
)
from .optimizer import (
    CoercivityReport,
    KRecord,
    MinimizeReport,
    PenaltyConfig,
    coercivity_check,
    fit_loglog_slope,
    gradient_JK,
    minimize_fixed_K,
    penalty_continuation,
)
from .causal import (
    CausalGraph,
    CauchyResult,
    Edges,
    EventSet,
    IntervalKind,
    InterceptReport,
    build_graph,
    causal_future,
    causal_past,
    chronological_future,
    chronological_past,
    classify_interval,
    dependence_domain,
    flat_cone_oracle,
    flat_grid_events,
    future_boundary,
    future_dependence,
    intercept_check,
    is_achronal,
    is_cauchy_surface,
    load_events,
    null_boundary_check,
    past_dependence,
    pasts,
)
from . import cli, presets

__version__ = "0.3.30"
