"""Scalar functionals of the sheet: curvature and amplitude energies, the
penalized functional, and the chart-weighted action with multiplier terms.

All integrals are composite trapezoid quadrature over the parameter grid
(matching the second-order stencils), except the chart-weighted forms which
integrate over the lab-frame chart grid.  The reduced action J and the
penalized J_K carry the volume weight sqrt(-g) alone; the chart-weighted
action additionally carries sqrt(U).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np

from .grid import (
    ChartMap,
    FieldSet,
    ParameterGrid,
    _csv_row,
    _first_node,
    _gradient,
    _node_str,
    _raise_at_first,
    finite_difference_adjoint,
    interpolate,
)
from .geometry import (
    ChartMetric,
    GeometryCache,
    GeometryError,
    _contracted_christoffel_adjoint,
    _curvature_form_adjoint,
    _second_derivatives_adjoint,
    _signs,
    build_geometry,
    chart_metric,
    minkowski_dot,
)

_KINDS = ("r", "phi", "n")  # the fields, in the order every gradient and packed vector holds their blocks


class NonFiniteValueError(ValueError):
    pass


class SuperluminalMotionError(ValueError):
    pass


@dataclass(frozen=True)
class QuadratureRule:
    """Composite trapezoid weights; per-node weight is the per-axis product,
    spatial_weights the product over D_1 (axes 1..m), shape counts[1:]."""

    axis_weights: tuple[np.ndarray, ...]
    node_weights: np.ndarray
    spatial_weights: np.ndarray

    @classmethod
    def from_grid(cls, grid: ParameterGrid) -> "QuadratureRule":
        axis_w = []
        for axis in range(grid.ndim):
            h = grid.spacings[axis]
            w = np.full(grid.counts[axis], h)
            w[0] = w[-1] = 0.5 * h
            axis_w.append(w)
        return cls(
            axis_weights=tuple(axis_w),
            node_weights=reduce(np.multiply.outer, axis_w),
            spatial_weights=reduce(np.multiply.outer, axis_w[1:], np.ones(())),
        )


@lru_cache(maxsize=64)
def _rule(grid: ParameterGrid) -> QuadratureRule:
    return QuadratureRule.from_grid(grid)


def _integrals(integrands: list[np.ndarray], grid: ParameterGrid) -> list[float]:
    """quadrature of each integrand in one pass.  One scan for non-finite values names the first
    node of the first integrand that has one; each weighted sum is summed alone, in quadrature's order."""
    values = np.array(integrands)
    if values.shape[1:] != grid.counts:
        raise ValueError("integrand shape does not match grid counts")
    if not np.isfinite(values).all():
        node = _first_node(~np.isfinite(values))[1:]
        raise NonFiniteValueError(f"non-finite integrand at node {_node_str(node)}")
    return [float(v.sum()) for v in values * _rule(grid).node_weights]


def quadrature(values: np.ndarray, grid: ParameterGrid) -> float:
    """Composite trapezoid integral over the full grid box."""
    return _integrals([values], grid)[0]


def slice_masses(values: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """Spatial integral over D_1 per u_0 slice; returns shape (counts[0],)."""
    return np.sum(values * _rule(grid).spatial_weights, axis=tuple(range(1, grid.ndim)))


def time_integral(values_t: np.ndarray, grid: ParameterGrid) -> float:
    """Trapezoid integral of a per-slice quantity along axis 0."""
    return float(np.sum(values_t * _rule(grid).axis_weights[0]))


@dataclass
class EnergyBreakdown:
    """Itemized values of the energy pieces; total_JK = total_J + (K/2) * penalties."""

    j1_curvature: float
    j2_dirichlet: float
    j2_christoffel: float
    penalty_norm: float
    penalty_orth: float
    penalty_unit: float
    total_J: float
    total_JK: float
    K: float

    # The CSV columns, each read from the attribute of its name; j1 reads j1_curvature.
    CSV_FIELDS = ("K", "j1", "j2_dirichlet", "j2_christoffel", "penalty_norm", "penalty_orth", "penalty_unit",
                  "total_J", "total_JK")

    @staticmethod
    def csv_header() -> str:
        return ",".join(EnergyBreakdown.CSV_FIELDS)

    def csv_row(self) -> str:
        return _csv_row(self, self.CSV_FIELDS, j1="j1_curvature")


# Per-node contractions are batched matmuls over reshaped index pairs or
# broadcast products, so the contraction order is fixed.
def _curvature_density(q: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g^{jk} b_jl b^l_k per node as n^T Q n, with Q the geometry's curvature form, and its factor Q n."""
    qn = (q @ n[..., None])[..., 0]
    return (qn * n).sum(-1), qn


def _phi_gradient(phi: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """dphi/du_j per node, J_K's one dphi; a non-finite phi is refused at its node with GeometryError first."""
    _raise_at_first(~np.isfinite(phi), GeometryError, "phi is not finite at node {node}")
    return _gradient(phi, grid)


def _re_im(z: np.ndarray) -> np.ndarray:
    """z as real (Re, Im) columns, shape z.shape + (2,): a view of a contiguous complex z's bytes, not a copy."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(z.shape + (2,))


def _dirichlet_density(g_inv: np.ndarray, dphi: np.ndarray) -> np.ndarray:
    """Re g^{jk} dphi_j dphi*_k per node, as x.g^{-1}x + y.g^{-1}y for dphi = x + iy."""
    xy = _re_im(dphi)
    return (xy * (g_inv @ xy)).sum((-2, -1))


def _christoffel_density(phi, dphi, gamma_c) -> tuple[np.ndarray, np.ndarray]:
    """re_pair_l gamma_c^l per node, with its factor re_pair_l = dphi_l phi* + dphi*_l phi;
    gamma_c^l = Gamma^l_jk g^{jk} is the geometry's."""
    re_pair = 2.0 * (dphi * np.conj(phi)[..., None]).real
    return (re_pair * gamma_c).sum(-1), re_pair


def _constraint_densities(phi_sq, n, geom: GeometryCache, grid: ParameterGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slice masses int_{D_1} |phi|^2 sqrt(-g), dr/du_j . n and n.n: the penalty factors."""
    dots = (geom.tangents @ (n * _signs(n.shape[-1]))[..., None])[..., 0]
    return slice_masses(phi_sq * geom.sqrt_neg_g, grid), dots, minkowski_dot(n, n)


# Every per-node density of J_K on one configuration, formed once by _densities from its fields and geom's r part.
_Densities = namedtuple("_Densities", "dphi phi_sq curvature qn dirichlet christoffel re_pair mass dots nn")


def _densities(fields: FieldSet, geom: GeometryCache, grid: ParameterGrid) -> _Densities:
    dphi, phi_sq = _phi_gradient(fields.phi, grid), np.abs(fields.phi) ** 2
    curvature = _curvature_density(geom.curvature_form, fields.n)
    christoffel = _christoffel_density(fields.phi, dphi, geom.gamma_c)
    penalty = _constraint_densities(phi_sq, fields.n, geom, grid)
    return _Densities(dphi, phi_sq, *curvature, _dirichlet_density(geom.g_inv, dphi), *christoffel, *penalty)


# Row k - 1 sums the entries i + j = k of a flattened 3x3 outer product a_i b_j: the alpha^k coefficient of a b.
_ANTI_DIAGONALS = np.equal.outer(np.arange(1, 5), np.add.outer(np.arange(3), np.arange(3)).ravel()).astype(float)


def _step_polynomial(d: _Densities, fields: FieldSet, step: FieldSet, geom: GeometryCache, grid, K) -> list[float]:
    """c_1..c_4 of J_K(x + alpha s) - J_K(x) = sum_k c_k alpha^k, with x = fields, d its densities, s a step in phi
    and n, r frozen: each density is a quadratic in alpha and J_K's terms are products of two.  c_1 = grad . s."""
    n, sn, sn_low, w, rule = fields.n, step.n, step.n * _signs(fields.n.shape[-1]), geom.sqrt_neg_g, _rule(grid)
    sdphi, phi_bar, sphi_bar = _gradient(step.phi, grid), np.conj(fields.phi), np.conj(step.phi)
    sdots, xy, sxy = (geom.tangents @ sn_low[..., None])[..., 0], _re_im(d.dphi), _re_im(sdphi)
    sqn, gs = (geom.curvature_form @ sn[..., None])[..., 0], geom.g_inv @ sxy
    dot, dot2 = partial(np.einsum, "...i,...i"), partial(np.einsum, "...ij,...ij")  # (a * b).sum, 4x faster at 3x4^5
    phi_sq = np.array([d.phi_sq, 2.0 * (fields.phi * sphi_bar).real, (step.phi * sphi_bar).real])
    curvature = np.array([d.curvature, 2.0 * dot(sn, d.qn), dot(sn, sqn)])  # Q is symmetric
    unit = np.array([d.nn - 1.0, 2.0 * dot(n, sn_low), dot(sn, sn_low)])
    # 1/2 |phi|^2 n^T Q n + K/2 unit; the alpha and alpha^2 terms of 1/2 Dirichlet + 1/4 Christoffel + K/2 orth
    outer = 0.5 * phi_sq[:, None] * curvature[None] + 0.5 * K * unit[:, None] * unit[None]
    pair, spair = (sdphi * phi_bar[..., None] + d.dphi * sphi_bar[..., None]).real, (sdphi * sphi_bar[..., None]).real
    outer[0, 1] += dot2(xy, gs) + 0.5 * dot(pair, geom.gamma_c) + K * dot(d.dots, sdots)
    outer[0, 2] += 0.5 * (dot2(sxy, gs) + dot(spair, geom.gamma_c) + K * dot(sdots, sdots))
    nodes = (_ANTI_DIAGONALS @ outer.reshape(9, -1)).reshape(4, *grid.counts) * w
    mass = np.array([d.mass - 1.0, *(phi_sq[1:] * (w * rule.spatial_weights)).sum(tuple(range(2, grid.ndim + 1)))])
    norm = _ANTI_DIAGONALS @ (mass[:, None] * mass[None]).reshape(9, -1) @ rule.axis_weights[0]
    return [c + float(0.5 * K * m) for c, m in zip(_integrals(nodes, grid), norm)]


# The densities are integrated against a volume weight w: sqrt(-g) on the parameter
# grid, sqrt(-g) sqrt(U) on a chart grid.  The integrands of the orth and unit penalties:
def _penalties(dots, nn, w) -> list[np.ndarray]:
    return [np.sum(dots**2, axis=-1) * w, (nn - 1.0) ** 2 * w]


def _breakdown(d: _Densities, geom: GeometryCache, grid: ParameterGrid, K: float) -> EnergyBreakdown:
    """J_K from its densities, its five node integrals in one pass.  No value it returns is non-finite:
    NonFiniteValueError names the first node of a node integrand, the first u_0 slice of the norm
    penalty's, or else the piece whose sum overflowed."""
    if isinstance(K, (bool, np.bool_)) or not np.isfinite(K):  # a bool is an int to Python: True would run as 1
        raise ValueError(f"penalty weight K must be a finite number, got {K!r}")
    if K < 0:
        raise ValueError(f"penalty weight K must be >= 0, got {K}")
    w = geom.sqrt_neg_g
    integrands = [d.phi_sq * d.curvature * w, d.dirichlet * w, d.christoffel * w, *_penalties(d.dots, d.nn, w)]
    j1, j2d, j2c, p_orth, p_unit = _integrals(integrands, grid)
    j1, j2d, j2c = 0.5 * j1, 0.5 * j2d, 0.25 * j2c
    p_norm, total_J = time_integral((d.mass - 1.0) ** 2, grid), j1 + j2d + j2c
    pieces = dict(j1_curvature=j1, j2_dirichlet=j2d, j2_christoffel=j2c, penalty_norm=p_norm, penalty_orth=p_orth,
                  penalty_unit=p_unit, total_J=total_J, total_JK=total_J + 0.5 * K * (p_norm + p_orth + p_unit))
    if not np.isfinite(pieces["total_JK"]):  # as it is when any piece is not
        norm_terms = ~np.isfinite((d.mass - 1.0) ** 2)
        _raise_at_first(norm_terms, NonFiniteValueError, "non-finite norm penalty at u_0 slice {node}")
        raise NonFiniteValueError(f"non-finite {next(k for k, v in pieces.items() if not np.isfinite(v))}")
    return EnergyBreakdown(**pieces, K=float(K))


def j1_curvature_energy(fields: FieldSet, geom: GeometryCache, grid: ParameterGrid) -> float:
    """(1/2) integral of |phi|^2 g^{jk} b_jl b^l_k sqrt(-g).  It is J_K's, read from _breakdown, so a non-finite
    J_K integrand raises NonFiniteValueError as assemble_JK does."""
    return _breakdown(_densities(fields, geom, grid), geom, grid, 0.0).j1_curvature


def j2_energy(phi: np.ndarray, geom: GeometryCache, grid: ParameterGrid) -> tuple[float, float]:
    """Amplitude energy split into its gradient and connection pieces.

    dirichlet   = (1/2) int g^{jk} dphi/du_j dphi*/du_k sqrt(-g)
    christoffel = (1/4) int (dphi/du_l phi* + dphi*/du_l phi) Gamma^l_jk g^{jk} sqrt(-g)

    dphi is formed from phi, which is refused at its own node with GeometryError unless finite; geom
    supplies the r part only.  The one consumer that forms its densities itself: it has no n for _densities.
    """
    dphi, w = _phi_gradient(phi, grid), geom.sqrt_neg_g
    christoffel = _christoffel_density(phi, dphi, geom.gamma_c)[0]
    dirichlet, christoffel = _integrals([_dirichlet_density(geom.g_inv, dphi) * w, christoffel * w], grid)
    return 0.5 * dirichlet, 0.25 * christoffel


def reduced_action(fields: FieldSet, geom: GeometryCache, grid: ParameterGrid) -> float:
    """J = J_1 + J_2 in parameter coordinates (no chart weight, no kinetic term).  It is J_K's total_J, read
    from _breakdown, so a non-finite J_K integrand raises NonFiniteValueError as assemble_JK does."""
    return _breakdown(_densities(fields, geom, grid), geom, grid, 0.0).total_J


def penalty_terms(fields: FieldSet, geom: GeometryCache, grid: ParameterGrid) -> tuple[float, float, float]:
    """The three quadratic constraint measures, without the K/2 prefactor.

    norm -- int_0^T (int_{D_1} |phi|^2 sqrt(-g) du - 1)^2 dt
    orth -- sum_j int_D (dr/du_j . n)^2 sqrt(-g) du dt
    unit -- int_D (n.n - 1)^2 sqrt(-g) du dt

    The volume weight is sqrt(-g) uniformly in all three terms.  They are J_K's, read from _breakdown, so a
    non-finite one raises NonFiniteValueError as assemble_JK does.
    """
    b = _breakdown(_densities(fields, geom, grid), geom, grid, 0.0)
    return b.penalty_norm, b.penalty_orth, b.penalty_unit


def assemble_JK(
    fields: FieldSet,
    grid: ParameterGrid,
    K: float,
    geom: GeometryCache | None = None,
) -> EnergyBreakdown:
    """Full breakdown of J_K = J + (K/2)(norm + orth + unit)."""
    if geom is None:
        geom = build_geometry(fields, grid)
    return _breakdown(_densities(fields, geom, grid), geom, grid, K)


def backward_JK(
    fields: FieldSet,
    grid: ParameterGrid,
    K: float,
    geom: GeometryCache,
    kinds: tuple[str, ...] = _KINDS,
) -> tuple[EnergyBreakdown, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """J_K and its reverse-mode derivative on every node: one value-and-gradient pass.

    geom is a geometry cache of fields.r, from any configuration with that r; it is read, never rebuilt.
    The densities are integrated first, as assemble_JK integrates them: the
    breakdown equals assemble_JK(..., geom=geom), and a non-finite integrand
    raises NonFiniteValueError naming the node.  The adjoints then run back
    through the per-node algebra (n^T Q n, gamma_c, dphi, the penalty terms
    and the slice masses), through Q, gamma_c, g^{-1} and sqrt(-g), and to node
    fields through the transposed stencils.  Returns (breakdown, (dJ/dr, dJ/dphi,
    dJ/dn)) in node-field shapes, boundary nodes included; the phi entry is
    dJ/d(Re phi) + i dJ/d(Im phi).  A block outside kinds is zero, and
    without "r" the r chain (bars of g^{-1}, d2r and the tangents) is skipped.
    kinds is a sequence of r, phi and n, else ValueError: a str is refused, not read letter by letter.
    The breakdown carries the densities bundle as its attribute densities, outside its fields.
    """
    if isinstance(kinds, str) or not set(kinds) <= set(_KINDS):
        raise ValueError(f"kinds must be a sequence of r, phi, n (got {kinds!r})")
    phi, n = fields.phi, fields.n
    signs = _signs(fields.r.shape[-1])
    tangents, d2r, gamma_c = geom.tangents, geom.d2r, geom.gamma_c
    g_inv, sq = geom.g_inv, geom.sqrt_neg_g
    d = _densities(fields, geom, grid)
    breakdown = _breakdown(d, geom, grid, K)
    breakdown.densities = d
    dphi, phi_sq, curv, re_pair, dots, nn = d.dphi, d.phi_sq, d.curvature, d.re_pair, d.dots, d.nn
    rule = _rule(grid)
    w = rule.node_weights * sq
    # d[(K/2) norm] / d(|phi|^2 sqrt(-g)) per node.
    mass_w = np.multiply.outer(K * rule.axis_weights[0] * (d.mass - 1.0), rule.spatial_weights)
    bar_phi = 2.0 * (0.5 * curv * w + mass_w * sq) * phi

    # Dirichlet density Re g^{jk} dphi_j dphi*_k
    bar_d = 0.5 * w
    dphi_xy = _re_im(dphi)
    bar_xy = bar_d[..., None, None] * ((g_inv + np.swapaxes(g_inv, -1, -2)) @ dphi_xy)
    bar_dphi = bar_xy.view(complex)[..., 0]

    # Christoffel density re_pair_l gamma_c^l
    bar_c = 0.25 * w
    bar_pair = bar_c[..., None] * gamma_c
    bar_dphi += 2.0 * bar_pair * phi[..., None]
    bar_phi += 2.0 * (bar_pair * dphi).sum(-1)

    # The curvature density n^T Q n, and the orth and unit penalties
    bar_curv = 0.5 * phi_sq * w
    bar_dots = K * w[..., None] * dots
    bar_n = (2.0 * bar_curv)[..., None] * d.qn * signs + (bar_dots[..., None, :] @ tangents)[..., 0, :]
    bar_n = (bar_n + (2.0 * K * w * (nn - 1.0))[..., None] * n) * signs

    # Transposed stencils back to node fields.
    for j in range(grid.ndim):
        bar_phi += finite_difference_adjoint(bar_dphi[..., j], grid, j)
    grads = [np.zeros_like(fields.r), bar_phi if "phi" in kinds else np.zeros_like(phi)]
    grads.append(bar_n if "n" in kinds else np.zeros_like(n))
    if "r" not in kinds:
        return breakdown, tuple(grads)

    # The r chain: every density also reaches r through g^{-1}, sqrt(-g) and d2r.
    dens = 0.5 * phi_sq * curv + 0.5 * d.dirichlet + 0.25 * d.christoffel
    dens += 0.5 * K * (np.sum(dots**2, axis=-1) + (nn - 1.0) ** 2)
    bar_sq = rule.node_weights * dens + mass_w * phi_sq
    bar_q = bar_curv[..., None, None] * (n[..., :, None] * n[..., None, :])
    bar_g_inv, bar_d2r = _curvature_form_adjoint(bar_q, d2r, g_inv)
    bar_g_inv += bar_d[..., None, None] * (dphi_xy @ np.swapaxes(dphi_xy, -1, -2))
    # gamma_c^l = g^{ls} (t_s . g^{jk} d2r_jk)
    bar_g_inv_c, bar_d2r_c, bar_t = _contracted_christoffel_adjoint(bar_c[..., None] * re_pair, d2r, geom.metric)
    bar_g_inv, bar_d2r = bar_g_inv + bar_g_inv_c, bar_d2r + bar_d2r_c
    bar_t += bar_dots[..., None] * (n * signs)[..., None, :]

    # g^{-1}, sqrt(-g) back to g_jk = t_j . t_k: dg^{-1} = -g^{-1} dg g^{-1}, dsqrt(-g) = sqrt(-g) g^{jk} dg_jk / 2
    g_inv_t = np.swapaxes(g_inv, -1, -2)
    bar_g = (0.5 * bar_sq * sq)[..., None, None] * g_inv_t - g_inv_t @ bar_g_inv @ g_inv_t
    bar_t += ((bar_g + np.swapaxes(bar_g, -1, -2)) @ tangents) * signs
    grads[0] = _second_derivatives_adjoint(bar_t, bar_d2r, grid)
    return breakdown, tuple(grads)


def constraint_residuals(fields: FieldSet, grid: ParameterGrid, geom: GeometryCache | None = None) -> tuple[float, float, float]:
    """Un-squared constraint measures used for the 1/K decay study, and the residuals each descent leg reports.

    norm residual -- int_0^T |int_{D_1} |phi|^2 sqrt(-g) du - 1| dt
    orth residual -- L2 norm of dr/du_j . n over D
    unit residual -- L2 norm of (n.n - 1) over D
    None is non-finite: NonFiniteValueError names a penalty's first node, the norm's u_0 slice or an overflowed sum.
    """
    if geom is None:
        geom = build_geometry(fields, grid)
    mass, dots, nn = _constraint_densities(np.abs(fields.phi) ** 2, fields.n, geom, grid)
    p_orth, p_unit = _integrals(_penalties(dots, nn, geom.sqrt_neg_g), grid)
    residuals = time_integral(np.abs(mass - 1.0), grid), float(np.sqrt(p_orth)), float(np.sqrt(p_unit))
    if not np.isfinite(residuals).all():
        _raise_at_first(~np.isfinite(mass), NonFiniteValueError, "non-finite norm residual at u_0 slice {node}")
        raise NonFiniteValueError(f"non-finite {('norm', 'orth', 'unit')[np.isfinite(residuals).argmin()]} residual")
    return residuals


def kinetic_energy(
    fields: FieldSet,
    grid: ParameterGrid,
    chart: ChartMap,
    mass: float,
) -> float:
    """m c int |phi|^2 sqrt(-g_jk du_j/dt du_k/dt) sqrt(-g) sqrt(U) over the chart.

    c is the chart's and sqrt(U) its chart_metric's.
    The motion must be time-like: -g_jk udot_j udot_k > 0 at every chart node.
    """
    geom = build_geometry(fields, grid)
    at = (interpolate(grid, x, chart.u) for x in (geom.g, np.abs(fields.phi) ** 2, geom.sqrt_neg_g))
    return quadrature(_kinetic_integrand(chart, chart_metric(chart), *at, mass), chart.grid)


def _kinetic_integrand(chart: ChartMap, cmetric: ChartMetric, g, phi_sq, sqrt_neg_g, mass: float) -> np.ndarray:
    """The integrand of kinetic_energy on the chart nodes, from g, |phi|^2 and sqrt(-g) interpolated there."""
    udot = chart.derivatives()[..., 0, :]
    speed_sq = -((g @ udot[..., None])[..., 0] * udot).sum(-1)
    _raise_at_first(speed_sq <= 0.0, SuperluminalMotionError,
                    "-g_jk udot_j udot_k <= 0 at chart node {node}: motion is not time-like")
    return mass * chart.c * phi_sq * np.sqrt(speed_sq) * sqrt_neg_g * cmetric.sqrt_U


def full_action(
    fields: FieldSet,
    grid: ParameterGrid,
    chart: ChartMap,
    mass: float,
    E: float | np.ndarray = 0.0,
    lam_tangent: float | np.ndarray = 0.0,
    lam_unit: float | np.ndarray = 0.0,
) -> float:
    """Chart-weighted action with multiplier terms, for evaluation only.

    kinetic + J_1 + J_2 (each weighted by sqrt(-g) sqrt(U) over the chart)
    - int E(t) (int |phi|^2 sqrt(-g) sqrt(U) dx - 1) dt
    + sum_j int lam_j (dr/du_j . n) sqrt(-g) sqrt(U)
    + int lam_unit (n.n - 1) sqrt(-g) sqrt(U)

    E may be a scalar or a per-time-slice array; lam_tangent a scalar or a
    length m+1 vector; lam_unit a scalar or per-chart-node array.  None of the
    multipliers are ever optimized over.  c and sqrt(U) are the chart's, as in kinetic_energy.

    |phi|^2, the curvature density, dr/du_j . n and n.n are _densities' node
    densities, interpolated; the Dirichlet and Christoffel densities are formed
    from the interpolated g^{-1}, dphi, phi and gamma_c.  The six chart integrands
    are integrated in one pass.
    """
    geom = build_geometry(fields, grid)
    d = _densities(fields, geom, grid)
    cmetric = chart_metric(chart)
    node_fields = (d.phi_sq, d.curvature, d.dots, d.nn, geom.g, geom.sqrt_neg_g,
                   geom.g_inv, d.dphi, fields.phi, geom.gamma_c)
    phi_sq, curvature, dots, nn, g, sqrt_neg_g, g_inv, dphi, phi, gamma_c = (
        interpolate(grid, x, chart.u) for x in node_fields)
    weight = sqrt_neg_g * cmetric.sqrt_U
    christoffel = _christoffel_density(phi, dphi, gamma_c)[0]
    lam_t = np.broadcast_to(np.asarray(lam_tangent, dtype=float), dots.shape[-1:])
    integrands = [_kinetic_integrand(chart, cmetric, g, phi_sq, sqrt_neg_g, mass), phi_sq * curvature * weight,
                  _dirichlet_density(g_inv, dphi) * weight, christoffel * weight, (dots @ lam_t) * weight,
                  np.asarray(lam_unit, dtype=float) * (nn - 1.0) * weight]
    kin, j1, j2d, j2c, orth_term, unit_term = _integrals(integrands, chart.grid)

    # Normalization multiplier: spatial mass per lab-time slice on the chart.
    mass_t = slice_masses(phi_sq * weight, chart.grid)
    e_arr = np.broadcast_to(np.asarray(E, dtype=float), mass_t.shape)
    e_term = -time_integral(e_arr * (mass_t - 1.0), chart.grid)
    return kin + 0.5 * j1 + 0.5 * j2d + 0.25 * j2c + e_term + orth_term + unit_term
