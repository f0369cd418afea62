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


def _integrals(integrands: list[np.ndarray], grid: ParameterGrid, weighted=True) -> list[float]:
    """quadrature of each integrand in one pass, or its plain sum if not weighted.  One scan for non-finite values
    names the first node of the first integrand that has one; each sum is summed alone, in quadrature's order."""
    values = np.array(integrands)
    if values.shape[1:] != grid.counts:
        raise ValueError("integrand shape does not match grid counts")
    if not np.isfinite(values).all():
        node = _first_node(~np.isfinite(values))[1:]
        raise NonFiniteValueError(f"non-finite integrand at node {_node_str(node)}")
    return (values * _rule(grid).node_weights if weighted else values).reshape(len(values), -1).sum(1).tolist()


def quadrature(values: np.ndarray, grid: ParameterGrid) -> float:
    """Composite trapezoid integral over the full grid box."""
    return _integrals([values], grid)[0]


def slice_masses(values: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """Spatial integral over D_1 per u_0 slice, of each leading entry: shape values.shape[:-ndim] + (counts[0],)."""
    return np.sum(values * _rule(grid).spatial_weights, axis=tuple(range(1 - grid.ndim, 0)))


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


def _phi_gradient(phi: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """dphi/du_j per node, J_K's one dphi; a non-finite phi is refused at its node with GeometryError first."""
    _raise_at_first(~np.isfinite(phi), GeometryError, "phi is not finite at node {node}")
    return _gradient(phi, grid)


def _re_im(z: np.ndarray) -> np.ndarray:
    """z as real (Re, Im) columns, shape z.shape + (2,): a view of a contiguous complex z's bytes, not a copy."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(z.shape + (2,))


# With r frozen, each factor f of J_K is B_f(x, x) for a symmetric bilinear form B_f in (phi, n), defined once, by
# _forms.  What the forms read of one configuration: phi, dphi, dphi's (Re, Im) view xy, g^{-1} xy and
# gamma_c^l dphi_l; and if it has an n, n, S n (S the signature), Q n and the products t_j . S n.
_Inputs = namedtuple("_Inputs", "phi dphi xy gxy cdphi n sn qn tsn", defaults=(None,) * 4)
# B_f(a, b) per node: |phi|^2, the Dirichlet form Re g^{jk} dphi_j dphi*_k, the Christoffel form
# Re(dphi_a,l phi*_b + dphi_b,l phi*_a) gamma_c^l, and with n, n^T Q n, n.n and |t . n|^2 = sum_j (t_j . S n)^2.
_Forms = namedtuple("_Forms", "phi_sq dirichlet christoffel curvature nn orth", defaults=(None,) * 3)
# Every pairing over an index is an einsum; the pairings of phi, complex scalars per node, are complex products.
_dot, _dot2 = partial(np.einsum, "...i,...i"), partial(np.einsum, "...ij,...ij")


def _inputs(phi, dphi, g_inv, gamma_c, n=None, geom: GeometryCache | None = None) -> _Inputs:
    xy = _re_im(dphi)
    if n is None:
        return _Inputs(phi, dphi, xy, g_inv @ xy, _dot(dphi, gamma_c))
    sn = n * _signs(n.shape[-1])
    qn, tsn = np.einsum("...ab,...b", geom.curvature_form, n), np.einsum("...ja,...a", geom.tangents, sn)
    return _Inputs(phi, dphi, xy, g_inv @ xy, _dot(dphi, gamma_c), n, sn, qn, tsn)


def _forms(a: _Inputs, b: _Inputs) -> _Forms:
    """B_f(a, b) per node for every factor f, the n forms if a and b have an n."""
    a_bar, b_bar = np.conj(a.phi), np.conj(b.phi)
    forms = [(a.phi * b_bar).real, _dot2(a.xy, b.gxy), (a.cdphi * b_bar + b.cdphi * a_bar).real]
    if a.n is not None:
        forms += [_dot(a.n, b.qn), _dot(a.n, b.sn), _dot(a.tsn, b.tsn)]
    return _Forms(*forms)


# One configuration x's densities, formed once by _densities from its fields and geom's r part: the forms
# B_f(x, x), the slice masses int_{D_1} |phi|^2 sqrt(-g), and x's inputs; backward_JK adds J_K's bars.
_Densities = namedtuple("_Densities", "forms mass x bars", defaults=(None, None))


def _densities(fields: FieldSet, geom: GeometryCache, grid: ParameterGrid) -> _Densities:
    x = _inputs(fields.phi, _phi_gradient(fields.phi, grid), geom.g_inv, geom.gamma_c, fields.n, geom)
    forms = _forms(x, x)
    return _Densities(forms, slice_masses(forms.phi_sq * geom.sqrt_neg_g, grid), x)


def _bars(d: _Densities, geom: GeometryCache, grid: ParameterGrid, K, target=1.0) -> _Forms:
    """dJ_K/dB_f at every node for every factor f, the quadrature weight and sqrt(-g) included: J_K moves by
    sum_f bar_f . delta B_f to first order.  The norm penalty's K (mass - 1) is folded into |phi|^2's bar.
    target is what the unit and norm penalties hold n.n and each slice mass to; at 0 the bars are linear in d's
    forms and masses, the Hessian of J_K in its factors applied to them in its nonzero rows |phi|^2, n^T Q n, n.n."""
    f, rule, sq = d.forms, _rule(grid), geom.sqrt_neg_g
    w = rule.node_weights * sq
    half_w, mass_w = 0.5 * w, np.multiply.outer(K * rule.axis_weights[0] * (d.mass - target), rule.spatial_weights)
    return _Forms(f.curvature * half_w + mass_w * sq, half_w, 0.25 * w, f.phi_sq * half_w, K * w * (f.nn - target),
                  K * half_w)


def _step_polynomial(d: _Densities, step: FieldSet, geom: GeometryCache, grid, K) -> list[float]:
    """c_1..c_4 of J_K(x + alpha s) - J_K(x) = sum_k c_k alpha^k, with d the densities of x and their bars, and s
    a step in phi and n, r frozen.  Each factor moves by delta_f = 2 alpha B_f(x, s) + alpha^2 B_f(s, s), and J_K,
    quadratic in its factors, by sum_f bar_f delta_f + 1/2 delta . H delta, H its Hessian in the factors.  _bars at
    target 0 applies H to each term of delta; H is nonzero only on the factors of J_K's three products,
    |phi|^2 n^T Q n, (n.n - 1)^2 and (mass - 1)^2.  c_1 = grad . s by construction."""
    s = _inputs(step.phi, _gradient(step.phi, grid), geom.g_inv, geom.gamma_c, step.n, geom)
    terms = np.array([_forms(d.x, s), _forms(s, s)])  # (2, 6, *counts)
    terms[0] *= 2.0  # each factor's alpha and alpha^2 terms
    delta = _Forms(*np.swapaxes(terms, 0, 1))
    h = _bars(_Densities(delta, slice_masses(delta.phi_sq * geom.sqrt_neg_g, grid)), geom, grid, K, target=0.0)
    first = np.einsum("kf...,f...->k...", terms, np.array(d.bars))  # bars . delta_k per node
    second = np.einsum("fk...,fl...->kl...", *(np.array([f.phi_sq, f.curvature, f.nn]) for f in (delta, h)))
    return _integrals([first[0], first[1] + 0.5 * second[0, 0], second[0, 1], 0.5 * second[1, 1]], grid, weighted=False)


def _breakdown(d: _Densities, geom: GeometryCache, grid: ParameterGrid, K: float) -> EnergyBreakdown:
    """J_K from its densities, its five node integrals in one pass.  No value it returns is non-finite:
    NonFiniteValueError names the first node of a node integrand, the first u_0 slice of the norm
    penalty's, or else the piece whose sum overflowed."""
    if isinstance(K, (bool, np.bool_)) or not np.isfinite(K):  # a bool is an int to Python: True would run as 1
        raise ValueError(f"penalty weight K must be a finite number, got {K!r}")
    if K < 0:
        raise ValueError(f"penalty weight K must be >= 0, got {K}")
    f, w = d.forms, geom.sqrt_neg_g
    integrands = [f.phi_sq * f.curvature * w, f.dirichlet * w, f.christoffel * w, f.orth * w, (f.nn - 1.0) ** 2 * w]
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
    supplies the r part only.  With no n, it reads _forms' phi forms alone.
    """
    x, w = _inputs(phi, _phi_gradient(phi, grid), geom.g_inv, geom.gamma_c), geom.sqrt_neg_g
    f = _forms(x, x)
    dirichlet, christoffel = _integrals([f.dirichlet * w, f.christoffel * w], grid)
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
    The densities are integrated first, as assemble_JK integrates them: the breakdown equals
    assemble_JK(..., geom=geom), and a non-finite integrand raises NonFiniteValueError naming the node.  The
    adjoints start from the bars dJ_K/dB_f of J_K's factors (_bars) and run back through the forms to phi, dphi
    and n, through Q, gamma_c, g^{-1} and sqrt(-g), and to node fields through the transposed stencils.  Returns
    (breakdown, (dJ/dr, dJ/dphi, dJ/dn)) in node-field shapes, boundary nodes included; the phi entry is
    dJ/d(Re phi) + i dJ/d(Im phi).  A block outside kinds is zero, and without "r" the r chain (bars of g^{-1},
    d2r and the tangents), the only reader of geom.d2r, is skipped.
    kinds is a sequence of r, phi and n, else ValueError: a str is refused, not read letter by letter.
    The breakdown carries the densities bundle as its attribute densities, outside its fields: the forms
    B_f(x, x), the slice masses, x's inputs (dphi, its (Re, Im) view, gamma_c^l dphi_l, Q n, t_j . S n) and the
    bars, which the adjoints read and the step polynomial takes as its x.
    """
    if isinstance(kinds, str) or not set(kinds) <= set(_KINDS):
        raise ValueError(f"kinds must be a sequence of r, phi, n (got {kinds!r})")
    signs = _signs(fields.r.shape[-1])
    tangents, gamma_c, g_inv = geom.tangents, geom.gamma_c, geom.g_inv
    d = _densities(fields, geom, grid)
    breakdown = _breakdown(d, geom, grid, K)
    breakdown.densities = d = d._replace(bars=_bars(d, geom, grid, K))
    x, f, bars = d.x, d.forms, d.bars

    # Each form's adjoint in x is twice the form with x in one slot: the phi forms, then the n forms.
    bar_xy = bars.dirichlet[..., None, None] * ((g_inv + np.swapaxes(g_inv, -1, -2)) @ x.xy)
    bar_dphi = bar_xy.view(complex)[..., 0]
    bar_pair = bars.christoffel[..., None] * gamma_c
    bar_dphi += 2.0 * bar_pair * x.phi[..., None]
    bar_phi = 2.0 * (bars.phi_sq * x.phi + bars.christoffel * x.cdphi)
    half_tsn = bars.orth[..., None] * x.tsn
    bar_n = bars.curvature[..., None] * x.qn * signs + (half_tsn[..., None, :] @ tangents)[..., 0, :]
    bar_n = (bar_n + bars.nn[..., None] * x.n) * (2.0 * signs)

    # Transposed stencils back to node fields.
    for j in range(grid.ndim):
        bar_phi += finite_difference_adjoint(bar_dphi[..., j], grid, j)
    grads = [np.zeros_like(fields.r), bar_phi if "phi" in kinds else np.zeros_like(fields.phi)]
    grads.append(bar_n if "n" in kinds else np.zeros_like(fields.n))
    if "r" not in kinds:
        return breakdown, tuple(grads)

    # The r chain: every density also reaches r through g^{-1}, sqrt(-g) and d2r.
    d2r, rule, sq = geom.d2r, _rule(grid), geom.sqrt_neg_g
    # dJ_K/dsqrt(-g) per node: J_K's node integrand over sqrt(-g), and the norm penalty's share through the mass.
    dens = 0.5 * f.phi_sq * f.curvature + 0.5 * f.dirichlet + 0.25 * f.christoffel + 0.5 * K * (f.orth + (f.nn - 1.0) ** 2)
    mass_w = np.multiply.outer(K * rule.axis_weights[0] * (d.mass - 1.0), rule.spatial_weights)
    bar_sq = rule.node_weights * dens + mass_w * f.phi_sq
    bar_q = bars.curvature[..., None, None] * (x.n[..., :, None] * x.n[..., None, :])
    bar_g_inv, bar_d2r = _curvature_form_adjoint(bar_q, d2r, g_inv)
    bar_g_inv += bars.dirichlet[..., None, None] * (x.xy @ np.swapaxes(x.xy, -1, -2))
    # gamma_c^l = g^{ls} (t_s . g^{jk} d2r_jk), read by the Christoffel density as 2 Re(dphi_l phi*) gamma_c^l
    bar_gamma_c = (2.0 * bars.christoffel)[..., None] * (x.dphi * np.conj(x.phi)[..., None]).real
    bar_g_inv_c, bar_d2r_c, bar_t = _contracted_christoffel_adjoint(bar_gamma_c, d2r, geom.metric)
    bar_g_inv, bar_d2r = bar_g_inv + bar_g_inv_c, bar_d2r + bar_d2r_c
    bar_t += (2.0 * half_tsn)[..., None] * x.sn[..., None, :]

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
    They are read from _densities, which refuses a non-finite phi with GeometryError naming its node.
    """
    if geom is None:
        geom = build_geometry(fields, grid)
    return _residuals(_densities(fields, geom, grid), geom, grid)


def _residuals(d: _Densities, geom: GeometryCache, grid: ParameterGrid) -> tuple[float, float, float]:
    """constraint_residuals of the configuration whose densities d are."""
    w = geom.sqrt_neg_g
    p_orth, p_unit = _integrals([d.forms.orth * w, (d.forms.nn - 1.0) ** 2 * w], grid)
    residuals = time_integral(np.abs(d.mass - 1.0), grid), float(np.sqrt(p_orth)), float(np.sqrt(p_unit))
    if not np.isfinite(residuals).all():
        _raise_at_first(~np.isfinite(d.mass), NonFiniteValueError, "non-finite norm residual at u_0 slice {node}")
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
    densities, interpolated; the Dirichlet and Christoffel densities are _forms'
    phi forms of the interpolated g^{-1}, dphi, phi and gamma_c.  The six chart
    integrands are integrated in one pass.
    """
    geom = build_geometry(fields, grid)
    d = _densities(fields, geom, grid)
    cmetric = chart_metric(chart)
    node_fields = (d.forms.phi_sq, d.forms.curvature, d.x.tsn, d.forms.nn, geom.g, geom.sqrt_neg_g,
                   geom.g_inv, d.x.dphi, fields.phi, geom.gamma_c)
    phi_sq, curvature, dots, nn, g, sqrt_neg_g, g_inv, dphi, phi, gamma_c = (
        interpolate(grid, x, chart.u) for x in node_fields)
    weight, at = sqrt_neg_g * cmetric.sqrt_U, _inputs(phi, dphi, g_inv, gamma_c)
    f = _forms(at, at)
    lam_t = np.broadcast_to(np.asarray(lam_tangent, dtype=float), dots.shape[-1:])
    integrands = [_kinetic_integrand(chart, cmetric, g, phi_sq, sqrt_neg_g, mass), phi_sq * curvature * weight,
                  f.dirichlet * weight, f.christoffel * weight, (dots @ lam_t) * weight,
                  np.asarray(lam_unit, dtype=float) * (nn - 1.0) * weight]
    kin, j1, j2d, j2c, orth_term, unit_term = _integrals(integrands, chart.grid)

    # Normalization multiplier: spatial mass per lab-time slice on the chart.
    mass_t = slice_masses(phi_sq * weight, chart.grid)
    e_arr = np.broadcast_to(np.asarray(E, dtype=float), mass_t.shape)
    e_term = -time_integral(e_arr * (mass_t - 1.0), chart.grid)
    return kin + 0.5 * j1 + 0.5 * j2d + 0.25 * j2c + e_term + orth_term + unit_term
