"""Penalty-method minimization of J_K over the interior field degrees of freedom.

The gradient is the exact derivative of the discrete J_K as assemble_JK
computes it: one forward pass (geometry and energy) and one reverse-mode pass
(energy.backward_JK).  Descent is plain Armijo-backtracking gradient steps.
A continuation sweep drives K upward with warm starts and fits the log-log
slope of the constraint residuals against K, which should sit near -1.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .grid import FieldSet, ParameterGrid, apply_boundary, finite_difference
from .geometry import GeometryCache, GeometryError, build_geometry, _signs
from .energy import (
    NonFiniteValueError,
    _curvature_density,
    _residuals,
    assemble_JK,
    backward_JK,
    slice_masses,
)

logger = logging.getLogger(__name__)

THEOREM_M_RANGE = (5, 8)

# Backtracking line search: a trial step alpha is accepted on sufficient
# decrease J_K(x - alpha grad) <= J_K(x) - ARMIJO_C alpha |grad|^2 (Nocedal &
# Wright, Numerical Optimization, 3.1), else shrunk by BACKTRACK; below
# MIN_STEP the leg stops as line_search_underflow.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MIN_STEP = 1e-14


class GradientProbeError(RuntimeError):
    pass


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs for the descent loop and the K continuation."""

    k_schedule: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    step_init: float = 0.1
    grad_tol: float = 1e-6
    max_iters: int = 5000
    optimize_fields: tuple[str, ...] = ("r", "phi", "n")

    def __post_init__(self):
        ks = self.k_schedule
        if not ks or not all(0 < k < np.inf for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("k_schedule must be finite, positive and strictly increasing")
        for name in ("step_init", "grad_tol"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        bad = set(self.optimize_fields) - {"r", "phi", "n"}
        if bad or not self.optimize_fields:
            raise ValueError(f"optimize_fields must be a nonempty subset of r, phi, n (got {self.optimize_fields})")


@dataclass
class KRecord:
    """Outcome of one fixed-K minimization.

    termination says why the descent stopped: converged, max_iters or
    line_search_underflow; stalled and converged are read from it.
    """

    K: float
    iterations: int
    total_J: float
    total_JK: float
    res_norm: float
    res_orth: float
    res_unit: float
    grad_norm: float
    termination: str
    start_total_J: float = float("nan")
    jk_trace: list[float] = dc_field(default_factory=list)

    CSV_FIELDS = (
        "K",
        "iterations",
        "total_J",
        "total_JK",
        "res_norm",
        "res_orth",
        "res_unit",
        "grad_norm",
        "stalled",
        "termination",
    )

    @property
    def stalled(self) -> bool:
        return self.termination == "line_search_underflow"

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    def csv_row(self) -> str:
        vals = [
            f"{self.K:.17g}",
            str(self.iterations),
            f"{self.total_J:.17g}",
            f"{self.total_JK:.17g}",
            f"{self.res_norm:.17g}",
            f"{self.res_orth:.17g}",
            f"{self.res_unit:.17g}",
            f"{self.grad_norm:.17g}",
            "1" if self.stalled else "0",
            self.termination,
        ]
        return ",".join(vals)


@dataclass
class MinimizeReport:
    """Per-K records plus the fitted residual decay slopes."""

    records: list[KRecord]
    slopes: dict[str, Optional[float]]
    theorem_range_notice: Optional[str] = None
    final_fields: Optional[FieldSet] = None

    @property
    def stalled(self) -> bool:
        return any(rec.stalled for rec in self.records)

    @staticmethod
    def csv_header() -> str:
        return ",".join(KRecord.CSV_FIELDS)

    def csv_rows(self) -> list[str]:
        return [rec.csv_row() for rec in self.records]

    def summary_line(self) -> str:
        parts = []
        for name in ("norm", "orth", "unit"):
            s = self.slopes.get(name)
            parts.append(f"{name}={s:.17g}" if s is not None else f"{name}=skipped")
        return "slopes: " + " ".join(parts)


def fit_loglog_slope(params: Sequence[float], residuals: Sequence[float]) -> float:
    """Least-squares slope of log residual against log parameter."""
    x = np.log10(np.asarray(params, dtype=float))
    y = np.log10(np.asarray(residuals, dtype=float))
    return float(np.polyfit(x, y, 1)[0])


def pack_interior(fields: FieldSet, grid: ParameterGrid) -> np.ndarray:
    """Flatten the interior DOFs in the canonical order."""
    interior = grid.interior_mask
    r_block = fields.r[interior].ravel()
    phi_int = fields.phi[interior]
    phi_block = np.stack([phi_int.real, phi_int.imag], axis=-1).ravel()
    n_block = fields.n[interior].ravel()
    return np.concatenate([r_block, phi_block, n_block])


def _add_scaled(fields: FieldSet, direction: FieldSet, alpha: float, grid: ParameterGrid) -> FieldSet:
    out = fields.copy()
    interior = grid.interior_mask
    out.r[interior] += alpha * direction.r[interior]
    out.phi[interior] += alpha * direction.phi[interior]
    out.n[interior] += alpha * direction.n[interior]
    return out


def _clamp_phi(fields: FieldSet) -> None:
    """Radial projection back to |phi|^2 >= eps, preserving phase."""
    mag_sq = np.abs(fields.phi) ** 2
    low = mag_sq < fields.eps
    if low.any():
        target = np.sqrt(fields.eps)
        mag = np.sqrt(mag_sq[low])
        vals = fields.phi[low]
        fields.phi[low] = np.where(mag > 0, vals * (target / np.where(mag > 0, mag, 1.0)), target)


def gradient_JK(
    fields: FieldSet,
    grid: ParameterGrid,
    K: float,
    kinds: tuple[str, ...] = ("r", "phi", "n"),
) -> FieldSet:
    """Exact gradient of J_K over the interior DOFs: one forward, one backward pass.

    Returned as a FieldSet-shaped object: boundary entries are zero, and the
    phi slot carries dJ/d(Re phi) + i dJ/d(Im phi).  ``kinds`` restricts the
    blocks; entries outside them stay zero.  A configuration where J_K cannot
    be evaluated raises GradientProbeError naming the node.
    """
    try:
        geom = build_geometry(fields, grid)
        return _interior_gradient(fields, grid, K, geom, kinds)
    except (GeometryError, NonFiniteValueError) as exc:
        raise GradientProbeError(f"J_K not evaluable: {exc}") from exc


def _interior_gradient(
    fields: FieldSet, grid: ParameterGrid, K: float, geom: GeometryCache, kinds: tuple[str, ...]
) -> FieldSet:
    """gradient_JK on geom, the forward pass's cache for fields."""
    grad = dict(zip(("r", "phi", "n"), backward_JK(fields, grid, K, geom)))
    for kind, arr in grad.items():
        arr[grid.boundary_mask if kind in kinds else ...] = 0.0
    return FieldSet(**grad, r_bc=np.zeros_like(fields.r_bc), phi_bc=np.zeros_like(fields.phi_bc), eps=fields.eps)


def minimize_fixed_K(
    fields: FieldSet,
    grid: ParameterGrid,
    K: float,
    cfg: PenaltyConfig,
) -> tuple[FieldSet, KRecord]:
    """Armijo-backtracking gradient descent on J_K at fixed K.

    Accepted iterates never increase J_K; phi is radially clamped back to the
    admissible set after every step.  Step underflow is recorded as a stall,
    not raised.  Each configuration gets one forward pass: an accepted
    trial's geometry and breakdown serve its gradient and the K record.
    """
    x = apply_boundary(fields, grid)
    _clamp_phi(x)
    geom = build_geometry(x, grid)
    cur = assemble_JK(x, grid, K, geom=geom)
    start_J, trace = cur.total_J, [cur.total_JK]
    step = cfg.step_init
    grad_norm = float("nan")
    termination = "max_iters"
    iters = 0

    while iters < cfg.max_iters:
        grad = _interior_gradient(x, grid, K, geom, cfg.optimize_fields)
        grad_norm = float(np.linalg.norm(pack_interior(grad, grid)))
        if grad_norm <= cfg.grad_tol:
            termination = "converged"
            break
        gsq = grad_norm * grad_norm
        alpha = step
        while alpha >= MIN_STEP:
            trial = _add_scaled(x, grad, -alpha, grid)
            _clamp_phi(trial)
            try:
                trial_geom = build_geometry(trial, grid)
                trial_cur = assemble_JK(trial, grid, K, geom=trial_geom)
                j_trial = trial_cur.total_JK
            except GeometryError:
                j_trial = float("inf")
            if np.isfinite(j_trial) and j_trial <= cur.total_JK - ARMIJO_C * alpha * gsq:
                break
            alpha *= BACKTRACK
        else:
            termination = "line_search_underflow"
            break
        x, geom, cur = trial, trial_geom, trial_cur
        trace.append(cur.total_JK)
        step = min(2.0 * alpha, cfg.step_init)
        iters += 1

    mass = slice_masses(np.abs(x.phi) ** 2 * geom.sqrt_neg_g, grid)
    res_norm, res_orth, res_unit = _residuals(mass, cur.penalty_orth, cur.penalty_unit, grid)
    record = KRecord(
        K=float(K),
        iterations=iters,
        total_J=cur.total_J,
        total_JK=cur.total_JK,
        res_norm=res_norm,
        res_orth=res_orth,
        res_unit=res_unit,
        grad_norm=grad_norm,
        termination=termination,
        start_total_J=start_J,
        jk_trace=trace,
    )
    return x, record


def theorem_range_notice(m: int, n_ambient: int) -> Optional[str]:
    lo, hi = THEOREM_M_RANGE
    if lo <= m <= hi and m < n_ambient:
        return None
    return (
        f"note: m={m}, N={n_ambient} lies outside the existence theorem's range "
        f"{lo} <= m <= {hi}, m < N; the run proceeds regardless"
    )


def penalty_continuation(
    fields: FieldSet,
    grid: ParameterGrid,
    cfg: PenaltyConfig,
) -> MinimizeReport:
    """Sweep K upward with warm starts and fit the residual decay slopes.

    Slopes are fitted per constraint over the schedule points whose residual
    exceeds 1e-12; a residual at machine zero is skipped.
    """
    notice = theorem_range_notice(grid.m, fields.n_ambient)
    if notice:
        logger.info(notice)
    x = fields
    records: list[KRecord] = []
    for K in cfg.k_schedule:
        x, rec = minimize_fixed_K(x, grid, K, cfg)
        records.append(rec)

    slopes: dict[str, Optional[float]] = {}
    for name in ("norm", "orth", "unit"):
        kept = [(rec.K, getattr(rec, "res_" + name)) for rec in records if getattr(rec, "res_" + name) > 1e-12]
        slopes[name] = fit_loglog_slope(*zip(*kept)) if len(kept) >= 2 else None
    return MinimizeReport(
        records=records, slopes=slopes, theorem_range_notice=notice, final_fields=x
    )


@dataclass
class CoercivityReport:
    """Worst-case margins of the coercivity hypotheses; diagnostic only."""

    margin_spatial_eig: float
    node_spatial_eig: tuple[int, ...]
    margin_normal_grad: float
    node_normal_grad: tuple[int, ...]
    margin_second_deriv: float
    node_second_deriv: tuple[int, ...]

    @property
    def spatial_eig_holds(self) -> bool:
        return self.margin_spatial_eig >= 0.0

    @property
    def normal_grad_holds(self) -> bool:
        return self.margin_normal_grad >= 0.0

    @property
    def second_deriv_holds(self) -> bool:
        return self.margin_second_deriv >= 0.0


def coercivity_check(
    fields: FieldSet,
    grid: ParameterGrid,
    c0: float,
    c1: float,
    c2: float = 0.0,
) -> CoercivityReport:
    """Check the coercivity bounds per node; violations are reported, not raised.

    (a) smallest eigenvalue of the spatial block of g^{jk} >= c0
    (b) |phi|^2 g^{jk} b_jl b^l_k >= c1 * sum_i dn/du_i . dn/du_i
    (c) |phi|^2 g^{jk} b_jl b^l_k >= c2 * |d^2 r/du_i du_j|^2 for every (i, j)
    """
    geom = build_geometry(fields, grid)
    spatial = geom.g_inv[..., 1:, 1:]
    eigs = np.linalg.eigvalsh(spatial)
    margin_a = eigs[..., 0] - c0
    node_a = tuple(int(i) for i in np.unravel_index(np.argmin(margin_a), grid.counts))

    lhs = np.abs(fields.phi) ** 2 * _curvature_density(geom.g_inv, geom.b, geom.b_up)
    dn = np.stack([finite_difference(fields.n, grid, axis=j) for j in range(grid.ndim)], axis=-2)
    signs = _signs(fields.n.shape[-1])
    dn_sq = np.einsum("...ja,...ja,a->...", dn, dn, signs)
    margin_b = lhs - c1 * dn_sq
    node_b = tuple(int(i) for i in np.unravel_index(np.argmin(margin_b), grid.counts))

    d2_sq = np.einsum("...ija,...ija->...ij", geom.d2r, geom.d2r)
    margin_c = lhs[..., None, None] - c2 * d2_sq
    flat = np.argmin(margin_c.reshape(grid.counts + (-1,)).min(axis=-1))
    node_c = tuple(int(i) for i in np.unravel_index(flat, grid.counts))

    return CoercivityReport(
        margin_spatial_eig=float(margin_a.min()),
        node_spatial_eig=node_a,
        margin_normal_grad=float(margin_b.min()),
        node_normal_grad=node_b,
        margin_second_deriv=float(margin_c.min()),
        node_second_deriv=node_c,
    )
