"""Penalty-method minimization of J_K over the interior field degrees of freedom.

Descent is L-BFGS (Nocedal & Wright, Numerical Optimization, Alg. 7.4); each configuration it
evaluates gets one geometry cache and one value-and-gradient pass (energy.backward_JK), J_K and its
exact gradient.  With r frozen, the r part is built once, before a continuation's first leg, and a line search
opens at the exact minimiser of the quartic J_K along its direction (N & W 3.5); every search halves from its start.
A continuation sweep drives K upward with warm starts and fits the log-log
slope of the constraint residuals against K, which should sit near -1.
"""

from __future__ import annotations

import contextlib
import logging
import math
from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .grid import FieldSet, ParameterGrid, _cell, _csv_row, _gradient, _worst_node, apply_boundary
from .geometry import GeometryCache, GeometryError, build_geometry, _signs
from .energy import _KINDS, NonFiniteValueError, _densities, _residuals, _step_polynomial, backward_JK

logger = logging.getLogger(__name__)

THEOREM_M_RANGE = (5, 8)

# Backtracking line search along a descent direction d: a trial step alpha is accepted on sufficient decrease
# J_K(x + alpha d) <= J_K(x) + ARMIJO_C alpha grad.d (Nocedal & Wright, 3.1) that is also strict, J_K(x + alpha d)
# < J_K(x): once ARMIJO_C alpha grad.d is below the rounding of J_K, an unchanged J_K would pass the first test.
# Otherwise alpha is shrunk by BACKTRACK; below MIN_STEP the leg stops as line_search_underflow.  A trial on the
# quartic tests ARMIJO_C on its own difference, free of two totals' rounding (Hager & Zhang, SIAM J. Optim. 16
# (2005) 170-192).  L-BFGS keeps the last MEMORY pairs (s, y) of step and gradient change, and skips a pair whose
# curvature s.y <= CURVATURE_TOL |s| |y|.
ARMIJO_C = 1e-4
BACKTRACK = 0.5
MIN_STEP = 1e-14
MEMORY = 8
CURVATURE_TOL = 1e-12


@dataclass(frozen=True)
class PenaltyConfig:
    """Knobs for the descent loop and the K continuation."""

    k_schedule: tuple[float, ...] = (10.0, 100.0, 1000.0, 10000.0)
    step_init: float = 0.1
    grad_tol: float = 1e-6
    max_iters: int = 5000
    optimize_fields: tuple[str, ...] = _KINDS

    def __post_init__(self):
        # A bool is an int to Python, so True would run one iteration or step by 1: every numeric knob refuses one.
        ks, is_bool = self.k_schedule, lambda v: isinstance(v, (bool, np.bool_))
        if not ks or not all(0 < k < np.inf and not is_bool(k) for k in ks) or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError(f"k_schedule must be finite, positive, strictly increasing numbers (got {ks!r})")
        for name in ("step_init", "grad_tol"):
            if is_bool(getattr(self, name)) or not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be a finite number > 0 (got {getattr(self, name)!r})")
        # minimize_fixed_K stops on iters == max_iters: a negative or fractional cap is never reached.
        if is_bool(self.max_iters) or not isinstance(self.max_iters, (int, np.integer)) or self.max_iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0 (got {self.max_iters!r})")
        bad = set(self.optimize_fields) - set(_KINDS)
        if bad or not self.optimize_fields or isinstance(self.optimize_fields, str):  # "rn" is not r and n
            raise ValueError(f"optimize_fields must be a nonempty subset of r, phi, n (got {self.optimize_fields!r})")


@dataclass
class KRecord:
    """Outcome of one fixed-K minimization.

    termination says why the descent stopped: converged, max_iters or
    line_search_underflow; stalled and converged are read from it.
    evaluations counts the start and every evaluated trial, backtracked the line searches whose first trial was
    refused, resets and fallbacks the L-BFGS memory clears (see minimize_fixed_K).  start_total_J is J at the leg's
    start: after two converged legs, the extrapolated start's (see penalty_continuation).
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
    evaluations: int
    resets: int
    fallbacks: int
    backtracked: int
    start_total_J: float = float("nan")
    jk_trace: list[float] = dc_field(default_factory=list)

    # The CSV columns, each read from the attribute of its name.
    CSV_FIELDS = ("K", "iterations", "total_J", "total_JK", "res_norm", "res_orth", "res_unit", "grad_norm", "stalled",
                  "termination")

    @property
    def stalled(self) -> bool:
        return self.termination == "line_search_underflow"

    @property
    def converged(self) -> bool:
        return self.termination == "converged"

    def csv_row(self) -> str:
        return _csv_row(self, self.CSV_FIELDS)


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
        slopes = {name: self.slopes.get(name) for name in ("norm", "orth", "unit")}
        return "slopes: " + " ".join(f"{k}={'skipped' if s is None else _cell(s)}" for k, s in slopes.items())


def fit_loglog_slope(params: Sequence[float], residuals: Sequence[float]) -> float:
    """Least-squares slope of log residual against log parameter.  ValueError unless there are two or more pairs,
    every entry is finite and > 0 and the params are not all equal."""
    x, y = np.asarray(params, dtype=float), np.asarray(residuals, dtype=float)
    if (x.ndim != 1 or x.shape != y.shape or x.size < 2 or (x == x[0]).all()
            or not ((0 < x) & (x < np.inf) & (0 < y) & (y < np.inf)).all()):
        raise ValueError(f"params and residuals must be two or more pairs of finite numbers > 0, the params not all"
                         f" equal (got {params!r}, {residuals!r})")
    return float(np.polyfit(np.log10(x), np.log10(y), 1)[0])


def _interior(arrays: Sequence[np.ndarray], grid: ParameterGrid, kinds: Sequence[str]) -> list[np.ndarray]:
    """Interior blocks of those of (r, phi, n) named in kinds, in that order, as real views: phi's (Re, Im) pairs."""
    box = (slice(1, -1),) * grid.ndim
    return [a[box].view(float) for kind, a in zip(_KINDS, arrays) if kind in kinds]


def pack_interior(fields: FieldSet, grid: ParameterGrid) -> np.ndarray:
    """Every interior DOF, packed as the descent packs them: r, phi as (Re, Im) pairs, n, each row-major."""
    return np.concatenate([block.ravel() for block in _interior((fields.r, fields.phi, fields.n), grid, _KINDS)])


def _add_scaled(fields: FieldSet, d: np.ndarray, alpha: float, grid: ParameterGrid, kinds: Sequence[str]) -> FieldSet:
    """fields plus alpha times d, the packed interior direction over kinds; every other field keeps its bytes."""
    out = fields.copy()
    start = 0
    for block in _interior((out.r, out.phi, out.n), grid, kinds):
        block += alpha * d[start : start + block.size].reshape(block.shape)
        start += block.size
    return out


def _clamp_phi(fields: FieldSet) -> bool:
    """Radial projection back to |phi|^2 >= eps, preserving phase; True if a node moved."""
    mag_sq = np.abs(fields.phi) ** 2
    low = mag_sq < fields.eps
    if low.any():
        target = np.sqrt(fields.eps)
        mag = np.sqrt(mag_sq[low])
        vals = fields.phi[low]
        fields.phi[low] = np.where(mag > 0, vals * (target / np.where(mag > 0, mag, 1.0)), target)
    return bool(low.any())


def gradient_JK(
    fields: FieldSet,
    grid: ParameterGrid,
    K: float,
    kinds: tuple[str, ...] = _KINDS,
) -> FieldSet:
    """Exact gradient of J_K over the interior DOFs: one forward, one backward pass.

    Returned as a FieldSet-shaped object: boundary entries are zero, and the
    phi slot carries dJ/d(Re phi) + i dJ/d(Im phi).  ``kinds`` restricts the
    blocks; entries outside them stay zero.  A configuration where J_K cannot
    be evaluated raises what assemble_JK raises, GeometryError or
    NonFiniteValueError, naming the node.
    """
    _, grads = backward_JK(fields, grid, K, build_geometry(fields, grid), kinds)
    for arr in grads:
        arr[grid.boundary_mask] = 0.0
    return FieldSet(*grads, r_bc=np.zeros_like(fields.r_bc), phi_bc=np.zeros_like(fields.phi_bc), eps=fields.eps)


def _lbfgs_direction(grad: np.ndarray, memory: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """-H grad by the two-loop recursion over the (s, y) pairs, oldest first.

    H is the BFGS inverse Hessian from H_0 = (s.y / y.y) I of the newest pair.
    """
    q = grad.copy()
    sy = [s @ y for s, y in memory]
    alphas = []
    for (s, y), s_y in zip(reversed(memory), reversed(sy)):
        alphas.append((s @ q) / s_y)
        q -= alphas[-1] * y
    if memory:
        q *= sy[-1] / (memory[-1][1] @ memory[-1][1])
    for (s, y), s_y, a in zip(memory, sy, reversed(alphas)):
        q += (a - (y @ q) / s_y) * s
    return -q


def _exact_step(c: Sequence[float]) -> Optional[float]:
    """The least alpha > 0 with Delta'(alpha) = 0, Delta = sum_k c_k alpha^k (k = 1..4), if c_1 < 0, else None; its
    Armijo test is minimize_fixed_K's.  1/alpha = t - b/3 for the greatest root t of t^3 + p t + q, the cubic
    c_1 b^3 + 2c_2 b^2 + 3c_3 b + 4c_4 over c_1 (Cardano's one real root, or the greatest of three).  A nan disc
    (overflow) takes Cardano's branch, which then gives None: the other needs p < 0, which only disc < 0 implies."""
    c1, c2, c3, c4 = c
    if not c1 < 0.0:
        return None
    b, e, f = 2.0 * c2 / c1, 3.0 * c3 / c1, 4.0 * c4 / c1
    p, q = e - b * b / 3.0, 2.0 * b * b * b / 27.0 - b * e / 3.0 + f
    disc, cbrt = 0.25 * q * q + p * p * p / 27.0, lambda v: math.copysign(abs(v) ** (1.0 / 3.0), v)
    t = (cbrt(-0.5 * q + math.sqrt(disc)) + cbrt(-0.5 * q - math.sqrt(disc)) if not disc < 0.0 else
         2.0 * math.sqrt(-p / 3.0) * math.cos(math.acos(max(-1.0, min(1.0, 1.5 * q / p * math.sqrt(-3.0 / p)))) / 3))
    alpha = 1.0 / (t - b / 3.0) if t > b / 3.0 else math.nan
    curvature = 2.0 * c2 + alpha * (6.0 * c3 + 12.0 * c4 * alpha)  # one Newton step on Delta'
    alpha -= (c1 + alpha * (2.0 * c2 + alpha * (3.0 * c3 + 4.0 * c4 * alpha))) / curvature if curvature else 0.0
    return alpha if 0.0 < alpha < math.inf else None


def minimize_fixed_K(
    fields: FieldSet,
    grid: ParameterGrid,
    K: float,
    cfg: PenaltyConfig,
    _base: Optional[GeometryCache] = None,
) -> tuple[FieldSet, KRecord]:
    """L-BFGS on J_K at fixed K over the interior blocks of cfg.optimize_fields.

    Each iteration's line search opens at the least positive stationary point of the quartic Delta(alpha) =
    J_K(x + alpha d) - J_K(x) (energy._step_polynomial, r frozen), else at 1, or at cfg.step_init while the memory
    is empty (a leg's first step, after a reset or a fallback), and halves alpha from there.  A trial on the quartic
    (r frozen, no node of phi clamped) failing Armijo on Delta is halved unevaluated, one passing it is taken unless
    its evaluation fails or the rounded J_K rises, and any other trial is taken if J_K strictly decreases by
    Armijo's margin.  phi is clamped back to the admissible set after every step; a clamp that moves a node clears
    the memory (a reset), as does a direction that is not one of descent, replaced by -grad (a fallback).  A trial
    whose geometry is degenerate or whose integrand is not finite is rejected; underflow is recorded as a stall.
    With "r" optimised _base is None and every configuration gets its own build_geometry.  With r frozen one
    geometry of r serves every configuration as it is: _base, or the start's build if _base is None.
    """

    def evaluate(x, base):
        geom = build_geometry(x, grid) if base is None else base
        cur, grads = backward_JK(x, grid, K, geom, cfg.optimize_fields)
        return geom, cur, np.concatenate([block.ravel() for block in _interior(grads, grid, cfg.optimize_fields)])

    x = apply_boundary(fields, grid)
    _clamp_phi(x)
    geom, cur, grad = evaluate(x, _base)
    base = None if "r" in cfg.optimize_fields else geom
    start_J, trace = cur.total_J, [cur.total_JK]
    memory: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=MEMORY)
    termination = "max_iters"
    iters = resets = fallbacks = backtracked = 0
    zero = FieldSet(*(np.zeros_like(a) for a in (x.r, x.phi, x.n)), x.r_bc, x.phi_bc, x.eps)
    evaluations = 1

    while True:
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= cfg.grad_tol:
            termination = "converged"
            break
        if iters == cfg.max_iters:
            break
        d = _lbfgs_direction(grad, memory)
        slope = float(grad @ d)
        if not slope < 0.0:
            memory.clear()
            fallbacks += 1
            d, slope = -grad, -grad_norm * grad_norm
        alpha, c, kinds = 1.0 if memory else cfg.step_init, None, cfg.optimize_fields
        if base is not None:  # r frozen: J_K is a quartic along d, and its exact step opens the search
            with contextlib.suppress(NonFiniteValueError):
                c = _step_polynomial(cur.densities, _add_scaled(zero, d, 1.0, grid, kinds), base, grid, K)
                alpha = _exact_step(c) or alpha
        first = alpha
        while alpha >= MIN_STEP:
            clamped = _clamp_phi(trial := _add_scaled(x, d, alpha, grid, kinds))
            quartic = c is not None and not clamped  # a clamp leaves the quartic
            if not quartic or c[0] + alpha * (c[1] + alpha * (c[2] + alpha * c[3])) <= ARMIJO_C * c[0]:
                evaluations += 1
                try:
                    trial_geom, trial_cur, trial_grad = evaluate(trial, base)
                except (GeometryError, NonFiniteValueError):
                    trial_cur = None
                if trial_cur is not None and (trial_cur.total_JK <= cur.total_JK if quartic
                        else cur.total_JK > trial_cur.total_JK <= cur.total_JK + ARMIJO_C * alpha * slope):
                    break
            alpha *= BACKTRACK
        else:  # the last search, whose halving underflowed, counts as backtracked too
            backtracked, termination = backtracked + 1, "line_search_underflow"
            break
        backtracked += alpha != first
        if clamped:
            memory.clear()
            resets += 1
        else:
            s, y = alpha * d, trial_grad - grad
            if s @ y > CURVATURE_TOL * np.linalg.norm(s) * np.linalg.norm(y):
                memory.append((s, y))
        x, geom, cur, grad = trial, trial_geom, trial_cur, trial_grad
        trace.append(cur.total_JK)
        iters += 1

    res_norm, res_orth, res_unit = _residuals(cur.densities, geom, grid)
    return x, KRecord(
        K=float(K),
        iterations=iters,
        total_J=cur.total_J,
        total_JK=cur.total_JK,
        res_norm=res_norm,
        res_orth=res_orth,
        res_unit=res_unit,
        grad_norm=grad_norm,
        termination=termination,
        evaluations=evaluations,
        resets=resets,
        fallbacks=fallbacks,
        backtracked=backtracked,
        start_total_J=start_J,
        jk_trace=trace,
    )


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

    A leg starts at the last one's end x_i; after two converged legs, at x_i + w (x_i - x_{i-1}) on the optimised
    blocks, w = (1/K_{i+1} - 1/K_i) / (1/K_i - 1/K_{i-1}), as the residuals decay like 1/K.
    Slopes are fitted per constraint over the schedule points whose residual
    exceeds 1e-12; a residual at machine zero is skipped.
    """
    notice = theorem_range_notice(grid.m, fields.n_ambient)
    if notice:
        logger.info(notice)
    records: list[KRecord] = []
    base = None if "r" in cfg.optimize_fields else build_geometry(apply_boundary(fields, grid), grid)
    for K in cfg.k_schedule:
        start = fields
        if len(records) >= 2 and records[-1].converged and records[-2].converged:  # minimize_fixed_K clamps phi
            w, start = (1.0 / K - 1.0 / records[-1].K) / (1.0 / records[-1].K - 1.0 / records[-2].K), fields.copy()
            for new, old in zip(*(_interior((f.r, f.phi, f.n), grid, cfg.optimize_fields) for f in (start, last))):
                new += w * (new - old)
        last, (fields, rec) = fields, minimize_fixed_K(start, grid, K, cfg, base)
        records.append(rec)

    slopes: dict[str, Optional[float]] = {}
    for name in ("norm", "orth", "unit"):
        kept = [(rec.K, getattr(rec, "res_" + name)) for rec in records if getattr(rec, "res_" + name) > 1e-12]
        slopes[name] = fit_loglog_slope(*zip(*kept)) if len(kept) >= 2 else None
    return MinimizeReport(
        records=records, slopes=slopes, theorem_range_notice=notice, final_fields=fields
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
    margin_a = _worst_node(grid.ndim, np.linalg.eigvalsh(geom.g_inv[..., 1:, 1:])[..., 0] - c0, least=True)

    forms = _densities(fields, geom, grid).forms
    lhs = forms.phi_sq * forms.curvature
    dn = _gradient(fields.n, grid)
    dn_sq = (dn * dn * _signs(fields.n.shape[-1])).sum((-2, -1))
    margin_b = _worst_node(grid.ndim, lhs - c1 * dn_sq, least=True)
    d2_sq = (geom.d2r * geom.d2r).sum(-1)
    margin_c = _worst_node(grid.ndim, lhs[..., None, None] - c2 * d2_sq, least=True)
    return CoercivityReport(*margin_a, *margin_b, *margin_c)
