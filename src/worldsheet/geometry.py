"""Per-node differential geometry of the discretized sheet.

Everything here is derived from the position field r and the candidate normal
n: tangent vectors, the induced Lorentzian metric, Christoffel symbols (by
tangential projection of the second derivatives, not by metric derivatives),
the second fundamental form, the curvature tensor, and the residuals of the
two structure identities that tie them together.  All inner products are the
signature (-,+,...,+) Minkowski form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    ChartMap, FieldSet, ParameterGrid, _first_node, _gradient, _node_str, _raise_at_first, finite_difference,
    finite_difference_adjoint,
)


# Admissibility thresholds of the induced geometry.
SINGULAR_TOL = 1e-10  # |det g| <= it * prod_j |t_j|_E^2: degenerate metric
FRAME_NULL_TOL = 1e-8  # |v.v| <= it * |v|_E^2: a null normal-frame candidate v
FRAME_SKIP_TOL = 1e-8  # |v|_E below it: a linearly dependent candidate, skipped
UNIT_TOL = 1e-8  # |n.n - 1| above it: the normal is not unit


class GeometryError(ValueError):
    """Base for degenerate-geometry failures."""


class DegenerateMetricError(GeometryError):
    pass


class SignatureError(GeometryError):
    pass


class DegenerateFrameError(GeometryError):
    pass


class NonUnitNormalError(GeometryError):
    pass


def _signs(dim: int) -> np.ndarray:
    s = np.ones(dim)
    s[0] = -1.0
    return s


def minkowski_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Signature (-,+,...,+) inner product along the last axis.

    Broadcasts over leading axes; scalar for plain vectors.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] != b.shape[-1]:
        raise ValueError(f"vector length mismatch: {a.shape[-1]} vs {b.shape[-1]}")
    prod = a * b
    out = np.sum(prod[..., 1:], axis=-1) - prod[..., 0]
    if out.ndim == 0:
        return float(out)
    return out


@dataclass
class MetricData:
    """Induced metric quantities per node."""

    tangents: np.ndarray    # (*counts, m+1, N+1), tangents[..., j, :] = dr/du_j
    g: np.ndarray           # (*counts, m+1, m+1)
    g_inv: np.ndarray       # (*counts, m+1, m+1)
    det_g: np.ndarray       # (*counts,)
    sqrt_neg_g: np.ndarray  # (*counts,)


def metric(fields: FieldSet, grid: ParameterGrid) -> MetricData:
    """Tangents by finite differences, g_jk by Minkowski products, det g and g^-1 from one factorisation.

    The one non-degeneracy test of the tangent span, free of the units of r:
    DegenerateMetricError when |det g| <= SINGULAR_TOL * prod_j |t_j|_E^2, the
    Cauchy-Binet and Hadamard bound on |det g| (so a zero tangent raises too).
    GeometryError when a tangent's square is not finite, SignatureError when
    det g > 0 (the sheet lost its time-like direction); each names the node.
    Then DegenerateMetricError when some |t_j|_E <= eps * max_nodes |r|_E / h_j
    (eps the float epsilon): a tangent no longer than the rounding of the
    differences that form it, as where a stencil spans a full turn, is noise
    that the relative Hadamard test cannot tell from a direction.
    A non-finite r entry is refused first, at its own node, before the stencils spread it.
    """
    _raise_at_first(~np.isfinite(fields.r).all(-1), GeometryError, "r is not finite at node {node}")
    tangents = _gradient(fields.r, grid)
    g = (tangents * _signs(fields.r.shape[-1])) @ np.swapaxes(tangents, -1, -2)
    lengths = (tangents * tangents).sum(-1)  # |t_j|_E^2
    hadamard = lengths.prod(-1)
    det, g_inv = _factor(g)
    sound = np.abs(det) > SINGULAR_TOL * hadamard  # False on the NaN of an overflowed tangent too
    node = _first_node(~sound)
    if node is not None:
        if not np.isfinite(hadamard[node]):
            raise GeometryError(f"metric is not finite at node {_node_str(node)}")
        raise DegenerateMetricError(f"|det g| <= {SINGULAR_TOL} x its Hadamard bound at node {_node_str(node)}")
    _raise_at_first(det > 0, SignatureError, "det g > 0 at node {node}: no time-like direction")
    rounding = np.finfo(float).eps ** 2 * np.einsum("...i,...i", fields.r, fields.r).max() / np.square(grid.spacings)
    _raise_at_first((lengths <= rounding).any(-1), DegenerateMetricError,
                    "a tangent is at the rounding level of r at node {node}: |t_j|_E <= eps x max |r|_E / h_j")
    return MetricData(
        tangents=tangents,
        g=g,
        g_inv=g_inv,
        det_g=det,
        sqrt_neg_g=np.sqrt(-det),
    )


def _factor(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """det and inverse of every (m, m) matrix in a, by one Gauss-Jordan pass with partial pivoting
    (Golub & Van Loan, Matrix Computations, 3.2 and 3.4) on whole length-N vectors: the node axis
    is last.  A zero pivot gives det 0 and a non-finite entry a non-finite det, with no warning.
    """
    lead, m = a.shape[:-2], a.shape[-1]
    w = np.empty((m, 2 * m, a[..., 0, 0].size))  # [row, column of (a | I), node]
    w[:, :m] = np.moveaxis(a.reshape(-1, m, m), 0, -1)
    eye = np.eye(m)
    w[:, m:] = eye[..., None]
    det, nodes = np.ones(w.shape[-1]), np.arange(w.shape[-1])
    with np.errstate(all="ignore"):
        for k in range(m):
            p = k + np.abs(w[k:, k]).argmax(0)
            swap = p != k
            if swap.any():
                det[swap] *= -1.0
                w[p, k:, nodes], w[k, k:] = w[k, k:].T, w[p, k:, nodes].T
            det *= w[k, k]
            w[k, k:] /= np.where(w[k, k] == 0.0, 1.0, w[k, k])  # a non-zero pivot becomes 1 exactly: row k stays
            w[:, k + 1 :] -= (w[:, k] - eye[:, k, None])[:, None] * w[k, k + 1 :]
    return det.reshape(lead), np.ascontiguousarray(np.moveaxis(w[:, m:], -1, 0)).reshape(lead + (m, m))


@dataclass
class NormalFrame:
    """Orthonormal space-like normal frame."""

    vectors: np.ndarray  # (*counts, s, N+1), minkowski-orthonormal, orthogonal to tangents


def normal_frame(metric_data: MetricData) -> NormalFrame:
    """Gram-Schmidt normal frame seeded from the canonical basis e_0..e_N.

    The candidates are the columns P e_i of the Minkowski projector onto the
    normal space, P = I - T^T g^-1 T S (T the tangent rows, S the signature),
    which needs only the g^-1 that metric has certified.  They are
    orthonormalized in fixed order.  Candidates whose residual is
    (Euclidean) negligible are skipped as linearly dependent; a
    non-negligible residual v with |v.v| <= FRAME_NULL_TOL * |v|_E^2 means the
    complement contains a null direction and the frame is degenerate.
    """
    tangents = metric_data.tangents
    counts = tangents.shape[:-2]
    dim = tangents.shape[-1]
    s_normals = dim - tangents.shape[-2]
    if s_normals < 1:
        raise DegenerateFrameError("no normal directions: ambient dimension too small")
    signs = _signs(dim)
    proj = np.eye(dim) - np.swapaxes(tangents, -1, -2) @ (metric_data.g_inv @ (tangents * signs))

    frame = np.zeros(counts + (s_normals, dim))
    filled = np.zeros(counts, dtype=np.intp)
    for i in range(dim):
        active = filled < s_normals
        if not active.any():
            break
        v = proj[..., i].copy()
        # Unfilled frame slots are zero rows, so projecting against all s
        # slots is a no-op for them.
        for q in range(s_normals):
            coef = (v * frame[..., q, :]) @ signs
            v -= coef[..., None] * frame[..., q, :]
        vv = v * v
        eucl, nu = vv.sum(-1), vv @ signs
        skip = eucl < FRAME_SKIP_TOL**2
        candidate = active & ~skip
        _raise_at_first(candidate & (np.abs(nu) <= FRAME_NULL_TOL * eucl), DegenerateFrameError,
                        "null direction in the tangent complement at node {node}")
        _raise_at_first(candidate & (nu < 0), DegenerateFrameError,
                        "time-like direction in the tangent complement at node {node}")
        if candidate.any():
            unit = v / np.sqrt(np.where(candidate, nu, 1.0))[..., None]
            where = np.nonzero(candidate)
            frame[where + (filled[where],)] = unit[where]
            filled[where] += 1
    _raise_at_first(filled < s_normals, DegenerateFrameError, "normal frame incomplete at node {node}")
    return NormalFrame(vectors=frame)


def oriented_normal(metric_data: MetricData) -> np.ndarray:
    """The first normal-frame vector n, signed so that (t_0, ..., t_m, n) is positively oriented in the
    first m+2 ambient coordinates; DegenerateFrameError where that determinant is 0 or not finite."""
    n = normal_frame(metric_data).vectors[..., 0, :]
    tangents = metric_data.tangents
    det = np.linalg.det(np.concatenate([tangents, n[..., None, :]], axis=-2)[..., : tangents.shape[-2] + 1])
    _raise_at_first(~(np.isfinite(det) & (det != 0.0)), DegenerateFrameError,
                    "normal orientation undefined at node {node}: det(t_0, ..., t_m, n) is 0 or not finite")
    return n * np.sign(det)[..., None]


def second_derivatives(r: np.ndarray, tangents: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """d^2 r / du_j du_k per node, shape (*counts, m+1, m+1, N+1).

    tangents are metric's dr/du_j.  Mixed entries differentiate them once
    more, D_k t_j for j < k, and are mirrored, so the array is symmetric in
    (j, k) bit-for-bit; the diagonal is the second-order stencil of r.
    """
    nd = grid.ndim
    d2 = np.empty(grid.counts + (nd, nd) + r.shape[grid.ndim :], dtype=float)
    for k in range(nd):
        d2[..., k, k, :] = finite_difference(r, grid, k, order=2)
        if k:
            mixed = finite_difference(tangents[..., :k, :], grid, k)
            d2[..., :k, k, :] = mixed
            d2[..., k, :k, :] = mixed
    return d2


def _second_derivatives_adjoint(bar_t: np.ndarray, bar_d2r: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """Transpose of r -> (tangents, second_derivatives(r, tangents, grid)).

    Returns the node field x with <x, dr> = <bar_t, dt> + <bar_d2r, d d2r>
    for every perturbation dr; the mixed entries run back through the
    tangent stack, as they were formed.
    """
    bar_t = bar_t.copy()
    for k in range(1, grid.ndim):
        sym = bar_d2r[..., :k, k, :] + bar_d2r[..., k, :k, :]
        bar_t[..., :k, :] += finite_difference_adjoint(sym, grid, k)
    return sum(
        finite_difference_adjoint(bar_t[..., j, :], grid, j)
        + finite_difference_adjoint(bar_d2r[..., j, j, :], grid, j, order=2)
        for j in range(grid.ndim)
    )


def christoffel(d2r: np.ndarray, metric_data: MetricData) -> np.ndarray:
    """Christoffel symbols as the tangential projection of d^2 r.

    Gamma^l_jk = g^{ls} (d^2 r/du_j du_k . g_s); returned with index order
    [..., l, j, k], symmetric in (j, k).  Matmuls fix the contraction order.
    """
    pairs = d2r.reshape(d2r.shape[:-3] + (-1, d2r.shape[-1]))
    proj = pairs @ np.swapaxes(metric_data.tangents * _signs(d2r.shape[-1]), -1, -2)  # [..., jk, s]
    gamma = metric_data.g_inv @ np.swapaxes(proj, -1, -2)
    return gamma.reshape(gamma.shape[:-1] + d2r.shape[-3:-1])


def _beltrami(d2r: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """g^{jk} d^2 r/du_j du_k per node, shape [..., N+1], by one (1, m^2) @ (m^2, N+1) matmul."""
    nd = g_inv.shape[-1]
    return (g_inv.reshape(g_inv.shape[:-2] + (1, nd * nd)) @ d2r.reshape(d2r.shape[:-3] + (nd * nd, -1)))[..., 0, :]


def _contracted_christoffel(d2r: np.ndarray, metric_data: MetricData) -> np.ndarray:
    """gamma_c^l = Gamma^l_jk g^{jk} = g^{ls} (t_s . g^{jk} d2r_jk) per node, the tangential part of the
    Beltrami operator g^{jk} d_j d_k r, shape [..., m+1]: Gamma, linear in d2r, is never formed."""
    p = (metric_data.tangents * _signs(d2r.shape[-1])) @ _beltrami(d2r, metric_data.g_inv)[..., None]  # [..., s, 1]
    return (metric_data.g_inv @ p)[..., 0]


def _contracted_christoffel_adjoint(
    bar_gamma_c: np.ndarray, d2r: np.ndarray, metric_data: MetricData
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse mode of _contracted_christoffel: the bars of g^{-1}, d2r and the tangents from gamma_c's."""
    tangents, g_inv, signs = metric_data.tangents, metric_data.g_inv, _signs(d2r.shape[-1])
    w_s = _beltrami(d2r, g_inv) * signs
    bar_p = (np.swapaxes(g_inv, -1, -2) @ bar_gamma_c[..., None])[..., 0]  # [..., s]
    bar_w = (bar_p[..., None, :] @ tangents)[..., 0, :] * signs
    bar_g_inv = bar_gamma_c[..., :, None] * (tangents @ w_s[..., None])[..., None, :, 0]
    bar_g_inv += (d2r.reshape(d2r.shape[:-3] + (-1, d2r.shape[-1])) @ bar_w[..., None]).reshape(g_inv.shape)
    return bar_g_inv, g_inv[..., None] * bar_w[..., None, None, :], bar_p[..., :, None] * w_s[..., None, :]


def _curvature_form(d2r: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """Q = S C S per node, C_ab = g^{jk} g^{lm} d2r_{jl,a} d2r_{km,b} = tr(M_a M_b), M_a = g^{-1} D_a for D_a the
    (j, l) matrix of d2r's component a: n^T Q n is the curvature density of n.  C is one matmul of M's rows."""
    m = (g_inv @ d2r.reshape(g_inv.shape[:-1] + (-1,))).reshape(d2r.shape)
    rows, signs = d2r.shape[:-3] + (-1, d2r.shape[-1]), _signs(d2r.shape[-1])
    return (np.swapaxes(m.reshape(rows), -1, -2) @ np.swapaxes(m, -3, -2).reshape(rows)) * np.outer(signs, signs)


def _curvature_form_adjoint(c, d2r, n, md: MetricData) -> tuple[np.ndarray, np.ndarray]:
    """Reverse mode of the curvature density c n^T Q n = c tr(g^{-1} b g^{-1} b), b_jl = d2r_jl . S n, in g^{-1} and
    d2r: the bars 2c (b g^{-1} b)^T and 2c (g^{-1} b g^{-1})^T (x) S n, by two (m+1, m+1) matmuls after b and b^l_j."""
    b, b_up = _fundamental_form_raw(d2r, n, md)  # b_up = (b g^{-1})^T
    two_c = 2.0 * c[..., None, None]
    bar_b = two_c * (b_up @ np.swapaxes(md.g_inv, -1, -2))
    return two_c * (np.swapaxes(b, -1, -2) @ b_up), bar_b[..., None] * (n * _signs(n.shape[-1]))[..., None, None, :]


def second_fundamental_form(
    d2r: np.ndarray, normal: np.ndarray, metric_data: MetricData
) -> tuple[np.ndarray, np.ndarray]:
    """b_jk = d^2 r/du_j du_k . n and the raised form b^l_j = b_jk g^{kl}.

    The normal must be unit to within UNIT_TOL in the Minkowski norm, else NonUnitNormalError names the node.
    """
    nn = minkowski_dot(normal, normal)
    node = _first_node(~(np.abs(nn - 1.0) <= UNIT_TOL))  # a NaN n.n is not unit either
    if node is not None:
        raise NonUnitNormalError(f"normal is not unit at node {_node_str(node)} (n.n = {nn[node]:.6g})")
    return _fundamental_form_raw(d2r, normal, metric_data)


def _fundamental_form_raw(
    d2r: np.ndarray, normal: np.ndarray, metric_data: MetricData
) -> tuple[np.ndarray, np.ndarray]:
    # b is linear in the normal; no unit check so penalized candidates work too.
    nd, dim = d2r.shape[-2:]
    pairs = d2r.reshape(d2r.shape[:-3] + (nd * nd, dim))
    b = (pairs @ (normal * _signs(dim))[..., None]).reshape(d2r.shape[:-1])
    return b, np.swapaxes(b @ metric_data.g_inv, -1, -2)


def riemann(gamma: np.ndarray, grid: ParameterGrid) -> np.ndarray:
    """Curvature tensor from the connection coefficients.

    R^l_ijk = d Gamma^l_jk/du_i - d Gamma^l_ik/du_j
              + Gamma^p_jk Gamma^l_pi - Gamma^p_ik Gamma^l_pj,
    returned with index order [..., l, i, j, k].  Computed as W - W.swap(i, j),
    so the antisymmetry in (i, j) is exact.
    """
    # W[..., l, i, j, k]: Gamma^l_pi Gamma^p_jk as one (l i, p) @ (p, j k) matmul, plus d Gamma^l_jk/du_i.
    nd = grid.ndim
    lead = gamma.shape[:-3]
    w = np.swapaxes(gamma, -1, -2).reshape(lead + (nd * nd, nd)) @ gamma.reshape(lead + (nd, nd * nd))
    w = w.reshape(gamma.shape + (nd,))
    for i in range(nd):
        w[..., i, :, :] += finite_difference(gamma, grid, axis=i)
    return w - np.swapaxes(w, -3, -2)


def gauss_residual(riemann_tensor: np.ndarray, b: np.ndarray, b_up: np.ndarray) -> float:
    """Max-norm residual of b_jk b^l_i - b_ik b^l_j - R^l_ijk over nodes and indices.

    Meaningful in codimension one, where the single normal carries all of b.
    R must be antisymmetric in (i, j), as riemann returns it.
    """
    pairs, diagonal = _gauss_terms(riemann_tensor, b, b_up)
    return float(np.maximum(pairs.max(), diagonal.max()))


def _gauss_terms(riemann_tensor: np.ndarray, b: np.ndarray, b_up: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|Gauss residual| over the i < j pairs, [..., l, pair, k], and over i = j, |R^l_iik|: every
    entry of the (..., l, i, j, k) residual up to sign, as the (j, i) ones negate the (i, j) ones."""
    i, j = np.triu_indices(b.shape[-1], 1)
    pairs = b_up[..., :, i, None] * b[..., None, j, :] - b_up[..., :, j, None] * b[..., None, i, :]
    pairs -= riemann_tensor[..., :, i, j, :]
    return np.abs(pairs, out=pairs), np.abs(np.diagonal(riemann_tensor, axis1=-3, axis2=-2))


def weingarten_residual(
    fields: FieldSet,
    grid: ParameterGrid,
    b_up: np.ndarray,
    metric_data: MetricData,
    frame: NormalFrame,
) -> tuple[float, np.ndarray]:
    """Residual of dn/du_j = -b^l_j dr/du_l + e^q_j n_hat_q, plus the e^q_j.

    Returns the max Euclidean norm of the per-node, per-direction residual
    vector and the normal-connection coefficients e[..., j, q].
    """
    squares, e = _weingarten_terms(fields, grid, b_up, metric_data, frame)
    return float(np.sqrt(squares.max())), e


def _weingarten_terms(fields, grid, b_up, metric_data, frame) -> tuple[np.ndarray, np.ndarray]:
    """The squared Euclidean norm of the Weingarten residual per node and direction, [..., j], and e[..., j, q]."""
    signs = _signs(fields.r.shape[-1])
    dn = _gradient(fields.n, grid)
    e = (dn * signs) @ np.swapaxes(frame.vectors, -1, -2)
    resid = dn - (e @ frame.vectors - np.swapaxes(b_up, -1, -2) @ metric_data.tangents)
    return (resid * resid).sum(-1), e


@dataclass
class ChartMetric:
    """Chart-induced metric U_ij and its determinant magnitude per chart node."""

    U_ij: np.ndarray    # (*chart counts, 4, 4)
    U: np.ndarray       # (*chart counts,)
    sqrt_U: np.ndarray  # (*chart counts,)


def chart_metric(chart: ChartMap) -> ChartMetric:
    """U_ij = du/dx_i . du/dx_j with the Euclidean dot on parameter space."""
    du = chart.derivatives()
    U_ij = du @ np.swapaxes(du, -1, -2)
    U = np.abs(_factor(U_ij)[0])
    return ChartMetric(U_ij=U_ij, U=U, sqrt_U=np.sqrt(U))


@dataclass
class GeometryCache:
    """All per-node tensors of r needed by the energy functionals and identity checks.

    A function of r alone, so one build serves every configuration with that r.  The build forms what J_K reads:
    the metric, d2r and J_K's r-only factors, Q and gamma_c.  Every other tensor is formed when first read and then
    kept: Gamma, b and b^l_j (from d2r and the build's candidate normal n, as-is, with no unit check), the curvature
    tensor and the normal frame.
    """

    metric: MetricData
    d2r: np.ndarray
    curvature_form: np.ndarray  # Q, (*counts, N+1, N+1)
    gamma_c: np.ndarray         # (*counts, m+1)
    n: np.ndarray
    grid: ParameterGrid

    gamma = cached_property(lambda self: christoffel(self.d2r, self.metric))
    riemann = cached_property(lambda self: riemann(self.gamma, self.grid))
    frame = cached_property(lambda self: normal_frame(self.metric))
    _fundamental_form = cached_property(lambda self: _fundamental_form_raw(self.d2r, self.n, self.metric))
    b = property(lambda self: self._fundamental_form[0])
    b_up = property(lambda self: self._fundamental_form[1])
    tangents = property(lambda self: self.metric.tangents)
    g = property(lambda self: self.metric.g)
    g_inv = property(lambda self: self.metric.g_inv)
    sqrt_neg_g = property(lambda self: self.metric.sqrt_neg_g)


def build_geometry(
    fields: FieldSet, grid: ParameterGrid, with_riemann: bool = False, with_frame: bool = False
) -> GeometryCache:
    """The geometry cache of fields.r, with fields.n for b; a non-finite r, then phi, is refused at its node.
    with_riemann and with_frame read the curvature tensor and then the frame during the build."""
    md = metric(fields, grid)
    d2r = second_derivatives(fields.r, md.tangents, grid)
    _raise_at_first(~np.isfinite(fields.phi), GeometryError, "phi is not finite at node {node}")
    cache = GeometryCache(md, d2r, _curvature_form(d2r, md.g_inv), _contracted_christoffel(d2r, md), fields.n, grid)
    if with_riemann:
        _ = cache.riemann
    if with_frame:
        _ = cache.frame
    return cache
