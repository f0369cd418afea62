"""The per-node contractions against their einsum forms.

geometry, energy, optimizer and the CLI contract per node with batched
matmuls over reshaped index pairs or with broadcast products, and energy's
producer of bilinear forms with einsums and complex products.  The einsum
code they replaced stays here as the oracle, one per rewritten function, and
the producer's oracle forms each image and each form as one complex einsum:
each result, and the full backward pass built on the oracles, must agree to
rounding (1e-14 relative) on curved, noisy starts, one of them inside the
existence theorem's range (m = 5, N = 6).  The one-pass evaluation paths
(J_K's integrals, the adjoint stencil, the interior DOF packing and the
two-loop recursion) are held to the forms they replaced bit for bit.  The
mixed amplitude/connection tensor S, which the package does not form, is J2's
oracle: half the integral of g^{jk} Re S^l_{ljk} is j2_energy's sum.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

from worldsheet import backward_JK, build_geometry, build_grid, christoffel, geometry, make_chart, presets
from worldsheet import cli, energy, optimizer
from worldsheet import grid as grid_mod
from worldsheet.geometry import FRAME_SKIP_TOL, MetricData, _second_derivatives_adjoint, _signs
from worldsheet.grid import FieldSet, _gradient, _node_str, finite_difference, finite_difference_adjoint

REL = 1e-14


def einsum_metric(fields, grid):
    tangents = np.stack([finite_difference(fields.r, grid, axis=j) for j in range(grid.ndim)], axis=-2)
    g = np.einsum("...ja,...ka,a->...jk", tangents, tangents, _signs(fields.r.shape[-1]))
    det = np.linalg.det(g)
    return MetricData(tangents=tangents, g=g, g_inv=np.linalg.inv(g), det_g=det, sqrt_neg_g=np.sqrt(-det))


def einsum_normal_frame(metric_data):
    """normal_frame's Gram-Schmidt without its admissibility checks."""
    tangents = metric_data.tangents
    dim = tangents.shape[-1]
    s_normals = dim - tangents.shape[-2]
    signs = _signs(dim)
    proj = np.eye(dim) - np.swapaxes(tangents, -1, -2) @ (metric_data.g_inv @ (tangents * signs))
    frame = np.zeros(tangents.shape[:-2] + (s_normals, dim))
    filled = np.zeros(tangents.shape[:-2], dtype=np.intp)
    for i in range(dim):
        v = proj[..., i].copy()
        for q in range(s_normals):
            coef = np.einsum("...a,...a,a->...", v, frame[..., q, :], signs)
            v -= coef[..., None] * frame[..., q, :]
        eucl = np.einsum("...a,...a->...", v, v)
        nu = np.einsum("...a,...a,a->...", v, v, signs)
        take = (filled < s_normals) & (eucl >= FRAME_SKIP_TOL**2)
        unit = v / np.sqrt(np.where(take, nu, 1.0))[..., None]
        where = np.nonzero(take)
        frame[where + (filled[where],)] = unit[where]
        filled[where] += 1
    return frame


def einsum_christoffel(d2r, metric_data):
    signs = _signs(d2r.shape[-1])
    proj = np.einsum("...jka,...sa,a->...jks", d2r, metric_data.tangents, signs)
    return np.einsum("...ls,...jks->...ljk", metric_data.g_inv, proj)


def einsum_christoffel_adjoint(bar_gamma, d2r, metric_data):
    tangents, g_inv = metric_data.tangents, metric_data.g_inv
    signs = _signs(d2r.shape[-1])
    proj = np.einsum("...jka,...sa,a->...jks", d2r, tangents, signs)
    bar_g_inv = np.einsum("...ljk,...jks->...ls", bar_gamma, proj)
    bar_proj = np.einsum("...ljk,...ls->...jks", bar_gamma, g_inv)
    bar_d2r = np.einsum("...jks,...sa,a->...jka", bar_proj, tangents, signs)
    bar_t = np.einsum("...jks,...jka,a->...sa", bar_proj, d2r, signs)
    return bar_g_inv, bar_d2r, bar_t


def einsum_fundamental_form(d2r, normal, metric_data):
    b = np.einsum("...jka,...a,a->...jk", d2r, normal, _signs(d2r.shape[-1]))
    return b, np.einsum("...jk,...kl->...lj", b, metric_data.g_inv)


def einsum_curvature_form(d2r, g_inv):
    """Q_ab = s_a s_b g^{jk} g^{lm} d2r_{jl,a} d2r_{km,b}: g^{jk} b_jl b^l_k = n^T Q n."""
    signs = _signs(d2r.shape[-1])
    return np.einsum("...jk,...lm,...jla,...kmb,a,b->...ab", g_inv, g_inv, d2r, d2r, signs, signs, optimize=True)


def einsum_contracted_christoffel(gamma, g_inv):
    return np.einsum("...ljk,...jk->...l", gamma, g_inv)


def einsum_gamma_c(d2r, metric_data):
    """gamma_c by the Gamma route: the einsum Gamma, then its einsum contraction with g^{-1}."""
    return einsum_contracted_christoffel(einsum_christoffel(d2r, metric_data), metric_data.g_inv)


def einsum_gamma_c_adjoint(bar_gamma_c, d2r, metric_data):
    """The reverse mode of the Gamma route: bar_Gamma = bar_gamma_c (x) g^{-1} through Gamma's einsum
    adjoint, plus bar_gamma_c . Gamma into the bar of g^{-1}."""
    bar_gamma = np.einsum("...l,...jk->...ljk", bar_gamma_c, metric_data.g_inv)
    bar_g_inv, bar_d2r, bar_t = einsum_christoffel_adjoint(bar_gamma, d2r, metric_data)
    bar_g_inv += np.einsum("...l,...ljk->...jk", bar_gamma_c, einsum_christoffel(d2r, metric_data))
    return bar_g_inv, bar_d2r, bar_t


def einsum_riemann(gamma, grid):
    dgamma = np.stack([finite_difference(gamma, grid, axis=i) for i in range(grid.ndim)], axis=-4)
    half = np.swapaxes(dgamma, -4, -3) + np.einsum("...pjk,...lpi->...lijk", gamma, gamma)
    return half - np.swapaxes(half, -3, -2)


def einsum_gauss_residual(riemann_tensor, b, b_up):
    lhs = np.einsum("...jk,...li->...lijk", b, b_up)
    rhs = np.einsum("...ik,...lj->...lijk", b, b_up) + riemann_tensor
    return float(np.max(np.abs(lhs - rhs)))


def full_tensor_gauss_residual(riemann_tensor, b, b_up):
    """The |residual| whose maximum gauss_residual took in 0.3.8: the full [..., l, i, j, k] tensor, swapped and subtracted."""
    w = b_up[..., :, :, None, None] * b[..., None, None, :, :]  # b_jk b^l_i at [..., l, i, j, k]
    resid = w - np.swapaxes(w, -3, -2)
    resid -= riemann_tensor
    return np.abs(resid, out=resid)


def einsum_weingarten_squares(fields, grid, b_up, metric_data, frame):
    signs = _signs(fields.r.shape[-1])
    dn = np.stack([finite_difference(fields.n, grid, axis=j) for j in range(grid.ndim)], axis=-2)
    e = np.einsum("...ja,...qa,a->...jq", dn, frame.vectors, signs)
    model = -np.einsum("...lj,...la->...ja", b_up, metric_data.tangents)
    model += np.einsum("...jq,...qa->...ja", e, frame.vectors)
    resid = dn - model
    return np.einsum("...ja,...ja->...j", resid, resid), e


def einsum_weingarten_residual(fields, grid, b_up, metric_data, frame):
    squares, e = einsum_weingarten_squares(fields, grid, b_up, metric_data, frame)
    return float(np.sqrt(squares.max())), e


def einsum_chart_metric(chart):
    du = chart.derivatives()
    U_ij = np.einsum("...ia,...ja->...ij", du, du)
    U = np.abs(np.linalg.det(U_ij))
    return geometry.ChartMetric(U_ij=U_ij, U=U, sqrt_U=np.sqrt(U))


# The bilinear-form producer's einsum oracle, in its two parts: each input image, and each form B_f(a, b), one
# complex einsum of a's and b's fields and images.
def einsum_inputs(phi, dphi, g_inv, gamma_c, n=None, geom=None):
    xy = np.stack([dphi.real, dphi.imag], axis=-1)
    images = np.einsum("...jk,...kc->...jc", g_inv, xy), np.einsum("...l,...l->...", gamma_c, dphi)
    if n is None:
        return energy._Inputs(phi, dphi, xy, *images)
    signs = _signs(n.shape[-1])
    qn = np.einsum("...ab,...b->...a", geom.curvature_form, n)
    tsn = np.einsum("...ja,...a,a->...j", geom.tangents, n, signs)
    return energy._Inputs(phi, dphi, xy, *images, n, n * signs, qn, tsn)


def einsum_forms(a, b):
    g_inv_dphi_b = b.gxy[..., 0] + 1j * b.gxy[..., 1]
    pair = np.einsum("...,...->...", a.cdphi, np.conj(b.phi)) + np.einsum("...,...->...", b.cdphi, np.conj(a.phi))
    forms = [np.einsum("...,...->...", a.phi, np.conj(b.phi)).real,
             np.einsum("...j,...j->...", a.dphi, np.conj(g_inv_dphi_b)).real, pair.real]
    if a.n is not None:
        forms += [np.einsum("...a,...a->...", a.n, b.qn), np.einsum("...a,...a->...", a.n, b.sn),
                  np.einsum("...j,...j->...", a.tsn, b.tsn)]
    return energy._Forms(*forms)


def einsum_s_tensor(phi, geom, grid):
    """The mixed amplitude/connection tensor, index order [..., l, i, j, k]:
    S^l_ijk = (dphi/du_j)(dphi*/du_i) delta_kl + (dphi/du_i) phi* Gamma^l_jk."""
    eye, dphi = np.eye(grid.ndim), _gradient(phi, grid)
    term1 = np.einsum("...j,...i,kl->...lijk", dphi, np.conj(dphi), eye)
    term2 = np.einsum("...i,...,...ljk->...lijk", dphi, np.conj(phi), geom.gamma.astype(complex))
    return term1 + term2


# S traced over (l, i), J2's density, and over (l, j), which is not J2's (a FOUND in CHANGES.md).
TRACE_LI, TRACE_LJ = "...lljk->...jk", "...ljlk->...jk"


def einsum_s_tensor_contracted(phi, geom, grid, trace=TRACE_LI):
    """g^{jk} Re S^l_{ljk} per node: half its integral is J2, the sum of j2_energy's two pieces."""
    traced = np.einsum(trace, einsum_s_tensor(phi, geom, grid))
    return np.einsum("...jk,...jk->...", geom.g_inv, traced).real


def einsum_kinetic_integrand(chart, cmetric, g, phi_sq, sqrt_neg_g, mass):
    udot = chart.derivatives()[..., 0, :]
    speed_sq = -np.einsum("...jk,...j,...k->...", g, udot, udot)
    return mass * chart.c * phi_sq * np.sqrt(speed_sq) * sqrt_neg_g * cmetric.sqrt_U


def chart_fields(fields, grid, chart, geom):
    """|phi|^2, g and sqrt(-g) interpolated onto the chart image points."""
    node_fields = {"phi_sq": np.abs(fields.phi) ** 2, "g": geom.g, "sqrt_neg_g": geom.sqrt_neg_g}
    return {k: energy.interpolate(grid, v, chart.u) for k, v in node_fields.items()}


def einsum_densities(fields, geom, grid):
    """energy._densities with each factor of J_K at x one einsum of x's fields and the r part, and x's inputs
    from einsum_inputs."""
    phi, n, signs, dphi = fields.phi, fields.n, _signs(fields.n.shape[-1]), _gradient(fields.phi, grid)
    re_pair = 2.0 * (dphi * np.conj(phi)[..., None]).real
    dots = np.einsum("...ja,...a,a->...j", geom.tangents, n, signs)
    forms = energy._Forms(np.abs(phi) ** 2, np.einsum("...jk,...j,...k->...", geom.g_inv, dphi, np.conj(dphi)).real,
                          np.einsum("...l,...l->...", re_pair, geom.gamma_c),
                          np.einsum("...a,...ab,...b->...", n, geom.curvature_form, n),
                          np.einsum("...a,...a,a->...", n, n, signs), np.einsum("...j,...j->...", dots, dots))
    mass = energy.slice_masses(forms.phi_sq * geom.sqrt_neg_g, grid)
    return energy._Densities(forms, mass, einsum_inputs(phi, dphi, geom.g_inv, geom.gamma_c, n, geom))


def einsum_backward_JK(fields, grid, K, geom):
    """backward_JK's einsum form on all three blocks, on the einsum densities and Christoffel adjoint.  The
    curvature density's adjoint runs through b_jk and b^l_j, not through the curvature form Q = S C S."""
    phi, n = fields.phi, fields.n
    signs = _signs(fields.r.shape[-1])
    tangents, d2r, gamma, gamma_c = geom.tangents, geom.d2r, geom.gamma, geom.gamma_c
    g_inv, b, b_up, dphi, sq = geom.g_inv, geom.b, geom.b_up, _gradient(phi, grid), geom.sqrt_neg_g
    d = einsum_densities(fields, geom, grid)
    breakdown = energy._breakdown(d, geom, grid, K)
    phi_sq, curv, dots, nn = d.forms.phi_sq, d.forms.curvature, d.x.tsn, d.forms.nn
    re_pair = 2.0 * (dphi * np.conj(phi)[..., None]).real
    rule = energy.QuadratureRule.from_grid(grid)
    w = rule.node_weights * sq
    spatial = np.ones(())
    for axw in rule.axis_weights[1:]:
        spatial = np.multiply.outer(spatial, axw)
    mass_w = np.multiply.outer(K * rule.axis_weights[0] * (d.mass - 1.0), spatial)
    bar_phi = 2.0 * (0.5 * curv * w + mass_w * sq) * phi

    bar_curv = 0.5 * phi_sq * w
    bar_b_up = np.einsum("...,...jk,...jl->...lk", bar_curv, g_inv, b)
    bar_b = np.einsum("...,...jk,...lk->...jl", bar_curv, g_inv, b_up)
    bar_b += np.einsum("...lj,...kl->...jk", bar_b_up, g_inv)
    bar_d = 0.5 * w
    bar_dphi = np.einsum("...,...jk,...k->...j", bar_d, g_inv + np.swapaxes(g_inv, -1, -2), dphi)
    bar_c = 0.25 * w
    bar_pair = bar_c[..., None] * gamma_c
    bar_dphi += 2.0 * bar_pair * phi[..., None]
    bar_phi += 2.0 * np.einsum("...l,...l->...", bar_pair, dphi)
    bar_n = np.einsum("...jk,...jka,a->...a", bar_b, d2r, signs)
    bar_dots = K * w[..., None] * dots
    bar_n += np.einsum("...j,...ja,a->...a", bar_dots, tangents, signs)
    bar_n += (2.0 * K * w * (nn - 1.0))[..., None] * n * signs
    for j in range(grid.ndim):
        bar_phi += finite_difference_adjoint(bar_dphi[..., j], grid, j)

    dens = 0.5 * phi_sq * curv + 0.5 * d.forms.dirichlet + 0.25 * d.forms.christoffel
    dens += 0.5 * K * (np.sum(dots**2, axis=-1) + (nn - 1.0) ** 2)
    bar_sq = rule.node_weights * dens + mass_w * phi_sq
    bar_g_inv = np.einsum("...,...jl,...lk->...jk", bar_curv, b, b_up)
    bar_g_inv += np.einsum("...jk,...lj->...kl", b, bar_b_up)
    bar_g_inv += np.einsum("...,...j,...k->...jk", bar_d, dphi, np.conj(dphi)).real
    bar_gamma_c = bar_c[..., None] * re_pair
    bar_gamma = np.einsum("...l,...jk->...ljk", bar_gamma_c, g_inv)
    bar_g_inv += np.einsum("...l,...ljk->...jk", bar_gamma_c, gamma)
    bar_g_inv_gamma, bar_d2r, bar_t = einsum_christoffel_adjoint(bar_gamma, d2r, geom.metric)
    bar_g_inv += bar_g_inv_gamma
    bar_d2r += np.einsum("...jk,...a,a->...jka", bar_b, n, signs)
    bar_t += np.einsum("...j,...a,a->...ja", bar_dots, n, signs)
    bar_g = -np.einsum("...pj,...pq,...kq->...jk", g_inv, bar_g_inv, g_inv)
    bar_g += np.einsum("...,...kj->...jk", 0.5 * bar_sq * sq, g_inv)
    bar_t += np.einsum("...jk,...ka,a->...ja", bar_g + np.swapaxes(bar_g, -1, -2), tangents, signs)
    return breakdown, (_second_derivatives_adjoint(bar_t, bar_d2r, grid), bar_phi, bar_n)


# Where the library looks each contraction up, and its oracle.
ORACLES = [
    (geometry, "metric", einsum_metric),
    (geometry, "christoffel", einsum_christoffel),
    (geometry, "_fundamental_form_raw", einsum_fundamental_form),
    (geometry, "_curvature_form", einsum_curvature_form),
    (geometry, "_contracted_christoffel", einsum_gamma_c),
    (energy, "chart_metric", einsum_chart_metric),
    (energy, "_inputs", einsum_inputs),
    (energy, "_forms", einsum_forms),
    (energy, "_kinetic_integrand", einsum_kinetic_integrand),
]


def use_oracles(monkeypatch):
    for module, name, oracle in ORACLES:
        monkeypatch.setattr(module, name, oracle)


def _start(name):
    rng = np.random.default_rng(11)
    if name.startswith("cylinder"):
        g = build_grid([(0, 1), (0, 2 * np.pi)], [5, 7])
        f = presets.cylinder(g, radius=1.0, n_ambient=3 if name == "cylinder_N3" else 2)
    elif name == "sphere_product":
        g = build_grid([(0, 1), (0.8, np.pi - 0.8), (0.4, np.pi - 0.4)], [3, 5, 4])
        f = presets.sphere_product(g, radius=1.0)
    elif name == "noisy_5x7x6":
        g = build_grid([(0, 1), (0.8, np.pi - 0.8), (0.4, np.pi - 0.4)], [5, 7, 6])
        f = presets.sphere_product(g, radius=1.0)
    else:
        # m = 5, N = 6 on 3^6 nodes: a bent flat sheet, noisy on every node.
        g = build_grid([(0, 1)] * 6, [3] * 6)
        f = presets.flat(g)
        f.r[..., 6] += 0.2 * np.prod(np.cos(np.pi * (g.coordinates[..., 1:] - 0.5)), axis=-1)
        f.r += 0.01 * rng.standard_normal(f.r.shape)
        f.n += 0.05 * rng.standard_normal(f.n.shape)
        f.phi = f.phi + 0.03 * (rng.standard_normal(f.phi.shape) + 1j * rng.standard_normal(f.phi.shape))
        return g, f
    interior = g.interior_mask
    shape = f.phi[interior].shape
    f.r[interior] += 0.01 * rng.standard_normal(f.r[interior].shape)
    f.n[interior] += 0.05 * rng.standard_normal(f.n[interior].shape)
    f.phi[interior] += 0.03 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return g, f


def _sheet_eval_start(seed=1):
    """The benchmark's sheet_eval fields (perfbench/workloads.py, SheetEval): the unit
    sphere product on 17^3 nodes plus smooth modes in r, n and phi drawn from the seed."""
    extents = ((0.0, 1.0), (0.6, np.pi - 0.6), (0.2, 1.2))
    g = build_grid(extents, (17, 17, 17))
    rng = np.random.default_rng([seed, 5])
    f = presets.sphere_product(g, radius=1.0, n_ambient=3)
    s = [(g.coordinates[..., a] - lo) / (hi - lo) for a, (lo, hi) in enumerate(extents)]
    for q in (1, 2):
        for comp in range(1, 4):
            a, b, c = rng.uniform(-1.0, 1.0, 3)
            wave = np.sin(q * np.pi * s[1] + c) * np.cos(q * np.pi * s[2] + b)
            f.r[..., comp] += 0.01 * a * wave
            f.n[..., comp] += 0.03 * a * wave * (1.0 + 0.3 * s[0])
    a, b = rng.uniform(-1.0, 1.0, 2)
    f.phi *= (1.0 + 0.05 * a * np.sin(np.pi * s[1]) * np.cos(np.pi * s[2])) * np.exp(0.1j * b * s[0])
    return g, f


def _close(got, want, scale=None):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(got - want)) <= REL * scale


STARTS = ["cylinder", "sphere_product", "noisy_5x7x6", "m5_3^6"]


@pytest.mark.parametrize("name", STARTS)
def test_metric_matches_einsum(name):
    g, f = _start(name)
    got, want = geometry.metric(f, g), einsum_metric(f, g)
    _close(got.g, want.g)
    _close(got.g_inv, want.g_inv)
    _close(got.det_g, want.det_g)
    assert np.array_equal(got.g, np.swapaxes(got.g, -1, -2))


def test_metric_pivots_on_null_first_tangent():
    # r = u_0 (1, 1, 0) + u_1 (0, 1, 1) on dyadic nodes: the tangents are exact,
    # g = [[0, 1], [1, 2]] with g_00 = 0, and det g = -1 only with a row swap.
    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.flat(g)
    f.r[...] = g.coordinates @ np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    got, want = geometry.metric(f, g), einsum_metric(f, g)
    assert np.array_equal(got.g, np.broadcast_to([[0.0, 1.0], [1.0, 2.0]], got.g.shape))
    assert np.array_equal(got.det_g, np.full(g.counts, -1.0))
    _close(got.det_g, want.det_g)
    _close(got.g_inv, want.g_inv)


@pytest.mark.parametrize("name", STARTS + ["sheet_eval_17^3"])
def test_gauss_residual_equals_full_tensor(name):
    g, f = _sheet_eval_start() if name == "sheet_eval_17^3" else _start(name)
    geom = build_geometry(f, g, with_riemann=True)
    for riemann_tensor in (geom.riemann, np.zeros_like(geom.riemann)):
        want = float(full_tensor_gauss_residual(riemann_tensor, geom.b, geom.b_up).max())
        assert geometry.gauss_residual(riemann_tensor, geom.b, geom.b_up) == want


def test_gauss_residual_nan_and_diagonal():
    g, f = _start("sphere_product")
    geom = build_geometry(f, g, with_riemann=True)
    for which in ("b", "b_up"):
        b, b_up = geom.b.copy(), geom.b_up.copy()
        (b if which == "b" else b_up)[1, 2, 1, 1, 2] = np.nan
        assert np.isnan(geometry.gauss_residual(geom.riemann, b, b_up))
    # A non-zero R^l_iik is no curvature tensor, but each form reads it as the
    # residual entry 0 - R^l_iik: the largest entry here, and a NaN propagates.
    r = geom.riemann.copy()
    r[2, 1, 3, 0, 1, 1, 2] = -75.0
    assert geometry.gauss_residual(r, geom.b, geom.b_up) == float(full_tensor_gauss_residual(r, geom.b, geom.b_up).max()) == 75.0
    r[2, 1, 3, 0, 1, 1, 2] = np.nan
    assert np.isnan(geometry.gauss_residual(r, geom.b, geom.b_up))


@pytest.mark.parametrize("name", STARTS + ["cylinder_N3"])
def test_normal_frame_matches_einsum(name):
    g, f = _start(name)
    md = geometry.metric(f, g)
    _close(geometry.normal_frame(md).vectors, einsum_normal_frame(md))


@pytest.mark.parametrize("name", STARTS)
def test_christoffel_matches_einsum(name):
    g, f = _start(name)
    geom = build_geometry(f, g)
    want = einsum_christoffel(geom.d2r, geom.metric)
    _close(christoffel(geom.d2r, geom.metric), want)
    assert np.array_equal(geom.gamma, np.swapaxes(geom.gamma, -2, -1))


@pytest.mark.parametrize("name", STARTS)
def test_christoffel_adjoint_matches_einsum(name):
    # gamma_c's adjoint, which never forms Gamma, against the adjoint of the Gamma route it replaced.
    g, f = _start(name)
    geom = build_geometry(f, g)
    bar_gamma_c = np.random.default_rng(5).standard_normal(geom.gamma_c.shape)
    got = geometry._contracted_christoffel_adjoint(bar_gamma_c, geom.d2r, geom.metric)
    for a, b in zip(got, einsum_gamma_c_adjoint(bar_gamma_c, geom.d2r, geom.metric)):
        _close(a, b)


@pytest.mark.parametrize("name", STARTS + ["sheet_eval_17^3"])
def test_curvature_form_and_contracted_christoffel_match_einsum(name):
    g, f = _sheet_eval_start() if name == "sheet_eval_17^3" else _start(name)
    geom = build_geometry(f, g)
    _close(geom.curvature_form, einsum_curvature_form(geom.d2r, geom.g_inv))
    _close(geom.gamma_c, einsum_contracted_christoffel(geom.gamma, geom.g_inv))
    # n^T Q n is the b form's g^{jk} b_jl b^l_k
    b_form = np.einsum("...jk,...jl,...lk->...", geom.g_inv, geom.b, geom.b_up)
    _close(energy._densities(f, geom, g).forms.curvature, b_form)


@pytest.mark.parametrize("name", STARTS)
def test_fundamental_form_matches_einsum(name):
    g, f = _start(name)
    geom = build_geometry(f, g)
    for a, b in zip((geom.b, geom.b_up), einsum_fundamental_form(geom.d2r, f.n, geom.metric)):
        _close(a, b)


@pytest.mark.parametrize("name", STARTS)
def test_riemann_and_gauss_residual_match_einsum(name):
    g, f = _start(name)
    geom = build_geometry(f, g)
    want = einsum_riemann(geom.gamma, g)
    got = geometry.riemann(geom.gamma, g)
    _close(got, want)
    assert np.array_equal(got, -np.swapaxes(got, -3, -2))
    # The residual is a difference of O(1) products: rounding is relative to them.
    scale = np.max(np.abs(geom.b_up)) * np.max(np.abs(geom.b)) + np.max(np.abs(want))
    want_res = einsum_gauss_residual(want, geom.b, geom.b_up)
    assert abs(geometry.gauss_residual(want, geom.b, geom.b_up) - want_res) <= REL * scale
    # Against R = 0 both forms take the same difference of the same products.
    zero = np.zeros_like(want)
    assert geometry.gauss_residual(zero, geom.b, geom.b_up) == einsum_gauss_residual(zero, geom.b, geom.b_up)


@pytest.mark.parametrize("name", STARTS)
def test_weingarten_residual_matches_einsum(name):
    g, f = _start(name)
    geom = build_geometry(f, g, with_frame=True)
    got = geometry.weingarten_residual(f, g, geom.b_up, geom.metric, geom.frame)
    want = einsum_weingarten_residual(f, g, geom.b_up, geom.metric, geom.frame)
    _close(got[1], want[1])
    assert abs(got[0] - want[0]) <= REL * np.max(np.abs(geom.b_up)) * np.max(np.abs(geom.tangents))


@pytest.mark.parametrize("name", STARTS)
def test_densities_match_einsum(name):
    g, f = _start(name)
    geom = build_geometry(f, g)
    got, want = energy._densities(f, geom, g), einsum_densities(f, geom, g)
    assert got.forms._fields == want.forms._fields and got.x._fields == want.x._fields
    for a, b in zip((*got.forms, got.mass, *got.x), (*want.forms, want.mass, *want.x)):
        _close(a, b)


def _half_integral_of_s_trace(name, trace):
    g, f = _start(name)
    geom = build_geometry(f, g)
    want = 0.5 * energy.quadrature(einsum_s_tensor_contracted(f.phi, geom, g, trace) * geom.sqrt_neg_g, g)
    return sum(energy.j2_energy(f.phi, geom, g)), want


@pytest.mark.parametrize("name", STARTS)
def test_j2_is_half_the_integral_of_the_s_tensor_trace(name):
    j2, want = _half_integral_of_s_trace(name, TRACE_LI)
    assert abs(j2 - want) <= 1e-12 * abs(want)


def test_j2_is_not_the_l_j_trace():
    # The (l, j) trace gives 0.0137 against J2 = 0.0278 here: it is not J2's density.
    j2, other = _half_integral_of_s_trace("sphere_product", TRACE_LJ)
    assert abs(other - j2) > 1e-3 * abs(j2)


@pytest.mark.parametrize("name", STARTS)
def test_backward_matches_einsum_pass(monkeypatch, name):
    g, f = _start(name)
    got_jk, got = backward_JK(f, g, 50.0, build_geometry(f, g))
    use_oracles(monkeypatch)
    want_jk, want = einsum_backward_JK(f, g, 50.0, build_geometry(f, g))
    for field in ("total_J", "total_JK", "penalty_norm", "penalty_orth", "penalty_unit"):
        assert abs(getattr(got_jk, field) - getattr(want_jk, field)) <= REL * abs(want_jk.total_JK)
    for a, b in zip(got, want):
        _close(a, b)


def _chart_start():
    """A chart that moves the sheet along x_1 over a noisy flat sheet, m = 3."""
    cg = build_grid([(0, 1)] * 4, (3, 4, 3, 3))
    x = cg.coordinates
    u = x.copy()
    u[..., 1] += 0.05 * np.sin(np.pi * x[..., 1]) * np.sin(np.pi * x[..., 2]) * (1.0 + x[..., 0])
    pg = build_grid([(0, 1)] * 4, (4, 5, 4, 4))
    f = presets.flat(pg)
    rng = np.random.default_rng(2)
    f.r += 0.01 * rng.standard_normal(f.r.shape)
    f.n += 0.05 * rng.standard_normal(f.n.shape)
    f.phi = f.phi + 0.03 * (rng.standard_normal(f.phi.shape) + 1j * rng.standard_normal(f.phi.shape))
    return make_chart(cg, u, 1.0), pg, f


def test_chart_metric_kinetic_and_full_action_match_einsum(monkeypatch):
    chart, pg, f = _chart_start()
    got_metric = geometry.chart_metric(chart)
    got_kin = energy.kinetic_energy(f, pg, chart, mass=1.3)
    lam_t = np.array([0.7, -1.1, 0.4, 2.0])
    got = energy.full_action(f, pg, chart, mass=1.3, E=0.8, lam_tangent=lam_t, lam_unit=-0.6)
    got_no_lam_t = energy.full_action(f, pg, chart, mass=1.3, E=0.8, lam_unit=-0.6)
    use_oracles(monkeypatch)
    want_metric = einsum_chart_metric(chart)
    _close(got_metric.U_ij, want_metric.U_ij)
    _close(got_metric.U, want_metric.U)
    want_kin = energy.kinetic_energy(f, pg, chart, mass=1.3)  # reads einsum_chart_metric through the patch
    assert abs(got_kin - want_kin) <= REL * abs(want_kin)
    want = energy.full_action(f, pg, chart, mass=1.3, E=0.8, lam_unit=-0.6)
    geom = build_geometry(f, pg)
    at = chart_fields(f, pg, chart, geom)
    dots = np.einsum("...ja,...a,a->...j", geom.tangents, f.n, _signs(f.n.shape[-1]))
    dots_c = energy.interpolate(pg, dots, chart.u)
    weight = at["sqrt_neg_g"] * want_metric.sqrt_U
    want += energy.quadrature(np.einsum("...j,j->...", dots_c, lam_t) * weight, chart.grid)
    assert abs(got_no_lam_t - got) > 1e-6
    assert abs(got - want) <= REL * max(abs(want), want_kin)


@pytest.mark.parametrize("name", STARTS)
def test_coercivity_check_matches_einsum(monkeypatch, name):
    g, f = _start(name)
    got = optimizer.coercivity_check(f, g, c0=0.5, c1=0.3, c2=0.2)
    use_oracles(monkeypatch)
    geom = build_geometry(f, g)
    lhs = np.abs(f.phi) ** 2 * np.einsum("...a,...ab,...b->...", f.n, geom.curvature_form, f.n)
    dn = np.stack([finite_difference(f.n, g, axis=j) for j in range(g.ndim)], axis=-2)
    dn_sq = np.einsum("...ja,...ja,a->...", dn, dn, _signs(f.n.shape[-1]))
    d2_sq = np.einsum("...ija,...ija->...ij", geom.d2r, geom.d2r)
    want_b = (lhs - 0.3 * dn_sq).min()
    want_c = (lhs[..., None, None] - 0.2 * d2_sq).min()
    assert abs(got.margin_normal_grad - want_b) <= REL * max(np.abs(lhs).max(), np.abs(0.3 * dn_sq).max())
    assert abs(got.margin_second_deriv - want_c) <= REL * max(np.abs(lhs).max(), np.abs(0.2 * d2_sq).max())


@pytest.mark.parametrize("name", STARTS)
def test_geometry_check_report_matches_einsum(tmp_path, name):
    g, f = _start(name)
    f.n = geometry.normal_frame(geometry.metric(f, g)).vectors[..., 0, :].copy()
    assert cli._run_geometry_check(tmp_path, g, f) == 0
    with open(tmp_path / "geometry_report.csv") as fh:
        rows = dict(list(csv.reader(fh))[1:])
    got = {k: float(rows[k]) for k in ("metric_inverse_residual", "frame_orthonormality_residual")}
    md = einsum_metric(f, g)
    frame = einsum_normal_frame(md)
    inv_res = np.max(np.abs(np.einsum("...jk,...kl->...jl", md.g, md.g_inv) - np.eye(g.ndim)))
    gram = np.einsum("...qa,...pa,a->...qp", frame, frame, _signs(f.r.shape[-1]))
    assert abs(got["metric_inverse_residual"] - inv_res) <= REL * np.max(np.abs(md.g)) * np.max(np.abs(md.g_inv))
    assert abs(got["frame_orthonormality_residual"] - np.max(np.abs(gram - 1.0))) <= REL * np.max(np.abs(frame)) ** 2
    # The worst nodes: the first node that holds the largest entry of the full residuals.
    geom = build_geometry(f, g, with_riemann=True, with_frame=True)
    gauss = full_tensor_gauss_residual(geom.riemann, geom.b, geom.b_up)
    weingarten, _ = einsum_weingarten_squares(f, g, geom.b_up, geom.metric, geom.frame)
    for key, resid in (("gauss_residual_node", gauss), ("weingarten_residual_node", weingarten)):
        per_node = resid.reshape(g.counts + (-1,)).max(-1)
        assert rows[key] == _node_str(np.unravel_index(np.argmax(per_node), g.counts))


# The one-pass evaluation paths against the forms they replaced, bit for bit:
# J_K's five node integrals in one pass against one quadrature per integrand,
# each with its own finiteness scan; the adjoint stencil's one np.dot against
# np.tensordot; the slice-packed interior DOFs against the boolean mask.
def quadrature_oracle(values, grid):
    if values.shape != grid.counts:
        raise ValueError("integrand shape does not match grid counts")
    bad = ~np.isfinite(values)
    if bad.any():
        node = tuple(np.argwhere(bad)[0])
        raise energy.NonFiniteValueError(f"non-finite integrand at node {_node_str(node)}")
    return float(np.sum(values * energy._rule(grid).node_weights))


def breakdown_oracle(d, geom, grid, K):
    w, f = geom.sqrt_neg_g, d.forms
    j1 = 0.5 * quadrature_oracle(f.phi_sq * f.curvature * w, grid)
    j2d = 0.5 * quadrature_oracle(f.dirichlet * w, grid)
    j2c = 0.25 * quadrature_oracle(f.christoffel * w, grid)
    p_norm = energy.time_integral((d.mass - 1.0) ** 2, grid)
    p_orth = quadrature_oracle(f.orth * w, grid)
    p_unit = quadrature_oracle((f.nn - 1.0) ** 2 * w, grid)
    total_J = j1 + j2d + j2c
    total_JK = total_J + 0.5 * K * (p_norm + p_orth + p_unit)
    return energy.EnergyBreakdown(j1, j2d, j2c, p_norm, p_orth, p_unit, total_J, total_JK, float(K))


def full_action_oracle(fields, grid, chart, mass, E, lam_tangent, lam_unit):
    geom = build_geometry(fields, grid)
    d = energy._densities(fields, geom, grid)
    cmetric = geometry.chart_metric(chart)
    pts = chart.u
    g, sqrt_neg_g, phi_sq, curvature, dots_c, nn_c = (energy.interpolate(grid, v, pts) for v in (
        geom.g, geom.sqrt_neg_g, d.forms.phi_sq, d.forms.curvature, d.x.tsn, d.forms.nn))
    udot = chart.derivatives()[..., 0, :]
    speed_sq = -((g @ udot[..., None])[..., 0] * udot).sum(-1)
    kin = quadrature_oracle(mass * chart.c * phi_sq * np.sqrt(speed_sq) * sqrt_neg_g * cmetric.sqrt_U, chart.grid)
    weight = sqrt_neg_g * cmetric.sqrt_U
    j1 = 0.5 * quadrature_oracle(phi_sq * curvature * weight, chart.grid)
    g_inv_c, dphi_c = energy.interpolate(grid, geom.g_inv, pts), energy.interpolate(grid, _gradient(fields.phi, grid), pts)
    phi_c = energy.interpolate(grid, fields.phi, pts)
    gamma_c = energy.interpolate(grid, geom.gamma_c, pts)
    at = energy._inputs(phi_c, dphi_c, g_inv_c, gamma_c)
    forms = energy._forms(at, at)
    j2d = 0.5 * quadrature_oracle(forms.dirichlet * weight, chart.grid)
    j2c = 0.25 * quadrature_oracle(forms.christoffel * weight, chart.grid)
    mass_t = energy.slice_masses(phi_sq * weight, chart.grid)
    e_term = -energy.time_integral(np.broadcast_to(np.asarray(E, dtype=float), mass_t.shape) * (mass_t - 1.0), chart.grid)
    lam_t = np.broadcast_to(np.asarray(lam_tangent, dtype=float), dots_c.shape[-1:])
    orth_term = quadrature_oracle((dots_c @ lam_t) * weight, chart.grid)
    unit_term = quadrature_oracle(np.asarray(lam_unit, dtype=float) * (nn_c - 1.0) * weight, chart.grid)
    return kin + j1 + j2d + j2c + e_term + orth_term + unit_term


def _one_pass_start(name):
    if name == "criterion_3":
        g = build_grid([(0, 2), (0, 1)], [3, 7])
        return g, presets.perturbed_flat(g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True)
    if name == "theorem_range":
        sc = cli.load_scenario(Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "theorem_range.scn")
        inputs = cli._build_inputs(sc)
        return inputs["grid"], inputs["fields"]
    return _sheet_eval_start()


@pytest.mark.parametrize("name", ["criterion_3", "theorem_range", "sheet_eval_17^3"])
def test_one_pass_breakdown_equals_per_integrand_quadrature(name):
    g, f = _one_pass_start(name)
    geom = build_geometry(f, g)
    for K in (0.0, 30.0, 1e4):
        want = breakdown_oracle(energy._densities(f, geom, g), geom, g, K)
        assert energy.assemble_JK(f, g, K, geom=geom) == want
        for kinds in (("r", "phi", "n"), ("phi", "n")):
            assert backward_JK(f, g, K, geom, kinds)[0] == want
    w = geom.sqrt_neg_g
    assert energy.j1_curvature_energy(f, geom, g) == want.j1_curvature
    assert energy.j2_energy(f.phi, geom, g) == (want.j2_dirichlet, want.j2_christoffel)
    assert energy.penalty_terms(f, geom, g) == (want.penalty_norm, want.penalty_orth, want.penalty_unit)
    assert energy.quadrature(w, g) == quadrature_oracle(w, g)


def test_one_pass_full_action_equals_per_integrand_quadrature():
    chart, pg, f = _chart_start()
    args = dict(mass=1.3, E=0.8, lam_tangent=np.array([0.7, -1.1, 0.4, 2.0]), lam_unit=-0.6)
    assert energy.full_action(f, pg, chart, **args) == full_action_oracle(f, pg, chart, **args)


# Each integrand of _breakdown, in its order, and the density that poisons it.
INTEGRANDS = [("j1", "curvature"), ("j2_dirichlet", "dirichlet"), ("j2_christoffel", "christoffel"), ("orth", "orth"), ("unit", "nn")]


def _poisoned(d, density, node):
    arr = getattr(d.forms, density).copy()
    arr[node] = np.nan
    return d._replace(forms=d.forms._replace(**{density: arr}))


def _raised(fn, *args):
    with pytest.raises(energy.NonFiniteValueError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("first", range(len(INTEGRANDS)))
@pytest.mark.parametrize("second", [None, *range(len(INTEGRANDS))])
def test_one_pass_names_the_node_of_the_first_bad_integrand(first, second):
    # A NaN in integrand `first` at a late node, and one in a later integrand
    # `second` at an earlier node: the message names the late node, as the
    # per-integrand scans did, which stopped at the first bad integrand.
    g, f = _one_pass_start("criterion_3")
    geom = build_geometry(f, g)
    d = _poisoned(energy._densities(f, geom, g), INTEGRANDS[first][1], (2, 5))
    if second is not None and second > first:
        d = _poisoned(d, INTEGRANDS[second][1], (0, 1))
    got = _raised(energy._breakdown, d, geom, g, 30.0)
    assert got == _raised(breakdown_oracle, d, geom, g, 30.0) == "non-finite integrand at node (2, 5)"


def adjoint_oracle(values, grid, axis, order=1):
    mat = grid_mod._stencil_matrix(grid.counts[axis], grid.spacings[axis], order)
    return np.moveaxis(np.tensordot(mat.T, values, axes=(1, axis)), 0, axis)


@pytest.mark.parametrize("counts", [(3, 4, 5), (6, 3, 4), (5, 6, 3), (4, 5, 6)])
@pytest.mark.parametrize("trailing", [(), (2,), (2, 3)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_adjoint_dot_equals_tensordot(counts, trailing, dtype):
    g = build_grid([(0, 1), (-1, 2), (0.5, 1)], counts)
    rng = np.random.default_rng(len(trailing))
    y = rng.standard_normal(counts + trailing).astype(dtype)
    if dtype is complex:
        y += 1j * rng.standard_normal(y.shape)
    for axis in range(g.ndim):
        for order in (1, 2):
            got = finite_difference_adjoint(y, g, axis, order=order)
            want = adjoint_oracle(y, g, axis, order=order)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def pack_oracle(fields, grid):
    interior = grid.interior_mask
    phi_int = fields.phi[interior]
    phi_block = np.stack([phi_int.real, phi_int.imag], axis=-1).ravel()
    return np.concatenate([fields.r[interior].ravel(), phi_block, fields.n[interior].ravel()])


def add_scaled_oracle(fields, d, alpha, grid):
    out = fields.copy()
    interior = grid.interior_mask
    n_r, n_phi = out.r[interior].size, 2 * out.phi[interior].size
    out.r[interior] += alpha * d[:n_r].reshape(-1, out.r.shape[-1])
    phi = d[n_r : n_r + n_phi].reshape(-1, 2)
    out.phi[interior] += alpha * (phi[:, 0] + 1j * phi[:, 1])
    out.n[interior] += alpha * d[n_r + n_phi :].reshape(-1, out.n.shape[-1])
    return out


@pytest.mark.parametrize("counts", [(3,), (6,), (3, 7), (5, 4), (4, 3, 6), (6, 5, 3)])
@pytest.mark.parametrize("frozen_r", [False, True])
def test_slice_packing_equals_mask_packing(counts, frozen_r):
    g = build_grid([(0, 1)] * len(counts), counts)
    rng = np.random.default_rng(sum(counts))
    r, n = rng.standard_normal(counts + (4,)), rng.standard_normal(counts + (4,))
    phi = rng.standard_normal(counts) + 1j * rng.standard_normal(counts)
    f = FieldSet(r, phi, n, r.copy(), phi.copy())
    packed = optimizer.pack_interior(f, g)
    assert packed.tobytes() == pack_oracle(f, g).tobytes()
    d = rng.standard_normal(packed.size)
    n_r = r[g.interior_mask].size
    if frozen_r:  # the frozen-r vector has no r block; the oracle reads a zero one
        d[:n_r] = 0.0
    kinds, lean = (("phi", "n"), d[n_r:]) if frozen_r else (("r", "phi", "n"), d)
    for alpha in (1.0, 0.3, 1e-14):
        got, want = optimizer._add_scaled(f, lean, alpha, g, kinds), add_scaled_oracle(f, d, alpha, g)
        for name in ("r", "phi", "n"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.r.tobytes() == r.tobytes()) == frozen_r


def lbfgs_oracle(grad, memory):
    q = grad.copy()
    alphas = []
    for s, y in reversed(memory):
        alphas.append((s @ q) / (s @ y))
        q -= alphas[-1] * y
    if memory:
        s, y = memory[-1]
        q *= (s @ y) / (y @ y)
    for (s, y), a in zip(memory, reversed(alphas)):
        q += (a - (y @ q) / (s @ y)) * s
    return -q


@pytest.mark.parametrize("n_pairs", [0, 1, 3, optimizer.MEMORY])
def test_two_loop_forms_each_curvature_once(n_pairs):
    rng = np.random.default_rng(n_pairs)
    for _ in range(20):
        memory = [tuple(rng.standard_normal((2, 40)) * rng.uniform(0.1, 10.0)) for _ in range(n_pairs)]
        grad = rng.standard_normal(40)
        assert optimizer._lbfgs_direction(grad, memory).tobytes() == lbfgs_oracle(grad, memory).tobytes()
