"""The curvature density as one quadratic form in n, against the b chain it replaced.

build_geometry forms the curvature form Q = S C S once per geometry of r,
with C_ab = g^{jk} g^{lm} d2r_{jl,a} d2r_{km,b}, and J_K reads the curvature
density g^{jk} b_jl b^l_k as n^T Q n.  The b chain below is the code that
formed the density and its adjoint from b_jk = d2r_jk . n and b^l_j on every
evaluation: it stays here as the oracle of J_K and of the packed gradient,
with r frozen and with r optimised.  The adjoints of the curvature density
n^T Q n, formed from b, and of gamma_c, which is contracted from d2r without
forming Gamma, are pinned by dot-product tests; with r frozen J_K is a
quartic along any phi/n line; the bars dJ_K/dB_f, which the gradient and the
step polynomial read, are the derivatives of _breakdown's J_K in its
factors; only the r chain reads d2r; and no evaluation, gradient, residual,
chart action or frozen-r continuation of J_K forms Gamma.
"""

import dataclasses
from math import comb
from pathlib import Path

import numpy as np
import pytest

from worldsheet import backward_JK, build_geometry, cli, energy, geometry, optimizer
from worldsheet.geometry import _second_derivatives_adjoint, _signs
from worldsheet.grid import _gradient, finite_difference_adjoint

from test_contractions import _chart_start, _one_pass_start, _start, einsum_christoffel_adjoint

SCENARIO = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "theorem_range.scn"


def b_chain_backward_JK(fields, grid, K, geom, kinds=("r", "phi", "n")):
    """backward_JK as it ran through b_jk and b^l_j: the curvature density g^{jk} b_jl b^l_k is formed
    from b, and its adjoint runs back through b^l_j, b and d2r . n to n, g^{-1} and d2r."""
    phi, n = fields.phi, fields.n
    signs = _signs(fields.r.shape[-1])
    tangents, d2r, gamma, gamma_c = geom.tangents, geom.d2r, geom.gamma, geom.gamma_c
    g_inv, dphi, sq = geom.g_inv, _gradient(phi, grid), geom.sqrt_neg_g
    b, b_up = geometry._fundamental_form_raw(d2r, n, geom.metric)
    d = energy._densities(fields, geom, grid)
    d = d._replace(forms=d.forms._replace(curvature=(g_inv * (b @ b_up)).sum((-2, -1))))
    breakdown = energy._breakdown(d, geom, grid, K)
    phi_sq, curv, dots, nn = d.forms.phi_sq, d.forms.curvature, d.x.tsn, d.forms.nn
    re_pair = 2.0 * (dphi * np.conj(phi)[..., None]).real
    rule = energy._rule(grid)
    w = rule.node_weights * sq
    mass_w = np.multiply.outer(K * rule.axis_weights[0] * (d.mass - 1.0), rule.spatial_weights)
    bar_phi = 2.0 * (0.5 * curv * w + mass_w * sq) * phi

    # curvature density g^{jk} b_jl b^l_k with b^l_k = b_km g^{ml}
    bar_curv = 0.5 * phi_sq * w
    g_inv_t = np.swapaxes(g_inv, -1, -2)
    bar_b_up = bar_curv[..., None, None] * (np.swapaxes(b, -1, -2) @ g_inv)
    bar_b = bar_curv[..., None, None] * (g_inv @ np.swapaxes(b_up, -1, -2))
    bar_b += np.swapaxes(g_inv @ bar_b_up, -1, -2)

    bar_d = 0.5 * w
    dphi_xy = energy._re_im(dphi)
    bar_xy = bar_d[..., None, None] * ((g_inv + g_inv_t) @ dphi_xy)
    bar_dphi = bar_xy[..., 0] + 1j * bar_xy[..., 1]
    bar_c = 0.25 * w
    bar_pair = bar_c[..., None] * gamma_c
    bar_dphi += 2.0 * bar_pair * phi[..., None]
    bar_phi += 2.0 * (bar_pair * dphi).sum(-1)

    # b_jk = d2r_jk . n, and the orth and unit penalties
    nd, dim = d2r.shape[-2:]
    bar_dots = K * w[..., None] * dots
    bar_n = bar_b.reshape(bar_b.shape[:-2] + (1, nd * nd)) @ d2r.reshape(d2r.shape[:-3] + (nd * nd, dim))
    bar_n += bar_dots[..., None, :] @ tangents
    bar_n = (bar_n[..., 0, :] + (2.0 * K * w * (nn - 1.0))[..., None] * n) * signs

    for j in range(grid.ndim):
        bar_phi += finite_difference_adjoint(bar_dphi[..., j], grid, j)
    grads = [np.zeros_like(fields.r), bar_phi if "phi" in kinds else np.zeros_like(phi)]
    grads.append(bar_n if "n" in kinds else np.zeros_like(n))
    if "r" not in kinds:
        return breakdown, tuple(grads)

    dens = 0.5 * phi_sq * curv + 0.5 * d.forms.dirichlet + 0.25 * d.forms.christoffel
    dens += 0.5 * K * (np.sum(dots**2, axis=-1) + (nn - 1.0) ** 2)
    bar_sq = rule.node_weights * dens + mass_w * phi_sq
    bar_g_inv = bar_curv[..., None, None] * (b @ b_up)
    bar_g_inv += np.swapaxes(bar_b_up @ b, -1, -2)
    bar_g_inv += bar_d[..., None, None] * (dphi_xy @ np.swapaxes(dphi_xy, -1, -2))
    bar_gamma_c = bar_c[..., None] * re_pair
    bar_gamma = bar_gamma_c[..., :, None, None] * g_inv[..., None, :, :]
    bar_g_inv += (bar_gamma_c[..., None, :] @ gamma.reshape(gamma.shape[:-2] + (nd * nd,))).reshape(g_inv.shape)

    bar_g_inv_gamma, bar_d2r, bar_t = einsum_christoffel_adjoint(bar_gamma, d2r, geom.metric)
    bar_g_inv += bar_g_inv_gamma
    n_s = n * signs
    bar_d2r += bar_b[..., None] * n_s[..., None, None, :]
    bar_t += bar_dots[..., None] * n_s[..., None, :]
    bar_g = (0.5 * bar_sq * sq)[..., None, None] * g_inv_t - g_inv_t @ bar_g_inv @ g_inv_t
    bar_t += ((bar_g + np.swapaxes(bar_g, -1, -2)) @ tangents) * signs
    grads[0] = _second_derivatives_adjoint(bar_t, bar_d2r, grid)
    return breakdown, tuple(grads)


def _scenario_start(name):
    """Criterion 3's start, or theorem_range.scn's with m = 5 or 6 spatial axes in N = m + 1."""
    if name == "criterion_3":
        return _one_pass_start(name)
    m = int(name[-1])
    sets = [f"grid.extents=0:2{', 0:1' * m}", f"grid.counts=3{', 4' * m}", f"fields.n_ambient={m + 1}"]
    inputs = cli._build_inputs(cli.load_scenario(SCENARIO, sets))
    return inputs["grid"], inputs["fields"]


def _noisy(name, r_noise=0.0):
    """The start with noise in phi and n on the interior nodes, where the descent moves them, and r_noise times
    a standard normal added to r there."""
    g, f = _scenario_start(name)
    rng = np.random.default_rng(17)
    interior = g.interior_mask
    f.n[interior] += 0.05 * rng.standard_normal(f.n[interior].shape)
    shape = f.phi[interior].shape
    f.phi[interior] *= 1.0 + 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    f.r[interior] += r_noise * rng.standard_normal(f.r[interior].shape)
    return g, f


def _packed(grads, grid, kinds):
    return np.concatenate([block.ravel() for block in optimizer._interior(grads, grid, kinds)])


@pytest.mark.parametrize(
    "name, r_noise", [("criterion_3", 0.0), ("theorem_range_m5", 0.0), ("theorem_range_m6", 0.0), ("criterion_3", 0.01)],
    ids=["criterion_3", "theorem_range_m5", "theorem_range_m6", "criterion_3_noisy_r"])
def test_quadratic_form_equals_b_chain(name, r_noise):
    g, f = _noisy(name, r_noise)
    geom = build_geometry(f, g)
    for kinds in (("phi", "n"), ("r", "phi", "n")):
        for K in (100.0, 1e5):
            got_jk, got = backward_JK(f, g, K, geom, kinds)
            want_jk, want = b_chain_backward_JK(f, g, K, geom, kinds)
            assert abs(got_jk.total_JK - want_jk.total_JK) <= 1e-12 * abs(want_jk.total_JK)
            got, want = _packed(got, g, kinds), _packed(want, g, kinds)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (kinds, K)


@pytest.mark.parametrize("name", ["cylinder_N3", "sphere_product", "m5_3^6"])
def test_curvature_form_adjoint_dot_product(name):
    # The curvature density c n^T Q n is a polynomial in (g^{-1}, d2r), so a complex step of it through
    # _curvature_form gives its directional derivative to rounding; the adjoint forms its bars from b instead.
    g, f = _start(name)
    geom = build_geometry(f, g)
    rng = np.random.default_rng(len(name))
    d_g_inv, d_d2r = rng.standard_normal(geom.g_inv.shape), rng.standard_normal(geom.d2r.shape)
    h = 1e-30
    tangent = geometry._curvature_form(geom.d2r + 1j * h * d_d2r, geom.g_inv + 1j * h * d_g_inv).imag / h
    for _ in range(3):
        c = rng.standard_normal(geom.sqrt_neg_g.shape)
        bar_g_inv, bar_d2r = geometry._curvature_form_adjoint(c, geom.d2r, f.n, geom.metric)
        assert bar_g_inv.shape == geom.g_inv.shape and bar_d2r.shape == geom.d2r.shape
        step = c[..., None, None] * (f.n[..., :, None] * tangent * f.n[..., None, :])
        lhs, rhs = step.sum(), np.vdot(bar_g_inv, d_g_inv) + np.vdot(bar_d2r, d_d2r)
        pairs = ((bar_g_inv, d_g_inv), (bar_d2r, d_d2r))
        assert abs(lhs - rhs) <= 1e-12 * (np.abs(step).sum() + sum(np.vdot(np.abs(a), np.abs(b)) for a, b in pairs))


@pytest.mark.parametrize("name", ["cylinder_N3", "sphere_product", "m5_3^6"])
def test_contracted_christoffel_adjoint_dot_product(name):
    # gamma_c is trilinear in (g^{-1}, d2r, tangents): a complex step gives its directional derivative to rounding.
    g, f = _start(name)
    geom = build_geometry(f, g)
    md = geom.metric
    rng = np.random.default_rng(len(name))
    dirs = [rng.standard_normal(x.shape) for x in (md.g_inv, geom.d2r, md.tangents)]
    h = 1e-30
    stepped = dataclasses.replace(md, g_inv=md.g_inv + 1j * h * dirs[0], tangents=md.tangents + 1j * h * dirs[2])
    tangent = geometry._contracted_christoffel(geom.d2r + 1j * h * dirs[1], stepped).imag / h
    for _ in range(3):
        bar_gamma_c = rng.standard_normal(geom.gamma_c.shape)
        bars = geometry._contracted_christoffel_adjoint(bar_gamma_c, geom.d2r, md)
        assert [b.shape for b in bars] == [d.shape for d in dirs]
        lhs, rhs = np.vdot(bar_gamma_c, tangent), sum(np.vdot(b, d) for b, d in zip(bars, dirs))
        pairs = ((bar_gamma_c, tangent), *zip(bars, dirs))
        assert abs(lhs - rhs) <= 1e-12 * sum(np.vdot(np.abs(a), np.abs(b)) for a, b in pairs)


@pytest.mark.parametrize("name", ["criterion_3", "theorem_range_m5"])
def test_frozen_r_JK_is_a_quartic_along_phi_and_n(name):
    # With r frozen J_K is a polynomial of degree 4 in (phi, n): its fifth difference along a line
    # vanishes to rounding, while its fourth, 24 h^4 times the quartic coefficient, does not.
    g, f = _scenario_start(name)
    base, kinds = build_geometry(f, g), ("phi", "n")
    direction = np.random.default_rng(5).standard_normal(_packed((f.r, f.phi, f.n), g, kinds).size)
    values = []
    for k in range(6):
        x = optimizer._add_scaled(f, direction, 0.1 * k, g, kinds)
        values.append(backward_JK(x, g, 100.0, base, kinds)[0].total_JK)
    fifth = sum((-1) ** (5 - k) * comb(5, k) * v for k, v in enumerate(values))
    fourth = sum((-1) ** (4 - k) * comb(4, k) * v for k, v in enumerate(values[:5]))
    bound = 1e-14 * sum(comb(5, k) * abs(v) for k, v in enumerate(values))
    assert abs(fifth) <= bound
    assert abs(fourth) > 1e6 * bound


@pytest.mark.parametrize("K", [100.0, 1e5])
@pytest.mark.parametrize("name", ["criterion_3", "theorem_range_m5"])
def test_step_polynomial_reproduces_JK(name, K):
    # The descent's coefficient pass: with r frozen, J_K(x + alpha s) - J_K(x) = sum_k c_k alpha^k, formed from
    # x's densities and s alone, and c_1 is grad . s.  Criterion 3's start, and theorem_range's with noise.
    g, f = _scenario_start(name) if name == "criterion_3" else _noisy(name)
    base, kinds = build_geometry(f, g), ("phi", "n")
    cur, grads = backward_JK(f, g, K, base, kinds)
    grad = _packed(grads, g, kinds)
    direction = np.random.default_rng(29).standard_normal(grad.size)
    zero = type(f)(np.zeros_like(f.r), np.zeros_like(f.phi), np.zeros_like(f.n), f.r_bc, f.phi_bc, f.eps)
    step = optimizer._add_scaled(zero, direction, 1.0, g, kinds)
    c = energy._step_polynomial(cur.densities, step, base, g, K)
    assert abs(c[0] - grad @ direction) <= 1e-12 * abs(grad @ direction)
    for alpha in (1e-4, 1e-3, 0.01, 0.05, 0.2, 1.0):
        moved = backward_JK(optimizer._add_scaled(f, direction, alpha, g, kinds), g, K, base, kinds)[0].total_JK
        terms = [ck * alpha**k for k, ck in enumerate(c, 1)]
        assert abs(sum(terms) - (moved - cur.total_JK)) <= 1e-12 * sum(map(abs, [moved, cur.total_JK, *terms]))


def _inputs_of(f, g, geom):
    return energy._inputs(f.phi, _gradient(f.phi, g), geom.g_inv, geom.gamma_c, f.n, geom)


def _step(f, g, direction):
    """The phi and n step along a packed direction, zero elsewhere."""
    zero = type(f)(np.zeros_like(f.r), np.zeros_like(f.phi), np.zeros_like(f.n), f.r_bc, f.phi_bc, f.eps)
    return optimizer._add_scaled(zero, direction, 1.0, g, ("phi", "n"))


@pytest.mark.parametrize("name", ["criterion_3", "theorem_range_m5"])
def test_factor_forms_are_symmetric_and_bilinear(name):
    # With r frozen each factor of J_K is B_f(x, x) for one symmetric bilinear form B_f, which _forms defines for
    # the evaluation and the step polynomial alike: B_f(x, s) = B_f(s, x), and along x + alpha s every factor is
    # B_f(x, x) + 2 alpha B_f(x, s) + alpha^2 B_f(s, s), node by node.
    g, f = _scenario_start(name) if name == "criterion_3" else _noisy(name)
    base, kinds = build_geometry(f, g), ("phi", "n")
    direction = np.random.default_rng(31).standard_normal(_packed((f.r, f.phi, f.n), g, kinds).size)
    x, s = _inputs_of(f, g, base), _inputs_of(_step(f, g, direction), g, base)
    xx, xs, sx, ss = energy._forms(x, x), energy._forms(x, s), energy._forms(s, x), energy._forms(s, s)
    for field in energy._Forms._fields:
        a, b = getattr(xs, field), getattr(sx, field)
        assert np.all(np.abs(a - b) <= 1e-13 * np.maximum(np.abs(a), np.abs(b))), field
    for alpha in (0.01, 0.3, 1.0):
        moved = energy._forms(*[_inputs_of(optimizer._add_scaled(f, direction, alpha, g, kinds), g, base)] * 2)
        for field in energy._Forms._fields:
            terms = [getattr(xx, field), 2.0 * alpha * getattr(xs, field), alpha**2 * getattr(ss, field)]
            got = getattr(moved, field)
            scale = np.abs(got) + sum(map(np.abs, terms))
            assert np.all(np.abs(got - sum(terms)) <= 1e-13 * scale), (field, alpha)


@pytest.mark.parametrize("field", ["phi", "n"])
def test_a_non_finite_step_raises_what_the_line_search_suppresses(field):
    # The descent suppresses NonFiniteValueError around the step polynomial, not GeometryError: a NaN in the
    # step's phi or n must surface as the former, whichever factor it reaches first.
    g, f = _scenario_start("criterion_3")
    base, kinds = build_geometry(f, g), ("phi", "n")
    cur = backward_JK(f, g, 100.0, base, kinds)[0]
    step = _step(f, g, np.ones(_packed((f.r, f.phi, f.n), g, kinds).size))
    getattr(step, field)[1, 3] = np.nan
    with pytest.raises(energy.NonFiniteValueError, match=r"^non-finite integrand at node \(\d+, \d+\)$"):
        energy._step_polynomial(cur.densities, step, base, g, 100.0)


@pytest.mark.parametrize("K", [10.0, 1e5])
@pytest.mark.parametrize("name", ["criterion_3", "theorem_range_m5"])
def test_bars_are_the_derivatives_of_the_breakdown(name, K):
    # _bars holds dJ_K/dB_f per node; _breakdown states J_K from the same factors.  J_K is at most quadratic in each
    # factor, so a central difference of total_JK in one factor at one node is its bar there, to rounding of the
    # totals; a change in |phi|^2 changes its slice's mass with it.
    g, f = _scenario_start(name) if name == "criterion_3" else _noisy(name)
    geom = build_geometry(f, g)
    d = energy._densities(f, geom, g)
    bars = energy._bars(d, geom, g, K)
    nodes = [(0,) * g.ndim, (1,) * g.ndim, (2,) + (1,) * (g.ndim - 1), tuple(c - 1 for c in g.counts)]
    for field in energy._Forms._fields:
        for node in nodes:
            totals = []
            for eps in (1.0, -1.0):
                moved = getattr(d.forms, field).copy()
                moved[node] += eps
                forms = d.forms._replace(**{field: moved})
                at = energy._Densities(forms, energy.slice_masses(forms.phi_sq * geom.sqrt_neg_g, g), d.x)
                totals.append(energy._breakdown(at, geom, g, K).total_JK)
            got, want = (totals[0] - totals[1]) / 2.0, getattr(bars, field)[node]
            assert abs(got - want) <= 1e-14 * (abs(totals[0]) + abs(totals[1])), (field, node)


class _D2rRead(Exception):
    pass


class _D2rRefused(geometry.GeometryCache):
    """A geometry cache whose d2r raises when read."""

    @property
    def d2r(self):
        raise _D2rRead


def test_only_the_r_chain_reads_d2r():
    # With r frozen J_K reads g^{-1}, sqrt(-g), the tangents, Q and gamma_c of the r part, never d2r: the evaluation,
    # its gradient over every kinds without r, the step polynomial and the residuals run on a cache whose d2r raises.
    g, f = _noisy("theorem_range_m5")
    geom = build_geometry(f, g)
    geom.__class__ = _D2rRefused
    with pytest.raises(_D2rRead):
        geom.d2r
    energy.assemble_JK(f, g, 100.0, geom=geom)
    for kinds in ((), ("phi",), ("n",), ("phi", "n")):
        cur = backward_JK(f, g, 100.0, geom, kinds)[0]
    step = _step(f, g, np.random.default_rng(3).standard_normal(_packed((f.r, f.phi, f.n), g, ("phi", "n")).size))
    energy._step_polynomial(cur.densities, step, geom, g, 100.0)
    energy.constraint_residuals(f, g, geom)
    with pytest.raises(_D2rRead):
        backward_JK(f, g, 100.0, geom, ("r", "phi", "n"))


class _GammaFormed(Exception):
    pass


def test_no_gamma_on_the_path_of_J_K(monkeypatch):
    # J_K reads the connection only through gamma_c, which is contracted from d2r: its evaluations, gradients,
    # residuals, chart action and frozen-r continuation never form Gamma, which only a reader of geom.gamma builds.
    g, f = _one_pass_start("criterion_3")
    unpatched = build_geometry(f, g)
    assert unpatched.gamma.tobytes() == geometry.christoffel(unpatched.d2r, unpatched.metric).tobytes()

    def refuse(*args):
        raise _GammaFormed

    monkeypatch.setattr(geometry, "christoffel", refuse)
    geom = build_geometry(f, g)
    energy.assemble_JK(f, g, 30.0, geom=geom)
    for kinds in (("r", "phi", "n"), ("phi", "n")):
        backward_JK(f, g, 30.0, geom, kinds)
    energy.constraint_residuals(f, g, geom)
    chart, pg, cf = _chart_start()
    energy.full_action(cf, pg, chart, mass=1.3, E=0.8, lam_tangent=0.5, lam_unit=-0.6)
    cfg = optimizer.PenaltyConfig(k_schedule=(10.0, 100.0, 1000.0, 10000.0), step_init=0.1, max_iters=800,
                                  grad_tol=1e-6, optimize_fields=("phi", "n"))
    assert all(r.converged for r in optimizer.penalty_continuation(f, g, cfg).records)
    with pytest.raises(_GammaFormed):
        build_geometry(f, g, with_riemann=True)
    with pytest.raises(_GammaFormed):
        geom.gamma
