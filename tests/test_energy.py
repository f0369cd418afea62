import dataclasses

import numpy as np
import pytest

from worldsheet import (
    EnergyBreakdown,
    GeometryError,
    NonFiniteValueError,
    PenaltyConfig,
    QuadratureRule,
    SuperluminalMotionError,
    assemble_JK,
    build_geometry,
    build_grid,
    chart_metric,
    constraint_residuals,
    full_action,
    gradient_JK,
    j1_curvature_energy,
    j2_energy,
    kinetic_energy,
    make_chart,
    minimize_fixed_K,
    penalty_terms,
    quadrature,
    reduced_action,
)
from worldsheet import presets

from test_contractions import einsum_s_tensor, einsum_s_tensor_contracted


def unit_square(counts=(5, 5)):
    return build_grid([(0, 1), (0, 1)], counts)


def identity_chart(c, T=1.0, counts=(3, 3, 3, 3)):
    """Chart u = (c t, x) over [0, T] x [0, 1]^3 with an aligned parameter grid."""
    cg = build_grid([(0, T), (0, 1), (0, 1), (0, 1)], counts)
    u = np.zeros(cg.counts + (4,))
    u[..., 0] = c * cg.coordinates[..., 0]
    u[..., 1:] = cg.coordinates[..., 1:]
    chart = make_chart(cg, u, c)
    pg = build_grid([(0, c * T), (0, 1), (0, 1), (0, 1)], counts)
    return chart, pg


def test_quadrature_constant_exact():
    g = unit_square()
    assert quadrature(np.ones(g.counts), g) == 1.0


def test_quadrature_constant_awkward_counts():
    g = unit_square((4, 6))
    assert abs(quadrature(np.ones(g.counts), g) - 1.0) < 1e-14


def test_quadrature_linear_exact():
    g = build_grid([(0, 1)], [5])
    x = g.coordinates[..., 0]
    assert quadrature(x, g) == 0.5


def test_quadrature_square_refinement():
    errs = []
    for n in (9, 17):
        g = build_grid([(0, 1)], [n])
        x = g.coordinates[..., 0]
        errs.append(abs(quadrature(x**2, g) - 1.0 / 3.0))
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_quadrature_nonfinite_names_node():
    g = unit_square()
    vals = np.ones(g.counts)
    vals[1, 3] = np.nan
    with pytest.raises(NonFiniteValueError, match=r"\(1, 3\)"):
        quadrature(vals, g)


def test_quadrature_rejects_a_wrongly_shaped_integrand():
    with pytest.raises(ValueError, match="does not match grid counts"):
        quadrature(np.ones((5, 4)), unit_square())


def test_quadrature_weights_sum_to_volume():
    g = build_grid([(0, 2), (0, 3)], [5, 9])
    rule = QuadratureRule.from_grid(g)
    assert abs(rule.node_weights.sum() - 6.0) < 1e-13


def test_quadrature_rule_holds_spatial_weights():
    g = build_grid([(0, 2), (0, 3), (1, 2)], [5, 9, 4])
    rule = QuadratureRule.from_grid(g)
    w0, w1, w2 = rule.axis_weights
    assert np.array_equal(rule.spatial_weights, np.multiply.outer(w1, w2))
    assert np.array_equal(rule.node_weights, np.multiply.outer(np.multiply.outer(w0, w1), w2))
    assert abs(rule.spatial_weights.sum() - 3.0) < 1e-13
    line = build_grid([(0, 2)], [5])
    assert QuadratureRule.from_grid(line).spatial_weights.shape == ()


def test_j1_flat_zero():
    g = unit_square()
    f = presets.flat(g)
    geom = build_geometry(f, g)
    assert j1_curvature_energy(f, geom, g) == 0.0


def test_j1_cylinder_value():
    rho = 2.0
    g = build_grid([(0, 1), (0, 2 * np.pi * rho)], [9, 65])
    f = presets.cylinder(g, radius=rho, phi0=0.7)
    geom = build_geometry(f, g)
    got = j1_curvature_energy(f, geom, g)
    want = 0.5 * 0.7**2 * (1.0 / rho**2) * g.volume
    assert abs(got - want) < 5e-3 * abs(want)


def test_j1_quadratic_in_phi():
    g = build_grid([(0, 1), (0, 2 * np.pi)], [9, 17])
    f = presets.cylinder(g, radius=1.0)
    geom = build_geometry(f, g)
    base = j1_curvature_energy(f, geom, g)
    f2 = f.copy()
    f2.phi *= 2.0
    assert abs(j1_curvature_energy(f2, geom, g) - 4.0 * base) < 1e-12 * abs(base)


def test_s_tensor_constant_phi_flat():
    g = unit_square()
    f = presets.flat(g)
    geom = build_geometry(f, g)
    s = einsum_s_tensor(f.phi, geom, g)
    assert np.max(np.abs(s)) == 0.0


def test_s_tensor_constant_phi_curved():
    g = build_grid([(0, 1), (0.7, np.pi - 0.7), (0.3, np.pi - 0.3)], [5, 9, 9])
    f = presets.sphere_product(g)
    geom = build_geometry(f, g)
    s = einsum_s_tensor(f.phi, geom, g)
    assert np.max(np.abs(s)) == 0.0


def test_s_tensor_linear_phi_flat():
    g = unit_square()
    f = presets.flat(g)
    f.phi = g.coordinates[..., 1].astype(complex)
    geom = build_geometry(f, g)
    s = einsum_s_tensor(f.phi, geom, g)
    want = np.zeros(g.counts + (2, 2, 2, 2), dtype=complex)
    for k in range(2):
        want[..., k, 1, 1, k] = 1.0
    assert np.max(np.abs(s - want)) < 1e-12
    # contracted form matches g^{jk} Re S^l_{ljk}
    contracted = einsum_s_tensor_contracted(f.phi, geom, g)
    assert np.max(np.abs(contracted - 1.0)) < 1e-12


def test_j2_constant_phi_zero():
    g = unit_square()
    f = presets.flat(g, phi0=0.3 + 0.4j)
    geom = build_geometry(f, g)
    assert j2_energy(f.phi, geom, g) == (0.0, 0.0)


def test_j2_plane_wave_dirichlet():
    k = 2.0
    g = build_grid([(0, 1), (0, 1)], [5, 65])
    f = presets.flat(g)
    f.phi = np.exp(1j * k * g.coordinates[..., 1])
    geom = build_geometry(f, g)
    dirichlet, christoffel = j2_energy(f.phi, geom, g)
    want = 0.5 * k**2 * g.volume
    assert abs(dirichlet - want) < 2e-3 * want
    assert abs(christoffel) < 1e-12


def test_j2_real_phi_flat_christoffel_zero():
    g = unit_square()
    f = presets.flat(g)
    f.phi = (1.0 + g.coordinates[..., 1] ** 2).astype(complex)
    geom = build_geometry(f, g)
    _, christoffel = j2_energy(f.phi, geom, g)
    assert christoffel == 0.0


def test_j2_forms_dphi_from_the_phi_it_is_given():
    # geom is built from one amplitude and j2_energy is handed another: it must read only geom's r part, and
    # give what the other amplitude's own geometry gives.  A non-finite entry is refused at its own node.
    g = build_grid([(0, 2), (0, 1)], [5, 9])
    f = presets.perturbed_flat(g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True)
    u0, u1 = g.coordinates[..., 0], g.coordinates[..., 1]
    f.phi = f.phi * np.exp(1j * u1) * (1.0 + 0.1 * u0)
    geom = build_geometry(f, g)
    other = f.phi * np.exp(0.5j * u0)
    own = build_geometry(dataclasses.replace(f, phi=other), g)
    assert j2_energy(other, geom, g) == j2_energy(other, own, g) != j2_energy(f.phi, geom, g)
    for bad in (np.nan, np.inf):
        phi = other.copy()
        phi[2, 3] = bad
        with pytest.raises(GeometryError, match=r"^phi is not finite at node \(2, 3\)$"):
            j2_energy(phi, geom, g)


def test_reduced_action_is_sum_of_parts():
    g = build_grid([(0, 1), (0, 2 * np.pi)], [9, 17])
    f = presets.cylinder(g, radius=1.0, phi0=0.9)
    f.phi = f.phi * np.exp(0.3j * g.coordinates[..., 1])
    geom = build_geometry(f, g)
    j1 = j1_curvature_energy(f, geom, g)
    j2d, j2c = j2_energy(f.phi, geom, g)
    total = reduced_action(f, geom, g)
    assert abs(total - (j1 + j2d + j2c)) <= 1e-12 * max(1.0, abs(total))


def test_j1_and_reduced_action_refuse_a_non_finite_penalty_integrand():
    # n.n overflows at one node of a flat sheet, whose b and J stay 0: J_K's unit penalty integrand is not finite
    # there, and J and J_1, read from J_K's breakdown, name that node as assemble_JK does.
    g = unit_square()
    f = presets.flat(g)
    f.n[2, 3] = [0.0, 0.0, 1e200]
    with np.errstate(over="ignore"):
        geom = build_geometry(f, g)
        for energy_of in (j1_curvature_energy, reduced_action):
            with pytest.raises(NonFiniteValueError, match=r"^non-finite integrand at node \(2, 3\)$"):
                energy_of(f, geom, g)


def test_penalties_admissible_flat_zero():
    g = unit_square()
    f = presets.flat(g, phi0=presets.normalized_phi0(g))
    geom = build_geometry(f, g)
    norm, orth, unit = penalty_terms(f, geom, g)
    assert norm == 0.0
    assert orth == 0.0
    assert unit == 0.0


def test_penalty_unit_scaled_normal():
    g = unit_square()
    f = presets.flat(g, phi0=presets.normalized_phi0(g))
    f.n *= 2.0
    geom = build_geometry(f, g)
    _, _, unit = penalty_terms(f, geom, g)
    # (4 - 1)^2 integral of sqrt(-g) = 9 * volume
    assert abs(unit - 9.0 * g.volume) < 1e-12


def test_penalty_norm_scaled_phi():
    g = unit_square()
    f = presets.flat(g, phi0=presets.normalized_phi0(g))
    f.phi *= np.sqrt(2.0)
    geom = build_geometry(f, g)
    norm, _, _ = penalty_terms(f, geom, g)
    T = g.extents[0][1] - g.extents[0][0]
    assert abs(norm - T) < 1e-12


def test_norm_penalty_overflow_names_the_slice_and_a_total_its_piece():
    # |phi|^2 is finite at phi0 = 1e100, its slice mass squared is not: J_K and the penalty were inf.
    g = unit_square()
    f = presets.flat(g, phi0=1e100)
    geom = build_geometry(f, g)
    with np.errstate(over="ignore"):
        for evaluate in (lambda: penalty_terms(f, geom, g), lambda: assemble_JK(f, g, 100.0, geom=geom)):
            with pytest.raises(NonFiniteValueError, match=r"^non-finite norm penalty at u_0 slice \(0\)$"):
                evaluate()
    # Each slice term (m - 1)^2 = 3e307 is finite, and so is the norm penalty; (K / 2) times it is not.
    f = presets.flat(g, phi0=np.sqrt(np.sqrt(3e307)))
    geom = build_geometry(f, g)
    assert np.isfinite(penalty_terms(f, geom, g)).all()
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValueError, match="^non-finite total_JK$"):
        assemble_JK(f, g, 100.0, geom=geom)


def test_assemble_admissible_independent_of_K():
    g = unit_square()
    f = presets.flat(g, phi0=presets.normalized_phi0(g))
    b1 = assemble_JK(f, g, 10.0)
    b2 = assemble_JK(f, g, 10000.0)
    assert b1.total_JK == b1.total_J
    assert b2.total_JK == b2.total_J


def test_assemble_K_zero():
    g = unit_square()
    f = presets.perturbed_flat(g, bump_amp=0.1, n_scale=1.2, n_tilt=0.1)
    b = assemble_JK(f, g, 0.0)
    assert b.total_JK == b.total_J


def test_assemble_rejects_a_negative_K():
    g = unit_square()
    with pytest.raises(ValueError, match=r"^penalty weight K must be >= 0, got -1.0$"):
        assemble_JK(presets.flat(g), g, -1.0)


@pytest.mark.parametrize("K", [np.nan, np.inf, -np.inf, True, False, np.bool_(True)])
def test_penalty_weight_must_be_a_finite_number(K):
    # NaN < 0 is False and a bool is an int, so a sign test alone lets each of these through.
    g = unit_square()
    f = presets.perturbed_flat(g, bump_amp=0.1, n_scale=1.2, n_tilt=0.1)
    cfg = PenaltyConfig(k_schedule=(10.0,), max_iters=2)
    for call in (lambda: assemble_JK(f, g, K), lambda: gradient_JK(f, g, K), lambda: minimize_fixed_K(f, g, K, cfg)):
        with pytest.raises(ValueError, match=r"^penalty weight K must be a finite number, got "):
            call()


def test_assemble_linear_in_K():
    g = unit_square()
    f = presets.perturbed_flat(g, bump_amp=0.1, n_scale=1.2, n_tilt=0.1)
    b1 = assemble_JK(f, g, 50.0)
    b2 = assemble_JK(f, g, 100.0)
    gap1 = b1.total_JK - b1.total_J
    gap2 = b2.total_JK - b2.total_J
    assert abs(gap2 - 2.0 * gap1) < 1e-12 * max(1.0, abs(gap2))


def test_breakdown_invariants_and_csv():
    g = unit_square()
    f = presets.perturbed_flat(g, bump_amp=0.1, n_scale=1.2, n_tilt=0.1)
    b = assemble_JK(f, g, 25.0)
    assert b.penalty_norm >= 0 and b.penalty_orth >= 0 and b.penalty_unit >= 0
    recomputed = b.total_J + 0.5 * b.K * (b.penalty_norm + b.penalty_orth + b.penalty_unit)
    assert abs(recomputed - b.total_JK) <= 1e-12 * max(1.0, abs(b.total_JK))
    parts = b.total_J - (b.j1_curvature + b.j2_dirichlet + b.j2_christoffel)
    assert abs(parts) <= 1e-12 * max(1.0, abs(b.total_J))
    header = EnergyBreakdown.csv_header().split(",")
    row = b.csv_row().split(",")
    assert len(header) == len(row) == 9
    assert float(row[header.index("total_JK")]) == b.total_JK  # 17 digits round-trip


def test_kinetic_flat_identity_chart():
    c, mass = 2.0, 1.5
    chart, pg = identity_chart(c)
    f = presets.flat(pg, n_ambient=4, phi0=1.0)
    got = kinetic_energy(f, pg, chart, mass=mass)
    # integrand m c |phi|^2 sqrt(c^2) sqrt(-g) sqrt(U) = m c^3 over unit volume
    assert abs(got - mass * c**3) < 1e-12


def test_kinetic_zero_phi():
    c = 1.0
    chart, pg = identity_chart(c)
    f = presets.flat(pg, n_ambient=4, phi0=0.0)
    assert kinetic_energy(f, pg, chart, mass=2.0) == 0.0


def test_kinetic_linear_in_mass():
    c = 1.0
    chart, pg = identity_chart(c)
    f = presets.flat(pg, n_ambient=4, phi0=0.8)
    k1 = kinetic_energy(f, pg, chart, mass=1.0)
    k2 = kinetic_energy(f, pg, chart, mass=2.0)
    assert abs(k2 - 2.0 * k1) < 1e-12 * abs(k2)


def test_kinetic_superluminal_error():
    c = 1.0
    cg = build_grid([(0, 1), (0, 1), (0, 1), (0, 1)], [3, 3, 3, 3])
    u = np.zeros(cg.counts + (2,))
    u[..., 0] = c * cg.coordinates[..., 0]
    u[..., 1] = 2.0 * cg.coordinates[..., 0]  # du_1/dt = 2 > c
    chart = make_chart(cg, u, c)
    pg = build_grid([(0, 1), (0, 2)], [3, 5])
    f = presets.flat(pg)
    with pytest.raises(SuperluminalMotionError):
        kinetic_energy(f, pg, chart, mass=1.0)


def test_kinetic_and_full_action_read_the_charts_own_metric():
    # Two charts on one chart grid: the identity, and the same with its spatial u halved,
    # so sqrt(U) is 1/8 of the identity's.  Each call follows its own chart's U.
    chart, pg = identity_chart(1.0)
    half_u = chart.u.copy()
    half_u[..., 1:] *= 0.5
    half = make_chart(chart.grid, half_u, 1.0)
    f = presets.flat(pg, n_ambient=4, phi0=1.0)
    assert chart_metric(half).sqrt_U == pytest.approx(0.125 * chart_metric(chart).sqrt_U, rel=1e-15)
    assert kinetic_energy(f, pg, chart, mass=1.0) == 1.0
    assert kinetic_energy(f, pg, half, mass=1.0) == 0.125
    # A flat sheet at phi0 = 1: J_1 and J_2 vanish, and the multipliers default to zero.
    assert full_action(f, pg, chart, mass=1.0) == kinetic_energy(f, pg, chart, mass=1.0)
    assert full_action(f, pg, half, mass=1.0) == kinetic_energy(f, pg, half, mass=1.0)


def test_full_action_zero_multipliers_composition():
    c, mass, k = 1.0, 1.5, 2 * np.pi
    chart, pg = identity_chart(c, counts=(3, 5, 3, 3))
    f = presets.flat(pg, n_ambient=4)
    f.phi = np.exp(1j * k * pg.coordinates[..., 1]).astype(complex)
    geom = build_geometry(f, pg)
    want = (
        kinetic_energy(f, pg, chart, mass=mass)
        + j1_curvature_energy(f, geom, pg)
        + sum(j2_energy(f.phi, geom, pg))
    )
    got = full_action(f, pg, chart, mass=mass)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_full_action_multiplier_terms_vanish_on_admissible():
    c, mass = 1.0, 1.0
    chart, pg = identity_chart(c)
    # sqrt(U) = 1 at c=1, so unit chart-weighted mass needs phi0 = 1.
    f = presets.flat(pg, n_ambient=4, phi0=1.0)
    base = full_action(f, pg, chart, mass=mass)
    loaded = full_action(f, pg, chart, mass=mass, E=3.7, lam_tangent=2.2, lam_unit=-4.1)
    assert abs(loaded - base) < 1e-12 * max(1.0, abs(base))


def test_full_action_multiplier_terms_off_admissible():
    # Identity chart at c = 1 over the unit box: sqrt(U) = sqrt(-g) = 1 on a
    # flat sheet, so each multiplier term integrates its constraint exactly.
    chart, pg = identity_chart(1.0)
    s, a, tau, E, lam_u = 1.3, 1.2, 0.3, 3.7, -4.1
    lam_t = np.array([2.2, 0.5, -0.7, 1.1])

    def term(f, **multipliers):
        return full_action(f, pg, chart, mass=1.0, **multipliers) - full_action(f, pg, chart, mass=1.0)

    # Slice mass s^2 on every lab-time slice: -int E (s^2 - 1) dt.
    f = presets.flat(pg, n_ambient=4, phi0=s)
    assert abs(term(f, E=E) - (-E * (s**2 - 1.0))) < 1e-12
    # n = a e_4: n.n - 1 = a^2 - 1 everywhere.
    f = presets.flat(pg, n_ambient=4)
    f.n *= a
    assert abs(term(f, lam_unit=lam_u) - lam_u * (a**2 - 1.0)) < 1e-12
    # n = e_4 + tau e_0: dr/du_0 . n = -tau, and dr/du_j . n = 0 for j >= 1.
    f = presets.flat(pg, n_ambient=4)
    f.n[..., 0] = tau
    assert abs(term(f, lam_tangent=lam_t) - (-lam_t[0] * tau)) < 1e-12


def test_full_action_zero_multipliers_default():
    c = 1.0
    chart, pg = identity_chart(c)
    f = presets.flat(pg, n_ambient=4, phi0=0.5)
    got = full_action(f, pg, chart, mass=2.0)
    want = kinetic_energy(f, pg, chart, mass=2.0)
    assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_constraint_residuals_unsquared():
    g = unit_square()
    f = presets.flat(g, phi0=presets.normalized_phi0(g))
    f.n *= 2.0
    res_norm, res_orth, res_unit = constraint_residuals(f, g)
    assert res_norm < 1e-12
    assert res_orth < 1e-12
    # L2 norm of (n.n - 1) = 3 over unit volume
    assert abs(res_unit - 3.0) < 1e-12


def test_constraint_residuals_refuse_a_non_finite_residual():
    # |phi|^2 = 1e320 overflows: the norm residual was returned as inf, with (inf, 0.0, 0.0).
    with np.errstate(over="ignore"):
        g = unit_square()
        with pytest.raises(NonFiniteValueError, match=r"^non-finite norm residual at u_0 slice \(0\)$"):
            constraint_residuals(presets.flat(g, phi0=1e160), g)
        # Every node's (n.n - 1)^2 sqrt(-g) = 1e307 is finite; its integral over the 10 x 10 box is not.
        g = build_grid([(0, 10), (0, 10)], [5, 5])
        f = presets.flat(g)
        f.n *= 10**76.75
        with pytest.raises(NonFiniteValueError, match="^non-finite unit residual$"):
            constraint_residuals(f, g)
