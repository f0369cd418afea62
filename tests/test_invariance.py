"""Invariance of J_K and the structure residuals under ambient isometries and
under reversal of a spatial parameter axis.

A proper orthochronous Lorentz map with a translation moves r and r_bc; the
candidate normal takes the Lorentz map only.  Every quantity below is built
from Minkowski products, so it may move by rounding only.  The Weingarten
residual is a maximum Euclidean norm, so it is invariant under spatial
rotations and translations but not under boosts.
"""

import dataclasses

import numpy as np
import pytest

from worldsheet import assemble_JK, build_geometry, build_grid, gauss_residual, presets, weingarten_residual

K = 100.0
SEEDS = range(6)


def sphere_sheet(rng):
    """A 5x7x7 sphere product (s = 1) with a time-dependent bend and an off-unit normal."""
    g = build_grid([(0, 1), (0.7, np.pi - 0.7), (0.3, np.pi - 0.3)], [5, 7, 7])
    f = presets.sphere_product(g, radius=1.5)
    u = g.coordinates
    for comp in range(1, 4):
        a, b = rng.uniform(-1.0, 1.0, 2)
        f.r[..., comp] += 0.05 * a * np.sin(u[..., 0] + b) * np.cos(u[..., 1])
    return g, _perturbed(f, rng)


def bent_sheet(rng):
    """A 7x9 sheet with s = 2 normal directions, bent in both of them."""
    g = build_grid([(0, 1), (0, 1.5)], [7, 9])
    f = presets.flat(g, n_ambient=3)
    u = g.coordinates
    a, b = rng.uniform(0.05, 0.25, 2)
    f.r[..., 2] = a * np.sin(u[..., 1] + u[..., 0])
    f.r[..., 3] = b * np.cos(2 * u[..., 1] - u[..., 0])
    return g, _perturbed(f, rng)


def _perturbed(f, rng):
    """Nonzero penalties and Dirichlet energy: noise on n and on phi."""
    f.n += 0.1 * rng.standard_normal(f.n.shape)
    f.phi *= 1.0 + 0.1 * (rng.standard_normal(f.phi.shape) + 1j * rng.standard_normal(f.phi.shape))
    f.r_bc[...] = f.r
    f.phi_bc[...] = f.phi
    return f


def rotation(rng, dim):
    """A random rotation of the spatial axes 1..dim-1, as a (dim, dim) map."""
    q, rr = np.linalg.qr(rng.standard_normal((dim - 1, dim - 1)))
    q *= np.sign(np.diag(rr))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    lam = np.eye(dim)
    lam[1:, 1:] = q
    return lam


def boost(rng, dim):
    """A boost of rapidity at most 1 along a random spatial direction."""
    eta = rng.uniform(0.0, 1.0)
    d = rng.standard_normal(dim - 1)
    d /= np.linalg.norm(d)
    lam = np.eye(dim)
    lam[0, 0] = np.cosh(eta)
    lam[0, 1:] = lam[1:, 0] = np.sinh(eta) * d
    lam[1:, 1:] += (np.cosh(eta) - 1.0) * np.outer(d, d)
    return lam


def moved(f, lam, shift):
    return dataclasses.replace(
        f, r=f.r @ lam.T + shift, r_bc=f.r_bc @ lam.T + shift, n=f.n @ lam.T, phi=f.phi.copy(), phi_bc=f.phi_bc.copy()
    )


def reversed_axis(f, axis):
    flip = lambda x: np.flip(x, axis).copy()  # noqa: E731
    return dataclasses.replace(f, r=flip(f.r), r_bc=flip(f.r_bc), n=flip(f.n), phi=flip(f.phi), phi_bc=flip(f.phi_bc))


def measures(f, g):
    """The breakdown of J_K, the Gauss residual and the Weingarten residual."""
    geom = build_geometry(f, g, with_riemann=True, with_frame=True)
    weingarten, _ = weingarten_residual(f, g, geom.b_up, geom.metric, geom.frame)
    return assemble_JK(f, g, K, geom=geom), gauss_residual(geom.riemann, geom.b, geom.b_up), weingarten


SHEETS = {"sphere_product": sphere_sheet, "s2_sheet": bent_sheet}


@pytest.mark.parametrize("sheet", SHEETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_lorentz_map_and_translation_leave_energy_and_gauss_residual(sheet, seed):
    rng = np.random.default_rng(seed)
    g, f = SHEETS[sheet](rng)
    dim = f.r.shape[-1]
    lam = boost(rng, dim) @ rotation(rng, dim)
    br, gauss, _ = measures(f, g)
    br2, gauss2, _ = measures(moved(f, lam, rng.uniform(-2.0, 2.0, dim)), g)
    for field in dataclasses.fields(br):
        assert abs(getattr(br2, field.name) - getattr(br, field.name)) <= 1e-10 * abs(br.total_JK), field.name
    assert abs(gauss2 - gauss) <= 1e-8 * gauss


@pytest.mark.parametrize("sheet", SHEETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_rotation_and_translation_leave_weingarten_residual(sheet, seed):
    rng = np.random.default_rng(seed)
    g, f = SHEETS[sheet](rng)
    dim = f.r.shape[-1]
    _, _, weingarten = measures(f, g)
    _, _, weingarten2 = measures(moved(f, rotation(rng, dim), rng.uniform(-2.0, 2.0, dim)), g)
    assert abs(weingarten2 - weingarten) <= 1e-10 * weingarten


@pytest.mark.parametrize("sheet", SHEETS)
@pytest.mark.parametrize("seed", SEEDS)
def test_reversing_a_spatial_axis_leaves_energy_and_residuals(sheet, seed):
    rng = np.random.default_rng(seed)
    g, f = SHEETS[sheet](rng)
    br, gauss, weingarten = measures(f, g)
    for axis in range(1, g.ndim):
        br2, gauss2, weingarten2 = measures(reversed_axis(f, axis), g)
        assert abs(br2.total_JK - br.total_JK) <= 1e-13 * abs(br.total_JK)
        assert abs(gauss2 - gauss) <= 1e-13 * gauss
        assert abs(weingarten2 - weingarten) <= 1e-13 * weingarten
