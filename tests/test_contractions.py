"""The Christoffel contractions against their einsum forms.

christoffel and its adjoint in backward_JK contract over the (j, k) pairs with
batched matmuls.  The einsum code they replaced stays here as the oracle: the
forward Gamma, the adjoint's three bars, and the full backward pass built on
the oracle must agree to rounding (1e-14 relative) on curved, noisy starts.
"""

import numpy as np
import pytest

from worldsheet import backward_JK, build_geometry, build_grid, christoffel, geometry, presets
from worldsheet import energy
from worldsheet.geometry import _christoffel_adjoint, _signs

REL = 1e-14


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


def _start(name):
    rng = np.random.default_rng(11)
    if name == "cylinder":
        g = build_grid([(0, 1), (0, 2 * np.pi)], [5, 7])
        f = presets.cylinder(g, radius=1.0)
    elif name == "sphere_product":
        g = build_grid([(0, 1), (0.8, np.pi - 0.8), (0.4, np.pi - 0.4)], [3, 5, 4])
        f = presets.sphere_product(g, radius=1.0)
    else:
        g = build_grid([(0, 1), (0.8, np.pi - 0.8), (0.4, np.pi - 0.4)], [5, 7, 6])
        f = presets.sphere_product(g, radius=1.0)
    interior = g.interior_mask
    shape = f.phi[interior].shape
    f.r[interior] += 0.01 * rng.standard_normal(f.r[interior].shape)
    f.n[interior] += 0.05 * rng.standard_normal(f.n[interior].shape)
    f.phi[interior] += 0.03 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return g, f


def _close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


STARTS = ["cylinder", "sphere_product", "noisy_5x7x6"]


@pytest.mark.parametrize("name", STARTS)
def test_christoffel_matches_einsum(name):
    g, f = _start(name)
    geom = build_geometry(f, g)
    want = einsum_christoffel(geom.d2r, geom.metric)
    _close(christoffel(geom.d2r, geom.metric), want)
    assert np.array_equal(geom.gamma, np.swapaxes(geom.gamma, -2, -1))


@pytest.mark.parametrize("name", STARTS)
def test_christoffel_adjoint_matches_einsum(name):
    g, f = _start(name)
    geom = build_geometry(f, g)
    bar_gamma = np.random.default_rng(5).standard_normal(geom.gamma.shape)
    got = _christoffel_adjoint(bar_gamma, geom.d2r, geom.metric)
    for a, b in zip(got, einsum_christoffel_adjoint(bar_gamma, geom.d2r, geom.metric)):
        _close(a, b)


@pytest.mark.parametrize("name", STARTS)
def test_backward_matches_einsum_pass(monkeypatch, name):
    g, f = _start(name)
    got_jk, got = backward_JK(f, g, 50.0, build_geometry(f, g))
    used = []

    def oracle(fn):
        return lambda *args: used.append(fn) or fn(*args)

    monkeypatch.setattr(geometry, "christoffel", oracle(einsum_christoffel))
    monkeypatch.setattr(energy, "_christoffel_adjoint", oracle(einsum_christoffel_adjoint))
    want_jk, want = backward_JK(f, g, 50.0, build_geometry(f, g))
    assert used == [einsum_christoffel, einsum_christoffel_adjoint]
    assert abs(got_jk.total_JK - want_jk.total_JK) <= REL * abs(want_jk.total_JK)
    for a, b in zip(got, want):
        _close(a, b)
