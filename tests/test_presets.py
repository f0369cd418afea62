"""presets.perturbed_flat for any m >= 1.

The 0.3.3 body, which derived an m = 1 analytic normal only to sign the
discrete frame normal, stays here as the oracle for m = 1: on every unfolded
start (shear_amp below L_1/pi) the dimension-free orientation rule picks the
same sign, so the fields agree byte for byte.
"""

import itertools

import numpy as np
import pytest

from worldsheet import GridError, apply_boundary, build_grid, presets
from worldsheet.geometry import metric, minkowski_dot, normal_frame
from worldsheet.presets import _assemble, normalized_phi0


def oracle_perturbed_flat(grid, n_ambient, bump_amp, shear_amp, n_scale, n_tilt, phi0=None, mass_normalized=False, eps=1e-4):
    """perturbed_flat as of 0.3.3 (m = 1 only): the frame normal signed by the analytic normal."""
    coords = grid.coordinates
    u0, u1 = coords[..., 0], coords[..., 1]
    lo1, hi1 = grid.extents[1]
    length = hi1 - lo1
    s = (u1 - lo1) / length
    profile = np.cos(np.pi * s)
    d_profile = -np.pi / length * np.sin(np.pi * s)

    r = np.zeros(grid.counts + (n_ambient + 1,))
    r[..., 0] = u0
    r[..., 1] = u1 + shear_amp * profile
    r[..., 2] = bump_amp * profile

    t1 = 1.0 + shear_amp * d_profile
    t2 = bump_amp * d_profile
    norm = np.sqrt(t1**2 + t2**2)
    n_analytic = np.zeros_like(r)
    n_analytic[..., 1] = -t2 / norm
    n_analytic[..., 2] = t1 / norm

    if phi0 is None:
        phi0 = normalized_phi0(grid)
    phi = np.full(grid.counts, phi0, dtype=complex)
    probe = _assemble(grid, r, phi, n_analytic, eps)
    md = metric(probe, grid)
    frame = normal_frame(md)
    n = frame.vectors[..., 0, :].copy()
    sign = np.sign(np.einsum("...a,...a->...", n, n_analytic))
    n *= sign[..., None]
    interior = grid.interior_mask
    n[interior] *= n_scale
    n[interior, 1] += n_tilt

    if mass_normalized:
        phi = phi / np.sqrt(md.sqrt_neg_g).astype(complex)
    return _assemble(grid, r, phi, n, eps)


def _orientation(fields, grid):
    """det(t_0, ..., t_m, n) in the first m+2 ambient coordinates, per node."""
    m = grid.m
    frame = np.concatenate([metric(fields, grid).tangents, fields.n[..., None, :]], axis=-2)
    return np.linalg.det(frame[..., : m + 2])


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


M1_COUNTS = [(3, 7), (5, 5), (5, 9), (9, 17), (4, 33)]
M1_EXTENTS = [[(0, 2), (0, 1)], [(-1, 1), (0.5, 3.0)]]
M1_BUMPS = [0.0, 0.1, -0.1, 0.3, 2.0, 10.0]
M1_SHEAR_FRACTIONS = [0.0, 0.0612 / np.pi, 0.9, -0.9]  # of L_1/pi, so every start is unfolded


@pytest.mark.parametrize("counts", M1_COUNTS, ids=lambda c: "x".join(map(str, c)))
def test_m1_matches_oracle_bitwise(counts):
    for extents, bump, frac, N, mass in itertools.product(
        M1_EXTENTS, M1_BUMPS, M1_SHEAR_FRACTIONS, (2, 3), (False, True)
    ):
        g = build_grid(extents, counts)
        shear = frac * (extents[1][1] - extents[1][0]) / np.pi
        kwargs = dict(n_ambient=N, bump_amp=bump, shear_amp=shear, n_scale=1.25, n_tilt=0.1, mass_normalized=mass)
        new = presets.perturbed_flat(g, **kwargs)
        old = oracle_perturbed_flat(g, **kwargs)
        case = (extents, bump, shear, N, mass)
        for name in ("r", "n", "phi", "r_bc", "phi_bc"):
            assert _same_bytes(getattr(new, name), getattr(old, name)), (name, case)


@pytest.mark.parametrize("shear, flipped", [(0.5, []), (0.33, [[0, 3], [1, 3], [2, 3]])])
def test_folded_sheet_is_oriented_by_the_frame(shear, flipped):
    # shear_amp above L_1/pi folds the axis-1 tangent.  The 0.3.3 rule signed
    # each normal by the analytic tangent; at shear 0.33 that tangent is
    # -0.037 on the middle column, where the discrete one is +0.010, so the old
    # normal there was oriented against the frame.  The frame rule orients every node.
    g = build_grid([(0, 2), (0, 1)], [3, 7])
    kwargs = dict(n_ambient=2, bump_amp=0.0, shear_amp=shear, n_scale=1.0, n_tilt=0.0)
    f = presets.perturbed_flat(g, **kwargs)
    assert np.all(_orientation(f, g) > 0)
    old = oracle_perturbed_flat(g, **kwargs)
    assert np.argwhere(np.any(f.n != old.n, axis=-1)).tolist() == flipped
    assert np.array_equal(f.n, np.where(np.sign(_orientation(old, g))[..., None] > 0, old.n, -old.n))


@pytest.mark.parametrize(
    "counts, N",
    [((3, 4, 5), 3), ((3, 4, 5), 4), ((3, 4, 3, 4), 4), ((3, 3, 4, 3), 6), ((3, 3, 3, 3, 3, 3), 6), ((3, 4, 3, 3, 3, 3), 7)],
)
def test_higher_m_properties(counts, N):
    m = len(counts) - 1
    extents = [(0, 2)] + [(0.1 * a, 1 + 0.2 * a) for a in range(1, m + 1)]
    g = build_grid(extents, counts)
    f = presets.perturbed_flat(g, n_ambient=N, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1)
    assert f.n_ambient == N and f.r.shape == counts + (N + 1,)

    boundary = g.boundary_mask
    tangents = metric(f, g).tangents
    n = f.n[boundary]
    assert np.max(np.abs(minkowski_dot(n, n) - 1.0)) < 1e-12
    assert np.max(np.abs(minkowski_dot(n[:, None, :], tangents[boundary]))) < 1e-12

    fresh = apply_boundary(f, g)
    assert np.array_equal(fresh.r, f.r) and np.array_equal(fresh.phi, f.phi)

    unscaled = presets.perturbed_flat(g, n_ambient=N, bump_amp=0.12, shear_amp=0.06, n_scale=1.0, n_tilt=0.0)
    assert np.all(_orientation(unscaled, g) > 0)
    assert np.array_equal(unscaled.n[boundary], n)


@pytest.mark.parametrize("counts, N", [((5, 9), 2), ((5, 9), 3), ((3, 4, 5), 3), ((3, 4, 5), 4), ((3, 4, 3, 4), 4)])
def test_normal_is_the_inline_orientation_rule(counts, N):
    # The 0.3.15 body signed the frame normal inline by det(t_0, ..., t_m, n) in
    # the first m+2 coordinates; the shared rule must give the same bytes.
    m = len(counts) - 1
    g = build_grid([(0, 2)] + [(0.1 * a, 1 + 0.2 * a) for a in range(1, m + 1)], counts)
    f = presets.perturbed_flat(g, n_ambient=N, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1)
    md = metric(f, g)
    n = normal_frame(md).vectors[..., 0, :].copy()
    n *= np.sign(np.linalg.det(np.concatenate([md.tangents, n[..., None, :]], axis=-2)[..., : m + 2]))[..., None]
    n[g.interior_mask] *= 1.25
    n[g.interior_mask, 1] += 0.1
    assert _same_bytes(f.n, n)


@pytest.mark.parametrize(
    "name, m",
    [("perturbed_flat", 1), ("perturbed_flat", 2), ("perturbed_flat", 3), ("perturbed_flat", 5),
     ("flat", 1), ("flat", 3), ("cylinder", 1), ("sphere_product", 2)],
)
def test_ambient_dimension_default_and_bound(name, m):
    preset = getattr(presets, name)
    g = build_grid([(0, 1)] + [(0.5, 1.5)] * m, [3] * (m + 1))
    assert preset(g).n_ambient == m + 1
    for N in (m, 1):
        with pytest.raises(GridError, match=rf"N > m \(got N={N}, m={m}\)"):
            preset(g, n_ambient=N)


def test_sphere_product_polar_extent_must_stay_below_pi():
    g = build_grid([(0, 1), (0.7, np.pi), (0.3, np.pi - 0.3)], [3, 5, 5])
    with pytest.raises(GridError, match=r"inside \(0, pi\)"):
        presets.sphere_product(g)
