"""Analytic sheet embeddings used as test scenarios and optimizer starts.

Each preset returns a FieldSet whose boundary data equals the analytic values
on boundary nodes, so apply_boundary is the identity on a fresh preset.  The
candidate normal n is the exact unit normal of the embedding (in Minkowski
terms), which makes the presets admissible up to the phi normalization.
"""

from __future__ import annotations

import numpy as np

from .grid import FieldSet, GridError, ParameterGrid


def _assemble(grid: ParameterGrid, r: np.ndarray, phi: np.ndarray, n: np.ndarray, eps: float) -> FieldSet:
    return FieldSet(r=r, phi=phi, n=n, r_bc=r.copy(), phi_bc=phi.copy(), eps=eps)


def spatial_volume(grid: ParameterGrid) -> float:
    """Volume of the spatial factor D_1 (axes 1..m)."""
    v = 1.0
    for lo, hi in grid.extents[1:]:
        v *= hi - lo
    return v


def normalized_phi0(grid: ParameterGrid) -> float:
    """Constant amplitude with unit spatial mass on a flat sheet."""
    return 1.0 / np.sqrt(spatial_volume(grid))


def flat(grid: ParameterGrid, n_ambient: int | None = None, phi0: complex = 1.0, eps: float = 1e-4) -> FieldSet:
    """Flat embedding r(u) = (u_0, ..., u_m, 0, ..., 0) with normal e_{m+1}."""
    m = grid.m
    N = m + 1 if n_ambient is None else int(n_ambient)
    if N <= m:
        raise GridError(f"flat preset needs ambient dimension N > m (got N={N}, m={m})")
    coords = grid.coordinates
    r = np.zeros(grid.counts + (N + 1,))
    r[..., : m + 1] = coords
    n = np.zeros_like(r)
    n[..., m + 1] = 1.0
    phi = np.full(grid.counts, phi0, dtype=complex)
    return _assemble(grid, r, phi, n, eps)


def cylinder(grid: ParameterGrid, radius: float = 1.0, n_ambient: int = 2, phi0: complex = 1.0, eps: float = 1e-4) -> FieldSet:
    """Cylinder sheet r = (u_0, rho cos(u_1/rho), rho sin(u_1/rho)), outward normal.

    Intrinsically flat (g = diag(-1, 1), Gamma = 0) with b_11 = -1/rho along
    the outward normal.  Needs m = 1.
    """
    if grid.m != 1:
        raise GridError("cylinder preset needs exactly one spatial parameter (m = 1)")
    if n_ambient < 2:
        raise GridError("cylinder preset needs ambient dimension N >= 2")
    coords = grid.coordinates
    u0, u1 = coords[..., 0], coords[..., 1]
    ang = u1 / radius
    r = np.zeros(grid.counts + (n_ambient + 1,))
    r[..., 0] = u0
    r[..., 1] = radius * np.cos(ang)
    r[..., 2] = radius * np.sin(ang)
    n = np.zeros_like(r)
    n[..., 1] = np.cos(ang)
    n[..., 2] = np.sin(ang)
    phi = np.full(grid.counts, phi0, dtype=complex)
    return _assemble(grid, r, phi, n, eps)


def sphere_product(grid: ParameterGrid, radius: float = 1.0, n_ambient: int = 3, phi0: complex = 1.0, eps: float = 1e-4) -> FieldSet:
    """Time line times a 2-sphere of radius rho, outward normal.

    r = (u_0, rho sin u_1 cos u_2, rho sin u_1 sin u_2, rho cos u_1); the
    chart must stay away from the poles (sin u_1 = 0).  Needs m = 2.
    """
    if grid.m != 2:
        raise GridError("sphere_product preset needs two spatial parameters (m = 2)")
    if n_ambient < 3:
        raise GridError("sphere_product preset needs ambient dimension N >= 3")
    lo, hi = grid.extents[1]
    if lo <= 0.0 or hi >= np.pi:
        raise GridError("sphere_product polar extent must stay inside (0, pi)")
    coords = grid.coordinates
    u0, u1, u2 = coords[..., 0], coords[..., 1], coords[..., 2]
    st, ct = np.sin(u1), np.cos(u1)
    cp, sp = np.cos(u2), np.sin(u2)
    r = np.zeros(grid.counts + (n_ambient + 1,))
    r[..., 0] = u0
    r[..., 1] = radius * st * cp
    r[..., 2] = radius * st * sp
    r[..., 3] = radius * ct
    n = np.zeros_like(r)
    n[..., 1] = st * cp
    n[..., 2] = st * sp
    n[..., 3] = ct
    phi = np.full(grid.counts, phi0, dtype=complex)
    return _assemble(grid, r, phi, n, eps)


def perturbed_flat(
    grid: ParameterGrid,
    n_ambient: int = 2,
    bump_amp: float = 0.3,
    shear_amp: float = 0.0,
    n_scale: float = 1.4,
    n_tilt: float = 0.25,
    phi0: complex | None = None,
    mass_normalized: bool = False,
    eps: float = 1e-4,
) -> FieldSet:
    """Gently bent flat sheet with an off-unit, off-orthogonal normal.

    The static spatial bump (cosine profile, amplitude bump_amp out of the
    sheet plane plus an optional in-plane shear_amp) is baked into the
    boundary data, so the sheet cannot relax to exactly flat: curvature
    persists and the reduced action pushes against all three constraints.
    phi defaults to the flat normalization constant, which the bent volume
    element leaves slightly over unit mass; with mass_normalized=True the
    amplitude is instead rescaled pointwise by the initial volume element so
    |phi|^2 sqrt(-g) starts uniform.  Needs m = 1.
    """
    if grid.m != 1:
        raise GridError("perturbed_flat scenario needs m = 1")
    if n_ambient < 2:
        raise GridError("perturbed_flat scenario needs ambient dimension N >= 2")
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

    # Normal from the discrete tangent frame, then scaled and tilted off the
    # admissible set on interior nodes only.  Boundary normals stay exactly
    # stencil-orthogonal: they are frozen during minimization, and any
    # violation there (including the O(h^2) gap between analytic and discrete
    # tangents) would put an irreducible floor under the constraint residuals.
    from .geometry import metric as metric_op, normal_frame

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
    md = metric_op(probe, grid)
    frame = normal_frame(md)
    n = frame.vectors[..., 0, :].copy()
    sign = np.sign(np.einsum("...a,...a->...", n, n_analytic))
    n *= sign[..., None]
    interior = grid.interior_mask
    n[interior] *= n_scale
    n[interior, 1] += n_tilt

    if mass_normalized:
        # Divide out the discrete volume element so the spatial mass density
        # is uniform at the start, to quadrature accuracy.
        phi = phi / np.sqrt(md.sqrt_neg_g).astype(complex)
    return _assemble(grid, r, phi, n, eps)
