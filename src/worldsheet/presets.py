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


def _ambient_dimension(preset: str, grid: ParameterGrid, n_ambient: int | None) -> int:
    """The ambient dimension N, m + 1 when n_ambient is None; GridError unless N > m."""
    m = grid.m
    N = m + 1 if n_ambient is None else int(n_ambient)
    if N <= m:
        raise GridError(f"{preset} needs ambient dimension N > m (got N={N}, m={m})")
    return N


def flat(grid: ParameterGrid, n_ambient: int | None = None, phi0: complex = 1.0, eps: float = 1e-4) -> FieldSet:
    """Flat embedding r(u) = (u_0, ..., u_m, 0, ..., 0) with normal e_{m+1}."""
    m = grid.m
    N = _ambient_dimension("flat preset", grid, n_ambient)
    coords = grid.coordinates
    r = np.zeros(grid.counts + (N + 1,))
    r[..., : m + 1] = coords
    n = np.zeros_like(r)
    n[..., m + 1] = 1.0
    phi = np.full(grid.counts, phi0, dtype=complex)
    return _assemble(grid, r, phi, n, eps)


def cylinder(grid: ParameterGrid, radius: float = 1.0, n_ambient: int | None = None, phi0: complex = 1.0, eps: float = 1e-4) -> FieldSet:
    """Cylinder sheet r = (u_0, rho cos(u_1/rho), rho sin(u_1/rho)), outward normal.

    Intrinsically flat (g = diag(-1, 1), Gamma = 0) with b_11 = -1/rho along
    the outward normal.  Needs m = 1.
    """
    if grid.m != 1:
        raise GridError("cylinder preset needs exactly one spatial parameter (m = 1)")
    N = _ambient_dimension("cylinder preset", grid, n_ambient)
    coords = grid.coordinates
    u0, u1 = coords[..., 0], coords[..., 1]
    ang = u1 / radius
    r = np.zeros(grid.counts + (N + 1,))
    r[..., 0] = u0
    r[..., 1] = radius * np.cos(ang)
    r[..., 2] = radius * np.sin(ang)
    n = np.zeros_like(r)
    n[..., 1] = np.cos(ang)
    n[..., 2] = np.sin(ang)
    phi = np.full(grid.counts, phi0, dtype=complex)
    return _assemble(grid, r, phi, n, eps)


def sphere_product(grid: ParameterGrid, radius: float = 1.0, n_ambient: int | None = None, phi0: complex = 1.0, eps: float = 1e-4) -> FieldSet:
    """Time line times a 2-sphere of radius rho, outward normal.

    r = (u_0, rho sin u_1 cos u_2, rho sin u_1 sin u_2, rho cos u_1); the
    chart must stay away from the poles (sin u_1 = 0).  Needs m = 2.
    """
    if grid.m != 2:
        raise GridError("sphere_product preset needs two spatial parameters (m = 2)")
    N = _ambient_dimension("sphere_product preset", grid, n_ambient)
    lo, hi = grid.extents[1]
    if lo <= 0.0 or hi >= np.pi:
        raise GridError("sphere_product polar extent must stay inside (0, pi)")
    coords = grid.coordinates
    u0, u1, u2 = coords[..., 0], coords[..., 1], coords[..., 2]
    st, ct = np.sin(u1), np.cos(u1)
    cp, sp = np.cos(u2), np.sin(u2)
    r = np.zeros(grid.counts + (N + 1,))
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
    n_ambient: int | None = None,
    bump_amp: float = 0.3,
    shear_amp: float = 0.0,
    n_scale: float = 1.4,
    n_tilt: float = 0.25,
    phi0: complex | None = None,
    mass_normalized: bool = False,
    eps: float = 1e-4,
) -> FieldSet:
    """Gently bent flat sheet with an off-unit, off-orthogonal normal; any m >= 1, N > m.

    The static spatial bump, the product over the spatial axes a = 1..m of
    cos(pi (u_a - lo_a) / (hi_a - lo_a)), lifts the sheet out of its plane
    along ambient axis m+1 with amplitude bump_amp and shears it along axis 1
    with amplitude shear_amp.  It is baked into the boundary data, so the
    sheet cannot relax to exactly flat: curvature persists and the reduced
    action pushes against all three constraints.  The normal is the first
    vector of the discrete normal frame, signed so that (t_0, ..., t_m, n) is
    positively oriented in the first m+2 ambient coordinates.  phi defaults to
    the flat normalization constant, which the bent volume element leaves
    slightly over unit mass; with mass_normalized=True the amplitude is
    instead rescaled pointwise by the initial volume element so
    |phi|^2 sqrt(-g) starts uniform.  N defaults to m + 1.
    """
    m = grid.m
    N = _ambient_dimension("perturbed_flat scenario", grid, n_ambient)
    coords = grid.coordinates
    lo, hi = np.array(grid.extents[1:]).T
    profile = np.prod(np.cos(np.pi * ((coords[..., 1:] - lo) / (hi - lo))), axis=-1)

    r = np.zeros(grid.counts + (N + 1,))
    r[..., : m + 1] = coords
    r[..., 1] += shear_amp * profile
    r[..., m + 1] = bump_amp * profile

    # Normal from the discrete tangent frame, then scaled and tilted off the
    # admissible set on interior nodes only.  Boundary normals stay exactly
    # stencil-orthogonal: they are frozen during minimization, and any
    # violation there (including the O(h^2) gap between analytic and discrete
    # tangents) would put an irreducible floor under the constraint residuals.
    from .geometry import metric as metric_op, oriented_normal

    if phi0 is None:
        phi0 = normalized_phi0(grid)
    phi = np.full(grid.counts, phi0, dtype=complex)
    md = metric_op(_assemble(grid, r, phi, np.zeros_like(r), eps), grid)
    n = oriented_normal(md)
    interior = grid.interior_mask
    n[interior] *= n_scale
    n[interior, 1] += n_tilt

    if mass_normalized:
        # Divide out the discrete volume element so the spatial mass density
        # is uniform at the start, to quadrature accuracy.
        phi = phi / np.sqrt(md.sqrt_neg_g)
    return _assemble(grid, r, phi, n, eps)
