"""Every scalar functional of the sheet, itemized.

The reduced action J splits into the curvature energy (quadratic in the
second fundamental form) and the amplitude energy (a Dirichlet piece plus a
connection piece).  Quadratic penalties measure how far a configuration sits
from the constraint set: unit spatial mass per time slice, tangent-normal
orthogonality, and a unit normal.  The chart-weighted action adds the kinetic
term and the multiplier terms on top.
"""

import numpy as np

import worldsheet as ws
from worldsheet import presets

print(__doc__)

# --- breakdown on an inadmissible configuration ------------------------------
grid = ws.build_grid([(0, 1), (0, 1)], [5, 5])
fields = presets.perturbed_flat(grid, bump_amp=0.1, shear_amp=0.05, n_scale=1.2, n_tilt=0.1)
for K in (0.0, 10.0, 100.0):
    b = ws.assemble_JK(fields, grid, K)
    print(
        f"K={K:6g}  J={b.total_J:.6f}  JK={b.total_JK:.6f} "
        f" penalties=(norm {b.penalty_norm:.4f}, orth {b.penalty_orth:.4f}, unit {b.penalty_unit:.4f})"
    )
print("CSV row:", b.csv_row())

# --- penalties vanish exactly on the constraint set -------------------------
admissible = presets.flat(grid, phi0=presets.normalized_phi0(grid))
b = ws.assemble_JK(admissible, grid, 1e6)
print("\nadmissible flat sheet: J_K == J for every K ->", b.total_JK == b.total_J)

# --- a plane wave has pure Dirichlet amplitude energy ------------------------
wave_grid = ws.build_grid([(0, 1), (0, 1)], [5, 65])
wave = presets.flat(wave_grid)
k = 2.0
wave.phi = np.exp(1j * k * wave_grid.coordinates[..., 1])
geom = ws.build_geometry(wave, wave_grid)
dirichlet, christoffel = ws.j2_energy(wave.phi, geom, wave_grid)
print(f"\nplane wave exp(i k u1), k={k}: dirichlet={dirichlet:.5f}"
      f" (continuum k^2/2 = {k*k/2:.5f}), christoffel={christoffel:.1e}")

# --- chart-weighted action with the kinetic term -----------------------------
c, mass = 1.0, 1.0
chart_grid = ws.build_grid([(0, 1), (0, 1), (0, 1), (0, 1)], [3, 3, 3, 3])
u = np.zeros(chart_grid.counts + (4,))
u[..., 0] = c * chart_grid.coordinates[..., 0]
u[..., 1:] = chart_grid.coordinates[..., 1:]
chart = ws.make_chart(chart_grid, u, c)
param_grid = ws.build_grid([(0, 1), (0, 1), (0, 1), (0, 1)], [3, 3, 3, 3])
sheet = presets.flat(param_grid, n_ambient=4, phi0=1.0)
kinetic = ws.kinetic_energy(sheet, param_grid, chart, mass=mass)  # c and sqrt(U) are the chart's
total = ws.full_action(sheet, param_grid, chart, mass=mass, E=2.0, lam_tangent=1.0, lam_unit=3.0)
print(f"\nidentity chart: kinetic={kinetic:.4f}; full action with multipliers={total:.4f}")
print("the multiplier terms vanish because the flat sheet satisfies every constraint.")
