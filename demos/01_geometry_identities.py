"""Differential geometry of discretized sheets: metric, curvature, and the
structure identities.

Three analytic embeddings are discretized on uniform parameter grids and the
full tensor stack is computed from finite differences alone: tangents, the
induced Lorentzian metric, Christoffel symbols (tangential projection of the
second derivatives), the second fundamental form along the unit normal, and
the curvature tensor.  The Gauss and Weingarten identities then act as global
consistency checks; their residuals shrink at second order as the grid is
refined.
"""

import numpy as np

import worldsheet as ws

print(__doc__)

# --- flat sheet: everything is exact ---------------------------------------
grid = ws.build_grid([(0, 1), (0, 1)], [9, 9])
fields = ws.presets.flat(grid)
geom = ws.build_geometry(fields, grid)
print("flat sheet")
print("  metric at the center node:\n", geom.g[4, 4])
print("  max |Gamma|:", np.abs(geom.gamma).max())
print("  gauss residual:", ws.gauss_residual(geom.riemann, geom.b, geom.b_up))

# --- cylinder: extrinsically curved, intrinsically flat ---------------------
rho = 1.5
grid = ws.build_grid([(0, 1), (0, 2 * np.pi * rho)], [9, 33])
fields = ws.presets.cylinder(grid, radius=rho)
geom = ws.build_geometry(fields, grid)
print("\ncylinder, radius", rho)
print("  b_11 at a mid node (expect -1/rho = %.4f): %.4f" % (-1 / rho, geom.b[4, 16, 1, 1]))
print("  max |Gamma| (intrinsically flat):", np.abs(geom.gamma).max())
w, _ = ws.weingarten_residual(fields, grid, geom.b_up, geom.metric, geom.frame)
print("  weingarten residual:", w)

# --- sphere product: genuine intrinsic curvature ----------------------------
print("\ntime line x 2-sphere, refinement study")
params, gauss_res, wein_res = [], [], []
for n in (9, 17, 33):
    grid = ws.build_grid([(0, 1), (1.0, np.pi - 1.0), (0.4, np.pi - 0.4)], [n, n, n])
    fields = ws.presets.sphere_product(grid, radius=1.0)
    geom = ws.build_geometry(fields, grid)
    params.append(grid.spacings[1])
    gauss_res.append(ws.gauss_residual(geom.riemann, geom.b, geom.b_up))
    w, _ = ws.weingarten_residual(fields, grid, geom.b_up, geom.metric, geom.frame)
    wein_res.append(w)
print(ws.cli.emit_convergence_table(params, {"gauss": gauss_res, "weingarten": wein_res}))
print("observed orders sit near 2: the identities hold at the stencil order.")
