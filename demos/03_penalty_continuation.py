"""Penalty-method minimization: constraint residuals decay like 1/K.

A bent sheet starts with its normal off unit length, off orthogonality, and
its amplitude off normalization.  Sweeping the penalty weight K upward with
warm starts, L-BFGS descent settles each stage near a critical point
where the residual of every violated constraint balances the action's pull at
size ~ 1/K.  The fitted log-log slopes land near -1.

The geometry is held fixed here and the amplitude and normal relax: that is
the coercive branch on which the curvature form stays positive, matching the
hypotheses under which the 1/K estimates hold (see the coercivity report at
the end).  The run takes under a second.
"""

import numpy as np

import worldsheet as ws
from worldsheet import presets

print(__doc__)

grid = ws.build_grid([(0, 2), (0, 1)], [3, 7])
fields = presets.perturbed_flat(
    grid, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True
)
cfg = ws.PenaltyConfig(
    k_schedule=(10.0, 100.0, 1000.0, 10000.0),
    step_init=0.1,
    max_iters=800,
    grad_tol=1e-6,
    optimize_fields=("phi", "n"),
)

start = ws.constraint_residuals(fields, grid)
print(f"start residuals: norm {start[0]:.3e}, orth {start[1]:.3e}, unit {start[2]:.3e}\n")

report = ws.penalty_continuation(fields, grid, cfg)
print(report.csv_header())
for row in report.csv_rows():
    print(row)
print()
print(report.summary_line())
if report.theorem_range_notice:
    print(report.theorem_range_notice)

rep = ws.coercivity_check(report.final_fields, grid, c0=0.5, c1=1e-3)
print(
    "\ncoercivity margins at the relaxed solution: spatial eig %.3f,"
    " normal-gradient %.4f, second-derivative %.4f"
    % (rep.margin_spatial_eig, rep.margin_normal_grad, rep.margin_second_deriv)
)
print(
    "the normal-gradient margin is the diagnostic to watch: it pins down where the"
    "\ncurvature form keeps its grip on the normal (violations are reported, never raised)."
)
