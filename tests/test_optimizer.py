import dataclasses
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from worldsheet import (
    FieldSet,
    GeometryError,
    PenaltyConfig,
    assemble_JK,
    build_geometry,
    build_grid,
    coercivity_check,
    constraint_residuals,
    fit_loglog_slope,
    gradient_JK,
    intercept_check,
    make_chart,
    metric,
    minimize_fixed_K,
    normal_frame,
    penalty_continuation,
    second_fundamental_form,
)
from worldsheet import cli, energy, optimizer, presets
from worldsheet.optimizer import pack_interior, theorem_range_notice


def flat_admissible(counts=(5, 5)):
    g = build_grid([(0, 1), (0, 1)], counts)
    return g, presets.flat(g, phi0=presets.normalized_phi0(g))


def small_perturbed():
    g = build_grid([(0, 2), (0, 1)], [3, 7])
    f = presets.perturbed_flat(
        g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True
    )
    return g, f


def test_config_validation():
    with pytest.raises(ValueError):
        PenaltyConfig(k_schedule=(10.0, 10.0))
    with pytest.raises(ValueError):
        PenaltyConfig(step_init=-1.0)
    with pytest.raises(ValueError):
        PenaltyConfig(optimize_fields=("r", "bogus"))
    cfg = PenaltyConfig()
    assert cfg.k_schedule == (10.0, 100.0, 1000.0, 10000.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grad_tol": float("nan")},
        {"step_init": float("nan")},
        {"step_init": float("inf")},
        {"grad_tol": float("inf")},
        {"grad_tol": 0.0},
        {"k_schedule": (10.0, float("nan"))},
        {"k_schedule": (float("nan"), 10.0)},
        {"k_schedule": (10.0, float("inf"))},
        {"max_iters": -1},
        {"max_iters": 2.5},
        # A bool is an int to Python: max_iters=True would run one iteration, step_init=True step by 1.
        {"max_iters": True},
        {"max_iters": np.bool_(True)},
        {"step_init": True},
        {"grad_tol": True},
        {"k_schedule": (True, 10.0)},
        {"k_schedule": (np.bool_(True), 10.0)},
        # A str of fields would be read letter by letter, "rn" as r and n.
        {"optimize_fields": "rn"},
    ],
)
def test_config_rejects_non_finite_settings(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        PenaltyConfig(**kwargs)


# Settings that became module constants: (callable, positional argument
# count, removed keyword).  The call binds its arguments before reading any.
REMOVED_KEYWORDS = [
    (PenaltyConfig, 0, "armijo_c"),
    (PenaltyConfig, 0, "backtrack"),
    (PenaltyConfig, 0, "singular_tol"),
    (metric, 2, "singular_tol"),
    (build_geometry, 2, "singular_tol"),
    (assemble_JK, 3, "singular_tol"),
    (gradient_JK, 3, "singular_tol"),
    (normal_frame, 1, "null_tol"),
    (normal_frame, 1, "skip_tol"),
    (second_fundamental_form, 3, "unit_tol"),
    (make_chart, 3, "gauge_tol"),
    (intercept_check, 2, "path_limit"),
]


@pytest.mark.parametrize(
    "func, n_args, keyword", REMOVED_KEYWORDS, ids=[f"{f.__name__}-{k}" for f, _, k in REMOVED_KEYWORDS]
)
def test_removed_settings_are_not_keywords(func, n_args, keyword):
    with pytest.raises(TypeError, match=keyword):
        func(*[None] * n_args, **{keyword: 1e-3})


def test_gradient_near_zero_at_admissible_flat():
    g, f = flat_admissible()
    grad = gradient_JK(f, g, 100.0)
    assert np.linalg.norm(pack_interior(grad, g)) <= 1e-6


def test_gradient_boundary_entries_zero():
    g, f = small_perturbed()
    grad = gradient_JK(f, g, 10.0)
    mask = g.boundary_mask
    assert np.all(grad.r[mask] == 0.0)
    assert np.all(grad.phi[mask] == 0.0)
    assert np.all(grad.n[mask] == 0.0)


@pytest.mark.parametrize("preset", ["flat", "cylinder", "sphere"])
def test_gradient_directional_agreement(preset):
    rng = np.random.default_rng(11)
    if preset == "flat":
        g = build_grid([(0, 1), (0, 1)], [5, 5])
        f = presets.flat(g, phi0=presets.normalized_phi0(g))
    elif preset == "cylinder":
        g = build_grid([(0, 1), (0, 2 * np.pi)], [5, 7])
        f = presets.cylinder(g, radius=1.0)
    else:
        g = build_grid([(0, 1), (0.8, np.pi - 0.8), (0.4, np.pi - 0.4)], [3, 5, 5])
        f = presets.sphere_product(g, radius=1.0)
    interior = g.interior_mask
    # move off the critical set so directional derivatives are O(1)
    f.r[interior] += 0.01 * rng.standard_normal(f.r[interior].shape)
    f.n[interior] += 0.05 * rng.standard_normal(f.n[interior].shape)
    f.phi[interior] += 0.03 * rng.standard_normal(f.phi[interior].shape)

    K = 50.0
    grad = gradient_JK(f, g, K)
    gvec = pack_interior(grad, g)
    for _ in range(20):
        d = rng.standard_normal(gvec.shape)
        d /= np.linalg.norm(d)
        eps = 1e-6
        plus = f.copy()
        minus = f.copy()
        _apply_direction(plus, g, d, eps)
        _apply_direction(minus, g, d, -eps)
        fd = (assemble_JK(plus, g, K).total_JK - assemble_JK(minus, g, K).total_JK) / (2 * eps)
        analytic = float(gvec @ d)
        assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))


def _apply_direction(fields, grid, dvec, eps):
    interior = grid.interior_mask
    n_int = int(interior.sum())
    ncomp = fields.r.shape[-1]
    r_block = dvec[: n_int * ncomp].reshape(n_int, ncomp)
    phi_block = dvec[n_int * ncomp : n_int * (ncomp + 2)].reshape(n_int, 2)
    n_block = dvec[n_int * (ncomp + 2) :].reshape(n_int, ncomp)
    fields.r[interior] += eps * r_block
    fields.phi[interior] += eps * (phi_block[:, 0] + 1j * phi_block[:, 1])
    fields.n[interior] += eps * n_block


def test_gradient_probe_error_names_dof():
    g, f = flat_admissible()
    f.phi[2, 2] = np.nan
    with pytest.raises(GeometryError, match=r"^phi is not finite at node \(2, 2\)$"):
        gradient_JK(f, g, 10.0)


def test_gradient_restricted_kinds():
    g, f = small_perturbed()
    grad = gradient_JK(f, g, 10.0, kinds=("n",))
    assert np.all(grad.r == 0.0)
    assert np.all(grad.phi == 0.0)
    assert np.any(grad.n != 0.0)


@pytest.mark.parametrize("kinds", ["rn", "phi", ("Phi",), ("r", "bogus")])
def test_gradient_refuses_kinds_outside_r_phi_n(kinds):
    # A str would be read letter by letter ("rn" as r and n), and an unknown name would give zero blocks.
    g, f = small_perturbed()
    geom, message = build_geometry(f, g), rf"^kinds must be a sequence of r, phi, n \(got {re.escape(repr(kinds))}\)$"
    with pytest.raises(ValueError, match=message):
        gradient_JK(f, g, 10.0, kinds=kinds)
    with pytest.raises(ValueError, match=message):
        energy.backward_JK(f, g, 10.0, geom, kinds)


def test_minimize_admissible_start_terminates_immediately():
    g, f = flat_admissible()
    cfg = PenaltyConfig(max_iters=50)
    out, rec = minimize_fixed_K(f, g, 100.0, cfg)
    assert rec.converged
    assert rec.iterations <= 3
    assert np.max(np.abs(out.r - f.r)) <= 1e-8
    assert np.max(np.abs(out.phi - f.phi)) <= 1e-8
    assert np.max(np.abs(out.n - f.n)) <= 1e-8


def test_minimize_scaled_normal_unit_residual_decreases():
    g, f = flat_admissible((5, 5))
    interior = g.interior_mask
    f.n[interior] *= 1.5
    cfg = PenaltyConfig(max_iters=1, step_init=0.05, optimize_fields=("n",))
    residuals = [constraint_residuals(f, g)[2]]
    x = f
    for _ in range(8):
        x, rec = minimize_fixed_K(x, g, 1000.0, cfg)
        residuals.append(constraint_residuals(x, g)[2])
    # n alone at K = 1000: the exact step along the first direction lands n on the unit shell, to rounding.
    assert residuals[1] <= 1e-12 * residuals[0]
    assert np.all(np.diff(residuals[1:]) <= 0.0)


@pytest.mark.parametrize("kinds", [("phi", "n"), ("r", "phi", "n")])
def test_record_residuals_are_constraint_residuals_of_the_leg_end(kinds):
    g, f = small_perturbed()
    x, rec = minimize_fixed_K(f, g, 100.0, PenaltyConfig(max_iters=5, optimize_fields=kinds))
    assert (rec.res_norm, rec.res_orth, rec.res_unit) == constraint_residuals(x, g)


def test_a_frozen_r_leg_forms_densities_once_per_evaluation(monkeypatch):
    # The leg's end reads its residuals from its last evaluation's densities instead of forming them again.
    calls, densities = [], energy._densities
    monkeypatch.setattr(energy, "_densities", lambda *args: calls.append(1) or densities(*args))
    g, f = small_perturbed()
    _, rec = minimize_fixed_K(f, g, 100.0, PenaltyConfig(max_iters=5, optimize_fields=("phi", "n")))
    assert len(calls) == rec.evaluations > 1


def test_minimize_jk_trace_monotone():
    g, f = small_perturbed()
    cfg = PenaltyConfig(max_iters=40, step_init=0.1, optimize_fields=("phi", "n"))
    _, rec = minimize_fixed_K(f, g, 10.0, cfg)
    trace = np.array(rec.jk_trace)
    assert np.all(np.diff(trace) <= 0.0)


def test_minimize_stall_reported_not_raised():
    # A first step below the 1e-14 backtracking floor: no trial is accepted.
    g, f = small_perturbed()
    cfg = PenaltyConfig(step_init=1e-15, max_iters=10)
    _, rec = minimize_fixed_K(f, g, 100.0, cfg)
    assert rec.stalled
    assert not rec.converged
    assert rec.termination == "line_search_underflow"


def test_minimize_flat_start_exact_gradient_zero():
    # Every constraint and curvature term vanishes on the admissible flat
    # sheet, so the exact gradient is zero and descent stops at once.
    g, f = flat_admissible()
    cfg = PenaltyConfig(grad_tol=1e-300, max_iters=10)
    _, rec = minimize_fixed_K(f, g, 100.0, cfg)
    assert rec.converged and not rec.stalled
    assert rec.iterations == 0
    assert rec.grad_norm == 0.0
    assert rec.termination == "converged"


def test_minimize_max_iters_termination():
    g, f = small_perturbed()
    cfg = PenaltyConfig(max_iters=1, optimize_fields=("phi", "n"))
    _, rec = minimize_fixed_K(f, g, 10.0, cfg)
    assert rec.iterations == 1
    assert not rec.converged and not rec.stalled
    assert rec.termination == "max_iters"


def test_minimize_max_iters_zero_takes_no_step():
    g, f = small_perturbed()
    start, rec = minimize_fixed_K(f, g, 10.0, PenaltyConfig(max_iters=0, optimize_fields=("phi", "n")))
    assert rec.iterations == 0
    assert rec.termination == "max_iters"
    assert rec.evaluations == 1


def test_minimize_evaluates_each_configuration_once(monkeypatch):
    # Every configuration, start and trials alike, gets one geometry cache and,
    # unless its geometry is degenerate, one backward_JK, which returns J_K
    # with the gradient: no assemble_JK.  A phi/n leg builds the geometry once
    # and hands that one cache to every trial; with r optimised each
    # configuration gets its own build_geometry.
    calls = {}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except GeometryError:
                calls["raised"] += 1
                raise

        monkeypatch.setattr(module, name, wrapper)

    for module in (energy, optimizer):
        counting(module, "build_geometry")
    counting(energy, "assemble_JK")
    counting(optimizer, "backward_JK")
    assert not hasattr(optimizer, "assemble_JK")
    g, f = small_perturbed()
    for fields in (("phi", "n"), ("r", "phi", "n")):
        calls.update(build_geometry=0, assemble_JK=0, backward_JK=0, raised=0)
        _, rec = minimize_fixed_K(f, g, 30.0, PenaltyConfig(max_iters=8, optimize_fields=fields))
        assert rec.termination == "max_iters" and rec.iterations == 8
        assert calls["backward_JK"] == rec.evaluations - calls["raised"]
        if "r" in fields:
            assert calls["build_geometry"] == rec.evaluations > 8
        else:
            assert calls["build_geometry"] == 1 and calls["raised"] == 0 and rec.evaluations > 8
        assert calls["assemble_JK"] == 0



def _steepest(f, g, kinds, K):
    """-grad J_K over the interior blocks of kinds, packed: the direction of a leg's first step."""
    gr = gradient_JK(f, g, K, kinds=kinds)
    return -np.concatenate([b.ravel() for b in optimizer._interior((gr.r, gr.phi, gr.n), g, kinds)])


def _spy_exact_step(monkeypatch, scale=1.0):
    """Patch _exact_step to return scale times its step; the list it returns collects (c, step) per search."""
    exact_step, seen = optimizer._exact_step, []

    def spy(c):
        seen.append((c, exact_step(c)))
        return scale * seen[-1][1]

    monkeypatch.setattr(optimizer, "_exact_step", spy)
    return seen


def test_a_clamped_exact_step_is_evaluated_and_taken(monkeypatch):
    # phi scaled by 1.1 and eps = 1.1: the first exact step, alpha* = 0.0375, takes |phi|^2 down to 1.075 and
    # clamps.  The clamp leaves the quartic, so the trial is evaluated and judged on totals; it lowers J_K and is taken.
    g, f = small_perturbed()
    f.phi, f.phi_bc = 1.1 * f.phi, 1.1 * f.phi_bc
    cfg = PenaltyConfig(max_iters=1, step_init=0.1, optimize_fields=("phi", "n"))
    _, free = minimize_fixed_K(f, g, 30.0, cfg)
    assert (free.evaluations, free.backtracked, free.resets) == (2, 0, 0)
    f.eps = 1.1
    seen = _spy_exact_step(monkeypatch)
    x, rec = minimize_fixed_K(f, g, 30.0, cfg)
    assert (rec.iterations, rec.evaluations, rec.backtracked, rec.resets) == (1, 2, 0, 1)
    want = optimizer._add_scaled(f, _steepest(f, g, cfg.optimize_fields, 30.0), seen[0][1], g, cfg.optimize_fields)
    assert optimizer._clamp_phi(want)
    assert x.phi.tobytes() == want.phi.tobytes() and x.n.tobytes() == want.n.tobytes()


def test_exact_step_is_the_least_positive_stationary_point():
    # Delta' = (a - 1)(a - 2)(a - 3), three real roots; Delta = -a + a^2 / 2 and -a + a^4 / 4, one each.
    for c in ([-6.0, 5.5, -2.0, 0.25], [-1.0, 0.5, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.25]):
        assert optimizer._exact_step(c) == pytest.approx(1.0, rel=1e-12)
    # No step: Delta' < 0 for every a > 0 (the last overflows the cubic's discriminant to nan), no descent, a nan.
    for c in ([-1.0, 0.0, 0.0, 0.0], [-1e-300, -5e-198, -1e-90 / 3, 0.0], [1.0, 0.5, 0.0, 0.0], [np.nan, 1.0, 1.0, 1.0]):
        assert optimizer._exact_step(c) is None


def test_a_refused_exact_step_backtracks_through_overflowing_trials(monkeypatch):
    # No exact step and a first step of 1e100, whose trials' integrands overflow: each such trial fails Armijo on
    # the quartic and is halved unevaluated, so only the searches' accepted trials are evaluated.  With r optimised
    # the same trials are evaluated, rejected and halved.
    monkeypatch.setattr(optimizer, "_exact_step", lambda c: None)
    g, f = small_perturbed()
    with np.errstate(all="ignore"):
        _, rec = minimize_fixed_K(f, g, 10.0, PenaltyConfig(step_init=1e100, optimize_fields=("phi", "n")))
        _, r_leg = minimize_fixed_K(f, g, 10.0, PenaltyConfig(step_init=1e100, max_iters=1))
    assert rec.converged and rec.iterations > 0 and rec.backtracked >= 1
    assert rec.evaluations == rec.iterations + 1
    assert (r_leg.iterations, r_leg.backtracked) == (1, 1) and r_leg.evaluations > 300


def test_a_refused_exact_step_halves_from_itself(monkeypatch):
    # The exact step's evaluation reads J_K one ulp above the start's, a rounded rise, and is refused: the next
    # trial is alpha* / 2, not 1 or step_init.
    g, f = small_perturbed()
    kinds, calls, backward = ("phi", "n"), [], optimizer.backward_JK

    def spy(x, *args):
        cur, grads = backward(x, *args)
        calls.append((x, cur.total_JK))
        if len(calls) == 2:
            cur.total_JK = np.nextafter(calls[0][1], np.inf)
        return cur, grads

    seen = _spy_exact_step(monkeypatch)
    monkeypatch.setattr(optimizer, "backward_JK", spy)
    _, rec = minimize_fixed_K(f, g, 30.0, PenaltyConfig(max_iters=1, optimize_fields=kinds))
    assert (rec.iterations, rec.evaluations, rec.backtracked) == (1, 3, 1)
    d, alpha = _steepest(f, g, kinds, 30.0), seen[0][1]
    for (x, _), step in zip(calls[1:], (alpha, alpha / 2)):
        want = optimizer._add_scaled(calls[0][0], d, step, g, kinds)
        assert x.phi.tobytes() == want.phi.tobytes() and x.n.tobytes() == want.n.tobytes()


def test_a_trial_that_fails_armijo_on_the_quartic_is_not_evaluated(monkeypatch):
    # The search opens at 100 alpha*, far up the quartic: every halving down to the first step that passes Armijo on
    # Delta is free, and the leg's one step costs two backward_JK calls, the start's included.
    g, f = small_perturbed()
    kinds, calls, backward = ("phi", "n"), [], optimizer.backward_JK
    seen = _spy_exact_step(monkeypatch, scale=100.0)
    monkeypatch.setattr(optimizer, "backward_JK", lambda x, *args: calls.append(x) or backward(x, *args))
    _, rec = minimize_fixed_K(f, g, 30.0, PenaltyConfig(max_iters=1, optimize_fields=kinds))
    (c1, c2, c3, c4), alpha = seen[0][0], 100.0 * seen[0][1]
    halvings = 0
    while not c1 + alpha * (c2 + alpha * (c3 + alpha * c4)) <= optimizer.ARMIJO_C * c1:
        alpha, halvings = alpha * optimizer.BACKTRACK, halvings + 1
    assert halvings > 0
    assert len(calls) == rec.evaluations == 2 and (rec.iterations, rec.backtracked) == (1, 1)
    want = optimizer._add_scaled(calls[0], _steepest(f, g, kinds, 30.0), alpha, g, kinds)
    assert calls[1].phi.tobytes() == want.phi.tobytes() and calls[1].n.tobytes() == want.n.tobytes()


def test_an_underflowing_search_counts_as_backtracked():
    # With r optimised J_K is unbounded below and the leg halves until a search underflows.  That last search took
    # no step, yet counts as backtracked: the same leg stopped one search earlier counts one fewer.
    g, f = small_perturbed()
    cfg = PenaltyConfig(step_init=0.1, max_iters=200, optimize_fields=("r", "phi", "n"))
    _, rec = minimize_fixed_K(f, g, 10.0, cfg)
    assert rec.termination == "line_search_underflow" and rec.backtracked > 0
    _, cut = minimize_fixed_K(f, g, 10.0, dataclasses.replace(cfg, max_iters=rec.iterations))
    assert cut.termination == "max_iters" and cut.iterations == rec.iterations
    assert cut.backtracked == rec.backtracked - 1


def test_all_fields_leg_accepts_only_strict_decreases():
    # With r optimised this start's J_K is unbounded below.  Near -3e32, ARMIJO_C alpha grad.d fell below the
    # rounding of J_K, and 43 of 200 accepted steps left J_K bitwise unchanged until the leg ran to max_iters.
    g, f = small_perturbed()
    cfg = PenaltyConfig(step_init=0.1, grad_tol=1e-6, max_iters=200, optimize_fields=("r", "phi", "n"))
    _, rec = minimize_fixed_K(f, g, 10.0, cfg)
    assert rec.termination == "line_search_underflow" and rec.iterations < 200
    assert len(rec.jk_trace) == rec.iterations + 1
    assert np.all(np.diff(rec.jk_trace) < 0)


def test_ascent_direction_falls_back_to_steepest_descent(tmp_path, monkeypatch):
    # Positive-curvature pairs keep H positive definite, so only rounding makes the L-BFGS direction an ascent
    # one: force it once, on the first step.
    lbfgs = optimizer._lbfgs_direction

    def ascent_once(grad, memory):
        monkeypatch.setattr(optimizer, "_lbfgs_direction", lbfgs)
        return -lbfgs(grad, memory)

    monkeypatch.setattr(optimizer, "_lbfgs_direction", ascent_once)
    g, f = small_perturbed()
    _, rec = minimize_fixed_K(f, g, 10.0, PenaltyConfig(max_iters=800, optimize_fields=("phi", "n")))
    assert rec.fallbacks == 1 and rec.termination == "converged"
    assert np.all(np.diff(rec.jk_trace) < 0)
    monkeypatch.setattr(optimizer, "_lbfgs_direction", ascent_once)
    out = tmp_path / "out"
    assert cli.run(Path(cli.__file__).parents[2] / "demos" / "scenarios" / "minimize_perturbed.scn", out) == 0
    descents = [line for line in (out / "minimize_summary.txt").read_text().splitlines() if line.startswith("descent ")]
    assert [line.endswith(", fallbacks 1") for line in descents] == [True, False, False, False]


def test_minimize_preserves_phi_floor():
    g, f = flat_admissible()
    f.eps = 0.25
    interior = g.interior_mask
    f.phi[interior] = 0.1 + 0.0j
    cfg = PenaltyConfig(max_iters=3, step_init=0.05)
    out, rec = minimize_fixed_K(f, g, 10.0, cfg)
    assert np.all(np.abs(out.phi[interior]) ** 2 >= 0.25 * (1 - 1e-12))
    # Every accepted step is clamped, so every one clears the L-BFGS memory.
    assert rec.iterations == rec.resets == 3
    assert rec.fallbacks == 0


def test_continuation_slopes_near_minus_one():
    g, f = small_perturbed()
    cfg = PenaltyConfig(
        k_schedule=(10.0, 100.0, 1000.0),
        step_init=0.1,
        max_iters=400,
        grad_tol=1e-6,
        optimize_fields=("phi", "n"),
    )
    report = penalty_continuation(f, g, cfg)
    assert not report.stalled
    for name in ("norm", "orth", "unit"):
        slope = report.slopes[name]
        assert slope is not None
        assert -1.3 <= slope <= -0.7, (name, slope)


def test_continuation_warm_start_invariant():
    g, f = small_perturbed()
    cfg = PenaltyConfig(
        k_schedule=(10.0, 100.0),
        step_init=0.1,
        max_iters=60,
        optimize_fields=("phi", "n"),
    )
    report = penalty_continuation(f, g, cfg)
    assert report.records[1].start_total_J == report.records[0].total_J


def test_continuation_admissible_start_skips_slopes():
    g, f = flat_admissible()
    cfg = PenaltyConfig(k_schedule=(10.0, 100.0), max_iters=20)
    report = penalty_continuation(f, g, cfg)
    for rec in report.records:
        assert rec.res_norm <= 1e-12
        assert rec.res_orth <= 1e-12
        assert rec.res_unit <= 1e-12
    assert all(v is None for v in report.slopes.values())
    assert "slopes: norm=skipped" in report.summary_line()


def test_continuation_csv_shape():
    g, f = small_perturbed()
    cfg = PenaltyConfig(k_schedule=(10.0, 100.0), max_iters=20, optimize_fields=("phi", "n"))
    report = penalty_continuation(f, g, cfg)
    header = report.csv_header().split(",")
    assert header[-1] == "termination"
    for row, rec in zip(report.csv_rows(), report.records):
        assert len(row.split(",")) == len(header)
        assert row.split(",")[-1] == rec.termination


def test_theorem_range_notice():
    assert theorem_range_notice(1, 2) is not None
    assert theorem_range_notice(5, 6) is None
    assert theorem_range_notice(9, 12) is not None
    g, f = small_perturbed()
    cfg = PenaltyConfig(k_schedule=(10.0,), max_iters=5, optimize_fields=("n",))
    report = penalty_continuation(f, g, cfg)
    assert report.theorem_range_notice is not None


def test_coercivity_flat():
    g, f = flat_admissible()
    rep = coercivity_check(f, g, c0=0.5, c1=0.1)
    assert abs(rep.margin_spatial_eig - 0.5) < 1e-12
    assert rep.spatial_eig_holds
    # both sides of (b) and (c) vanish identically on the flat sheet
    assert abs(rep.margin_normal_grad) < 1e-12
    assert abs(rep.margin_second_deriv) < 1e-12
    assert rep.normal_grad_holds and rep.second_deriv_holds


def test_coercivity_cylinder_hypothesis_two():
    rho = 1.5
    g = build_grid([(0, 1), (0, 2 * np.pi * rho)], [9, 65])
    f = presets.cylinder(g, radius=rho)
    c1 = 0.25
    rep = coercivity_check(f, g, c0=0.5, c1=c1)
    # lhs = |phi|^2 / rho^2 and dn.dn = 1/rho^2, so the margin is (1-c1)/rho^2
    want = (1.0 - c1) / rho**2
    assert abs(rep.margin_normal_grad - want) < 5e-3
    assert rep.normal_grad_holds


def test_coercivity_violation_reported_not_raised():
    g, f = flat_admissible()
    rep = coercivity_check(f, g, c0=2.0, c1=0.1)
    assert rep.margin_spatial_eig < 0.0
    assert not rep.spatial_eig_holds


def test_fit_loglog_slope_power_law():
    ks = [10.0, 100.0, 1000.0]
    rs = [0.5 / k for k in ks]
    assert abs(fit_loglog_slope(ks, rs) + 1.0) < 1e-12


@pytest.mark.parametrize(
    "params, residuals",
    [
        ([10.0], [0.1]),  # one point
        ([10.0, 100.0], [0.1]),  # unequal lengths
        ([10.0, 100.0], [0.1, 0.0]),
        ([10.0, 100.0], [0.1, -0.01]),
        ([10.0, 100.0], [0.1, np.nan]),
        ([10.0, np.inf], [0.1, 0.01]),
        ([0.0, 100.0], [0.1, 0.01]),
        ([10.0, 10.0, 10.0], [0.1, 0.01, 0.001]),  # params all equal
    ],
)
def test_fit_loglog_slope_refuses_what_it_cannot_fit(params, residuals, capfd):
    # Each gave nan silently, or LinAlgError with a LAPACK line on stderr.
    with pytest.raises(ValueError, match=r"^params and residuals must be two or more pairs of finite numbers > 0"):
        fit_loglog_slope(params, residuals)
    assert capfd.readouterr().err == ""


SUBSETS = [kinds for size in (1, 2, 3) for kinds in itertools.combinations(("r", "phi", "n"), size)]


@pytest.mark.parametrize("kinds", SUBSETS, ids=["-".join(kinds) for kinds in SUBSETS])
def test_packing_round_trips_every_subset(kinds):
    # The descent's vector over a subset of the fields holds that subset's blocks of pack_interior's vector, in
    # r, phi, n order whatever the order of kinds.  Stepping by it a copy whose blocks of the subset are zero
    # restores them, and every field outside the subset keeps its bytes.
    g, f = small_perturbed()
    f.phi = f.phi * np.exp(0.3j * g.coordinates[..., 1])
    interior = g.interior_mask
    sizes = {"r": f.r[interior].size, "phi": 2 * f.phi[interior].size, "n": f.n[interior].size}
    full = pack_interior(f, g)
    starts = {"r": 0, "phi": sizes["r"], "n": sizes["r"] + sizes["phi"]}
    want = np.concatenate([full[starts[k] : starts[k] + sizes[k]] for k in ("r", "phi", "n") if k in kinds])
    for order in itertools.permutations(kinds):
        packed = np.concatenate([block.ravel() for block in optimizer._interior((f.r, f.phi, f.n), g, order)])
        assert packed.size == sum(sizes[k] for k in kinds)
        assert packed.tobytes() == want.tobytes()
        zeroed = f.copy()
        for k in kinds:
            getattr(zeroed, k)[interior] = 0.0
        stepped = optimizer._add_scaled(zeroed, packed, 1.0, g, order)
        for name in ("r", "phi", "n", "r_bc", "phi_bc"):
            source = f if name in kinds else zeroed
            assert getattr(stepped, name).tobytes() == getattr(source, name).tobytes(), name


@pytest.mark.parametrize(
    "extents, counts, n_ambient, sizes",
    [
        ([(0, 2), (0, 1)], (3, 7), None, {("phi", "n"): 25, ("r", "phi", "n"): 40}),
        ([(0, 2)] + [(0, 1)] * 5, (3, 4, 4, 4, 4, 4), 6, {("phi", "n"): 288, ("r", "phi", "n"): 512}),
    ],
    ids=["3x7", "3x4^5"],
)
def test_descent_vector_holds_only_the_optimised_fields(monkeypatch, extents, counts, n_ambient, sizes):
    # Criterion 3's grid and theorem_range's: with r frozen the vector has no r block.
    g = build_grid(extents, counts)
    f = presets.perturbed_flat(g, n_ambient=n_ambient, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1,
                               mass_normalized=True)
    seen = []

    def spy(grad, memory):
        seen.append(grad.size)
        return direction(grad, memory)

    direction = optimizer._lbfgs_direction
    monkeypatch.setattr(optimizer, "_lbfgs_direction", spy)
    for kinds, size in sizes.items():
        seen.clear()
        minimize_fixed_K(f, g, 100.0, PenaltyConfig(max_iters=1, optimize_fields=kinds))
        assert seen and set(seen) == {size}


def test_field_order_in_the_config_moves_no_bit():
    g, f = small_perturbed()
    reports = [
        penalty_continuation(f, g, PenaltyConfig(k_schedule=(10.0, 100.0), max_iters=200, optimize_fields=kinds))
        for kinds in (("phi", "n"), ("n", "phi"))
    ]
    assert [dataclasses.asdict(rec) for rec in reports[0].records] == [
        dataclasses.asdict(rec) for rec in reports[1].records
    ]
    assert reports[0].final_fields.phi.tobytes() == reports[1].final_fields.phi.tobytes()


def test_fieldset_holds_phi_as_complex():
    # A real phi is cast, so the descent can step its imaginary parts: the run equals that of phi + 0j.
    g, f = small_perturbed()
    real = FieldSet(f.r, f.phi.real, f.n, f.r_bc, f.phi_bc.real, f.eps)
    cast = FieldSet(f.r, f.phi.real + 0j, f.n, f.r_bc, f.phi_bc.real + 0j, f.eps)
    assert real.phi.dtype == real.phi_bc.dtype == np.complex128
    assert FieldSet(f.r, f.phi, f.n, f.r_bc, f.phi_bc).phi is f.phi
    assert assemble_JK(real, g, 10.0).total_JK == assemble_JK(cast, g, 10.0).total_JK
    assert gradient_JK(real, g, 10.0).phi.tobytes() == gradient_JK(cast, g, 10.0).phi.tobytes()
    cfg = PenaltyConfig(max_iters=20, optimize_fields=("phi", "n"))
    (x, rec), (y, want) = minimize_fixed_K(real, g, 10.0, cfg), minimize_fixed_K(cast, g, 10.0, cfg)
    assert dataclasses.asdict(rec) == dataclasses.asdict(want)
    assert x.phi.tobytes() == y.phi.tobytes()
