"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from pathlib import Path

import numpy as np

from worldsheet import (
    PenaltyConfig,
    assemble_JK,
    build_geometry,
    build_grid,
    cli,
    fit_loglog_slope,
    gauss_residual,
    gradient_JK,
    penalty_continuation,
    weingarten_residual,
)
from worldsheet import presets
from worldsheet.causal import (
    EventSet,
    build_graph,
    chronological_future,
    chronological_past,
    flat_cone_oracle,
    flat_grid_events,
    future_boundary,
    future_dependence,
    intercept_check,
    is_achronal,
    is_cauchy_surface,
    _split,
)
from worldsheet.optimizer import pack_interior

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _geometry_refinement(preset):
    residuals_g, residuals_w, spacings = [], [], []
    for n in (9, 17, 33):
        if preset == "cylinder":
            grid = build_grid([(0, 1), (0, 2 * np.pi)], [n, n])
            fields = presets.cylinder(grid, radius=1.0)
        else:
            grid = build_grid([(0, 1), (1.0, np.pi - 1.0), (0.4, np.pi - 0.4)], [n, n, n])
            fields = presets.sphere_product(grid, radius=1.0)
        geom = build_geometry(fields, grid, with_riemann=True, with_frame=True)
        residuals_g.append(gauss_residual(geom.riemann, geom.b, geom.b_up))
        w, _ = weingarten_residual(fields, grid, geom.b_up, geom.metric, geom.frame)
        residuals_w.append(w)
        spacings.append(grid.spacings[1])
    return spacings, residuals_g, residuals_w


def test_criterion_1_gauss_identity_order():
    t0 = time.perf_counter()
    details = []
    ok = True
    for preset in ("cylinder", "sphere_product"):
        hs, res_g, _ = _geometry_refinement(preset)
        if max(res_g) <= 1e-12:
            # both sides of the identity vanish to rounding on this preset at
            # every spacing, which satisfies the C*h^2 bound trivially
            details.append(f"{preset}: residual at machine zero ({max(res_g):.1e})")
            continue
        slope = fit_loglog_slope(hs, res_g)
        coef = max(r / h**2 for r, h in zip(res_g, hs))
        details.append(f"{preset}: order {slope:.2f}, C {coef:.2f}")
        ok = ok and 1.7 <= slope <= 2.3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report("criterion 1: Gauss identity at second order", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_2_weingarten_identity_order():
    t0 = time.perf_counter()
    details = []
    ok = True
    for preset in ("cylinder", "sphere_product"):
        hs, _, res_w = _geometry_refinement(preset)
        slope = fit_loglog_slope(hs, res_w)
        details.append(f"{preset}: order {slope:.2f}")
        ok = ok and 1.7 <= slope <= 2.3
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report("criterion 2: Weingarten identity at second order", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_3_penalty_decay_slopes():
    t0 = time.perf_counter()
    grid = build_grid([(0, 2), (0, 1)], [3, 7])
    fields = presets.perturbed_flat(
        grid, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True
    )
    cfg = PenaltyConfig(
        k_schedule=(10.0, 100.0, 1000.0, 10000.0),
        step_init=0.1,
        max_iters=800,
        grad_tol=1e-6,
        optimize_fields=("phi", "n"),
    )
    report = penalty_continuation(fields, grid, cfg)
    elapsed = time.perf_counter() - t0
    ok = not report.stalled and elapsed < 300.0
    details = []
    for name, slope in report.slopes.items():
        if slope is None:
            details.append(f"{name}: skipped")
            continue
        details.append(f"{name}: {slope:.3f}")
        ok = ok and -1.3 <= slope <= -0.7
    first, last = report.records[0], report.records[-1]
    for getter in (lambda r: r.res_norm, lambda r: r.res_orth, lambda r: r.res_unit):
        ok = ok and getter(last) <= 10.0 * getter(first) / 1e3
    # Every leg converges, and L-BFGS needs no memory reset or -grad fallback.
    ok = ok and all(r.converged and r.resets == r.fallbacks == 0 for r in report.records)
    details.append("iterations " + "/".join(str(r.iterations) for r in report.records))
    _report("criterion 3: O(1/K) constraint decay", ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_4_gradient_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst = 0.0
    for preset in ("flat", "cylinder", "sphere_product"):
        if preset == "flat":
            grid = build_grid([(0, 1), (0, 1)], [5, 5])
            fields = presets.flat(grid, phi0=presets.normalized_phi0(grid))
        elif preset == "cylinder":
            grid = build_grid([(0, 1), (0, 2 * np.pi)], [5, 7])
            fields = presets.cylinder(grid, radius=1.0)
        else:
            grid = build_grid([(0, 1), (0.8, np.pi - 0.8), (0.4, np.pi - 0.4)], [3, 5, 5])
            fields = presets.sphere_product(grid, radius=1.0)
        interior = grid.interior_mask
        fields.r[interior] += 0.01 * rng.standard_normal(fields.r[interior].shape)
        fields.n[interior] += 0.05 * rng.standard_normal(fields.n[interior].shape)
        fields.phi[interior] += 0.03 * rng.standard_normal(fields.phi[interior].shape)
        K = 50.0
        gvec = pack_interior(gradient_JK(fields, grid, K), grid)
        for _ in range(20):
            d = rng.standard_normal(gvec.shape)
            d /= np.linalg.norm(d)
            eps = 1e-6
            plus, minus = fields.copy(), fields.copy()
            _apply_direction(plus, grid, d, eps)
            _apply_direction(minus, grid, d, -eps)
            fd = (assemble_JK(plus, grid, K).total_JK - assemble_JK(minus, grid, K).total_JK) / (2 * eps)
            rel = abs(fd - float(gvec @ d)) / max(1.0, abs(fd))
            worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 30.0
    _report("criterion 4: directional gradient agreement", ok, f"worst rel {worst:.2e}; {elapsed:.1f}s")


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


def test_criterion_5_achronality_theorem():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    violations = 0
    for _ in range(50):
        nt = int(rng.integers(6, 26))
        nx = int(rng.integers(6, 41))
        if nt * nx > 1000:
            nx = 1000 // nt
        events = flat_grid_events((0.0, nt - 1.0), (0.0, nx - 1.0), nt, nx, c=1.0)
        diameter = float(np.hypot(nt - 1.0, nx - 1.0))
        graph = build_graph(events, radius=1.01 * diameter)
        k = int(rng.integers(1, 8))
        S = list(rng.choice(len(events), size=k, replace=False))
        if not is_achronal(future_boundary(S, graph), graph):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    _report("criterion 5: future boundaries are achronal", ok, f"violations {violations}/50; {elapsed:.1f}s")


def test_criterion_6_cone_soundness_and_completeness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    sound_bad = 0
    min_fraction = 1.0
    for _ in range(10):
        nx = int(rng.integers(25, 45))
        nt = int(rng.integers(20, 30))
        dx = float(rng.uniform(0.5, 2.0))
        rho = float(rng.uniform(1.004, 1.02))
        dt = rho * dx
        events = flat_grid_events((0, (nt - 1) * dt), (0, (nx - 1) * dx), nt, nx, c=1.0)
        radius = 2.0 * float(np.hypot(dt, dx))
        graph = build_graph(events, radius=radius)
        base = 1 * nx + nx // 2
        pts = events.events
        reached = chronological_future([base], graph)
        for q in reached:
            if flat_cone_oracle(pts[base], pts[q], 1.0) != "chronological":
                sound_bad += 1
        chron = [
            j
            for j in range(len(events))
            if flat_cone_oracle(pts[base], pts[j], 1.0) == "chronological"
        ]
        inner = [j for j in chron if 0 < j // nx < nt - 1 and 0 < j % nx < nx - 1]
        fraction = sum(1 for j in inner if j in reached) / len(inner)
        min_fraction = min(min_fraction, fraction)
    elapsed = time.perf_counter() - t0
    ok = sound_bad == 0 and min_fraction >= 0.95 and elapsed < 30.0
    _report(
        "criterion 6: cone soundness and completeness",
        ok,
        f"exceptions {sound_bad}, min completeness {min_fraction:.3f}; {elapsed:.1f}s",
    )


def _brute_future_dependence(S, graph):
    s_set = set(S)
    parents = _split(graph.backward, None)
    out = set()
    for p in range(len(graph)):
        stack = [(p, p in s_set)]
        ok = True
        while stack:
            node, hit = stack.pop()
            if hit:
                continue
            preds = parents[node]
            if preds.size == 0:
                ok = False
                break
            for q in preds:
                stack.append((int(q), int(q) in s_set))
        if ok:
            out.add(p)
    return out


def test_criterion_7_dependence_domain_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2025)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        pts = np.unique(np.round(rng.uniform(0, 3, size=(n, 2)), 3), axis=0)
        events = EventSet(events=pts)
        graph = build_graph(events, radius=float(rng.uniform(0.5, 3.5)))
        k = int(rng.integers(0, len(events) + 1))
        S = list(rng.choice(len(events), size=k, replace=False))
        if future_dependence(S, graph) != _brute_future_dependence(S, graph):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        "criterion 7: dependence domain matches path enumeration",
        ok,
        f"mismatches {mismatches}/500; {elapsed:.1f}s",
    )


def _row_adjacent(nt, nx, ratio=1.25):
    dt, dx = ratio, 1.0
    events = flat_grid_events((0.0, dt * (nt - 1)), (0.0, dx * (nx - 1)), nt, nx, c=1.0)
    radius = 1.1 * float(np.hypot(dt, dx))
    return events, build_graph(events, radius=radius)


def test_criterion_8_cauchy_intercepts():
    t0 = time.perf_counter()
    # exhaustive on a 12-event graph
    events, graph = _row_adjacent(4, 3)
    sigma = [2 * 3 + j for j in range(3)]
    assert is_cauchy_surface(sigma, graph).is_cauchy
    small = intercept_check(sigma, graph)
    # sampled on a 1000-event graph
    events_big, graph_big = _row_adjacent(25, 40)
    sigma_big = [12 * 40 + j for j in range(40)]
    big = intercept_check(sigma_big, graph_big, samples=200, seed=31)
    elapsed = time.perf_counter() - t0
    ok = small.ok and big.ok and big.paths_checked == 200 and elapsed < 60.0
    _report(
        "criterion 8: maximal paths meet the Cauchy surface and both chronological sides",
        ok,
        f"exhaustive {small.paths_checked} paths, sampled {big.paths_checked}; {elapsed:.1f}s",
    )


def test_criterion_9_deterministic_reports(tmp_path):
    t0 = time.perf_counter()
    quick_minimize = (SCENARIOS / "minimize_perturbed.scn").read_text()
    quick_minimize = quick_minimize.replace("K_schedule = 10, 100, 1000, 10000", "K_schedule = 10, 100")
    quick_minimize = quick_minimize.replace("max_iters = 800", "max_iters = 40")
    quick_minimize = quick_minimize.replace("check_slope = true", "check_slope = false")
    scn = tmp_path / "quick_minimize.scn"
    scn.write_text(quick_minimize)

    runs = [
        (SCENARIOS / "geometry_cylinder.scn", "geometry_report.csv"),
        (SCENARIOS / "energy_flat.scn", "energy_report.csv"),
        (SCENARIOS / "causal_grid.scn", "causal_report.txt"),
        (scn, "minimize_report.csv"),
        (scn, "minimize_summary.txt"),
    ]
    ok = True
    for scenario, artifact in runs:
        out1 = tmp_path / f"a_{artifact}"
        out2 = tmp_path / f"b_{artifact}"
        assert cli.run(scenario, out1) in (0, 2)
        assert cli.run(scenario, out2) in (0, 2)
        ok = ok and (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes()
    elapsed = time.perf_counter() - t0
    _report("criterion 9: byte-identical reports at fixed seed", ok, f"{elapsed:.1f}s")
