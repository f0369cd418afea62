"""The four workloads: seeded inputs, one op each, and the checks of each op.

A workload is built from its seed alone (``__init__`` plus ``setup``), runs
``op(i)`` for i = 0, 1, ... and checks every result with ``check``, which
returns the counts the op's outputs report (iterations, edges, paths).  Runs stop
only after whole rounds of ``round_ops`` ops, so a run's median never depends
on how many ops fit in it.  Every call into worldsheet goes through a module
attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from worldsheet import causal, cli, energy, geometry, grid, presets

import checks


class Continuation:
    """Penalty continuation through the front door: one ``cli.run`` per op.

    The criterion-3 problem (perturbed_flat on a 3x7 grid, phi and n
    optimised) with its preset parameters jittered by the seed, and the K
    schedule 30, 100 with the slope check on.
    """

    name = "continuation"
    reference = "small"  # timing.Reference kernel that tracked its op times best
    round_ops = 1
    warmup_ops = 0
    # A 5 s op outlasts changes in machine speed: sample the reference
    # inside it, at J_K evaluations (see run.InOpReference).
    reference_hooks = ((energy, "assemble_JK"),)
    GRAD_TOL = 1e-6
    MAX_ITERS = 800
    BAND = (-1.3, -0.7)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 3])

        def jitter(value, rel):
            return value * (1.0 + rel * rng.uniform(-1.0, 1.0))

        params = {
            "bump_amp": jitter(0.12, 0.02),
            "shear_amp": jitter(0.06, 0.02),
            "n_scale": jitter(1.25, 0.01),
            "n_tilt": jitter(0.1, 0.02),
        }
        fields = "".join(f"{k} = {v!r}\n" for k, v in params.items())
        self.scenario = workdir / "continuation.scn"
        self.scenario.write_text(
            "[scenario]\nschema = 1\nkind = minimize\n"
            f"seed = {seed}\n\n"
            "[grid]\nextents = 0:2, 0:1\ncounts = 3, 7\n\n"
            "[fields]\nembedding = perturbed_flat\n"
            f"{fields}mass_normalized = true\n\n"
            "[constants]\nc = 1.0\nmass = 1.0\nepsilon = 1e-4\n\n"
            "[optimizer]\nK_schedule = 30, 100\nstep_init = 0.1\n"
            f"grad_tol = {self.GRAD_TOL!r}\nmax_iters = {self.MAX_ITERS}\n"
            "optimize_fields = phi, n\ncheck_slope = true\n"
            f"slope_band = {self.BAND[0]}, {self.BAND[1]}\n"
        )
        self.out = workdir / "continuation_report"

    def setup(self) -> None:
        pass

    def op(self, i: int):
        return cli.run(self.scenario, self.out)

    def check(self, i: int, code) -> dict:
        rows = checks.parse_report_csv((self.out / "minimize_report.csv").read_text())
        checks.check_minimize(code, rows, self.GRAD_TOL, self.MAX_ITERS, self.BAND)
        return {"optimizer.iterations": sum(int(r["iterations"]) for r in rows)}


class SheetEval:
    """Geometry, structure-identity residuals and J_K on a 17^3 sphere product."""

    name = "sheet_eval"
    reference = "mixed"  # timing.Reference kernel doing the same kind of work
    reference_hooks = ()
    round_ops = 1
    warmup_ops = 1
    K = 100.0
    COUNTS = (17, 17, 17)
    EXTENTS = ((0.0, 1.0), (0.6, math.pi - 0.6), (0.2, 1.2))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.grid = grid.build_grid(self.EXTENTS, self.COUNTS)
        self.fields = self._perturbed(np.random.default_rng([seed, 5]))
        self.expected = None

    def _perturbed(self, rng: np.random.Generator):
        """The unit sphere product plus a few smooth seeded modes in r, n and phi.

        The modes in r are static and the azimuth stays inside (0, pi/2), so
        the first normal-frame candidates keep clear of the tangent span; see
        the README on ``normal_frame``.
        """
        f = presets.sphere_product(self.grid, radius=1.0, n_ambient=3)
        u = self.grid.coordinates
        s = [(u[..., a] - lo) / (hi - lo) for a, (lo, hi) in enumerate(self.EXTENTS)]
        for q in (1, 2):
            for comp in range(1, 4):
                a, b, c = rng.uniform(-1.0, 1.0, 3)
                wave = np.sin(q * np.pi * s[1] + c) * np.cos(q * np.pi * s[2] + b)
                f.r[..., comp] += 0.01 * a * wave
                f.n[..., comp] += 0.03 * a * wave * (1.0 + 0.3 * s[0])
        a, b = rng.uniform(-1.0, 1.0, 2)
        f.phi *= (1.0 + 0.05 * a * np.sin(np.pi * s[1]) * np.cos(np.pi * s[2])) * np.exp(0.1j * b * s[0])
        f.r_bc[...] = f.r
        f.phi_bc[...] = f.phi
        return f

    def setup(self) -> None:
        pass

    def op(self, i: int):
        f = self.fields
        geom = geometry.build_geometry(f, self.grid, with_riemann=True, with_frame=True)
        g_res = geometry.gauss_residual(geom.riemann, geom.b, geom.b_up)
        w_res, _ = geometry.weingarten_residual(f, self.grid, geom.b_up, geom.metric, geom.frame)
        breakdown = energy.assemble_JK(f, self.grid, self.K, geom=geom)
        return g_res, w_res, breakdown

    def _expected(self):
        """Outputs on the Lorentz-moved sheet, and the unperturbed sphere's J1 check."""
        rng = np.random.default_rng([self.seed, 7])
        lam = checks.lorentz_transform(rng, 3)
        shift = rng.uniform(-1.0, 1.0, 4)
        moved = self.fields.copy()
        moved.r[...] = self.fields.r @ lam.T + shift
        moved.r_bc[...] = self.fields.r_bc @ lam.T + shift
        moved.n[...] = self.fields.n @ lam.T
        # No frame here: J_K and the Gauss residual do not use it, and
        # normal_frame can reject a boosted sheet (see the README).
        geom = geometry.build_geometry(moved, self.grid, with_riemann=True)
        g_moved = geometry.gauss_residual(geom.riemann, geom.b, geom.b_up)
        out = g_moved, energy.assemble_JK(moved, self.grid, self.K, geom=geom)
        # Hold one geometry at a time, as an op does, so no check sets the peak RSS.
        del geom, moved

        plain = presets.sphere_product(self.grid, radius=1.0, n_ambient=3)
        j1 = energy.assemble_JK(plain, self.grid, self.K).j1_curvature
        exact = checks.sphere_j1(1.0, 1.0, self.EXTENTS[1], self.EXTENTS[2])
        checks.check_second_order(j1, exact, max(self.grid.spacings))
        return out

    def check(self, i: int, result) -> dict:
        if self.expected is None:
            self.expected = self._expected()
        g_res, w_res, breakdown = result
        if not (math.isfinite(g_res) and math.isfinite(w_res)):
            raise checks.CheckFailure(f"residuals not finite: {g_res!r}, {w_res!r}")
        g_moved, moved = self.expected
        checks.check_invariant(breakdown, moved)
        # The Gauss residual compares parameter-index tensors, so it is
        # Lorentz invariant too; 1e-8 of it covers the rounding of the stencils.
        if abs(g_res - g_moved) > 1e-8 * g_res:
            raise checks.CheckFailure(f"Gauss residual changed under a Lorentz transformation: {g_res!r} -> {g_moved!r}")
        return {}


class Sprinkling:
    """A fresh uniform sprinkling of 1,500 events in a (2+1)-D unit box per op."""

    name = "sprinkling"
    reference = "mixed"  # timing.Reference kernel doing the same kind of work
    reference_hooks = ()
    round_ops = 1
    warmup_ops = 1
    N = 1500
    RADIUS = 0.215  # mean out-degree about 7
    SLAB = 0.15

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        pass

    def events(self, i: int) -> np.ndarray:
        return np.random.default_rng([self.seed, 11, i]).uniform(0.0, 1.0, (self.N, 3))

    def op(self, i: int):
        ev = causal.EventSet(self.events(i))
        g = causal.build_graph(ev, self.RADIUS)
        t = ev.events[:, 0]
        early = np.flatnonzero(t < 0.3)
        seeds = [int(s) for s in np.random.default_rng([self.seed, 13, i]).choice(early, 3, replace=False)]
        slab = [int(s) for s in np.flatnonzero(t < self.SLAB)]
        return {
            "graph": g,
            "seeds": seeds,
            "slab": slab,
            "J+": causal.causal_future(seeds, g),
            "I+": causal.chronological_future(seeds, g),
            "D+": causal.future_dependence(slab, g),
        }

    def check(self, i: int, res) -> dict:
        g = res["graph"]
        ev = g.events.events
        kids, tl_kids = checks.own_edges(ev, g.events.c, self.RADIUS)
        sample = np.random.default_rng([self.seed, 17, i]).choice(self.N, 100, replace=False)
        checks.check_children(g.children, kids, sample)
        checks.check_children(g.timelike_children, tl_kids, sample)
        seeds = res["seeds"]
        checks.check_same("J+", res["J+"], checks.bfs(seeds, kids, include_seeds=True))
        checks.check_same("I+", res["I+"], checks.bfs(seeds, tl_kids, include_seeds=False))
        checks.check_in_cone(res["J+"], seeds, ev, g.events.c)
        checks.check_same("D+", res["D+"], checks.dependence(res["slab"], ev, checks.reverse(kids)))
        return {"causal.build_graph.edges": sum(k.size for k in g.children)}

    def graph_input(self):
        return causal.EventSet(self.events(0)), self.RADIUS


class LatticeQueries:
    """Query bundles on one flat 30x50 lattice graph built in set-up."""

    name = "lattice_queries"
    reference = "small"  # timing.Reference kernel that tracked its op times best
    reference_hooks = ()
    NT, NX = 30, 50
    RADIUS = 1.5
    BUNDLES = 4
    round_ops = BUNDLES
    warmup_ops = 1
    SAMPLES = 100

    def __init__(self, seed: int, workdir: Path):
        self.events = causal.flat_grid_events((0.0, self.NT - 1.0), (0.0, self.NX - 1.0), self.NT, self.NX)
        rng = np.random.default_rng([seed, 19])
        self.bundles = []
        for _ in range(self.BUNDLES):
            # Rows are fixed or nearly so and columns stay off the edges, so
            # every bundle, whatever the seed, does about the same work.
            lower = [int(4 * self.NX + c) for c in rng.integers(12, self.NX - 12, 3)]
            upper = [int(25 * self.NX + c) for c in rng.integers(12, self.NX - 12, 3)]
            row = int(rng.integers(13, 17))
            self.bundles.append({"lower": lower, "upper": upper, "row": row, "seed": int(rng.integers(2**31))})
        self.graph = None
        self.setup_counts = {}

    def setup(self) -> None:
        self.graph = causal.build_graph(self.events, self.RADIUS)
        self.setup_counts = {"causal.build_graph.edges": sum(k.size for k in self.graph.children)}

    def graph_input(self):
        return self.events, self.RADIUS

    def op(self, i: int):
        b = self.bundles[i % self.BUNDLES]
        g = self.graph
        row = [b["row"] * self.NX + c for c in range(self.NX)]
        return {
            "I+": [causal.chronological_future([e], g) for e in b["lower"]],
            "J+": [causal.causal_future([e], g) for e in b["lower"]],
            "J-": [causal.causal_past([e], g) for e in b["upper"]],
            "boundary": causal.future_boundary([b["lower"][0]], g),
            "D+": causal.future_dependence(row, g),
            "D-": causal.past_dependence(row, g),
            "cauchy": causal.is_cauchy_surface(row, g),
            "intercept": causal.intercept_check(row, g, samples=self.SAMPLES, seed=b["seed"]),
        }

    def check(self, i: int, res) -> dict:
        b = self.bundles[i % self.BUNDLES]
        nx, nt, r = self.NX, self.NT, b["row"]
        for e, got in zip(b["lower"], res["I+"]):
            checks.check_same(f"I+({e})", got, checks.lattice_column(e, nx, nt, future=True))
        for e, got in zip(b["lower"], res["J+"]):
            checks.check_same(f"J+({e})", got, checks.lattice_cone(e, nx, nt, future=True))
        for e, got in zip(b["upper"], res["J-"]):
            checks.check_same(f"J-({e})", got, checks.lattice_cone(e, nx, nt, future=False))
        e = b["lower"][0]
        checks.check_same(
            f"boundary({e})",
            res["boundary"],
            checks.lattice_cone(e, nx, nt, True) - checks.lattice_column(e, nx, nt, True),
        )
        checks.check_same(f"D+(row {r})", res["D+"], checks.lattice_rows(range(r, nt), nx))
        checks.check_same(f"D-(row {r})", res["D-"], checks.lattice_rows(range(0, r + 1), nx))
        if not res["cauchy"].is_cauchy:
            raise checks.CheckFailure(f"row {r} is not reported as a Cauchy surface: {res['cauchy']}")
        rep = res["intercept"]
        if rep.violations or rep.paths_checked != self.SAMPLES:
            raise checks.CheckFailure(
                f"intercept_check on row {r}: {len(rep.violations)} violations, {rep.paths_checked} paths"
            )
        return {"causal.intercept.paths": rep.paths_checked}


WORKLOADS = {w.name: w for w in (Continuation, SheetEval, Sprinkling, LatticeQueries)}
