"""The frozen-r descent against a descent that builds every trial's geometry.

A geometry cache is a function of r alone: J_K reads phi, n and dphi from the
fields.  So with r left out of optimize_fields, a continuation builds the
geometry once, before the first leg, and hands that one cache to every
evaluation, the first leg's start included.  The oracle is the same descent
with each evaluation's cache replaced by a full build_geometry of the
configuration; the two must agree bit for bit, and r must never move.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from worldsheet import (
    GeometryError,
    PenaltyConfig,
    assemble_JK,
    backward_JK,
    build_geometry,
    build_grid,
    penalty_continuation,
    presets,
)
from worldsheet import optimizer

from test_curvature_form import _noisy, _scenario_start


def _perturbed_flat(counts):
    g = build_grid([(0, 2), (0, 1)], counts)
    f = presets.perturbed_flat(
        g, bump_amp=0.12, shear_amp=0.06, n_scale=1.25, n_tilt=0.1, mass_normalized=True
    )
    return g, f


def _continuation(g, f):
    cfg = PenaltyConfig(k_schedule=(30.0, 100.0), max_iters=200, optimize_fields=("phi", "n"))
    return penalty_continuation(f, g, cfg)


@pytest.mark.parametrize("counts", [(3, 7), (9, 17)])
def test_frozen_r_descent_equals_per_trial_build(monkeypatch, counts):
    g, f = _perturbed_flat(counts)
    start_r = f.r.tobytes()
    trial_rs, caches = [], []

    def spy(x, grid, K, geom, kinds):
        trial_rs.append(x.r.tobytes())
        caches.append(geom)
        return backward_JK(x, grid, K, geom, kinds)

    first_builds = []

    def counted_build(x, grid):
        first_builds.append(1)
        return build_geometry(x, grid)

    monkeypatch.setattr(optimizer, "backward_JK", spy)
    monkeypatch.setattr(optimizer, "build_geometry", counted_build)
    fast = _continuation(g, f.copy())
    assert len(first_builds) == 1
    assert all(geom is caches[0] for geom in caches)
    builds = []

    def per_trial_build(x, grid, K, geom, kinds):
        builds.append(1)
        return backward_JK(x, grid, K, build_geometry(x, grid), kinds)

    monkeypatch.setattr(optimizer, "backward_JK", per_trial_build)
    oracle = _continuation(g, f.copy())

    assert len(builds) == len(trial_rs) == sum(rec.evaluations for rec in fast.records) > 0
    assert [dataclasses.asdict(rec) for rec in fast.records] == [dataclasses.asdict(rec) for rec in oracle.records]
    assert all(rec.converged for rec in fast.records)
    assert fast.slopes == oracle.slopes
    for name in ("r", "phi", "n"):
        assert getattr(fast.final_fields, name).tobytes() == getattr(oracle.final_fields, name).tobytes()
    assert set(trial_rs) == {start_r}
    assert fast.final_fields.r.tobytes() == start_r


def _moved(f):
    """f with phi scaled and re-phased and n shifted on every node; r keeps its bytes."""
    rng = np.random.default_rng(23)
    moved = f.copy()
    shape = moved.phi.shape
    moved.phi *= (1.0 + 0.1 * rng.standard_normal(shape)) * np.exp(0.5j * rng.standard_normal(shape))
    moved.n += 0.1 * rng.standard_normal(moved.n.shape)
    return moved


@pytest.mark.parametrize("start", [lambda: _scenario_start("criterion_3"), lambda: _noisy("theorem_range_m5")],
                         ids=["criterion_3", "theorem_range_m5"])
def test_a_cache_of_r_serves_every_phi_and_n(start):
    # The start's cache, handed fields with other phi and n, gives what their own build gives, bit for bit:
    # J_K and every gradient block, whichever blocks are asked for.  A non-finite phi is refused at its node.
    g, f = start()
    base, moved = build_geometry(f, g), _moved(f)
    own = build_geometry(moved, g)
    for K in (10.0, 1e5):
        assert assemble_JK(moved, g, K, geom=base) == assemble_JK(moved, g, K, geom=own)
        for size in range(4):
            for kinds in itertools.combinations(("r", "phi", "n"), size):
                got, want = backward_JK(moved, g, K, base, kinds), backward_JK(moved, g, K, own, kinds)
                assert got[0] == want[0] == assemble_JK(moved, g, K, geom=own)
                assert [a.tobytes() for a in got[1]] == [a.tobytes() for a in want[1]], kinds
    node = (1,) * g.ndim
    moved.phi[node] = np.nan
    for evaluate in (lambda: assemble_JK(moved, g, 10.0, geom=base), lambda: backward_JK(moved, g, 10.0, base)):
        with pytest.raises(GeometryError, match=rf"^phi is not finite at node \({', '.join(['1'] * g.ndim)}\)$"):
            evaluate()
