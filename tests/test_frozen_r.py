"""The frozen-r descent against a descent that builds every trial's geometry.

With r left out of optimize_fields, a continuation builds the geometry once,
before the first leg, and every evaluation, the first leg's start included,
refreshes only n and dphi (refresh_geometry).  The oracle is the
same descent with that refresh replaced by a full build_geometry of the
configuration; the two must agree bit for bit, and r must never move.
"""

import dataclasses

import numpy as np
import pytest

from worldsheet import (
    PenaltyConfig,
    build_geometry,
    build_grid,
    penalty_continuation,
    presets,
    refresh_geometry,
)
from worldsheet import optimizer


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
    trial_rs = []

    def spy(base, x, grid):
        trial_rs.append(x.r.tobytes())
        return refresh_geometry(base, x, grid)

    first_builds = []

    def counted_build(x, grid):
        first_builds.append(1)
        return build_geometry(x, grid)

    monkeypatch.setattr(optimizer, "refresh_geometry", spy)
    monkeypatch.setattr(optimizer, "build_geometry", counted_build)
    fast = _continuation(g, f.copy())
    assert len(first_builds) == 1
    builds = []

    def per_trial_build(base, x, grid):
        builds.append(1)
        return build_geometry(x, grid)

    monkeypatch.setattr(optimizer, "refresh_geometry", per_trial_build)
    oracle = _continuation(g, f.copy())

    assert len(builds) == len(trial_rs) == sum(rec.evaluations for rec in fast.records) > 0
    assert [dataclasses.asdict(rec) for rec in fast.records] == [dataclasses.asdict(rec) for rec in oracle.records]
    assert all(rec.converged for rec in fast.records)
    assert fast.slopes == oracle.slopes
    for name in ("r", "phi", "n"):
        assert getattr(fast.final_fields, name).tobytes() == getattr(oracle.final_fields, name).tobytes()
    assert set(trial_rs) == {start_r}
    assert fast.final_fields.r.tobytes() == start_r


def test_refresh_equals_build_on_new_phi_and_n():
    g, f = _perturbed_flat((5, 9))
    base = build_geometry(f, g, with_riemann=True, with_frame=True)
    moved = f.copy()
    rng = np.random.default_rng(7)
    moved.n += 0.1 * rng.standard_normal(moved.n.shape)
    moved.phi *= np.exp(0.2j * rng.standard_normal(moved.phi.shape))
    got = refresh_geometry(base, moved, g)
    want = build_geometry(moved, g, with_riemann=True, with_frame=True)
    for name in ("d2r", "gamma", "b", "b_up", "dphi", "riemann"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.metric is base.metric and got.frame is base.frame
    assert np.array_equal(base.b, build_geometry(f, g).b)
