"""Tests of the benchmark's own checkers.

    python3 -m pytest -q perfbench/test_checks.py

Each checker must accept a right answer and reject a deliberately corrupted
one, and each closed form must match answers worked out by hand on a tiny
lattice, a tiny hand-placed event set and the sphere product.
"""

import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from worldsheet import assemble_JK, build_grid, causal, presets  # noqa: E402

import checks  # noqa: E402


# --- continuation ----------------------------------------------------------


def _rows(residual_at_30, residual_at_100, **extra):
    base = {"iterations": "80", "grad_norm": "5e-07"}
    base.update(extra)
    return [
        dict(base, K="30", res_norm=repr(residual_at_30), res_orth=repr(residual_at_30), res_unit=repr(residual_at_30)),
        dict(base, K="100", res_norm=repr(residual_at_100), res_orth=repr(residual_at_100), res_unit=repr(residual_at_100)),
    ]


def test_loglog_slope_hand_values():
    assert checks.loglog_slope([10, 100], [1e-2, 1e-3]) == pytest.approx(-1.0, abs=1e-12)
    assert checks.loglog_slope([1, 10, 100], [1.0, 1e-2, 1e-4]) == pytest.approx(-2.0, abs=1e-12)


def test_check_minimize_accepts_one_over_k_decay():
    slopes = checks.check_minimize(0, _rows(1e-3, 3e-4), 1e-6, 800, (-1.3, -0.7))
    assert slopes["res_norm"] == pytest.approx(-1.0, abs=1e-12)


def test_check_minimize_rejects_flipped_slope_sign():
    with pytest.raises(checks.CheckFailure, match="slope"):
        checks.check_minimize(0, _rows(3e-4, 1e-3), 1e-6, 800, (-1.3, -0.7))


@pytest.mark.parametrize(
    "code, extra, match",
    [(2, {}, "exited"), (0, {"grad_norm": "2e-06"}, "grad_norm"), (0, {"iterations": "800"}, "max_iters")],
)
def test_check_minimize_rejects_unconverged_runs(code, extra, match):
    with pytest.raises(checks.CheckFailure, match=match):
        checks.check_minimize(code, _rows(1e-3, 3e-4, **extra), 1e-6, 800, (-1.3, -0.7))


# --- sheet evaluation ------------------------------------------------------


def _breakdown(**changes):
    values = dict(
        j1_curvature=5.2, j2_dirichlet=0.3, j2_christoffel=-0.1, penalty_norm=0.4,
        penalty_orth=1e-3, penalty_unit=2e-3, total_J=5.4, total_JK=25.55,
    )
    values.update(changes)
    return SimpleNamespace(**values)


def test_check_invariant_rejects_perturbed_jk():
    checks.check_invariant(_breakdown(), _breakdown(total_JK=25.55 * (1 + 1e-12)))
    with pytest.raises(checks.CheckFailure, match="total_JK"):
        checks.check_invariant(_breakdown(), _breakdown(total_JK=25.55 * (1 + 1e-6)))


def test_lorentz_transform_preserves_the_metric():
    lam = checks.lorentz_transform(np.random.default_rng(0), 3)
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(lam.T @ eta @ lam, eta, atol=1e-12)
    assert np.linalg.det(lam) == pytest.approx(1.0)
    assert lam[0, 0] > 1.0  # a real boost, future-directed


def test_jk_is_lorentz_invariant_on_a_small_sheet():
    grid = build_grid([(0, 1), (0.6, math.pi - 0.6), (0.2, 1.2)], [5, 5, 5])
    fields = presets.sphere_product(grid)
    fields.n[..., 1] += 0.05
    rng = np.random.default_rng(1)
    lam = checks.lorentz_transform(rng, 3)
    moved = fields.copy()
    moved.r[...] = fields.r @ lam.T + rng.uniform(-1, 1, 4)
    moved.r_bc[...] = moved.r
    moved.n[...] = fields.n @ lam.T
    checks.check_invariant(assemble_JK(fields, grid, 100.0), assemble_JK(moved, grid, 100.0))


def test_sphere_j1_closed_form_by_hand():
    # |phi0|^2 T (cos a - cos b)(d - c) = 4 * 0.5 * (1/2 + 1/2) * 2
    assert checks.sphere_j1(2.0, 0.5, (math.pi / 3, 2 * math.pi / 3), (0.0, 2.0)) == pytest.approx(4.0)


def test_sphere_j1_is_matched_to_second_order():
    extents = [(0.0, 1.0), (0.6, math.pi - 0.6), (0.2, 1.2)]
    exact = checks.sphere_j1(1.0, 1.0, extents[1], extents[2])
    errors = []
    for n in (9, 17):
        grid = build_grid(extents, [n, n, n])
        j1 = assemble_JK(presets.sphere_product(grid), grid, 0.0).j1_curvature
        checks.check_second_order(j1, exact, max(grid.spacings))
        errors.append(abs(j1 - exact))
    assert 3.0 < errors[0] / errors[1] < 5.0  # halving h quarters the error
    with pytest.raises(checks.CheckFailure):
        checks.check_second_order(exact * 1.05, exact, max(grid.spacings))


# --- tiny lattice: 3 rows of 4 events, unit steps, radius 1.5 --------------


@pytest.fixture(scope="module")
def lattice():
    return causal.build_graph(causal.flat_grid_events((0.0, 2.0), (0.0, 3.0), 3, 4), 1.5)


def test_lattice_closed_forms_by_hand(lattice):
    # event 1 is row 0, column 1
    assert checks.lattice_cone(1, 4, 3, future=True) == {1, 4, 5, 6, 8, 9, 10, 11}
    assert checks.lattice_column(1, 4, 3, future=True) == {5, 9}
    assert checks.lattice_cone(11, 4, 3, future=False) == {11, 6, 7, 1, 2, 3}
    assert checks.lattice_rows([1, 2], 4) == set(range(4, 12))


def test_lattice_closed_forms_match_the_program(lattice):
    checks.check_same("J+", causal.causal_future([1], lattice), checks.lattice_cone(1, 4, 3, True))
    checks.check_same("I+", causal.chronological_future([1], lattice), checks.lattice_column(1, 4, 3, True))
    checks.check_same("D+", causal.future_dependence([4, 5, 6, 7], lattice), checks.lattice_rows([1, 2], 4))


def test_check_same_rejects_a_dropped_event():
    cone = checks.lattice_cone(1, 4, 3, True)
    with pytest.raises(checks.CheckFailure, match="missing \\[9\\]"):
        checks.check_same("J+", cone - {9}, cone)


# --- tiny hand-placed sprinkling, radius 1.5 -------------------------------

EVENTS = np.array(
    [
        [0.0, 0.0, 0.0],  # 0
        [1.0, 0.5, 0.0],  # 1: time-like from 0
        [1.0, 1.0, 0.0],  # 2: null from 0
        [2.0, 1.0, 0.5],  # 3: time-like from 1 and 2, too far from 0
        [0.5, 3.0, 0.0],  # 4: space-like to all
    ]
)


def test_own_edges_by_hand():
    kids, timelike = checks.own_edges(EVENTS, 1.0, 1.5)
    assert [k.tolist() for k in kids] == [[1, 2], [3], [3], [], []]
    assert [k.tolist() for k in timelike] == [[1], [3], [3], [], []]
    graph = causal.build_graph(causal.EventSet(EVENTS), 1.5)
    checks.check_children(graph.children, kids, range(5))
    checks.check_children(graph.timelike_children, timelike, range(5))


def test_bfs_and_dependence_by_hand():
    kids, timelike = checks.own_edges(EVENTS, 1.0, 1.5)
    assert checks.bfs([0], kids, include_seeds=True) == {0, 1, 2, 3}
    assert checks.bfs([0], timelike, include_seeds=False) == {1, 3}
    parents = checks.reverse(kids)
    assert checks.dependence([0], EVENTS, parents) == {0, 1, 2, 3}
    assert checks.dependence([1], EVENTS, parents) == {1}


def test_sprinkling_checks_reject_corrupted_answers():
    kids, _ = checks.own_edges(EVENTS, 1.0, 1.5)
    with pytest.raises(checks.CheckFailure, match="children of event 0"):
        checks.check_children([np.array([1]), *kids[1:]], kids, range(5))
    with pytest.raises(checks.CheckFailure, match="missing \\[3\\]"):
        checks.check_same("J+", {0, 1, 2}, checks.bfs([0], kids, include_seeds=True))
    checks.check_in_cone({0, 1, 2, 3}, [0], EVENTS, 1.0)
    with pytest.raises(checks.CheckFailure, match="event 4"):
        checks.check_in_cone({0, 4}, [0], EVENTS, 1.0)
