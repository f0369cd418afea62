import tracemalloc
from collections import deque
from typing import Optional

import numpy as np
import pytest

from worldsheet.causal import (
    CausalGraph,
    Edges,
    EventSet,
    InterceptReport,
    NULL_TOL,
    IntervalKind,
    NotCauchySurfaceError,
    PathLimitError,
    build_graph,
    causal_future,
    causal_past,
    chronological_future,
    chronological_past,
    classify_interval,
    dependence_domain,
    flat_cone_oracle,
    flat_grid_events,
    future_boundary,
    future_dependence,
    intercept_check,
    is_achronal,
    is_cauchy_surface,
    load_events,
    null_boundary_check,
    past_dependence,
    pasts,
    sample_maximal_path,
    _gather,
    _split,
    _walks,
)
from worldsheet import causal


def dense_build_graph(events: EventSet, radius: float) -> CausalGraph:
    """The all-pairs build that build_graph replaced, kept as its oracle."""
    if radius <= 0:
        raise ValueError("neighbor radius must be > 0")
    ev = events.events
    c = events.c
    dt = ev[None, :, 0] - ev[:, None, 0]
    dx = ev[None, :, 1:] - ev[:, None, 1:]
    xpart = np.einsum("ijk,ijk->ij", dx, dx)
    tpart = (c * dt) ** 2
    eucl_sq = dt**2 + xpart
    scale = tpart + xpart
    interval = xpart - tpart
    with np.errstate(invalid="ignore"):
        near = eucl_sq <= radius * radius
        future = dt > 0
        is_null = np.abs(interval) <= NULL_TOL * scale
        is_timelike = ~is_null & (interval < 0)
    t_edges = near & future & is_timelike
    n_edges = near & future & is_null

    def csr(edges, null):
        heads, tails = np.nonzero(edges)
        return Edges(np.r_[0, np.cumsum(edges.sum(axis=1))], tails, null[heads, tails])

    edges = t_edges | n_edges
    return CausalGraph(events, float(radius), csr(edges, n_edges), csr(edges.T, n_edges.T))


def covering_graph(nt, nx, c=1.0, t1=None, x1=None):
    """Aligned flat grid whose radius covers every pair."""
    t1 = float(nt - 1) if t1 is None else t1
    x1 = float(nx - 1) if x1 is None else x1
    ev = flat_grid_events((0.0, t1), (0.0, x1), nt, nx, c=c)
    diam = float(np.hypot(t1, x1))
    return ev, build_graph(ev, radius=1.01 * diam)


def row_adjacent_graph(nt, nx, ratio=1.25):
    """Flat grid whose edges connect adjacent time rows only."""
    dt, dx = ratio, 1.0
    ev = flat_grid_events((0.0, dt * (nt - 1)), (0.0, dx * (nx - 1)), nt, nx, c=1.0)
    radius = 1.1 * float(np.hypot(dt, dx))
    return ev, build_graph(ev, radius=radius)


def test_classify_examples():
    assert classify_interval([0, 0], [1, 0], 1.0) is IntervalKind.TIMELIKE_FUTURE
    assert classify_interval([0, 0], [1, 1], 1.0) is IntervalKind.NULL_FUTURE
    assert classify_interval([0, 0], [0, 1], 1.0) is IntervalKind.SPACELIKE
    assert classify_interval([1, 0], [0, 0], 1.0) is IntervalKind.TIMELIKE_PAST
    assert classify_interval([1, 1], [0, 0], 1.0) is IntervalKind.NULL_PAST
    assert classify_interval([0, 0], [0, 0], 1.0) is IntervalKind.COINCIDENT


def test_classify_speed_constant_scales_time():
    # (dt, dx) = (1, 2) is space-like at c=1 but time-like at c=3
    assert classify_interval([0, 0], [1, 2], 1.0) is IntervalKind.SPACELIKE
    assert classify_interval([0, 0], [1, 2], 3.0) is IntervalKind.TIMELIKE_FUTURE


def test_classify_extreme_speed_constants():
    # (c dt)^2 underflowed to 0 at c = 1e-200 (COINCIDENT) and overflowed to inf at c = 1e200 (NULL_FUTURE).
    assert classify_interval([0, 0], [1, 0], 1e-200) is IntervalKind.TIMELIKE_FUTURE
    assert classify_interval([0, 0], [1, 1], 1e200) is IntervalKind.TIMELIKE_FUTURE
    assert classify_interval([0, 0], [1, 0.5], 1e200) is IntervalKind.TIMELIKE_FUTURE
    assert classify_interval([0, 0], [0, 1], 1e200) is IntervalKind.SPACELIKE
    for c in (2.0**-1022, 1e-200, 0.4, 1.0, 2.5, 1e200, np.finfo(float).max):
        assert classify_interval([0.5, 2.0], [0.5, 2.0], c) is IntervalKind.COINCIDENT
    # At the least normal c the squares of a unit step still fit; below it no scale holds both, so c is refused.
    assert classify_interval([0, 0], [1, 0], 2.0**-1022) is IntervalKind.TIMELIKE_FUTURE
    assert classify_interval([0, 0], [1, 1], 2.0**-1022) is IntervalKind.SPACELIKE
    for c in (5e-324, 1e-310, 0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="speed constant"):
            classify_interval([0, 0], [1, 0], c)


# _cone's scale balances c against 1 only, so a step whose squares leave the float range once scaled is misread as null.
@pytest.mark.xfail(strict=True, reason="a square of a step far from unit size leaves the float range after scaling")
@pytest.mark.parametrize(
    "q, c, kind",
    [
        ([1e150, 1e60], 1e-200, IntervalKind.SPACELIKE),  # |dx|^2 h^2 overflows
        ([1e-262, 1e-63], 1e200, IntervalKind.TIMELIKE_FUTURE),  # both scaled squares underflow
        ([1e-300, 0.0], 1.0, IntervalKind.TIMELIKE_FUTURE),  # (c dt)^2 underflows at h = 1
    ],
    ids=["overflow_at_tiny_c", "underflow_at_huge_c", "underflow_at_c_1"],
)
def test_classify_steps_far_from_unit_size(q, c, kind):
    assert classify_interval([0.0, 0.0], q, c) is kind


def test_oracle_examples():
    assert flat_cone_oracle([0, 0], [2, 1], 1.0) == "chronological"
    assert flat_cone_oracle([0, 0], [1, 1], 1.0) == "causal"
    assert flat_cone_oracle([0, 0], [1, 2], 1.0) == "neither"


def test_event_set_validation():
    with pytest.raises(ValueError):
        EventSet(events=np.array([[0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        EventSet(events=np.array([[0.0, np.inf]]))
    with pytest.raises(ValueError):
        EventSet(events=np.array([[0.0, 0.0]]), c=0.0)


def test_event_set_needs_two_columns():
    with pytest.raises(ValueError, match="at least two columns"):
        EventSet(np.zeros((3, 1)))


def test_event_set_refuses_duplicates_only():
    ev = np.random.default_rng(0).uniform(0.0, 1.0, (200, 3))
    with pytest.raises(ValueError, match="^duplicate events are not allowed$"):
        EventSet(np.vstack([ev, ev[0]]))  # rows 0 and 200
    with pytest.raises(ValueError, match="^duplicate events are not allowed$"):
        EventSet(np.array([[1.0, -0.0, 2.0], [0.5, 0.5, 0.5], [1.0, 0.0, 2.0]]))
    up = np.nextafter(0.5, 1.0)
    rows = np.array([[0.5, 0.5, up], [0.5, 0.5, 0.5], [up, 0.5, 0.5], [0.5, up, 0.5]])
    assert len(EventSet(rows)) == 4  # each row differs from [0.5, 0.5, 0.5] in one column


@pytest.mark.parametrize("c", [np.nan, np.inf])
def test_event_set_rejects_non_finite_c(c):
    # nan gave a graph without edges and inf one of null edges only, so an empty I+.
    with pytest.raises(ValueError, match="speed constant"):
        EventSet(events=np.array([[0.0, 0.0], [1.0, 0.2]]), c=c)


@pytest.mark.parametrize("c", [5e-324, 1e-310, np.nextafter(2.0**-1022, 0.0)])
def test_event_set_rejects_subnormal_c(c):
    # Below the least normal c, |dx|^2 h^2 overflowed to inf (NaN for dx = 0), which dropped every same-place edge.
    with pytest.raises(ValueError, match="speed constant"):
        EventSet(events=np.array([[0.0, 0.0], [1.0, 0.0]]), c=c)
    g = build_graph(EventSet(events=np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]]), c=2.0**-1022), 2.0)
    assert g.is_edge(0, 1) and not g.forward.is_null.any() and g.forward.indices.size == 1


@pytest.mark.parametrize("radius", [np.nan, np.inf])
def test_build_graph_rejects_non_finite_radius(radius):
    ev = EventSet(events=np.array([[0.0, 0.0], [1.0, 0.2]]))
    with pytest.raises(ValueError, match="radius"):
        build_graph(ev, radius)


def test_build_graph_two_events():
    ev = EventSet(events=np.array([[0.0, 0.0], [1.0, 0.2]]))
    g = build_graph(ev, radius=2.0)
    assert list(g.timelike_children[0]) == [1]
    assert list(_split(g.forward, True)[0]) == []
    assert list(g.children[1]) == []


def test_build_graph_spacelike_set():
    ev = EventSet(events=np.array([[0.0, 0.0], [0.0, 1.0], [0.1, 3.0]]))
    g = build_graph(ev, radius=10.0)
    assert sum(a.size for a in g.children) == 0


def test_build_graph_matches_enumeration_oracle():
    # 3x3 grid, radius covering the nearest diagonal neighbors
    ev = flat_grid_events((0, 2), (0, 2), 3, 3, c=1.0)
    radius = 1.01 * np.sqrt(2.0)
    g = build_graph(ev, radius=radius)
    pts = ev.events
    for i in range(len(ev)):
        want_t, want_n = [], []
        for j in range(len(ev)):
            if i == j or np.hypot(*(pts[j] - pts[i])) > radius:
                continue
            kind = classify_interval(pts[i], pts[j], 1.0)
            if kind is IntervalKind.TIMELIKE_FUTURE:
                want_t.append(j)
            elif kind is IntervalKind.NULL_FUTURE:
                want_n.append(j)
        assert list(g.timelike_children[i]) == want_t
        assert list(_split(g.forward, True)[i]) == want_n


def test_graph_is_acyclic_in_time():
    ev, g = covering_graph(4, 4)
    t = ev.events[:, 0]
    for i in range(len(ev)):
        for j in g.children[i]:
            assert t[j] > t[i]


def test_chronological_future_empty_cases():
    ev, g = covering_graph(3, 3)
    assert chronological_future([], g) == set()
    top_corner = len(ev) - 1
    assert chronological_future([top_corner], g) == set()


def test_futures_against_cone_oracle():
    ev, g = covering_graph(8, 9)
    pts = ev.events
    origin = 4  # (0, 4)
    I = chronological_future([origin], g)
    J = causal_future([origin], g)
    assert I <= J
    assert origin in J and origin not in I
    for q in I:
        assert flat_cone_oracle(pts[origin], pts[q], 1.0) == "chronological"
    for q in J - {origin}:
        assert flat_cone_oracle(pts[origin], pts[q], 1.0) in ("chronological", "causal")


def test_pasts_mirror_futures():
    ev, g = covering_graph(6, 7)
    S = [len(ev) - 4]
    i_past, j_past = pasts(S, g)
    assert i_past == chronological_past(S, g)
    assert j_past == causal_past(S, g)
    # mirror through time reflection
    pts = ev.events
    for q in i_past:
        assert flat_cone_oracle(pts[q], pts[S[0]], 1.0) == "chronological"
    assert S[0] in j_past


def test_achronal_constant_time_slice():
    ev, g = covering_graph(5, 6)
    slice0 = [i for i in range(len(ev)) if ev.events[i, 0] == 2.0]
    assert is_achronal(slice0, g)


def test_achronal_fails_on_timelike_pair():
    ev, g = covering_graph(5, 6)
    assert not is_achronal([0, 1 * 6 + 0], g)  # (0,0) and (1,0)


def test_future_boundary_single_event_null_shell():
    ev, g = covering_graph(6, 11, x1=10.0)
    pts = ev.events
    origin = 5  # (0, 5)
    B = future_boundary([origin], g)
    assert origin in B
    for q in B - {origin}:
        d = pts[q] - pts[origin]
        assert abs(d[0] ** 2 - d[1] ** 2) == 0.0  # exact null shell
    assert is_achronal(B, g)


def test_future_boundary_whole_grid_is_surface():
    ev, g = covering_graph(5, 5)
    B = future_boundary(range(len(ev)), g)
    assert B == {i for i in range(len(ev)) if ev.events[i, 0] == 0.0}


def test_null_boundary_check_aligned_diagonal():
    ev, g = covering_graph(5, 5)
    nx = 5
    path = [t * nx + t for t in range(5)]  # (t, t) diagonal
    assert null_boundary_check(path, g) == 0.0
    B = future_boundary([0], g)
    assert set(path) <= B  # null geodesics stay in the boundary


def test_null_boundary_check_timelike_path_fails_loudly():
    ev, g = covering_graph(5, 5)
    nx = 5
    path = [t * nx for t in range(5)]  # vertical world line
    assert null_boundary_check(path, g) == 1.0  # |interval| = dt^2


def test_null_boundary_check_rejects_non_edges():
    ev, g = covering_graph(5, 5)
    with pytest.raises(ValueError, match="not a graph edge"):
        null_boundary_check([4, 0], g)  # backwards step


def test_cone_hugging_path_interval_shrinks_with_spacing():
    # steepest time-like chain on a slightly anisotropic grid: its steps hug
    # the cone at an angle offset that closes linearly with the spacing
    worst = []
    for n in (21, 41):
        nt = nx = n
        dt = 1.0 / (nt - 1)
        dx = dt / 1.17
        ev = flat_grid_events((0.0, 1.0), (0.0, dx * (nx - 1)), nt, nx, c=1.0)
        g = build_graph(ev, radius=1.01 * float(np.hypot(1.0, dx * (nx - 1))))
        path = [row * nx + row for row in range(nt)]
        worst.append(null_boundary_check(path, g))
    assert worst[1] < worst[0] / 1.8  # at least first order in the spacing


def brute_future_dependence(S, graph):
    """Oracle: enumerate all maximal backward paths and test they meet S."""
    s_set = set(S)
    n = len(graph)
    parents = _split(graph.backward, None)
    out = set()
    for p in range(n):
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
                q = int(q)
                stack.append((q, q in s_set))
        if ok:
            out.add(p)
    return out


def test_future_dependence_bottom_slice():
    ev, g = covering_graph(4, 5)
    bottom = [i for i in range(len(ev)) if ev.events[i, 0] == 0.0]
    assert future_dependence(bottom, g) == set(range(len(ev)))


def test_future_dependence_trivial_cases():
    ev, g = covering_graph(4, 5)
    assert future_dependence([], g) == set()
    assert {7} <= future_dependence([7], g)


def test_future_dependence_matches_bruteforce_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        pts = np.unique(np.round(rng.uniform(0, 3, size=(n, 2)), 3), axis=0)
        ev = EventSet(events=pts)
        g = build_graph(ev, radius=float(rng.uniform(0.5, 3.5)))
        k = int(rng.integers(0, len(ev) + 1))
        S = list(rng.choice(len(ev), size=k, replace=False))
        assert future_dependence(S, g) == brute_future_dependence(S, g)
        past = past_dependence(S, g)
        rev = CausalGraph(events=ev, neighbor_radius=g.neighbor_radius, forward=g.backward, backward=g.forward)
        assert past == brute_future_dependence(S, rev)


def test_dependence_domain_union():
    ev, g = row_adjacent_graph(5, 5)
    mid = [i for i in range(len(ev)) if ev.events[i, 0] == ev.events[2 * 5, 0]]
    assert dependence_domain(mid, g) == future_dependence(mid, g) | past_dependence(mid, g)


def test_cauchy_surface_full_middle_slice():
    ev, g = row_adjacent_graph(5, 7)
    nx = 7
    mid = [2 * nx + j for j in range(nx)]
    verdict = is_cauchy_surface(mid, g)
    assert verdict.is_cauchy
    assert verdict.witness is None


def test_cauchy_surface_with_hole():
    ev, g = row_adjacent_graph(5, 7)
    nx = 7
    mid = [2 * nx + j for j in range(nx) if j != 3]
    verdict = is_cauchy_surface(mid, g)
    assert not verdict.is_cauchy
    assert verdict.witness_kind == "uncovered"
    witness = verdict.witness[0]
    shadow = causal_future([2 * nx + 3], g) | causal_past([2 * nx + 3], g)
    assert witness in shadow


def test_cauchy_surface_non_achronal():
    ev, g = row_adjacent_graph(5, 7)
    sigma = [0, 7]  # vertically stacked events
    verdict = is_cauchy_surface(sigma, g)
    assert not verdict.is_cauchy
    assert verdict.witness_kind == "chronology"
    p, q = verdict.witness
    assert q in chronological_future([p], g)


def chronology_witness_by_search(sigma, graph):
    """The first clash q in I+(sigma) & sigma and the least p in sigma with q in I+(p),
    one search per event of sigma: the oracle for is_cauchy_surface's witness."""
    s_set = set(sigma)
    q = min(chronological_future(s_set, graph) & s_set)
    return next(p for p in sorted(s_set) if q in chronological_future({p}, graph)), q


@pytest.mark.parametrize("seed", range(4))
def test_cauchy_chronology_witness_matches_search(seed):
    events = _sprinkling(40 + seed, 1000, 3)
    graph = build_graph(events, 0.25)
    t = events.events[:, 0]
    sigma = [int(i) for i in np.flatnonzero((t > 0.4) & (t < 0.6))]
    verdict = is_cauchy_surface(sigma, graph)
    assert verdict.witness_kind == "chronology"
    assert verdict.witness == chronology_witness_by_search(sigma, graph)


def test_intercept_exhaustive_small_grid():
    ev, g = row_adjacent_graph(4, 3)
    nx = 3
    mid = [1 * nx + j for j in range(nx)]
    report = intercept_check(mid, g)
    assert report.ok
    assert report.paths_checked > 0


def test_intercept_requires_cauchy_surface():
    ev, g = row_adjacent_graph(4, 3)
    with pytest.raises(ValueError, match="precondition"):
        intercept_check([0], g)


def test_intercept_sampled():
    ev, g = row_adjacent_graph(10, 10)
    nx = 10
    mid = [5 * nx + j for j in range(nx)]
    report = intercept_check(mid, g, samples=50, seed=4)
    assert report.ok
    assert report.paths_checked == 50


def test_sample_maximal_path_is_maximal():
    ev, g = row_adjacent_graph(6, 6)
    rng = np.random.default_rng(0)
    path = sample_maximal_path(g, rng)
    assert path[0] in g.sources()
    assert g.children[path[-1]].size == 0


def test_monotonicity_under_set_inclusion():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(4, 30))
        pts = np.unique(np.round(rng.uniform(0, 4, size=(n, 2)), 3), axis=0)
        ev = EventSet(events=pts)
        g = build_graph(ev, radius=float(rng.uniform(1.0, 4.0)))
        k1 = int(rng.integers(1, len(ev)))
        small = set(int(i) for i in rng.choice(len(ev), size=k1, replace=False))
        extra = int(rng.integers(0, len(ev)))
        big = small | {extra}
        assert chronological_future(small, g) <= chronological_future(big, g)
        assert causal_future(small, g) <= causal_future(big, g)
        assert future_dependence(small, g) <= future_dependence(big, g)


def test_load_events_with_comments(tmp_path):
    p = tmp_path / "events.txt"
    p.write_text("# ct x\n0 0\n1 0.5\n2 0\n")
    ev = load_events(p, c=1.0)
    assert len(ev) == 3
    assert ev.events[1, 1] == 0.5


# Row lists by name: (direction, null) as _split reads them.
EDGE_LISTS = {
    "timelike_children": ("forward", False),
    "null_children": ("forward", True),
    "children": ("forward", None),
    "timelike_parents": ("backward", False),
    "parents": ("backward", None),
}


def _sprinkling(seed, n, dim, c=1.0):
    return EventSet(np.random.default_rng(seed).uniform(0.0, 1.0, (n, dim)), c=c)


def _lattice(nt, nx):
    return flat_grid_events((0.0, nt - 1.0), (0.0, nx - 1.0), nt, nx)


def _cone_scaled(c, x):
    """A 300-event (2+1)-D sprinkling with c * t and x both of size x, so no square over- or underflows at any c."""
    return EventSet(_sprinkling(9, 300, 3).events * [x / c, x, x], c=c), 0.3 * max(x, x / c)


def _null_chain(c, dt):
    """Four null steps (dt, c * dt) of Euclidean length radius, each across a space-cell boundary (x, then y),
    after an event long before them that sets min(x) and min(y) to 0."""
    step = c * dt
    chain = [(k * dt, (0.5 + (k + 1) // 2) * step, (0.5 + k // 2) * step) for k in range(5)]
    return EventSet(np.array([(-100.0 * dt, 0.0, 0.0), *chain]), c=c), float(np.nextafter(np.hypot(dt, step), np.inf))


def _null_by_tolerance():
    """A step (1, dx) whose interval is space-like but inside NULL_TOL, so a null edge 5e-11 longer than the
    reach along x.  It starts 2.5e-11 short of one reach past min(x): cells exactly one reach wide would put
    its ends two cells apart."""
    ev = np.array([[-100.0, 0.0], [0.0, 1.0 + 2.5e-11], [1.0, 2.0 + 1.24e-10]])
    return EventSet(ev), float(np.nextafter(np.hypot(1.0, ev[2, 1] - ev[1, 1]), np.inf))


# (events, radius); sprinkling radii give a mean out-degree of about 7.
ORACLE_CASES = {
    "sprinkling_1+1": lambda: (_sprinkling(1, 600, 2), 0.05),
    "sprinkling_2+1_a": lambda: (_sprinkling(71, 1500, 3), 0.215),
    "sprinkling_2+1_b": lambda: (_sprinkling(72, 1500, 3), 0.215),
    "sprinkling_3+1": lambda: (_sprinkling(3, 800, 4), 0.3),
    # (3^d + 1) / 2 = 122, 1,094 and 9,842 neighbour-cell offsets, when every column is binned.
    "uniform_5_columns": lambda: (_sprinkling(5, 300, 5), 0.6),
    "uniform_7_columns": lambda: (_sprinkling(7, 300, 7), 0.6),
    "uniform_9_columns": lambda: (_sprinkling(9, 300, 9), 0.6),
    # Space cells as wide as the cone's reach radius * c / sqrt(1 + c^2): c * c overflows at c = 1e200.
    "cone_scaled_c_1e200": lambda: _cone_scaled(1e200, 1e100),
    "cone_scaled_c_1e-200": lambda: _cone_scaled(1e-200, 1e-50),
    "null_chain_at_reach_c_0.4": lambda: _null_chain(0.4, 2.5),
    "null_chain_at_reach_c_2.5": lambda: _null_chain(2.5, 2.0),
    "null_by_tolerance_past_reach": _null_by_tolerance,
    # radius * c underflows to a reach of 0 along x, on which every event sits at 0.
    "world_line_reach_underflows": lambda: (EventSet(np.column_stack([np.arange(5.0) * 1e-31, np.zeros(5)]), c=1e-300), 1e-30),
    "sprinkling_c_2.5": lambda: (_sprinkling(4, 600, 2, c=2.5), 0.05),
    "sprinkling_c_0.4": lambda: (_sprinkling(5, 700, 3, c=0.4), 0.25),
    "lattice_radius_is_spacing": lambda: (_lattice(30, 50), 1.0),
    # 300 cells along t: cells narrower than radius would put some neighbours two cells apart.
    "world_line_radius_is_spacing": lambda: (EventSet(np.column_stack([np.arange(300.0), np.zeros(300)])), 1.0),
    "lattice_radius_1.5": lambda: (_lattice(30, 50), 1.5),
    "lattice_radius_2.0": lambda: (_lattice(30, 50), 2.0),
    # The last two events are exactly radius apart, in time-cells 0 and 1.
    "pair_at_radius_across_cells": lambda: (EventSet(np.array([[0.0, 0.0], [0.25, 0.0], [0.75, 0.0]])), 0.5),
    # Null steps of Euclidean length radius, the second across a time-cell boundary.
    "null_pair_at_radius": lambda: (EventSet(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])), float(np.sqrt(2.0))),
    # A pair within radius that cells of side exactly radius would put two cells
    # apart, through the rounding of t - min(t) (found by a search over floats).
    "pair_split_by_rounding": lambda: (
        EventSet(np.array([[-14.924557170706166, 0.0], [50.82972618594669, 0.0], [51.62194646735214, 0.0]])),
        0.7922202814054561,
    ),
    "single_event": lambda: (EventSet(np.array([[0.5, 0.5, 0.5]])), 1.0),
    "no_events": lambda: (EventSet(np.zeros((0, 3))), 1.0),
    "equal_times": lambda: (EventSet(np.column_stack([np.zeros(50), np.linspace(0.0, 1.0, 50)])), 0.3),
    "far_apart_clusters": lambda: (EventSet(np.array([[0.0, 0.0], [1.0, 0.5], [1e7, 1e7], [1e7 + 1.0, 1e7]])), 1.0),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_build_graph_matches_dense_oracle(case):
    events, radius = ORACLE_CASES[case]()
    got, want = build_graph(events, radius), dense_build_graph(events, radius)
    for name, (direction, null) in EDGE_LISTS.items():
        rows, expected = _split(getattr(got, direction), null), _split(getattr(want, direction), null)
        assert len(rows) == len(expected) == len(events)
        for i, (row, exp) in enumerate(zip(rows, expected)):
            assert row.dtype == exp.dtype and np.array_equal(row, exp), f"{name}[{i}]"
    edges = sum(r.size for r in want.children)
    if case in ("pair_at_radius_across_cells", "null_pair_at_radius"):
        assert edges == 2
    if case == "pair_split_by_rounding":
        assert edges == 1
    if case in ("single_event", "no_events", "equal_times"):
        assert edges == 0


# The edges each reach case is built for: null steps at (or, by NULL_TOL, past) the reach along space.
REACH_EDGES = {"null_chain_at_reach_c_0.4": 4, "null_chain_at_reach_c_2.5": 4, "null_by_tolerance_past_reach": 1}


@pytest.mark.parametrize("case", sorted(REACH_EDGES))
def test_reach_cases_hold_null_edges_at_the_reach(case):
    events, radius = ORACLE_CASES[case]()
    g = dense_build_graph(events, radius)
    assert g.forward.indices.size == REACH_EDGES[case] and g.forward.is_null.all()
    heads = np.repeat(np.arange(len(events)), np.diff(g.forward.indptr))
    step = np.abs(events.events[g.forward.indices, 1:] - events.events[heads, 1:]).max()
    assert step >= radius * events.c / np.hypot(1.0, events.c) * (1 - 1e-15)


@pytest.mark.parametrize("case", ["cone_scaled_c_1e200", "cone_scaled_c_1e-200"])
def test_cone_scaled_cases_have_edges(case):
    # Enough edges that space cells narrower than the reach (c / sqrt(1 + c * c) is 0 at c = 1e200) would lose some.
    assert dense_build_graph(*ORACLE_CASES[case]()).forward.indices.size > 1000


def _edge_matrix(g: CausalGraph) -> np.ndarray:
    """The forward edges as an n x n boolean matrix."""
    got = np.zeros((len(g), len(g)), dtype=bool)
    got[np.repeat(np.arange(len(g)), np.diff(g.forward.indptr)), g.forward.indices] = True
    return got


@pytest.mark.parametrize("dim", [2, 3])
def test_huge_c_makes_every_later_event_within_radius_a_timelike_child(dim):
    # At c = 1e200 every displacement with dt > 0 of a unit box is time-like.  (c dt)^2 overflowed to inf, and
    # inf <= NULL_TOL * inf made every edge null.
    ev = np.random.default_rng(dim).uniform(0.0, 1.0, (200, dim))
    d = ev[None, :, :] - ev[:, None, :]
    want = (d[..., 0] > 0) & (d[..., 0] ** 2 + np.einsum("ijk,ijk->ij", d[..., 1:], d[..., 1:]) <= 0.3 * 0.3)
    assert want.sum() > 1000
    for depth in range(1, dim + 1):
        g = causal._build_graph(EventSet(ev, c=1e200), 0.3, depth)
        assert np.array_equal(_edge_matrix(g), want), f"depth {depth}"
        assert not g.forward.is_null.any() and not g.backward.is_null.any()


def test_tiny_c_links_only_events_at_one_place():
    # At c = 1e-200 a lattice step of 1 in x is far outside any cone of dt <= 2.5, so only the later events at the
    # same x are children, all time-like.  (c dt)^2 underflowed to 0, which made those edges null.
    ev = flat_grid_events((0.0, 3.0), (0.0, 4.0), 7, 5, c=1e-200)
    t, x = ev.events.T
    want = (t[None, :] > t[:, None]) & (x[None, :] == x[:, None]) & (t[None, :] - t[:, None] <= 2.5)
    assert want.sum() == 100
    for depth in (1, 2):
        g = causal._build_graph(ev, 2.5, depth)
        assert np.array_equal(_edge_matrix(g), want), f"depth {depth}"
        assert not g.forward.is_null.any()


# All n^2 ordered pairs bound a depth's candidates: a case over this cap is not built at every depth.
DEPTH_CANDIDATE_CAP = 2.5e6


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_build_graph_matches_dense_oracle_at_every_depth(case):
    # Whatever depth the cost model picks, binning the first b coordinates gives the oracle's CSR arrays.
    events, radius = ORACLE_CASES[case]()
    n, dim = events.events.shape
    if n * n > DEPTH_CANDIDATE_CAP:
        pytest.skip(f"{n} events: up to {n * n} candidates per depth")
    want = dense_build_graph(events, radius)
    for depth in range(1, dim + 1):
        got = causal._build_graph(events, float(radius), depth)
        for direction in ("forward", "backward"):
            for name, a, b in zip(Edges._fields, getattr(got, direction), getattr(want, direction)):
                assert a.dtype == b.dtype and np.array_equal(a, b), f"depth {depth}: {direction}.{name}"


def test_build_graph_memory_is_linear():
    # 4,000 (2+1)-D events at mean out-degree about 7: the all-pairs build
    # peaks near 1.3 GB here.
    events = _sprinkling(8, 4000, 3)
    tracemalloc.start()
    try:
        graph = build_graph(events, 0.155)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 5.0 < sum(r.size for r in graph.children) / len(events) < 9.0
    assert peak < 25 * 2**20


def test_is_edge_matches_children():
    ev, g = row_adjacent_graph(4, 5)
    for i in range(len(ev)):
        for j in range(len(ev)):
            assert g.is_edge(i, j) == (j in set(g.children[i].tolist()))


def _maximal_paths_by_copying(graph):
    """Depth-first maximal paths in index order, each stack entry carrying its own path."""
    out = []
    for src in graph.sources():
        stack = [(src, [src])]
        while stack:
            node, path = stack.pop()
            if graph.children[node].size == 0:
                out.append(tuple(path))
            for j in graph.children[node][::-1]:
                stack.append((int(j), path + [int(j)]))
    return out


def _iter_maximal_paths(graph: CausalGraph, limit: int, code: np.ndarray):
    """The depth-first generator that the lockstep kernel replaced for exhaustive checks, kept as its oracle:
    all maximal causal paths (source to sink), index order, each with the OR of code over it."""
    indptr, indices, code = graph.forward.indptr.tolist(), graph.forward.indices.tolist(), code.tolist()
    count = 0
    for src in graph.sources():
        stack = [(src, 0, code[src])]  # (node, depth, met): path[depth - 1] is the parent, met ORs code to node
        path: list[int] = []
        while stack:
            node, depth, met = stack.pop()
            del path[depth:]
            path.append(node)
            lo, hi = indptr[node], indptr[node + 1]
            if lo == hi:
                count += 1
                if count > limit:
                    raise PathLimitError(f"more than {limit} maximal paths; use sampling instead")
                yield tuple(path), met
                continue
            stack.extend((j, depth + 1, met | code[j]) for j in reversed(indices[lo:hi]))


def live_row_walks(forward: Edges, rng: np.random.Generator, sources, samples: int) -> np.ndarray:
    """The sampler that dropped walkers at their sink from a live-row list, which the sentinel kernel replaced,
    kept as its oracle: samples uniform forward walks from random sources, padded with -1 after the sink."""
    indptr, indices = forward.indptr, forward.indices
    node = np.asarray(sources, dtype=np.int64)[rng.integers(len(sources), size=samples)]
    live, steps = np.arange(samples), [node]
    while True:
        lo, hi = indptr[node], indptr[node + 1]
        more = hi > lo  # walkers at a sink stop here
        live, lo, hi = live[more], lo[more], hi[more]
        if not live.size:
            return np.stack(steps, axis=1)
        node = indices[lo + rng.integers(hi - lo)]
        steps.append(np.full(samples, -1))
        steps[-1][live] = node


def trimmed(walks):
    """Each row of a walk array as a path, without its -1 padding."""
    return [tuple(row[:end]) for row, end in zip(walks.tolist(), (walks >= 0).sum(axis=1).tolist())]


def maximal_paths(graph, limit):
    """The paths of _iter_maximal_paths, without their codes."""
    return [path for path, _ in _iter_maximal_paths(graph, limit, np.zeros(len(graph), dtype=np.int64))]


def test_maximal_paths_order_and_limit(monkeypatch):
    ev, g = row_adjacent_graph(5, 4)
    paths = _maximal_paths_by_copying(g)
    code = np.random.default_rng(6).integers(0, 8, len(g))
    monkeypatch.setattr(causal, "PATH_LIMIT", len(paths))
    walks = _walks(g.forward, g.sources())
    assert trimmed(walks) == paths
    # Each row's OR of the codes of its events, the -1 padding reading code 0.
    met = np.bitwise_or.reduce(np.r_[code, 0][walks], axis=1).tolist()
    assert met == [int(np.bitwise_or.reduce(code[list(path)])) for path in paths]
    assert len(set(met)) > 1
    monkeypatch.setattr(causal, "PATH_LIMIT", len(paths) - 1)
    with pytest.raises(PathLimitError, match=f"more than {len(paths) - 1} maximal paths"):
        _walks(g.forward, g.sources())
    assert issubclass(PathLimitError, RuntimeError)
    assert issubclass(NotCauchySurfaceError, ValueError)


def scalar_maximal_path(graph, rng, sources):
    """The one-walk-at-a-time sampler that the lockstep kernel replaced, kept as its oracle."""
    indptr, indices, _ = graph.forward
    node = int(sources[rng.integers(len(sources))])
    path = [node]
    lo, hi = indptr.item(node), indptr.item(node + 1)
    while hi > lo:
        node = indices.item(lo + int(rng.integers(hi - lo)))
        path.append(node)
        lo, hi = indptr.item(node), indptr.item(node + 1)
    return tuple(path)


def classify_by_sets(path, s_set, i_plus, i_minus):
    """The per-path label that the array lookups replaced, kept as their oracle."""
    if s_set.isdisjoint(path):
        return "misses_sigma"
    if i_plus.isdisjoint(path):
        return "misses_I+"
    if i_minus.isdisjoint(path):
        return "misses_I-"
    return None


def assert_maximal_path(path, graph):
    """A graph path from a source to a sink."""
    assert len(path) >= 1
    assert path[0] in graph.sources()
    assert all(graph.is_edge(a, b) for a, b in zip(path, path[1:]))
    assert graph.children[path[-1]].size == 0


WALK_CASES = {
    "sprinkling_1+1": lambda: (_sprinkling(11, 120, 2), 0.2),
    "sprinkling_2+1": lambda: (_sprinkling(12, 300, 3), 0.35),
    "sprinkling_3+1": lambda: (_sprinkling(13, 200, 4), 0.5),
    "lattice": lambda: (_lattice(6, 5), 1.5),
    "no_edges": lambda: (EventSet(np.column_stack([np.zeros(20), np.linspace(0.0, 1.0, 20)])), 0.3),
    "no_events": lambda: (EventSet(np.zeros((0, 2))), 1.0),
}


@pytest.mark.parametrize("case", sorted(WALK_CASES))
def test_lockstep_walks_are_maximal_paths(case):
    events, radius = WALK_CASES[case]()
    g = build_graph(events, radius)
    sources = g.sources()
    walks = _walks(g.forward, sources, np.random.default_rng(3), 400)
    assert walks.shape[0] == (400 if sources else 0) and walks.dtype == np.int64
    paths = set(maximal_paths(g, 10**6))
    for row in walks:
        length = int((row >= 0).sum())
        assert (row[length:] == -1).all()  # padding only after the sink
        path = tuple(row[:length].tolist())
        assert_maximal_path(path, g)
        assert path in paths
    oracle = np.random.default_rng(3)
    for _ in range(50 if sources else 0):  # the replaced sampler passes the same checks
        assert scalar_maximal_path(g, oracle, sources) in paths
    if case == "no_edges":
        assert walks.shape == (400, 1)
    if case == "no_events":
        # A sampled check of a graph without events checks no path, as the exhaustive one does.
        assert intercept_check([], g, samples=5) == intercept_check([], g) == InterceptReport(0, [])
        with pytest.raises(ValueError, match="^the graph has no source events$"):
            sample_maximal_path(g, np.random.default_rng(0))


def test_lockstep_walks_split_evenly_on_a_diamond():
    # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3; 0 -> 3 lies beyond the radius.
    g = build_graph(EventSet(np.array([[0.0, 0.0], [1.0, -0.5], [1.0, 0.5], [2.0, 0.0]])), 1.2)
    assert sorted(maximal_paths(g, 10)) == [(0, 1, 3), (0, 2, 3)]
    n = 4000
    for draw in (
        lambda rng: _walks(g.forward, g.sources(), rng, n)[:, 1],
        lambda rng: np.array([scalar_maximal_path(g, rng, g.sources())[1] for _ in range(n)]),
    ):
        left = int((draw(np.random.default_rng(21)) == 1).sum())
        assert abs(left - n / 2) < 5 * np.sqrt(n / 4)


def test_lockstep_walks_repeat_with_the_seed():
    g = build_graph(_sprinkling(14, 300, 3), 0.35)
    a = _walks(g.forward, g.sources(), np.random.default_rng(8), 100)
    b = _walks(g.forward, g.sources(), np.random.default_rng(8), 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, _walks(g.forward, g.sources(), np.random.default_rng(9), 100))
    ev, lattice = row_adjacent_graph(8, 6)
    top = list(range(7 * 6, 8 * 6))
    assert intercept_check(top, lattice, samples=60, seed=8) == intercept_check(top, lattice, samples=60, seed=8)



# The walk cases, and a lattice of 33,942 maximal paths.
EXHAUSTIVE_CASES = {**WALK_CASES, "lattice_9x8": lambda: (_lattice(9, 8), 1.5)}


@pytest.mark.parametrize("case", sorted(EXHAUSTIVE_CASES))
def test_exhaustive_walks_match_depth_first_oracle(case, monkeypatch):
    g = build_graph(*EXHAUSTIVE_CASES[case]())
    code = np.random.default_rng(7).integers(0, 8, len(g))
    found = list(_iter_maximal_paths(g, 10**6, code))
    walks = _walks(g.forward, g.sources())
    assert trimmed(walks) == [path for path, _ in found]
    assert np.bitwise_or.reduce(np.r_[code, 0][walks], axis=1).tolist() == [met for _, met in found]
    # The sources are a Cauchy surface.  Its check of P paths passes at PATH_LIMIT = P and raises at P - 1.
    sigma, P = g.sources(), len(found)
    monkeypatch.setattr(causal, "PATH_LIMIT", P)
    assert intercept_check(sigma, g).paths_checked == P
    if P:
        monkeypatch.setattr(causal, "PATH_LIMIT", P - 1)
        with pytest.raises(PathLimitError, match=f"^more than {P - 1} maximal paths; use sampling instead$"):
            intercept_check(sigma, g)


@pytest.mark.parametrize("case", sorted(set(EXHAUSTIVE_CASES) - {"no_events"}))
def test_sampled_walks_match_live_row_oracle(case):
    g = build_graph(*EXHAUSTIVE_CASES[case]())
    sources = g.sources()
    for seed in range(30):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(_walks(g.forward, sources, a, 100), live_row_walks(g.forward, b, sources, 100))
        assert a.bit_generator.state == b.bit_generator.state  # the same draws, and no more


@pytest.mark.parametrize("end, label", [("sinks", "misses_I+"), ("sources", "misses_I-")])
@pytest.mark.parametrize("graph", ["lattice", "sprinkling"])
def test_intercept_reports_every_sampled_violation(graph, end, label):
    # Every maximal path ends at a sink and starts at a source, so the sinks form
    # a Cauchy surface with I+(sigma) empty and the sources one with I-(sigma) empty.
    g = row_adjacent_graph(8, 6)[1] if graph == "lattice" else build_graph(_sprinkling(15, 300, 3), 0.35)
    n = len(g)
    sigma = g.sources() if end == "sources" else [i for i in range(n) if g.children[i].size == 0]
    assert is_cauchy_surface(sigma, g).is_cauchy
    report = intercept_check(sigma, g, samples=50, seed=2)
    assert report.paths_checked == 50 and len(report.violations) == 50
    s_set = set(sigma)
    i_plus, i_minus = chronological_future(s_set, g), chronological_past(s_set, g)
    for path, got in report.violations:
        assert all(type(e) is int and e >= 0 for e in path)
        assert_maximal_path(path, g)
        assert got == label == classify_by_sets(path, s_set, i_plus, i_minus)
    lengths = {len(path) for path, _ in report.violations}
    assert len(lengths) > 1 if graph == "sprinkling" else lengths == {8}  # padded rows were trimmed
    if graph == "lattice":
        assert intercept_check(sigma, g).violations == [(path, label) for path in maximal_paths(g, 10**6)]


def test_intercept_sampling_scans_sources_once(monkeypatch):
    ev, g = row_adjacent_graph(10, 10)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    sources = g.sources()
    for _ in range(20):
        assert sample_maximal_path(g, a, sources) == sample_maximal_path(g, b)
    calls = []
    original = CausalGraph.sources
    monkeypatch.setattr(CausalGraph, "sources", lambda self: calls.append(1) or original(self))
    mid = [5 * 10 + j for j in range(10)]
    assert intercept_check(mid, g, samples=50, seed=4).ok
    assert len(calls) == 1


def test_intercept_walks_i_plus_once(monkeypatch):
    from worldsheet import causal

    ev, g = row_adjacent_graph(10, 10)
    mid = [5 * 10 + j for j in range(10)]
    calls = []
    original = causal._reach

    def counted(seeds, graph, forward, chronological, avoid=None):
        calls.append(graph is g and forward and chronological)
        return original(seeds, graph, forward, chronological, avoid)

    monkeypatch.setattr(causal, "_reach", counted)
    report = intercept_check(mid, g, samples=50, seed=4)
    assert report.ok and report.paths_checked == 50
    assert sum(calls) == 1  # one forward chronological reach: I+(sigma)
    assert is_cauchy_surface(mid, g).is_cauchy and sum(calls) == 2


def deque_reach(S, adjacency, include_seeds):
    """The per-event breadth-first search the frontier kernel replaced, kept as its oracle."""
    seeds = [int(s) for s in S]
    visited = np.zeros(len(adjacency), dtype=bool)
    queue = deque(seeds)
    while queue:
        nxt = adjacency[queue.popleft()]
        fresh = nxt[~visited[nxt]]
        visited[fresh] = True
        queue.extend(int(j) for j in fresh)
    if include_seeds:
        visited[seeds] = True
    return set(int(i) for i in np.flatnonzero(visited))


def ordered_dependence(S, preds, order):
    """The per-event dependence pass the frontier kernel replaced: events in S, or with at
    least one pred and every pred already good, visited in a topological order."""
    in_s = np.zeros(len(preds), dtype=bool)
    in_s[[int(i) for i in S]] = True
    good = np.zeros(len(preds), dtype=bool)
    for i in order:
        p = preds[i]
        good[i] = in_s[i] or (p.size > 0 and bool(good[p].all()))
    return set(int(i) for i in np.flatnonzero(good))


FRONTIER_CASES = {
    **ORACLE_CASES,
    # A deep graph: 2,000 levels of one event each.
    "time_like_chain_2000": lambda: (EventSet(np.column_stack([np.arange(2000.0), np.zeros(2000)])), 1.0),
    # A frontier that holds each child many times: up to 6 parents per event, in two rows.
    "lattice_radius_2.5": lambda: (_lattice(30, 50), 2.5),
}


@pytest.mark.parametrize("case", sorted(FRONTIER_CASES))
def test_frontier_kernels_match_per_event_oracles(case):
    events, radius = FRONTIER_CASES[case]()
    g = build_graph(events, radius)
    n = len(events)
    # Edges strictly increase the time coordinate, so sorting by it is a topological order.
    order = np.argsort(events.events[:, 0], kind="stable")
    rng = np.random.default_rng(sorted(FRONTIER_CASES).index(case))
    event_sets = [[], list(range(n))]
    if n:
        repeated = [0, n - 1, 0, n - 1]
        event_sets += [repeated, rng.integers(0, n, 6).tolist(), rng.choice(n, n // 10, replace=False).tolist()]
    timelike_parents, parents = _split(g.backward, False), _split(g.backward, None)
    for S in event_sets:
        assert chronological_future(S, g) == deque_reach(S, g.timelike_children, False)
        assert chronological_past(S, g) == deque_reach(S, timelike_parents, False)
        assert causal_future(S, g) == deque_reach(S, g.children, True)
        assert causal_past(S, g) == deque_reach(S, parents, True)
        assert future_dependence(S, g) == ordered_dependence(S, parents, order)
        assert past_dependence(S, g) == ordered_dependence(S, g.children, order[::-1])


# The breadth-first frontier kernel that the layered sweep replaced, kept as its oracle.
def frontier_reach(seeds: np.ndarray, edges: Edges, chronological: bool, avoid: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the events reachable from the seeds mask by paths of length >= 1 along edges that never
    enter avoid, a whole frontier per step: time-like edges only if chronological, else every edge and
    the seeds.  Costs O(n + edges reached + levels), with no sort: a slot stamp keeps one copy of each child."""
    frontier = np.flatnonzero(seeds)
    visited = np.zeros_like(seeds) if avoid is None else avoid.copy()
    slot = np.empty(seeds.size, dtype=np.int64)
    while frontier.size:
        pos = _gather(edges.indptr[frontier], edges.indptr[frontier + 1])[1]
        if chronological:
            pos = pos[~edges.is_null[pos]]
        nxt = edges.indices[pos]
        nxt = nxt[~visited[nxt]]
        k = np.arange(nxt.size)
        slot[nxt] = k
        frontier = nxt[slot[nxt] == k]
        visited[frontier] = True
    if not chronological:
        visited |= seeds
    if avoid is not None:
        visited &= ~avoid
    return visited


def early_sink_events():
    """A time-like chain along x = 0 and event 10, whose only edge comes from event 0: a sink in forward
    layer 1 that the backward layering puts in its layer 0."""
    chain = np.column_stack([np.arange(10.0), np.zeros(10)])
    return EventSet(np.vstack([chain, [[0.6, 0.55]]])), 1.5


SWEEP_CASES = {**FRONTIER_CASES, **{f"walk_{k}": v for k, v in WALK_CASES.items()}, "early_sink": early_sink_events}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_layered_sweep_matches_frontier_oracle(case):
    g = build_graph(*SWEEP_CASES[case]())
    n = len(g)
    rng = np.random.default_rng(sorted(SWEEP_CASES).index(case))
    if case == "early_sink":
        assert g._forward_layers[0][10] == 1 and g._backward_layers[0][10] == 0
        assert g.forward.indptr[11] == g.forward.indptr[10]  # event 10 has no children
    for forward, edges in ((True, g.forward), (False, g.backward)):
        layer = (g._forward_layers if forward else g._backward_layers)[0]
        one = np.zeros(n, dtype=bool)
        one[rng.integers(n) if n else []] = True
        late = layer >= layer.max(initial=0) - 1  # seeds only in the last two layers
        for seeds in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool), one, late, rng.random(n) < 0.02, rng.random(n) < 0.3):
            # avoid: none, random, or holding seeds (an avoided seed still starts paths)
            for avoid in (None, rng.random(n) < 0.1, seeds & (rng.random(n) < 0.5) | (rng.random(n) < 0.05)):
                for chronological in (True, False):
                    got = causal._reach(seeds, g, forward, chronological, avoid)
                    want = frontier_reach(seeds, edges, chronological, avoid)
                    assert got.dtype == want.dtype and np.array_equal(got, want), (forward, chronological)


def test_layering_is_built_once_per_graph_and_direction(monkeypatch):
    built = []
    original = causal._layering
    monkeypatch.setattr(causal, "_layering", lambda pull, push: built.append(pull) or original(pull, push))
    ev, g = row_adjacent_graph(10, 10)
    assert built == [] and "_forward_layers" not in vars(g) and "_backward_layers" not in vars(g)
    row = [5 * 10 + j for j in range(10)]
    for _ in range(2):
        causal_future([3], g), chronological_future([3], g), future_dependence(row, g), is_achronal(row, g)
    assert len(built) == 1 and built[0] is g.backward  # the forward plan pulls along the reversed edges
    for _ in range(2):
        causal_past([93], g), past_dependence(row, g), is_cauchy_surface(row, g), intercept_check(row, g, samples=20)
    assert len(built) == 2 and built[1] is g.forward
    other = build_graph(ev, g.neighbor_radius)
    assert len(built) == 2
    causal_future([3], other)
    assert len(built) == 3 and built[2] is other.backward


def sample_maximal_path_from(S, graph):
    return sample_maximal_path(graph, np.random.default_rng(0), S)


def is_edge(S, graph):
    """CausalGraph.is_edge(i, j) with the event index under test as i: S = [j, i]."""
    return graph.is_edge(S[1], S[0])


OUT_OF_RANGE_QUERIES = (
    is_edge,
    chronological_future,
    chronological_past,
    causal_future,
    causal_past,
    future_dependence,
    past_dependence,
    future_boundary,
    is_achronal,
    is_cauchy_surface,
    intercept_check,
    null_boundary_check,
    sample_maximal_path_from,
)


@pytest.mark.parametrize("bad", [-1, 16, 1.7])
@pytest.mark.parametrize("query", OUT_OF_RANGE_QUERIES, ids=lambda f: f.__name__)
def test_queries_reject_event_index_out_of_range(query, bad):
    # numpy indexing would answer -1 as event 15, fail on 16 with an IndexError and cut 1.7 to event 1
    ev, g = covering_graph(4, 4)
    why = "outside 0..15" if float(bad).is_integer() else "is not an integer"
    with pytest.raises(ValueError, match=f"^event index {bad} {why}$"):
        query([3, bad], g)


@pytest.mark.parametrize("query", OUT_OF_RANGE_QUERIES, ids=lambda f: f.__name__)
def test_queries_reject_a_boolean_mask(query):
    # read as indices, a mask holding only event 5 would be the events {0, 1}: its False and True
    ev, g = covering_graph(4, 4)
    mask = np.zeros(16, dtype=bool)
    mask[5] = True
    with pytest.raises(ValueError, match="^event indices must be integers, not a boolean mask$"):
        query(mask, g)


@pytest.mark.parametrize("query", OUT_OF_RANGE_QUERIES, ids=lambda f: f.__name__)
def test_queries_reject_a_bool_among_indices(query):
    # np.asarray([3, True]) is an integer array: the bool would be read as event 1
    ev, g = covering_graph(4, 4)
    with pytest.raises(ValueError, match="^event index True is a bool, not an integer$"):
        query([3, True], g)


def test_is_edge_rejects_a_bool_in_either_place():
    ev, g = covering_graph(4, 4)
    assert g.is_edge(1, 5)  # what a bool True would have answered
    for i, j, named in ((True, 5, True), (5, True, True), (np.True_, 5, True), (5, False, False)):
        with pytest.raises(ValueError, match=f"^event index {named} is a bool, not an integer$"):
            g.is_edge(i, j)


@pytest.mark.parametrize("samples", [0, -1, 2.5, "50", True])
def test_intercept_rejects_samples_below_one(samples):
    # samples=0 would check no path and report ok; -1 would fail inside numpy
    ev, g = row_adjacent_graph(4, 3)
    with pytest.raises(ValueError, match="^samples must be an integer >= 1"):
        intercept_check([3, 4, 5], g, samples=samples)
    assert intercept_check([3, 4, 5], g, samples=np.int64(1)).paths_checked == 1


def test_null_boundary_check_reads_the_csr_rows():
    ev, g = covering_graph(5, 5)
    assert null_boundary_check([0, 6, 12], g) == 0.0
    assert "children" not in vars(g)
