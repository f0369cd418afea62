"""Causal structure on finite event sets.

Events are points of R^{n+1} whose first coordinate is the time coordinate
(scaled by the speed constant c during interval classification, so it equals
c*t when c = 1).  A causal graph carries future-directed edges typed as
time-like or null; discrete curves are graph paths, with "time-like curve"
meaning every edge time-like and "causal curve" allowing null edges.  All
chronological/causal futures and pasts, achronality, boundaries, domains of
dependence, and Cauchy-surface checks run against this graph, with an exact
flat-space cone oracle for validation.

The discrete stand-in for the future boundary of I+(S) is J+(S) \\ I+(S).
On a flat event set whose radius covers every pair, two boundary events can
never be chronologically related: a time-like displacement composed with a
causal one is time-like, and the covering radius turns that vector argument
into a graph path.  This makes the achronality theorem checkable with zero
tolerance there.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np


class IntervalKind(str, Enum):
    TIMELIKE_FUTURE = "timelike_future"
    NULL_FUTURE = "null_future"
    SPACELIKE = "spacelike"
    TIMELIKE_PAST = "timelike_past"
    NULL_PAST = "null_past"
    COINCIDENT = "coincident"


@dataclass(frozen=True)
class EventSet:
    """Finite event set; events[:, 0] is the time coordinate, c the speed constant."""

    events: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        if ev.ndim != 2 or ev.shape[1] < 2:
            raise ValueError("events must be a 2-D array with at least two columns")
        if not np.isfinite(ev).all():
            raise ValueError("event coordinates must be finite")
        if self.c <= 0:
            raise ValueError("speed constant c must be > 0")
        uniq = np.unique(ev, axis=0)
        if uniq.shape[0] != ev.shape[0]:
            raise ValueError("duplicate events are not allowed")
        object.__setattr__(self, "events", ev)

    def __len__(self) -> int:
        return self.events.shape[0]


NULL_TOL = 1e-10


def classify_interval(p: Sequence[float], q: Sequence[float], c: float) -> IntervalKind:
    """Classify the displacement p -> q by the sign of its Minkowski interval.

    interval = -(c dt)^2 + |dx|^2, with a relative tolerance around zero for
    the null classification.
    """
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    tpart = (c * d[0]) ** 2
    xpart = float(np.dot(d[1:], d[1:]))
    scale = tpart + xpart
    if scale == 0.0:
        return IntervalKind.COINCIDENT
    interval = xpart - tpart
    future = d[0] > 0
    if abs(interval) <= NULL_TOL * scale:
        return IntervalKind.NULL_FUTURE if future else IntervalKind.NULL_PAST
    if interval < 0:
        return IntervalKind.TIMELIKE_FUTURE if future else IntervalKind.TIMELIKE_PAST
    return IntervalKind.SPACELIKE


def flat_cone_oracle(p: Sequence[float], q: Sequence[float], c: float) -> str:
    """Exact flat-space cone membership of q relative to p.

    'chronological' iff c^2 dt^2 > |dx|^2 and dt > 0; 'causal' iff >= and
    dt > 0; 'neither' otherwise.
    """
    d = np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    if d[0] <= 0:
        return "neither"
    tpart = (c * d[0]) ** 2
    xpart = float(np.dot(d[1:], d[1:]))
    if tpart > xpart:
        return "chronological"
    if tpart == xpart:
        return "causal"
    return "neither"


@dataclass
class CausalGraph:
    """Future-directed typed adjacency over an event set.

    Acyclic by construction: every edge strictly increases the time
    coordinate.  Edge lists are sorted by event index.
    """

    events: EventSet
    neighbor_radius: float
    timelike_children: list[np.ndarray]
    null_children: list[np.ndarray]
    children: list[np.ndarray]
    timelike_parents: list[np.ndarray]
    parents: list[np.ndarray]

    def __len__(self) -> int:
        return len(self.events)

    def is_edge(self, i: int, j: int) -> bool:
        row = self.children[i]
        k = np.searchsorted(row, j)
        return bool(k < row.size and row[k] == j)

    def sources(self) -> list[int]:
        return [i for i in range(len(self)) if self.parents[i].size == 0]


def build_graph(events: EventSet, radius: float) -> CausalGraph:
    """Connect p -> q when q is within the Euclidean radius and causally future of p.

    Candidates come from a uniform cell list (Allen & Tildesley), never an n x n
    array: time O(n * occupancy), memory O(n + edges).
    """
    if radius <= 0:
        raise ValueError("neighbor radius must be > 0")
    ev = events.events
    n, dim = ev.shape
    c = events.c
    rel = ev - ev.min(axis=0, initial=np.inf)
    span = float(rel.max(initial=0.0))
    # A hair wider than radius and the rounding of rel / side, so a pair within radius is never
    # two cells apart; a spread over 2**62 cells gets wider cells, which only adds candidates.
    side = max(radius * (1 + 1e-9) + 1e-14 * span, span / (2 ** (62 / dim) - 3))
    cell = np.floor(rel / side).astype(np.int64) + 1
    shape = cell.max(axis=0, initial=0) + 2  # a free layer of cells on each side
    strides = np.cumprod(np.r_[shape[1:], 1][::-1])[::-1]
    key = cell @ strides
    order = np.argsort(key, kind="stable")
    key, ev = key[order], ev[order]  # events in cell order: a cell's candidates are contiguous
    found = []
    # Children are later, so only neighbour cells at time offset 0 or +1 are searched.
    for off in np.array(list(itertools.product((0, 1), *[(-1, 0, 1)] * (dim - 1)))) @ strides:
        start = np.searchsorted(key, key + off, "left")
        count = np.searchsorted(key, key + off, "right") - start
        i = np.repeat(np.arange(n), count)
        j = np.arange(i.size) + np.repeat(start - np.cumsum(count) + count, count)
        d = ev.take(j, axis=0) - ev.take(i, axis=0)
        dt, dx = d[:, 0], d[:, 1:]
        xpart = np.einsum("ik,ik->i", dx, dx)
        tpart = (c * dt) ** 2
        interval = xpart - tpart
        is_null = np.abs(interval) <= NULL_TOL * (tpart + xpart)
        edge = (dt**2 + xpart <= radius * radius) & (dt > 0) & (is_null | (interval < 0))
        found.append((order[i[edge]], order[j[edge]], is_null[edge]))
    src, dst, null = (np.concatenate(a) for a in zip(*found))
    return CausalGraph(
        events=events,
        neighbor_radius=float(radius),
        timelike_children=_rows(src[~null], dst[~null], n),
        null_children=_rows(src[null], dst[null], n),
        children=_rows(src, dst, n),
        timelike_parents=_rows(dst[~null], src[~null], n),
        parents=_rows(dst, src, n),
    )


def _rows(heads: np.ndarray, tails: np.ndarray, n: int) -> list[np.ndarray]:
    """For each of the n events, the tails of its edges heads -> tails, sorted by index."""
    order = np.argsort(heads * n + tails)
    bounds = np.searchsorted(heads[order], np.arange(n + 1)).tolist()
    tails = tails[order]
    return [tails[a:b] for a, b in zip(bounds, bounds[1:])]


def _reach(S: Iterable[int], adjacency: list[np.ndarray], include_seeds: bool) -> set[int]:
    """Events reachable from S by paths of length >= 1 along adjacency, plus S if include_seeds."""
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
    return _as_set(visited)


def _as_set(mask: np.ndarray) -> set[int]:
    return set(int(i) for i in np.flatnonzero(mask))


def chronological_future(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """I+(S): events reachable from S by paths of time-like edges (length >= 1)."""
    return _reach(S, graph.timelike_children, include_seeds=False)


def causal_future(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """J+(S): reachable by time-like or null edges; includes S itself."""
    return _reach(S, graph.children, include_seeds=True)


def chronological_past(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """I-(S): mirror of I+ on reversed edges."""
    return _reach(S, graph.timelike_parents, include_seeds=False)


def causal_past(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """J-(S): mirror of J+ on reversed edges; includes S."""
    return _reach(S, graph.parents, include_seeds=True)


def pasts(S: Iterable[int], graph: CausalGraph) -> tuple[set[int], set[int]]:
    """(I-(S), J-(S))."""
    S = list(S)
    return chronological_past(S, graph), causal_past(S, graph)


def is_achronal(S: Iterable[int], graph: CausalGraph) -> bool:
    """True iff no event of S lies in the chronological future of S."""
    s_set = set(int(i) for i in S)
    return not (chronological_future(s_set, graph) & s_set)


def future_boundary(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """Discrete stand-in for the boundary of I+(S): J+(S) \\ I+(S).

    The causally-but-not-chronologically reachable shell.  See the module
    docstring for why this set is achronal on covering-radius flat graphs.
    """
    s_list = list(S)
    return causal_future(s_list, graph) - chronological_future(s_list, graph)


def null_boundary_check(path: Sequence[int], graph: CausalGraph) -> float:
    """Max |Minkowski interval| over consecutive pairs of a graph path.

    Small values certify the discrete null-geodesic property of curves inside
    the future boundary.  A step that is not a graph edge raises.
    """
    if len(path) < 2:
        return 0.0
    ev = graph.events.events
    c = graph.events.c
    worst = 0.0
    for a, b in zip(path, path[1:]):
        if not graph.is_edge(int(a), int(b)):
            raise ValueError(f"path step {a} -> {b} is not a graph edge")
        d = ev[int(b)] - ev[int(a)]
        interval = float(np.dot(d[1:], d[1:]) - (c * d[0]) ** 2)
        worst = max(worst, abs(interval))
    return worst


def _topological_order(graph: CausalGraph) -> np.ndarray:
    # Edges strictly increase the time coordinate, so sorting by it is a
    # topological order (ties carry no edges between them).
    return np.argsort(graph.events.events[:, 0], kind="stable")


def _dependence(S: Iterable[int], graph: CausalGraph, preds: list[np.ndarray], order: np.ndarray) -> set[int]:
    """Events in S, or with at least one pred and every pred already good, visiting in order."""
    in_s = np.zeros(len(graph), dtype=bool)
    in_s[[int(i) for i in S]] = True
    good = np.zeros(len(graph), dtype=bool)
    for i in order:
        p = preds[i]
        good[i] = in_s[i] or (p.size > 0 and bool(good[p].all()))
    return _as_set(good)


def future_dependence(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """D+(S): events all of whose maximal backward causal paths meet S.

    Dynamic programming in topological order: good(p) = p in S, or p has
    in-edges and every in-neighbor is good.
    """
    return _dependence(S, graph, graph.parents, _topological_order(graph))


def past_dependence(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """D-(S): mirror of D+ on reversed edges."""
    return _dependence(S, graph, graph.children, _topological_order(graph)[::-1])


def dependence_domain(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """D(S) = D+(S) union D-(S)."""
    s_list = list(S)
    return future_dependence(s_list, graph) | past_dependence(s_list, graph)


@dataclass
class CauchyResult:
    is_cauchy: bool
    witness_kind: Optional[str] = None  # "chronology" or "uncovered"
    witness: Optional[tuple] = None


def is_cauchy_surface(sigma: Iterable[int], graph: CausalGraph) -> CauchyResult:
    """True iff sigma is achronal and D(sigma) covers every event.

    On failure the result carries a witness: a chronologically related pair
    inside sigma, or an event outside D(sigma).
    """
    s_set = set(int(i) for i in sigma)
    future = chronological_future(s_set, graph)
    clash = sorted(future & s_set)
    if clash:
        q = clash[0]
        return CauchyResult(False, "chronology", (min(chronological_past({q}, graph) & s_set), q))
    covered = dependence_domain(s_set, graph)
    for i in range(len(graph)):
        if i not in covered:
            return CauchyResult(False, "uncovered", (i,))
    return CauchyResult(True)


class NotCauchySurfaceError(ValueError):
    """intercept_check was given a set that is not a Cauchy surface."""


class PathLimitError(RuntimeError):
    """An exhaustive intercept_check found more maximal paths than its limit."""


@dataclass
class InterceptReport:
    paths_checked: int
    violations: list[tuple[tuple[int, ...], str]]

    @property
    def ok(self) -> bool:
        return not self.violations


def _iter_maximal_paths(graph: CausalGraph, limit: int):
    """All maximal causal paths (source to sink), depth-first, index order."""
    count = 0
    for src in graph.sources():
        stack = [(src, 0)]  # (node, depth): path[depth - 1] is the node's parent
        path: list[int] = []
        while stack:
            node, depth = stack.pop()
            del path[depth:]
            path.append(node)
            succs = graph.children[node]
            if succs.size == 0:
                count += 1
                if count > limit:
                    raise PathLimitError(f"more than {limit} maximal paths; use sampling instead")
                yield tuple(path)
                continue
            stack.extend((int(j), depth + 1) for j in succs[::-1])


def sample_maximal_path(graph: CausalGraph, rng: np.random.Generator, sources=None) -> tuple[int, ...]:
    """One maximal causal path by a uniform forward walk from a random source (graph.sources() if None)."""
    sources = graph.sources() if sources is None else sources
    node = int(sources[rng.integers(len(sources))])
    path = [node]
    while graph.children[node].size > 0:
        succs = graph.children[node]
        node = int(succs[rng.integers(succs.size)])
        path.append(node)
    return tuple(path)


def intercept_check(
    sigma: Iterable[int],
    graph: CausalGraph,
    samples: Optional[int] = None,
    seed: int = 0,
    path_limit: int = 200000,
) -> InterceptReport:
    """Verify every maximal causal path meets sigma, I+(sigma), and I-(sigma).

    Exhaustive when samples is None (desk-scale graphs), otherwise a seeded
    sample of maximal paths.  Requires sigma to be a Cauchy surface.
    """
    s_set = set(int(i) for i in sigma)
    verdict = is_cauchy_surface(s_set, graph)
    if not verdict.is_cauchy:
        raise NotCauchySurfaceError(
            f"intercept_check precondition failed: sigma is not a Cauchy surface "
            f"({verdict.witness_kind} witness {verdict.witness})"
        )
    i_plus = chronological_future(s_set, graph)
    i_minus = chronological_past(s_set, graph)

    def check(path: tuple[int, ...]) -> Optional[str]:
        nodes = set(path)
        if not (nodes & s_set):
            return "misses_sigma"
        if not (nodes & i_plus):
            return "misses_I+"
        if not (nodes & i_minus):
            return "misses_I-"
        return None

    violations: list[tuple[tuple[int, ...], str]] = []
    checked = 0
    if samples is None:
        for path in _iter_maximal_paths(graph, path_limit):
            checked += 1
            miss = check(path)
            if miss:
                violations.append((path, miss))
    else:
        rng = np.random.default_rng(seed)
        sources = graph.sources()
        for _ in range(samples):
            path = sample_maximal_path(graph, rng, sources)
            checked += 1
            miss = check(path)
            if miss:
                violations.append((path, miss))
    return InterceptReport(paths_checked=checked, violations=violations)


def flat_grid_events(
    t_span: tuple[float, float],
    x_span: tuple[float, float],
    nt: int,
    nx: int,
    c: float = 1.0,
) -> EventSet:
    """Regular (t, x) grid of events, row-major with t varying slowest."""
    t = np.linspace(*t_span, nt)
    x = np.linspace(*x_span, nx)
    tt, xx = np.meshgrid(t, x, indexing="ij")
    ev = np.stack([tt.ravel(), xx.ravel()], axis=-1)
    return EventSet(events=ev, c=c)


def load_events(path: str | Path, c: float = 1.0) -> EventSet:
    """Event file: one event per line, whitespace-separated, '#' comments."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    return EventSet(events=data, c=c)
