"""Causal structure on finite event sets.

Events are points of R^{n+1} whose first coordinate is the time coordinate
(scaled by the speed constant c during interval classification, so it equals
c*t when c = 1).  A causal graph carries future-directed edges typed as
time-like or null; discrete curves are graph paths, with "time-like curve"
meaning every edge time-like and "causal curve" allowing null edges.  All
chronological/causal futures and pasts, achronality, boundaries, domains of
dependence, and Cauchy-surface checks run against this graph, with an exact
flat-space cone oracle for validation.

The graph keeps each edge once per direction as compressed sparse rows (CSR:
indptr, indices, is_null; Saad, Iterative Methods for Sparse Linear Systems,
3.4).  Every set-valued query is a pull sweep over boolean masks, a whole
layer of a cached longest-path layering per numpy pass: masks inside, sets
only at a public function's return.  Maximal paths, all of them or a seeded
sample, come from one lockstep walk (_walks).

The discrete stand-in for the future boundary of I+(S) is J+(S) \\ I+(S).
On a flat event set whose radius covers every pair, two boundary events can
never be chronologically related: a time-like displacement composed with a
causal one is time-like, and the covering radius turns that vector argument
into a graph path.  This makes the achronality theorem checkable with zero
tolerance there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

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
        _speed(self.c)
        srt = ev[np.lexsort(ev.T)]  # equal rows, -0.0 and 0.0 alike, end up neighbours
        if (srt[1:] == srt[:-1]).all(axis=1).any():
            raise ValueError("duplicate events are not allowed")
        object.__setattr__(self, "events", ev)

    def __len__(self) -> int:
        return self.events.shape[0]


NULL_TOL = 1e-10
# build_graph's cost model, in edge tests of one candidate pair (about 65 ns on a shared 2-core Xeon): a neighbour-cell
# offset pays a fixed numpy overhead and a lookup per event.
_OFFSET_COST, _LOOKUP_COST = 500.0, 0.9


def _speed(c: float) -> float:
    """c, refused unless finite and at least 2^-1022: below that no power of two keeps both squares of a unit step."""
    if not 2.0**-1022 <= c < math.inf:
        raise ValueError("speed constant c must be finite and >= 2**-1022, the least normal float")
    return c


def _cone(dt, xpart, c: float):
    """(causal, null) of steps dt, |dx|^2 = xpart at speed c: the one cone rule of every edge and interval kind.
    Null iff |xpart - (c dt)^2| <= NULL_TOL ((c dt)^2 + xpart), causal iff null or xpart < (c dt)^2.  Both squares are
    scaled by h^2, h = 2^-(e // 2) for c = m 2^e, which rounds nothing: exact where the scaled squares are normal, as
    for steps near unit size at any normal c.  A step far from unit size may still leave the range (h balances c only)."""
    h = 2.0 ** -(math.frexp(c)[1] // 2)
    tpart, xpart = (c * h * dt) ** 2, xpart * (h * h)
    null = np.abs(xpart - tpart) <= NULL_TOL * (tpart + xpart)
    return null | (xpart < tpart), null


def classify_interval(p: Sequence[float], q: Sequence[float], c: float) -> IntervalKind:
    """Classify the displacement p -> q by the sign of its Minkowski interval -(c dt)^2 + |dx|^2, by _cone's rule."""
    c, d = _speed(c), np.asarray(q, dtype=float) - np.asarray(p, dtype=float)
    if not d.any():
        return IntervalKind.COINCIDENT
    causal, null = _cone(d[0], float(np.dot(d[1:], d[1:])), c)
    if null:
        return IntervalKind.NULL_FUTURE if d[0] > 0 else IntervalKind.NULL_PAST
    if causal:
        return IntervalKind.TIMELIKE_FUTURE if d[0] > 0 else IntervalKind.TIMELIKE_PAST
    return IntervalKind.SPACELIKE


def flat_cone_oracle(p: Sequence[float], q: Sequence[float], c: float) -> str:
    """Exact flat-space cone membership of q relative to p where (c dt)^2 and |dx|^2 are normal floats, independent of
    _cone: 'chronological' iff c^2 dt^2 > |dx|^2 and dt > 0; 'causal' iff >= and dt > 0; 'neither' otherwise."""
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


class Edges(NamedTuple):
    """CSR edge rows: row i is indices[indptr[i]:indptr[i + 1]], sorted, and is_null flags each edge."""

    indptr: np.ndarray
    indices: np.ndarray
    is_null: np.ndarray


def _split(edges: Edges, null: Optional[bool]) -> list[np.ndarray]:
    """Per event, its row of edges: every edge, or only the null (True) or time-like (False) ones."""
    keep = np.ones_like(edges.is_null) if null is None else edges.is_null == null
    bounds = np.r_[0, np.cumsum(keep)][edges.indptr].tolist()
    kept = edges.indices[keep]
    return [kept[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass
class CausalGraph:
    """Future-directed typed adjacency over an event set.

    Acyclic by construction: every edge strictly increases the time
    coordinate.  forward holds the out-edges and backward the same edges
    reversed.  Derived on first read: each direction's layering for _reach, and
    the row lists children and timelike_children for callers outside this module.
    """

    events: EventSet
    neighbor_radius: float
    forward: Edges
    backward: Edges

    children = cached_property(lambda self: _split(self.forward, None))
    timelike_children = cached_property(lambda self: _split(self.forward, False))
    _forward_layers = cached_property(lambda self: _layering(self.backward, self.forward))
    _backward_layers = cached_property(lambda self: _layering(self.forward, self.backward))

    def __len__(self) -> int:
        return len(self.events)

    def is_edge(self, i: int, j: int) -> bool:
        return self._has_edge(*_indices((i, j), len(self)).tolist())

    def _has_edge(self, i: int, j: int) -> bool:
        """is_edge for two indices already checked."""
        lo, hi = self.forward.indptr[[i, i + 1]]
        k = lo + np.searchsorted(self.forward.indices[lo:hi], j)
        return bool(k < hi and self.forward.indices[k] == j)

    def sources(self) -> list[int]:
        return np.flatnonzero(np.diff(self.backward.indptr) == 0).tolist()


def build_graph(events: EventSet, radius: float) -> CausalGraph:
    """Connect p -> q when q is within the Euclidean radius and causally future of p.

    Candidates come from a cell list (Allen & Tildesley), never an n x n array: memory O(n + edges).  A cell spans
    radius along t and, along each space axis, the cone's reach radius * c / sqrt(1 + c^2), as far as a causal step
    within radius goes.  Only the first b coordinates are binned, and the edge test filters the rest: per call a cost
    model picks b, weighing (3^b + 1) / 2 neighbour-cell lookups per event against the binned axes' candidates.
    On 2 shared cores 300 uniform events at 9 columns build in 3.5-8 ms (b = 2), 0.74-0.78 s with cubic cells on all 9.
    """
    if not 0 < radius < np.inf:
        raise ValueError("neighbor radius must be finite and > 0")
    return _build_graph(events, float(radius), None)


def _build_graph(events: EventSet, radius: float, depth: Optional[int]) -> CausalGraph:
    """build_graph binning the first depth coordinates, or as many as the cost model picks if depth is None."""
    ev, c, (n, dim) = events.events, events.c, events.events.shape
    rel = ev - ev.min(axis=0, initial=np.inf)
    span = rel.max(axis=0, initial=0.0)
    reach = radius * np.r_[1.0, np.full(dim - 1, c / np.hypot(1.0, c))]  # hypot: no overflow at huge c
    # A hair wider than the reach and the rounding of rel / side, so an edge never spans two cells of an axis; a spread
    # over 2**62 cells gets wider cells, which only adds candidates, and no cell is 0 wide (radius * c may underflow).
    side = np.maximum(reach * (1 + 1e-9) + 1e-14 * span, span / (2 ** (62 / dim) - 3) + np.finfo(float).tiny)
    cell = np.floor(rel / side).astype(np.int64) + 1
    if depth is None:  # of the n^2 / 2 pairs, about those at most one cell apart on every binned axis are candidates
        share = np.cumprod([(np.searchsorted(s, s + 1, "right") - np.searchsorted(s, s - 1, "left")).sum() / max(n * n, 1)
                            for s in np.sort(cell.T)])
        depth = int(np.argmin((3.0 ** np.arange(1, dim + 1) + 1) / 2 * (_OFFSET_COST + _LOOKUP_COST * n) + n * n / 2 * share)) + 1
    cell = cell[:, :depth]
    shape = cell.max(axis=0, initial=0) + 2  # a free layer of cells on each side
    strides = np.cumprod(np.r_[shape[1:], 1][::-1])[::-1]
    key = cell @ strides
    order = np.argsort(key, kind="stable")
    key, ev = key[order], ev[order]  # events in cell order: a cell's candidates are contiguous
    found = []
    # Children are later, so only neighbour cells at time offset 0 or +1 are searched.  Offsets o and -o see the same pairs
    # swapped, so only the (3^b + 1) / 2 offsets o >= 0 are, and dt orients each pair (o = 0 sees both: keep dt > 0).
    for off in np.array([o for o in itertools.product((0, 1), *[(-1, 0, 1)] * (depth - 1)) if o >= (0,) * depth]) @ strides:
        i, j = _gather(np.searchsorted(key, key + off, "left"), np.searchsorted(key, key + off, "right"))
        d = ev.take(j, axis=0) - ev.take(i, axis=0)
        dt, xpart = d[:, 0], np.einsum("ik,ik->i", d[:, 1:], d[:, 1:])
        causal, is_null = _cone(dt, xpart, c)
        edge = (dt**2 + xpart <= radius * radius) & ((dt > 0) | (off > 0) & (dt < 0)) & causal
        i, j, later = i[edge], j[edge], dt[edge] > 0
        found.append((order[np.where(later, i, j)], order[np.where(later, j, i)], is_null[edge]))
    src, dst, null = (np.concatenate(a) for a in zip(*found))
    return CausalGraph(events, radius, _csr(src, dst, null, n), _csr(dst, src, null, n))


def _csr(heads: np.ndarray, tails: np.ndarray, is_null: np.ndarray, n: int) -> Edges:
    """The edges heads -> tails as CSR rows over n events, by one sort."""
    order = np.argsort(heads * n + tails)
    return Edges(np.r_[0, np.cumsum(np.bincount(heads, minlength=n))], tails[order], is_null[order])


def _gather(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every position in the ranges start[k] .. stop[k] - 1, concatenated, and the k of each."""
    count = stop - start
    k = np.repeat(np.arange(count.size), count)
    return k, np.arange(k.size) + np.repeat(start - np.cumsum(count) + count, count)


def _indices(S: Iterable[int], n: int) -> np.ndarray:
    """S as event indices; an index not an integer in 0..n-1 raises (numpy would cut 1.7, wrap -1), and so does
    a boolean mask or a bool among the indices (True and False would be read as the events 1 and 0)."""
    items = list(S)
    idx = np.asarray(items)
    if idx.dtype == bool:
        raise ValueError("event indices must be integers, not a boolean mask")
    if not {bool, np.bool_}.isdisjoint(map(type, items)):
        raise ValueError(f"event index {next(s for s in items if type(s) in (bool, np.bool_))} is a bool, not an integer")
    if idx.dtype.kind not in "iu":
        cut = idx[np.trunc(idx) != idx]
        if cut.size:
            raise ValueError(f"event index {cut[0]} is not an integer")
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise ValueError(f"event index {bad[0]} outside 0..{n - 1}")
    return idx.astype(np.int64)


def _mask(S: Iterable[int], n: int) -> np.ndarray:
    """S as a mask over n events."""
    return np.bincount(_indices(S, n), minlength=n) > 0


def _members(mask: np.ndarray) -> set[int]:
    """The events of a mask, as the set a public query returns: the one place a mask becomes a set."""
    return set(np.flatnonzero(mask).tolist())


def _layering(pull: Edges, push: Edges) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """Longest-path layers from the events with empty pull rows by a vectorised Kahn pass (CACM 5, 558, 1962): each event's
    layer, and per later layer its events, their pull rows (never empty) concatenated, time-like flags and row starts."""
    layer, wait = np.zeros(pull.indptr.size - 1, dtype=np.int64), np.diff(pull.indptr)
    ready, depth = np.flatnonzero(wait == 0), 0
    while ready.size:
        layer[ready], depth = depth, depth + 1
        kids = push.indices[_gather(push.indptr[ready], push.indptr[ready + 1])[1]]
        np.subtract.at(wait, kids, 1)
        ready = kids[wait[kids] == 0]
        wait[ready] = stamp = ~np.arange(ready.size)  # of a kid's copies, keep the one whose stamp stuck: no sort
        ready = ready[wait[ready] == stamp]
    order = np.argsort(layer, kind="stable")
    cut = np.searchsorted(layer[order], np.arange(1, depth + 1)).tolist()  # where layers 1, 2, ... start, then n
    seg = np.r_[0, np.cumsum(np.diff(pull.indptr)[order])]
    pos = _gather(pull.indptr[order], pull.indptr[order + 1])[1]
    par, timelike, at = pull.indices[pos], ~pull.is_null[pos], seg.tolist()
    return layer, [(order[a:b], par[at[a] : at[b]], timelike[at[a] : at[b]], seg[a:b] - at[a]) for a, b in zip(cut, cut[1:])]


def _reach(seeds: np.ndarray, graph: CausalGraph, forward: bool, chronological: bool, avoid: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the events reachable from the seeds mask by paths of length >= 1, forward or backward, that never enter
    avoid: time-like edges only if chronological, else every edge and the seeds.  A pull sweep (Beamer, Asanovic & Patterson,
    SC 2012) over the cached layers after the seeds' first: O(in-edges after the first seed + layers), with no sort."""
    layer, steps = graph._forward_layers if forward else graph._backward_layers
    hit, out = seeds.copy(), np.zeros_like(seeds)
    for ev, par, timelike, seg in steps[layer[seeds].min(initial=len(steps)) :]:
        got = np.logical_or.reduceat(hit[par] & timelike if chronological else hit[par], seg)
        out[ev] = got = got if avoid is None else got & ~avoid[ev]
        hit[ev] |= got
    out = out if chronological else hit
    return out if avoid is None else out & ~avoid


def chronological_future(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """I+(S): events reachable from S by paths of time-like edges (length >= 1)."""
    return _members(_reach(_mask(S, len(graph)), graph, forward=True, chronological=True))


def causal_future(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """J+(S): reachable by time-like or null edges; includes S itself."""
    return _members(_reach(_mask(S, len(graph)), graph, forward=True, chronological=False))


def chronological_past(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """I-(S): mirror of I+ on reversed edges."""
    return _members(_reach(_mask(S, len(graph)), graph, forward=False, chronological=True))


def causal_past(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """J-(S): mirror of J+ on reversed edges; includes S."""
    return _members(_reach(_mask(S, len(graph)), graph, forward=False, chronological=False))


def pasts(S: Iterable[int], graph: CausalGraph) -> tuple[set[int], set[int]]:
    """(I-(S), J-(S))."""
    S = list(S)
    return chronological_past(S, graph), causal_past(S, graph)


def is_achronal(S: Iterable[int], graph: CausalGraph) -> bool:
    """True iff no event of S lies in the chronological future of S."""
    s = _mask(S, len(graph))
    return not (_reach(s, graph, forward=True, chronological=True) & s).any()


def future_boundary(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """Discrete stand-in for the boundary of I+(S): J+(S) \\ I+(S).

    The causally-but-not-chronologically reachable shell.  See the module
    docstring for why this set is achronal on covering-radius flat graphs.
    """
    s = _mask(S, len(graph))
    return _members(_reach(s, graph, True, chronological=False) & ~_reach(s, graph, True, chronological=True))


def null_boundary_check(path: Sequence[int], graph: CausalGraph) -> float:
    """Max |Minkowski interval| over consecutive pairs of a graph path.

    Small values certify the discrete null-geodesic property of curves inside
    the future boundary.  A step that is not a graph edge raises.
    """
    path = _indices(path, len(graph))
    for a, b in zip(path.tolist(), path[1:].tolist()):
        if not graph._has_edge(a, b):
            raise ValueError(f"path step {a} -> {b} is not a graph edge")
    d = np.diff(graph.events.events[path], axis=0)
    interval = np.einsum("ij,ij->i", d[:, 1:], d[:, 1:]) - (graph.events.c * d[:, 0]) ** 2
    return float(np.abs(interval).max(initial=0.0))


def _dependence(s: np.ndarray, graph: CausalGraph, forward: bool) -> np.ndarray:
    """Mask of the events all of whose maximal paths against the direction meet the mask s: all but those
    that the direction's sources (layer 0) outside s reach without entering s."""
    layer = (graph._forward_layers if forward else graph._backward_layers)[0]
    return ~_reach((layer == 0) & ~s, graph, forward, chronological=False, avoid=s)


def future_dependence(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """D+(S): events all of whose maximal backward causal paths meet S."""
    return _members(_dependence(_mask(S, len(graph)), graph, forward=True))


def past_dependence(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """D-(S): mirror of D+ on reversed edges."""
    return _members(_dependence(_mask(S, len(graph)), graph, forward=False))


def dependence_domain(S: Iterable[int], graph: CausalGraph) -> set[int]:
    """D(S) = D+(S) union D-(S)."""
    s = _mask(S, len(graph))
    return _members(_dependence(s, graph, True) | _dependence(s, graph, False))


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
    return _cauchy_verdict(_mask(sigma, len(graph)), graph)[0]


def _cauchy_verdict(s: np.ndarray, graph: CausalGraph) -> tuple[CauchyResult, np.ndarray]:
    """is_cauchy_surface's result for the mask s, with the I+(s) mask it walked."""
    i_plus = _reach(s, graph, forward=True, chronological=True)
    clash = i_plus & s
    if clash.any():
        q = int(clash.argmax())
        p = int((_reach(_mask([q], len(graph)), graph, forward=False, chronological=True) & s).argmax())
        return CauchyResult(False, "chronology", (p, q)), i_plus
    uncovered = ~(_dependence(s, graph, True) | _dependence(s, graph, False))
    if uncovered.any():
        return CauchyResult(False, "uncovered", (int(uncovered.argmax()),)), i_plus
    return CauchyResult(True), i_plus


class NotCauchySurfaceError(ValueError):
    """intercept_check was given a set that is not a Cauchy surface."""


class PathLimitError(RuntimeError):
    """An exhaustive intercept_check found more maximal paths than PATH_LIMIT."""


# Beyond this many maximal paths an exhaustive intercept_check gives up: sample larger graphs.
PATH_LIMIT = 200000

# Bits 1, 2, 4 of a path's code: it meets sigma, I+(sigma), I-(sigma).  Code m < 7 is a violation,
# labelled by its lowest clear bit: the first of the three regions that the path misses.
_LABELS = tuple(("misses_sigma", "misses_I+", "misses_I-")[(~m & m + 1).bit_length() - 1] for m in range(7))


@dataclass
class InterceptReport:
    paths_checked: int
    violations: list[tuple[tuple[int, ...], str]]

    @property
    def ok(self) -> bool:
        return not self.violations


def _walks(forward: Edges, starts: Sequence[int], rng: Optional[np.random.Generator] = None, samples: int = 0) -> np.ndarray:
    """Maximal causal paths by forward walks from starts, all in lockstep: row k is path k's events, padded with -1
    after its sink.  Exhaustive if rng is None: each row branches into all its children in index order, so the rows
    come out depth-first, and more than PATH_LIMIT rows raise.  Else samples walks from uniform random starts, each
    step to a uniform child.  A sentinel event -1, last in lo and count, is the only child of each sink and itself."""
    count = np.diff(forward.indptr)
    lo = np.append(np.where(count, forward.indptr[:-1], forward.indices.size), forward.indices.size)
    count, indices = np.append(np.maximum(count, 1), 1), np.append(forward.indices, -1)
    node = np.asarray(starts, dtype=np.int64)
    node = node if rng is None or not node.size else node[rng.integers(node.size, size=samples)]
    steps = [(None, node)]  # per step: each row's row in the step before (None: the same row), and its events
    while not (node < 0).all():
        if rng is None:
            k, pos = _gather(lo[node], lo[node] + count[node])
            if k.size > PATH_LIMIT:
                raise PathLimitError(f"more than {PATH_LIMIT} maximal paths; use sampling instead")
        else:
            k, pos = None, lo[node] + rng.integers(count[node])  # a range of one draws nothing
        node = indices[pos]
        steps.append((k, node))
    rows, cols = slice(None), []
    for k, at in reversed(steps):
        cols.append(at[rows])
        rows = rows if k is None else k[rows]
    return np.stack(cols[::-1], axis=1)[:, :-1]  # the last step took every row to the sentinel


def sample_maximal_path(graph: CausalGraph, rng: np.random.Generator, sources=None) -> tuple[int, ...]:
    """One maximal causal path by a uniform forward walk from a random source (graph.sources() if None)."""
    for walk in _walks(graph.forward, _indices(graph.sources() if sources is None else sources, len(graph)), rng, 1):
        return tuple(walk.tolist())
    raise ValueError("the graph has no source events")


def intercept_check(
    sigma: Iterable[int],
    graph: CausalGraph,
    samples: Optional[int] = None,
    seed: int = 0,
) -> InterceptReport:
    """Verify every maximal causal path meets sigma, I+(sigma), and I-(sigma).

    Exhaustive when samples is None (desk-scale graphs; paths in depth-first order), otherwise a seeded
    sample; one lockstep walk serves both.  Requires sigma to be a Cauchy surface.
    """
    if samples is not None and (isinstance(samples, bool) or not (isinstance(samples, (int, np.integer)) and samples >= 1)):
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    s = _mask(sigma, len(graph))
    verdict, i_plus = _cauchy_verdict(s, graph)
    if not verdict.is_cauchy:
        raise NotCauchySurfaceError(
            f"intercept_check precondition failed: sigma is not a Cauchy surface "
            f"({verdict.witness_kind} witness {verdict.witness})"
        )
    code = np.r_[s | i_plus << 1 | _reach(s, graph, forward=False, chronological=True) << 2, 0]  # [-1]: walk padding
    walks = _walks(graph.forward, graph.sources(), None if samples is None else np.random.default_rng(seed), samples)
    met = np.bitwise_or.reduce(code[walks], axis=1)
    bad = walks[met < 7]
    flat, ends = bad[bad >= 0].tolist(), np.cumsum((bad >= 0).sum(axis=1)).tolist()
    violations = [(tuple(flat[a:b]), _LABELS[m]) for a, b, m in zip([0] + ends, ends, met[met < 7].tolist())]
    return InterceptReport(paths_checked=len(walks), violations=violations)


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
    if not data.size:
        raise ValueError(f"event file {path} has no events")
    return EventSet(events=data, c=c)
