"""Output checks that do not trust the program.

Every check compares an answer of worldsheet with a computation done here,
apart from the program (a least-squares fit, an edge predicate and a
breadth-first search, closed-form cones on a lattice, a closed-form energy),
or with a property the method must have (invariance of J_K under ambient
Lorentz transformations).  Nothing is compared against a stored copy of an
earlier output.  A failed check raises ``CheckFailure`` naming what differs.
"""

from __future__ import annotations

import csv
import io
import math
from collections import deque
from typing import Iterable, Sequence

import numpy as np

# Relative tolerance of the null classification in the edge predicate, the
# same convention as the program's documented cone: |interval| <= tol * scale.
NULL_TOL = 1e-10


class CheckFailure(AssertionError):
    pass


# --- continuation ----------------------------------------------------------


def loglog_slope(ks: Sequence[float], rs: Sequence[float]) -> float:
    """Least-squares slope of log10 r against log10 K."""
    if len(ks) != len(rs) or len(ks) < 2:
        raise ValueError("need two or more (K, residual) pairs")
    x = [math.log10(k) for k in ks]
    y = [math.log10(r) for r in rs]
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    sxx = sum((a - mx) ** 2 for a in x)
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    return sxy / sxx


def parse_report_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_minimize(
    exit_code: int,
    rows: list[dict[str, str]],
    grad_tol: float,
    max_iters: int,
    band: tuple[float, float],
) -> dict[str, float]:
    """Exit 0, every K leg converged, residual slopes inside the band.

    Returns the slopes fitted here, keyed by constraint.  Residuals at machine
    zero are skipped, as the method prescribes.
    """
    if exit_code != 0:
        raise CheckFailure(f"minimize exited {exit_code}")
    if len(rows) < 2:
        raise CheckFailure(f"expected a row per K, got {len(rows)}")
    for row in rows:
        grad_norm = float(row["grad_norm"])
        iters = int(row["iterations"])
        if not grad_norm <= grad_tol:
            raise CheckFailure(f"K={row['K']}: grad_norm {grad_norm:g} > grad_tol {grad_tol:g}")
        if not iters < max_iters:
            raise CheckFailure(f"K={row['K']}: stopped at max_iters ({iters})")
    slopes = {}
    lo, hi = band
    for name in ("res_norm", "res_orth", "res_unit"):
        pairs = [(float(r["K"]), float(r[name])) for r in rows if float(r[name]) > 1e-12]
        if len(pairs) < 2:
            continue
        slope = loglog_slope([k for k, _ in pairs], [v for _, v in pairs])
        if not lo <= slope <= hi:
            raise CheckFailure(f"{name} slope {slope:.4f} outside [{lo}, {hi}]")
        slopes[name] = slope
    if not slopes:
        raise CheckFailure("no residual above machine zero to fit")
    return slopes


# --- sheet evaluation ------------------------------------------------------

ENERGY_PARTS = (
    "j1_curvature",
    "j2_dirichlet",
    "j2_christoffel",
    "penalty_norm",
    "penalty_orth",
    "penalty_unit",
    "total_J",
    "total_JK",
)


def lorentz_transform(rng: np.random.Generator, n_ambient: int) -> np.ndarray:
    """A seeded proper orthochronous Lorentz matrix: rotation times boost."""
    dim = n_ambient + 1
    q, r = np.linalg.qr(rng.standard_normal((n_ambient, n_ambient)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    rot = np.eye(dim)
    rot[1:, 1:] = q
    u = rng.standard_normal(n_ambient)
    u /= np.linalg.norm(u)
    eta = rng.uniform(0.2, 0.6)
    boost = np.eye(dim)
    boost[0, 0] = math.cosh(eta)
    boost[0, 1:] = boost[1:, 0] = math.sinh(eta) * u
    boost[1:, 1:] += (math.cosh(eta) - 1.0) * np.outer(u, u)
    lam = rot @ boost
    metric = np.diag(np.r_[-1.0, np.ones(n_ambient)])
    if not np.allclose(lam.T @ metric @ lam, metric, atol=1e-12):
        raise ValueError("constructed matrix is not a Lorentz transformation")
    return lam


def check_invariant(base, moved, rtol: float = 1e-9) -> None:
    """Each energy part agrees to rounding between two breakdowns."""
    scale = sum(abs(getattr(base, p)) for p in ENERGY_PARTS)
    for part in ENERGY_PARTS:
        a, b = getattr(base, part), getattr(moved, part)
        if not (math.isfinite(a) and math.isfinite(b)):
            raise CheckFailure(f"{part} not finite: {a!r}, {b!r}")
        if abs(a - b) > rtol * max(abs(a), abs(b)) + 1e-12 * scale:
            raise CheckFailure(f"{part} changed under a Lorentz transformation: {a!r} -> {b!r}")


def sphere_j1(phi0: complex, t_extent: float, polar: tuple[float, float], azimuth: tuple[float, float]) -> float:
    """J1 of the unperturbed sphere product: |phi0|^2 T int int sin u1 du1 du2.

    With outward unit normal the shape operator is -1/rho on both sphere
    directions, so g^{jk} b_jl b^l_k = 2/rho^2 and sqrt(-g) = rho^2 sin u1;
    the radius drops out.
    """
    a, b = polar
    c, d = azimuth
    return abs(phi0) ** 2 * t_extent * (math.cos(a) - math.cos(b)) * (d - c)


def check_second_order(value: float, exact: float, h_max: float, coef: float = 0.5) -> None:
    """|value - exact| <= coef * h_max^2 * |exact|."""
    if not abs(value - exact) <= coef * h_max**2 * abs(exact):
        raise CheckFailure(
            f"discrete value {value!r} misses the closed form {exact!r} "
            f"by more than {coef} h^2 (h = {h_max:g})"
        )


# --- causal sets -----------------------------------------------------------


def own_edges(ev: np.ndarray, c: float, radius: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Children of every event by the edge predicate, computed row block by row block.

    p -> q is an edge when q lies within Euclidean distance ``radius`` of p,
    strictly later, and not space-like (null up to NULL_TOL).  Returns the
    children over all edges and over time-like edges only, sorted by index.
    """
    n = ev.shape[0]
    children: list[np.ndarray] = []
    timelike: list[np.ndarray] = []
    for lo in range(0, n, 256):
        d = ev[None, :, :] - ev[lo : lo + 256, None, :]
        dt = d[..., 0]
        xs = np.einsum("ijk,ijk->ij", d[..., 1:], d[..., 1:])
        ts = (c * dt) ** 2
        interval = xs - ts
        edge = (dt * dt + xs <= radius * radius) & (dt > 0)
        null = np.abs(interval) <= NULL_TOL * (ts + xs)
        tl = edge & ~null & (interval < 0)
        ed = tl | (edge & null)
        children.extend(np.flatnonzero(row) for row in ed)
        timelike.extend(np.flatnonzero(row) for row in tl)
    return children, timelike


def bfs(seeds: Iterable[int], adjacency: Sequence[np.ndarray], include_seeds: bool) -> set[int]:
    """Events reachable from the seeds by one or more steps (plus the seeds if asked)."""
    seen: set[int] = set()
    queue = deque()
    for s in seeds:
        for j in adjacency[int(s)]:
            if int(j) not in seen:
                seen.add(int(j))
                queue.append(int(j))
    while queue:
        i = queue.popleft()
        for j in adjacency[i]:
            if int(j) not in seen:
                seen.add(int(j))
                queue.append(int(j))
    if include_seeds:
        seen.update(int(s) for s in seeds)
    return seen


def reverse(adjacency: Sequence[np.ndarray]) -> list[list[int]]:
    parents: list[list[int]] = [[] for _ in adjacency]
    for i, kids in enumerate(adjacency):
        for j in kids:
            parents[int(j)].append(i)
    return parents


def dependence(S: Iterable[int], ev: np.ndarray, parents: Sequence[Sequence[int]]) -> set[int]:
    """D+(S) by its definition: every maximal backward path meets S.

    An event qualifies when it is in S, or has parents and all of them
    qualify; earlier events are decided first.
    """
    in_s = set(int(i) for i in S)
    good: set[int] = set()
    for i in np.argsort(ev[:, 0], kind="stable"):
        i = int(i)
        if i in in_s or (parents[i] and all(p in good for p in parents[i])):
            good.add(i)
    return good


def check_same(name: str, got: Iterable[int], expected: Iterable[int]) -> None:
    got, expected = set(got), set(expected)
    if got != expected:
        missing = sorted(expected - got)[:5]
        extra = sorted(got - expected)[:5]
        raise CheckFailure(f"{name}: missing {missing}, extra {extra} ({len(got)} vs {len(expected)})")


def check_children(graph_children: Sequence[np.ndarray], expected: Sequence[np.ndarray], sample: Iterable[int]) -> None:
    for i in sample:
        if not np.array_equal(np.asarray(graph_children[i]), expected[i]):
            raise CheckFailure(f"children of event {i} differ from the edge predicate")


def check_in_cone(members: Iterable[int], seeds: Sequence[int], ev: np.ndarray, c: float) -> None:
    """Every member is a seed or lies in the exact flat causal cone of one."""
    seed_set = set(int(s) for s in seeds)
    pts = ev[list(seed_set)]
    for m in members:
        if m in seed_set:
            continue
        d = ev[m] - pts
        inside = (d[:, 0] > 0) & ((c * d[:, 0]) ** 2 >= np.einsum("ij,ij->i", d[:, 1:], d[:, 1:]))
        if not inside.any():
            raise CheckFailure(f"event {m} is outside the causal cone of every seed")


# --- flat lattice, unit steps, radius between sqrt(2) and 2 ----------------


def lattice_cone(event: int, nx: int, nt: int, future: bool) -> set[int]:
    """J+ (or J-) of one lattice event: rows on that side with |dcol| <= |drow|."""
    r0, c0 = divmod(event, nx)
    rows = range(r0, nt) if future else range(r0, -1, -1)
    return {r * nx + c for r in rows for c in range(nx) if abs(c - c0) <= abs(r - r0)}


def lattice_column(event: int, nx: int, nt: int, future: bool) -> set[int]:
    """I+ (or I-) of one lattice event: only the vertical edges are time-like."""
    r0, c0 = divmod(event, nx)
    rows = range(r0 + 1, nt) if future else range(r0 - 1, -1, -1)
    return {r * nx + c0 for r in rows}


def lattice_rows(rows: Iterable[int], nx: int) -> set[int]:
    return {r * nx + c for r in rows for c in range(nx)}
