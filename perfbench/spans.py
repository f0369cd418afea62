"""Spans around the calls into worldsheet's layers, recorded from outside.

``install`` replaces each traced public function by a wrapper wherever a
caller looks it up: every worldsheet module attribute bound to that function
object (``worldsheet.optimizer.assemble_JK``, ``worldsheet.energy.
build_geometry``, ...), plus ``CausalGraph.sources`` on the class.  A span
records its name, start, end and the span open around it; self time is the
duration minus the time covered by child spans.  Spans stay in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from pathlib import Path

from worldsheet import causal, cli, energy, geometry, grid, optimizer, presets
import worldsheet

# (module, attribute, span name).  Several functions may share one span name.
TRACED = (
    (grid, "finite_difference", "grid.finite_difference"),
    (geometry, "build_geometry", "geometry.build_geometry"),
    (geometry, "normal_frame", "geometry.normal_frame"),
    (geometry, "riemann", "geometry.riemann"),
    (geometry, "gauss_residual", "geometry.residuals"),
    (geometry, "weingarten_residual", "geometry.residuals"),
    (energy, "assemble_JK", "energy.assemble_JK"),
    (optimizer, "gradient_JK", "optimizer.gradient_JK"),
    (optimizer, "minimize_fixed_K", "optimizer.minimize_fixed_K"),
    (cli, "run", "cli.run"),
    (causal, "build_graph", "causal.build_graph"),
    (causal, "chronological_future", "causal.reach"),
    (causal, "chronological_past", "causal.reach"),
    (causal, "causal_future", "causal.reach"),
    (causal, "causal_past", "causal.reach"),
    (causal, "future_dependence", "causal.dependence"),
    (causal, "past_dependence", "causal.dependence"),
    (causal, "dependence_domain", "causal.dependence"),
    (causal, "is_cauchy_surface", "causal.cauchy"),
    (causal, "intercept_check", "causal.intercept"),
    (causal.CausalGraph, "sources", "causal.sources"),
)

_MODULES = (worldsheet, grid, geometry, energy, optimizer, causal, cli, presets)


def patch(owner, attr: str, make_wrapper) -> list[tuple[object, str, object]]:
    """Bind ``make_wrapper(fn)`` at every lookup site of ``fn = owner.attr``.

    A module-level function is rebound in every worldsheet module that holds
    it; a method only on its class.  Returns what ``unpatch`` needs.
    """
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    sites = [owner] if isinstance(owner, type) else _MODULES
    undo = []
    for site in sites:
        for key, value in list(vars(site).items()):
            if value is original:
                undo.append((site, key, value))
                setattr(site, key, wrapper)
    return undo


def unpatch(undo: list[tuple[object, str, object]]) -> None:
    for site, key, value in reversed(undo):
        setattr(site, key, value)


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, name, start, end); appended at span end.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._next = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._open[-1] if self._open else -1
            self._open.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                self.spans.append((sid, parent, name, t0, t1))

        return wrapper

    def install(self) -> None:
        """Patch every lookup site of every traced function."""
        for owner, attr, name in TRACED:
            self._undo += patch(owner, attr, lambda fn, name=name: self.span(name, fn))

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo.clear()

    def run(self, name: str, fn, *args):
        """Call fn under a root span; returns (result, span id)."""
        sid = self._next
        return self.span(name, fn)(*args), sid

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")


def layer_totals(spans, roots: set[int]) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per span name, under the given roots.

    Also counts, per span name, the calls whose direct parent has a given
    name, as ``calls_from:<parent name>``.
    """
    by_id = {s[0]: s for s in spans}

    def root_of(sid):
        while by_id[sid][1] != -1:
            sid = by_id[sid][1]
        return sid

    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, name, t0, t1 in spans:
        if parent != -1:
            child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sid, parent, name, t0, t1 in spans:
        if root_of(sid) not in roots:
            continue
        rec = out[name]
        rec["calls"] += 1
        rec["incl_s"] += t1 - t0
        rec["self_s"] += t1 - t0 - child_time[sid]
        if parent != -1:
            rec["calls_from:" + by_id[parent][2]] += 1
    return out
