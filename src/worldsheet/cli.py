"""Batch front door: scenario files in, CSV/plain-text reports out.

Scenario files are plain text with [section] headers and key = value lines;
'#' starts a full-line comment.  Unknown sections or keys are hard errors, a
schema field is mandatory, and command-line overrides (--set section.key=value)
win over file values.  _SCHEMA states each key's kind, default and bound once,
and _value reads every key by it.  Reports are byte-stable for a fixed seed: numeric
fields use 17 significant digits.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import io
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import causal as causal_mod
from . import presets
from .energy import EnergyBreakdown, NonFiniteValueError, assemble_JK
from .geometry import (
    GeometryError,
    _gauss_terms,
    _signs,
    _weingarten_terms,
    build_geometry,
    metric,
    minkowski_dot,
    oriented_normal,
    second_fundamental_form,
)
from .grid import FieldSet, GridError, ParameterGrid, _cell, _node_str, _raise_at_first, _worst_node, build_grid
from .optimizer import PenaltyConfig, penalty_continuation

SCHEMA_VERSION = 1

# Every scenario key: section -> key -> (kind, default, sign).  kind is float, int,
# complex, bool or str, or a tuple of them read as colon-separated fields (lo:hi); a
# kind inside a list reads comma-separated items.  An unset key reads as its default:
# Ellipsis (...) marks a key required wherever it is read, and None leaves the choice
# to the reader.  sign, "> b" or ">= b", bounds every number of the value.
_SCHEMA = {
    "scenario": {"schema": (int, ..., None), "kind": (str, ..., None), "seed": (int, 0, ">= 0")},
    "grid": {"extents": ([(float, float)], ..., None), "counts": ([int], ..., "> 0")},
    "fields": {
        "embedding": (str, "flat", None),
        "phi0": (complex, None, None),  # None: the preset's, 1 or perturbed_flat's unit spatial mass
        "radius": (float, None, "> 0"),  # None here and below: the preset's own default
        "n_ambient": (int, None, "> 0"),  # the preset's m + 1
        "bump_amp": (float, None, None),
        "shear_amp": (float, None, None),
        "n_scale": (float, None, None),
        "n_tilt": (float, None, None),
        "mass_normalized": (bool, None, None),
        "table": (str, ..., None),
    },
    # c at least the least normal float, as causal's EventSet asks
    "constants": {"c": (float, 1.0, f">= {2.0**-1022!r}"), "mass": (float, 1.0, "> 0"), "epsilon": (float, 1e-4, "> 0")},
    "energy": {"K": (float, 0.0, ">= 0")},
    "optimizer": {
        "K_schedule": ([float], PenaltyConfig.k_schedule, "> 0"),
        "step_init": (float, PenaltyConfig.step_init, "> 0"),
        "grad_tol": (float, PenaltyConfig.grad_tol, "> 0"),
        "max_iters": (int, PenaltyConfig.max_iters, "> 0"),
        "optimize_fields": ([str], PenaltyConfig.optimize_fields, None),
        "check_slope": (bool, False, None),
        "slope_band": ([float], (-1.3, -0.7), None),
    },
    "causal": {
        "events": (str, ..., None),
        "radius": (float, 1.0, "> 0"),
        "queries": (str, "", None),  # the one key whose empty value is allowed: no queries
        "seed": (int, None, ">= 0"),  # None: scenario.seed
        "samples": (int, None, "> 0"),  # None: every maximal path
    },
}

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    kind: str
    sections: dict[str, dict[str, str]]
    base_dir: Path


def _parse_scenario_text(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ScenarioError(f"line {lineno}: key outside any [section]")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key in sections[current]:
            raise ScenarioError(f"line {lineno}: duplicate key {current}.{key}")
        sections[current][key] = value
    return sections


def _apply_overrides(sections: dict[str, dict[str, str]], overrides: Sequence[str]) -> None:
    for item in overrides:
        target, eq, value = item.partition("=")
        if not eq or "." not in target:
            raise ScenarioError(f"override {item!r} is not of the form section.key=value")
        section, key = target.split(".", 1)
        sections.setdefault(section.strip(), {})[key.strip()] = value.strip()


def _validate_keys(sections: dict[str, dict[str, str]]) -> None:
    unknown = []
    for section, kv in sections.items():
        known = _SCHEMA.get(section)
        unknown += [f"[{section}]"] if known is None else [f"{section}.{key}" for key in kv if key not in known]
    if unknown:
        raise ScenarioError("unknown scenario keys: " + ", ".join(sorted(unknown)))


def _value(sc: Scenario, section: str, key: str):
    """section.key read by its _SCHEMA entry: an empty value, one not of its kind, a number
    not finite or not of its sign, and an unset required key each raise, naming the key."""
    kind, default, sign = _SCHEMA[section][key]
    text = sc.sections.get(section, {}).get(key)
    if text is None and default is Ellipsis:
        raise ScenarioError(f"{section}.{key} is required")
    if text is None or text == default == "":  # causal.queries: an empty value is no queries
        return default
    where = f"{section}.{key} = {text!r}"
    many = isinstance(kind, list)
    item = kind[0] if many else kind
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()] if many else [text]
    if not (text and tokens):
        raise ScenarioError(f"{where} is empty")
    try:
        values = [_item(item, tok) for tok in tokens]
        numbers = [x for v in values for x in (v if isinstance(v, tuple) else (v,)) if not isinstance(x, str)]
        finite = all(cmath.isfinite(x) for x in numbers)
    except (ValueError, KeyError, OverflowError):  # OverflowError: an int too large for a float
        name = ":".join(k.__name__ for k in item) if isinstance(item, tuple) else item.__name__
        raise ScenarioError(f"{where} is not a valid {name}{' list' if many else ''}") from None
    if not finite:
        raise ScenarioError(f"{where} must be finite")
    if sign:
        op, bound = sign.split()
        if not all(x > float(bound) if op == ">" else x >= float(bound) for x in numbers):
            raise ScenarioError(f"{where} must be {sign}")
    return values if many else values[0]


def _item(kind, tok: str):
    """One token of a value as its kind; a tuple kind reads colon-separated fields, as lo:hi."""
    if isinstance(kind, tuple):
        return tuple(_item(k, field.strip()) for k, field in zip(kind, tok.split(":"), strict=True))
    return _BOOLS[tok.lower()] if kind is bool else kind(tok)


def load_scenario(path: str | Path, overrides: Sequence[str] = ()) -> Scenario:
    p = Path(path)
    sections = _parse_scenario_text(p.read_text())
    _apply_overrides(sections, overrides)
    _validate_keys(sections)
    sc = Scenario(kind="", sections=sections, base_dir=p.parent)
    schema = _value(sc, "scenario", "schema")
    if schema != SCHEMA_VERSION:
        raise ScenarioError(f"scenario.schema = {schema} is not supported (expected {SCHEMA_VERSION})")
    sc.kind = _value(sc, "scenario", "kind")
    if sc.kind not in _RUNNERS:
        raise ScenarioError(f"scenario.kind = {sc.kind!r} must be one of {tuple(_RUNNERS)}")
    return sc


def _tabulated_fields(
    grid: ParameterGrid, table: np.ndarray, eps: float, phi0: complex = 1.0, n_ambient: Optional[int] = None
) -> FieldSet:
    if table.shape[0] != grid.n_nodes:
        raise ScenarioError(f"fields.table: tabulated embedding has {table.shape[0]} rows, grid has {grid.n_nodes} nodes")
    if n_ambient not in (None, table.shape[1] - 1):
        raise ScenarioError(f"fields.n_ambient = {n_ambient} does not match fields.table:"
                            f" its {table.shape[1]} columns give N = {table.shape[1] - 1}")
    if table.shape[1] - 1 <= grid.m:  # else normal_frame finds no normal direction
        raise ScenarioError(f"fields.table: its {table.shape[1]} columns give N = {table.shape[1] - 1}, not above m = {grid.m}")
    r = table.reshape(grid.counts + (table.shape[1],))
    phi = np.full(grid.counts, phi0, dtype=complex)
    fields = FieldSet(r=r, phi=phi, n=np.zeros_like(r), r_bc=r.copy(), phi_bc=phi.copy(), eps=eps)
    fields.n[...] = oriented_normal(metric(fields, grid))
    return fields


# Each embedding's preset and the [fields] keys it takes by name.  A key whose
# default is None is passed only when set, so the preset's own default holds.
_EMBEDDINGS = {
    "flat": (presets.flat, ("n_ambient", "phi0")),
    "cylinder": (presets.cylinder, ("n_ambient", "phi0", "radius")),
    "sphere_product": (presets.sphere_product, ("n_ambient", "phi0", "radius")),
    "perturbed_flat": (presets.perturbed_flat, ("n_ambient", "phi0", "bump_amp", "shear_amp", "n_scale", "n_tilt", "mass_normalized")),
    "table": (_tabulated_fields, ("n_ambient", "phi0", "table")),  # table: N + 1 columns, one row per node
}


def build_scenario_fields(sc: Scenario, grid: ParameterGrid) -> FieldSet:
    embedding = _value(sc, "fields", "embedding")
    if embedding not in _EMBEDDINGS:
        raise ScenarioError(f"fields.embedding = {embedding!r} must be one of {tuple(_EMBEDDINGS)}")
    preset, keys = _EMBEDDINGS[embedding]
    kwargs = {key: value for key in keys if (value := _value(sc, "fields", key)) is not None}
    if "table" in kwargs:  # a file relative to the scenario file, read here so that its errors name the key
        try:
            kwargs["table"] = np.loadtxt(sc.base_dir / kwargs["table"], comments="#", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"fields.table = {kwargs['table']!r}: {exc}") from None
    try:
        return preset(grid, eps=_value(sc, "constants", "epsilon"), **kwargs)
    except GridError as exc:  # the grid's m, or N <= m, refused by the preset
        given = f" with fields.n_ambient = {kwargs['n_ambient']}" if "n_ambient" in kwargs else ""
        raise ScenarioError(f"fields.embedding = {embedding}{given} does not fit the grid of"
                            f" grid.extents and grid.counts (m = {grid.m}): {exc}") from None
    except GeometryError as exc:  # e.g. a finite amplitude whose metric overflows
        raise ScenarioError(f"[fields] embedding {embedding}: {exc}") from None


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _csv_text(rows: Sequence[tuple[str, str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("quantity", "value"), *rows])
    return buf.getvalue()


def _run_geometry_check(out_dir: Path, grid: ParameterGrid, fields: FieldSet) -> int:
    try:
        geom = build_geometry(fields, grid)
        b, b_up = second_fundamental_form(geom.d2r, fields.n, geom.metric)  # the one unit-normal check
        riemann_tensor, frame = geom.riemann, geom.frame.vectors  # formed on this first read: a frame error exits 2
    except GeometryError as exc:
        _write(out_dir / "geometry_report.csv", _csv_text([("error", str(exc))]))
        print(f"geometry_check failed: {exc}", file=sys.stderr)
        return 2
    # The terms that gauss_residual and weingarten_residual (squared) reduce, and the first node holding the worst.
    g_res, g_node = _worst_node(grid.ndim, *_gauss_terms(riemann_tensor, b, b_up))
    w_squares, w_node = _worst_node(grid.ndim, _weingarten_terms(fields, grid, b_up, geom.metric, geom.frame)[0])
    inv_res = float(np.max(np.abs(geom.g @ geom.g_inv - np.eye(grid.ndim))))
    gram = (frame * _signs(fields.r.shape[-1])) @ np.swapaxes(frame, -1, -2)
    frame_orth = float(np.max(np.abs(gram - np.eye(frame.shape[-2]))))
    frame_tan = float(np.max(np.abs(minkowski_dot(frame[..., None, :, :], geom.tangents[..., :, None, :]))))
    rows = [("gauss_residual", g_res), ("weingarten_residual", float(np.sqrt(w_squares))),
            ("metric_inverse_residual", inv_res), ("frame_orthonormality_residual", frame_orth),
            ("frame_tangency_residual", frame_tan),
            ("gauss_residual_node", _node_str(g_node)), ("weingarten_residual_node", _node_str(w_node))]
    _write(out_dir / "geometry_report.csv", _csv_text([(k, _cell(v)) for k, v in rows]))
    return 0


def _run_energy_eval(out_dir: Path, grid: ParameterGrid, fields: FieldSet, K: float) -> int:
    try:
        breakdown = assemble_JK(fields, grid, K)
    except (GeometryError, NonFiniteValueError) as exc:
        print(f"energy_eval failed: {exc}", file=sys.stderr)
        return 2
    text = EnergyBreakdown.csv_header() + "\n" + breakdown.csv_row() + "\n"
    _write(out_dir / "energy_report.csv", text)
    return 0


def _penalty_config(sc: Scenario) -> PenaltyConfig:
    ks = tuple(_value(sc, "optimizer", "K_schedule"))
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ScenarioError(f"optimizer.K_schedule = {ks} must be strictly increasing")
    names = tuple(_value(sc, "optimizer", "optimize_fields"))
    if set(names) - {"r", "phi", "n"}:
        raise ScenarioError(f"optimizer.optimize_fields = {names} must be a subset of r, phi, n")
    steps = {key: _value(sc, "optimizer", key) for key in ("step_init", "grad_tol", "max_iters")}
    return PenaltyConfig(k_schedule=ks, optimize_fields=names, **steps)


def _run_minimize(
    out_dir: Path, grid: ParameterGrid, fields: FieldSet, cfg: PenaltyConfig, slope_band: Optional[list[float]]
) -> int:
    """slope_band is set when optimizer.check_slope is on; its least and largest values bound the slopes."""
    try:
        report = penalty_continuation(fields, grid, cfg)
    except (GeometryError, NonFiniteValueError) as exc:
        print(f"minimize failed: {exc}", file=sys.stderr)
        return 2
    csv_text = report.csv_header() + "\n" + "\n".join(report.csv_rows()) + "\n"
    _write(out_dir / "minimize_report.csv", csv_text)

    lines = [report.summary_line()]
    lines += [f"termination K={_cell(rec.K)}: {rec.termination}" for rec in report.records]
    lines += [
        f"descent K={_cell(rec.K)}: iterations {rec.iterations}, evaluations {rec.evaluations}, "
        f"resets {rec.resets}, fallbacks {rec.fallbacks}"
        for rec in report.records
    ]
    if report.theorem_range_notice:
        lines.append(report.theorem_range_notice)
    if report.stalled:
        lines.append("stalled: yes")

    ok = not report.stalled
    if slope_band is not None:
        lo, hi = min(slope_band), max(slope_band)
        for name, slope in report.slopes.items():
            if slope is None:
                lines.append(f"slope_check {name}: skipped (residual at machine zero)")
                continue
            inside = lo <= slope <= hi
            verdict = "ok" if inside else "FAIL"
            lines.append(f"slope_check {name}: {_cell(slope)} in [{_cell(lo)}, {_cell(hi)}] -> {verdict}")
            ok = ok and inside
    lines.append(f"exit: {'0' if ok else '2'}")
    _write(out_dir / "minimize_summary.txt", "\n".join(lines) + "\n")
    return 0 if ok else 2


def _causal_queries(sc: Scenario, n_events: int) -> list[tuple[str, list[int]]]:
    """causal.queries as (op, indices); every op must be one of _QUERIES and every index one of the n_events events."""
    queries = []
    for tok in filter(None, map(str.strip, _value(sc, "causal", "queries").split(";"))):
        op, colon, idx = tok.partition(":")
        op = op.strip()
        if not colon or op not in _QUERIES:
            raise ScenarioError(f"causal.queries: query {tok!r} is not of the form op:indices, op one of {tuple(_QUERIES)}")
        try:
            idx = [int(v) for v in idx.split(",") if v.strip()]
            causal_mod._indices(idx, n_events)
        except ValueError as exc:
            raise ScenarioError(f"causal.queries: query {tok!r}: {exc}") from None
        queries.append((op, idx))
    return queries


def _build_inputs(sc: Scenario) -> dict:
    """Everything the scenario's kind reads, built, validated and keyed as its runner's arguments.
    Every key that is set is parsed first, in scenario order, whether or not the kind reads it."""
    for section, kv in sc.sections.items():
        for key in kv:
            _value(sc, section, key)
    c = _value(sc, "constants", "c")
    if sc.kind == "causal":
        name = _value(sc, "causal", "events")
        try:
            events = causal_mod.load_events(sc.base_dir / name, c=c)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"causal.events = {name!r}: {exc}") from None
        seed = _value(sc, "causal", "seed")
        return dict(
            events=events,
            radius=_value(sc, "causal", "radius"),
            seed=_value(sc, "scenario", "seed") if seed is None else seed,
            samples=_value(sc, "causal", "samples"),
            queries=_causal_queries(sc, len(events)),
        )
    try:
        grid = build_grid(_value(sc, "grid", "extents"), _value(sc, "grid", "counts"))
    except GridError as exc:
        raise ScenarioError(f"grid.extents and grid.counts: {exc}") from None
    inputs = dict(grid=grid, fields=build_scenario_fields(sc, grid))
    n = inputs["fields"].n  # unit, but for perturbed_flat's finite n_scale and n_tilt, which may overflow
    _raise_at_first(~np.isfinite((minkowski_dot(n, n) - 1.0) ** 2), ScenarioError, "fields.n_scale and"
                    " fields.n_tilt give a normal whose (n.n - 1)^2 is not finite at node {node}")
    if sc.kind == "energy_eval":
        inputs["K"] = _value(sc, "energy", "K")
    if sc.kind == "minimize":
        inputs["cfg"] = _penalty_config(sc)
        inputs["slope_band"] = _value(sc, "optimizer", "slope_band") if _value(sc, "optimizer", "check_slope") else None
        if inputs["slope_band"] is not None and len(inputs["cfg"].k_schedule) < 2:
            raise ScenarioError("optimizer.check_slope needs at least two optimizer.K_schedule values to fit a slope")
    return inputs


def _members(query, op, idx, graph, samples, seed):
    """A set-valued causal query, answered by its members in order and counted under the op's name."""
    result = sorted(query(idx, graph))
    return " ".join(str(i) for i in result), f"{op}={len(result)}"


def _achronal(op, idx, graph, samples, seed):
    val = causal_mod.is_achronal(idx, graph)
    return str(val).lower(), f"{op}={int(val)}"


def _cauchy(op, idx, graph, samples, seed):
    verdict = causal_mod.is_cauchy_surface(idx, graph)
    witness = "" if verdict.is_cauchy else f" witness={verdict.witness_kind}:{verdict.witness}"
    return str(verdict.is_cauchy).lower() + witness, f"{op}={int(verdict.is_cauchy)}"


def _intercept(op, idx, graph, samples, seed):
    rep = causal_mod.intercept_check(idx, graph, samples=samples, seed=seed)
    return f"paths={rep.paths_checked} violations={len(rep.violations)}", f"{op}_violations={len(rep.violations)}"


# Each causal query op, called as (op, indices, graph, causal.samples, causal.seed),
# and its answer: (report text, summary count).
_QUERIES = {
    "I+": partial(_members, causal_mod.chronological_future),
    "I-": partial(_members, causal_mod.chronological_past),
    "J+": partial(_members, causal_mod.causal_future),
    "J-": partial(_members, causal_mod.causal_past),
    "D+": partial(_members, causal_mod.future_dependence),
    "D-": partial(_members, causal_mod.past_dependence),
    "boundary": partial(_members, causal_mod.future_boundary),
    "achronal": _achronal,
    "cauchy": _cauchy,
    "intercept": _intercept,
}


def _run_causal(
    out_dir: Path, events: causal_mod.EventSet, radius: float, seed: int, samples: Optional[int], queries: list
) -> int:
    graph = causal_mod.build_graph(events, radius)
    lines, counts = [], []
    for op, idx in queries:
        label = f"{op}:{','.join(str(i) for i in idx)}"
        try:
            answer, count = _QUERIES[op](op, idx, graph, samples, seed)
        except (causal_mod.NotCauchySurfaceError, causal_mod.PathLimitError) as exc:
            print(f"causal query {label} failed: {exc}", file=sys.stderr)
            return 2
        lines.append(f"{label} -> {answer}")
        counts.append(count)
    lines.append(f"summary: events={len(graph)} edges={graph.forward.indices.size} {' '.join(counts)}")
    _write(out_dir / "causal_report.txt", "\n".join(lines) + "\n")
    return 0


_RUNNERS = {
    "geometry_check": _run_geometry_check,
    "energy_eval": _run_energy_eval,
    "minimize": _run_minimize,
    "causal": _run_causal,
}


def _load(scenario_path: str | Path, overrides: Sequence[str]) -> Optional[tuple[str, dict]]:
    """The scenario's kind and runner inputs, or None once the input error is printed."""
    try:
        sc = load_scenario(scenario_path, overrides)
        return sc.kind, _build_inputs(sc)
    except (ScenarioError, GridError, OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return None


@contextlib.contextmanager
def _quiet():
    """No numpy floating-point or loadtxt warnings on stderr: the conditions behind them
    end in a one-line error once the scenario runs (non-finite integrand, empty event file)."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt", UserWarning)
        yield


@_quiet()
def run(scenario_path: str | Path, out_dir: str | Path, overrides: Sequence[str] = ()) -> int:
    """Execute a scenario; returns the process exit code.

    0 on success, 2 on validation failures (degenerate geometry, a non-finite
    energy integrand, stalled or out-of-band slope fits), 1 on usage or I/O
    errors.  Inputs are built and checked before any computation starts.
    """
    loaded = _load(scenario_path, overrides)
    if loaded is None:
        return 1
    kind, inputs = loaded
    return _RUNNERS[kind](Path(out_dir), **inputs)


@_quiet()
def check(scenario_path: str | Path, overrides: Sequence[str] = ()) -> int:
    """Validate a scenario without running it: the same input step as run."""
    if _load(scenario_path, overrides) is None:
        return 1
    print("scenario ok")
    return 0


def emit_convergence_table(params: Sequence[float], residuals: dict[str, Sequence[float]]) -> str:
    """CSV of residuals against a refinement or penalty parameter.

    Adds an observed-order column per residual:
    order_i = log(r_{i-1}/r_i) / log(p_{i-1}/p_i), blank on the first row and
    where r_{i-1} or r_i is not finite and > 0.
    """
    n = len(params)
    if n < 2:
        raise ValueError("need >= 2 rows for a convergence table")
    names = list(residuals)
    for name in names:
        if len(residuals[name]) != n:
            raise ValueError(f"residual column {name!r} length mismatch")
    header = "parameter," + ",".join(names) + "," + ",".join(f"{n}_order" for n in names)
    lines = [header]
    for i in range(n):
        row = [_cell(params[i])] + [_cell(residuals[name][i]) for name in names]
        for name in names:
            r0, r1 = (residuals[name][i - 1], residuals[name][i]) if i else (0.0, 0.0)
            order = np.log(r0 / r1) / np.log(params[i - 1] / params[i]) if 0 < r0 < np.inf and 0 < r1 < np.inf else ""
            row.append(_cell(order))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="worldsheet", description="World-sheet scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", required=True, help="output directory for reports")
    p_run.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    p_check = sub.add_parser("check", help="validate a scenario without running it")
    p_check.add_argument("scenario")
    p_check.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, args.out, args.overrides)
    return check(args.scenario, args.overrides)


if __name__ == "__main__":
    sys.exit(main())
