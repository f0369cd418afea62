"""Batch front door: scenario files in, CSV/plain-text reports out.

Scenario files are plain text with [section] headers and key = value lines;
'#' starts a full-line comment.  Unknown sections or keys are hard errors, a
schema field is mandatory, and command-line overrides (--set section.key=value)
win over file values.  Reports are byte-stable for a fixed seed: numeric
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
    gauss_residual,
    metric,
    minkowski_dot,
    normal_frame,
    weingarten_residual,
)
from .grid import FieldSet, GridError, ParameterGrid, _node_str, build_grid
from .optimizer import PenaltyConfig, penalty_continuation

SCHEMA_VERSION = 1

_QUERY_OPS = ("I+", "I-", "J+", "J-", "D+", "D-", "boundary", "achronal", "cauchy", "intercept")

_KNOWN_KEYS = {
    "scenario": {"schema", "kind", "seed"},
    "grid": {"extents", "counts"},
    "fields": {
        "embedding",
        "phi0",
        "radius",
        "n_ambient",
        "bump_amp",
        "shear_amp",
        "n_scale",
        "n_tilt",
        "mass_normalized",
        "table",
    },
    "constants": {"c", "mass", "epsilon"},
    "energy": {"K"},
    "optimizer": {
        "K_schedule",
        "step_init",
        "grad_tol",
        "max_iters",
        "optimize_fields",
        "check_slope",
        "slope_band",
    },
    "causal": {"events", "radius", "queries", "seed", "samples"},
}


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    kind: str
    seed: int
    sections: dict[str, dict[str, str]]
    base_dir: Path

    def get(self, section: str, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.sections.get(section, {}).get(key, default)


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
        if "=" not in item:
            raise ScenarioError(f"override {item!r} is not of the form section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ScenarioError(f"override {item!r} is not of the form section.key=value")
        section, key = target.split(".", 1)
        sections.setdefault(section.strip(), {})[key.strip()] = value.strip()


def _validate_keys(sections: dict[str, dict[str, str]]) -> None:
    unknown = []
    for section, kv in sections.items():
        if section not in _KNOWN_KEYS:
            unknown.append(f"[{section}]")
            continue
        for key in kv:
            if key not in _KNOWN_KEYS[section]:
                unknown.append(f"{section}.{key}")
    if unknown:
        raise ScenarioError("unknown scenario keys: " + ", ".join(sorted(unknown)))


def load_scenario(path: str | Path, overrides: Sequence[str] = ()) -> Scenario:
    p = Path(path)
    text = p.read_text()
    sections = _parse_scenario_text(text)
    _apply_overrides(sections, overrides)
    _validate_keys(sections)

    scn = sections.get("scenario", {})
    sc = Scenario(kind=scn.get("kind", ""), seed=0, sections=sections, base_dir=p.parent)
    if "schema" not in scn:
        raise ScenarioError("missing mandatory scenario.schema")
    if _number(sc, "scenario", "schema", "", int, positive=None) != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {scn['schema']} (expected {SCHEMA_VERSION})")
    if sc.kind not in _RUNNERS:
        raise ScenarioError(f"scenario.kind must be one of {tuple(_RUNNERS)}, got {sc.kind!r}")
    sc.seed = _number(sc, "scenario", "seed", "0", int)
    return sc


def _extents(text: str) -> list[tuple[float, float]]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ScenarioError(f"extent {tok!r} is not of the form lo:hi")
        lo, hi = tok.split(":", 1)
        out.append((float(lo), float(hi)))
    return out


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ScenarioError(f"expected a boolean, got {text!r}")


def build_scenario_grid(sc: Scenario) -> ParameterGrid:
    ext = sc.get("grid", "extents")
    cts = sc.get("grid", "counts")
    if ext is None or cts is None:
        raise ScenarioError("grid.extents and grid.counts are required")
    return build_grid(_extents(ext), _numbers(sc, "grid", "counts", cts, int, positive=True))


def build_scenario_fields(sc: Scenario, grid: ParameterGrid) -> FieldSet:
    embedding = sc.get("fields", "embedding", "flat")
    eps = _number(sc, "constants", "epsilon", "1e-4", positive=True)
    phi0 = _number(sc, "fields", "phi0", "1", complex, positive=None)
    n_amb = sc.get("fields", "n_ambient")  # None: the preset's m + 1
    n_amb = _number(sc, "fields", "n_ambient", n_amb, int, positive=True) if n_amb else None

    if embedding == "flat":
        preset, kwargs = presets.flat, {}
    elif embedding in ("cylinder", "sphere_product"):
        preset, kwargs = getattr(presets, embedding), dict(radius=_number(sc, "fields", "radius", "1.0", positive=True))
    elif embedding == "perturbed_flat":
        preset, kwargs = presets.perturbed_flat, dict(
            bump_amp=_number(sc, "fields", "bump_amp", "0.3", positive=None),
            shear_amp=_number(sc, "fields", "shear_amp", "0.0", positive=None),
            n_scale=_number(sc, "fields", "n_scale", "1.4", positive=None),
            n_tilt=_number(sc, "fields", "n_tilt", "0.25", positive=None),
            mass_normalized=_bool(sc.get("fields", "mass_normalized", "false")),
        )
        phi0 = None if sc.get("fields", "phi0") is None else phi0
    elif embedding == "table":
        table = sc.get("fields", "table")
        if table is None:
            raise ScenarioError("fields.table is required for a tabulated embedding")
        return _tabulated_fields(sc.base_dir / table, grid, phi0, eps)
    else:
        raise ScenarioError(f"unknown embedding {embedding!r}")
    try:
        return preset(grid, n_ambient=n_amb, phi0=phi0, eps=eps, **kwargs)
    except GridError as exc:  # the grid's m, or N <= m, refused by the preset
        given = f" with fields.n_ambient = {n_amb}" if n_amb else ""
        raise ScenarioError(f"fields.embedding = {embedding}{given} does not fit the grid of"
                            f" grid.extents and grid.counts (m = {grid.m}): {exc}") from None


def _tabulated_fields(path: Path, grid: ParameterGrid, phi0: complex, eps: float) -> FieldSet:
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[0] != grid.n_nodes:
        raise ScenarioError(
            f"tabulated embedding has {data.shape[0]} rows, grid has {grid.n_nodes} nodes"
        )
    r = data.reshape(grid.counts + (data.shape[1],))
    phi = np.full(grid.counts, phi0, dtype=complex)
    n = np.zeros_like(r)
    fields = FieldSet(r=r, phi=phi, n=n, r_bc=r.copy(), phi_bc=phi.copy(), eps=eps)
    frame = normal_frame(metric(fields, grid))
    fields.n[...] = frame.vectors[..., 0, :]
    fields.r_bc[...] = fields.r
    return fields


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _csv_text(rows: Sequence[tuple[str, str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("quantity", "value"), *rows])
    return buf.getvalue()


def _run_geometry_check(out_dir: Path, grid: ParameterGrid, fields: FieldSet) -> int:
    try:
        geom = build_geometry(fields, grid, with_riemann=True, with_frame=True, require_unit_normal=True)
    except GeometryError as exc:
        _write(out_dir / "geometry_report.csv", _csv_text([("error", str(exc))]))
        print(f"geometry_check failed: {exc}", file=sys.stderr)
        return 2
    g_res = gauss_residual(geom.riemann, geom.b, geom.b_up)
    w_res, _ = weingarten_residual(fields, grid, geom.b_up, geom.metric, geom.frame)
    eye = np.eye(grid.ndim)
    inv_res = float(np.max(np.abs(geom.g @ geom.g_inv - eye)))
    frame = geom.frame.vectors
    gram = (frame * _signs(fields.r.shape[-1])) @ np.swapaxes(frame, -1, -2)
    frame_orth = float(np.max(np.abs(gram - np.eye(frame.shape[-2]))))
    frame_tan = float(np.max(np.abs(minkowski_dot(frame[..., None, :, :], geom.tangents[..., :, None, :]))))
    rows = [("gauss_residual", g_res), ("weingarten_residual", w_res), ("metric_inverse_residual", inv_res),
            ("frame_orthonormality_residual", frame_orth), ("frame_tangency_residual", frame_tan)]
    w_squares, _ = _weingarten_terms(fields, grid, geom.b_up, geom.metric, geom.frame)
    nodes = [("gauss_residual_node", _worst_node(grid.ndim, *_gauss_terms(geom.riemann, geom.b, geom.b_up))),
             ("weingarten_residual_node", _worst_node(grid.ndim, w_squares))]
    _write(out_dir / "geometry_report.csv", _csv_text([(k, _fmt(v)) for k, v in rows] + nodes))
    return 0


def _worst_node(ndim: int, *terms: np.ndarray) -> str:
    """The first node holding the largest entry of the per-node term arrays, whose first ndim axes are the nodes."""
    per_node = np.maximum.reduce([t.reshape(t.shape[:ndim] + (-1,)).max(-1) for t in terms])
    return _node_str(np.unravel_index(np.argmax(per_node), per_node.shape))


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
    kwargs = {}
    sched = sc.get("optimizer", "K_schedule")
    if sched:
        ks = tuple(_numbers(sc, "optimizer", "K_schedule", sched, positive=True))
        if any(b <= a for a, b in zip(ks, ks[1:])):
            raise ScenarioError(f"optimizer.K_schedule = {sched!r} must be strictly increasing")
        kwargs["k_schedule"] = ks
    for name in ("step_init", "grad_tol"):
        val = sc.get("optimizer", name)
        if val:
            kwargs[name] = _number(sc, "optimizer", name, val, positive=True)
    iters = sc.get("optimizer", "max_iters")
    if iters:
        kwargs["max_iters"] = _number(sc, "optimizer", "max_iters", iters, int, positive=True)
    opt_fields = sc.get("optimizer", "optimize_fields")
    if opt_fields:
        names = tuple(tok.strip() for tok in opt_fields.split(",") if tok.strip())
        if not names or set(names) - {"r", "phi", "n"}:
            raise ScenarioError(f"optimizer.optimize_fields = {opt_fields!r} must be a nonempty subset of r, phi, n")
        kwargs["optimize_fields"] = names
    return PenaltyConfig(**kwargs)


def _run_minimize(
    out_dir: Path, grid: ParameterGrid, fields: FieldSet, cfg: PenaltyConfig, slope_band: Optional[tuple[float, float]]
) -> int:
    """slope_band is set when optimizer.check_slope is on."""
    try:
        report = penalty_continuation(fields, grid, cfg)
    except (GeometryError, NonFiniteValueError) as exc:
        print(f"minimize failed: {exc}", file=sys.stderr)
        return 2
    csv_text = report.csv_header() + "\n" + "\n".join(report.csv_rows()) + "\n"
    _write(out_dir / "minimize_report.csv", csv_text)

    lines = [report.summary_line()]
    lines += [f"termination K={_fmt(rec.K)}: {rec.termination}" for rec in report.records]
    lines += [
        f"descent K={_fmt(rec.K)}: iterations {rec.iterations}, evaluations {rec.evaluations}, "
        f"resets {rec.resets}, fallbacks {rec.fallbacks}"
        for rec in report.records
    ]
    if report.theorem_range_notice:
        lines.append(report.theorem_range_notice)
    if report.stalled:
        lines.append("stalled: yes")

    ok = not report.stalled
    if slope_band is not None:
        lo, hi = slope_band
        for name, slope in report.slopes.items():
            if slope is None:
                lines.append(f"slope_check {name}: skipped (residual at machine zero)")
                continue
            inside = lo <= slope <= hi
            lines.append(f"slope_check {name}: {_fmt(slope)} in [{_fmt(lo)}, {_fmt(hi)}] -> {'ok' if inside else 'FAIL'}")
            ok = ok and inside
    lines.append(f"exit: {'0' if ok else '2'}")
    _write(out_dir / "minimize_summary.txt", "\n".join(lines) + "\n")
    return 0 if ok else 2


def _causal_queries(sc: Scenario, n_events: int) -> list[tuple[str, list[int]]]:
    """causal.queries as (op, indices); every op must be known and every index name one of the n_events events."""
    queries = []
    for tok in sc.get("causal", "queries", "").split(";"):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ScenarioError(f"query {tok!r} is not of the form op:indices")
        op, idx = tok.split(":", 1)
        op = op.strip()
        try:
            idx = [int(v) for v in idx.split(",") if v.strip()]
        except ValueError:
            raise ScenarioError(f"query {tok!r}: event indices must be integers") from None
        if op not in _QUERY_OPS:
            raise ScenarioError(f"unknown causal query op {op!r}")
        for i in idx:
            if not 0 <= i < n_events:
                raise ScenarioError(
                    f"query {op}:{','.join(str(v) for v in idx)}: event index {i} outside 0..{n_events - 1}"
                )
        queries.append((op, idx))
    return queries


def _numbers(sc: Scenario, section: str, key: str, default: str, kind=float, positive: Optional[bool] = False) -> list:
    """A scenario value as comma-separated finite numbers of one kind: each > 0 when positive,
    >= 0 when positive is False, of either sign when it is None."""
    text = sc.get(section, key, default)
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
        finite = all(cmath.isfinite(v) for v in values)
    except (ValueError, OverflowError):  # OverflowError: an int too large for a float
        raise ScenarioError(f"{section}.{key} = {text!r} is not a valid {kind.__name__}") from None
    if not finite:
        raise ScenarioError(f"{section}.{key} = {text!r} must be finite")
    if positive is not None and not all(v > 0 if positive else v >= 0 for v in values):
        raise ScenarioError(f"{section}.{key} = {text!r} must be {'>' if positive else '>='} 0")
    return values


def _number(sc: Scenario, section: str, key: str, default: str, kind=float, positive: Optional[bool] = False):
    """A scenario value as one finite number (see _numbers)."""
    values = _numbers(sc, section, key, default, kind, positive)
    if len(values) != 1:
        raise ScenarioError(f"{section}.{key} = {sc.get(section, key, default)!r} must be one number")
    return values[0]


def _build_inputs(sc: Scenario) -> dict:
    """Everything the scenario's kind reads, built, validated and keyed as its runner's arguments."""
    c = _number(sc, "constants", "c", "1.0", positive=True)
    _number(sc, "constants", "mass", "1.0", positive=True)  # no runner reads it; it is checked all the same
    if sc.kind == "causal":
        ev_file = sc.get("causal", "events")
        if ev_file is None:
            raise ScenarioError("causal.events is required")
        path = sc.base_dir / ev_file
        if not path.exists():
            raise ScenarioError(f"event file not found: {path}")
        events = causal_mod.load_events(path, c=c)
        samples = sc.get("causal", "samples")
        return dict(
            events=events,
            radius=_number(sc, "causal", "radius", "1.0", positive=True),
            seed=_number(sc, "causal", "seed", str(sc.seed), int),
            samples=_number(sc, "causal", "samples", samples, int, positive=True) if samples else None,
            queries=_causal_queries(sc, len(events)),
        )
    grid = build_scenario_grid(sc)
    try:
        inputs = dict(grid=grid, fields=build_scenario_fields(sc, grid))
    except GeometryError as exc:  # e.g. a finite amplitude whose metric overflows
        raise ScenarioError(f"[fields] embedding {sc.get('fields', 'embedding', 'flat')}: {exc}") from None
    n = inputs["fields"].n  # unit, but for perturbed_flat's finite n_scale and n_tilt, which may overflow
    bad = np.argwhere(~np.isfinite((minkowski_dot(n, n) - 1.0) ** 2))
    if bad.size:
        raise ScenarioError(f"fields.n_scale and fields.n_tilt give a normal whose (n.n - 1)^2"
                            f" is not finite at node {_node_str(tuple(bad[0]))}")
    if sc.kind == "energy_eval":
        inputs["K"] = _number(sc, "energy", "K", "0.0")
    if sc.kind == "minimize":
        inputs["cfg"] = _penalty_config(sc)
        inputs["slope_band"] = None
        if _bool(sc.get("optimizer", "check_slope", "false")):
            band = _numbers(sc, "optimizer", "slope_band", "-1.3,-0.7", positive=None)
            if not band:
                raise ScenarioError("optimizer.slope_band needs at least one value")
            inputs["slope_band"] = (min(band), max(band))
    return inputs


def _run_causal(
    out_dir: Path, events: causal_mod.EventSet, radius: float, seed: int, samples: Optional[int], queries: list
) -> int:
    graph = causal_mod.build_graph(events, radius)
    ops = {
        "I+": causal_mod.chronological_future,
        "I-": causal_mod.chronological_past,
        "J+": causal_mod.causal_future,
        "J-": causal_mod.causal_past,
        "D+": causal_mod.future_dependence,
        "D-": causal_mod.past_dependence,
        "boundary": causal_mod.future_boundary,
    }
    lines = []
    counts = []
    for op, idx in queries:
        label = f"{op}:{','.join(str(i) for i in idx)} -> "
        if op in ops:
            result = sorted(ops[op](idx, graph))
            lines.append(label + " ".join(str(i) for i in result))
            counts.append(f"{op}={len(result)}")
        elif op == "achronal":
            val = causal_mod.is_achronal(idx, graph)
            lines.append(label + str(val).lower())
            counts.append(f"achronal={'1' if val else '0'}")
        elif op == "cauchy":
            verdict = causal_mod.is_cauchy_surface(idx, graph)
            answer = str(verdict.is_cauchy).lower()
            if not verdict.is_cauchy:
                answer += f" witness={verdict.witness_kind}:{verdict.witness}"
            lines.append(label + answer)
            counts.append(f"cauchy={'1' if verdict.is_cauchy else '0'}")
        else:
            try:
                rep = causal_mod.intercept_check(idx, graph, samples=samples, seed=seed)
            except (causal_mod.NotCauchySurfaceError, causal_mod.PathLimitError) as exc:
                print(f"causal query {label.removesuffix(' -> ')} failed: {exc}", file=sys.stderr)
                return 2
            lines.append(label + f"paths={rep.paths_checked} violations={len(rep.violations)}")
            counts.append(f"intercept_violations={len(rep.violations)}")
    edges = graph.forward.indices.size
    lines.append(f"summary: events={len(graph)} edges={edges} {' '.join(counts)}")
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
    order_i = log(r_{i-1}/r_i) / log(p_{i-1}/p_i), blank on the first row.
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
        row = [_fmt(params[i])] + [_fmt(residuals[name][i]) for name in names]
        for name in names:
            if i == 0:
                row.append("")
            else:
                order = np.log(residuals[name][i - 1] / residuals[name][i]) / np.log(
                    params[i - 1] / params[i]
                )
                row.append(_fmt(order))
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
