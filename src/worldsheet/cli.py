"""Batch front door: scenario files in, CSV/plain-text reports out.

Scenario files are plain text with [section] headers and key = value lines;
'#' starts a full-line comment.  Unknown sections or keys are hard errors, a
schema field is mandatory, and command-line overrides (--set section.key=value)
win over file values.  Reports are byte-stable for a fixed seed: numeric
fields use 17 significant digits.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import causal as causal_mod
from . import presets
from .energy import EnergyBreakdown, assemble_JK
from .geometry import (
    GeometryError,
    build_geometry,
    gauss_residual,
    minkowski_dot,
    normal_frame,
    weingarten_residual,
)
from .grid import FieldSet, GridError, ParameterGrid, build_grid
from .optimizer import PenaltyConfig, penalty_continuation

SCHEMA_VERSION = 1

KINDS = ("geometry_check", "energy_eval", "minimize", "causal")

_KNOWN_KEYS = {
    "scenario": {"schema", "kind", "seed"},
    "grid": {"extents", "counts"},
    "fields": {
        "embedding",
        "phi0",
        "radius",
        "n_ambient",
        "normalize_phi",
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
        "armijo_c",
        "backtrack",
        "grad_tol",
        "max_iters",
        "singular_tol",
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
    if "schema" not in scn:
        raise ScenarioError("missing mandatory scenario.schema")
    if int(scn["schema"]) != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {scn['schema']} (expected {SCHEMA_VERSION})")
    kind = scn.get("kind", "")
    if kind not in KINDS:
        raise ScenarioError(f"scenario.kind must be one of {KINDS}, got {kind!r}")
    seed = int(scn.get("seed", "0"))
    return Scenario(kind=kind, seed=seed, sections=sections, base_dir=p.parent)


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


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
    return build_grid(_extents(ext), [int(v) for v in _floats(cts)])


def build_scenario_fields(sc: Scenario, grid: ParameterGrid) -> FieldSet:
    embedding = sc.get("fields", "embedding", "flat")
    eps = float(sc.get("constants", "epsilon", "1e-4"))
    phi0_raw = sc.get("fields", "phi0")
    normalize = _bool(sc.get("fields", "normalize_phi", "false"))
    phi0 = complex(phi0_raw) if phi0_raw is not None else 1.0 + 0.0j
    if normalize:
        phi0 = presets.normalized_phi0(grid) + 0.0j

    if embedding == "flat":
        n_amb = sc.get("fields", "n_ambient")
        return presets.flat(grid, n_ambient=int(n_amb) if n_amb else None, phi0=phi0, eps=eps)
    if embedding == "cylinder":
        return presets.cylinder(
            grid,
            radius=float(sc.get("fields", "radius", "1.0")),
            n_ambient=int(sc.get("fields", "n_ambient", "2")),
            phi0=phi0,
            eps=eps,
        )
    if embedding == "sphere_product":
        return presets.sphere_product(
            grid,
            radius=float(sc.get("fields", "radius", "1.0")),
            n_ambient=int(sc.get("fields", "n_ambient", "3")),
            phi0=phi0,
            eps=eps,
        )
    if embedding == "perturbed_flat":
        kwargs = {}
        if phi0_raw is not None or normalize:
            kwargs["phi0"] = phi0
        return presets.perturbed_flat(
            grid,
            n_ambient=int(sc.get("fields", "n_ambient", "2")),
            bump_amp=float(sc.get("fields", "bump_amp", "0.3")),
            shear_amp=float(sc.get("fields", "shear_amp", "0.0")),
            n_scale=float(sc.get("fields", "n_scale", "1.4")),
            n_tilt=float(sc.get("fields", "n_tilt", "0.25")),
            mass_normalized=_bool(sc.get("fields", "mass_normalized", "false")),
            eps=eps,
            **kwargs,
        )
    if embedding == "table":
        table = sc.get("fields", "table")
        if table is None:
            raise ScenarioError("fields.table is required for a tabulated embedding")
        return _tabulated_fields(sc.base_dir / table, grid, phi0, eps)
    raise ScenarioError(f"unknown embedding {embedding!r}")


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
    from .geometry import metric as metric_op

    frame = normal_frame(metric_op(fields, grid), fields)
    fields.n[...] = frame.vectors[..., 0, :]
    fields.r_bc[...] = fields.r
    return fields


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _run_geometry_check(sc: Scenario, out_dir: Path) -> int:
    grid = build_scenario_grid(sc)
    fields = build_scenario_fields(sc, grid)
    try:
        geom = build_geometry(fields, grid, with_riemann=True, with_frame=True, require_unit_normal=True)
    except GeometryError as exc:
        _write(out_dir / "geometry_report.csv", f"quantity,value\nerror,{exc}\n")
        print(f"geometry_check failed: {exc}", file=sys.stderr)
        return 2
    g_res = gauss_residual(geom.riemann, geom.b, geom.b_up)
    w_res, _ = weingarten_residual(fields, grid, geom.b_up, geom.metric, geom.frame)
    eye = np.eye(grid.ndim)
    inv_res = float(np.max(np.abs(np.einsum("...jk,...kl->...jl", geom.g, geom.g_inv) - eye)))
    frame_orth = float(
        np.max(
            np.abs(
                np.einsum("...qa,...pa,a->...qp", geom.frame.vectors, geom.frame.vectors, np.r_[-1.0, np.ones(fields.n_ambient)])
                - np.eye(geom.frame.vectors.shape[-2])
            )
        )
    )
    frame_tan = float(
        np.max(np.abs(minkowski_dot(geom.frame.vectors[..., None, :, :], geom.tangents[..., :, None, :])))
    )
    rows = [
        ("gauss_residual", g_res),
        ("weingarten_residual", w_res),
        ("metric_inverse_residual", inv_res),
        ("frame_orthonormality_residual", frame_orth),
        ("frame_tangency_residual", frame_tan),
    ]
    text = "quantity,value\n" + "".join(f"{k},{_fmt(v)}\n" for k, v in rows)
    _write(out_dir / "geometry_report.csv", text)
    return 0


def _run_energy_eval(sc: Scenario, out_dir: Path) -> int:
    grid = build_scenario_grid(sc)
    fields = build_scenario_fields(sc, grid)
    K = float(sc.get("energy", "K", "0.0"))
    try:
        breakdown = assemble_JK(fields, grid, K)
    except GeometryError as exc:
        print(f"energy_eval failed: {exc}", file=sys.stderr)
        return 2
    text = EnergyBreakdown.csv_header() + "\n" + breakdown.csv_row() + "\n"
    _write(out_dir / "energy_report.csv", text)
    return 0


def _penalty_config(sc: Scenario) -> PenaltyConfig:
    kwargs = {}
    sched = sc.get("optimizer", "K_schedule")
    if sched:
        kwargs["k_schedule"] = tuple(_floats(sched))
    for name in ("step_init", "armijo_c", "backtrack", "grad_tol", "singular_tol"):
        val = sc.get("optimizer", name)
        if val:
            kwargs[name] = float(val)
    iters = sc.get("optimizer", "max_iters")
    if iters:
        kwargs["max_iters"] = int(iters)
    opt_fields = sc.get("optimizer", "optimize_fields")
    if opt_fields:
        kwargs["optimize_fields"] = tuple(tok.strip() for tok in opt_fields.split(",") if tok.strip())
    return PenaltyConfig(**kwargs)


def _run_minimize(sc: Scenario, out_dir: Path) -> int:
    grid = build_scenario_grid(sc)
    fields = build_scenario_fields(sc, grid)
    cfg = _penalty_config(sc)
    try:
        report = penalty_continuation(fields, grid, cfg)
    except GeometryError as exc:
        print(f"minimize failed: {exc}", file=sys.stderr)
        return 2
    csv_text = report.csv_header() + "\n" + "\n".join(report.csv_rows()) + "\n"
    _write(out_dir / "minimize_report.csv", csv_text)

    lines = [report.summary_line()]
    lines += [f"termination K={_fmt(rec.K)}: {rec.termination}" for rec in report.records]
    if report.theorem_range_notice:
        lines.append(report.theorem_range_notice)
    if report.stalled:
        lines.append("stalled: yes")

    ok = not report.stalled
    if _bool(sc.get("optimizer", "check_slope", "false")):
        band = _floats(sc.get("optimizer", "slope_band", "-1.3,-0.7"))
        lo, hi = min(band), max(band)
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


def _parse_queries(text: str) -> list[tuple[str, list[int]]]:
    queries = []
    for tok in text.split(";"):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ScenarioError(f"query {tok!r} is not of the form op:indices")
        op, idx = tok.split(":", 1)
        try:
            queries.append((op.strip(), [int(v) for v in idx.split(",") if v.strip()]))
        except ValueError:
            raise ScenarioError(f"query {tok!r}: event indices must be integers") from None
    return queries


def _causal_queries(sc: Scenario, n_events: int) -> list[tuple[str, list[int]]]:
    """causal.queries parsed; every event index must name one of the n_events events."""
    queries = _parse_queries(sc.get("causal", "queries", ""))
    for op, idx in queries:
        for i in idx:
            if not 0 <= i < n_events:
                raise ScenarioError(
                    f"query {op}:{','.join(str(v) for v in idx)}: event index {i} "
                    f"outside 0..{n_events - 1}"
                )
    return queries


def _run_causal(sc: Scenario, out_dir: Path) -> int:
    ev_file = sc.get("causal", "events")
    if ev_file is None:
        raise ScenarioError("causal.events is required")
    path = sc.base_dir / ev_file
    if not path.exists():
        print(f"event file not found: {path}", file=sys.stderr)
        return 1
    events = causal_mod.load_events(path, c=float(sc.get("constants", "c", "1.0")))
    radius = float(sc.get("causal", "radius", "1.0"))
    queries = _causal_queries(sc, len(events))
    graph = causal_mod.build_graph(events, radius)
    seed = int(sc.get("causal", "seed", str(sc.seed)))
    samples_raw = sc.get("causal", "samples")
    samples = int(samples_raw) if samples_raw else None

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
        if op in ops:
            result = sorted(ops[op](idx, graph))
            lines.append(f"{op}:{','.join(str(i) for i in idx)} -> " + " ".join(str(i) for i in result))
            counts.append(f"{op}={len(result)}")
        elif op == "achronal":
            val = causal_mod.is_achronal(idx, graph)
            lines.append(f"achronal:{','.join(str(i) for i in idx)} -> {str(val).lower()}")
            counts.append(f"achronal={'1' if val else '0'}")
        elif op == "cauchy":
            verdict = causal_mod.is_cauchy_surface(idx, graph)
            answer = str(verdict.is_cauchy).lower()
            if not verdict.is_cauchy:
                answer += f" witness={verdict.witness_kind}:{verdict.witness}"
            lines.append(f"cauchy:{','.join(str(i) for i in idx)} -> {answer}")
            counts.append(f"cauchy={'1' if verdict.is_cauchy else '0'}")
        elif op == "intercept":
            rep = causal_mod.intercept_check(idx, graph, samples=samples, seed=seed)
            lines.append(
                f"intercept:{','.join(str(i) for i in idx)} -> "
                f"paths={rep.paths_checked} violations={len(rep.violations)}"
            )
            counts.append(f"intercept_violations={len(rep.violations)}")
        else:
            raise ScenarioError(f"unknown causal query op {op!r}")
    lines.append("summary: events=%d edges=%d %s" % (
        len(graph),
        sum(a.size for a in graph.children),
        " ".join(counts),
    ))
    _write(out_dir / "causal_report.txt", "\n".join(lines) + "\n")
    return 0


def run(scenario_path: str | Path, out_dir: str | Path, overrides: Sequence[str] = ()) -> int:
    """Execute a scenario; returns the process exit code.

    0 on success, 2 on validation failures (degenerate geometry, stalled or
    out-of-band slope fits), 1 on usage or I/O errors.
    """
    try:
        sc = load_scenario(scenario_path, overrides)
    except (ScenarioError, OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    out = Path(out_dir)
    try:
        if sc.kind == "geometry_check":
            return _run_geometry_check(sc, out)
        if sc.kind == "energy_eval":
            return _run_energy_eval(sc, out)
        if sc.kind == "minimize":
            return _run_minimize(sc, out)
        return _run_causal(sc, out)
    except (ScenarioError, GridError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1


def check(scenario_path: str | Path, overrides: Sequence[str] = ()) -> int:
    """Validate a scenario without running it."""
    try:
        sc = load_scenario(scenario_path, overrides)
        if sc.kind in ("geometry_check", "energy_eval", "minimize"):
            grid = build_scenario_grid(sc)
            build_scenario_fields(sc, grid)
            if sc.kind == "minimize":
                _penalty_config(sc)
        else:
            ev_file = sc.get("causal", "events")
            if ev_file is None or not (sc.base_dir / ev_file).exists():
                raise ScenarioError(f"event file not found: {ev_file}")
            events = causal_mod.load_events(sc.base_dir / ev_file, c=float(sc.get("constants", "c", "1.0")))
            _causal_queries(sc, len(events))
    except (ScenarioError, GridError, OSError, ValueError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
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
