import csv
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from worldsheet import DegenerateFrameError, cli, geometry, presets

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"


def write(tmp_path, text, name="scenario.scn"):
    p = tmp_path / name
    p.write_text(text)
    return p


MINIMAL_GEOMETRY = """\
[scenario]
schema = 1
kind = geometry_check

[grid]
extents = 0:1, 0:1
counts = 5, 5

[fields]
embedding = flat
"""


def test_parse_and_check_ok(tmp_path, capsys):
    p = write(tmp_path, MINIMAL_GEOMETRY)
    assert cli.check(p) == 0
    assert "scenario ok" in capsys.readouterr().out


def test_schema_is_mandatory(tmp_path):
    p = write(tmp_path, MINIMAL_GEOMETRY.replace("schema = 1\n", ""))
    assert cli.run(p, tmp_path / "out") == 1


def test_unknown_keys_listed(tmp_path, capsys):
    text = MINIMAL_GEOMETRY + "\n[grid]\n" if False else MINIMAL_GEOMETRY + "typo_key = 3\n"
    p = write(tmp_path, text)
    code = cli.run(p, tmp_path / "out")
    assert code == 1
    err = capsys.readouterr().err
    assert "fields.typo_key" in err


def test_unknown_section_rejected(tmp_path):
    p = write(tmp_path, MINIMAL_GEOMETRY + "\n[mystery]\nx = 1\n")
    assert cli.run(p, tmp_path / "out") == 1


def test_duplicate_key_rejected(tmp_path):
    p = write(tmp_path, MINIMAL_GEOMETRY + "embedding = flat\n")
    assert cli.run(p, tmp_path / "out") == 1


def test_override_wins(tmp_path):
    p = write(tmp_path, MINIMAL_GEOMETRY)
    out = tmp_path / "out"
    assert cli.run(p, out, overrides=["grid.counts=7,7"]) == 0
    assert (out / "geometry_report.csv").exists()


def test_geometry_check_flat_report(tmp_path):
    p = write(tmp_path, MINIMAL_GEOMETRY)
    out = tmp_path / "out"
    assert cli.run(p, out) == 0
    lines = (out / "geometry_report.csv").read_text().splitlines()
    assert lines[0] == "quantity,value"
    table = dict(csv.reader(lines[1:]))
    assert float(table["gauss_residual"]) == 0.0
    assert float(table["weingarten_residual"]) == 0.0
    assert float(table["metric_inverse_residual"]) < 1e-12


def test_geometry_check_cylinder_scenario_file(tmp_path):
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "geometry_cylinder.scn", out) == 0
    lines = (out / "geometry_report.csv").read_text().splitlines()
    table = dict(csv.reader(lines[1:]))
    assert float(table["gauss_residual"]) < 1e-10
    assert float(table["frame_orthonormality_residual"]) < 1e-10


def test_energy_eval_matches_library(tmp_path):
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "energy_flat.scn", out) == 0
    header, row = (out / "energy_report.csv").read_text().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    from worldsheet import assemble_JK, build_grid, presets

    g = build_grid([(0, 1), (0, 1)], [5, 5])
    f = presets.perturbed_flat(
        g, bump_amp=0.1, shear_amp=0.05, n_scale=1.2, n_tilt=0.1, mass_normalized=True
    )
    want = assemble_JK(f, g, 100.0)
    assert float(cols["total_JK"]) == want.total_JK
    assert float(cols["penalty_unit"]) == want.penalty_unit


def test_theorem_range_scenario(tmp_path):
    # m = 5, N = 6: inside the existence theorem's range, so no notice, and
    # every leg converges with the residuals decaying like 1/K.
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "theorem_range.scn", out) == 0
    lines = (out / "minimize_summary.txt").read_text().splitlines()
    assert not any("outside the existence theorem" in line for line in lines)
    terminations = [line for line in lines if line.startswith("termination K=")]
    assert len(terminations) == 4 and all(line.endswith(": converged") for line in terminations)
    slopes = [line for line in lines if line.startswith("slope_check ")]
    assert len(slopes) == 3 and all(line.endswith("-> ok") for line in slopes)
    assert lines[-1] == "exit: 0"


def test_minimize_quick_scenario(tmp_path):
    text = (SCENARIOS / "minimize_perturbed.scn").read_text()
    text = text.replace("K_schedule = 10, 100, 1000, 10000", "K_schedule = 10, 100")
    text = text.replace("max_iters = 800", "max_iters = 60")
    text = text.replace("check_slope = true", "check_slope = false")
    p = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.run(p, out) == 0
    rows = (out / "minimize_report.csv").read_text().splitlines()
    assert rows[0].startswith("K,iterations")
    assert len(rows) == 3
    summary = (out / "minimize_summary.txt").read_text()
    assert "slopes:" in summary
    assert "outside the existence theorem" in summary


def test_minimize_termination_reported(tmp_path):
    text = (SCENARIOS / "minimize_perturbed.scn").read_text()
    text = text.replace("K_schedule = 10, 100, 1000, 10000", "K_schedule = 10, 100")
    text = text.replace("max_iters = 800", "max_iters = 1")
    text = text.replace("check_slope = true", "check_slope = false")
    out = tmp_path / "out"
    assert cli.run(write(tmp_path, text), out) == 0
    rows = (out / "minimize_report.csv").read_text().splitlines()
    assert rows[0].endswith(",stalled,termination")
    assert [row.split(",")[-1] for row in rows[1:]] == ["max_iters", "max_iters"]
    summary = (out / "minimize_summary.txt").read_text().splitlines()
    assert "termination K=10: max_iters" in summary
    assert "termination K=100: max_iters" in summary


def test_minimize_non_finite_integrand_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "minimize_perturbed.scn", out, overrides=["fields.phi0=1e200"]) == 2
    assert capsys.readouterr().err.splitlines() == ["minimize failed: non-finite integrand at node (0, 0)"]
    assert not (out / "minimize_report.csv").exists()


def test_minimize_slope_checks_skip_residuals_at_machine_zero(tmp_path, capsys):
    # An admissible flat start: every leg stops at once with residuals of zero, which no slope fits.
    flat = ["fields.bump_amp=0", "fields.shear_amp=0", "fields.n_scale=1", "fields.n_tilt=0"]
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "minimize_perturbed.scn", out, overrides=flat) == 0
    assert capsys.readouterr().err == ""
    summary = (out / "minimize_summary.txt").read_text().splitlines()
    assert [line for line in summary if line.startswith("slope_check ")] == [
        f"slope_check {name}: skipped (residual at machine zero)" for name in ("norm", "orth", "unit")
    ]
    assert summary[-1] == "exit: 0"


def test_minimize_demo_converges_every_leg(tmp_path):
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "minimize_perturbed.scn", out) == 0
    summary = (out / "minimize_summary.txt").read_text().splitlines()
    terminations = [line for line in summary if line.startswith("termination K=")]
    assert len(terminations) == 4
    assert all(line.endswith(": converged") for line in terminations)
    assert sum(line.startswith("slope_check ") and line.endswith(" -> ok") for line in summary) == 3
    descents = [line for line in summary if line.startswith("descent K=")]
    assert len(descents) == 4
    assert all(line.endswith("resets 0, fallbacks 0") for line in descents)
    assert summary[-1] == "exit: 0"


@pytest.mark.parametrize("name", ["minimize_perturbed", "theorem_range"])
def test_frozen_r_legs_take_the_exact_step(tmp_path, name):
    # J_K is a quartic along each phi/n direction: nearly every iteration takes its exact step with one evaluation.
    assert cli.run(SCENARIOS / f"{name}.scn", tmp_path) == 0
    descents = [line for line in (tmp_path / "minimize_summary.txt").read_text().splitlines()
                if line.startswith("descent K=")]
    assert len(descents) == 4
    for line in descents:
        counts = dict(item.rsplit(" ", 1) for item in line.split(": ", 1)[1].split(", "))
        assert int(counts["evaluations"]) <= int(counts["iterations"]) + 2, line


def test_all_fields_legs_report_backtracked_searches(tmp_path):
    # With r optimised no step is exact: the K = 10 leg halves some searches before it stalls, and each later leg's
    # one search underflows at once.
    overrides = ["optimizer.optimize_fields=r,phi,n", "optimizer.max_iters=300"]
    assert cli.run(SCENARIOS / "minimize_perturbed.scn", tmp_path, overrides=overrides) == 2
    lines = (tmp_path / "minimize_summary.txt").read_text().splitlines()
    descents = [dict(item.rsplit(" ", 1) for item in s.split(": ", 1)[1].split(", "))
                for s in lines if s.startswith("descent K=")]
    assert len(descents) == 4 and int(descents[0]["backtracked"]) > 0
    assert all((int(d["iterations"]), int(d["backtracked"])) == (0, 1) for d in descents[1:])


def test_minimize_fd_step_key_removed(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "minimize_perturbed.scn", out, overrides=["optimizer.fd_step=1e-6"]) == 1
    assert "optimizer.fd_step" in capsys.readouterr().err


def test_geometry_check_non_unit_normal_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.run(SCENARIOS / "energy_flat.scn", out, overrides=["scenario.kind=geometry_check"])
    assert code == 2
    rows = list(csv.reader(io.StringIO((out / "geometry_report.csv").read_text())))
    err = capsys.readouterr().err
    assert "Traceback" not in err
    message = err.strip().removeprefix("geometry_check failed: ")
    assert message.startswith("normal is not unit at node (1, 1)")
    assert rows == [["quantity", "value"], ["error", message]]


def test_geometry_check_frame_error_exits_2(tmp_path, capsys, monkeypatch):
    # The frame is formed on first read, inside the same try as the build: its errors exit 2 too.
    message = "null direction in the tangent complement at node (2, 2)"

    def degenerate(metric_data):
        raise DegenerateFrameError(message)

    monkeypatch.setattr(geometry, "normal_frame", degenerate)
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "geometry_cylinder.scn", out) == 2
    assert capsys.readouterr().err.splitlines() == [f"geometry_check failed: {message}"]
    rows = list(csv.reader(io.StringIO((out / "geometry_report.csv").read_text())))
    assert rows == [["quantity", "value"], ["error", message]]


def test_energy_eval_non_finite_integrand_exits_2(tmp_path, capsys):
    # A finite phi0 whose |phi|^2 overflows: a NaN phi0 is an input error (exit 1).
    code = cli.run(SCENARIOS / "energy_flat.scn", tmp_path / "out", overrides=["fields.phi0=1e200"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["energy_eval failed: non-finite integrand at node (0, 0)"]


TABLE_GEOMETRY = MINIMAL_GEOMETRY.replace("embedding = flat", "embedding = table")
# Inputs that are read only once the computation starts: each must fail in
# the shared input step, under run and check alike.  (scenario, overrides,
# the text of a data file events.txt beside the scenario, or None)
BAD_INPUTS = {
    "duplicate_event": ("causal_grid.scn", [], "0 0\n1 0\n0 0\n"),
    "non_finite_event": ("causal_grid.scn", [], "0 0\n1 nan\n"),
    "radius_zero": ("causal_grid.scn", ["causal.radius=0"], None),
    "radius_text": ("causal_grid.scn", ["causal.radius=abc"], None),
    "samples_text": ("causal_grid.scn", ["causal.samples=abc"], None),
    "seed_text": ("causal_grid.scn", ["causal.seed=x"], None),
    "scenario_seed_text": ("energy_flat.scn", ["scenario.seed=abc"], None),
    "scenario_seed_float": ("energy_flat.scn", ["scenario.seed=1e3"], None),
    "scenario_seed_negative": ("energy_flat.scn", ["scenario.seed=-1"], None),
    "scenario_schema_text": ("energy_flat.scn", ["scenario.schema=x"], None),
    "step_init_negative": ("minimize_perturbed.scn", ["optimizer.step_init=-1"], None),
    "step_init_nan": ("minimize_perturbed.scn", ["optimizer.step_init=nan"], None),
    "step_init_inf": ("minimize_perturbed.scn", ["optimizer.step_init=inf"], None),
    "grad_tol_nan": ("minimize_perturbed.scn", ["optimizer.grad_tol=nan"], None),
    "singular_tol_nan": ("minimize_perturbed.scn", ["optimizer.singular_tol=nan"], None),
    "K_schedule_nan": ("minimize_perturbed.scn", ["optimizer.K_schedule=10,nan"], None),
    "K_schedule_inf": ("minimize_perturbed.scn", ["optimizer.K_schedule=10,inf"], None),
    "optimize_fields_unknown": ("minimize_perturbed.scn", ["optimizer.optimize_fields=q"], None),
    "optimize_fields_empty": ("minimize_perturbed.scn", ["optimizer.optimize_fields=,"], None),
    "K_schedule_decreasing": ("minimize_perturbed.scn", ["optimizer.K_schedule=100,10"], None),
    "K_schedule_repeated": ("minimize_perturbed.scn", ["optimizer.K_schedule=10,10"], None),
    "K_negative": ("energy_flat.scn", ["energy.K=-1"], None),
    "counts_inf": ("minimize_perturbed.scn", ["grid.counts=inf,5"], None),
    "counts_fraction": ("minimize_perturbed.scn", ["grid.counts=3.7,5"], None),
    "bump_amp_inf": ("minimize_perturbed.scn", ["fields.bump_amp=inf"], None),
    "phi0_nan": ("minimize_perturbed.scn", ["fields.phi0=nan"], None),
    "epsilon_nan": ("minimize_perturbed.scn", ["constants.epsilon=nan"], None),
    "epsilon_negative": ("minimize_perturbed.scn", ["constants.epsilon=-1"], None),
    "max_iters_negative": ("minimize_perturbed.scn", ["optimizer.max_iters=-5"], None),
    "slope_band_nan": ("minimize_perturbed.scn", ["optimizer.slope_band=nan"], None),
    "mass_nan": ("minimize_perturbed.scn", ["constants.mass=nan"], None),
    "mass_inf": ("minimize_perturbed.scn", ["constants.mass=inf"], None),
    "mass_negative": ("minimize_perturbed.scn", ["constants.mass=-1"], None),
    "mass_text": ("minimize_perturbed.scn", ["constants.mass=abc"], None),
    "mass_empty": ("minimize_perturbed.scn", ["constants.mass="], None),
    "c_nan": ("minimize_perturbed.scn", ["constants.c=nan"], None),
    "c_subnormal": ("causal_grid.scn", ["constants.c=1e-310"], None),
    # Settings that became constants are unknown keys.
    "armijo_c_removed": ("minimize_perturbed.scn", ["optimizer.armijo_c=0.5"], None),
    "backtrack_removed": ("minimize_perturbed.scn", ["optimizer.backtrack=0.5"], None),
    "normalize_phi_removed": ("minimize_perturbed.scn", ["fields.normalize_phi=true"], None),
    # A preset that refuses N <= m, or the grid's m, names the keys behind them.
    "n_ambient_not_above_m": ("minimize_perturbed.scn", ["fields.n_ambient=1"], None),
    "n_ambient_text_on_table": (TABLE_GEOMETRY, ["fields.n_ambient=abc"], None),
    "cylinder_on_m_2_grid": ("geometry_cylinder.scn", ["grid.extents=0:1,0:1,0:1", "grid.counts=3,5,5"], None),
    "sphere_product_on_m_1_grid": ("energy_flat.scn", ["fields.embedding=sphere_product"], None),
    # A key that is set is parsed even where the scenario's kind does not read it.
    "radius_text_unread": ("minimize_perturbed.scn", ["fields.radius=abc"], None),
    "K_negative_unread": ("minimize_perturbed.scn", ["energy.K=-5"], None),
    "causal_radius_nan_unread": ("minimize_perturbed.scn", ["causal.radius=nan"], None),
    # Event-file errors name causal.events.
    "event_row_text": ("causal_grid.scn", ["causal.events=events.txt"], "0 0\n1 abc\n"),
    "event_file_missing": ("causal_grid.scn", ["causal.events=nope.txt"], None),
    # Table-file errors name fields.table, and so does a table of N <= m columns.
    "table_file_missing": (TABLE_GEOMETRY, ["fields.table=nope.txt"], None),
    "table_row_text": (TABLE_GEOMETRY, ["fields.table=events.txt"], "0 0 0\n1 abc 0\n"),
    "table_N_not_above_m": (
        TABLE_GEOMETRY, ["fields.table=events.txt"], "".join(f"{i} {j}\n" for i in range(5) for j in range(5))
    ),
    # A slope check needs two K values to fit a slope.
    "check_slope_one_K": ("minimize_perturbed.scn", ["optimizer.K_schedule=10", "optimizer.check_slope=true"], None),
    # The scenario text and the overrides are parsed before any key is read.
    "line_without_equals": (MINIMAL_GEOMETRY + "oops\n", [], None),
    "key_outside_any_section": ("x = 1\n" + MINIMAL_GEOMETRY, [], None),
    "override_without_section": ("energy_flat.scn", ["foo"], None),
    "schema_unsupported": ("energy_flat.scn", ["scenario.schema=2"], None),
    "counts_below_3": ("minimize_perturbed.scn", ["grid.counts=2,7"], None),
}
# An empty value is an input error for every key but causal.queries, on a
# scenario that reads the key (a scenario text in place of a file name).
EMPTY_VALUE_SCENARIOS = {
    "causal": "causal_grid.scn",
    "energy": "energy_flat.scn",
    "fields.radius": "geometry_cylinder.scn",
    "fields.table": TABLE_GEOMETRY,
}
BAD_INPUTS.update(
    {
        f"{section}.{key}_empty": (
            EMPTY_VALUE_SCENARIOS.get(f"{section}.{key}", EMPTY_VALUE_SCENARIOS.get(section, "minimize_perturbed.scn")),
            [f"{section}.{key}="],
            None,
        )
        for section, keys in cli._SCHEMA.items()
        for key in keys
        if f"{section}.{key}" != "causal.queries"
    }
)


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, case, command):
    name, overrides, events = BAD_INPUTS[case]
    scenario = write(tmp_path, name) if "\n" in name else SCENARIOS / name
    if events is not None:
        (tmp_path / "events.txt").write_text(events)
        scenario = write(tmp_path, scenario.read_text().replace("events_flat.txt", "events.txt"))
    sets = [arg for item in overrides for arg in ("--set", item)]
    out = tmp_path / "out"
    argv = ["run", str(scenario), "--out", str(out)] if command == "run" else ["check", str(scenario)]
    assert cli.main(argv + sets) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("scenario error: ")
    assert "Traceback" not in captured.err
    for item in overrides:  # the message names the section.key it rejects
        assert item.split("=")[0] in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_first_bad_unread_key_is_named(tmp_path, capsys, command):
    # None of the three keys is read by a minimize run; the first one set is the one named.
    sets = ["--set", "fields.radius=abc", "--set", "energy.K=-5", "--set", "causal.radius=nan"]
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(SCENARIOS / "minimize_perturbed.scn"), *out, *sets]) == 1
    assert capsys.readouterr().err == "scenario error: fields.radius = 'abc' is not a valid float\n"


def test_well_formed_unread_keys_are_accepted(capsys):
    sets = ["causal.radius=2", "fields.radius=3", "optimizer.max_iters=7", "causal.events=nope.txt"]
    assert cli.check(SCENARIOS / "energy_flat.scn", overrides=sets) == 0
    assert capsys.readouterr() == ("scenario ok\n", "")


@pytest.mark.parametrize(
    "events, item, tail",
    [
        ("0 0\n1 abc\n", "causal.events=events.txt", "could not convert string 'abc' to float64 at row 1, column 2."),
        (None, "causal.events=nope.txt", "not found."),
    ],
)
def test_event_file_error_names_the_key(tmp_path, capsys, events, item, tail):
    if events is not None:
        (tmp_path / "events.txt").write_text(events)
    scenario = write(tmp_path, (SCENARIOS / "causal_grid.scn").read_text())
    assert cli.check(scenario, overrides=[item]) == 1
    err = capsys.readouterr().err
    name = item.split("=")[1]
    assert err.startswith(f"scenario error: causal.events = {name!r}: ") and err.endswith(tail + "\n")
    assert len(err.splitlines()) == 1


def test_empty_causal_queries_means_no_queries(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.check(SCENARIOS / "causal_grid.scn", overrides=["causal.queries="]) == 0
    assert cli.run(SCENARIOS / "causal_grid.scn", out, overrides=["causal.queries="]) == 0
    assert (out / "causal_report.txt").read_text().startswith("summary: events=42 edges=")
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("step", ["1e100", "1e300"])
def test_huge_initial_step_backtracks_to_convergence(tmp_path, capsys, step):
    # The first trials overflow the integrand: each such trial is rejected and
    # the step halved, as for a degenerate trial.
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "minimize_perturbed.scn", out, overrides=[f"optimizer.step_init={step}"]) == 0
    assert capsys.readouterr().err == ""
    summary = (out / "minimize_summary.txt").read_text().splitlines()
    terminations = [line for line in summary if line.startswith("termination K=")]
    assert len(terminations) == 4 and all(line.endswith(": converged") for line in terminations)
    assert sum(line.startswith("slope_check ") and line.endswith(" -> ok") for line in summary) == 3
    assert summary[-1] == "exit: 0"


def test_readme_key_reference_matches_schema():
    # Each row of the README's key table names one section.key and shows its
    # default as the scenario table states it.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    reference = readme.split("Key reference:", 1)[1].split("\n\n", 2)[1]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in reference.splitlines()[2:]]

    def shown(default):
        if default is Ellipsis:
            return "required"
        if default is None:
            return "unset"
        if default == "":
            return "empty"
        text = ", ".join(str(v) for v in default) if isinstance(default, tuple) else str(default)
        return f"`{text.lower() if isinstance(default, bool) else text}`"

    want = {f"`{section}.{key}`": shown(entry[1]) for section, keys in cli._SCHEMA.items() for key, entry in keys.items()}
    assert {row[0]: row[2] for row in rows} == want
    assert len(rows) == len(want)


def _cli(*args, cwd):
    """python -m worldsheet in a fresh process, whose stderr pytest does not capture."""
    src = Path(cli.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "worldsheet", *args],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


# A finite amplitude whose metric overflows is an input error, named in the input step.
BUMP_OVERFLOW = "scenario error: [fields] embedding perturbed_flat: metric is not finite at node (0, 0)"
# A finite normal scale whose unit penalty overflows is named there too, not blamed on the integrand.
N_SCALE_OVERFLOW = (
    "scenario error: fields.n_scale and fields.n_tilt give a normal whose (n.n - 1)^2 is not finite at node (1, 1)"
)


EMPTY_EVENTS = "scenario error: causal.events = 'empty.txt': event file {} has no events"


@pytest.mark.parametrize(
    "command, scenario, item, code, err",
    [
        ("run", "energy_flat.scn", "fields.phi0=1e200", 2, "energy_eval failed: non-finite integrand at node (0, 0)"),
        ("run", "energy_flat.scn", "fields.phi0=1e100", 2, "energy_eval failed: non-finite norm penalty at u_0 slice (0)"),
        ("run", "energy_flat.scn", "fields.bump_amp=1e200", 1, BUMP_OVERFLOW),
        ("check", "energy_flat.scn", "fields.bump_amp=1e200", 1, BUMP_OVERFLOW),
        ("run", "minimize_perturbed.scn", "fields.n_scale=1e200", 1, N_SCALE_OVERFLOW),
        ("check", "minimize_perturbed.scn", "fields.n_scale=1e200", 1, N_SCALE_OVERFLOW),
        ("run", "causal_grid.scn", "causal.events=empty.txt", 1, EMPTY_EVENTS),
        ("check", "causal_grid.scn", "causal.events=empty.txt", 1, EMPTY_EVENTS),
    ],
    ids=[
        "run-phi0_overflow",
        "run-phi0_norm_overflow",
        "run-bump_amp_overflow",
        "check-bump_amp_overflow",
        "run-n_scale_overflow",
        "check-n_scale_overflow",
        "run-empty_events",
        "check-empty_events",
    ],
)
def test_cli_output_is_one_line_without_warnings(tmp_path, command, scenario, item, code, err):
    # Overflowing inputs and an empty event file made numpy warn on stderr
    # before the one-line message.
    (tmp_path / "empty.txt").write_text("# no events\n")
    path = write(tmp_path, (SCENARIOS / scenario).read_text())
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    proc = _cli(command, str(path), *out, "--set", item, cwd=tmp_path)
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == ("", err.format(tmp_path / "empty.txt") + "\n")


@pytest.mark.parametrize("query, index", [("I+:-1", "-1"), ("J+:999", "999")])
def test_causal_query_index_out_of_range(tmp_path, capsys, query, index):
    out = tmp_path / "out"
    code = cli.run(SCENARIOS / "causal_grid.scn", out, overrides=[f"causal.queries={query}"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert query in err[0] and f"event index {index} " in err[0]
    assert not (out / "causal_report.txt").exists()
    assert cli.check(SCENARIOS / "causal_grid.scn", overrides=[f"causal.queries={query}"]) == 1


def test_causal_query_index_not_integer(tmp_path, capsys):
    code = cli.run(SCENARIOS / "causal_grid.scn", tmp_path / "out", overrides=["causal.queries=J+:x"])
    assert code == 1
    assert "J+:x" in capsys.readouterr().err


def test_causal_scenario_report(tmp_path):
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "causal_grid.scn", out) == 0
    text = (out / "causal_report.txt").read_text()
    lines = text.splitlines()
    assert lines[-1].startswith("summary: events=42")
    iplus = next(line for line in lines if line.startswith("I+:3 ->"))
    got = [int(tok) for tok in iplus.split("->")[1].split()]
    assert got == sorted(got)
    assert "achronal:14,15,16,17,18,19,20 -> true" in text
    assert "cauchy:14,15,16,17,18,19,20 -> true" in text
    assert "violations=0" in text


@pytest.mark.parametrize("c, moderate", [("1e200", "1e100"), ("1e-200", "1e-100")])
def test_causal_report_at_extreme_c_equals_moderate_c(tmp_path, capsys, c, moderate):
    # Far from c = 1 the lattice's edges no longer depend on c: every later event within radius is a time-like child
    # at large c, only the later ones at the same place at small c.  c = 1e200 and 1e-200 made those edges null.
    for value in (c, moderate):
        assert cli.run(SCENARIOS / "causal_grid.scn", tmp_path / value, overrides=[f"constants.c={value}"]) == 0
    assert capsys.readouterr().err == ""
    report = [(tmp_path / value / "causal_report.txt").read_bytes() for value in (c, moderate)]
    assert report[0] == report[1]
    assert b" intercept_violations=0" in report[0]


def test_intercept_on_non_cauchy_set_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.run(SCENARIOS / "causal_grid.scn", out, overrides=["causal.queries=intercept:0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "causal query intercept:0 failed: intercept_check precondition failed: "
        "sigma is not a Cauchy surface (uncovered witness (1,))"
    ]
    assert not (out / "causal_report.txt").exists()


def test_exhaustive_intercept_over_path_limit_exits_2(tmp_path, capsys):
    # A 16x16 lattice at radius 1.6 has far more than 200,000 maximal paths.
    (tmp_path / "events.txt").write_text("".join(f"{t} {x}\n" for t in range(16) for x in range(16)))
    row = ",".join(str(8 * 16 + x) for x in range(16))
    text = (SCENARIOS / "causal_grid.scn").read_text().replace("events_flat.txt", "events.txt")
    scenario = write(tmp_path, text)
    assert cli.main(["run", str(scenario), "--out", str(tmp_path / "out"), "--set", f"causal.queries=intercept:{row}"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"causal query intercept:{row} failed: more than 200000 maximal paths; use sampling instead"]


def test_causal_missing_event_file(tmp_path, capsys):
    text = (SCENARIOS / "causal_grid.scn").read_text().replace("events_flat.txt", "nope.txt")
    p = write(tmp_path, text)
    assert cli.run(p, tmp_path / "out") == 1
    assert "nope.txt" in capsys.readouterr().err


def test_emit_convergence_table_order():
    csv = cli.emit_convergence_table([0.1, 0.05], {"res": [1e-2, 2.5e-3]})
    lines = csv.splitlines()
    assert lines[0] == "parameter,res,res_order"
    assert lines[2].endswith(",2")


def test_emit_convergence_table_needs_two_rows():
    with pytest.raises(ValueError, match=">= 2 rows"):
        cli.emit_convergence_table([0.1], {"res": [1e-2]})


def test_emit_convergence_table_rejects_a_column_of_the_wrong_length():
    with pytest.raises(ValueError, match="'res' length mismatch"):
        cli.emit_convergence_table([0.1, 0.05], {"res": [1e-2]})


@pytest.mark.parametrize("zero", [0, 0.0, np.float64(0.0)], ids=["int", "float", "numpy"])
def test_emit_convergence_table_blanks_an_order_whose_log_is_not_finite(zero):
    # A residual at zero divided by zero: ZeroDivisionError on a Python number, -inf and a numpy warning on
    # a numpy one.  Gauss residuals at rounding level can be exactly zero.
    csv = cli.emit_convergence_table([1, 2, 4, 8, 16], {"res": [1.0, zero, 0.25, np.inf, 0.0625]})
    assert csv.splitlines()[1:] == ["1,1,", "2,0,", "4,0.25,", "8,inf,", "16,0.0625,"]


def test_emit_convergence_table_k_sweep_matches_fit():
    from worldsheet import fit_loglog_slope

    ks = [10.0, 100.0, 1000.0]
    rs = [0.37 / k for k in ks]
    csv = cli.emit_convergence_table(ks, {"res": rs})
    orders = [float(line.split(",")[-1]) for line in csv.splitlines()[2:]]
    slope = fit_loglog_slope(ks, rs)
    for order in orders:
        assert abs(order - slope) <= 1e-9


def test_main_entry_points(tmp_path, capsys):
    p = write(tmp_path, MINIMAL_GEOMETRY)
    assert cli.main(["check", str(p)]) == 0
    out = tmp_path / "out"
    assert cli.main(["run", str(p), "--out", str(out)]) == 0
    assert (out / "geometry_report.csv").exists()


def test_repeated_runs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert cli.run(SCENARIOS / "energy_flat.scn", out) == 0
        assert cli.run(SCENARIOS / "causal_grid.scn", out) == 0
    for name in ("energy_report.csv", "causal_report.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_tabulated_embedding(tmp_path):
    g_counts = (5, 5)
    import numpy as np

    from worldsheet import build_grid

    g = build_grid([(0, 1), (0, 1)], g_counts)
    coords = g.coordinates.reshape(-1, 2)
    table = np.column_stack([coords, 0.1 * np.sin(np.pi * coords[:, 1])])
    np.savetxt(tmp_path / "table.txt", table)
    text = MINIMAL_GEOMETRY.replace("embedding = flat", "embedding = table\ntable = table.txt")
    p = write(tmp_path, text)
    out = tmp_path / "out"
    assert cli.run(p, out) == 0
    lines = (out / "geometry_report.csv").read_text().splitlines()
    table_vals = dict(csv.reader(lines[1:]))
    assert float(table_vals["frame_tangency_residual"]) < 1e-9


def test_tabulated_cylinder_normal_is_oriented_like_the_preset(tmp_path):
    # The cylinder preset's r, written as a table: without an orientation rule
    # its normal flipped at 144 of 297 nodes and weingarten_residual read 0.669.
    scenario = SCENARIOS / "geometry_cylinder.scn"
    _, inputs = cli._load(scenario, [])
    r = presets.cylinder(inputs["grid"], radius=1.5).r
    np.savetxt(tmp_path / "table.txt", r.reshape(-1, r.shape[-1]), fmt="%.17g")
    residual = {}
    for name, overrides in (("preset", []), ("table", ["fields.embedding=table", f"fields.table={tmp_path / 'table.txt'}"])):
        sets = [arg for o in overrides for arg in ("--set", o)]
        assert cli.main(["run", str(scenario), "--out", str(tmp_path / name), *sets]) == 0
        rows = dict(csv.reader((tmp_path / name / "geometry_report.csv").read_text().splitlines()[1:]))
        residual[name] = float(rows["weingarten_residual"])
    assert residual["table"] <= 3.0 * residual["preset"]


@pytest.mark.parametrize("command", ["run", "check"])
def test_tabulated_embedding_rows_must_match_the_grid(tmp_path, capsys, command):
    g = cli.build_grid([(0, 1), (0, 1)], (5, 5))
    coords = g.coordinates.reshape(-1, 2)[:-1]
    np.savetxt(tmp_path / "table.txt", np.column_stack([coords, 0.1 * np.sin(np.pi * coords[:, 1])]))
    p = write(tmp_path, MINIMAL_GEOMETRY.replace("embedding = flat", "embedding = table\ntable = table.txt"))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(p), *out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["scenario error: fields.table: tabulated embedding has 24 rows, grid has 25 nodes"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_tabulated_embedding_checks_n_ambient_against_its_columns(tmp_path, capsys, command):
    g = cli.build_grid([(0, 1), (0, 1)], (5, 5))
    coords = g.coordinates.reshape(-1, 2)
    np.savetxt(tmp_path / "table.txt", np.column_stack([coords, 0.1 * np.sin(np.pi * coords[:, 1])]))
    p = write(tmp_path, MINIMAL_GEOMETRY.replace("embedding = flat", "embedding = table\ntable = table.txt"))
    out = ["--out", str(tmp_path / "out")] if command == "run" else []
    assert cli.main([command, str(p), *out, "--set", "fields.n_ambient=7"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["scenario error: fields.n_ambient = 7 does not match fields.table: its 3 columns give N = 2"]
    assert cli.main([command, str(p), *out, "--set", "fields.n_ambient=2"]) == 0  # the table's own N
    assert capsys.readouterr().err == ""


FUZZ_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e400", "3.7", "abc", "")
# The scenario each section's keys are fuzzed on; the overrides keep a minimize run short.
FUZZ_SCENARIOS = {"causal": ("causal_grid.scn", []), "energy": ("energy_flat.scn", [])}
FUZZ_DEFAULT = ("minimize_perturbed.scn", ["optimizer.K_schedule=10,100", "optimizer.max_iters=3"])


def test_set_fuzz_never_crashes(tmp_path, capsys):
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for section, keys in sorted(cli._SCHEMA.items()):
        name, base = FUZZ_SCENARIOS.get(section, FUZZ_DEFAULT)
        for key in sorted(keys):
            for value in rng.choice(FUZZ_VALUES, 3, replace=False):
                item = f"{section}.{key}={value}"
                sets = [arg for override in (*base, item) for arg in ("--set", override)]
                codes = {}
                for command in ("check", "run"):
                    out = ["--out", str(tmp_path / "out")] if command == "run" else []
                    try:
                        codes[command] = cli.main([command, str(SCENARIOS / name), *out, *sets])
                    except Exception as exc:  # in-process, a traceback surfaces as an exception
                        pytest.fail(f"{command} --set {item}: {exc!r}")
                    err = capsys.readouterr().err
                    assert codes[command] in (0, 1, 2), f"{command} --set {item}: exit {codes[command]}"
                    assert "Traceback" not in err, f"{command} --set {item}: {err}"
                if codes["run"] == 1:
                    assert codes["check"] == 1, f"--set {item}: run exits 1 but check passes"
    assert time.perf_counter() - start < 5.0
