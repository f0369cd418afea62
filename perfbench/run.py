#!/usr/bin/env python3
"""Run one workload of the worldsheet benchmark and print its metrics.

    python3 perfbench/run.py --workload sheet_eval --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A line starting with ``#`` before it gives the raw times beside the scaled
ones.  Spans of a traced run and every result are written under
``perfbench/out/``.
"""

import os

# One thread per workload process: pin the BLAS/OpenMP pools before numpy loads.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import ctypes
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import checks
import timing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9


def _release_free_memory() -> None:
    """Hand the allocator's free memory back to the system (glibc only).

    Without it, how much of an op's memory is freshly mapped depends on
    what earlier ops left in the heap, and the peak RSS of identical runs
    differed by up to 7 %.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _import_program() -> None:
    """Put the checkout's sources first on the path, and refuse any other copy."""
    if not (SRC / "worldsheet" / "__init__.py").is_file():
        raise SystemExit(f"error: no worldsheet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import worldsheet

    if Path(worldsheet.__file__).resolve().parent != (SRC / "worldsheet").resolve():
        raise SystemExit(f"error: imported worldsheet from {worldsheet.__file__}, not from {SRC}")


def _spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"error: {path} not found")
    return json.loads(path.read_text())


def _probe(workload: str, seed: int) -> int:
    """Set up exactly as a run does, say 'ready', exit: the set-up time sample."""
    import workloads

    workdir = OUT / "work" / f"probe-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir)
        wl.setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Scaled and raw seconds from process start to 'ready', over SETUP_PROBES processes.

    Start-up is mostly imports, interpreter work whatever the workload, so
    the interpreter kernel scales it.
    """
    ref = timing.Reference("interpreter")
    for _ in range(3):
        ref.measure()
    scaled, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        before = ref.measure()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {code} without becoming ready")
        after = ref.measure()
        raw.append(t1 - t0)
        scaled.append(ref.scale(1e3 * (t1 - t0), 0.5 * (before + after)) / 1e3)
    return scaled, raw


class InOpReference:
    """Reference samples taken inside a long op.

    A long op can outlast a change in machine speed, so samples taken only
    before and after it misjudge it.  While active, a call to one of the
    workload's hook functions times one unit of its reference kernel if
    PERIOD_S has passed since the last.  Many short samples follow the
    machine's fast and slow phases more closely than a few long ones.  The
    time spent sampling is taken off the op's time.
    In a traced op each sample is its own span, so no layer's self time
    includes it.
    """

    PERIOD_S = 0.05

    def __init__(self, ref, hooks):
        self.ref = ref
        self.hooks = hooks
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._last = 0.0
        self._undo = []

    def start(self, tracer) -> None:
        import spans

        self.samples, self.spent_s, self._last = [], 0.0, time.perf_counter()
        sample = self.ref.measure_unit
        if tracer is not None:
            sample = tracer.span("bench.reference", sample)

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                now = time.perf_counter()
                if now - self._last >= self.PERIOD_S:
                    self.samples.append(sample())
                    self._last = time.perf_counter()
                    self.spent_s += self._last - now
                return fn(*args, **kwargs)

            return wrapper

        for owner, attr in self.hooks:
            self._undo += spans.patch(owner, attr, make_wrapper)

    def stop(self) -> None:
        import spans

        spans.unpatch(self._undo)
        self._undo = []


@dataclass
class Op:
    traced: bool
    raw_ms: float
    scaled_ms: float
    root: int | None  # the op's root span id when traced
    counts: dict


def _timed_ops(wl, seconds: float, ref, tracer):
    """Whole rounds of ops until ``seconds`` have passed; returns (ops, attempted, failed, error).

    With a tracer, rounds alternate untraced and traced, so both see the same
    inputs and the same machine.  Garbage is collected and free memory is
    released before each op, and the collector is off inside it.  Each op's
    time is scaled by the harmonic mean of the reference timings on either
    side of it and, for a workload with reference hooks, those taken inside
    it: the samples come at about equal stretches of time, and the work done
    in a stretch goes as the inverse of the reference time.
    """
    ops: list[Op] = []
    inside = InOpReference(ref, wl.reference_hooks) if wl.reference_hooks else None
    attempted = failed = 0
    i = 0
    rounds = 0
    prev = ref.measure()
    start = time.perf_counter()
    while True:
        traced = tracer is not None and rounds % 2 == 1
        for _ in range(wl.round_ops):
            attempted += 1
            gc.collect()
            _release_free_memory()
            if traced:
                tracer.install()
            if inside:
                inside.start(tracer if traced else None)
            gc.disable()
            root = None
            try:
                t0 = time.perf_counter()
                if traced:
                    result, root = tracer.run("bench.op", wl.op, i)
                else:
                    result = wl.op(i)
                t1 = time.perf_counter()
            except Exception:
                failed += 1
                traceback.print_exc()
                result = None
            finally:
                gc.enable()
                if inside:
                    inside.stop()
                if traced:
                    tracer.uninstall()
            after = ref.measure()
            local = [prev, after] + (inside.samples if inside else [])
            if result is not None:
                try:
                    counts = wl.check(i, result)
                except checks.CheckFailure as exc:
                    return ops, attempted, failed, f"op {i}: {exc}"
                except Exception:
                    traceback.print_exc()
                    return ops, attempted, failed, f"op {i}: checker raised"
                raw = 1e3 * (t1 - t0 - (inside.spent_s if inside else 0.0))
                ops.append(Op(traced, raw, ref.scale(raw, statistics.harmonic_mean(local)), root, counts))
            # The next op runs without this one's outputs held, so the peak
            # RSS is that of one op.
            result = None
            prev = after
            i += 1
        rounds += 1
        if time.perf_counter() - start >= seconds and rounds >= 2 and (tracer is None or rounds % 2 == 0):
            return ops, attempted, failed, None


def _per_layer(wl, ops, tracer, setup_root, ref) -> dict[str, float]:
    import spans
    from worldsheet import causal

    traced = [op for op in ops if op.traced]
    plain = [op for op in ops if not op.traced]
    n = len(traced)
    per_op = spans.layer_totals(tracer.spans, {op.root for op in traced})
    in_setup = spans.layer_totals(tracer.spans, {setup_root})

    def calls(name, totals=per_op, div=n):
        return totals[name]["calls"] / div if name in totals else 0.0

    def self_ms(name, totals=per_op, div=n):
        return 1e3 * totals[name]["self_s"] / div if name in totals else 0.0

    def counted(name):
        return sum(op.counts.get(name, 0) for op in traced) / n

    m = {}
    m["grid.finite_difference.calls"] = calls("grid.finite_difference")
    m["grid.finite_difference.self_ms"] = self_ms("grid.finite_difference")
    m["geometry.build_geometry.calls"] = calls("geometry.build_geometry")
    for name in ("geometry.build_geometry", "geometry.normal_frame", "geometry.riemann", "geometry.residuals"):
        m[name + ".self_ms"] = self_ms(name)
    jk = per_op.get("energy.assemble_JK", {})
    m["energy.assemble_JK.calls"] = calls("energy.assemble_JK")
    m["energy.assemble_JK.self_ms"] = self_ms("energy.assemble_JK")
    m["energy.assemble_JK.us_per_call"] = 1e6 * jk["incl_s"] / jk["calls"] if jk else 0.0

    iters = counted("optimizer.iterations")
    m["optimizer.iterations"] = iters
    # Line-search trials are the J_K evaluations made by minimize_fixed_K
    # itself, less its one evaluation before and one after the descent.
    trials = jk.get("calls_from:optimizer.minimize_fixed_K", 0.0) / n - 2 * calls("optimizer.minimize_fixed_K")
    m["optimizer.jk_evals_per_iteration"] = calls("energy.assemble_JK") / iters if iters else 0.0
    m["optimizer.line_search.trials_per_iteration"] = trials / iters if iters else 0.0
    m["optimizer.gradient_JK.self_ms"] = self_ms("optimizer.gradient_JK")
    m["optimizer.minimize_fixed_K.self_ms"] = self_ms("optimizer.minimize_fixed_K")
    m["cli.run.self_ms"] = self_ms("cli.run")

    # The graph is built in each op, or once in set-up (lattice_queries).
    built_in_setup = "causal.build_graph" not in per_op and "causal.build_graph" in in_setup
    if built_in_setup:
        m["causal.build_graph.self_ms"] = self_ms("causal.build_graph", in_setup, 1)
        m["causal.build_graph.edges"] = wl.setup_counts["causal.build_graph.edges"]
    else:
        m["causal.build_graph.self_ms"] = self_ms("causal.build_graph")
        m["causal.build_graph.edges"] = counted("causal.build_graph.edges")
    graph_input = wl.graph_input() if hasattr(wl, "graph_input") else None
    if graph_input is None:
        m["causal.build_graph.alloc_peak_mb"] = 0.0
    else:
        tracemalloc.start()
        causal.build_graph(*graph_input)
        m["causal.build_graph.alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    m["causal.reach.calls"] = calls("causal.reach")
    for name in ("causal.reach", "causal.dependence", "causal.cauchy", "causal.intercept"):
        m[name + ".self_ms"] = self_ms(name)
    m["causal.intercept.paths"] = counted("causal.intercept.paths")
    m["causal.sources.calls"] = calls("causal.sources")

    m["bench.reference_ms"] = statistics.median(ref.samples_ms)
    m["bench.raw_op_ms.p50"] = statistics.median(op.raw_ms for op in plain)
    m["bench.trace_overhead_ms"] = statistics.median(op.scaled_ms for op in traced) - statistics.median(
        op.scaled_ms for op in plain
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = _spec()
    _import_program()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        return _probe(args.workload, args.seed)

    ref = timing.Reference(workloads.WORKLOADS[args.workload].reference)
    for _ in range(3):
        ref.measure()
    ref.samples_ms.clear()

    tracer = spans.Tracer() if args.trace else None
    if not args.trace:
        setup_scaled, setup_raw = _setup_seconds(args.workload, args.seed)

    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_root = None
        if tracer:
            tracer.install()
            _, setup_root = tracer.run("bench.setup", wl.setup)
            tracer.uninstall()
        else:
            wl.setup()
        for i in range(wl.warmup_ops):
            wl.check(i, wl.op(i))
        ops, attempted, failed, error = _timed_ops(wl, args.seconds, ref, tracer)
        plain = [op for op in ops if not op.traced]
        if error is None and not plain:
            error = "no op completed"
        correct = error is None
        if not correct:
            metrics = {}
        elif args.trace:
            metrics = _per_layer(wl, ops, tracer, setup_root, ref)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
        else:
            scaled = [op.scaled_ms for op in plain]
            metrics = {
                "setup_s": statistics.median(setup_scaled),
                "op_ms.p50": statistics.median(scaled),
                # Per second of op time: the reference timings, checks and
                # collections between ops are the benchmark's own work.
                "ops_per_s": 1e3 * len(scaled) / sum(scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            print(
                f"# {args.workload} seed {args.seed}: {len(plain)} ops timed; op_ms.p50 "
                f"{metrics['op_ms.p50']:.2f} ms scaled, {statistics.median(op.raw_ms for op in plain):.2f} ms raw; "
                f"setup_s {metrics['setup_s']:.3f} s scaled, {statistics.median(setup_raw):.3f} s raw; "
                f"reference {statistics.median(ref.samples_ms):.3f} ms ({ref.kind} kernel, nominal {ref.nominal_ms} ms)"
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if error:
        print(f"check failed: {error}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted} if correct else {},
    }
    line = json.dumps(result)
    OUT.mkdir(parents=True, exist_ok=True)
    details = {
        "result": result,
        "ops": [{"traced": op.traced, "raw_ms": op.raw_ms, "scaled_ms": op.scaled_ms} for op in ops],
        "reference_ms": ref.samples_ms,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details) + "\n")
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
