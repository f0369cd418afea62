#!/usr/bin/env python3
"""Run every workload and print its metrics; or run two sets and compare them.

    python3 perfbench/suite.py            # each workload once, seed 1: end-to-end metrics
    python3 perfbench/suite.py --trace    # each workload traced, seed 1: per-layer metrics
    python3 perfbench/suite.py --steady   # two sets of runs: agree within the bounds?

Run from the root of a checkout.  Every run is its own ``perfbench/run.py``
process of ``run_seconds`` (BENCHMARK.json), one workload at a time.
``--steady`` runs set A on seeds 1..10 and set B on seeds 11..20, then reports
per workload and metric both medians, each set's spread (distance between the
first and third quartile over the median) and whether the two sets agree:
each spread within the metric's bound, the two medians within the bound of
each other, and the same share of failed ops.  It exits 1 if anything
disagrees.  All results are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10  # runs per set and workload with --steady


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    for line in lines[:-1]:
        print(line, flush=True)
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steady(spec: dict) -> bool:
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = {}
    for label, first in (("A", 1), ("B", SEEDS + 1)):
        sets[label] = {w: [run_one(w, s, seconds, False) for s in range(first, first + SEEDS)] for w in names}
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "suite-steady.json").write_text(json.dumps(sets, indent=1) + "\n")

    ok = True
    print(f"{'workload':16} {'metric':12} {'median A':>12} {'median B':>12} {'B/A-1':>7} "
          f"{'spread A':>8} {'spread B':>8} {'bound':>5}  verdict")
    for w in names:
        runs_a, runs_b = sets["A"][w], sets["B"][w]
        share = {k: {r["failed"] / r["attempted"] for r in v} for k, v in (("A", runs_a), ("B", runs_b))}
        if share["A"] != share["B"] or len(share["A"]) != 1:
            print(f"{w:16} failed-op share differs: {share}")
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in runs_a]
            vb = [r["metrics"][name]["value"] for r in runs_b]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            agree = abs(mb / ma - 1.0) <= bound and sa <= bound and sb <= bound
            steady_enough = max(sa, sb) < bound / 3
            verdict = "agree" if agree else "DISAGREE"
            if agree and not steady_enough:
                verdict += " (spread above a third of the bound)"
            ok = ok and agree
            print(f"{w:16} {name:12} {ma:12.5g} {mb:12.5g} {mb / ma - 1:+7.3f} {sa:8.3f} {sb:8.3f} {bound:5.2f}  {verdict}")
    print("all metrics agree within their bounds" if ok else "some metrics disagree")
    return ok


def table(spec: dict, trace: bool) -> None:
    names = [w["name"] for w in spec["workloads"]]
    results = {w: run_one(w, 1, spec["run_seconds"], trace) for w in names}
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"suite-trace{int(trace)}.json").write_text(json.dumps(results, indent=1) + "\n")
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    width = max(len(m["name"]) for m in metrics) + 8
    print(f"{'metric (unit)':{width}}" + "".join(f"{w:>17}" for w in names))
    for m in metrics:
        label = f"{m['name']} ({m['unit']})"
        print(f"{label:{width}}" + "".join(f"{results[w]['metrics'][m['name']]['value']:17.6g}" for w in names))
    print(f"{'ops attempted':{width}}" + "".join(f"{results[w]['attempted']:17d}" for w in names))
    print(f"{'ops failed':{width}}" + "".join(f"{results[w]['failed']:17d}" for w in names))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true", help="per-layer metrics from traced runs")
    parser.add_argument("--steady", action="store_true", help="two sets of runs, compared")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.steady:
        return 0 if steady(spec) else 1
    table(spec, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
