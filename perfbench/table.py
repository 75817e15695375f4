#!/usr/bin/env python3
"""Run the benchmark over several seeds and print every metric with its spread.

    python3 perfbench/table.py --seeds 1,2,3,4,5 --trace 0

Runs `perfbench/run.py` once per (seed, workload), seed-major so that the
workloads interleave, one process at a time.  For each workload and metric it
prints the median, the quartiles from `statistics.quantiles(values, n=4)`,
the spread (q3 - q1) / median, and for end-to-end metrics the bound from
BENCHMARK.json.  Metrics the run reports but BENCHMARK.json does not gate are
listed with unit "report".  Timings are not checked; see selftest.py.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, float]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"], wall


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", default=None, help="also write every result to this JSON file")
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict[str, list] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result, report, wall = run_once(w, seed, args.seconds, args.trace)
            results[w].append({"seed": seed, "wall_s": wall, "result": result, "report": report})
            print(f"# {w} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)

    worst = {}
    for w in workloads:
        runs = results[w]
        walls = [r["wall_s"] for r in runs]
        print(f"\n{w}: {len(runs)} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':44s} {'unit':>14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        rows = {name: ([r["result"]["metrics"][name]["value"] for r in runs], m["unit"])
                for name, m in runs[0]["result"]["metrics"].items()}
        for name in runs[0]["report"].get("metrics", {}):
            if name not in rows:        # report-only: measured, not gated
                rows[name] = ([r["report"]["metrics"][name] for r in runs], "report")
        for name, (values, unit) in rows.items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds.get(name)
            if bound is not None:
                worst[(w, name)] = spread / bound
            print(f"  {name:44s} {unit:>14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {'' if bound is None else bound:>6}")
    if worst:
        (w, name), ratio = max(worst.items(), key=lambda kv: kv[1])
        print(f"\nlargest spread/bound: {ratio:.3f} ({w} {name})")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
