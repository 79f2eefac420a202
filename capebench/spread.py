#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of its
values (statistics.quantiles, n=4) as a share of their median, next to the
metric's bound from BENCHMARK.json.

    python3 capebench/spread.py --workloads mine,explain --seeds 1-10 \
        [--seconds 10] [--save out.json] [--baseline earlier.json]

With --baseline, also reports how far each median moved from that file's
(worse by more than the bound fails). Exits non-zero when a spread
exceeds its bound, a median moved too far, or a run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    start = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    wall = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None, wall
    return json.loads(lines[-1]), wall


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else {}
    saved = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        walls = []
        for seed in args.seeds:
            result, wall = run_once(workload, seed, seconds)
            walls.append(wall)
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed")
                ok = False
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}: {len(args.seeds)} seeds, wall per run "
              f"median {statistics.median(walls):.1f}s max {max(walls):.1f}s")
        saved[workload] = {}
        for name, metric in bounds.items():
            vals = values[name]
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            saved[workload][name] = {"median": med, "spread": spread, "values": vals}
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "wide" if spread <= metric["bound"] else "TOO WIDE")
            if spread > metric["bound"]:
                ok = False
            line = (f"  {name:14s} median {med:12.4f} {metric['unit']:6s} spread {spread:6.3f} "
                    f"bound {metric['bound']:.2f} {verdict}")
            base = baseline.get(workload, {}).get(name)
            if base:
                worse = (med - base["median"]) / base["median"]
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  vs baseline {worse:+.3f}"
                if worse > metric["bound"]:
                    ok = False
                    line += " WORSE"
            print(line, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
