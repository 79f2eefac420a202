#!/usr/bin/env python3
"""Builds and runs the CAPE benchmark from the checkout that contains it.

    python3 capebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
CAPE library and the capebench binary (Release) under .bench_build/; later
runs only rebuild what changed. The binary's report line (provenance, every
series with its quartiles, the checks) is printed first; the last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero without printing a result when the CAPE sources are missing
or the build fails, and with the result but a non-zero code when an output
check failed. Counters that are exact at a fixed seed are kept in a ledger
under .bench_build/ and must repeat across runs of the same sources.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = BUILD / "capebench-out"
WORKLOADS = ("mine", "explain")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"capebench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; returns its exit code."""
    with subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            log(f"timed out after {timeout}s: {' '.join(cmd)}")
            return 1


def build():
    """Configures (once) and builds capebench; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no CAPE sources under {ROOT / 'src'}; nothing to build")
        return None
    if not (BUILD / "CMakeCache.txt").is_file():
        rc = run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = run_logged(["cmake", "--build", str(BUILD), "--target", "capebench", "-j", jobs],
                    BUILD_TIMEOUT_S)
    if rc != 0:
        log("build failed")
        return None
    return BUILD / "capebench"


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for base in (ROOT / "src", HERE):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def check_metric_names(result, trace):
    """The binary's metric names must be exactly those BENCHMARK.json lists."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return []
    spec = json.loads(spec_path.read_text())
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    return [] if want == got else [f"metrics differ from BENCHMARK.json {key}"]


def check_ledger(report, digest):
    """Exact counters must repeat across runs of one seed on the same sources."""
    if not report.get("exact"):
        return []
    ledger_path = OUT / "exact-counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.is_file() else {}
    key = f"{report['workload']}/seed{report['seed']}"
    entry = ledger.get(key)
    exact = report["exact"]
    if entry and entry["source_digest"] == digest:
        problems = [f"{name} was {entry['exact'][name]} on an earlier run, now {value}"
                    for name, value in exact.items()
                    if name in entry["exact"] and entry["exact"][name] != value]
        if problems or exact.keys() <= entry["exact"].keys():
            return problems
        # A trace run keeps counters an untraced run does not (the paged mine).
        exact = {**entry["exact"], **exact}
    ledger[key] = {"source_digest": digest, "exact": exact}
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    digest = source_digest()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT), "--commit", commit(), "--source-digest", digest]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"run timed out after {RUN_TIMEOUT_S}s")
            return 1
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        log(f"binary exited {proc.returncode} without a result")
        return 1
    report = json.loads(lines[-2])
    result = json.loads(lines[-1])
    problems = check_metric_names(result, args.trace) + check_ledger(report, digest)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    if problems:
        result["correct"] = False
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
