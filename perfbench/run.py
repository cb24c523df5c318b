#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all [--seed n] [--seconds s] [--trace 0|1]

Run from the repository root. The first call configures and builds
perfbench/ (which builds the library under test from ../src) into
.bench_build/perfbench; later calls rebuild incrementally. The workload
parameters are constants in perfbench/src/harness.h. The last stdout line
of a single-workload run is the JSON result; `--workload all` runs every workload
in turn and ends with a table of every metric with its unit.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175


def load_json(path):
    with open(path) as f:
        return json.load(f)


def bench_json():
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def metric_names(trace):
    return [m["name"] for m in bench_json()["per_layer" if trace else "end_to_end"]]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=log, stderr=log)


def run_one(workload, seed, seconds, trace):
    """Runs one workload; returns (report lines, result dict)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}")
    result = json.loads(lines[-1])
    want = sorted(metric_names(trace))
    if sorted(result["metrics"]) != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        raise RuntimeError(f"{workload}: metrics differ from BENCHMARK.json")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        if a.workload != "all":
            report, result = run_one(a.workload, a.seed, a.seconds, a.trace)
            print("\n".join(report))
            print(json.dumps(result))
            return 0
        names = [w["name"] for w in bench_json()["workloads"]]
        table = {}
        for w in names:
            report, result = run_one(w, a.seed, a.seconds, a.trace)
            print("\n".join(report))
            table[w] = result
        print(f"{'metric':34s}" + "".join(f"{w:>18s}" for w in names) + "  unit")
        for metric in metric_names(a.trace):
            unit = table[names[0]]["metrics"][metric]["unit"]
            row = "".join(f"{table[w]['metrics'][metric]['value']:18.6g}" for w in names)
            print(f"{metric:34s}{row}  {unit}")
        print(f"{'correct / attempted / failed':34s}" + "".join(
            f"{str(table[w]['correct']) + ' ' + str(table[w]['attempted']) + ' ' + str(table[w]['failed']):>18s}"
            for w in names))
        return 0 if all(r["correct"] for r in table.values()) else 1
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
