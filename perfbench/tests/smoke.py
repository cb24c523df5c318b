"""Smoke-sized run of one workload: it must exit 0, report correct outputs
and emit exactly the metric names BENCHMARK.json lists for the mode.

    python3 perfbench/tests/smoke.py <perfbench binary> <workload> <trace 0|1>
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)


def main():
    binary, workload, trace = sys.argv[1], sys.argv[2], sys.argv[3]
    with tempfile.TemporaryDirectory() as tmp:
        cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1.5",
               "--trace", trace, "--spans", os.path.join(tmp, "spans.jsonl")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print("smoke: exit code", proc.returncode)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"] != 0:
            print("smoke: correctness check failed")
            return 1
        if result["attempted"] < 1:
            print("smoke: nothing attempted")
            return 1
        want = run.metric_names(trace == "1")
        if sorted(result["metrics"]) != sorted(want):
            print("smoke: metric names differ from BENCHMARK.json")
            return 1
        if trace == "1" and not os.path.getsize(os.path.join(tmp, "spans.jsonl")):
            print("smoke: no spans written")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
