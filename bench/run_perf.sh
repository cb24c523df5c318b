#!/usr/bin/env bash
# Perf trajectory runner: benches every BT_GEMM_KERNEL variant and merges the
# google-benchmark JSON into two trajectory files future PRs diff against:
#
#   BENCH_gemm.json    — GFLOP/s per kernel x shape x operand regime
#   BENCH_fig15.json   — end-to-end BERT (BM_Fig15_ByteTransformer) ms and
#                        tokens/s per kernel variant
#   BENCH_serving_faults.json — resilience cost (BM_ServingFaults): req/s
#                        and p50/p99 at 0%/1%/5% injected fault rate with
#                        retrying clients, plus frames re-sent per run
#   BENCH_obs.json     — telemetry overhead (bench_obs): recording-primitive
#                        ns/op with the obs kill switch off/on, and a paired
#                        multi-model sticky-session Service replay
#                        (req_s_obs0 vs req_s_obs1, alternating arms);
#                        overhead_pct must stay under 2% (docs/OBSERVABILITY.md)
#
# Serving throughput and latency end to end (wire, replicas, prefix cache)
# are measured by perfbench (`python3 perfbench/run.py`), not here.
#
# Usage:  bench/run_perf.sh [build_dir] [out_dir]
#   build_dir  cmake build tree holding the bench binaries  (default: build)
#   out_dir    where BENCH_*.json land                      (default: repo root)
#
# Environment:
#   BT_PERF_SMOKE=1        fast CI mode: fewer shapes, shorter min time
#   BT_PERF_BASELINE=file  google-benchmark JSON of a pre-change run to embed
#                          under "baseline" in BENCH_fig15.json
#
# Kernels that are unsupported on the host (e.g. avx512 on an AVX2-only CPU)
# fall back at dispatch; each record's "kernel" field is the variant that
# actually ran, so merged files never lie about what was measured.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${1:-build}
OUT=${2:-.}
mkdir -p "$OUT"
SMOKE=${BT_PERF_SMOKE:-0}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

if [[ ! -x "$BUILD/bench_gemm_kernels" || ! -x "$BUILD/bench_fig15_e2e_bert" ]]; then
  echo "error: bench binaries not found under '$BUILD' (build with the" >&2
  echo "       google-benchmark package installed)" >&2
  exit 1
fi

GEMM_ARGS=(--benchmark_format=json)
FIG15_ARGS=(--benchmark_format=json
            --benchmark_filter='BM_Fig15_ByteTransformer')
if [[ "$SMOKE" == "1" ]]; then
  GEMM_ARGS+=(--benchmark_filter='/256/384/128|/512/512/512')
  FIG15_ARGS=(--benchmark_format=json
              --benchmark_filter='BM_Fig15_ByteTransformer/(1/128|8/256)')
else
  GEMM_ARGS+=(--benchmark_min_time=0.1)
  FIG15_ARGS+=(--benchmark_min_time=0.1)
fi

for kernel in scalar vec avx2 avx512; do
  echo "== BT_GEMM_KERNEL=$kernel bench_gemm_kernels" >&2
  BT_GEMM_KERNEL=$kernel "$BUILD/bench_gemm_kernels" "${GEMM_ARGS[@]}" \
      > "$TMP/gemm_$kernel.json"
  echo "== BT_GEMM_KERNEL=$kernel bench_fig15_e2e_bert" >&2
  BT_GEMM_KERNEL=$kernel "$BUILD/bench_fig15_e2e_bert" "${FIG15_ARGS[@]}" \
      > "$TMP/fig15_$kernel.json"
done

# Serving faults: throughput/latency at increasing injected fault rates.
if [[ -x "$BUILD/bench_serving_faults" ]]; then
  echo "== bench_serving_faults" >&2
  "$BUILD/bench_serving_faults" --benchmark_format=json \
      --benchmark_filter='BM_ServingFaults' > "$TMP/faults_default.json"
fi

# Telemetry overhead: recording primitives + the service replay, obs off/on.
if [[ -x "$BUILD/bench_obs" ]]; then
  echo "== bench_obs" >&2
  "$BUILD/bench_obs" --benchmark_format=json > "$TMP/obs_default.json"
fi

python3 - "$TMP" "$OUT" "${BT_PERF_BASELINE:-}" <<'PY'
import json, sys, os

tmp, out, baseline_path = sys.argv[1], sys.argv[2], sys.argv[3]

def records(path, requested):
    with open(path) as f:
        text = f.read().strip()
    if not text:  # e.g. a filter that matched nothing
        return
    doc = json.loads(text)
    ctx = doc.get("context", {})
    for b in doc.get("benchmarks", []):
        if b.get("run_type") not in (None, "iteration"):
            continue
        rec = {
            "benchmark": b["run_name"],
            "kernel_requested": requested,
            # label == the kernel the dispatcher actually ran
            "kernel": b.get("label", requested),
            "real_time_ms": b["real_time"],
            "cpu_time_ms": b["cpu_time"],
        }
        for key in ("gflops", "tokens_s", "alpha", "pad_waste",
                    "req_s", "p50_ms", "p99_ms", "fault_pct", "retries",
                    "obs", "req_s_obs0", "req_s_obs1", "overhead_pct"):
            if key in b:
                rec[key] = b[key]
        yield ctx, rec

def merge(stem, out_name, extra=None, kernels=("scalar", "vec", "avx2", "avx512")):
    context, results = {}, []
    for kernel in kernels:
        path = os.path.join(tmp, f"{stem}_{kernel}.json")
        if not os.path.exists(path):
            continue
        for ctx, rec in records(path, kernel):
            context = {
                "date": ctx.get("date"),
                "host_name": ctx.get("host_name"),
                "num_cpus": ctx.get("num_cpus"),
                "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            }
            results.append(rec)
    doc = {"generated_by": "bench/run_perf.sh", "context": context,
           "results": results}
    if extra:
        doc.update(extra)
    with open(os.path.join(out, out_name), "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.join(out, out_name)} ({len(results)} records)")

extra = None
if baseline_path:
    with open(baseline_path) as f:
        base = json.load(f)
    extra = {"baseline": [
        {"benchmark": b["run_name"], "real_time_ms": b["real_time"],
         "cpu_time_ms": b["cpu_time"]}
        for b in base.get("benchmarks", [])
        if b.get("run_type") in (None, "iteration")
    ], "baseline_note":
        "pre-change build: scalar tile_multiply, no ISA flags, no prepacking"}

merge("gemm", "BENCH_gemm.json")
merge("fig15", "BENCH_fig15.json", extra)
# The serving benches run once under the default dispatch ("kernel" still
# records which microkernel actually served the GEMMs).
if os.path.exists(os.path.join(tmp, "faults_default.json")):
    merge("faults", "BENCH_serving_faults.json", kernels=("default",))
if os.path.exists(os.path.join(tmp, "obs_default.json")):
    merge("obs", "BENCH_obs.json", kernels=("default",))
PY
