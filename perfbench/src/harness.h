// Shared set-up of the three workloads: options, the model, single-request
// reference outputs, output checks, the metric tables and the per-layer
// readers (serving trace records, engine/cache stats, the core forward
// probe).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "costmodel/flops.h"
#include "lib.h"
#include "obs/trace.h"
#include "parallel/device.h"
#include "serving/engine.h"
#include "tensor/tensor.h"

namespace perfbench {

using bt::fp16_t;
using Tensor16 = bt::Tensor<bt::fp16_t>;

// Max-abs tolerance between a served output and its single-request
// reference (fp16 outputs of a layernormed model, values of order 1).
inline constexpr double kTolerance = 0.02;
// Accepted band for core.stage_sum_share (sum of stage times over the
// forward span the benchmark timed around BertModel::forward).
inline constexpr double kStageSumLow = 0.90;
inline constexpr double kStageSumHigh = 1.02;
// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

// The workload parameters. This is the one place they are defined;
// CATALOGUE.md lists them. Changing one redefines the benchmark.
inline constexpr double kAlpha = 0.6;       // gen_lengths length skew
inline constexpr double kMaxWaitMs = 2;     // AsyncEngine batching window
// End-to-end latency and throughput are those of the best of this many
// equal windows of the measured pass: on a shared host, co-tenants' CPU
// steal comes in bursts of seconds to minutes and slows every window it
// touches, while a change to the program moves every window.
inline constexpr int kWindows = 5;

// varlen_open: the rate ladder (requests/s, ascending) and the share of
// the run each step gets; latency is reported at the middle step.
inline constexpr double kOpenRates[] = {30, 55, 70};
inline constexpr double kOpenStepShare[] = {0.12, 0.63, 0.25};
inline constexpr double kOpenLimitMs = 400;  // per-request latency limit
inline constexpr double kLagBoundMs = 10;    // sender lag p99 bound
inline constexpr int kOpenMaxSeq = 256;
inline constexpr int kOpenPool = 256;        // distinct requests

// offline_long
inline constexpr int kLongMaxSeq = 1024;
inline constexpr int kLongBatch = 8;      // sequences per batch
inline constexpr int kLongBatches = 16;   // distinct batches, cycled
inline constexpr double kLongLimitMs = 2000;

// conversation
inline constexpr int kConvSessions = 8;
inline constexpr int kConvRounds = 6;
inline constexpr int kConvMaxSeq = 384;
inline constexpr double kConvCacheShare = 0.5;  // budget / one pass's working set
inline constexpr double kConvLimitMs = 250;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  // JSONL span dump of the traced run
  int threads = 4;         // compute threads summed over replicas: min(4, nproc)
};

// Everything a workload reports.
struct Outcome {
  MetricSet metrics;  // end-to-end (untraced) or per-layer (traced)
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> report;  // human-readable lines
};

// The end-to-end and per-layer tables (name, unit); the order is the order
// BENCHMARK.json lists them in.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();
// Seeds `m` with every per-layer metric at 0, so metrics a workload does
// not exercise (no wire, no cache) still appear.
void declare_per_layer(MetricSet& m);

// ---- model and inputs ----------------------------------------------------------

bt::core::BertConfig model_config();  // head_size 64, 4 heads, 2 layers
std::shared_ptr<const bt::core::BertModel> build_model(std::uint64_t seed);
// Derives an independent stream seed for one input family.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt);

// `n` α lengths from serving::gen_lengths, stratified: of 16n sorted
// samples, the middle one of each of n equal quantile strata, shuffled.
// The mix then tracks the α distribution closely for every seed, so the
// load a seed offers (and its cost per token) does not swing with the
// luck of a small draw; eight sessions are such a draw.
std::vector<int> stratified_lengths(int n, int max_seq, double alpha,
                                   bt::Rng& rng);

Tensor16 copy_rows(const Tensor16& src, std::int64_t rows);

// Single-request BertModel::forward of `input` with `flags`.
Tensor16 reference_forward(const bt::core::BertModel& model,
                           bt::par::Device& dev, bt::core::Workspace& ws,
                           const Tensor16& input,
                           const bt::core::OptFlags& flags);

// True when `out` is [rows, ref.dim(1)], NaN-free and within kTolerance of
// the first `rows` rows of `ref`; *max_abs receives the deviation.
bool check_output(const Tensor16& out, const Tensor16& ref, std::int64_t rows,
                  double* max_abs);

// Runs `make` kSetups times, each from scratch, and returns the median of
// their durations in seconds. `make` builds the system and warms it up;
// `teardown` (untimed) runs before every set-up but the first, so the last
// system built stays up for the measurement.
double timed_setups(const std::function<void()>& teardown,
                    const std::function<void()>& make);

// ---- per-layer readers ----------------------------------------------------------

bt::serving::EngineStats stats_delta(const bt::serving::EngineStats& after,
                                     const bt::serving::EngineStats& before);

// Trace records of requests submitted at or after `since` (trace clock).
std::vector<bt::obs::TraceRecord> trace_records_since(double since);

// serving.* metrics derivable from the program's TraceRing records and the
// pool's accounting over one pass of `wall_s` seconds.
void serving_layer_metrics(const std::vector<bt::obs::TraceRecord>& recs,
                           const bt::serving::EngineStats& delta,
                           const std::vector<long long>& replica_tokens,
                           int replicas, double wall_s, MetricSet& m);

// Adds the program's per-request trace records as spans (serving.request
// with serving.queue and serving.compute children), each under
// parent_of(record) (-1 for none).
void add_trace_spans(const std::vector<bt::obs::TraceRecord>& recs,
                     const std::function<long long(const bt::obs::TraceRecord&)>&
                         parent_of,
                     Tracer& tracer);

// One model invocation of the core probe.
struct ProbeCall {
  std::function<void(bt::StageTimes*)> run;  // the call, filling stage times
  double tokens = 0;                         // rows it computes
  bt::costmodel::LayerFlops flops;           // per layer, computed
};

// core.*, attention.*, gemm.* and kernels.* from the StageTimes of
// `calls`, each timed by a span around it. After one untimed pass, runs
// the calls cyclically for at least `min_calls` calls and about `budget_s`.
void probe_calls(const std::vector<ProbeCall>& calls, int layers, int workers,
                 int min_calls, double budget_s, Tracer& tracer, MetricSet& m,
                 std::vector<std::string>& report);

// probe_calls over BertModel::forward of `batches` (each a list of inputs
// forming one packed batch) on `dev`.
void probe_forward(const bt::core::BertModel& model, bt::par::Device& dev,
                   const std::vector<std::vector<const Tensor16*>>& batches,
                   const bt::core::OptFlags& flags, int min_forwards,
                   double budget_s, Tracer& tracer, MetricSet& m,
                   std::vector<std::string>& report);

// Writes the spans of a traced run and adds trace.spans and the self-time
// table to the report.
void finish_trace(const Options& opt, const Tracer& tracer, MetricSet& m,
                  std::vector<std::string>& report);

// Drops the heap the fixture's reference computation freed, so resident
// memory after it is the inputs, references and the program.
void trim_heap();

// "memory: ..." report line of a measured pass sampled by `mem`.
std::string memory_line(const MemorySampler& mem);

// memory.* of the traced pass sampled by `mem`: its peak resident set,
// that minus the resident set before it, and the process high-water mark.
void memory_metrics(const MemorySampler& mem, MetricSet& m);

// "<label> by window: a b c ..." report line of per-window values.
std::string windows_line(const std::string& label, const std::vector<double>& values);

// "warm-up: ..." report line over every set-up of the run.
std::string warmup_line(long long sent, long long failed);

// trace.* overhead metrics from the untraced and traced pass of one run.
void trace_overhead(double untraced_p50_ms, double traced_p50_ms, MetricSet& m);

// ---- workloads ------------------------------------------------------------------

Outcome run_varlen_open(const Options& opt);
Outcome run_offline_long(const Options& opt);
Outcome run_conversation(const Options& opt);
// Closed-loop wire throughput of the varlen_open set-up (requests/s), the
// base the ladder rates are fixed from.
Outcome run_open_capacity(const Options& opt);

}  // namespace perfbench
