#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

#include "common/rng.h"
#include "common/timer.h"
#include "core/padding.h"
#include "costmodel/flops.h"
#include "serving/request_gen.h"

namespace perfbench {

namespace core = bt::core;
namespace serving = bt::serving;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"throughput_tok_s", "tok/s"},
      {"latency_p50_ms", "ms"},
      {"goodput_rps", "req/s"},
      {"peak_heap_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"loadgen.sent", "count"},
      {"loadgen.ok", "count"},
      {"loadgen.failed", "count"},
      {"loadgen.warmup_sent", "count"},
      {"loadgen.warmup_ok", "count"},
      {"loadgen.warmup_failed", "count"},
      {"loadgen.error_rate", "ratio"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.steps_valid", "count"},
      {"loadgen.steps_passed", "count"},
      {"loadgen.latency_p99_ms", "ms"},
      {"loadgen.p99_samples", "count"},
      {"loadgen.max_abs_err", "abs"},
      {"net.overhead_p50_ms", "ms"},
      {"net.frames", "count"},
      {"net.error_frames", "count"},
      {"net.backpressure", "count"},
      {"net.wire_mb", "MB"},
      {"serving.queue_wait_p50_ms", "ms"},
      {"serving.queue_wait_p99_ms", "ms"},
      {"serving.window_wait_p50_ms", "ms"},
      {"serving.batch_tokens_mean", "tok"},
      {"serving.requests_per_round", "req"},
      {"serving.micro_batches_per_round", "count"},
      {"serving.busy_share", "ratio"},
      {"serving.replica_skew", "ratio"},
      {"serving.sticky_hit", "ratio"},
      {"serving.pad_share", "ratio"},
      {"serving.deadline_shed", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.saved_share", "ratio"},
      {"cache.inserts", "count"},
      {"cache.extends", "count"},
      {"cache.evictions", "count"},
      {"cache.bytes_peak_mb", "MB"},
      {"core.forward_ms_p50", "ms"},
      {"core.forward_tok_s", "tok/s"},
      {"core.stage_sum_share", "ratio"},
      {"core.padding_ms", "ms"},
      {"attention.ms", "ms"},
      {"attention.share", "ratio"},
      {"attention.gflop_s", "GFLOP/s"},
      {"gemm.gemm0.ms", "ms"},
      {"gemm.gemm0.share", "ratio"},
      {"gemm.gemm0.gflop_s", "GFLOP/s"},
      {"gemm.gemm1.ms", "ms"},
      {"gemm.gemm1.share", "ratio"},
      {"gemm.gemm1.gflop_s", "GFLOP/s"},
      {"gemm.gemm2.ms", "ms"},
      {"gemm.gemm2.share", "ratio"},
      {"gemm.gemm2.gflop_s", "GFLOP/s"},
      {"gemm.gemm3.ms", "ms"},
      {"gemm.gemm3.share", "ratio"},
      {"gemm.gemm3.gflop_s", "GFLOP/s"},
      {"kernels.layernorm0.ms", "ms"},
      {"kernels.layernorm1.ms", "ms"},
      {"parallel.cpu_util", "ratio"},
      {"memory.pass_peak_rss_mb", "MB"},
      {"memory.pass_growth_mb", "MB"},
      {"memory.run_peak_rss_mb", "MB"},
      {"trace.overhead_share", "ratio"},
      {"trace.untraced_latency_p50_ms", "ms"},
      {"trace.traced_latency_p50_ms", "ms"},
      {"trace.spans", "count"},
  };
  return defs;
}

void declare_per_layer(MetricSet& m) {
  for (const MetricDef& d : per_layer_metrics()) m.set(d.name, 0, d.unit);
}

core::BertConfig model_config() {
  return core::BertConfig::bert_base().scaled(/*heads=*/4, /*layers=*/2);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

std::shared_ptr<const core::BertModel> build_model(std::uint64_t seed) {
  bt::Rng rng(stream_seed(seed, 0xB0DE));
  return std::make_shared<const core::BertModel>(
      core::BertModel::random(model_config(), rng));
}

std::vector<int> stratified_lengths(int n, int max_seq, double alpha,
                                   bt::Rng& rng) {
  constexpr int kOver = 16;
  std::vector<int> big = serving::gen_lengths(n * kOver, max_seq, alpha, rng);
  std::sort(big.begin(), big.end());
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(big[static_cast<std::size_t>(i * kOver + kOver / 2)]);
  }
  std::shuffle(out.begin(), out.end(), rng.engine());
  return out;
}

Tensor16 copy_rows(const Tensor16& src, std::int64_t rows) {
  const std::int64_t h = src.dim(1);
  Tensor16 out({rows, h});
  std::memcpy(out.data(), src.data(),
              static_cast<std::size_t>(rows * h) * sizeof(fp16_t));
  return out;
}

Tensor16 reference_forward(const core::BertModel& model, bt::par::Device& dev,
                           core::Workspace& ws, const Tensor16& input,
                           const core::OptFlags& flags) {
  const int len = static_cast<int>(input.dim(0));
  const std::vector<int> lens{len};
  const core::SeqOffsets off = core::build_seq_offsets(dev, lens, len);
  Tensor16 out({input.dim(0), input.dim(1)});
  model.forward(dev, input.data(), out.data(), off, flags, ws);
  return out;
}

bool check_output(const Tensor16& out, const Tensor16& ref, std::int64_t rows,
                  double* max_abs) {
  *max_abs = 0;
  if (out.rank() != 2 || out.dim(0) != rows || out.dim(1) != ref.dim(1) ||
      rows > ref.dim(0)) {
    *max_abs = INFINITY;
    return false;
  }
  const std::int64_t n = rows * ref.dim(1);
  double m = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double a = static_cast<double>(bt::load_f32(out.data()[i]));
    if (std::isnan(a)) {
      *max_abs = INFINITY;
      return false;
    }
    m = std::max(m, std::abs(a - static_cast<double>(bt::load_f32(ref.data()[i]))));
  }
  *max_abs = m;
  return m <= kTolerance;
}

double timed_setups(const std::function<void()>& teardown,
                    const std::function<void()>& make) {
  std::vector<double> d;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) {
      teardown();
      // Hand the torn-down system's freed heap back to the OS, so the
      // measured pass runs on the last set-up's memory only.
      trim_heap();
    }
    bt::Timer t;
    make();
    d.push_back(t.seconds());
  }
  return median(d);
}

serving::EngineStats stats_delta(const serving::EngineStats& a,
                                 const serving::EngineStats& b) {
  serving::EngineStats d;
  d.requests = a.requests - b.requests;
  d.batches = a.batches - b.batches;
  d.micro_batches = a.micro_batches - b.micro_batches;
  d.valid_tokens = a.valid_tokens - b.valid_tokens;
  d.processed_tokens = a.processed_tokens - b.processed_tokens;
  d.compute_seconds = a.compute_seconds - b.compute_seconds;
  d.session_ws_hits = a.session_ws_hits - b.session_ws_hits;
  d.session_ws_misses = a.session_ws_misses - b.session_ws_misses;
  d.workspace_allocations = a.workspace_allocations - b.workspace_allocations;
  d.deadline_met = a.deadline_met - b.deadline_met;
  d.deadline_missed = a.deadline_missed - b.deadline_missed;
  d.deadline_shed = a.deadline_shed - b.deadline_shed;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.cache_hit_suffix_tokens = a.cache_hit_suffix_tokens - b.cache_hit_suffix_tokens;
  d.cache_saved_tokens = a.cache_saved_tokens - b.cache_saved_tokens;
  return d;
}

std::vector<bt::obs::TraceRecord> trace_records_since(double since) {
  std::vector<bt::obs::TraceRecord> out;
  for (bt::obs::TraceRecord& r : bt::obs::TraceRing::global().snapshot()) {
    if (r.t_submit >= since) out.push_back(std::move(r));
  }
  return out;
}

void serving_layer_metrics(const std::vector<bt::obs::TraceRecord>& recs,
                           const serving::EngineStats& delta,
                           const std::vector<long long>& replica_tokens,
                           int replicas, double wall_s, MetricSet& m) {
  std::vector<double> queue_ms;
  // One scheduling round of one replica = records sharing (replica,
  // t_dispatch).
  struct Round {
    double oldest_submit = INFINITY;
    double window_close = 0;
    double compute_start = 0;
    double compute_end = 0;
    long long tokens = 0;
    int requests = 0;
  };
  std::map<std::pair<int, double>, Round> rounds;
  for (const bt::obs::TraceRecord& r : recs) {
    queue_ms.push_back((r.t_dispatch - r.t_submit) * 1e3);
    Round& rd = rounds[{r.replica, r.t_dispatch}];
    rd.oldest_submit = std::min(rd.oldest_submit, r.t_submit);
    rd.window_close = r.t_window_close;
    rd.compute_start = r.t_compute_start;
    rd.compute_end = r.t_compute_end;
    rd.tokens = r.round_valid_tokens;
    rd.requests = r.batch_requests;
  }
  // Window wait: from when the round's oldest request could first be
  // batched (its arrival, or the replica's previous compute end if later)
  // to when the window closed.
  std::vector<double> window_ms;
  double busy = 0;
  double tokens = 0, requests = 0;
  std::map<int, double> prev_end;
  for (const auto& [key, rd] : rounds) {
    const auto it = prev_end.find(key.first);
    const double ready = it == prev_end.end()
                             ? rd.oldest_submit
                             : std::max(rd.oldest_submit, it->second);
    window_ms.push_back(std::max(0.0, rd.window_close - ready) * 1e3);
    prev_end[key.first] = rd.compute_end;
    busy += rd.compute_end - rd.compute_start;
    tokens += static_cast<double>(rd.tokens);
    requests += rd.requests;
  }
  const double n_rounds = static_cast<double>(rounds.size());
  m.set("serving.queue_wait_p50_ms", percentile(queue_ms, 0.5), "ms");
  m.set("serving.queue_wait_p99_ms", percentile(queue_ms, 0.99), "ms");
  m.set("serving.window_wait_p50_ms", percentile(window_ms, 0.5), "ms");
  m.set("serving.batch_tokens_mean", n_rounds > 0 ? tokens / n_rounds : 0, "tok");
  m.set("serving.requests_per_round", n_rounds > 0 ? requests / n_rounds : 0,
        "req");
  m.set("serving.micro_batches_per_round",
        delta.batches > 0 ? static_cast<double>(delta.micro_batches) /
                                static_cast<double>(delta.batches)
                          : 0,
        "count");
  m.set("serving.busy_share", wall_s > 0 ? busy / (wall_s * replicas) : 0,
        "ratio");
  double sum = 0, mx = 0;
  for (long long t : replica_tokens) {
    sum += static_cast<double>(t);
    mx = std::max(mx, static_cast<double>(t));
  }
  m.set("serving.replica_skew",
        sum > 0 ? mx / (sum / static_cast<double>(replica_tokens.size())) : 0,
        "ratio");
  m.set("serving.pad_share",
        delta.processed_tokens > 0
            ? static_cast<double>(delta.padding_tokens()) /
                  static_cast<double>(delta.processed_tokens)
            : 0,
        "ratio");
  m.set("serving.deadline_shed", static_cast<double>(delta.deadline_shed),
        "count");
}

void add_trace_spans(
    const std::vector<bt::obs::TraceRecord>& recs,
    const std::function<long long(const bt::obs::TraceRecord&)>& parent_of,
    Tracer& tracer) {
  for (const bt::obs::TraceRecord& r : recs) {
    const long long req = tracer.add("serving.request", r.t_submit, r.t_replied,
                                     parent_of(r), r.request_id);
    tracer.add("serving.queue", r.t_submit, r.t_dispatch, req, r.request_id);
    tracer.add("serving.compute", r.t_compute_start, r.t_compute_end, req,
               r.request_id);
  }
}

void probe_calls(const std::vector<ProbeCall>& calls, int layers, int workers,
                 int min_calls, double budget_s, Tracer& tracer, MetricSet& m,
                 std::vector<std::string>& report) {
  if (calls.empty()) return;
  // One untimed pass grows the workspaces before the timed calls.
  for (const ProbeCall& c : calls) c.run(nullptr);
  std::vector<double> forward_ms;
  double forward_s = 0, tokens = 0;
  std::map<std::string, double> stage_s;
  bt::costmodel::LayerFlops flops;
  bt::Timer budget;
  for (int i = 0; i < min_calls || budget.seconds() < budget_s; ++i) {
    const ProbeCall& c = calls[static_cast<std::size_t>(i) % calls.size()];
    bt::StageTimes st;
    const double t0 = now_s();
    c.run(&st);
    const double t1 = now_s();
    tracer.add("core.forward", t0, t1);
    forward_ms.push_back((t1 - t0) * 1e3);
    forward_s += t1 - t0;
    tokens += c.tokens;
    for (const auto& [name, sec] : st.stages()) stage_s[name] += sec;
    flops.gemm0 += c.flops.gemm0 * layers;
    flops.gemm1 += c.flops.gemm1 * layers;
    flops.gemm2 += c.flops.gemm2 * layers;
    flops.gemm3 += c.flops.gemm3 * layers;
    flops.mha += c.flops.mha * layers;
  }
  const double n = static_cast<double>(forward_ms.size());
  double stage_sum = 0;
  for (const auto& [name, sec] : stage_s) stage_sum += sec;
  const double share = forward_s > 0 ? stage_sum / forward_s : 0;
  m.set("core.forward_ms_p50", percentile(forward_ms, 0.5), "ms");
  m.set("core.forward_tok_s", forward_s > 0 ? tokens / forward_s : 0, "tok/s");
  m.set("core.stage_sum_share", share, "ratio");
  auto per_call_ms = [&](const std::string& stage) {
    const auto it = stage_s.find(stage);
    return it == stage_s.end() ? 0.0 : it->second / n * 1e3;
  };
  auto gflops = [&](const std::string& stage, double f) {
    const auto it = stage_s.find(stage);
    return it == stage_s.end() || it->second <= 0 ? 0.0 : f / it->second * 1e-9;
  };
  const double fwd_ms = forward_s / n * 1e3;
  m.set("core.padding_ms", per_call_ms("padding"), "ms");
  m.set("attention.ms", per_call_ms("attention"), "ms");
  m.set("attention.share", per_call_ms("attention") / fwd_ms, "ratio");
  m.set("attention.gflop_s", gflops("attention", flops.mha), "GFLOP/s");
  const double gemm_flops[4] = {flops.gemm0, flops.gemm1, flops.gemm2,
                                flops.gemm3};
  for (int g = 0; g < 4; ++g) {
    const std::string stage = "gemm" + std::to_string(g);
    const std::string base = "gemm." + stage;
    m.set(base + ".ms", per_call_ms(stage), "ms");
    m.set(base + ".share", per_call_ms(stage) / fwd_ms, "ratio");
    m.set(base + ".gflop_s", gflops(stage, gemm_flops[g]), "GFLOP/s");
  }
  m.set("kernels.layernorm0.ms", per_call_ms("layernorm0"), "ms");
  m.set("kernels.layernorm1.ms", per_call_ms("layernorm1"), "ms");

  char line[160];
  std::snprintf(line, sizeof line,
                "probe: %zu calls on %d threads, %.3f ms p50, stage sum "
                "%.3f of call span (band %.2f..%.2f)%s",
                forward_ms.size(), workers, percentile(forward_ms, 0.5), share,
                kStageSumLow, kStageSumHigh,
                share >= kStageSumLow && share <= kStageSumHigh
                    ? ""
                    : "  OUT OF BAND");
  report.push_back(line);
  for (const auto& [name, sec] : stage_s) {
    std::snprintf(line, sizeof line, "probe stage %-14s %8.3f ms/call  %5.1f%%",
                  name.c_str(), sec / n * 1e3, 100.0 * sec / forward_s);
    report.push_back(line);
  }
}

void probe_forward(const core::BertModel& model, bt::par::Device& dev,
                   const std::vector<std::vector<const Tensor16*>>& batches,
                   const core::OptFlags& flags, int min_forwards,
                   double budget_s, Tracer& tracer, MetricSet& m,
                   std::vector<std::string>& report) {
  const core::BertConfig cfg = model.config();
  const std::int64_t h = cfg.hidden();
  core::Workspace ws;
  // Padded inputs and offsets are built once, before any timing.
  struct Prepared {
    Tensor16 in;
    Tensor16 out;
    core::SeqOffsets off;
  };
  std::vector<Prepared> prepared;
  std::vector<ProbeCall> calls;
  prepared.reserve(batches.size());
  for (const auto& batch : batches) {
    std::vector<int> lens;
    int max_len = 0;
    for (const Tensor16* t : batch) {
      lens.push_back(static_cast<int>(t->dim(0)));
      max_len = std::max(max_len, lens.back());
    }
    const std::int64_t rows = static_cast<std::int64_t>(batch.size()) * max_len;
    Prepared& p = prepared.emplace_back(Prepared{
        Tensor16::zeros({rows, h}), Tensor16({rows, h}),
        core::build_seq_offsets(dev, lens, max_len)});
    for (std::size_t b = 0; b < batch.size(); ++b) {
      std::memcpy(p.in.data() + static_cast<std::int64_t>(b) * max_len * h,
                  batch[b]->data(),
                  static_cast<std::size_t>(batch[b]->size()) * sizeof(fp16_t));
    }
    calls.push_back(
        {[&model, &dev, &ws, &p, &flags](bt::StageTimes* st) {
           model.forward(dev, p.in.data(), p.out.data(), p.off, flags, ws, st);
         },
         static_cast<double>(p.off.valid_count),
         bt::costmodel::layer_flops_exact(
             cfg, lens, max_len,
             bt::costmodel::PaddingMode::kZeroPaddingFusedMha)});
  }
  probe_calls(calls, cfg.layers, dev.workers(), min_forwards, budget_s, tracer,
              m, report);
}

void finish_trace(const Options& opt, const Tracer& tracer, MetricSet& m,
                  std::vector<std::string>& report) {
  const std::vector<Span> spans = tracer.spans();
  m.set("trace.spans", static_cast<double>(spans.size()), "count");
  if (!opt.spans_path.empty()) {
    if (write_spans_jsonl(opt.spans_path, spans)) {
      report.push_back("spans: " + std::to_string(spans.size()) + " -> " +
                       opt.spans_path);
    } else {
      report.push_back("spans: could not write " + opt.spans_path);
    }
  }
  char line[160];
  for (const auto& [name, s] : self_time_by_name(spans)) {
    std::snprintf(line, sizeof line, "self time %-20s %10.3f ms", name.c_str(),
                  s * 1e3);
    report.push_back(line);
  }
}

void trim_heap() { malloc_trim(0); }

std::string memory_line(const MemorySampler& mem) {
  char line[200];
  std::snprintf(line, sizeof line,
                "memory: heap in use %.1f MB before the measured pass, peak "
                "%.1f MB during it; RSS %.1f MB before, peak %.1f MB during "
                "(%+.1f MB); process high-water %.1f MB",
                mem.first_heap_mb(), mem.max_heap_mb(), mem.first_rss_mb(),
                mem.max_rss_mb(),
                mem.max_rss_mb() - mem.first_rss_mb(), peak_rss_mb());
  return line;
}

void memory_metrics(const MemorySampler& mem, MetricSet& m) {
  m.set("memory.pass_peak_rss_mb", mem.max_rss_mb(), "MB");
  m.set("memory.pass_growth_mb", mem.max_rss_mb() - mem.first_rss_mb(), "MB");
  m.set("memory.run_peak_rss_mb", peak_rss_mb(), "MB");
}

std::string windows_line(const std::string& label, const std::vector<double>& values) {
  std::string line = label + " by window:";
  char buf[32];
  for (double x : values) {
    std::snprintf(buf, sizeof buf, " %.3f", x);
    line += buf;
  }
  return line;
}

std::string warmup_line(long long sent, long long failed) {
  return "warm-up over " + std::to_string(kSetups) + " set-ups: sent " +
         std::to_string(sent) + " ok " + std::to_string(sent - failed) +
         " failed " + std::to_string(failed);
}

void trace_overhead(double untraced_p50_ms, double traced_p50_ms,
                    MetricSet& m) {
  m.set("trace.untraced_latency_p50_ms", untraced_p50_ms, "ms");
  m.set("trace.traced_latency_p50_ms", traced_p50_ms, "ms");
  m.set("trace.overhead_share",
        untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1 : 0, "ratio");
}

}  // namespace perfbench
