// offline_long: one caller submits batches of 8 α = 0.6 sequences of up to
// 1024 tokens to a synchronous packed serving::Engine and drains each with
// run_batch, closed loop.
#include <algorithm>
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "harness.h"
#include "serving/request_gen.h"

namespace perfbench {
namespace {

namespace core = bt::core;
namespace serving = bt::serving;

struct Sample {
  Tensor16 input;
  Tensor16 ref;
};

struct Fixture {
  std::vector<Sample> pool;
  std::vector<std::vector<std::size_t>> batches;  // pool indices
  std::vector<std::size_t> warmup;                // the longest sequences
};

// Lengths come from stratified_lengths; batches are dealt stratified by length
// (one sequence from each length stratum per batch) so every batch carries
// the α = 0.6 mix and per-batch latency does not hinge on the deal.
Fixture make_fixture(const Options& opt) {
  Fixture f;
  bt::Rng rng(stream_seed(opt.seed, 11));
  const std::int64_t h = model_config().hidden();
  const int n = kLongBatch * kLongBatches;
  const std::vector<int> lens = stratified_lengths(n, kLongMaxSeq, kAlpha, rng);
  for (int len : lens) f.pool.push_back({Tensor16::random_normal({len, h}, rng), {}});
  std::vector<std::size_t> order(f.pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return lens[a] < lens[b];
  });
  const auto nb = static_cast<std::size_t>(kLongBatches);
  f.batches.assign(nb, {});
  for (std::size_t s = 0; s < static_cast<std::size_t>(kLongBatch); ++s) {
    std::vector<std::size_t> stratum(order.begin() + static_cast<long>(s * nb),
                                     order.begin() + static_cast<long>((s + 1) * nb));
    std::shuffle(stratum.begin(), stratum.end(), rng.engine());
    for (std::size_t j = 0; j < nb; ++j) f.batches[j].push_back(stratum[j]);
  }
  f.warmup.assign(order.end() - kLongBatch, order.end());

  auto model = build_model(opt.seed);
  bt::par::Device dev(opt.threads);
  core::Workspace ws;
  for (Sample& s : f.pool) {
    s.ref = reference_forward(*model, dev, ws, s.input, core::OptFlags::byte_transformer());
  }
  return f;
}

struct System {
  std::shared_ptr<const core::BertModel> model;
  std::unique_ptr<serving::Engine> engine;
  void stop() {
    engine.reset();
    model.reset();
  }
};

struct BatchRun {
  double seconds = 0;
  long long ok = 0, failed = 0;
  double tokens = 0;
  double max_abs = 0;
  std::vector<serving::Response> responses;
};

// Submits one batch, drains it with run_batch and checks every reply.
BatchRun run_one(serving::Engine& engine, const Fixture& fx,
                 const std::vector<std::size_t>& batch, Tracer& tracer,
                 long long parent) {
  BatchRun br;
  std::map<serving::RequestId, std::size_t> sample_of;
  const double t0 = now_s();
  for (std::size_t i : batch) {
    serving::Request r;
    r.hidden = fx.pool[i].input.clone();
    sample_of[engine.submit(std::move(r))] = i;
  }
  const double t1 = now_s();
  while (engine.pending() > 0) {
    for (serving::Response& r : engine.run_batch()) br.responses.push_back(std::move(r));
  }
  const double t2 = now_s();
  br.seconds = t2 - t0;
  for (const serving::Response& r : br.responses) {
    const auto it = sample_of.find(r.id);
    double err = INFINITY;
    const bool ok = it != sample_of.end() &&
                    check_output(r.output, fx.pool[it->second].ref,
                                 fx.pool[it->second].input.dim(0), &err);
    br.max_abs = std::max(br.max_abs, err);
    if (ok) {
      ++br.ok;
      br.tokens += static_cast<double>(r.output.dim(0));
    } else {
      ++br.failed;
    }
  }
  br.failed += static_cast<long long>(batch.size()) -
               static_cast<long long>(br.responses.size());
  if (tracer.enabled()) {
    tracer.add("engine.submit", t0, t1, parent);
    tracer.add("engine.run_batch", t1, t2, parent);
    tracer.add("check", t2, now_s(), parent);
  }
  return br;
}

struct PassResult {
  std::vector<double> latency_ms;  // per request
  std::vector<double> queue_ms;    // Response::queue_seconds
  // Per batch run: its start and end (after the check), its correct
  // tokens and how many of its sequences completed within the limit.
  std::vector<double> run_start, run_end, run_tokens, run_within;
  double tokens = 0;
  long long sent = 0, ok = 0, failed = 0;
  double max_abs = 0;
  double start = 0, end = 0;
  double stage_sum_s = 0, compute_s = 0;  // from Response::stages
};

PassResult run_pass(System& sys, const Fixture& fx, double seconds,
                    double limit_s, Tracer& tracer) {
  PassResult p;
  p.start = now_s();
  for (std::size_t i = 0; now_s() - p.start < seconds; ++i) {
    const auto& batch = fx.batches[i % fx.batches.size()];
    const double t0 = now_s();
    const long long span = tracer.open("loadgen.batch", t0);
    BatchRun br = run_one(*sys.engine, fx, batch, tracer, span);
    tracer.close(span, now_s());
    const double lat_ms = br.seconds * 1e3;
    p.sent += static_cast<long long>(batch.size());
    p.ok += br.ok;
    p.failed += br.failed;
    p.tokens += br.tokens;
    p.max_abs = std::max(p.max_abs, br.max_abs);
    for (long long k = 0; k < br.ok; ++k) p.latency_ms.push_back(lat_ms);
    p.run_start.push_back(t0);
    p.run_end.push_back(now_s());
    p.run_tokens.push_back(br.tokens);
    p.run_within.push_back(br.seconds <= limit_s ? static_cast<double>(br.ok) : 0);
    for (const serving::Response& r : br.responses) {
      p.queue_ms.push_back(r.queue_seconds * 1e3);
    }
    // One micro-batch per round under kPacked: its stages are shared by
    // every response of the round.
    if (!br.responses.empty()) {
      p.stage_sum_s += br.responses.front().stages.total_seconds();
      p.compute_s += br.responses.front().compute_seconds;
    }
  }
  p.end = now_s();
  return p;
}

}  // namespace

Outcome run_offline_long(const Options& opt) {
  Outcome out;
  const Fixture fx = make_fixture(opt);
  trim_heap();
  const double limit_s = kLongLimitMs * 1e-3;

  System sys;
  long long warm_sent = 0, warm_failed = 0, last_warm_ok = 0, last_warm_failed = 0;
  Tracer off(false);
  const double setup_s = timed_setups([&] { sys.stop(); }, [&] {
    sys.model = build_model(opt.seed);
    serving::EngineOptions eo;
    eo.flags = core::OptFlags::byte_transformer();
    eo.policy = serving::BatchPolicy::kPacked;
    eo.max_batch_requests = kLongBatch;
    eo.threads = opt.threads;
    sys.engine = std::make_unique<serving::Engine>(sys.model, eo);
    const BatchRun br = run_one(*sys.engine, fx, fx.warmup, off, -1);
    warm_sent += static_cast<long long>(fx.warmup.size());
    warm_failed += br.failed;
    last_warm_ok = br.ok;
    last_warm_failed = br.failed;
  });

  MemorySampler mem;
  const PassResult base =
      run_pass(sys, fx, opt.trace ? opt.seconds / 2 : opt.seconds, limit_s, off);
  mem.stop();
  out.report.push_back(memory_line(mem));
  const double wall = base.end - base.start;
  const long long n = static_cast<long long>(base.latency_ms.size());
  char line[300];
  std::snprintf(line, sizeof line,
                "measure: %lld sequences in %zu batch runs over %.2f s, sent %lld "
                "ok %lld failed %lld; latency samples %lld (one per sequence, "
                "its batch's latency), %lld beyond p99; end-to-end figures are the best "
                "of %d windows; max abs error %.5f (tolerance %.3f)",
                base.sent, base.run_end.size(), wall, base.sent, base.ok,
                base.failed, n, samples_beyond(n, 0.99), kWindows, base.max_abs,
                kTolerance);
  out.report.push_back(line);
  out.report.push_back(windows_line("latency_p50_ms", window_percentiles(base.latency_ms, kWindows, 0.5)));
  out.report.push_back(windows_line("latency p99 ms", window_percentiles(base.latency_ms, kWindows, 0.99)));
  const std::vector<double> tok_s =
      group_rates(base.run_start, base.run_end, base.run_tokens, kWindows);
  const std::vector<double> good_rps =
      group_rates(base.run_start, base.run_end, base.run_within, kWindows);
  out.report.push_back(windows_line("throughput_tok_s", tok_s));
  out.report.push_back(windows_line("goodput_rps", good_rps));
  out.report.push_back(warmup_line(warm_sent, warm_failed));
  const long long attempted = warm_sent + base.sent;
  const long long failed = warm_failed + base.failed;
  std::snprintf(line, sizeof line, "error_rate %.6f (%lld of %lld failed)",
                attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                failed, attempted);
  out.report.push_back(line);

  if (!opt.trace) {
    MetricSet& m = out.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("throughput_tok_s", highest(tok_s), "tok/s");
    m.set("latency_p50_ms", best_window_percentile(base.latency_ms, kWindows, 0.5), "ms");
    m.set("goodput_rps", highest(good_rps), "req/s");
    m.set("peak_heap_mb", mem.max_heap_mb(), "MB");
    out.attempted = attempted;
    out.failed = failed;
    return out;
  }

  MetricSet& m = out.metrics;
  declare_per_layer(m);
  Tracer tracer(true);
  const serving::EngineStats es0 = sys.engine->stats();
  const double cpu0 = process_cpu_s();
  MemorySampler tmem;
  const PassResult tp = run_pass(sys, fx, opt.seconds / 2, limit_s, tracer);
  tmem.stop();
  const double twall = tp.end - tp.start;
  const double cpu = process_cpu_s() - cpu0;
  const serving::EngineStats d = stats_delta(sys.engine->stats(), es0);

  m.set("loadgen.sent", static_cast<double>(tp.sent), "count");
  m.set("loadgen.ok", static_cast<double>(tp.ok), "count");
  m.set("loadgen.failed", static_cast<double>(tp.failed), "count");
  m.set("loadgen.warmup_sent", static_cast<double>(fx.warmup.size()), "count");
  m.set("loadgen.warmup_ok", static_cast<double>(last_warm_ok), "count");
  m.set("loadgen.warmup_failed", static_cast<double>(last_warm_failed), "count");
  m.set("loadgen.error_rate",
        tp.sent > 0 ? static_cast<double>(tp.failed) / static_cast<double>(tp.sent) : 0, "ratio");
  // The untraced half's tail, pooled.
  m.set("loadgen.latency_p99_ms", percentile(base.latency_ms, 0.99), "ms");
  m.set("loadgen.p99_samples", static_cast<double>(base.latency_ms.size()), "count");
  m.set("loadgen.max_abs_err", tp.max_abs, "abs");
  const double batches = static_cast<double>(d.batches);
  m.set("serving.queue_wait_p50_ms", percentile(tp.queue_ms, 0.5), "ms");
  m.set("serving.queue_wait_p99_ms", percentile(tp.queue_ms, 0.99), "ms");
  m.set("serving.batch_tokens_mean", batches > 0 ? static_cast<double>(d.valid_tokens) / batches : 0, "tok");
  m.set("serving.requests_per_round", batches > 0 ? static_cast<double>(d.requests) / batches : 0, "req");
  m.set("serving.micro_batches_per_round", batches > 0 ? static_cast<double>(d.micro_batches) / batches : 0, "count");
  m.set("serving.busy_share", twall > 0 ? d.compute_seconds / twall : 0, "ratio");
  m.set("serving.replica_skew", 1, "ratio");
  m.set("serving.pad_share",
        d.processed_tokens > 0 ? static_cast<double>(d.padding_tokens()) / static_cast<double>(d.processed_tokens) : 0,
        "ratio");
  memory_metrics(tmem, m);
  m.set("parallel.cpu_util", twall > 0 ? cpu / (twall * opt.threads) : 0, "ratio");
  trace_overhead(best_window_percentile(base.latency_ms, kWindows, 0.5),
                 best_window_percentile(tp.latency_ms, kWindows, 0.5), m);
  std::snprintf(line, sizeof line,
                "served: Response::stages sum %.3f of Response::compute_seconds",
                tp.compute_s > 0 ? tp.stage_sum_s / tp.compute_s : 0.0);
  out.report.push_back(line);

  std::vector<std::vector<const Tensor16*>> batches_in;
  for (const auto& b : fx.batches) {
    std::vector<const Tensor16*> in;
    for (std::size_t i : b) in.push_back(&fx.pool[i].input);
    batches_in.push_back(std::move(in));
  }
  bt::par::Device dev(opt.threads);
  probe_forward(*sys.model, dev, batches_in, core::OptFlags::byte_transformer(),
                static_cast<int>(batches_in.size()), 1.0, tracer, m, out.report);
  finish_trace(opt, tracer, m, out.report);
  out.attempted = attempted + tp.sent;
  out.failed = failed + tp.failed;
  sys.stop();
  return out;
}

}  // namespace perfbench
