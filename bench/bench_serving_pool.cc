// Serving-pool and serving-service scaling on saturating Poisson traces.
//
// BM_ServingPool — requests/s and end-to-end latency percentiles for a
// one-model Service at 1/2/4 replicas on the same trace. The offered load
// (kRps) is set well above one replica's service rate, so the measured
// requests/s is the service's capacity, not the arrival rate, and replica
// scaling (or its absence — on a single-core host the replicas time-share
// one CPU) is visible directly. bench/run_perf.sh merges the JSON into
// BENCH_serving.json; the perf-smoke CI job uploads it.
//
// BM_ServingService — the multi-model, sessionful front-end scenario: a
// Service with two registered models (each its own replica group) and
// sticky-session routing over conversational traffic. run_perf.sh merges
// it into BENCH_serving_multimodel.json.
//
// Reported counters:
//   req_s        — completed requests per second of wall time
//   p50_ms       — median end-to-end latency (arrival -> future resolved)
//   p99_ms       — tail latency
//   session_hit  — (service only) fraction of sessionful requests routed
//                  to their session's pinned replica (the warm-workspace
//                  target; everything after a session's first request
//                  should hit)
//
// Both replays go through serving::replay_trace — replicas complete out of
// submission order, so completions are stamped by polling readiness across
// all outstanding futures (see request_gen.h for why in-order get() would
// skew the percentiles).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "serving/service.h"

namespace bt::bench {
namespace {

constexpr int kPoolRequests = 64;
constexpr int kPoolMaxSeq = 128;
constexpr int kPoolBatchCap = 8;
constexpr double kRps = 4000.0;  // saturating: arrivals far outpace service

std::shared_ptr<const core::BertModel> pool_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(kSeed + 11);
    return std::make_shared<const core::BertModel>(core::BertModel::random(
        core::BertConfig::bert_base().scaled(2, 2), rng));
  }();
  return model;
}

std::shared_ptr<const core::BertModel> second_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(kSeed + 13);
    return std::make_shared<const core::BertModel>(core::BertModel::random(
        core::BertConfig::bert_base().scaled(2, 2), rng));
  }();
  return model;
}

struct PoolTrace {
  std::vector<double> arrivals;
  std::vector<serving::Request> requests;  // consumed by one replay

  // `sessionful`: round-robin model keys over {bert-a, bert-b} and session
  // ids over 8 conversations (so every session sees several follow-ups).
  static PoolTrace get(bool sessionful) {
    static const PoolTrace master = [] {
      PoolTrace t;
      Rng rng(kSeed + 12);
      const auto lens =
          serving::gen_lengths(kPoolRequests, kPoolMaxSeq, kAlpha, rng);
      const std::int64_t h = pool_model()->config().hidden();
      for (int len : lens) {
        serving::Request req;
        req.hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
        t.requests.push_back(std::move(req));
      }
      t.arrivals = serving::gen_arrivals(kPoolRequests, kRps, rng);
      return t;
    }();
    PoolTrace replay;
    replay.arrivals = master.arrivals;
    for (std::size_t i = 0; i < master.requests.size(); ++i) {
      serving::Request req;
      req.hidden = master.requests[i].hidden.clone();
      if (sessionful) {
        req.model = i % 2 == 0 ? "bert-a" : "bert-b";
        req.session = "conv-" + std::to_string(i % 8);
      }
      replay.requests.push_back(std::move(req));
    }
    return replay;
  }
};

serving::EnginePoolOptions pool_options(int replicas,
                                        serving::RoutePolicy route) {
  serving::EnginePoolOptions opts;
  opts.engine.engine.flags = core::OptFlags::byte_transformer();
  opts.engine.engine.policy = serving::BatchPolicy::kPacked;
  opts.engine.engine.max_batch_requests = kPoolBatchCap;
  opts.engine.max_wait_seconds = 0.002;
  opts.replicas = replicas;
  opts.route = route;
  return opts;
}

void report_replay(benchmark::State& state, std::vector<double>& latency_ms,
                   double serve_seconds, long long served) {
  state.counters["req_s"] = static_cast<double>(served) / serve_seconds;
  state.counters["p50_ms"] = stats::percentile(latency_ms, 0.5);
  state.counters["p99_ms"] = stats::percentile(latency_ms, 0.99);
  state.SetItemsProcessed(state.iterations() * kPoolRequests);
  set_kernel_label(state);
}

void BM_ServingPool(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  std::vector<double> latency_ms;
  double serve_seconds = 0;
  long long served = 0;

  for (auto _ : state) {
    PoolTrace trace = PoolTrace::get(/*sessionful=*/false);
    serving::ModelRegistry registry;
    registry.add(
        "bert-a", pool_model(),
        pool_options(replicas, serving::RoutePolicy::kLeastOutstandingTokens));
    serving::Service service(std::move(registry));
    const serving::ReplayResult replay = serving::replay_trace(
        trace.arrivals, std::move(trace.requests),
        [&](serving::Request req) { return service.submit(std::move(req)); });
    for (std::size_t i = 0; i < replay.done_seconds.size(); ++i) {
      latency_ms.push_back((replay.done_seconds[i] - trace.arrivals[i]) * 1e3);
    }
    serve_seconds += replay.last_done_seconds;
    served += kPoolRequests;
    service.stop();
  }

  report_replay(state, latency_ms, serve_seconds, served);
  state.counters["replicas"] = replicas;
}

// No explicit MinTime: the 0.5 s default runs each replica count for
// several trace replays, averaging out scheduler-timing noise that a
// single ~0.2 s replay exhibits on a busy host.
BENCHMARK(BM_ServingPool)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ServingService(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  std::vector<double> latency_ms;
  double serve_seconds = 0;
  long long served = 0;
  long long sticky_hits = 0, session_requests = 0;

  for (auto _ : state) {
    PoolTrace trace = PoolTrace::get(/*sessionful=*/true);
    serving::ModelRegistry registry;
    const auto opts =
        pool_options(replicas, serving::RoutePolicy::kStickySession);
    registry.add("bert-a", pool_model(), opts);
    registry.add("bert-b", second_model(), opts);
    serving::Service service(std::move(registry));
    const serving::ReplayResult replay = serving::replay_trace(
        trace.arrivals, std::move(trace.requests),
        [&](serving::Request req) { return service.submit(std::move(req)); });
    for (std::size_t i = 0; i < replay.done_seconds.size(); ++i) {
      latency_ms.push_back((replay.done_seconds[i] - trace.arrivals[i]) * 1e3);
    }
    serve_seconds += replay.last_done_seconds;
    served += kPoolRequests;
    service.stop();
    const auto sr = service.session_route_stats();
    sticky_hits += sr.sticky_hits;
    session_requests += sr.session_requests;
  }

  report_replay(state, latency_ms, serve_seconds, served);
  state.counters["replicas"] = replicas;
  state.counters["models"] = 2;
  state.counters["session_hit"] =
      session_requests > 0 ? static_cast<double>(sticky_hits) /
                                 static_cast<double>(session_requests)
                           : 0.0;
}

BENCHMARK(BM_ServingService)
    ->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace bt::bench
