// Serving throughput under injected faults: the wire-bench trace replayed
// through net::Server over loopback at increasing fault rates — 0% is the
// clean baseline, 1% and 5% arm the socket fault points (short reads and
// writes at the rate; connection resets and replica compute failures at
// an eighth of it) with retrying clients absorbing the damage. The rows
// quantify what resilience costs: how much throughput and tail latency a
// given fault rate eats once retries, reconnects, and the circuit breaker
// are paying for it. bench/run_perf.sh merges the JSON into
// BENCH_serving_faults.json; the perf-smoke CI job uploads it.
//
// Reported counters:
//   fault_pct — injected fault rate for the frequent points, in percent
//   req_s     — completed requests per second of wall time
//   p50_ms    — median end-to-end latency (arrival -> future resolved)
//   p99_ms    — tail latency
//   retries   — frames re-sent per iteration (error replies + reconnects)
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "common/fault.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/service.h"

namespace bt::bench {
namespace {

constexpr int kFaultRequests = 64;
constexpr int kFaultMaxSeq = 128;
constexpr int kFaultBatchCap = 8;
constexpr double kFaultRps = 4000.0;  // saturating: arrivals outpace compute
constexpr int kFaultConns = 4;

std::shared_ptr<const core::BertModel> fault_model() {
  static std::shared_ptr<const core::BertModel> model = [] {
    Rng rng(kSeed + 17);
    return std::make_shared<const core::BertModel>(core::BertModel::random(
        core::BertConfig::bert_base().scaled(2, 2), rng));
  }();
  return model;
}

struct FaultTrace {
  std::vector<double> arrivals;
  std::vector<serving::Request> requests;

  static FaultTrace get() {
    static const FaultTrace master = [] {
      FaultTrace t;
      Rng rng(kSeed + 18);
      const auto lens =
          serving::gen_lengths(kFaultRequests, kFaultMaxSeq, kAlpha, rng);
      const std::int64_t h = fault_model()->config().hidden();
      for (int len : lens) {
        serving::Request req;
        req.hidden = Tensor<fp16_t>::random_normal({len, h}, rng);
        t.requests.push_back(std::move(req));
      }
      t.arrivals = serving::gen_arrivals(kFaultRequests, kFaultRps, rng);
      return t;
    }();
    FaultTrace replay;
    replay.arrivals = master.arrivals;
    for (const serving::Request& req : master.requests) {
      serving::Request copy;
      copy.hidden = req.hidden.clone();
      replay.requests.push_back(std::move(copy));
    }
    return replay;
  }
};

serving::Service make_service() {
  serving::EnginePoolOptions opts;
  opts.engine.engine.flags = core::OptFlags::byte_transformer();
  opts.engine.engine.policy = serving::BatchPolicy::kPacked;
  opts.engine.engine.max_batch_requests = kFaultBatchCap;
  opts.engine.max_wait_seconds = 0.002;
  // Two replicas so a breaker quarantine reroutes instead of starving the
  // fleet (single-replica pools fall back to routing anyway, but that is
  // not the deployment the resilience stack targets).
  opts.replicas = 2;
  serving::ModelRegistry registry;
  registry.add("bert-a", fault_model(), opts);
  return serving::Service(std::move(registry));
}

void BM_ServingFaults(benchmark::State& state) {
  const double fault_pct = static_cast<double>(state.range(0));
  const double rate = fault_pct / 100.0;
  std::vector<double> latency_ms;
  double serve_seconds = 0;
  long long served = 0;
  long long retries = 0;

  // One injector for the whole run: the hit streams keep advancing across
  // iterations, so each iteration sees a fresh (still seeded) slice of
  // the schedule rather than replaying the identical fault positions.
  fault::Injector injector(kSeed + 23);
  std::unique_ptr<fault::ScopedInjector> scope;
  if (rate > 0) {
    fault::PointConfig frequent;
    frequent.probability = rate;
    fault::PointConfig rare;
    rare.probability = rate / 8.0;
    injector.arm("net.server.read.short", frequent);
    injector.arm("net.server.write.short", frequent);
    injector.arm("net.client.write.short", frequent);
    injector.arm("net.client.conn.reset", rare);
    injector.arm("serving.compute.fail", rare);
    scope = std::make_unique<fault::ScopedInjector>(injector);
  }

  net::ClientOptions copts;
  if (rate > 0) {
    copts.retry.max_attempts = 6;
    copts.retry.initial_backoff_ms = 1.0;
    copts.retry.max_backoff_ms = 20.0;
    copts.retry.seed = kSeed + 24;
  }

  for (auto _ : state) {
    FaultTrace trace = FaultTrace::get();
    serving::Service service = make_service();
    net::Server server(service);
    server.start();
    std::vector<std::unique_ptr<net::Client>> clients;
    for (int c = 0; c < kFaultConns; ++c) {
      clients.push_back(std::make_unique<net::Client>(server.port(), copts));
    }
    std::size_t next_conn = 0;
    const serving::ReplayResult replay = serving::replay_trace(
        trace.arrivals, std::move(trace.requests),
        [&](serving::Request req) {
          net::WireRequest w;
          w.hidden = std::move(req.hidden);
          return clients[next_conn++ % clients.size()]->submit_serving(
              std::move(w));
        });
    for (std::size_t i = 0; i < replay.done_seconds.size(); ++i) {
      if (replay.done_seconds[i] >= 0 && !replay.failed[i]) {
        latency_ms.push_back((replay.done_seconds[i] - trace.arrivals[i]) *
                             1e3);
      }
    }
    serve_seconds += replay.last_done_seconds;
    served += kFaultRequests - replay.failures();
    for (const auto& client : clients) {
      retries += client->stats().retries;
    }
    clients.clear();
    server.stop();
    service.stop();
  }

  state.counters["fault_pct"] = fault_pct;
  state.counters["req_s"] = static_cast<double>(served) / serve_seconds;
  state.counters["p50_ms"] = stats::percentile(latency_ms, 0.5);
  state.counters["p99_ms"] = stats::percentile(latency_ms, 0.99);
  state.counters["retries"] =
      static_cast<double>(retries) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations() * kFaultRequests);
  set_kernel_label(state);
}

BENCHMARK(BM_ServingFaults)
    ->Arg(0)->Arg(1)->Arg(5)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace bt::bench
