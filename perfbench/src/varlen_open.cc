// varlen_open: open-loop Poisson arrivals of sessionless α = 0.6 requests
// over one loopback net::Client connection to a 2-replica packed Service,
// stepped through a fixed rate ladder.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "serving/request_gen.h"
#include "serving/service.h"

namespace perfbench {
namespace {

namespace core = bt::core;
namespace net = bt::net;
namespace serving = bt::serving;
using Clock = std::chrono::steady_clock;

constexpr int kReplicas = 2;
constexpr const char* kModel = "bert";

Clock::time_point at(double trace_s) {
  return bt::obs::trace_epoch() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(trace_s));
}

struct Sample {
  Tensor16 input;
  Tensor16 ref;
};

struct System {
  std::shared_ptr<const core::BertModel> model;
  std::unique_ptr<serving::Service> service;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> client;

  void stop() {
    client.reset();
    if (server) server->stop();
    server.reset();
    service.reset();
    model.reset();
  }
  const serving::EnginePool& pool() const { return service->pool(kModel); }
};

serving::EnginePoolOptions pool_options(const Options& opt) {
  serving::EnginePoolOptions p;
  p.replicas = kReplicas;
  p.threads_per_replica = std::max(1, opt.threads / kReplicas);
  p.route = serving::RoutePolicy::kLeastOutstandingTokens;
  p.engine.engine.policy = serving::BatchPolicy::kPacked;
  p.engine.engine.flags = core::OptFlags::byte_transformer();
  p.engine.max_wait_seconds = kMaxWaitMs * 1e-3;
  return p;
}

// One request's life as the load generator saw it.
struct Record {
  int sample = 0;
  double due = 0;
  double sent = 0;
  double submit_end = 0;  // Client::submit_serving returned
  double done = 0;
  bool ok = false;
  double max_abs = 0;
  long long span = -1;  // loadgen.request span id
  std::future<serving::Response> fut;
};

// Receives replies for `records` (filled concurrently by the sender) and
// checks each against its reference. Polls the oldest outstanding future
// with a short timeout, then sweeps the rest.
class Collector {
 public:
  Collector(std::deque<Record>& records, const std::vector<Sample>& pool,
            Tracer& tracer)
      : records_(records), pool_(pool), tracer_(tracer),
        thread_([this] { loop(); }) {}
  ~Collector() { join(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  // Record i is fully written and may be collected.
  void publish(std::size_t count) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      published_ = count;
    }
    cv_.notify_one();
  }
  void finish(std::size_t total) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      published_ = total;
      total_ = total;
    }
    cv_.notify_one();
  }
  void join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  void loop() {
    std::vector<std::size_t> open;
    std::size_t taken = 0, collected = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (open.empty()) {
          cv_.wait(lock, [&] { return published_ > taken || collected == total_; });
        }
        if (collected == total_) return;
        for (; taken < published_; ++taken) open.push_back(taken);
      }
      if (open.empty()) continue;
      records_[open.front()].fut.wait_for(std::chrono::microseconds(100));
      for (std::size_t k = 0; k < open.size();) {
        Record& r = records_[open[k]];
        if (r.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++k;
          continue;
        }
        r.done = now_s();
        const Sample& s = pool_[static_cast<std::size_t>(r.sample)];
        try {
          serving::Response resp = r.fut.get();
          r.ok = check_output(resp.output, s.ref, s.input.dim(0), &r.max_abs);
        } catch (const std::exception&) {
          r.ok = false;
        }
        if (tracer_.enabled()) {
          r.span = tracer_.add("loadgen.request", r.due, r.done, -1, open[k]);
          tracer_.add("loadgen.lag", r.due, r.sent, r.span, open[k]);
          tracer_.add("net.client.submit", r.sent, r.submit_end, r.span, open[k]);
          tracer_.add("check", r.done, now_s(), r.span, open[k]);
        }
        ++collected;
        open[k] = open.back();
        open.pop_back();
      }
      std::sort(open.begin(), open.end());
    }
  }

  std::deque<Record>& records_;
  const std::vector<Sample>& pool_;
  Tracer& tracer_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t published_ = 0;
  std::size_t total_ = static_cast<std::size_t>(-1);
  std::thread thread_;  // last: starts after the members it uses
};

net::WireRequest wire_request(const Sample& s) {
  net::WireRequest w;
  w.hidden = s.input.clone();
  return w;
}

// Sends `arrivals` (offsets from the step start, seconds) open-loop and
// waits for every reply.
std::deque<Record> run_schedule(System& sys, const std::vector<Sample>& pool,
                                const std::vector<double>& arrivals,
                                const std::vector<int>& picks, Tracer& tracer) {
  std::deque<Record> records(arrivals.size());
  Collector collector(records, pool, tracer);
  const double t0 = now_s() + 0.002;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Record& r = records[i];
    r.sample = picks[i];
    r.due = t0 + arrivals[i];
    std::this_thread::sleep_until(at(r.due));
    r.sent = now_s();
    try {
      r.fut = sys.client->submit_serving(
          wire_request(pool[static_cast<std::size_t>(r.sample)]));
    } catch (...) {
      std::promise<serving::Response> p;
      p.set_exception(std::current_exception());
      r.fut = p.get_future();
    }
    r.submit_end = now_s();
    collector.publish(i + 1);
  }
  collector.finish(arrivals.size());
  collector.join();
  return records;
}

StepResult score_step(const std::deque<Record>& recs, double rate,
                      double limit_s, std::vector<double>* latencies_ms,
                      double* tokens, const std::vector<Sample>& pool,
                      double* max_abs) {
  StepResult s;
  s.rate_rps = rate;
  std::vector<double> lag_ms;
  double last_sent = 0, last_done = 0, first_due = INFINITY;
  for (const Record& r : recs) {
    ++s.sent;
    lag_ms.push_back((r.sent - r.due) * 1e3);
    last_sent = std::max(last_sent, r.sent);
    last_done = std::max(last_done, r.done);
    first_due = std::min(first_due, r.due);
    *max_abs = std::max(*max_abs, r.max_abs);
    if (!r.ok) {
      ++s.failed;
      continue;
    }
    ++s.ok;
    const double lat = r.done - r.due;
    if (lat <= limit_s) ++s.within_limit;
    latencies_ms->push_back(lat * 1e3);
    *tokens += static_cast<double>(pool[static_cast<std::size_t>(r.sample)].input.dim(0));
  }
  s.lag_p99_ms = percentile(lag_ms, 0.99);
  s.drain_s = recs.empty() ? 0 : last_done - last_sent;
  s.seconds = recs.empty() ? 0 : last_sent - first_due;
  s.good_span_s = recs.empty() ? 0 : last_done - first_due;
  return s;
}

struct Schedule {
  std::vector<double> rates;
  std::vector<std::vector<double>> arrivals;  // per step
  std::vector<std::vector<int>> picks;        // per step
};

// Each step sends n = rate * duration requests at Poisson arrival times
// conditioned on exactly n arrivals in the step: n + 1 exponential gaps
// from gen_arrivals, rescaled so the (n + 1)-th lands at the step's end.
// Requests walk seeded permutations of the pool, so every step offers the
// pool's own length mix.
Schedule make_schedule(const Options& opt, double seconds, std::uint64_t salt) {
  Schedule sc;
  bt::Rng rng(stream_seed(opt.seed, salt));
  std::vector<int> perm(static_cast<std::size_t>(kOpenPool));
  std::size_t next = perm.size();
  for (std::size_t k = 0; k < std::size(kOpenRates); ++k) {
    const double dur = seconds * kOpenStepShare[k];
    const int n = std::max(1, static_cast<int>(std::lround(kOpenRates[k] * dur)));
    std::vector<double> t = bt::serving::gen_arrivals(n + 1, kOpenRates[k], rng);
    const double scale = dur / t.back();
    t.pop_back();
    for (double& x : t) x *= scale;
    sc.rates.push_back(kOpenRates[k]);
    sc.arrivals.push_back(std::move(t));
    std::vector<int> picks(static_cast<std::size_t>(n));
    for (int& p : picks) {
      if (next == perm.size()) {
        for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<int>(i);
        std::shuffle(perm.begin(), perm.end(), rng.engine());
        next = 0;
      }
      p = perm[next++];
    }
    sc.picks.push_back(std::move(picks));
  }
  return sc;
}

struct PassResult {
  std::vector<StepResult> steps;
  std::vector<std::deque<Record>> records;
  std::vector<double> mid_latency_ms;  // latencies at the middle rate
  double tokens = 0;
  double span_s = 0;  // summed good spans
  double max_abs = 0;
  double start = 0, end = 0;
};

PassResult run_pass(System& sys, const std::vector<Sample>& pool,
                    const Schedule& sc, double limit_s, Tracer& tracer) {
  PassResult p;
  p.start = now_s();
  const std::size_t mid = sc.rates.size() / 2;
  for (std::size_t k = 0; k < sc.rates.size(); ++k) {
    p.records.push_back(run_schedule(sys, pool, sc.arrivals[k], sc.picks[k], tracer));
    std::vector<double> lat;
    p.steps.push_back(score_step(p.records.back(), sc.rates[k], limit_s, &lat,
                                 &p.tokens, pool, &p.max_abs));
    p.span_s += p.steps.back().good_span_s;
    if (k == mid) p.mid_latency_ms = std::move(lat);
  }
  p.end = now_s();
  return p;
}

std::string step_line(std::size_t k, const StepResult& s, const LadderRule& rule) {
  char line[240];
  std::snprintf(line, sizeof line,
                "step %zu: rate %.1f req/s over %.2f s  sent %lld ok %lld "
                "failed %lld within-limit %lld  lag p99 %.3f ms  drain %.1f ms  "
                "%s%s",
                k, s.rate_rps, s.seconds, s.sent, s.ok, s.failed, s.within_limit,
                s.lag_p99_ms, s.drain_s * 1e3,
                step_valid(s, rule) ? "valid" : "INVALID(lag)",
                step_passes(s, rule) ? ", passes" : ", fails");
  return line;
}

struct Fixture {
  std::vector<Sample> pool;
  std::vector<std::size_t> warmup;  // pool indices of the warm-up burst
};

Fixture make_fixture(const Options& opt) {
  Fixture f;
  bt::Rng rng(stream_seed(opt.seed, 1));
  const std::int64_t h = model_config().hidden();
  const std::vector<int> lens =
      stratified_lengths(kOpenPool, kOpenMaxSeq, kAlpha, rng);
  for (int len : lens) f.pool.push_back({Tensor16::random_normal({len, h}, rng), {}});
  // References from a model built from the same weights seed.
  auto model = build_model(opt.seed);
  bt::par::Device dev(opt.threads);
  core::Workspace ws;
  for (Sample& s : f.pool) {
    s.ref = reference_forward(*model, dev, ws, s.input, core::OptFlags::byte_transformer());
  }
  // Warm-up: the 16 longest (grows every workspace to its largest round)
  // plus 32 more, as one burst.
  std::vector<std::size_t> order(f.pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return f.pool[a].input.dim(0) > f.pool[b].input.dim(0);
  });
  const std::size_t longest = std::min<std::size_t>(16, order.size());
  f.warmup.assign(order.begin(), order.begin() + static_cast<long>(longest));
  for (std::size_t i = 0; i < std::min<std::size_t>(32, f.pool.size()); ++i) {
    f.warmup.push_back(i);
  }
  return f;
}

struct WarmupCount {
  long long sent = 0, ok = 0, failed = 0;
};

void start_system(System& sys, const Options& opt, const Fixture& fx,
                  WarmupCount& wc) {
  sys.model = build_model(opt.seed);
  serving::ModelRegistry reg;
  reg.add(kModel, sys.model, pool_options(opt));
  sys.service = std::make_unique<serving::Service>(std::move(reg));
  sys.server = std::make_unique<net::Server>(*sys.service);
  sys.server->start();
  sys.client = std::make_unique<net::Client>(sys.server->port());
  std::vector<std::future<serving::Response>> futs;
  for (std::size_t i : fx.warmup) {
    futs.push_back(sys.client->submit_serving(wire_request(fx.pool[i])));
  }
  wc = {};
  for (std::size_t k = 0; k < futs.size(); ++k) {
    const Sample& s = fx.pool[fx.warmup[k]];
    ++wc.sent;
    double err = 0;
    bool ok = false;
    try {
      ok = check_output(futs[k].get().output, s.ref, s.input.dim(0), &err);
    } catch (const std::exception&) {
    }
    ok ? ++wc.ok : ++wc.failed;
  }
}

}  // namespace

Outcome run_varlen_open(const Options& opt) {
  Outcome out;
  const LadderRule rule{kOpenLimitMs * 1e-3, 0.99, kLagBoundMs};
  const Fixture fx = make_fixture(opt);
  trim_heap();
  // Every schedule is generated before any timing starts.
  const Schedule untraced = make_schedule(opt, opt.trace ? opt.seconds / 2 : opt.seconds, 2);
  const Schedule traced = make_schedule(opt, opt.seconds / 2, 3);

  System sys;
  WarmupCount wc;
  long long warm_failed = 0, warm_sent = 0;
  const double setup_s = timed_setups([&] { sys.stop(); }, [&] {
    start_system(sys, opt, fx, wc);
    warm_sent += wc.sent;
    warm_failed += wc.failed;
  });

  Tracer off(false);
  MemorySampler mem;
  const PassResult base = run_pass(sys, fx.pool, untraced, rule.limit_s, off);
  mem.stop();
  out.report.push_back(memory_line(mem));
  const double base_p50 = best_window_percentile(base.mid_latency_ms, kWindows, 0.5);
  for (std::size_t k = 0; k < base.steps.size(); ++k) {
    out.report.push_back(step_line(k, base.steps[k], rule));
  }
  out.report.push_back(warmup_line(warm_sent, warm_failed));
  long long attempted = warm_sent, failed = warm_failed;
  for (const StepResult& s : base.steps) {
    attempted += s.sent;
    failed += s.failed;
  }
  const long long n_mid = static_cast<long long>(base.mid_latency_ms.size());
  char line[300];
  std::snprintf(line, sizeof line,
                "latency at the middle rate: %lld samples, %lld beyond p99 "
                "(pooled p50 %.3f ms, p99 %.3f ms; latency_p50_ms is the best "
                "of %d windows); max abs error %.5f (tolerance %.3f)",
                n_mid, samples_beyond(n_mid, 0.99),
                percentile(base.mid_latency_ms, 0.5),
                percentile(base.mid_latency_ms, 0.99), kWindows, base.max_abs,
                kTolerance);
  out.report.push_back(line);
  out.report.push_back(windows_line("latency_p50_ms", window_percentiles(base.mid_latency_ms, kWindows, 0.5)));
  out.report.push_back(windows_line("latency p99 ms", window_percentiles(base.mid_latency_ms, kWindows, 0.99)));
  std::snprintf(line, sizeof line, "error_rate %.6f (%lld of %lld failed)",
                attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0.0,
                failed, attempted);
  out.report.push_back(line);

  if (!opt.trace) {
    MetricSet& m = out.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("throughput_tok_s", base.span_s > 0 ? base.tokens / base.span_s : 0, "tok/s");
    m.set("latency_p50_ms", base_p50, "ms");
    m.set("goodput_rps", goodput_rps(base.steps, rule), "req/s");
    m.set("peak_heap_mb", mem.max_heap_mb(), "MB");
    out.attempted = attempted;
    out.failed = failed;
    return out;
  }

  // Traced pass: same ladder at half length, with spans and the program's
  // trace ring sized to hold every request.
  MetricSet& m = out.metrics;
  declare_per_layer(m);
  Tracer tracer(true);
  bt::obs::TraceRing::global().configure(1 << 17, 1);
  const net::ServerStats ss0 = sys.server->stats();
  const serving::EngineStats es0 = sys.pool().stats();
  const auto rs0 = sys.pool().replica_stats();
  const double cpu0 = process_cpu_s();
  MemorySampler tmem;
  const PassResult tp = run_pass(sys, fx.pool, traced, rule.limit_s, tracer);
  tmem.stop();
  const double wall = tp.end - tp.start;
  const double cpu = process_cpu_s() - cpu0;
  const net::ServerStats ss1 = sys.server->stats();
  const serving::EngineStats delta = stats_delta(sys.pool().stats(), es0);
  const auto rs1 = sys.pool().replica_stats();
  std::vector<long long> replica_tokens;
  for (std::size_t i = 0; i < rs1.size(); ++i) {
    replica_tokens.push_back(rs1[i].engine.valid_tokens - rs0[i].engine.valid_tokens);
  }
  const std::vector<bt::obs::TraceRecord> recs = trace_records_since(tp.start);

  long long sent = 0, ok = 0, bad = 0, valid = 0, passed = 0;
  std::vector<double> lag_ms;
  double wire_bytes = 0;
  // Accepted requests in send order <-> trace records in service-id order
  // (one connection, frames admitted in order).
  std::vector<const Record*> accepted;
  for (std::size_t k = 0; k < tp.steps.size(); ++k) {
    const StepResult& s = tp.steps[k];
    sent += s.sent;
    ok += s.ok;
    bad += s.failed;
    valid += step_valid(s, rule) ? 1 : 0;
    passed += step_passes(s, rule) ? 1 : 0;
    for (const Record& r : tp.records[k]) {
      lag_ms.push_back((r.sent - r.due) * 1e3);
      const double in_bytes = static_cast<double>(
          fx.pool[static_cast<std::size_t>(r.sample)].input.size() * sizeof(fp16_t));
      wire_bytes += in_bytes + (r.ok ? in_bytes : 0);
      if (r.ok) accepted.push_back(&r);
    }
  }
  std::vector<const bt::obs::TraceRecord*> by_id;
  for (const auto& r : recs) by_id.push_back(&r);
  std::sort(by_id.begin(), by_id.end(), [](const auto* a, const auto* b) {
    return a->request_id < b->request_id;
  });
  std::map<long long, long long> parent;  // request id -> loadgen span
  std::vector<double> overhead_ms;
  if (by_id.size() == accepted.size()) {
    for (std::size_t i = 0; i < by_id.size(); ++i) {
      const Record& r = *accepted[i];
      const auto& t = *by_id[i];
      parent[t.request_id] = r.span;
      overhead_ms.push_back(((r.done - r.sent) - (t.t_replied - t.t_submit)) * 1e3);
    }
  } else {
    out.report.push_back("trace: " + std::to_string(by_id.size()) +
                         " records for " + std::to_string(accepted.size()) +
                         " replies; net.overhead_p50_ms not computed");
  }
  add_trace_spans(recs, [&](const bt::obs::TraceRecord& r) {
    const auto it = parent.find(r.request_id);
    return it == parent.end() ? -1LL : it->second;
  }, tracer);

  m.set("loadgen.sent", static_cast<double>(sent), "count");
  m.set("loadgen.ok", static_cast<double>(ok), "count");
  m.set("loadgen.failed", static_cast<double>(bad), "count");
  m.set("loadgen.warmup_sent", static_cast<double>(wc.sent), "count");
  m.set("loadgen.warmup_ok", static_cast<double>(wc.ok), "count");
  m.set("loadgen.warmup_failed", static_cast<double>(wc.failed), "count");
  m.set("loadgen.error_rate", sent > 0 ? static_cast<double>(bad) / static_cast<double>(sent) : 0, "ratio");
  m.set("loadgen.lag_p99_ms", percentile(lag_ms, 0.99), "ms");
  m.set("loadgen.steps_valid", static_cast<double>(valid), "count");
  m.set("loadgen.steps_passed", static_cast<double>(passed), "count");
  // The untraced half's tail, pooled.
  m.set("loadgen.latency_p99_ms", percentile(base.mid_latency_ms, 0.99), "ms");
  m.set("loadgen.p99_samples", static_cast<double>(base.mid_latency_ms.size()), "count");
  m.set("loadgen.max_abs_err", tp.max_abs, "abs");
  m.set("net.overhead_p50_ms", percentile(overhead_ms, 0.5), "ms");
  m.set("net.frames", static_cast<double>(ss1.frames_received - ss0.frames_received), "count");
  m.set("net.error_frames", static_cast<double>(ss1.error_frames_sent - ss0.error_frames_sent), "count");
  m.set("net.backpressure", static_cast<double>(ss1.backpressure_replies - ss0.backpressure_replies), "count");
  m.set("net.wire_mb", wire_bytes / 1e6, "MB");
  serving_layer_metrics(recs, delta, replica_tokens, kReplicas, wall, m);
  memory_metrics(tmem, m);
  m.set("parallel.cpu_util", wall > 0 ? cpu / (wall * opt.threads) : 0, "ratio");
  trace_overhead(base_p50, best_window_percentile(tp.mid_latency_ms, kWindows, 0.5), m);

  // Core probe: the pool's requests in rounds of the size the service
  // formed, on one replica's threads.
  const int per_round = std::max(1, static_cast<int>(std::lround(m.get("serving.requests_per_round"))));
  std::vector<std::vector<const Tensor16*>> batches;
  for (std::size_t i = 0; i + static_cast<std::size_t>(per_round) <= fx.pool.size(); i += static_cast<std::size_t>(per_round)) {
    std::vector<const Tensor16*> b;
    for (int j = 0; j < per_round; ++j) b.push_back(&fx.pool[i + static_cast<std::size_t>(j)].input);
    batches.push_back(std::move(b));
  }
  bt::par::Device dev(std::max(1, opt.threads / kReplicas));
  probe_forward(*sys.model, dev, batches, core::OptFlags::byte_transformer(),
                static_cast<int>(batches.size()), 1.0, tracer, m, out.report);
  for (std::size_t k = 0; k < tp.steps.size(); ++k) {
    out.report.push_back("traced " + step_line(k, tp.steps[k], rule));
  }
  finish_trace(opt, tracer, m, out.report);
  out.attempted = attempted + sent;
  out.failed = failed + bad;
  sys.stop();
  return out;
}

Outcome run_open_capacity(const Options& opt) {
  Outcome out;
  const Fixture fx = make_fixture(opt);
  System sys;
  WarmupCount wc;
  start_system(sys, opt, fx, wc);
  // Closed loop with 16 requests outstanding for --seconds.
  constexpr int kDepth = 16;
  bt::Rng rng(stream_seed(opt.seed, 4));
  std::deque<std::pair<int, std::future<serving::Response>>> q;
  long long done = 0, failed = 0;
  double tokens = 0;
  auto send = [&] {
    const int i = rng.uniform_int(0, kOpenPool - 1);
    q.emplace_back(i, sys.client->submit_serving(wire_request(fx.pool[static_cast<std::size_t>(i)])));
  };
  const double t0 = now_s();
  for (int i = 0; i < kDepth; ++i) send();
  while (now_s() - t0 < opt.seconds) {
    auto [i, fut] = std::move(q.front());
    q.pop_front();
    const Sample& s = fx.pool[static_cast<std::size_t>(i)];
    double err = 0;
    if (check_output(fut.get().output, s.ref, s.input.dim(0), &err)) {
      ++done;
      tokens += static_cast<double>(s.input.dim(0));
    } else {
      ++failed;
    }
    send();
  }
  const double wall = now_s() - t0;
  for (auto& [i, fut] : q) fut.wait();
  char line[160];
  std::snprintf(line, sizeof line, "capacity: %.1f req/s, %.0f tok/s over %.1f s (%lld failed)",
                static_cast<double>(done) / wall, tokens / wall, wall, failed);
  out.report.push_back(line);
  out.metrics.set("capacity_rps", static_cast<double>(done) / wall, "req/s");
  out.attempted = done + failed;
  out.failed = failed;
  sys.stop();
  return out;
}

}  // namespace perfbench
