// conversation: 8 concurrent sessions driven by one thread, closed loop, over
// an in-process Service with 2 sticky-routed replicas and a prefix cache
// sized at about half of one pass's working set.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <cstdio>
#include <future>
#include <map>
#include <utility>

#include "cache/prefix_cache.h"
#include "common/rng.h"
#include "harness.h"
#include "serving/request_gen.h"
#include "serving/service.h"

namespace perfbench {
namespace {

namespace core = bt::core;
namespace serving = bt::serving;

constexpr int kReplicas = 2;
constexpr const char* kModel = "bert";

core::OptFlags causal_flags() {
  core::OptFlags f = core::OptFlags::byte_transformer();
  f.causal = true;
  return f;
}

struct Conversation {
  Tensor16 history;           // [lens.back(), hidden]
  std::vector<int> lens;      // strictly growing history length per round
  std::vector<Tensor16> refs;  // single-request reference per round
};

struct Fixture {
  std::vector<Conversation> convs;
  std::size_t working_set_bytes = 0;  // cache entries at the end of a pass
};

Fixture make_fixture(const Options& opt) {
  Fixture f;
  bt::Rng rng(stream_seed(opt.seed, 21));
  const core::BertConfig cfg = model_config();
  const std::int64_t h = cfg.hidden();
  const std::vector<int> finals =
      stratified_lengths(kConvSessions, kConvMaxSeq, kAlpha, rng);
  auto model = build_model(opt.seed);
  bt::par::Device dev(opt.threads);
  core::Workspace ws;
  for (int total : finals) {
    Conversation c;
    // Round r ends at a seeded cut between (r + 0.5) / R and (r + 1) / R of
    // the final history, so every round grows it.
    const int rounds = kConvRounds;
    int prev = 0;
    for (int r = 0; r < rounds; ++r) {
      const int lo = std::max(prev + 1, static_cast<int>((r + 0.5) * total / rounds));
      const int hi = std::max(lo, (r + 1) * total / rounds);
      const int len = r + 1 == rounds ? total : rng.uniform_int(lo, hi);
      c.lens.push_back(len);
      prev = len;
    }
    c.history = Tensor16::random_normal({total, h}, rng);
    for (int len : c.lens) {
      c.refs.push_back(reference_forward(*model, dev, ws, copy_rows(c.history, len),
                                         causal_flags()));
    }
    const std::size_t entry_elems =
        static_cast<std::size_t>(total) * static_cast<std::size_t>(h) *
        (3 * static_cast<std::size_t>(cfg.layers) + 1);
    f.working_set_bytes += entry_elems * sizeof(fp16_t) + sizeof(bt::cache::PrefixEntry);
    f.convs.push_back(std::move(c));
  }
  return f;
}

struct System {
  std::shared_ptr<const core::BertModel> model;
  std::unique_ptr<serving::Service> service;
  void stop() {
    service.reset();
    model.reset();
  }
  const serving::EnginePool& pool() const { return service->pool(kModel); }
};

struct PassResult {
  std::vector<double> latency_ms;  // per round, in completion order
  std::vector<double> queue_ms;    // Response::queue_seconds
  // Per reply: when it arrived, its correct tokens, 1 if within the limit.
  std::vector<double> done_at, done_tokens, done_within;
  double tokens = 0;               // submitted tokens of correct replies
  long long sent = 0, ok = 0, failed = 0, passes = 0;
  double max_abs = 0;
  double bytes_peak = 0;
  double start = 0, end = 0;
  std::map<long long, long long> span_of;  // request id -> loadgen span
};

struct Active {
  std::size_t conv = 0;
  int round = 0;
  std::string session;
  double sent = 0;
  std::future<serving::Response> fut;
};

// Drives every conversation round by round, each session sending its next
// round only when the previous reply arrived. With `seconds` > 0 passes
// restart under fresh session ids until the time is up (no new round is
// sent after it); with `seconds` == 0 exactly one pass runs.
PassResult drive(System& sys, const Fixture& fx, const std::string& tag,
                 double seconds, double limit_s, Tracer& tracer) {
  PassResult p;
  p.start = now_s();
  const bt::cache::PrefixCache* cache = sys.service->prefix_cache().get();
  std::vector<Active> active;
  auto submit = [&](std::size_t conv, int round, const std::string& session) {
    const Conversation& c = fx.convs[conv];
    serving::Request req;
    req.hidden = copy_rows(c.history, c.lens[static_cast<std::size_t>(round)]);
    req.session = session;
    Active a{conv, round, session, now_s(), {}};
    a.fut = sys.service->submit(std::move(req));
    ++p.sent;
    active.push_back(std::move(a));
  };
  auto time_left = [&] { return seconds > 0 && now_s() - p.start < seconds; };
  do {
    for (std::size_t i = 0; i < fx.convs.size(); ++i) {
      submit(i, 0, tag + std::to_string(p.passes) + "-s" + std::to_string(i));
    }
    ++p.passes;
    while (!active.empty()) {
      active.front().fut.wait_for(std::chrono::microseconds(100));
      for (std::size_t k = 0; k < active.size();) {
        if (active[k].fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++k;
          continue;
        }
        Active a = std::move(active[k]);
        active.erase(active.begin() + static_cast<long>(k));
        const double done = now_s();
        const Conversation& c = fx.convs[a.conv];
        const int len = c.lens[static_cast<std::size_t>(a.round)];
        double err = INFINITY;
        bool ok = false;
        long long id = -1;
        try {
          serving::Response r = a.fut.get();
          id = r.id;
          p.queue_ms.push_back(r.queue_seconds * 1e3);
          ok = check_output(r.output, c.refs[static_cast<std::size_t>(a.round)], len, &err);
        } catch (const std::exception&) {
        }
        p.max_abs = std::max(p.max_abs, err);
        const double lat = done - a.sent;
        if (ok) {
          ++p.ok;
          p.tokens += len;
          p.latency_ms.push_back(lat * 1e3);
        } else {
          ++p.failed;
        }
        p.done_at.push_back(done);
        p.done_tokens.push_back(ok ? len : 0);
        p.done_within.push_back(ok && lat <= limit_s ? 1 : 0);
        if (tracer.enabled()) {
          const long long span = tracer.add("loadgen.round", a.sent, done, -1, id);
          tracer.add("check", done, now_s(), span, id);
          if (id >= 0) p.span_of[id] = span;
          if (cache != nullptr) {
            p.bytes_peak = std::max(p.bytes_peak, static_cast<double>(cache->stats().bytes));
          }
        }
        // A failed round ends its conversation: the next round's history
        // would extend a reply that never arrived.
        if (ok && a.round + 1 < static_cast<int>(c.lens.size()) &&
            (seconds == 0 || time_left())) {
          submit(a.conv, a.round + 1, a.session);
        }
      }
    }
  } while (time_left());
  p.end = now_s();
  return p;
}

// Copies each layer's captured QKV rows of one sequence into a
// [layers, rows, 3 * hidden] buffer, the layout forward_resume takes.
class QkvCopy : public core::QkvCaptureSink {
 public:
  QkvCopy(Tensor16& dst, std::int64_t rows) : dst_(dst), rows_(rows) {}
  void on_layer_qkv(int layer, const fp16_t* qkv) override {
    const std::int64_t n = rows_ * dst_.dim(1);
    std::memcpy(dst_.data() + layer * n, qkv, static_cast<std::size_t>(n) * sizeof(fp16_t));
  }

 private:
  Tensor16& dst_;
  std::int64_t rows_;
};

// Core probe of the compute the service runs on this workload: every
// (session, round) of one pass, a `hit_share` of them (seeded pick among
// the rounds after the first) as the single-sequence cached-prefix resume
// forward the engine runs on a cache hit, the rest as full single-sequence
// forwards (a miss), on one replica's threads. FLOPs of a resume call are
// the full sequence's scaled by the share of rows it computes.
void probe_conversation(const core::BertModel& model, const Fixture& fx, int threads,
                        double hit_share, std::uint64_t seed, Tracer& tracer,
                        MetricSet& m, std::vector<std::string>& report) {
  const core::BertConfig cfg = model.config();
  const std::int64_t h = cfg.hidden();
  const core::OptFlags flags = causal_flags();
  bt::par::Device dev(threads);
  core::Workspace ws;
  struct Item {
    const Conversation* conv = nullptr;
    int round = 0;
    std::int64_t prefix = 0;  // 0: full forward
    core::SeqOffsets off;
    Tensor16 prefix_qkv, out, suffix_qkv;
  };
  std::vector<Item> items;
  std::vector<std::size_t> resumable;
  for (const Conversation& c : fx.convs) {
    for (std::size_t r = 0; r < c.lens.size(); ++r) {
      if (r > 0) resumable.push_back(items.size());
      items.push_back({&c, static_cast<int>(r), 0, {}, {}, {}, {}});
    }
  }
  bt::Rng rng(stream_seed(seed, 23));
  std::shuffle(resumable.begin(), resumable.end(), rng.engine());
  const auto hits = std::min(
      resumable.size(),
      static_cast<std::size_t>(std::lround(hit_share * static_cast<double>(items.size()))));
  for (std::size_t k = 0; k < hits; ++k) {
    Item& it = items[resumable[k]];
    it.prefix = it.conv->lens[static_cast<std::size_t>(it.round) - 1];
  }
  std::vector<ProbeCall> calls;
  const auto mode = bt::costmodel::PaddingMode::kZeroPaddingFusedMha;
  for (Item& it : items) {
    const int len = it.conv->lens[static_cast<std::size_t>(it.round)];
    const std::vector<int> lens{len};
    it.off = core::build_seq_offsets(dev, lens, len);
    const fp16_t* in = it.conv->history.data();
    bt::costmodel::LayerFlops f = bt::costmodel::layer_flops_exact(cfg, lens, len, mode);
    if (it.prefix == 0) {
      it.out = Tensor16({len, h});
      calls.push_back({[&model, &dev, &ws, &it, &flags, in](bt::StageTimes* st) {
                         model.forward(dev, in, it.out.data(), it.off, flags, ws, st);
                       },
                       static_cast<double>(len), f});
      continue;
    }
    // The cached prefix state, captured once from a forward over the prefix.
    const std::int64_t suffix = len - it.prefix;
    const int plen = static_cast<int>(it.prefix);
    const core::SeqOffsets poff =
        core::build_seq_offsets(dev, std::vector<int>{plen}, plen);
    it.prefix_qkv = Tensor16({cfg.layers * it.prefix, 3 * h});
    Tensor16 scratch({it.prefix, h});
    QkvCopy sink(it.prefix_qkv, it.prefix);
    model.forward(dev, in, scratch.data(), poff, flags, ws, nullptr, &sink);
    it.out = Tensor16({suffix, h});
    it.suffix_qkv = Tensor16({cfg.layers * suffix, 3 * h});
    const double share = static_cast<double>(suffix) / len;
    for (double* x : {&f.gemm0, &f.gemm1, &f.gemm2, &f.gemm3, &f.mha}) *x *= share;
    calls.push_back({[&model, &dev, &ws, &it, &flags, in, h](bt::StageTimes* st) {
                       model.forward_resume(dev, it.prefix_qkv.data(), it.prefix,
                                            in + it.prefix * h, it.out.data(),
                                            it.suffix_qkv.data(), it.off, flags, ws, st);
                     },
                     static_cast<double>(suffix), f});
  }
  char line[160];
  std::snprintf(line, sizeof line,
                "probe mix: %zu resume calls (served hit share %.3f of rounds), "
                "%zu full forwards",
                hits, hit_share, items.size() - hits);
  report.push_back(line);
  probe_calls(calls, cfg.layers, dev.workers(), 2 * static_cast<int>(calls.size()), 1.0,
              tracer, m, report);
}

void start_system(System& sys, const Options& opt, const Fixture& fx,
                  PassResult* warm) {
  sys.model = build_model(opt.seed);
  serving::EnginePoolOptions po;
  po.replicas = kReplicas;
  po.threads_per_replica = std::max(1, opt.threads / kReplicas);
  po.route = serving::RoutePolicy::kStickySession;
  po.engine.engine.policy = serving::BatchPolicy::kPacked;
  po.engine.engine.flags = causal_flags();
  po.engine.max_wait_seconds = kMaxWaitMs * 1e-3;
  serving::ModelRegistry reg;
  reg.add(kModel, sys.model, po);
  serving::ServiceOptions so;
  so.prefix_cache_bytes = static_cast<std::size_t>(
      static_cast<double>(fx.working_set_bytes) * kConvCacheShare);
  sys.service = std::make_unique<serving::Service>(std::move(reg), so);
  Tracer off(false);
  *warm = drive(sys, fx, "warm", 0, INFINITY, off);
}

}  // namespace

Outcome run_conversation(const Options& opt) {
  Outcome out;
  const Fixture fx = make_fixture(opt);
  trim_heap();
  const double limit_s = kConvLimitMs * 1e-3;

  System sys;
  PassResult warm;
  long long warm_sent = 0, warm_failed = 0;
  const double setup_s = timed_setups([&] { sys.stop(); }, [&] {
    start_system(sys, opt, fx, &warm);
    warm_sent += warm.sent;
    warm_failed += warm.failed;
  });

  Tracer off(false);
  MemorySampler mem;
  const PassResult base =
      drive(sys, fx, "run", opt.trace ? opt.seconds / 2 : opt.seconds, limit_s, off);
  mem.stop();
  out.report.push_back(memory_line(mem));
  const double wall = base.end - base.start;
  const long long n = static_cast<long long>(base.latency_ms.size());
  char line[300];
  std::snprintf(line, sizeof line,
                "measure: %lld passes, %lld rounds in %.2f s, sent %lld ok %lld "
                "failed %lld; latency samples %lld, %lld beyond p99; end-to-end "
                "figures are the best of %d windows; max abs error %.5f (tolerance %.3f); "
                "cache budget %.2f MB of %.2f MB working set",
                base.passes, base.sent, wall, base.sent, base.ok, base.failed, n,
                samples_beyond(n, 0.99), kWindows, base.max_abs, kTolerance,
                static_cast<double>(sys.service->prefix_cache()->budget()) / 1e6,
                static_cast<double>(fx.working_set_bytes) / 1e6);
  out.report.push_back(line);
  out.report.push_back(windows_line("latency_p50_ms", window_percentiles(base.latency_ms, kWindows, 0.5)));
  out.report.push_back(windows_line("latency p99 ms", window_percentiles(base.latency_ms, kWindows, 0.99)));
  const std::vector<double> tok_s =
      window_rates(base.done_at, base.done_tokens, base.start, base.end, kWindows);
  const std::vector<double> good_rps =
      window_rates(base.done_at, base.done_within, base.start, base.end, kWindows);
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
  bt::obs::TraceRing::global().configure(1 << 17, 1);
  const auto& cache = *sys.service->prefix_cache();
  const bt::cache::CacheStats cs0 = cache.stats();
  const serving::EngineStats es0 = sys.pool().stats();
  const auto rs0 = sys.pool().replica_stats();
  const auto sr0 = sys.pool().session_route_stats();
  const double cpu0 = process_cpu_s();
  MemorySampler tmem;
  const PassResult tp = drive(sys, fx, "trace", opt.seconds / 2, limit_s, tracer);
  tmem.stop();
  const double twall = tp.end - tp.start;
  const double cpu = process_cpu_s() - cpu0;
  const bt::cache::CacheStats cs1 = cache.stats();
  const serving::EngineStats delta = stats_delta(sys.pool().stats(), es0);
  const auto rs1 = sys.pool().replica_stats();
  const auto sr1 = sys.pool().session_route_stats();
  std::vector<long long> replica_tokens;
  for (std::size_t i = 0; i < rs1.size(); ++i) {
    replica_tokens.push_back(rs1[i].engine.valid_tokens - rs0[i].engine.valid_tokens);
  }
  const std::vector<bt::obs::TraceRecord> recs = trace_records_since(tp.start);
  // Load-generator reaction lag: the program resolved the reply
  // (t_replied) -> the loop saw it (end of the loadgen.round span).
  const std::vector<Span> spans = tracer.spans();
  std::vector<double> react_ms;
  for (const auto& r : recs) {
    const auto it = tp.span_of.find(r.request_id);
    if (it != tp.span_of.end()) {
      react_ms.push_back((spans[static_cast<std::size_t>(it->second)].end - r.t_replied) * 1e3);
    }
  }
  add_trace_spans(recs, [&](const bt::obs::TraceRecord& r) {
    const auto it = tp.span_of.find(r.request_id);
    return it == tp.span_of.end() ? -1LL : it->second;
  }, tracer);

  m.set("loadgen.sent", static_cast<double>(tp.sent), "count");
  m.set("loadgen.ok", static_cast<double>(tp.ok), "count");
  m.set("loadgen.failed", static_cast<double>(tp.failed), "count");
  m.set("loadgen.warmup_sent", static_cast<double>(warm.sent), "count");
  m.set("loadgen.warmup_ok", static_cast<double>(warm.ok), "count");
  m.set("loadgen.warmup_failed", static_cast<double>(warm.failed), "count");
  m.set("loadgen.error_rate",
        tp.sent > 0 ? static_cast<double>(tp.failed) / static_cast<double>(tp.sent) : 0, "ratio");
  m.set("loadgen.lag_p99_ms", percentile(react_ms, 0.99), "ms");
  // The untraced half's tail, pooled.
  m.set("loadgen.latency_p99_ms", percentile(base.latency_ms, 0.99), "ms");
  m.set("loadgen.p99_samples", static_cast<double>(base.latency_ms.size()), "count");
  m.set("loadgen.max_abs_err", tp.max_abs, "abs");
  serving_layer_metrics(recs, delta, replica_tokens, kReplicas, twall, m);
  const long long sreq = sr1.session_requests - sr0.session_requests;
  m.set("serving.sticky_hit",
        sreq > 0 ? static_cast<double>(sr1.sticky_hits - sr0.sticky_hits) / static_cast<double>(sreq) : 0,
        "ratio");
  const long long probes = cs1.probes - cs0.probes;
  m.set("cache.hit_rate", probes > 0 ? static_cast<double>(cs1.hits - cs0.hits) / static_cast<double>(probes) : 0, "ratio");
  m.set("cache.saved_share",
        tp.tokens > 0 ? static_cast<double>(cs1.hit_prefix_tokens - cs0.hit_prefix_tokens) / tp.tokens : 0,
        "ratio");
  m.set("cache.inserts", static_cast<double>(cs1.inserts - cs0.inserts), "count");
  m.set("cache.extends", static_cast<double>(cs1.extends - cs0.extends), "count");
  m.set("cache.evictions", static_cast<double>(cs1.evictions - cs0.evictions), "count");
  m.set("cache.bytes_peak_mb", tp.bytes_peak / 1e6, "MB");
  memory_metrics(tmem, m);
  m.set("parallel.cpu_util", twall > 0 ? cpu / (twall * opt.threads) : 0, "ratio");
  trace_overhead(best_window_percentile(base.latency_ms, kWindows, 0.5),
                 best_window_percentile(tp.latency_ms, kWindows, 0.5), m);

  // Core probe of the mix the service computed: the share of rounds it
  // resumed from the cache, from its own accounting over the traced pass.
  const double hit_share =
      delta.requests > 0
          ? static_cast<double>(delta.cache_hits) / static_cast<double>(delta.requests)
          : 0;
  probe_conversation(*sys.model, fx, std::max(1, opt.threads / kReplicas), hit_share,
                     opt.seed, tracer, m, out.report);
  finish_trace(opt, tracer, m, out.report);
  out.attempted = attempted + tp.sent;
  out.failed = failed + tp.failed;
  sys.stop();
  return out;
}

}  // namespace perfbench
