#include "serving/pool.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "cache/prefix_cache.h"
#include "common/fault.h"
#include "obs/hll.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bt::serving {

namespace {

// Hot-path metrics, resolved once (docs/OBSERVABILITY.md catalogs them).
// Every replica in the process shares these: they are fleet-level rates
// and distributions; per-replica splits live in the stats structs.
struct Instruments {
  obs::Counter& submitted;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& shed;
  obs::Counter& rounds;
  obs::Counter& valid_tokens;
  obs::Counter& processed_tokens;
  obs::Gauge& queue_depth;
  obs::Gauge& in_flight;
  obs::LatencyHistogram& queue_seconds;
  obs::LatencyHistogram& e2e_seconds;
  obs::LatencyHistogram& compute_seconds;
  obs::LatencyHistogram& batch_occupancy;
};

Instruments& instruments() {
  auto& reg = obs::MetricRegistry::global();
  static Instruments ins{
      reg.counter("serving.requests.submitted"),
      reg.counter("serving.requests.completed"),
      reg.counter("serving.requests.failed"),
      reg.counter("serving.requests.shed"),
      reg.counter("serving.rounds"),
      reg.counter("serving.tokens.valid"),
      reg.counter("serving.tokens.processed"),
      reg.gauge("serving.queue.depth"),
      reg.gauge("serving.inflight"),
      reg.histogram("serving.latency.queue_seconds"),
      reg.histogram("serving.latency.e2e_seconds"),
      reg.histogram("serving.latency.compute_seconds"),
      reg.histogram("serving.round.batch_requests"),
  };
  return ins;
}

// Per-error-code failure counters; the kOk/default arm absorbs anything
// untyped (it is wrapped as kInternal before reaching the caller anyway).
obs::Counter& failure_counter(ErrorCode code) {
  auto& reg = obs::MetricRegistry::global();
  static obs::Counter& unknown_model =
      reg.counter("serving.errors.unknown_model");
  static obs::Counter& duplicate_id =
      reg.counter("serving.errors.duplicate_id");
  static obs::Counter& backpressure =
      reg.counter("serving.errors.backpressure");
  static obs::Counter& deadline_exceeded =
      reg.counter("serving.errors.deadline_exceeded");
  static obs::Counter& shutdown = reg.counter("serving.errors.shutdown");
  static obs::Counter& internal = reg.counter("serving.errors.internal");
  switch (code) {
    case ErrorCode::kUnknownModel:
      return unknown_model;
    case ErrorCode::kDuplicateId:
      return duplicate_id;
    case ErrorCode::kBackpressure:
      return backpressure;
    case ErrorCode::kDeadlineExceeded:
      return deadline_exceeded;
    case ErrorCode::kShutdown:
      return shutdown;
    default:
      return internal;
  }
}

// Replica Device sizing: explicit knob wins, then an explicit per-engine
// thread count, else partition the machine's cores across replicas so N
// replicas run side by side instead of oversubscribing one shared pool.
int resolve_threads_per_replica(const EnginePoolOptions& opts) {
  if (opts.threads_per_replica > 0) return opts.threads_per_replica;
  if (opts.engine.engine.threads > 0) return opts.engine.engine.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned per =
      hw / static_cast<unsigned>(opts.replicas > 0 ? opts.replicas : 1);
  return per > 0 ? static_cast<int>(per) : 1;
}

EngineOptions replica_engine_options(const std::string& name,
                                     const EnginePoolOptions& opts) {
  EngineOptions eo = opts.engine.engine;
  eo.threads = resolve_threads_per_replica(opts);
  // The registry model name is the natural prefix-cache scope, so sessions
  // of different models can never collide in a shared cache. An explicit
  // cache_scope wins.
  if (eo.prefix_cache != nullptr && eo.cache_scope.empty()) {
    eo.cache_scope = name;
  }
  return eo;
}

}  // namespace

EnginePool::EnginePool(std::string name,
                       std::shared_ptr<const core::BertModel> model,
                       EnginePoolOptions opts)
    : name_(std::move(name)), opts_(opts), model_(std::move(model)) {
  if (model_ == nullptr) {
    throw std::invalid_argument("EnginePool: model must not be null");
  }
  if (opts_.replicas < 1) {
    throw std::invalid_argument("EnginePoolOptions: replicas must be >= 1");
  }
  if (opts_.threads_per_replica < 0) {
    throw std::invalid_argument(
        "EnginePoolOptions: threads_per_replica must be >= 0");
  }
  if (opts_.engine.max_queue < 1) {
    throw std::invalid_argument("ReplicaOptions: max_queue must be >= 1");
  }
  if (!(opts_.engine.max_wait_seconds >= 0.0)) {
    throw std::invalid_argument(
        "ReplicaOptions: max_wait_seconds must be >= 0");
  }
  if (opts_.breaker.failure_threshold < 1) {
    throw std::invalid_argument(
        "CircuitBreakerOptions: failure_threshold must be >= 1");
  }
  if (!(opts_.breaker.quarantine_seconds >= 0.0)) {
    throw std::invalid_argument(
        "CircuitBreakerOptions: quarantine_seconds must be >= 0");
  }
  const EngineOptions engine_opts = replica_engine_options(name_, opts_);
  sessions_hll_ = &obs::MetricRegistry::global().hll_prefixed(
      "serving.sessions.unique", name_);
  const auto n = static_cast<std::size_t>(opts_.replicas);
  router_ = make_router(opts_.route);
  state_ = std::vector<ReplicaState>(n);  // in place: Queued is move-only
  // Every replica aliases the same BertModel (and so the same ModelWeights
  // + PackedPanels storage): replication costs scheduler threads and
  // workspaces, not weight copies. All Engines are built (and their options
  // validated) before any scheduler thread starts.
  replicas_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    replicas_.push_back(std::make_unique<Replica>(model_, engine_opts));
  }
  try {
    for (std::size_t i = 0; i < n; ++i) {
      replicas_[i]->thread = std::thread([this, i] { scheduler_loop(i); });
    }
  } catch (...) {
    drain();  // join the schedulers that did start before unwinding
    throw;
  }
}

EnginePool::~EnginePool() { drain(); }

void EnginePool::refresh_breakers_locked() const {
  if (!opts_.breaker.enabled) return;
  const auto now = Clock::now();
  const auto cooldown = std::chrono::duration<double>(
      opts_.breaker.quarantine_seconds);
  for (ReplicaState& s : state_) {
    Breaker& b = s.breaker;
    const ReplicaHealth& h = s.health;
    switch (b.state) {
      case Breaker::State::kHealthy:
        if (h.consecutive_failures >=
            static_cast<long long>(opts_.breaker.failure_threshold)) {
          b.state = Breaker::State::kQuarantined;
          b.since = now;
          breaker_stats_.quarantines += 1;
        }
        break;
      case Breaker::State::kQuarantined:
        if (now - b.since >= cooldown) {
          b.state = Breaker::State::kHalfOpen;
          b.since = now;
          b.probe_in_flight = false;
        }
        break;
      case Breaker::State::kHalfOpen:
        if (!b.probe_in_flight) break;
        if (h.completed > b.probe_completed) {
          // Something completed since the probe launched — the replica
          // computes again. Re-admit.
          b.state = Breaker::State::kHealthy;
          b.since = now;
          b.probe_in_flight = false;
          breaker_stats_.readmissions += 1;
        } else if (h.failed > b.probe_failed) {
          b.state = Breaker::State::kQuarantined;
          b.since = now;
          b.probe_in_flight = false;
          breaker_stats_.quarantines += 1;
        } else if (now - b.since >= cooldown) {
          // Probe neither completed nor failed within the patience window
          // (shed, or stuck behind a long round): release the slot so the
          // next routed request probes again.
          b.probe_in_flight = false;
        }
        break;
    }
  }
}

bool EnginePool::replica_available_locked(std::size_t i) const {
  if (!opts_.breaker.enabled) return true;
  const Breaker& b = state_[i].breaker;
  switch (b.state) {
    case Breaker::State::kHealthy: return true;
    case Breaker::State::kQuarantined: return false;
    case Breaker::State::kHalfOpen: return !b.probe_in_flight;
  }
  return true;
}

std::size_t EnginePool::route_locked(const Request& req, bool* sticky_hit) {
  refresh_breakers_locked();
  std::vector<ReplicaLoad> loads(state_.size());
  bool any_available = false;
  for (std::size_t i = 0; i < state_.size(); ++i) {
    loads[i].outstanding_requests = state_[i].outstanding();
    loads[i].outstanding_tokens =
        state_[i].queued_tokens + state_[i].in_flight_tokens;
    loads[i].available = replica_available_locked(i);
    any_available = any_available || loads[i].available;
  }
  if (!any_available) {
    // Every replica quarantined (or probing): routing somewhere beats
    // dropping, and the routers' own fallbacks must see consistent flags.
    for (auto& load : loads) load.available = true;
  }
  RouteRequest route_req(req.hidden.dim(0));
  if (req.session.has_value()) route_req.session = *req.session;
  // sticky_hit: an existing pin decided the pick (reported by the router so
  // the hot path pays exactly one pin lookup).
  return router_->pick(loads, route_req, sticky_hit);
}

std::future<Response> EnginePool::push_locked(std::size_t target,
                                              Request&& req, bool sticky_hit) {
  ReplicaState& s = state_[target];
  const long long tokens = req.hidden.dim(0);
  if (req.session.has_value()) {
    sessions_.session_requests += 1;
    sessions_.sticky_hits += sticky_hit ? 1 : 0;
    // Lock-free CAS-max on 4 KiB of registers — cheap enough to sit on the
    // routing path.
    if (obs::enabled()) sessions_hll_->add(*req.session);
    if (opts_.engine.engine.prefix_cache != nullptr) {
      // Tell the prefix cache where this session landed. When the pin MOVED
      // (breaker quarantine re-routed the session) the cache drops the
      // session's entry — state built on a quarantined replica is not
      // trusted. Pool mutex -> cache mutex only; engines take the cache
      // mutex bare, so the order cannot cycle.
      opts_.engine.engine.prefix_cache->note_route(
          cache::PrefixCache::session_key(name_, *req.session),
          static_cast<int>(target));
    }
  }
  if (opts_.breaker.enabled && s.breaker.state == Breaker::State::kHalfOpen &&
      !s.breaker.probe_in_flight) {
    // This request is the half-open probe; the replica stays unavailable
    // to everyone else until its outcome shows in the health counters.
    s.breaker.probe_in_flight = true;
    s.breaker.since = Clock::now();
    s.breaker.probe_completed = s.health.completed;
    s.breaker.probe_failed = s.health.failed;
    breaker_stats_.probes += 1;
  }
  s.routed_requests += 1;
  s.routed_tokens += tokens;
  // Queue depth high-water from the router's vantage: the load it saw plus
  // the one it placed.
  s.peak_outstanding = std::max(s.peak_outstanding, s.outstanding() + 1);

  Queued q;
  q.id = req.id;
  q.hidden = std::move(req.hidden);
  q.arrival = Clock::now();
  q.deadline = req.deadline;
  q.session = std::move(req.session);
  std::future<Response> fut = q.promise.get_future();
  s.queued_tokens += tokens;
  if (q.deadline.has_value()) ++s.deadline_count;
  s.queue.push_back(std::move(q));
  Instruments& ins = instruments();
  ins.submitted.inc();
  ins.queue_depth.add(1);
  replicas_[target]->cv_work.notify_one();
  return fut;
}

std::optional<std::future<Response>> EnginePool::enqueue(Request&& req,
                                                         bool block) {
  MutexLock lock(mutex_);
  for (;;) {
    if (stop_) {
      if (!block) return std::nullopt;
      throw ShutdownError("EnginePool: model \"" + name_ + "\" is stopped");
    }
    bool sticky_hit = false;
    const std::size_t target = route_locked(req, &sticky_hit);
    if (state_[target].queue.size() < opts_.engine.max_queue) {
      return push_locked(target, std::move(req), sticky_hit);
    }
    // Declined, or wait for a round to free space and route again: the
    // loads have moved by then. (A sticky pin created by the declined pick
    // survives — re-routing to the same replica is what stickiness means.)
    if (!block) return std::nullopt;
    cv_space_.wait(mutex_);
  }
}

void EnginePool::drain() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  for (auto& r : replicas_) r->cv_work.notify_all();
  cv_space_.notify_all();
  // Concurrent drain() calls both reach here; the join mutex makes the
  // joinable-check-then-join atomic (the loser returns once the winner's
  // joins completed, i.e. after the drain).
  MutexLock jlock(join_mutex_);
  for (auto& r : replicas_) {
    if (r->thread.joinable()) r->thread.join();
  }
}

std::vector<std::size_t> EnginePool::ReplicaState::admission_order() const {
  std::vector<std::size_t> order(queue.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (deadline_count > 0) {
    // Earliest-deadline-first; stable_sort keeps queue position as the tie
    // break, so deadline-less requests stay FIFO among themselves (ordered
    // last via the max() sentinel).
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return queue[a].deadline.value_or(Deadline::max()) <
                              queue[b].deadline.value_or(Deadline::max());
                     });
  }
  return order;
}

Deadline EnginePool::ReplicaState::earliest_deadline() const {
  Deadline earliest = Deadline::max();
  for (const Queued& q : queue) {
    if (q.deadline.has_value() && *q.deadline < earliest) {
      earliest = *q.deadline;
    }
  }
  return earliest;
}

// A round is "full" when waiting longer cannot improve the batch: the
// request cap is reached, admission stopped short of the whole queue, the
// admitted prefix already carries max_batch_tokens (no later arrival of any
// length could join — e.g. a lone oversized request should not sit out the
// window), or the bounded queue itself is full (blocked submitters cannot
// add work until the round dispatches). Admission walks the deadline-aware
// order, so the predicate agrees with the round the pop actually forms.
bool EnginePool::ReplicaState::round_available(
    const ReplicaOptions& opts) const {
  const std::vector<std::size_t> order = admission_order();
  long long admitted_tokens = 0;
  const std::size_t count = admit_count(
      queue.size(), opts.engine.max_batch_requests,
      opts.engine.max_batch_tokens,
      [&](std::size_t i) { return queue[order[i]].hidden.dim(0); },
      &admitted_tokens);
  return count == static_cast<std::size_t>(opts.engine.max_batch_requests) ||
         count < queue.size() ||
         (opts.engine.max_batch_tokens > 0 &&
          admitted_tokens >= opts.engine.max_batch_tokens) ||
         queue.size() >= opts.max_queue;
}

void EnginePool::scheduler_loop(std::size_t replica_index) {
  Replica& replica = *replicas_[replica_index];
  Engine& engine = replica.engine;
  const ReplicaOptions& opts = opts_.engine;
  const int instance = static_cast<int>(replica_index);
  MutexLock lock(mutex_);
  ReplicaState& s = state_[replica_index];
  for (;;) {
    while (!stop_ && s.queue.empty()) replica.cv_work.wait(mutex_);
    if (s.queue.empty()) {
      if (stop_) break;
      continue;
    }

    // Batching window: hold the round open until it is full, the window
    // since the oldest arrival closes, a queued SLO deadline comes due, or
    // shutdown starts the drain. Recomputed per wakeup — new arrivals can
    // move both the oldest-arrival anchor and the earliest deadline.
    if (!stop_ && opts.max_wait_seconds > 0.0) {
      while (!stop_ && !s.queue.empty() && !s.round_available(opts)) {
        const auto window = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(opts.max_wait_seconds));
        Clock::time_point close = s.queue.front().arrival + window;
        if (s.deadline_count > 0) {
          // Dispatch with at least the batching window of slack before the
          // earliest queued deadline: closing exactly at the deadline would
          // pop the round already late and shed a request an idle engine
          // had time to compute.
          close = std::min(close, s.earliest_deadline() - window);
        }
        if (Clock::now() >= close) break;
        replica.cv_work.wait_until(mutex_, close);
      }
      if (s.queue.empty()) continue;  // unreachable today; defensive
    }

    // The batching window for this round is closed from here on (whether it
    // expired, filled, or was never opened) — the first trace stage the
    // scheduler stamps. The lock is held from this stamp through the pop,
    // so no request can be admitted after "window close" yet trace an
    // earlier submit ordering.
    const auto t_window_close = Clock::now();

    // Pop the admitted requests in admission (FIFO or earliest-deadline-
    // first) order; submitters may refill the queue while the round
    // computes.
    const std::vector<std::size_t> order = s.admission_order();
    std::size_t count = admit_count(
        s.queue.size(), opts.engine.max_batch_requests,
        opts.engine.max_batch_tokens,
        [&](std::size_t i) { return s.queue[order[i]].hidden.dim(0); });
    std::vector<Queued> round;
    round.reserve(count);
    if (s.deadline_count == 0) {
      // FIFO fast path: the admitted set is the queue front.
      for (std::size_t i = 0; i < count; ++i) {
        round.push_back(std::move(s.queue.front()));
        s.queue.pop_front();
      }
    } else {
      std::vector<char> taken(s.queue.size(), 0);
      for (std::size_t i = 0; i < count; ++i) {
        taken[order[i]] = 1;
        round.push_back(std::move(s.queue[order[i]]));
      }
      std::deque<Queued> rest;
      for (std::size_t i = 0; i < s.queue.size(); ++i) {
        if (!taken[i]) rest.push_back(std::move(s.queue[i]));
      }
      s.queue.swap(rest);
    }
    long long round_tokens = 0;  // hiddens are moved out during compute
    for (const Queued& q : round) {
      round_tokens += q.hidden.dim(0);
      if (q.deadline.has_value()) --s.deadline_count;
    }
    s.queued_tokens -= round_tokens;
    s.in_flight_tokens += round_tokens;
    s.in_flight += count;
    const auto t_admit = Clock::now();
    Instruments& ins = instruments();
    ins.queue_depth.add(-static_cast<double>(count));
    ins.in_flight.add(static_cast<double>(count));
    const auto round_start = Clock::now();
    lock.unlock();
    cv_space_.notify_all();

    // Shed before compute: a deadline that has already passed cannot be
    // met, so spending batch capacity on it would only delay live requests.
    // Deadline-less traffic never enters `shed`, preserving the bitwise
    // FIFO guarantee.
    std::vector<Queued> live;
    std::vector<Queued> shed;
    live.reserve(round.size());
    for (Queued& q : round) {
      if (q.deadline.has_value() && *q.deadline < round_start) {
        shed.push_back(std::move(q));
      } else {
        live.push_back(std::move(q));
      }
    }
    if (!shed.empty()) {
      // Fail the shed futures now, before the live round computes: the
      // decision is already final, and an SLO-aware caller (retry, hedging)
      // should not learn about it a full round late.
      long long shed_tokens = 0;
      for (const Queued& q : shed) shed_tokens += q.hidden.dim(0);
      auto shed_error = std::make_exception_ptr(DeadlineExceeded(
          "EnginePool: request deadline passed before compute (shed)"));
      lock.lock();
      count -= shed.size();
      round_tokens -= shed_tokens;
      s.in_flight -= shed.size();
      s.in_flight_tokens -= shed_tokens;
      s.deadline_shed += static_cast<long long>(shed.size());
      s.stats.deadline_shed = s.deadline_shed;
      for (Queued& q : shed) q.promise.set_exception(shed_error);
      lock.unlock();
      ins.in_flight.add(-static_cast<double>(shed.size()));
      ins.shed.inc(static_cast<long long>(shed.size()));
      failure_counter(ErrorCode::kDeadlineExceeded)
          .inc(static_cast<long long>(shed.size()));
    }

    // Compute outside the lock: the replica's Engine is only ever touched
    // here. Per-request valid-token counts are captured up front — the
    // hiddens are moved out during compute, and the trace records need
    // them.
    std::vector<long long> live_rows;
    live_rows.reserve(live.size());
    long long live_tokens = 0;
    for (const Queued& q : live) {
      live_rows.push_back(q.hidden.dim(0));
      live_tokens += q.hidden.dim(0);
    }
    const auto t_compute_start = Clock::now();
    std::vector<Response> responses;
    bool failed = false;
    std::exception_ptr error;
    try {
      // Injected replica faults for resilience tests (docs/ROBUSTNESS.md):
      // a stall and/or a thrown failure, scoped to this replica index. Both
      // land inside this try — the same catch that handles a real engine
      // failure handles them, so nothing escapes the scheduler thread.
      // Guarded on live work so an empty round (everything shed, spurious
      // wakeup) cannot consume a scripted fire budget without failing
      // anything — hit #k deterministically means "the k-th round that
      // actually computes".
      if (!live.empty()) {
        BT_FAULT_DELAY("serving.compute.delay", instance);
        BT_FAULT_THROW("serving.compute.fail", instance);
      }
      // The Engine assigns its own dense ids; the Service id is written
      // back into each Response below.
      for (Queued& q : live) {
        Request r;
        r.hidden = std::move(q.hidden);
        r.session = std::move(q.session);
        engine.submit(std::move(r));
      }
      if (!live.empty()) responses = engine.drain();
    } catch (...) {
      failed = true;
      error = std::current_exception();
    }
    const auto t_compute_end = Clock::now();

    // Accounting and fulfillment happen together under the lock, so
    // pending() never counts a request whose future already resolved (and
    // never reports zero while one is still unresolved).
    lock.lock();
    s.in_flight -= count;  // the live share; shed accounting settled above
    s.in_flight_tokens -= round_tokens;
    const long long prev_processed = s.stats.processed_tokens;
    s.stats = engine.stats();
    if (failed || responses.size() != live.size()) {
      if (!error) {
        error = std::make_exception_ptr(InternalError(
            "EnginePool: replica engine lost responses for a round"));
      } else {
        // Keep typed serving errors (their code is the contract); wrap
        // anything untyped — an engine exception, an injected fault — as
        // InternalError so the failure carries kInternal end-to-end: the
        // wire frames it, and a retrying client can tell "this request
        // broke" (retryable) from "the server is going away" (not).
        std::string detail;
        if (error_code_of(error, ErrorCode::kInternal, &detail) ==
            ErrorCode::kInternal) {
          error = std::make_exception_ptr(
              InternalError("EnginePool: round failed: " + detail));
        }
      }
      s.health.failed += static_cast<long long>(live.size());
      s.health.consecutive_failures += static_cast<long long>(live.size());
      ins.failed.inc(static_cast<long long>(live.size()));
      failure_counter(error_code_of(error, ErrorCode::kInternal))
          .inc(static_cast<long long>(live.size()));
      for (Queued& q : live) q.promise.set_exception(error);
      // A mid-compute failure leaves the round's unprocessed requests
      // queued inside the engine; drop them so they cannot bleed into the
      // next round's drain() and fail healthy requests.
      engine.discard_pending();
    } else {
      // drain() returns responses in submission order == round (dispatch)
      // order, so promises resolve in dispatch order — the fulfillment-
      // order contract drain() relies on. The engine only saw each
      // request at round start, so rewrite queue_seconds to cover the
      // async wait (submit -> round start).
      if (!live.empty()) {
        s.health.completed += static_cast<long long>(live.size());
        s.health.consecutive_failures = 0;
      }
      const auto resolved_at = Clock::now();
      const long long round_processed =
          s.stats.processed_tokens - prev_processed;
      std::vector<obs::TraceRecord> traced;
      const bool tracing = obs::enabled() && !live.empty();
      if (tracing) traced.reserve(live.size());
      for (std::size_t i = 0; i < live.size(); ++i) {
        responses[i].id = live[i].id;
        responses[i].queue_seconds =
            std::chrono::duration<double>(round_start - live[i].arrival)
                .count();
        responses[i].model = name_;
        responses[i].replica = instance;
        if (live[i].deadline.has_value()) {
          (resolved_at <= *live[i].deadline) ? ++s.deadline_met
                                             : ++s.deadline_missed;
        }
        ins.queue_seconds.record_seconds(responses[i].queue_seconds);
        ins.e2e_seconds.record_seconds(
            std::chrono::duration<double>(resolved_at - live[i].arrival)
                .count());
        if (tracing) {
          obs::TraceRecord rec;
          rec.request_id = responses[i].id;
          rec.model = name_;
          if (responses[i].session.has_value()) {
            rec.session = *responses[i].session;
          }
          rec.replica = instance;
          rec.round = responses[i].round;
          rec.batch_requests = static_cast<int>(live.size());
          rec.valid_tokens = live_rows[i];
          rec.round_valid_tokens = live_tokens;
          rec.round_processed_tokens = round_processed;
          rec.t_submit = obs::trace_seconds(live[i].arrival);
          rec.t_window_close = obs::trace_seconds(t_window_close);
          rec.t_admit = obs::trace_seconds(t_admit);
          rec.t_dispatch = obs::trace_seconds(round_start);
          rec.t_compute_start = obs::trace_seconds(t_compute_start);
          rec.t_compute_end = obs::trace_seconds(t_compute_end);
          rec.t_replied = obs::trace_seconds(resolved_at);
          traced.push_back(std::move(rec));
        }
        live[i].promise.set_value(std::move(responses[i]));
      }
      if (!live.empty()) {
        ins.completed.inc(static_cast<long long>(live.size()));
        ins.rounds.inc();
        ins.valid_tokens.inc(live_tokens);
        ins.processed_tokens.inc(round_processed);
        ins.compute_seconds.record_seconds(
            std::chrono::duration<double>(t_compute_end - t_compute_start)
                .count());
        ins.batch_occupancy.record(live.size());
      }
      // Ring insertion after the promises resolve: callers are not kept
      // waiting behind the trace mutex.
      obs::TraceRing& ring = obs::TraceRing::global();
      for (obs::TraceRecord& rec : traced) ring.record(std::move(rec));
    }
    ins.in_flight.add(-static_cast<double>(count));
    // Overlay the replica-level deadline accounting onto the engine's
    // snapshot (which cannot know about deadlines or shedding).
    s.stats.deadline_met = s.deadline_met;
    s.stats.deadline_missed = s.deadline_missed;
    s.stats.deadline_shed = s.deadline_shed;
  }

  // Only reachable with stop_ set and the queue observed empty, so every
  // accepted promise has been fulfilled. Belt-and-braces: if a future code
  // path ever let the scheduler exit with queued requests, destroying their
  // promises would surface as std::future_error(broken_promise) at random
  // callers — fail each one loudly instead.
  if (!s.queue.empty()) {
    auto error = std::make_exception_ptr(ShutdownError(
        "EnginePool: scheduler exited with undispatched requests"));
    Instruments& ins = instruments();
    ins.queue_depth.add(-static_cast<double>(s.queue.size()));
    ins.failed.inc(static_cast<long long>(s.queue.size()));
    failure_counter(ErrorCode::kShutdown)
        .inc(static_cast<long long>(s.queue.size()));
    for (Queued& q : s.queue) q.promise.set_exception(error);
    s.queue.clear();
    s.queued_tokens = 0;
    s.deadline_count = 0;
  }
}

std::size_t EnginePool::pending() const {
  MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const ReplicaState& s : state_) total += s.outstanding();
  return total;
}

long long EnginePool::pending_tokens() const {
  MutexLock lock(mutex_);
  long long total = 0;
  for (const ReplicaState& s : state_) {
    total += s.queued_tokens + s.in_flight_tokens;
  }
  return total;
}

EngineStats EnginePool::stats() const {
  MutexLock lock(mutex_);
  EngineStats total;
  for (const ReplicaState& s : state_) total.merge(s.stats);
  return total;
}

ReplicaHealth EnginePool::replica_health(std::size_t i) const {
  MutexLock lock(mutex_);
  return state_[i].health;
}

EnginePool::SessionRouteStats EnginePool::session_route_stats() const {
  MutexLock lock(mutex_);
  return sessions_;
}

EnginePool::BreakerStats EnginePool::breaker_stats() const {
  MutexLock lock(mutex_);
  refresh_breakers_locked();
  return breaker_stats_;
}

double EnginePool::unique_sessions() const { return sessions_hll_->estimate(); }

void EnginePool::publish_stats(obs::MetricRegistry& reg,
                               const std::string& prefix) const {
  stats().publish(reg, prefix);
  const SessionRouteStats sessions = session_route_stats();
  const BreakerStats breaker = breaker_stats();
  const auto set = [&](const char* field, double v) {
    reg.gauge(prefix + '.' + field).set(v);
  };
  set("session_requests", static_cast<double>(sessions.session_requests));
  set("sticky_hits", static_cast<double>(sessions.sticky_hits));
  set("breaker_quarantines", static_cast<double>(breaker.quarantines));
  set("breaker_probes", static_cast<double>(breaker.probes));
  set("breaker_readmissions", static_cast<double>(breaker.readmissions));
  set("pending", static_cast<double>(pending()));
  set("unique_sessions", unique_sessions());
  set("replicas", static_cast<double>(replicas()));
}

std::optional<std::size_t> EnginePool::pinned_replica(
    std::string_view session) const {
  MutexLock lock(mutex_);
  return router_->pinned(session);
}

std::vector<EnginePool::ReplicaStats> EnginePool::replica_stats() const {
  MutexLock lock(mutex_);
  std::vector<ReplicaStats> out(state_.size());
  for (std::size_t i = 0; i < state_.size(); ++i) {
    out[i].engine = state_[i].stats;
    out[i].routed_requests = state_[i].routed_requests;
    out[i].routed_tokens = state_[i].routed_tokens;
    out[i].peak_outstanding = state_[i].peak_outstanding;
  }
  return out;
}

}  // namespace bt::serving
