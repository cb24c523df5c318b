// Replica group: one model's scheduler threads, router and circuit
// breakers behind serving::Service.
//
// Service (service.h) is the only public async surface; it builds one
// EnginePool per registered model and hands every accepted request to it.
// The pool owns N replicas — each a background scheduler thread in front of
// its own synchronous Engine, whose Device workers partition the machine's
// cores (threads_per_replica) — and routes every request to one of them
// through a pluggable RoutePolicy (router.h). Callers never construct a
// pool; they read it through Service::pool(name) for observability.
//
// Weight sharing
//   Every replica's Engine aliases the same shared_ptr<const BertModel> —
//   one copy of the FP16 weights AND the pre-packed GEMM panels
//   (PackedPanels), packed once at model construction, never per-replica.
//   Replicating a bert-base costs N scheduler threads and N workspaces, not
//   N weight copies.
//
// Request ids
//   Service validates and reserves every id once, service-wide. A replica
//   hands its Engine auto-assigned (dense) ids and writes the Service id
//   back into the Response and the TraceRecord, so no per-replica tracker
//   ever sees the sparse ids routing leaves behind.
//
// One lock
//   Router, breakers, routing accounting and every replica's queue share
//   the pool mutex, so routing a request and enqueueing it on its replica
//   is one step: the load the router sees next already includes it. A
//   blocking submit whose target queue is full waits for space and then
//   routes again (the loads have moved); a non-blocking one is declined.
//   Compute never holds the lock.
//
// Batching window (per replica)
//   A round dispatches as soon as the queue can fill it (request cap
//   max_batch_requests, token cap max_batch_tokens), or when the oldest
//   queued request has waited max_wait_seconds, whichever comes first —
//   the usual latency/throughput knob for dynamic batching. Round k's
//   forward overlaps the arrival and admission of round k+1.
//
// Deadline-aware admission and shedding
//   While no queued request carries a Request::deadline, admission is
//   strict FIFO (bitwise-identical to the synchronous Engine). As soon as
//   any queued request has one, rounds pop earliest-deadline-first
//   (deadline-less requests order last, FIFO among themselves; queue
//   position breaks ties), and the batching window closes early — one
//   window of slack before the earliest queued deadline — so a near-SLO
//   request is bumped into the next round ahead of fresher arrivals with
//   time left to compute instead of waiting out the window.
//   A request whose deadline has already passed when its round starts
//   computing is shed: its future fails with serving::DeadlineExceeded
//   and no compute is spent on it. stats() carries the accounting —
//   deadline_shed, plus deadline_met / deadline_missed for requests whose
//   response resolved before / after its deadline.
//
// Shutdown
//   drain() (run by Service::stop) wakes every scheduler, drains every
//   already-accepted request, and joins the threads. The drain resolves
//   promises strictly in dispatch order (Response::round exposes it) and
//   never drops one — an accepted future always resolves with a value or
//   an exception, never std::future_error(broken_promise).
//
// Replica health and circuit breaking
//   At routing time the pool reads every replica's ReplicaHealth. A
//   replica whose consecutive_failures reaches
//   CircuitBreakerOptions::failure_threshold is quarantined: routers see
//   it unavailable, and sticky pins on it migrate. After
//   quarantine_seconds it turns half-open — the next routed request
//   becomes the single probe while everyone else still avoids the replica;
//   a completed probe re-admits it, a failed probe re-quarantines it. If
//   every replica is unavailable the flags are ignored (routing somewhere
//   beats dropping). docs/ROBUSTNESS.md draws the full state machine.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "serving/engine.h"
#include "serving/router.h"

namespace bt::obs {
class Hll;             // obs/hll.h — per-model unique-session cardinality
class MetricRegistry;  // obs/metrics.h — publish_stats target
}

namespace bt::serving {

// Per-replica scheduling knobs.
struct ReplicaOptions {
  EngineOptions engine;            // policy, caps, flags of the inner Engine
  std::size_t max_queue = 1024;    // bounded submission queue (backpressure)
  double max_wait_seconds = 0.002; // batching window from the oldest request;
                                   // 0 dispatches as soon as work exists
};

// Failure accounting one replica exposes to its pool's circuit breaker.
// `completed`/`failed` count futures resolved with a Response / with a
// round failure (InternalError or an escaped engine error); shed requests
// count as neither — a deadline miss says the request was late, not that
// the replica is broken. `consecutive_failures` is the breaker's trip
// signal: failures since the last success.
struct ReplicaHealth {
  long long completed = 0;
  long long failed = 0;
  long long consecutive_failures = 0;
};

// Per-replica circuit breaker knobs (see "Replica health and circuit
// breaking" above). quarantine_seconds doubles as the probe patience: a
// half-open probe that neither completes nor fails within it (e.g. it was
// shed) releases the probe slot so the next routed request probes again.
struct CircuitBreakerOptions {
  bool enabled = true;
  int failure_threshold = 3;       // consecutive failures that trip it
  double quarantine_seconds = 1.0; // cooldown before the half-open probe
};

struct EnginePoolOptions {
  ReplicaOptions engine;  // applied to every replica
  int replicas = 1;
  RoutePolicy route = RoutePolicy::kLeastOutstandingTokens;
  CircuitBreakerOptions breaker;
  // Device workers per replica. 0 = partition the machine: if
  // engine.engine.threads is set, use that, else hardware_concurrency() /
  // replicas (min 1) — so replicas split the cores instead of
  // oversubscribing a shared global pool.
  int threads_per_replica = 0;
};

class EnginePool {
 public:
  ~EnginePool();  // drain()

  EnginePool(const EnginePool&) = delete;
  EnginePool& operator=(const EnginePool&) = delete;

  std::size_t replicas() const { return replicas_.size(); }
  std::size_t pending() const BT_EXCLUDES(mutex_);        // across replicas
  long long pending_tokens() const BT_EXCLUDES(mutex_);   // across replicas

  // Aggregated accounting across replicas.
  EngineStats stats() const BT_EXCLUDES(mutex_);

  // Per-replica view for utilization reporting.
  struct ReplicaStats {
    EngineStats engine;               // replica's cumulative accounting
    long long routed_requests = 0;    // requests this replica was assigned
    long long routed_tokens = 0;      // their valid rows
    std::size_t peak_outstanding = 0; // max outstanding seen at routing time
  };
  std::vector<ReplicaStats> replica_stats() const BT_EXCLUDES(mutex_);

  // Sticky-session routing accounting: how many accepted requests carried a
  // session id, and how many of those landed on an already-pinned replica
  // (always 0 under non-sticky policies, which never pin).
  struct SessionRouteStats {
    long long session_requests = 0;
    long long sticky_hits = 0;
  };
  SessionRouteStats session_route_stats() const BT_EXCLUDES(mutex_);

  // The replica `session` is pinned to under RoutePolicy::kStickySession
  // (std::nullopt for unseen sessions or non-pinning policies).
  std::optional<std::size_t> pinned_replica(std::string_view session) const
      BT_EXCLUDES(mutex_);

  // Circuit-breaker accounting. Observing it advances the per-replica
  // state machines first (same refresh routing performs), so a probe that
  // completed after the last submission is still credited as a
  // readmission.
  struct BreakerStats {
    long long quarantines = 0;   // kHealthy/kHalfOpen -> kQuarantined trips
    long long probes = 0;        // requests routed as half-open probes
    long long readmissions = 0;  // kHalfOpen -> kHealthy recoveries
  };
  BreakerStats breaker_stats() const BT_EXCLUDES(mutex_);

  // HyperLogLog estimate of distinct session ids routed through this pool
  // (4 KiB of state; ~1.6% standard error — obs/hll.h).
  double unique_sessions() const;

  // Publishes this pool's whole snapshot family — EngineStats fields plus
  // session-route, breaker, pending, and unique-session gauges — under
  // "<prefix>.<field>" in `reg`. The registry-side twin of the snapshot
  // methods above, so the wire stats view cannot drift from them
  // (docs/OBSERVABILITY.md).
  void publish_stats(obs::MetricRegistry& reg, const std::string& prefix) const
      BT_EXCLUDES(mutex_);

  // One replica's health counters (what the circuit breaker reads).
  ReplicaHealth replica_health(std::size_t i) const BT_EXCLUDES(mutex_);

  const core::BertModel& model() const { return *model_; }
  // The model replica i's Engine computes with (the shared-weights identity
  // tests; all replicas' models alias one ModelWeights).
  const core::BertModel& replica_model(std::size_t i) const {
    return replicas_[i]->engine.model();
  }
  int hidden() const { return model_->config().hidden(); }

 private:
  friend class Service;
  using Clock = std::chrono::steady_clock;

  // Validates opts (replicas >= 1, threads_per_replica >= 0, max_queue >= 1,
  // max_wait_seconds >= 0, breaker knobs; engine options are validated by
  // each replica's Engine) and starts the replicas. `name` is the registry
  // key stamped into Response::model and the prefix-cache scope.
  EnginePool(std::string name, std::shared_ptr<const core::BertModel> model,
             EnginePoolOptions opts);

  // Routes `req` (its Service id already reserved) and enqueues it on the
  // chosen replica in one lock hold. A full target queue blocks (`block`,
  // re-routing after each wake) or declines with std::nullopt. Throws
  // ShutdownError after drain() when blocking, else declines.
  std::optional<std::future<Response>> enqueue(Request&& req, bool block)
      BT_EXCLUDES(mutex_);

  // Drains every replica (all accepted futures resolve) and joins the
  // scheduler threads. Idempotent.
  void drain() BT_EXCLUDES(mutex_, join_mutex_);

  struct Queued {
    RequestId id;
    Tensor<fp16_t> hidden;
    std::promise<Response> promise;
    Clock::time_point arrival;
    std::optional<Deadline> deadline;
    std::optional<std::string> session;
  };

  // One replica's breaker state. Probe outcome is judged from the health
  // counters relative to the baselines recorded when the probe was routed:
  // any completion during half-open is evidence of recovery, any failure
  // is evidence it is still broken.
  struct Breaker {
    enum class State { kHealthy, kQuarantined, kHalfOpen };
    State state = State::kHealthy;
    Clock::time_point since{};      // entered current state (probe launch
                                    // time while a probe is in flight)
    bool probe_in_flight = false;
    long long probe_completed = 0;  // health baselines at probe launch
    long long probe_failed = 0;
  };

  // Everything about one replica that the pool mutex guards: its queue,
  // in-flight accounting, stats snapshot, health, breaker and routing
  // counters.
  struct ReplicaState {
    std::deque<Queued> queue;
    std::size_t deadline_count = 0;  // queued requests carrying a deadline
    long long queued_tokens = 0;     // valid tokens sitting in queue
    // Popped, promises not yet fulfilled — and their valid tokens.
    std::size_t in_flight = 0;
    long long in_flight_tokens = 0;
    EngineStats stats;  // snapshot, updated per round
    // Deadline accounting: resolved before its deadline / computed but
    // resolved after / deadline passed before compute.
    long long deadline_met = 0;
    long long deadline_missed = 0;
    long long deadline_shed = 0;
    ReplicaHealth health;
    Breaker breaker;
    long long routed_requests = 0;
    long long routed_tokens = 0;
    std::size_t peak_outstanding = 0;

    std::size_t outstanding() const { return queue.size() + in_flight; }
    // Queue indices in admission order: identity (FIFO) while no queued
    // request has a deadline, else earliest-deadline-first with queue
    // position as the stable tie-break (deadline-less requests last).
    std::vector<std::size_t> admission_order() const;
    Deadline earliest_deadline() const;  // requires deadline_count > 0
    bool round_available(const ReplicaOptions& opts) const;
  };

  // The part of a replica its scheduler thread owns outright: the Engine is
  // touched only there, so none of this is guarded.
  struct Replica {
    Replica(std::shared_ptr<const core::BertModel> model,
            const EngineOptions& opts)
        : engine(std::move(model), opts) {}
    Engine engine;
    CondVar cv_work;  // scheduler: work arrived / stop
    std::thread thread;
  };

  // Advances every breaker state machine from the replicas' current health
  // counters. Called at routing time and from breaker_stats(); const
  // because observation legitimately advances the (mutable, locked)
  // machines.
  void refresh_breakers_locked() const BT_REQUIRES(mutex_);
  bool replica_available_locked(std::size_t i) const BT_REQUIRES(mutex_);
  std::size_t route_locked(const Request& req, bool* sticky_hit)
      BT_REQUIRES(mutex_);
  // Charges the routing accounting to replica `target` and queues the
  // request there.
  std::future<Response> push_locked(std::size_t target, Request&& req,
                                    bool sticky_hit) BT_REQUIRES(mutex_);
  void scheduler_loop(std::size_t i) BT_EXCLUDES(mutex_);

  const std::string name_;
  const EnginePoolOptions opts_;
  const std::shared_ptr<const core::BertModel> model_;
  std::vector<std::unique_ptr<Replica>> replicas_;

  mutable Mutex mutex_;
  CondVar cv_space_;  // blocked submitters: some queue has room / stop
  std::unique_ptr<Router> router_ BT_GUARDED_BY(mutex_)
      BT_PT_GUARDED_BY(mutex_);
  // mutable: breakers are refreshed by const observers (see
  // refresh_breakers_locked).
  mutable std::vector<ReplicaState> state_ BT_GUARDED_BY(mutex_);
  SessionRouteStats sessions_ BT_GUARDED_BY(mutex_);
  mutable BreakerStats breaker_stats_ BT_GUARDED_BY(mutex_);
  // Registry-owned HLL ("serving.sessions.unique.<model>"); adds are
  // lock-free, so no guard beyond the registry's own lifetime guarantee.
  obs::Hll* sessions_hll_ = nullptr;
  bool stop_ BT_GUARDED_BY(mutex_) = false;

  // Serializes the joinable-check/join in drain(). Never held together
  // with mutex_ (drain() drops mutex_ before joining — the schedulers need
  // it to drain).
  Mutex join_mutex_;
};

}  // namespace bt::serving
