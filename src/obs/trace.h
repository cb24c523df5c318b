// Per-request trace timelines: every sampled request that flows through a
// Service replica's scheduler leaves a TraceRecord — timestamps for each scheduling stage
// plus provenance (model, replica, round, batch shape, padded-vs-real
// tokens) — in a bounded ring buffer, dumpable as JSON lines. This is what
// decomposes a tail latency into queueing vs batching vs compute vs
// write-back (docs/OBSERVABILITY.md has the stage semantics).
//
// Stage order within one record is monotonic (all stamps are taken on the
// scheduler thread from the same steady clock):
//
//   submit <= window_close <= admit <= dispatch
//          <= compute_start <= compute_end <= replied
//
// Timestamps are seconds since a process-wide steady epoch (trace_epoch),
// so records from different threads and rings are directly comparable.
//
// Cost model: records are pushed once per request per *round* (not per
// token) under one short mutex hold; sampling (keep every Nth request) cuts
// even that. The ring is fixed-capacity — old records are overwritten, and
// `seen` vs `recorded` counts expose how much the sampler dropped.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace bt::obs {

// Process steady-clock epoch; all trace timestamps count from here.
std::chrono::steady_clock::time_point trace_epoch();

inline double trace_seconds(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(t - trace_epoch()).count();
}

struct TraceRecord {
  long long request_id = -1;
  std::string model;
  std::string session;
  int replica = -1;
  long long round = 0;          // per-replica round ordinal
  int batch_requests = 0;       // live requests in the round
  long long valid_tokens = 0;   // this request's rows
  long long round_valid_tokens = 0;      // real tokens in the round
  long long round_processed_tokens = 0;  // incl. padding (padded-vs-real)

  // Stage timestamps (seconds since trace_epoch; see header comment).
  double t_submit = 0;
  double t_window_close = 0;
  double t_admit = 0;
  double t_dispatch = 0;
  double t_compute_start = 0;
  double t_compute_end = 0;
  double t_replied = 0;

  std::string to_json() const;  // one line, no trailing newline
};

class TraceRing {
 public:
  static TraceRing& global();

  explicit TraceRing(std::size_t capacity = 512, std::size_t sample_every = 1);

  // Reconfigures capacity/sampling and clears existing records.
  // sample_every == N keeps every Nth request; 0 disables recording.
  void configure(std::size_t capacity, std::size_t sample_every);

  // Sampling decision + ring insert in one call; cheap no-op when the
  // request is not sampled or obs is disabled. Never throws on the
  // scheduler thread's behalf (allocation failure aside, as everywhere).
  void record(TraceRecord rec);

  std::vector<TraceRecord> snapshot() const;  // oldest first
  std::string to_jsonl() const;               // one record per line
  void clear();

  long long seen() const;      // requests offered to the sampler
  long long recorded() const;  // records actually kept (incl. overwritten)

 private:
  mutable Mutex mutex_;
  std::size_t capacity_ BT_GUARDED_BY(mutex_);
  std::size_t sample_every_ BT_GUARDED_BY(mutex_);
  std::vector<TraceRecord> ring_ BT_GUARDED_BY(mutex_);
  std::size_t next_ BT_GUARDED_BY(mutex_) = 0;  // ring write cursor
  long long seen_ BT_GUARDED_BY(mutex_) = 0;
  long long recorded_ BT_GUARDED_BY(mutex_) = 0;
};

}  // namespace bt::obs
