// Workload-independent pieces of the benchmark: percentiles, the open-loop
// rate ladder and its goodput rule, metric names, the in-memory span tracer,
// process resource probes and the result line.
#pragma once

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

// ---- percentiles -----------------------------------------------------------

// Nearest-rank percentile: the smallest sample x such that at least a share
// `p` of the samples are <= x. NaN on an empty input.
double percentile(std::vector<double> v, double p);

// How many samples lie strictly above the nearest-rank p-percentile's rank
// in a sample of size n (the "samples beyond p99" the report states).
long long samples_beyond(long long n, double p);

double median(std::vector<double> v);

// ---- windowed statistics -------------------------------------------------------

// Splits `v` (samples in time order) into `windows` contiguous runs of
// near-equal size and returns each run's nearest-rank p-percentile.
std::vector<double> window_percentiles(const std::vector<double>& v, int windows,
                                       double p);

// The best window: the lowest of window_percentiles(v, windows, p), i.e.
// the latency of the quietest stretch of the pass. NaN on an empty input.
double best_window_percentile(const std::vector<double>& v, int windows, double p);

// The highest of `rates` (the best window of a rate); 0 when empty.
double highest(const std::vector<double>& rates);

// For back-to-back operations i (from start[i] to end[i], carrying
// amount[i]): splits them into `groups` contiguous runs of near-equal
// count and returns each run's rate, sum of amounts / (end of its last -
// start of its first). Unlike time windows, no operation is cut in two.
std::vector<double> group_rates(const std::vector<double>& start,
                                const std::vector<double>& end,
                                const std::vector<double>& amount, int groups);

// Splits [t0, t1) into `windows` equal time windows, sums each event's
// `amount` into the window holding its time `at` (events outside are
// dropped) and returns each window's sum / window length.
std::vector<double> window_rates(const std::vector<double>& at,
                                 const std::vector<double>& amount, double t0,
                                 double t1, int windows);

// ---- open-loop rate ladder ---------------------------------------------------

struct StepResult {
  double rate_rps = 0;     // offered rate of the step (fixed on the ladder)
  double seconds = 0;      // scheduled send window
  long long sent = 0;
  long long ok = 0;        // completed with a correct output
  long long failed = 0;    // error reply, wrong shape, NaN or mismatch
  long long within_limit = 0;  // ok and latency (from due time) <= limit
  double lag_p99_ms = 0;   // how late the sender ran, p99 over the step
  double drain_s = 0;      // last completion - last send
  double good_span_s = 0;  // first due time -> last completion
};

struct LadderRule {
  double limit_s = 0;          // per-request latency limit
  double min_within = 0.99;    // share of sent that must meet the limit
  double lag_bound_ms = 0;     // a step whose sender lag p99 exceeds this is
                               // invalid (not scored)
};

// A step is valid when the sender kept its schedule (lag p99 within bound).
bool step_valid(const StepResult& s, const LadderRule& rule);
// The backlog at the end of the step grew when what was still outstanding
// at the last send could not drain within the latency limit.
bool backlog_growing(const StepResult& s, const LadderRule& rule);
// Valid, no growing backlog, and at least min_within of the sent requests
// completed correctly within the limit.
bool step_passes(const StepResult& s, const LadderRule& rule);
// Goodput: requests completed within the limit per second, measured at the
// highest-rate step that passes; 0 when no step passes.
double goodput_rps(const std::vector<StepResult>& steps,
                   const LadderRule& rule);

// ---- metrics -----------------------------------------------------------------

// [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 characters.
bool valid_metric_name(std::string_view name);
// Letters, digits, '_', '/', '%', '.', '-'; 1..16 characters.
bool valid_unit(std::string_view unit);

struct Metric {
  double value = 0;
  std::string unit;
};

// Ordered name -> metric map with name/unit validation on insert.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  const std::vector<std::pair<std::string, Metric>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> items_;
};

// The result line, printed last on stdout.
std::string result_json(bool correct, long long attempted, long long failed,
                        const MetricSet& metrics);

// ---- span tracer -------------------------------------------------------------

// Seconds on the obs trace clock, so spans the benchmark records and the
// program's TraceRing records share one time axis.
double now_s();

struct Span {
  long long id = 0;
  long long parent = -1;   // -1: root
  long long request = -1;  // request the span belongs to, -1 if none
  std::string name;
  double start = 0;
  double end = 0;
};

// In-memory span store. Disabled tracers record nothing and return id -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  long long add(std::string name, double start, double end,
                long long parent = -1, long long request = -1);
  // A span whose end is not known yet (its children are recorded first);
  // close() sets the end.
  long long open(std::string name, double start, long long parent = -1,
                 long long request = -1) {
    return add(std::move(name), start, start, parent, request);
  }
  void close(long long id, double end);
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of it covered by
// the union of its children (clipped to the span). Indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans);

// Writes one JSON object per span (name, start, end, parent, request,
// self) to `path`. Returns false when the file cannot be written.
bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

// Sum of self time per span name, in seconds.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

// ---- process probes -----------------------------------------------------------

double peak_rss_mb();      // peak resident set of this process (getrusage)
double current_rss_mb();   // resident set of this process now (/proc/self/statm)
// MiB malloc has handed out and not yet freed (mallinfo2 in-use + mmapped
// blocks): what the program holds, whatever the allocator keeps resident.
double heap_in_use_mb();
double process_cpu_s();    // user + system CPU seconds of this process

// Samples current_rss_mb() and heap_in_use_mb() every `period_ms` on a
// thread of its own from construction until stop(). first_*() are the
// samples taken at construction; max_rss_mb() and max_heap_mb() are the
// largest.
class MemorySampler {
 public:
  explicit MemorySampler(int period_ms = 10);
  ~MemorySampler() { stop(); }
  MemorySampler(const MemorySampler&) = delete;
  MemorySampler& operator=(const MemorySampler&) = delete;
  void stop();
  double first_rss_mb() const { return first_rss_mb_; }
  double first_heap_mb() const { return first_heap_mb_; }
  double max_rss_mb() const { return max_rss_mb_; }
  double max_heap_mb() const { return max_heap_mb_; }

 private:
  std::atomic<bool> stop_{false};
  double first_rss_mb_ = 0;
  double first_heap_mb_ = 0;
  // Written by the thread until stop() joins it.
  double max_rss_mb_ = 0;
  double max_heap_mb_ = 0;
  std::thread thread_;
};

}  // namespace perfbench
