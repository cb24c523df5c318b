#include "lib.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/trace.h"

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  p = std::clamp(p, 0.0, 1.0);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

long long samples_beyond(long long n, double p) {
  if (n <= 0) return 0;
  auto rank = static_cast<long long>(std::ceil(p * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  return n - rank;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

std::vector<double> window_percentiles(const std::vector<double>& v, int windows,
                                       double p) {
  std::vector<double> out;
  if (v.empty()) return out;
  const std::size_t k = std::clamp<std::size_t>(static_cast<std::size_t>(windows), 1, v.size());
  for (std::size_t w = 0; w < k; ++w) {
    const auto a = static_cast<long>(w * v.size() / k);
    const auto b = static_cast<long>((w + 1) * v.size() / k);
    out.push_back(percentile({v.begin() + a, v.begin() + b}, p));
  }
  return out;
}

double best_window_percentile(const std::vector<double>& v, int windows, double p) {
  const std::vector<double> w = window_percentiles(v, windows, p);
  return w.empty() ? std::numeric_limits<double>::quiet_NaN()
                   : *std::min_element(w.begin(), w.end());
}

double highest(const std::vector<double>& rates) {
  return rates.empty() ? 0 : *std::max_element(rates.begin(), rates.end());
}

std::vector<double> window_rates(const std::vector<double>& at,
                                 const std::vector<double>& amount, double t0,
                                 double t1, int windows) {
  if (windows < 1 || t1 <= t0) return {};
  const double len = (t1 - t0) / windows;
  std::vector<double> sum(static_cast<std::size_t>(windows), 0.0);
  for (std::size_t i = 0; i < at.size() && i < amount.size(); ++i) {
    if (at[i] < t0 || at[i] >= t1) continue;
    const auto w = std::min(static_cast<std::size_t>((at[i] - t0) / len), sum.size() - 1);
    sum[w] += amount[i];
  }
  for (double& x : sum) x /= len;
  return sum;
}

std::vector<double> group_rates(const std::vector<double>& start,
                                const std::vector<double>& end,
                                const std::vector<double>& amount, int groups) {
  std::vector<double> out;
  const std::size_t n = std::min({start.size(), end.size(), amount.size()});
  if (n == 0 || groups < 1) return out;
  const std::size_t k = std::min(static_cast<std::size_t>(groups), n);
  for (std::size_t g = 0; g < k; ++g) {
    const std::size_t a = g * n / k, b = (g + 1) * n / k;
    double sum = 0;
    for (std::size_t i = a; i < b; ++i) sum += amount[i];
    const double span = end[b - 1] - start[a];
    out.push_back(span > 0 ? sum / span : 0);
  }
  return out;
}

bool step_valid(const StepResult& s, const LadderRule& rule) {
  return s.sent > 0 && s.lag_p99_ms <= rule.lag_bound_ms;
}

bool backlog_growing(const StepResult& s, const LadderRule& rule) {
  return s.drain_s > rule.limit_s;
}

bool step_passes(const StepResult& s, const LadderRule& rule) {
  if (!step_valid(s, rule) || backlog_growing(s, rule)) return false;
  return static_cast<double>(s.within_limit) >=
         rule.min_within * static_cast<double>(s.sent);
}

double goodput_rps(const std::vector<StepResult>& steps,
                   const LadderRule& rule) {
  const StepResult* best = nullptr;
  for (const StepResult& s : steps) {
    if (step_passes(s, rule) && (best == nullptr || s.rate_rps > best->rate_rps)) {
      best = &s;
    }
  }
  if (best == nullptr || best->good_span_s <= 0) return 0;
  return static_cast<double>(best->within_limit) / best->good_span_s;
}

namespace {
bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}
}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char c0 = name.front();
  if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') ||
        (c0 >= '0' && c0 <= '9'))) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("invalid metric name: " + name);
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument("invalid unit for " + name + ": " + unit);
  }
  if (!std::isfinite(value)) value = 0;  // JSON has no NaN/inf
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = {value, unit};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit});
}

bool MetricSet::has(const std::string& name) const {
  return std::any_of(items_.begin(), items_.end(),
                     [&](const auto& it) { return it.first == name; });
}

double MetricSet::get(const std::string& name) const {
  for (const auto& [n, m] : items_) {
    if (n == name) return m.value;
  }
  throw std::out_of_range("no metric " + name);
}

namespace {
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

std::string result_json(bool correct, long long attempted, long long failed,
                        const MetricSet& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics.items()) {
    if (!first) out += ", ";
    first = false;
    out += '"' + name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double now_s() {
  return bt::obs::trace_seconds(std::chrono::steady_clock::now());
}

long long Tracer::add(std::string name, double start, double end,
                      long long parent, long long request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = static_cast<long long>(spans_.size());
  spans_.push_back({id, parent, request, std::move(name), start, end});
  return id;
}

void Tracer::close(long long id, double end) {
  if (!enabled_ || id < 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  // Children intervals per parent, clipped to the parent, then merged.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) kids[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_a = 0, cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    self[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return self;
}

std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  if (!f) return false;
  const std::vector<double> self = self_times(spans);
  char buf[96];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << ",\"name\":\"" << s.name << '"';
    std::snprintf(buf, sizeof buf, ",\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}",
                  s.start, s.end, self[i]);
    f << buf << '\n';
  }
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB -> MB
}

double current_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  // Pages -> MiB, the unit peak_rss_mb() reports in.
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double heap_in_use_mb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

MemorySampler::MemorySampler(int period_ms)
    : first_rss_mb_(current_rss_mb()),
      first_heap_mb_(heap_in_use_mb()),
      max_rss_mb_(first_rss_mb_),
      max_heap_mb_(first_heap_mb_),
      thread_([this, period_ms] {
        for (bool last = false; !last;) {
          last = stop_.load(std::memory_order_relaxed);
          max_rss_mb_ = std::max(max_rss_mb_, current_rss_mb());
          max_heap_mb_ = std::max(max_heap_mb_, heap_in_use_mb());
          if (!last) std::this_thread::sleep_for(std::chrono::milliseconds(period_ms));
        }
      }) {}

void MemorySampler::stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

}  // namespace perfbench
