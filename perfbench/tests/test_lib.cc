// Unit tests of the benchmark's own logic: percentiles, windowed statistics,
// the rate ladder and goodput rule, metric names, span self time and the
// result line.
#include <gtest/gtest.h>

#include <set>

#include "harness.h"
#include "lib.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 0.5), 50);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 0.99), 99);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 1.0), 100);
  EXPECT_DOUBLE_EQ(percentile(one_to(100), 0.0), 1);
  EXPECT_DOUBLE_EQ(percentile(one_to(1000), 0.99), 990);
  EXPECT_DOUBLE_EQ(percentile({7}, 0.99), 7);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10);
  EXPECT_EQ(samples_beyond(1100, 0.99), 11);
  EXPECT_EQ(samples_beyond(999, 0.99), 9);  // rank ceil(989.01) = 990
  EXPECT_EQ(samples_beyond(100, 0.99), 1);
  EXPECT_EQ(samples_beyond(0, 0.99), 0);
}

TEST(Windowed, BestWindowPercentile) {
  // Five windows of 100; all but the fourth are slowed by a burst.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(w == 3 ? i : (2.0 + w) * i);
  }
  EXPECT_EQ(window_percentiles(v, 5, 0.5), (std::vector<double>{100, 150, 200, 50, 300}));
  EXPECT_DOUBLE_EQ(best_window_percentile(v, 5, 0.5), 50);
  EXPECT_DOUBLE_EQ(best_window_percentile(v, 5, 0.99), 99);
  EXPECT_DOUBLE_EQ(best_window_percentile(v, 1, 0.99), percentile(v, 0.99));
  // More windows than samples: one sample per window.
  EXPECT_EQ(window_percentiles({3, 1, 2}, 10, 0.99), (std::vector<double>{3, 1, 2}));
  EXPECT_DOUBLE_EQ(best_window_percentile({3, 1, 2}, 10, 0.99), 1);
  EXPECT_TRUE(std::isnan(best_window_percentile({}, 5, 0.5)));
}

TEST(Windowed, RatesPerTimeWindow) {
  // 10 s in 5 windows of 2 s; window rates 1, 2, 3, 100, 5 per second.
  std::vector<double> at, amount;
  const double per_window[] = {2, 4, 6, 200, 10};
  for (int w = 0; w < 5; ++w) {
    at.push_back(2.0 * w + 1);
    amount.push_back(per_window[w]);
  }
  at.push_back(10.0);  // outside [0, 10): dropped
  amount.push_back(1000);
  EXPECT_EQ(window_rates(at, amount, 0, 10, 5), (std::vector<double>{1, 2, 3, 100, 5}));
  EXPECT_DOUBLE_EQ(highest(window_rates(at, amount, 0, 10, 5)), 100);
  EXPECT_DOUBLE_EQ(highest({}), 0);
  EXPECT_EQ(window_rates(at, amount, 0, 10, 1), (std::vector<double>{22.2}));
  EXPECT_TRUE(window_rates(at, amount, 5, 5, 5).empty());
}

TEST(Windowed, GroupRatesSpanWholeOperations) {
  // Four back-to-back operations of 1 s carrying 10 each, then one of 4 s.
  const std::vector<double> start = {0, 1, 2, 3, 4};
  const std::vector<double> end = {1, 2, 3, 4, 8};
  const std::vector<double> amount = {10, 10, 10, 10, 10};
  EXPECT_EQ(group_rates(start, end, amount, 5), (std::vector<double>{10, 10, 10, 10, 2.5}));
  // Groups of 2 and 3 operations: 20 / 2 s and 30 / 6 s.
  EXPECT_EQ(group_rates(start, end, amount, 2), (std::vector<double>{10, 5}));
  EXPECT_TRUE(group_rates({}, {}, {}, 5).empty());
}

StepResult step(double rate, long long sent, long long within, double lag_ms,
                double drain_s, double span_s) {
  StepResult s;
  s.rate_rps = rate;
  s.sent = sent;
  s.ok = sent;
  s.within_limit = within;
  s.lag_p99_ms = lag_ms;
  s.drain_s = drain_s;
  s.good_span_s = span_s;
  return s;
}

TEST(Ladder, StepRules) {
  const LadderRule rule{0.25, 0.99, 10};
  EXPECT_TRUE(step_passes(step(100, 1000, 990, 1, 0.05, 10), rule));
  EXPECT_FALSE(step_passes(step(100, 1000, 989, 1, 0.05, 10), rule));
  // Late sender: invalid, not scored.
  EXPECT_FALSE(step_valid(step(100, 1000, 1000, 11, 0.05, 10), rule));
  EXPECT_FALSE(step_passes(step(100, 1000, 1000, 11, 0.05, 10), rule));
  // Backlog still draining past the limit after the last send.
  EXPECT_TRUE(backlog_growing(step(100, 1000, 1000, 1, 0.3, 10), rule));
  EXPECT_FALSE(step_passes(step(100, 1000, 1000, 1, 0.3, 10), rule));
  EXPECT_FALSE(step_valid(step(100, 0, 0, 0, 0, 0), rule));
}

TEST(Ladder, GoodputIsHighestPassingStep) {
  const LadderRule rule{0.25, 0.99, 10};
  std::vector<StepResult> steps = {step(40, 400, 400, 1, 0.01, 10.0),
                                   step(70, 700, 700, 1, 0.01, 10.0),
                                   step(90, 900, 800, 1, 0.01, 10.0)};
  EXPECT_DOUBLE_EQ(goodput_rps(steps, rule), 70.0);  // top step misses limit
  steps[2].within_limit = 900;
  EXPECT_DOUBLE_EQ(goodput_rps(steps, rule), 90.0);
  steps[2].lag_p99_ms = 50;  // top step invalid -> not scored
  EXPECT_DOUBLE_EQ(goodput_rps(steps, rule), 70.0);
  for (auto& s : steps) s.drain_s = 1.0;  // every backlog grows
  EXPECT_DOUBLE_EQ(goodput_rps(steps, rule), 0.0);
}

TEST(Metrics, NameRules) {
  EXPECT_TRUE(valid_metric_name("latency_p99_ms"));
  EXPECT_TRUE(valid_metric_name("gemm.gemm0.gflop_s"));
  EXPECT_TRUE(valid_metric_name("a-b.c_d9"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".lead"));
  EXPECT_FALSE(valid_metric_name("_lead"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("tok/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("a b"));
  MetricSet m;
  EXPECT_THROW(m.set("bad name", 1, "ms"), std::invalid_argument);
  EXPECT_THROW(m.set("ok", 1, "bad unit"), std::invalid_argument);
}

TEST(Metrics, TablesAreValidAndUnique) {
  for (const auto* table : {&end_to_end_metrics(), &per_layer_metrics()}) {
    std::set<std::string> seen;
    for (const MetricDef& d : *table) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(valid_unit(d.unit)) << d.unit;
      EXPECT_TRUE(seen.insert(d.name).second) << d.name;
    }
  }
  EXPECT_LE(per_layer_metrics().size(), 128u);
  EXPECT_EQ(end_to_end_metrics().front().name, std::string("setup_s"));
}

TEST(Metrics, ResultLineKeepsEveryDigit) {
  MetricSet m;
  m.set("latency_p50_ms", 1.2345678901234567, "ms");
  m.set("nan_becomes_zero", std::nan(""), "ms");
  const std::string line = result_json(true, 3, 0, m);
  EXPECT_NE(line.find("\"correct\": true"), std::string::npos);
  EXPECT_NE(line.find("\"attempted\": 3"), std::string::npos);
  EXPECT_NE(line.find("1.2345678901234567"), std::string::npos);
  EXPECT_NE(line.find("\"nan_becomes_zero\": {\"value\": 0,"), std::string::npos);
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  Tracer t(true);
  const long long root = t.add("root", 0.0, 10.0);
  t.add("a", 1.0, 4.0, root);
  t.add("b", 3.0, 6.0, root);   // overlaps a: union [1, 6]
  t.add("c", 9.0, 12.0, root);  // clipped to [9, 10]
  const long long open = t.open("late", 20.0);
  t.close(open, 25.0);
  const std::vector<double> self = self_times(t.spans());
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0);
  EXPECT_DOUBLE_EQ(self[4], 5.0);
  Tracer off(false);
  EXPECT_EQ(off.add("x", 0, 1), -1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
