// Tests of the benchmark's own helpers: the percentile-selection rule,
// the traffic latency figures, seeded Poisson schedules, span self-time
// arithmetic, and the serve_max_rps rule.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "fleet.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond) {
  // p99.9 needs 10 000 samples (10 beyond), p99 needs 1 000.
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(199), 90.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
}

TEST(Percentile, NearestRankReturnsObservedValues) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(quantile_sorted(v, 0.5), 50.0);
  EXPECT_EQ(quantile_sorted(v, 0.99), 99.0);
  EXPECT_EQ(quantile_sorted(v, 1.0), 100.0);
  EXPECT_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
}

TEST(Percentile, SummaryCountsFailuresAsMisses) {
  std::vector<double> v(1000, 1.0);
  for (int i = 0; i < 20; ++i) v[static_cast<std::size_t>(i)] =
      std::numeric_limits<double>::infinity();
  const LatencySummary s = summarize_latency(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 1.0);
  EXPECT_TRUE(std::isinf(s.p99));  // 2% failed: p99 misses any limit
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.beyond_tail, 10u);
}

TEST(Schedule, SeededPoissonReproducesExactly) {
  const std::vector<double> a = poisson_schedule(42, 1000.0, 2.0);
  const std::vector<double> b = poisson_schedule(42, 1000.0, 2.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  const std::vector<double> c = poisson_schedule(43, 1000.0, 2.0);
  EXPECT_NE(a, c);
}

TEST(Schedule, PoissonHasTheOfferedRate) {
  const std::vector<double> a = poisson_schedule(7, 5000.0, 4.0);
  // 20 000 expected arrivals; 5 standard deviations is ~700.
  EXPECT_NEAR(static_cast<double>(a.size()), 20000.0, 700.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 4.0);
}

TEST(Schedule, DerivedSeedsDiffer) {
  EXPECT_NE(derive_seed(1, 1), derive_seed(1, 2));
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 1));
  EXPECT_EQ(derive_seed(9, 3), derive_seed(9, 3));
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<Span> s = {
      {"root", 0.0, 10.0, -1, 1},
      {"a", 1.0, 4.0, 0, 1},   // overlaps b: the union counts once
      {"b", 3.0, 5.0, 0, 1},
      {"c", 8.0, 12.0, 0, 1},  // clipped to the parent's end
      {"a.child", 1.0, 2.0, 1, 1},
  };
  const std::vector<double> self = self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 2.0);
  EXPECT_DOUBLE_EQ(self[3], 4.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
}

TEST(Spans, CoveredLengthMergesAndClips) {
  EXPECT_DOUBLE_EQ(covered_length({{0, 1}, {0.5, 2}, {3, 4}}, 0, 10), 3.0);
  EXPECT_DOUBLE_EQ(covered_length({{-5, 5}}, 0, 2), 2.0);
  EXPECT_DOUBLE_EQ(covered_length({}, 0, 2), 0.0);
}

RungResult rung(double rps, std::size_t sent, std::size_t failed,
                double p99, double d1 = 1.0, double d2 = 1.0) {
  RungResult r;
  r.offered_rps = rps;
  r.sent = sent;
  r.failed = failed;
  r.p99_ms = p99;
  r.depth_first_half = d1;
  r.depth_second_half = d2;
  return r;
}

TEST(MaxRps, EachConditionFailsARung) {
  RungRule rule;
  rule.latency_limit_ms = 5.0;
  EXPECT_EQ(rung_failure(rung(1000, 1000, 10, 1.0), rule), "");
  EXPECT_EQ(rung_failure(rung(1000, 1000, 11, 1.0), rule), "failures");
  EXPECT_EQ(rung_failure(rung(1000, 1000, 0, 5.01), rule), "p99");
  EXPECT_EQ(rung_failure(rung(1000, 1000, 0, 5.0), rule), "");
  // Growth needs both the factor and the absolute floor.
  EXPECT_EQ(rung_failure(rung(1000, 1000, 0, 1.0, 2.0, 20.0), rule), "");
  EXPECT_EQ(rung_failure(rung(1000, 1000, 0, 1.0, 100.0, 140.0), rule), "");
  EXPECT_EQ(rung_failure(rung(1000, 1000, 0, 1.0, 10.0, 60.0), rule),
            "backlog");
  EXPECT_EQ(rung_failure(rung(1000, 0, 0, 1.0), rule), "no requests");
}

TEST(MaxRps, ScanStopsAfterTwoFailuresInARow) {
  EXPECT_FALSE(scan_done({}, 2));
  EXPECT_FALSE(scan_done({true, true, false}, 2));
  // One failing rung below the knee does not end the scan.
  EXPECT_FALSE(scan_done({true, false, true, false}, 2));
  EXPECT_TRUE(scan_done({true, false, true, false, false}, 2));
  EXPECT_TRUE(scan_done({false, false}, 2));
  EXPECT_FALSE(scan_done({false}, 2));
}

TEST(MaxRps, ScanReportsTheHighestPassingRung) {
  EXPECT_EQ(scan_highest_pass({}), -1);
  EXPECT_EQ(scan_highest_pass({false, false}), -1);
  EXPECT_EQ(scan_highest_pass({true, true, false, false}), 1);
  // A pass past a single failure counts: the knee is where passes end.
  EXPECT_EQ(scan_highest_pass({true, false, true, false, false}), 2);
}

TEST(MaxRps, ScanStartsAtTheHighestRungAtOrBelowTheAnchor) {
  const std::vector<double> l = {100.0, 110.0, 121.0, 133.1};
  EXPECT_EQ(scan_start(l, 50.0), 0u);
  EXPECT_EQ(scan_start(l, 110.0), 1u);
  EXPECT_EQ(scan_start(l, 130.0), 2u);
  EXPECT_EQ(scan_start(l, 1e9), 3u);
}

RequestRecord record(double latency_ms, double late_ms, bool failed = false) {
  RequestRecord r;
  r.scheduled = 100.0;
  r.sent_begin = r.scheduled + late_ms * 1e-3;
  r.sent_end = r.sent_begin;
  r.done = r.scheduled + latency_ms * 1e-3;
  r.outcome = static_cast<std::uint8_t>(
      failed ? safenn::serve::ServeOutcome::kDegraded
             : safenn::serve::ServeOutcome::kServed);
  return r;
}

TEST(TrafficLatency, FailedRequestsAreChargedAtLeastTheLimit) {
  EXPECT_NEAR(record(2.0, 0.0).charged_ms(50.0), 2.0, 1e-9);
  EXPECT_GT(record(2.0, 0.0, true).charged_ms(50.0), 50.0);
  EXPECT_NEAR(record(80.0, 0.0, true).charged_ms(50.0), 80.0, 1e-9);
}

TEST(TrafficLatency, EveryRequestCountsFromItsScheduledSend) {
  // 2000 requests: 1% sent 5 ms late, and 1% failed. Lateness and
  // failures both land in the tail; nothing is dropped.
  std::vector<RequestRecord> recs;
  for (int i = 0; i < 2000; ++i) {
    const bool late = i % 100 == 7;
    const bool failed = i % 100 == 42;
    recs.push_back(record(0.1 + 0.0001 * (i % 100) + (late ? 5.0 : 0.0),
                          late ? 5.0 : 0.0, failed));
  }
  const LatencySummary s = traffic_latency(recs, 50.0);
  EXPECT_EQ(s.count, 2000u);
  EXPECT_NEAR(s.p50, 0.1051, 1e-9);
  // Ranks 1981-2000 are the 20 failures (charged past the limit); rank
  // 1980 (the p99) is the slowest late request.
  EXPECT_NEAR(s.p99, 5.1007, 1e-9);
  EXPECT_GT(s.max, 50.0);
}

TEST(MaxRps, LadderIsGeometricAndCoversTheTop) {
  const std::vector<double> l = geometric_ladder(1000.0, 1200.0, 1.05);
  ASSERT_EQ(l.size(), 5u);
  EXPECT_DOUBLE_EQ(l[1], 1050.0);
  EXPECT_GE(l.back(), 1200.0);
  EXPECT_LT(l[l.size() - 2], 1200.0);
}

}  // namespace
}  // namespace perfbench
