#include "stats.h"

#include <gtest/gtest.h>

#include <numeric>

namespace most::e2e {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileTest, NearestRankAndSampleCountRule) {
  // p90 of 1..100 is the 90th value, with exactly ten samples beyond it.
  Percentile p90 = ComputePercentile(OneTo(100), 0.9);
  EXPECT_EQ(p90.value, 90.0);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.resolved);

  // One sample short: rank ceil(89.1) = 90 leaves nine beyond.
  Percentile short90 = ComputePercentile(OneTo(99), 0.9);
  EXPECT_EQ(short90.value, 90.0);
  EXPECT_EQ(short90.beyond, 9u);
  EXPECT_FALSE(short90.resolved);

  Percentile p50 = ComputePercentile(OneTo(20), 0.5);
  EXPECT_EQ(p50.value, 10.0);
  EXPECT_TRUE(p50.resolved);
  EXPECT_FALSE(ComputePercentile(OneTo(19), 0.5).resolved);

  EXPECT_EQ(MinSamplesFor(0.9), 100u);
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
}

TEST(PercentileTest, OrderIndependentAndEmptyInput) {
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  EXPECT_EQ(ComputePercentile(shuffled, 0.5).value, 3.0);
  EXPECT_EQ(ComputePercentile(shuffled, 1.0).value, 5.0);
  Percentile empty = ComputePercentile({}, 0.5);
  EXPECT_EQ(empty.samples, 0u);
  EXPECT_FALSE(empty.resolved);
}

TEST(SelfTimeTest, OverlappingChildrenAreCountedOnce) {
  // Parent [0, 100); two parallel children overlap on [20, 30) and a
  // third sits inside the second: covered = [10, 40) ∪ [60, 70) = 40.
  SpanInterval parent{0, 100};
  EXPECT_EQ(SelfTimeNs(parent, {{10, 30}, {20, 40}, {25, 35}, {60, 70}}),
            60u);
  // Children poking out of the parent are clipped to it.
  EXPECT_EQ(SelfTimeNs(parent, {{90, 150}, {0, 5}}), 85u);
  // A child fully covering the parent leaves no self time.
  EXPECT_EQ(SelfTimeNs(parent, {{0, 100}, {10, 20}}), 0u);
  EXPECT_EQ(SelfTimeNs(parent, {}), 100u);
}

TEST(SelfTimeTest, SpanIndexLinksDirectChildrenOnly) {
  auto event = [](const char* name, uint64_t id, uint64_t parent,
                  uint64_t start, uint64_t dur) {
    obs::TraceEvent e;
    e.name = name;
    e.trace_id = 1;
    e.span_id = id;
    e.parent_span_id = parent;
    e.start_ns = start;
    e.duration_ns = dur;
    return e;
  };
  // root [0,100) has two overlapping children [10,50) and [30,60); a
  // grandchild [40,90) belongs to the second child, not to the root.
  SpanIndex index({event("root", 1, 0, 0, 100), event("child", 2, 1, 10, 40),
                   event("child", 3, 1, 30, 30),
                   event("grandchild", 4, 3, 40, 50)});
  ASSERT_EQ(index.Named("child").size(), 2u);
  EXPECT_EQ(index.SelfNs(*index.Named("root")[0]), 50u);
  EXPECT_EQ(index.SelfNs(*index.Named("child")[1]), 10u);
  EXPECT_EQ(index.SelfNs(*index.Named("grandchild")[0]), 50u);
}

TEST(MetricDeltaTest, CountersAndHistogramsAcrossARun) {
  obs::MetricsRegistry registry;
  obs::Counter* a0 = registry.GetCounter("ops_total", "ops", {{"shard", "0"}});
  obs::Counter* a1 = registry.GetCounter("ops_total", "ops", {{"shard", "1"}});
  obs::Histogram* lat = registry.GetHistogram("lat_seconds", "latency",
                                              obs::ExponentialBuckets(1e-3, 2, 4));
  a0->Inc(5);
  lat->Observe(0.5);
  const MetricSnapshot before = SnapshotMetrics(registry);
  EXPECT_EQ(ValueOr0(before, "ops_total"), 5.0);

  a0->Inc(2);
  a1->Inc(3);
  lat->Observe(0.25);
  lat->Observe(0.25);
  // A family that first appears mid-run counts from zero.
  registry.GetCounter("late_total", "late")->Inc(4);
  const MetricSnapshot delta = Delta(before, SnapshotMetrics(registry));
  EXPECT_EQ(ValueOr0(delta, "ops_total"), 5.0);  // Summed over shards.
  EXPECT_EQ(ValueOr0(delta, "lat_seconds.count"), 2.0);
  EXPECT_DOUBLE_EQ(ValueOr0(delta, "lat_seconds.sum"), 0.5);
  EXPECT_EQ(ValueOr0(delta, "late_total"), 4.0);
  EXPECT_EQ(ValueOr0(delta, "absent_total"), 0.0);
}

}  // namespace
}  // namespace most::e2e
