#include "service/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

namespace wsk {
namespace {

TEST(CounterTest, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogramTest, EmptySnapshot) {
  LatencyHistogram h;
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50_ms, 0.0);
  EXPECT_EQ(s.p99_ms, 0.0);
  EXPECT_EQ(s.max_ms, 0.0);
}

TEST(LatencyHistogramTest, PercentilesFromBucketBounds) {
  LatencyHistogram h;
  // 95 fast samples (1 ms) and 5 slow ones (1000 ms).
  for (int i = 0; i < 95; ++i) h.Record(1.0);
  for (int i = 0; i < 5; ++i) h.Record(1000.0);
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 100u);
  // 1 ms = 1000 us lands in the (512, 1024] us bucket: bound 1.024 ms.
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.024);
  EXPECT_DOUBLE_EQ(s.p95_ms, 1.024);
  // 1000 ms lands in the (2^19, 2^20] us bucket: bound 1048.576 ms.
  EXPECT_DOUBLE_EQ(s.p99_ms, 1048.576);
  // max is the exact observed sample, not the bucket bound.
  EXPECT_DOUBLE_EQ(s.max_ms, 1000.0);
  EXPECT_NEAR(s.mean_ms, (95.0 * 1.0 + 5.0 * 1000.0) / 100.0, 0.01);
}

TEST(LatencyHistogramTest, DegenerateSamplesLandInFirstBucket) {
  LatencyHistogram h;
  h.Record(0.0);
  h.Record(-5.0);
  h.Record(0.0005);  // 0.5 us: within the first bucket's (0, 1] us range
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 0.001);
  // max preserves the sub-microsecond sample exactly (negatives clamp to 0).
  EXPECT_DOUBLE_EQ(s.max_ms, 0.0005);
}

TEST(LatencyHistogramTest, HugeSampleClampsToLastBucket) {
  LatencyHistogram h;
  h.Record(1e12);
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 1u);
  // The bucket clamps but the observed max does not.
  EXPECT_DOUBLE_EQ(s.max_ms, 1e12);
}

TEST(LatencyHistogramTest, MaxIsExactUnderConcurrentRecording) {
  LatencyHistogram h;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < 1000; ++i) {
        h.Record(static_cast<double>(t * 1000 + i) / 7.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto s = h.TakeSnapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * 1000);
  EXPECT_DOUBLE_EQ(s.max_ms, (kThreads * 1000 - 1) / 7.0);
}

TEST(LatencyHistogramTest, SnapshotExposesBucketCounts) {
  LatencyHistogram h;
  h.Record(0.001);  // 1 us: first bucket
  h.Record(1.0);    // 1000 us: bucket 10, bound 1.024 ms
  const auto s = h.TakeSnapshot();
  uint64_t total = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    total += s.bucket_counts[i];
  }
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(s.bucket_counts[0], 1u);
  EXPECT_DOUBLE_EQ(LatencyHistogram::BucketBoundMs(10), 1.024);
  EXPECT_EQ(s.bucket_counts[10], 1u);
}

TEST(MetricsRegistryTest, InterningReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests.total");
  Counter& b = registry.counter("requests.total");
  EXPECT_EQ(&a, &b);
  LatencyHistogram& ha = registry.histogram("latency.ms");
  LatencyHistogram& hb = registry.histogram("latency.ms");
  EXPECT_EQ(&ha, &hb);
}

TEST(MetricsRegistryTest, ReportListsAllMetrics) {
  MetricsRegistry registry;
  registry.counter("zeta").Increment(7);
  registry.counter("alpha").Increment(3);
  registry.histogram("lat").Record(2.0);
  const std::string report = registry.Report();
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("zeta"), std::string::npos);
  EXPECT_NE(report.find("lat"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);
  // std::map ordering: counters come out sorted.
  EXPECT_LT(report.find("alpha"), report.find("zeta"));
}

TEST(MetricsRegistryTest, PrometheusTextExposition) {
  MetricsRegistry registry;
  registry.counter("requests.total").Increment(42);
  registry.histogram("latency.whynot.ms").Record(2.0);
  registry.histogram("latency.whynot.ms").Record(8.0);
  const std::string text = registry.PrometheusText();

  EXPECT_NE(text.find("# TYPE wsk_requests_total_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("wsk_requests_total_total 42\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wsk_latency_whynot_ms histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("wsk_latency_whynot_ms_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("wsk_latency_whynot_ms_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("wsk_latency_whynot_ms_sum 0.01\n"), std::string::npos);
  EXPECT_NE(text.find("wsk_latency_whynot_ms_max 0.008\n"),
            std::string::npos);

  // Bucket series are cumulative: counts never decrease as `le` grows.
  uint64_t prev = 0;
  size_t pos = 0;
  int buckets_seen = 0;
  while ((pos = text.find("_bucket{le=", pos)) != std::string::npos) {
    const size_t value_at = text.find("} ", pos) + 2;
    const uint64_t count = std::strtoull(text.c_str() + value_at, nullptr, 10);
    EXPECT_GE(count, prev);
    prev = count;
    pos = value_at;
    ++buckets_seen;
  }
  EXPECT_EQ(buckets_seen,
            static_cast<int>(LatencyHistogram::kNumBuckets) + 1);
  // Every non-comment line is `name[{labels}] value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << line;
  }
}

// A histogram named `*.ms` records milliseconds and exports seconds; any
// other exports its samples in their own unit, and neither view prints
// "ms" for it.
TEST(MetricsRegistryTest, HistogramUnitFollowsItsName) {
  MetricsRegistry registry;
  registry.histogram("batch.occupancy").Record(4.0);
  registry.histogram("latency.topk.ms").Record(4.0);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("wsk_batch_occupancy_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("wsk_batch_occupancy_max 4\n"), std::string::npos);
  EXPECT_NE(text.find("wsk_latency_topk_ms_sum 0.004\n"), std::string::npos);
  EXPECT_NE(text.find("wsk_latency_topk_ms_max 0.004\n"), std::string::npos);

  const std::string report = registry.Report();
  EXPECT_NE(report.find("batch.occupancy count 1 sum 4 p50 "),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("latency.topk.ms count 1 sum_s 0.004 p50_s "),
            std::string::npos)
      << report;
  EXPECT_EQ(report.find(" ms"), std::string::npos) << report;
}

TEST(MetricsRegistryTest, ConcurrentInterningAndRecording) {
  MetricsRegistry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&registry, t] {
      const std::string name = "metric." + std::to_string(t % 4);
      for (int i = 0; i < 1000; ++i) {
        registry.counter(name).Increment();
        registry.histogram("shared").Record(0.5);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t total = 0;
  for (int m = 0; m < 4; ++m) {
    total += registry.counter("metric." + std::to_string(m)).value();
  }
  EXPECT_EQ(total, 8000u);
  EXPECT_EQ(registry.histogram("shared").TakeSnapshot().count, 8000u);
}

}  // namespace
}  // namespace wsk
