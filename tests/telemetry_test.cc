// Unit tests of the continuous-telemetry hub (observability/telemetry.h):
// sampling cadence, rolling windows, reservoir / slow-ring retention, the
// rolling slow threshold, and the QueryProfile serializations.
#include "observability/telemetry.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "observability/histogram.h"

namespace wsk {
namespace {

QueryProfile MakeProfile(double wall_ms, bool ok = true,
                         bool cache_hit = false) {
  QueryProfile p;
  p.kind = ProfileKind::kTopK;
  p.algorithm = "topk";
  p.fingerprint = 0xabcd;
  p.status = "OK";
  p.ok = ok;
  p.cache_hit = cache_hit;
  p.wall_ms = wall_ms;
  return p;
}

// `profile` finished under `trace`.
QueryProfile Finished(QueryProfile profile, const TraceRecorder& trace) {
  profile.Absorb(trace);
  return profile;
}

TEST(LatencyBucketsTest, SharedMathIsConsistent) {
  // 1 ms = 1000 us lands in the (512 us, 1024 us] bucket.
  EXPECT_EQ(LatencyBucketIndex(1.0), 10u);
  EXPECT_DOUBLE_EQ(LatencyBucketBoundMs(10), 1.024);
  // Degenerate inputs land in the first bucket instead of faulting.
  EXPECT_EQ(LatencyBucketIndex(0.0), 0u);
  EXPECT_EQ(LatencyBucketIndex(-3.0), 0u);
  // Bucket index never exceeds the table.
  EXPECT_EQ(LatencyBucketIndex(1e12), kLatencyBuckets - 1);

  uint64_t counts[kLatencyBuckets] = {};
  counts[LatencyBucketIndex(1.0)] = 99;
  counts[LatencyBucketIndex(100.0)] = 1;
  EXPECT_DOUBLE_EQ(LatencyQuantileMs(counts, 100, 0.50),
                   LatencyBucketBoundMs(10));
  EXPECT_DOUBLE_EQ(LatencyQuantileMs(counts, 100, 1.00),
                   LatencyBucketBoundMs(LatencyBucketIndex(100.0)));
  EXPECT_DOUBLE_EQ(LatencyQuantileMs(counts, 0, 0.99), 0.0);
}

TEST(QueryProfileTest, ToJsonIsOneStructuredLine) {
  QueryProfile p = MakeProfile(1.5);
  p.id = 7;
  p.queue_ms = 0.25;
  p.status = "OK";
  p.stage_total_us[static_cast<size_t>(TraceStage::kTopK)] = 1400;
  p.stage_count[static_cast<size_t>(TraceStage::kTopK)] = 1;
  p.counters[static_cast<size_t>(TraceCounter::kNodesVisited)] = 42;
  p.io_physical = 3;
  const std::string json = p.ToJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"topk\""), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\":\"000000000000abcd\""),
            std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":1.500"), std::string::npos);
  EXPECT_NE(json.find("\"queue_ms\":0.250"), std::string::npos);
  EXPECT_NE(json.find("\"topk\":{\"count\":1,\"total_ms\":1.400"),
            std::string::npos);
  EXPECT_NE(json.find("\"nodes_visited\":42"), std::string::npos);
  EXPECT_NE(json.find("\"physical\":3"), std::string::npos);
  // Zero-valued stages and counters are omitted.
  EXPECT_EQ(json.find("\"enumeration\""), std::string::npos);
}

TEST(QueryProfileTest, StageSumAndSummaryTags) {
  QueryProfile p = MakeProfile(2.0);
  p.id = 3;
  p.stage_total_us[static_cast<size_t>(TraceStage::kQuery)] = 1800;
  p.stage_total_us[static_cast<size_t>(TraceStage::kTopK)] = 1700;
  EXPECT_DOUBLE_EQ(p.StageSumMs(), 3.5);

  p.sampled = true;
  EXPECT_NE(p.Summary().find("[sampled]"), std::string::npos);
  EXPECT_EQ(p.Summary().find("[slow]"), std::string::npos);
  p.slow = true;
  EXPECT_NE(p.Summary().find("[slow]"), std::string::npos);
}

TEST(RollingWindowsTest, AggregatesRequestsShedAndHits) {
  RollingWindows windows;
  for (int i = 0; i < 8; ++i) windows.RecordRequest(i < 2, 1.0);
  windows.RecordRequest(false, 4.0);
  windows.RecordShed();

  const RollingWindows::Snapshot w = windows.Take(60);
  EXPECT_EQ(w.window_s, 60u);
  EXPECT_EQ(w.requests, 9u);
  EXPECT_EQ(w.shed, 1u);
  EXPECT_EQ(w.cache_hits, 2u);
  EXPECT_DOUBLE_EQ(w.qps, 9.0 / 60.0);
  EXPECT_DOUBLE_EQ(w.shed_ratio, 0.1);
  EXPECT_DOUBLE_EQ(w.hit_ratio, 2.0 / 9.0);
  EXPECT_DOUBLE_EQ(w.p50_ms, LatencyBucketBoundMs(LatencyBucketIndex(1.0)));
  EXPECT_DOUBLE_EQ(w.p99_ms, LatencyBucketBoundMs(LatencyBucketIndex(4.0)));
  EXPECT_EQ(windows.Take(0).requests, 0u);
}

TEST(RollingWindowsTest, OldSecondsAgeOutOfShortWindows) {
  RollingWindows windows;
  windows.RecordRequest(false, 1.0);
  // Cross at least one second boundary; the old slot must leave the 1 s
  // window but stay inside the 60 s window.
  std::this_thread::sleep_for(std::chrono::milliseconds(2100));
  EXPECT_EQ(windows.Take(1).requests, 0u);
  EXPECT_EQ(windows.Take(60).requests, 1u);
}

TEST(TelemetryHubTest, SamplingCadenceIsEveryNth) {
  TelemetryConfig config;
  config.sample_every = 4;
  config.profile_event_capacity = 128;
  TelemetryHub hub(config);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(hub.NextEventCapacity(), 128u);
    EXPECT_EQ(hub.NextEventCapacity(), 0u);
    EXPECT_EQ(hub.NextEventCapacity(), 0u);
    EXPECT_EQ(hub.NextEventCapacity(), 0u);
  }

  TelemetryConfig always;
  always.sample_every = 1;
  always.profile_event_capacity = 64;
  TelemetryHub every(always);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(every.NextEventCapacity(), 64u);
}

TEST(TelemetryHubTest, SampledProfilesLandInReservoirOldestFirst) {
  TelemetryConfig config;
  config.sample_every = 1;
  config.profile_reservoir = 3;
  config.slow_factor = 0.0;
  config.slow_min_ms = 0.0;  // nothing classifies slow
  TelemetryHub hub(config);

  for (int i = 0; i < 5; ++i) {
    TraceRecorder trace(16);
    {
      TraceSpan span(&trace, TraceStage::kTopK);
      trace.Add(TraceCounter::kNodesVisited, 10 + i);
    }
    hub.Report(Finished(MakeProfile(1.0), trace));
  }

  const std::vector<QueryProfile> profiles = hub.Profiles();
  ASSERT_EQ(profiles.size(), 3u);
  // Ring keeps the most recent three, oldest first: ids 3, 4, 5.
  EXPECT_EQ(profiles[0].id, 3u);
  EXPECT_EQ(profiles[1].id, 4u);
  EXPECT_EQ(profiles[2].id, 5u);
  for (const QueryProfile& p : profiles) {
    EXPECT_TRUE(p.sampled);
    EXPECT_FALSE(p.slow);
    EXPECT_FALSE(p.events.empty());
    EXPECT_EQ(p.stage_count[static_cast<size_t>(TraceStage::kTopK)], 1u);
    EXPECT_GE(p.counters[static_cast<size_t>(TraceCounter::kNodesVisited)],
              10u);
  }

  const TelemetryStats stats = hub.stats();
  EXPECT_EQ(stats.requests_observed, 5u);
  EXPECT_EQ(stats.profiles_sampled, 5u);
  EXPECT_EQ(stats.slow_queries, 0u);
  EXPECT_EQ(stats.reservoir_size, 3u);
}

TEST(TelemetryHubTest, BatchDispatchesAreNotObservedRequests) {
  TelemetryConfig config;
  config.sample_every = 1;
  config.profile_reservoir = 256;
  config.slow_factor = 0.0;
  config.slow_min_ms = 0.0;
  TelemetryHub hub(config);

  // 80 requests in 14 batches (10 of six, 4 of five): each batch reports
  // one background dispatch profile, then every item its own completion.
  size_t requests = 0;
  for (int batch = 0; batch < 14; ++batch) {
    QueryProfile dispatch = MakeProfile(2.0);
    dispatch.kind = ProfileKind::kBatch;
    dispatch.algorithm = "batch";
    TraceRecorder dispatch_trace(16);
    hub.Report(Finished(std::move(dispatch), dispatch_trace));
    const int items = batch < 10 ? 6 : 5;
    for (int i = 0; i < items; ++i, ++requests) {
      TraceRecorder trace(16);
      hub.Report(Finished(MakeProfile(1.0), trace));
    }
  }
  ASSERT_EQ(requests, 80u);
  EXPECT_EQ(hub.stats().requests_observed, 80u);
  EXPECT_EQ(hub.Window(60).requests, 80u);

  // Every profile, dispatches included, still gets its own id.
  const std::vector<QueryProfile> profiles = hub.Profiles();
  ASSERT_EQ(profiles.size(), 94u);
  for (size_t i = 0; i < profiles.size(); ++i) {
    EXPECT_EQ(profiles[i].id, i + 1);
  }
}

TEST(TelemetryHubTest, AggregationOnlyRecorderIsNotSampled) {
  TelemetryConfig config;
  config.sample_every = 1;
  config.slow_factor = 0.0;
  config.slow_min_ms = 0.0;
  TelemetryHub hub(config);

  TraceRecorder aggregation_only(0);
  { TraceSpan span(&aggregation_only, TraceStage::kTopK); }
  hub.Report(Finished(MakeProfile(1.0), aggregation_only));

  EXPECT_EQ(hub.stats().profiles_sampled, 0u);
  EXPECT_TRUE(hub.Profiles().empty());
}

TEST(TelemetryHubTest, SlowQueriesCaptureRecordAndStreamJsonl) {
  const std::string path =
      ::testing::TempDir() + "/telemetry_slow_test.jsonl";
  std::remove(path.c_str());

  TelemetryConfig config;
  config.sample_every = 0;  // profile every request
  config.slow_factor = 0.0;  // fixed floor decides
  config.slow_min_ms = 0.001;
  config.slow_log_capacity = 2;
  config.slow_log_path = path;
  TelemetryHub hub(config);

  for (int i = 0; i < 3; ++i) {
    TraceRecorder trace(16);
    { TraceSpan span(&trace, TraceStage::kTopK); }
    hub.Report(Finished(MakeProfile(5.0 + i), trace));
  }
  // Under the floor: observed but not captured.
  hub.Report(MakeProfile(0.0));

  const TelemetryStats stats = hub.stats();
  EXPECT_EQ(stats.requests_observed, 4u);
  EXPECT_EQ(stats.slow_queries, 3u);
  EXPECT_DOUBLE_EQ(stats.slow_threshold_ms, 0.001);

  // The in-memory ring holds the most recent two, oldest first, with the
  // stage breakdown but without the event buffer.
  const std::vector<QueryProfile> slow = hub.SlowQueries();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].id, 2u);
  EXPECT_EQ(slow[1].id, 3u);
  for (const QueryProfile& p : slow) {
    EXPECT_TRUE(p.slow);
    EXPECT_TRUE(p.events.empty());
    EXPECT_EQ(p.stage_count[static_cast<size_t>(TraceStage::kTopK)], 1u);
  }

  // Every slow completion streamed one JSON line to the sink.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
    EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos);
    EXPECT_NE(line.find("\"stages\":"), std::string::npos);
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(TelemetryHubTest, ThresholdRefreshTracksRollingP99) {
  TelemetryConfig config;
  config.sample_every = 0;
  config.profile_reservoir = 1;
  config.slow_factor = 2.0;
  config.slow_min_ms = 0.5;
  TelemetryHub hub(config);
  EXPECT_DOUBLE_EQ(hub.slow_threshold_ms(), 0.5);

  // 256 completions at ~1 ms land in the (512 us, 1024 us] bucket; the
  // refresh at completion 256 lifts the threshold to 2 x the bucket bound.
  for (int i = 0; i < 256; ++i) hub.Report(MakeProfile(1.0));
  EXPECT_DOUBLE_EQ(hub.slow_threshold_ms(), 2.0 * 1.024);
  // All 256 beat the initial 0.5 ms floor and were classified slow; with
  // the refreshed threshold a further 1 ms completion is not.
  EXPECT_EQ(hub.stats().slow_queries, 256u);
  hub.Report(MakeProfile(1.0));
  EXPECT_EQ(hub.stats().slow_queries, 256u);
}

TEST(TelemetryHubTest, BatchProfilesSkipWindowsAndSlowClassification) {
  TelemetryConfig config;
  config.sample_every = 1;
  config.slow_factor = 0.0;
  config.slow_min_ms = 0.001;
  TelemetryHub hub(config);

  QueryProfile batch;
  batch.kind = ProfileKind::kBatch;
  batch.algorithm = "batch";
  batch.ok = true;
  batch.wall_ms = 100.0;  // covers many requests; must not classify slow
  TraceRecorder trace(16);
  { TraceSpan span(&trace, TraceStage::kBatchTopK); }
  hub.Report(Finished(std::move(batch), trace));

  EXPECT_EQ(hub.Window(60).requests, 0u);
  EXPECT_EQ(hub.stats().slow_queries, 0u);
  // Background work still shows up in the reservoir when sampled.
  const std::vector<QueryProfile> profiles = hub.Profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_EQ(profiles[0].kind, ProfileKind::kBatch);
  EXPECT_FALSE(profiles[0].slow);

  hub.ReportShed();
  EXPECT_EQ(hub.Window(60).shed, 1u);
}

TEST(ProcessGaugesTest, UptimeAndResidentMemoryArePositive) {
  EXPECT_GT(ProcessUptimeSeconds(), 0.0);
#if defined(__linux__)
  EXPECT_GT(ProcessResidentBytes(), 0u);
#endif
}

}  // namespace
}  // namespace wsk
