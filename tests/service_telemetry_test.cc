// The telemetry pipeline threaded through the QueryService
// (docs/OBSERVABILITY.md "Continuous telemetry"): sampled profiles whose
// stage breakdown covers the recorded wall time, forced-slow capture with
// the JSONL stream, rolling-window accounting for completions / cache hits
// / shed requests, queue wait counted in the windows and the slow test,
// background batch-dispatch profiles, and the master switch that removes
// the hub entirely.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"

namespace wsk {
namespace {

class ServiceTelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 1500;
    config.vocab_size = 120;
    config.seed = 31337;
    dataset_ = GenerateDataset(config);
    engine_ = WhyNotEngine::Build(&dataset_, {}).value();
  }

  SpatialKeywordQuery Query(size_t i = 12) const {
    SpatialKeywordQuery q;
    q.loc = Point{0.4, 0.4};
    std::vector<TermId> terms(dataset_.object(i).doc.begin(),
                              dataset_.object(i).doc.end());
    if (terms.size() > 4) terms.resize(4);
    q.doc = KeywordSet(std::move(terms));
    q.k = 10;
    q.alpha = 0.5;
    return q;
  }

  // A why-not case that is genuinely slow for BS: a big candidate universe
  // with the missing object well outside the top-k (same construction as
  // query_service_test).
  std::vector<ObjectId> SlowMissing(const SpatialKeywordQuery& query) const {
    ObjectId best = kInvalidObjectId;
    size_t best_universe = 0;
    for (ObjectId id = 0; id < dataset_.size(); ++id) {
      const size_t universe = query.doc.UnionSize(dataset_.object(id).doc);
      if (universe <= best_universe) continue;
      const auto rank = engine_->Rank(query, id);
      if (!rank.ok() || rank.value() <= 2 * query.k) continue;
      best = id;
      best_universe = universe;
    }
    WSK_CHECK(best != kInvalidObjectId);
    return {best};
  }

  // Telemetry that profiles every request and never classifies slow.
  QueryServiceConfig ProfileEverything() const {
    QueryServiceConfig config;
    config.telemetry.sample_every = 1;
    config.telemetry.slow_factor = 0.0;
    config.telemetry.slow_min_ms = 0.0;
    return config;
  }

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
};

TEST_F(ServiceTelemetryTest, SampledProfilesCarryEventsAndCoverWall) {
  QueryService service(engine_.get(), ProfileEverything());
  ASSERT_NE(service.telemetry(), nullptr);

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.TopK(Query(12 + i)).ok());  // distinct: all misses
  }
  const SpatialKeywordQuery query = Query();
  const ObjectId missing = engine_->ObjectAtPosition(query, 2 * query.k).value();
  ASSERT_TRUE(
      service.WhyNot(WhyNotAlgorithm::kAdvanced, query, {missing}, {}).ok());

  const std::vector<QueryProfile> profiles = service.telemetry()->Profiles();
  ASSERT_EQ(profiles.size(), 5u);
  for (const QueryProfile& p : profiles) {
    EXPECT_TRUE(p.sampled) << p.Summary();
    EXPECT_TRUE(p.ok) << p.Summary();
    EXPECT_EQ(p.status, "OK");
    EXPECT_FALSE(p.events.empty()) << p.Summary();
    EXPECT_NE(p.fingerprint, 0u);
    EXPECT_GT(p.wall_ms, 0.0);
    EXPECT_GE(p.queue_ms, 0.0);
  }
  EXPECT_EQ(profiles.back().kind, ProfileKind::kWhyNot);
  EXPECT_EQ(profiles.back().algorithm,
            WhyNotAlgorithmName(WhyNotAlgorithm::kAdvanced));

  // The acceptance contract: the per-stage breakdown explains the recorded
  // execution wall, not some unrelated clock. The why-not profile runs for
  // milliseconds, so microsecond stage truncation is noise.
  const QueryProfile& whynot = profiles.back();
  EXPECT_GE(whynot.StageSumMs(), 0.95 * whynot.wall_ms) << whynot.Summary();
  EXPECT_GT(whynot.counters[static_cast<size_t>(TraceCounter::kNodesSeen)],
            0u);

  const TelemetryStats stats = service.telemetry()->stats();
  EXPECT_EQ(stats.requests_observed, 5u);
  EXPECT_EQ(stats.profiles_sampled, 5u);
}

TEST_F(ServiceTelemetryTest, CacheHitsCountInWindowsWithoutProfiles) {
  QueryService service(engine_.get(), ProfileEverything());
  ASSERT_TRUE(service.TopK(Query()).ok());
  ASSERT_TRUE(service.TopK(Query()).ok());  // served from the result cache

  const TelemetryStats stats = service.telemetry()->stats();
  EXPECT_EQ(stats.requests_observed, 2u);
  // The hit executed nothing, so only the miss carried a recorder.
  EXPECT_EQ(stats.profiles_sampled, 1u);

  const RollingWindows::Snapshot w = service.telemetry()->Window(60);
  EXPECT_EQ(w.requests, 2u);
  EXPECT_EQ(w.cache_hits, 1u);
  EXPECT_DOUBLE_EQ(w.hit_ratio, 0.5);
  EXPECT_GT(w.qps, 0.0);
  EXPECT_GT(w.p99_ms, 0.0);

  const std::vector<QueryProfile> profiles = service.telemetry()->Profiles();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_FALSE(profiles[0].cache_hit);
}

TEST_F(ServiceTelemetryTest, ForcedSlowQueryStreamsStructuredJsonl) {
  const std::string path =
      ::testing::TempDir() + "/service_telemetry_slow.jsonl";
  std::remove(path.c_str());

  QueryServiceConfig config;
  config.telemetry.sample_every = 0;  // aggregate-only recorders are enough
  // Fixed 1 us floor: every completion is slow. (The threshold is stored
  // in whole microseconds, so a smaller floor would truncate to disabled.)
  config.telemetry.slow_factor = 0.0;
  config.telemetry.slow_min_ms = 0.001;
  config.telemetry.slow_log_path = path;
  QueryService service(engine_.get(), config);

  const SpatialKeywordQuery query = Query();
  const ObjectId missing = engine_->ObjectAtPosition(query, 2 * query.k).value();
  ASSERT_TRUE(
      service.WhyNot(WhyNotAlgorithm::kKcrBased, query, {missing}, {}).ok());

  const std::vector<QueryProfile> slow = service.telemetry()->SlowQueries();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_TRUE(slow[0].slow);
  EXPECT_EQ(slow[0].kind, ProfileKind::kWhyNot);
  // The record keeps the stage breakdown (covering the wall) but drops the
  // event buffer.
  EXPECT_GE(slow[0].StageSumMs(), 0.95 * slow[0].wall_ms)
      << slow[0].Summary();
  EXPECT_TRUE(slow[0].events.empty());
  EXPECT_EQ(service.telemetry()->stats().slow_queries, 1u);

  // The JSONL sink got one structured line at capture time.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"slow\":true"), std::string::npos);
  EXPECT_NE(line.find("\"kind\":\"whynot\""), std::string::npos);
  EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos);
  EXPECT_NE(line.find("\"stages\":{"), std::string::npos);
  EXPECT_FALSE(std::getline(in, line));  // exactly one slow completion
  std::remove(path.c_str());
}

TEST_F(ServiceTelemetryTest, ShedRequestsLandInTheWindows) {
  QueryServiceConfig config = ProfileEverything();
  config.num_workers = 1;
  config.max_inflight = 1;
  QueryService service(engine_.get(), config);

  // Hold the only inflight slot with a deadline-bounded why-not, then
  // offer load that admission control must shed.
  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  RequestOptions slow_opts;
  slow_opts.timeout_ms = 150.0;
  auto held = service.SubmitWhyNot(WhyNotAlgorithm::kBasic, query, missing,
                                   WhyNotOptions{}, slow_opts);
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    if (!service.TopK(Query()).ok()) ++shed;
  }
  (void)held.get();

  ASSERT_GT(shed, 0);
  const RollingWindows::Snapshot w = service.telemetry()->Window(60);
  EXPECT_EQ(w.shed, static_cast<uint64_t>(shed));
  EXPECT_GT(w.shed_ratio, 0.0);
}

// Delegates to an engine; the first top-k blocks until Release(), holding
// a one-worker service's only worker.
class GatedBackend : public QueryBackend {
 public:
  explicit GatedBackend(const QueryBackend* inner) : inner_(inner) {}

  StatusOr<std::vector<ScoredObject>> TopK(
      const SpatialKeywordQuery& query, const CancelToken* cancel,
      TraceRecorder* trace) const override {
    if (!held_.exchange(true)) {
      entered_.set_value();
      release_.wait();
    }
    return inner_->TopK(query, cancel, trace);
  }
  StatusOr<WhyNotResult> Answer(WhyNotAlgorithm algorithm,
                                const SpatialKeywordQuery& query,
                                const std::vector<ObjectId>& missing,
                                const WhyNotOptions& options) const override {
    return inner_->Answer(algorithm, query, missing, options);
  }
  BackendIoSnapshot io_snapshot() const override {
    return inner_->io_snapshot();
  }

  void WaitEntered() { entered_future_.wait(); }
  void Release() { release_promise_.set_value(); }

 private:
  const QueryBackend* inner_;
  mutable std::atomic<bool> held_{false};
  mutable std::promise<void> entered_;
  std::future<void> entered_future_ = entered_.get_future();
  std::promise<void> release_promise_;
  std::shared_future<void> release_ = release_promise_.get_future().share();
};

TEST_F(ServiceTelemetryTest, QueueWaitCountsInWindowsAndSlowCapture) {
  constexpr double kHoldMs = 100.0;
  GatedBackend backend(engine_.get());
  QueryServiceConfig config;
  config.num_workers = 1;
  config.cache_capacity = 0;
  config.telemetry.sample_every = 0;
  config.telemetry.slow_factor = 0.0;  // fixed threshold: half the hold
  config.telemetry.slow_min_ms = kHoldMs / 2;
  QueryService service(&backend, config);

  // One request holds the worker; four more queue behind it and then
  // execute in well under a millisecond each.
  auto held = service.SubmitTopK(Query(12));
  backend.WaitEntered();
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> queued;
  for (size_t i = 0; i < 4; ++i) {
    queued.push_back(service.SubmitTopK(Query(13 + i)));
  }
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kHoldMs)));
  backend.Release();
  ASSERT_TRUE(held.get().ok());
  for (auto& f : queued) ASSERT_TRUE(f.get().ok());

  // Every completion waited out the hold, in execution or in the queue, so
  // the windows and the slow test see it for all five.
  const RollingWindows::Snapshot w = service.telemetry()->Window(60);
  EXPECT_EQ(w.requests, 5u);
  EXPECT_GE(w.p50_ms, kHoldMs / 2);
  EXPECT_GE(w.p99_ms, kHoldMs / 2);
  const std::vector<QueryProfile> slow = service.telemetry()->SlowQueries();
  EXPECT_EQ(slow.size(), 5u);
  for (const QueryProfile& p : slow) {
    EXPECT_GE(p.wall_ms + p.queue_ms, kHoldMs / 2) << p.Summary();
  }
}

TEST_F(ServiceTelemetryTest, BatchDispatchesProfileAsBackgroundWork) {
  QueryServiceConfig config = ProfileEverything();
  config.batch_max_size = 4;
  config.batch_window_ms = 5.0;
  QueryService service(engine_.get(), config);

  constexpr size_t kN = 8;
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> futures;
  for (size_t i = 0; i < kN; ++i) {
    futures.push_back(service.SubmitTopK(Query(11 * i + 3)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  // Every batched item reports its own completion into the windows; the
  // shared dispatch reports once more as background work that stays out
  // of the per-request rates.
  const RollingWindows::Snapshot w = service.telemetry()->Window(60);
  EXPECT_EQ(w.requests, kN);

  const std::vector<QueryProfile> profiles = service.telemetry()->Profiles();
  int batch_profiles = 0;
  for (const QueryProfile& p : profiles) {
    if (p.kind != ProfileKind::kBatch) continue;
    ++batch_profiles;
    EXPECT_EQ(p.algorithm, "batch");
    EXPECT_FALSE(p.slow);
    EXPECT_GT(
        p.counters[static_cast<size_t>(TraceCounter::kBatchQueries)], 0u);
  }
  EXPECT_GE(batch_profiles, 1);

  // The collector's own instrumentation moved too.
  EXPECT_GE(service.metrics().counter("bg.collector.dispatches").value(), 1u);
  EXPECT_NE(service.MetricsReport().find("bg.collector.exec.ms"),
            std::string::npos);
}

TEST_F(ServiceTelemetryTest, ReportsExposeTelemetrySections) {
  QueryService service(engine_.get(), ProfileEverything());
  ASSERT_TRUE(service.TopK(Query()).ok());

  const std::string report = service.MetricsReport();
  EXPECT_NE(report.find("telemetry observed 1 sampled 1"), std::string::npos);
  EXPECT_NE(report.find("window.1s"), std::string::npos);
  EXPECT_NE(report.find("window.60s"), std::string::npos);

  const std::string prom = service.PrometheusReport();
  EXPECT_NE(prom.find("wsk_telemetry_requests_observed_total 1"),
            std::string::npos);
  EXPECT_NE(prom.find("wsk_window_request_rate{window=\"60s\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("wsk_trace_dropped_events_total"), std::string::npos);
}

TEST_F(ServiceTelemetryTest, DisabledTelemetryRemovesTheHub) {
  QueryServiceConfig config;
  config.telemetry.enabled = false;
  QueryService service(engine_.get(), config);
  EXPECT_EQ(service.telemetry(), nullptr);

  ASSERT_TRUE(service.TopK(Query()).ok());
  EXPECT_EQ(service.MetricsReport().find("telemetry observed"),
            std::string::npos);
  const std::string prom = service.PrometheusReport();
  EXPECT_EQ(prom.find("wsk_window_request_rate"), std::string::npos);
  EXPECT_EQ(prom.find("wsk_telemetry_"), std::string::npos);
  // Build info and process gauges stay: they describe the process, not
  // the sampling pipeline.
  EXPECT_NE(prom.find("wsk_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("wsk_process_uptime_seconds"), std::string::npos);
}

}  // namespace
}  // namespace wsk
