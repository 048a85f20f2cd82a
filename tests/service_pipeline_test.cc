// The one request pipeline every QueryService request runs through
// (docs/SERVICE.md "Life of a request"): the cache lookup happens at
// submission, so a hit needs no pool slot; only a request about to execute
// draws a telemetry sampling decision; and every executed request has its
// reads accounted, whatever status it ends with.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "data/generator.h"

namespace wsk {
namespace {

class ServicePipelineTest : public ::testing::Test {
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

  // A why-not case that runs for seconds under BS: a big candidate
  // universe with the missing object well outside the top-k.
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

  // Telemetry that profiles every other executed request.
  static QueryServiceConfig SampleEveryOther() {
    QueryServiceConfig config;
    config.telemetry.sample_every = 2;
    config.telemetry.slow_factor = 0.0;
    config.telemetry.slow_min_ms = 0.0;
    return config;
  }

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
};

TEST_F(ServicePipelineTest, CacheHitDrawsNoSamplingDecision) {
  QueryService service(engine_.get(), SampleEveryOther());
  const auto miss_a = service.TopK(Query(12));
  ASSERT_TRUE(miss_a.ok());
  EXPECT_FALSE(miss_a.value().cache_hit);
  const auto hit_a = service.TopK(Query(12));
  ASSERT_TRUE(hit_a.ok());
  EXPECT_TRUE(hit_a.value().cache_hit);
  const auto miss_b = service.TopK(Query(40));
  ASSERT_TRUE(miss_b.ok());
  EXPECT_FALSE(miss_b.value().cache_hit);

  // Two executions drew decisions 0 (sampled) and 1 (not); the hit drew
  // none.
  const TelemetryStats stats = service.telemetry()->stats();
  EXPECT_EQ(stats.requests_observed, 3u);
  EXPECT_EQ(stats.profiles_sampled, 1u);
}

TEST_F(ServicePipelineTest, PreCancelledRequestDrawsNoSamplingDecision) {
  QueryService service(engine_.get(), SampleEveryOther());
  RequestOptions cancelled;
  cancelled.cancel = CancelToken::Create();
  cancelled.cancel.Cancel();
  EXPECT_EQ(service.TopK(Query(12), cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(service.WhyNot(WhyNotAlgorithm::kAdvanced, Query(12), {7}, {},
                           cancelled)
                .status()
                .code(),
            StatusCode::kCancelled);
  EXPECT_EQ(service.TopK(Query(40), cancelled).status().code(),
            StatusCode::kCancelled);

  // The first executed request draws the first decision, which samples.
  ASSERT_TRUE(service.TopK(Query(12)).ok());
  const TelemetryStats stats = service.telemetry()->stats();
  EXPECT_EQ(stats.requests_observed, 4u);
  EXPECT_EQ(stats.profiles_sampled, 1u);
}

TEST_F(ServicePipelineTest, ExpiredWhyNotStillAccountsItsReads) {
  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  // Cold caches: the request's node accesses go through the buffer pools,
  // which count logical reads.
  ASSERT_TRUE(engine_->DropCaches().ok());
  QueryService service(engine_.get(), {});
  const BackendIoSnapshot before = engine_->io_snapshot();

  RequestOptions opts;
  opts.timeout_ms = 100.0;
  opts.bypass_cache = true;
  const auto result = service.WhyNot(WhyNotAlgorithm::kBasic, query, missing,
                                     WhyNotOptions{}, opts);
  ASSERT_FALSE(result.ok());
  ASSERT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const BackendIoSnapshot after = engine_->io_snapshot();
  const uint64_t engine_reads = (after.setr_logical - before.setr_logical) +
                                (after.kcr_logical - before.kcr_logical);
  ASSERT_GT(engine_reads, 0u) << "the request never touched the index";
  const uint64_t accounted =
      service.metrics().counter("io.setr.logical_reads").value() +
      service.metrics().counter("io.kcr.logical_reads").value();
  EXPECT_EQ(accounted, engine_reads);
}

TEST_F(ServicePipelineTest, CachedTopKIsAnsweredWhileThePoolIsFull) {
  QueryServiceConfig config;
  config.num_workers = 1;
  config.max_queue = 1;
  QueryService service(engine_.get(), config);
  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  const auto first = service.TopK(query);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first.value().cache_hit);

  // Hold the only worker and the only queue slot with deadline-bounded BS
  // why-nots. The pause lets the worker pick up the first one, so the
  // second waits in the queue.
  RequestOptions slow;
  slow.timeout_ms = 500.0;
  slow.bypass_cache = true;
  auto running = service.SubmitWhyNot(WhyNotAlgorithm::kBasic, query, missing,
                                      WhyNotOptions{}, slow);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto queued = service.SubmitWhyNot(WhyNotAlgorithm::kBasic, query, missing,
                                     WhyNotOptions{}, slow);

  const auto hit = service.TopK(query);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit.value().cache_hit);
  ASSERT_EQ(hit.value().results.size(), first.value().results.size());
  for (size_t i = 0; i < first.value().results.size(); ++i) {
    EXPECT_EQ(hit.value().results[i].id, first.value().results[i].id);
  }

  // Both holders were admitted (neither was shed), so the pool really was
  // full when the hit was answered.
  EXPECT_EQ(running.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(queued.get().status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().counter("responses.rejected_overload").value(),
            0u);
}

// A backend whose every top-k throws; the batch dispatch that runs it must
// report the failure, not a hard-coded OK.
class ThrowingBackend : public QueryBackend {
 public:
  StatusOr<std::vector<ScoredObject>> TopK(const SpatialKeywordQuery&,
                                           const CancelToken*,
                                           TraceRecorder*) const override {
    throw std::runtime_error("backend failure");
  }
  StatusOr<WhyNotResult> Answer(WhyNotAlgorithm, const SpatialKeywordQuery&,
                                const std::vector<ObjectId>&,
                                const WhyNotOptions&) const override {
    return Status::Internal("unused");
  }
  BackendIoSnapshot io_snapshot() const override { return {}; }
};

TEST(ServicePipelineBatchTest, FailedBatchProfileCarriesTheBatchStatus) {
  ThrowingBackend backend;
  QueryServiceConfig config;
  config.batch_max_size = 2;
  config.telemetry.sample_every = 1;
  QueryService service(&backend, config);
  SpatialKeywordQuery query;
  query.loc = Point{0.5, 0.5};
  query.doc = KeywordSet({1, 2});
  query.k = 3;
  query.alpha = 0.5;
  const auto result = service.TopK(query);
  ASSERT_EQ(result.status().code(), StatusCode::kInternal);

  bool saw_batch = false;
  for (const QueryProfile& p : service.telemetry()->Profiles()) {
    if (p.kind != ProfileKind::kBatch) continue;
    saw_batch = true;
    EXPECT_EQ(p.status, "INTERNAL") << p.Summary();
    EXPECT_FALSE(p.ok);
  }
  EXPECT_TRUE(saw_batch);
}

}  // namespace
}  // namespace wsk
