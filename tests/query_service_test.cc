// End-to-end tests of the QueryService: admission control, result cache,
// deadlines / cancellation (under all three why-not algorithms), and the
// engine's post-cancellation consistency.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/timer.h"
#include "data/generator.h"

namespace wsk {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 1500;
    config.vocab_size = 120;
    config.seed = 31337;
    dataset_ = GenerateDataset(config);
    engine_ = WhyNotEngine::Build(&dataset_, {}).value();
  }

  SpatialKeywordQuery Query() const {
    SpatialKeywordQuery q;
    q.loc = Point{0.4, 0.4};
    std::vector<TermId> terms(dataset_.object(12).doc.begin(),
                              dataset_.object(12).doc.end());
    if (terms.size() > 4) terms.resize(4);
    q.doc = KeywordSet(std::move(terms));
    q.k = 10;
    q.alpha = 0.5;
    return q;
  }

  // A why-not case that is genuinely slow for every algorithm: the missing
  // object has a large keyword set mostly disjoint from the query doc, so
  // the candidate universe is big, and it ranks well outside the top-k.
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
    WSK_CHECK_MSG(best_universe >= 10, "universe too small: %zu",
                  best_universe);
    return {best};
  }

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
};

TEST_F(QueryServiceTest, TopKMatchesEngineAndCachesRepeat) {
  QueryService service(engine_.get(), {});
  const auto expected = engine_->TopK(Query()).value();

  const auto first = service.TopK(Query());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first.value().cache_hit);
  ASSERT_EQ(first.value().results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(first.value().results[i].id, expected[i].id);
  }

  const auto second = service.TopK(Query());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  ASSERT_EQ(second.value().results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(second.value().results[i].id, expected[i].id);
  }
  EXPECT_EQ(service.cache().stats().hits, 1u);
}

TEST_F(QueryServiceTest, WhyNotMatchesEngineUnderEveryAlgorithm) {
  QueryService service(engine_.get(), {});
  const SpatialKeywordQuery query = Query();
  const ObjectId missing = engine_->ObjectAtPosition(query, 3 * query.k).value();
  WhyNotOptions options;

  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    const WhyNotResult expected =
        engine_->Answer(algorithm, query, {missing}, options).value();

    const auto first = service.WhyNot(algorithm, query, {missing}, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    EXPECT_FALSE(first.value().cache_hit);
    EXPECT_EQ(first.value().result.refined.k, expected.refined.k);
    EXPECT_DOUBLE_EQ(first.value().result.refined.penalty,
                     expected.refined.penalty);
    EXPECT_TRUE(first.value().result.refined.doc == expected.refined.doc);

    const auto second = service.WhyNot(algorithm, query, {missing}, options);
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value().cache_hit);
    EXPECT_DOUBLE_EQ(second.value().result.refined.penalty,
                     expected.refined.penalty);
  }
}

TEST_F(QueryServiceTest, NanAlphaKcrRequestIsRejectedAndServiceKeepsServing) {
  QueryService service(engine_.get(), {});
  const SpatialKeywordQuery good = Query();
  const ObjectId missing = engine_->ObjectAtPosition(good, 3 * good.k).value();
  SpatialKeywordQuery bad = good;
  bad.alpha = std::numeric_limits<double>::quiet_NaN();

  const auto rejected =
      service.WhyNot(WhyNotAlgorithm::kKcrBased, bad, {missing}, {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
      << rejected.status().ToString();

  const WhyNotResult expected =
      engine_->Answer(WhyNotAlgorithm::kKcrBased, good, {missing}, {}).value();
  const auto served =
      service.WhyNot(WhyNotAlgorithm::kKcrBased, good, {missing}, {});
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_TRUE(served.value().result.refined.doc == expected.refined.doc);
  EXPECT_EQ(served.value().result.refined.k, expected.refined.k);
  EXPECT_EQ(served.value().result.refined.penalty, expected.refined.penalty);
}

// NaN or out-of-range alpha and a non-finite location are rejected at
// admission, solo and batched, and the service keeps serving.
TEST_F(QueryServiceTest, MalformedTopKIsRejectedAndServiceKeepsServing) {
  const std::vector<ScoredObject> expected = engine_->TopK(Query()).value();
  for (const size_t batch_max_size : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("batch_max_size " + std::to_string(batch_max_size));
    QueryServiceConfig config;
    config.batch_max_size = batch_max_size;
    QueryService service(engine_.get(), config);
    std::vector<SpatialKeywordQuery> bad(5, Query());
    bad[0].alpha = std::numeric_limits<double>::quiet_NaN();
    bad[1].alpha = 1.0;
    bad[2].alpha = -0.25;
    bad[3].loc.x = std::numeric_limits<double>::infinity();
    bad[4].loc.y = std::numeric_limits<double>::quiet_NaN();
    for (const SpatialKeywordQuery& q : bad) {
      const auto rejected = service.TopK(q);
      ASSERT_FALSE(rejected.ok());
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
          << rejected.status().ToString();
    }
    EXPECT_EQ(service.inflight(), 0u);
    const auto served = service.TopK(Query());
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served.value().results.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(served.value().results[i].id, expected[i].id);
    }
  }
}

// k comes from outside: a k far beyond the index answers with every
// object instead of reserving k result slots up front.
TEST(QueryServiceInputTest, HugeKReturnsEveryObject) {
  GeneratorConfig config;
  config.num_objects = 200;
  config.vocab_size = 30;
  config.seed = 77;
  const Dataset dataset = GenerateDataset(config);
  auto engine = WhyNotEngine::Build(&dataset, {}).value();
  QueryService service(engine.get(), {});
  SpatialKeywordQuery q;
  q.loc = Point{0.5, 0.5};
  q.doc = dataset.object(0).doc;
  q.k = std::numeric_limits<uint32_t>::max();
  q.alpha = 0.5;
  const auto served = service.TopK(q);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::vector<ScoredObject> expected = BruteForceTopK(dataset, q);
  ASSERT_EQ(expected.size(), dataset.size());
  ASSERT_EQ(served.value().results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(served.value().results[i].id, expected[i].id);
  }
}

TEST_F(QueryServiceTest, BypassCacheSkipsLookupAndInsertion) {
  QueryService service(engine_.get(), {});
  RequestOptions opts;
  opts.bypass_cache = true;
  ASSERT_TRUE(service.TopK(Query(), opts).ok());
  ASSERT_TRUE(service.TopK(Query(), opts).ok());
  EXPECT_EQ(service.cache().stats().hits, 0u);
  EXPECT_EQ(service.cache().stats().insertions, 0u);
  EXPECT_EQ(service.cache().size(), 0u);
}

TEST_F(QueryServiceTest, MaxInflightRejectsWithResourceExhausted) {
  QueryServiceConfig config;
  config.num_workers = 1;
  config.max_inflight = 1;
  QueryService service(engine_.get(), config);

  // Occupy the only inflight slot with a slow BS request; its 150 ms
  // deadline bounds the test's runtime.
  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  RequestOptions slow;
  slow.timeout_ms = 150.0;
  auto held = service.SubmitWhyNot(WhyNotAlgorithm::kBasic, query, missing,
                                   WhyNotOptions{}, slow);

  // While it holds the slot, every further request is shed immediately.
  for (int i = 0; i < 5; ++i) {
    const auto rejected = service.TopK(Query());
    EXPECT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  }
  const auto held_result = held.get();
  EXPECT_FALSE(held_result.ok());
  EXPECT_EQ(held_result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().counter("responses.rejected_overload").value(),
            5u);

  // With the slot free again, requests are admitted.
  EXPECT_TRUE(service.TopK(Query()).ok());
}

TEST_F(QueryServiceTest, FullWorkerQueueRejectsWithResourceExhausted) {
  QueryServiceConfig config;
  config.num_workers = 1;
  config.max_queue = 1;
  config.max_inflight = 0;  // exercise the queue bound, not the inflight cap
  QueryService service(engine_.get(), config);

  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  RequestOptions slow;
  slow.timeout_ms = 150.0;
  std::vector<std::future<StatusOr<QueryService::WhyNotResponse>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.SubmitWhyNot(WhyNotAlgorithm::kBasic, query,
                                           missing, WhyNotOptions{}, slow));
  }
  int rejected = 0;
  for (auto& f : futures) {
    const auto r = f.get();
    if (!r.ok() && r.status().code() == StatusCode::kResourceExhausted) {
      ++rejected;
    }
  }
  // One request can be executing and one pending; of the six submitted
  // back-to-back at least four found the queue full.
  EXPECT_GE(rejected, 4);
}

TEST_F(QueryServiceTest, DeadlineExceededUnderEveryAlgorithm) {
  QueryService service(engine_.get(), {});
  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  WhyNotOptions options;
  // Calibrate each deadline from a warm full run so the test adapts to
  // machine speed and sanitizer slowdowns.
  const auto warm_run_ms = [&](WhyNotAlgorithm algorithm) {
    (void)engine_->Answer(algorithm, query, missing, options);  // warm
    Timer timer;
    EXPECT_TRUE(engine_->Answer(algorithm, query, missing, options).ok());
    return timer.ElapsedMillis();
  };
  const double advanced_ms = warm_run_ms(WhyNotAlgorithm::kAdvanced);

  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    // BS runs for seconds on this case, too long to calibrate on; it
    // borrows AdvancedBS's time instead. BS evaluates every candidate
    // AdvancedBS does and more, without its pruning, so a tenth of that
    // time is far below BS's own.
    const double baseline_ms = algorithm == WhyNotAlgorithm::kKcrBased
                                   ? warm_run_ms(algorithm)
                                   : advanced_ms;
    RequestOptions opts;
    opts.timeout_ms = std::max(baseline_ms / 10.0, 0.05);
    opts.bypass_cache = true;

    Timer timer;
    const auto result =
        service.WhyNot(algorithm, query, missing, options, opts);
    const double elapsed_ms = timer.ElapsedMillis();
    ASSERT_FALSE(result.ok()) << WhyNotAlgorithmName(algorithm);
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << WhyNotAlgorithmName(algorithm) << ": "
        << result.status().ToString();
    // The query aborted cooperatively instead of running to completion:
    // for BS that difference is minutes vs a bounded abort.
    EXPECT_LT(elapsed_ms, 20000.0) << WhyNotAlgorithmName(algorithm);
  }
  EXPECT_EQ(service.metrics().counter("responses.deadline_exceeded").value(),
            3u);
}

TEST_F(QueryServiceTest, PreCancelledTokenReturnsCancelled) {
  QueryService service(engine_.get(), {});
  RequestOptions opts;
  opts.cancel = CancelToken::Create();
  opts.cancel.Cancel();
  const auto result = service.TopK(Query(), opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(service.metrics().counter("responses.cancelled").value(), 1u);
}

TEST_F(QueryServiceTest, ClientCancellationAbortsInFlightQuery) {
  QueryService service(engine_.get(), {});
  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  RequestOptions opts;
  opts.cancel = CancelToken::Create();
  auto future = service.SubmitWhyNot(WhyNotAlgorithm::kBasic, query, missing,
                                     WhyNotOptions{}, opts);
  opts.cancel.Cancel();
  const auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST_F(QueryServiceTest, EngineConsistentAfterCancelledQueries) {
  const SpatialKeywordQuery query = Query();
  const std::vector<ObjectId> missing = SlowMissing(query);
  const WhyNotResult baseline =
      engine_->Answer(WhyNotAlgorithm::kKcrBased, query, missing, {}).value();

  {
    QueryService service(engine_.get(), {});
    // Abandon a batch of queries mid-flight (deadline + explicit cancel).
    RequestOptions deadline;
    deadline.timeout_ms = 0.5;
    deadline.bypass_cache = true;
    for (int i = 0; i < 4; ++i) {
      (void)service.WhyNot(WhyNotAlgorithm::kKcrBased, query, missing, {},
                           deadline);
      (void)service.WhyNot(WhyNotAlgorithm::kAdvanced, query, missing, {},
                           deadline);
    }
    RequestOptions cancelled;
    cancelled.cancel = CancelToken::Create();
    cancelled.cancel.Cancel();
    (void)service.WhyNot(WhyNotAlgorithm::kBasic, query, missing, {},
                         cancelled);
  }

  // No query still in flight, no pinned pages leaked (DropCaches requires
  // every frame unpinned), and the engine still produces the exact answer.
  EXPECT_EQ(engine_->inflight_queries(), 0);
  EXPECT_TRUE(engine_->DropCaches().ok());
  const WhyNotResult after =
      engine_->Answer(WhyNotAlgorithm::kKcrBased, query, missing, {}).value();
  EXPECT_EQ(after.refined.k, baseline.refined.k);
  EXPECT_DOUBLE_EQ(after.refined.penalty, baseline.refined.penalty);
  EXPECT_TRUE(after.refined.doc == baseline.refined.doc);
}

TEST_F(QueryServiceTest, MetricsReportCoversAllSections) {
  QueryService service(engine_.get(), {});
  ASSERT_TRUE(service.TopK(Query()).ok());
  ASSERT_TRUE(service.TopK(Query()).ok());
  const std::string report = service.MetricsReport();
  EXPECT_NE(report.find("requests.total"), std::string::npos);
  EXPECT_NE(report.find("latency.topk.ms"), std::string::npos);
  EXPECT_NE(report.find("cache"), std::string::npos);
  EXPECT_NE(report.find("engine_io"), std::string::npos);
  EXPECT_NE(report.find("pool"), std::string::npos);
  EXPECT_NE(report.find("task_exceptions 0"), std::string::npos);
}

TEST_F(QueryServiceTest, DestructorDrainsOutstandingRequests) {
  std::future<StatusOr<QueryService::TopKResponse>> future;
  {
    QueryService service(engine_.get(), {});
    future = service.SubmitTopK(Query());
  }
  // The service is gone, but the admitted request completed on the way out.
  EXPECT_TRUE(future.get().ok());
}

}  // namespace
}  // namespace wsk
