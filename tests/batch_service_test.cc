// QueryService batch collector (docs/BATCHING.md): requests grouped
// behind the collection window must answer bit-identically to solo
// execution, duplicate fingerprints must execute once and fan out
// (batch.dedup), and the result-cache interaction is fixed: lookup
// happens before a request enqueues, exactly one insertion per unique
// fingerprint after the batch computes.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "data/generator.h"
#include "service/query_service.h"

namespace wsk {
namespace {

class BatchServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 800;
    config.vocab_size = 80;
    config.seed = 24601;
    dataset_ = GenerateDataset(config);
    engine_ = WhyNotEngine::Build(&dataset_, {}).value();
  }

  SpatialKeywordQuery Query(size_t i) const {
    SpatialKeywordQuery q;
    q.loc = Point{0.1 + 0.09 * static_cast<double>(i % 9),
                  0.85 - 0.08 * static_cast<double>(i % 10)};
    std::vector<TermId> terms(dataset_.object(11 * i + 3).doc.begin(),
                              dataset_.object(11 * i + 3).doc.end());
    if (terms.size() > 4) terms.resize(4);
    q.doc = KeywordSet(std::move(terms));
    q.k = 5 + static_cast<uint32_t>(i % 6);
    q.alpha = 0.5;
    return q;
  }

  QueryServiceConfig BatchedConfig(size_t max_size,
                                   double window_ms = 5.0) const {
    QueryServiceConfig config;
    config.batch_max_size = max_size;
    config.batch_window_ms = window_ms;
    return config;
  }

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
};

TEST_F(BatchServiceTest, BatchedAnswersMatchSoloEngine) {
  QueryService service(engine_.get(), BatchedConfig(4));
  constexpr size_t kN = 12;
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> futures;
  for (size_t i = 0; i < kN; ++i) {
    futures.push_back(service.SubmitTopK(Query(i)));
  }
  for (size_t i = 0; i < kN; ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    StatusOr<QueryService::TopKResponse> got = futures[i].get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::vector<ScoredObject> want = engine_->TopK(Query(i)).value();
    ASSERT_EQ(got.value().results.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.value().results[j].id, want[j].id);
      EXPECT_EQ(got.value().results[j].score, want[j].score);
    }
  }
  // Every request went through the batched path, none through the solo
  // task, and at least one batch held more than one query.
  EXPECT_EQ(service.metrics().counter("batch.queries").value(), kN);
  EXPECT_GE(service.metrics().counter("batch.batches").value(), 1u);
  EXPECT_LE(service.metrics().counter("batch.batches").value(), kN);
}

TEST_F(BatchServiceTest, DuplicateFingerprintsExecuteOnceAndFanOut) {
  QueryService service(engine_.get(), BatchedConfig(8, 200.0));
  const SpatialKeywordQuery query = Query(0);
  const std::vector<ScoredObject> want = engine_->TopK(query).value();

  constexpr size_t kDupes = 4;
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> futures;
  for (size_t i = 0; i < kDupes; ++i) {
    futures.push_back(service.SubmitTopK(query));
  }
  for (auto& f : futures) {
    StatusOr<QueryService::TopKResponse> got = f.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_FALSE(got.value().cache_hit);  // all four missed, then computed
    ASSERT_EQ(got.value().results.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.value().results[j].id, want[j].id);
      EXPECT_EQ(got.value().results[j].score, want[j].score);
    }
  }

  // The cache was consulted before each request enqueued (4 misses), the
  // batch computed the fingerprint once, and inserted it exactly once.
  const ResultCache::Stats stats = service.cache().stats();
  EXPECT_EQ(stats.misses, kDupes);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(service.metrics().counter("batch.dedup").value(), kDupes - 1);

  // A later identical request is a pure cache hit — it never waits out a
  // collection window and never reaches the collector.
  StatusOr<QueryService::TopKResponse> hit = service.TopK(query);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.value().cache_hit);
  EXPECT_EQ(service.cache().stats().hits, 1u);
  EXPECT_EQ(service.metrics().counter("batch.queries").value(), kDupes);
}

TEST_F(BatchServiceTest, BypassCacheNeverDedupes) {
  QueryService service(engine_.get(), BatchedConfig(8, 200.0));
  RequestOptions opts;
  opts.bypass_cache = true;
  const SpatialKeywordQuery query = Query(1);
  const std::vector<ScoredObject> want = engine_->TopK(query).value();

  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> futures;
  for (size_t i = 0; i < 3; ++i) {
    futures.push_back(service.SubmitTopK(query, opts));
  }
  for (auto& f : futures) {
    StatusOr<QueryService::TopKResponse> got = f.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value().results.size(), want.size());
    for (size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(got.value().results[j].id, want[j].id);
    }
  }
  EXPECT_EQ(service.metrics().counter("batch.dedup").value(), 0u);
  EXPECT_EQ(service.cache().stats().insertions, 0u);
  EXPECT_EQ(service.cache().stats().misses, 0u);  // never even looked up
}

TEST_F(BatchServiceTest, DeadlineExpiredInCollectorFailsFast) {
  // One request with a sub-millisecond deadline against a 60 ms window:
  // by the time the collector dispatches, the deadline has passed and the
  // request must fail without touching the backend.
  QueryService service(engine_.get(), BatchedConfig(16, 60.0));
  RequestOptions opts;
  opts.timeout_ms = 0.01;
  StatusOr<QueryService::TopKResponse> got = service.TopK(Query(2), opts);
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.metrics().counter("responses.deadline_exceeded").value(),
            1u);
}

TEST_F(BatchServiceTest, PreCancelledRequestFailsOthersUnaffected) {
  QueryService service(engine_.get(), BatchedConfig(4, 25.0));
  CancelToken token = CancelToken::Create();
  token.Cancel();
  RequestOptions cancelled;
  cancelled.cancel = token;

  auto doomed = service.SubmitTopK(Query(3), cancelled);
  auto fine = service.SubmitTopK(Query(4));
  EXPECT_EQ(doomed.get().status().code(), StatusCode::kCancelled);
  StatusOr<QueryService::TopKResponse> got = fine.get();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const std::vector<ScoredObject> want = engine_->TopK(Query(4)).value();
  ASSERT_EQ(got.value().results.size(), want.size());
  for (size_t j = 0; j < want.size(); ++j) {
    EXPECT_EQ(got.value().results[j].id, want[j].id);
    EXPECT_EQ(got.value().results[j].score, want[j].score);
  }
}

TEST_F(BatchServiceTest, ReportsSurfaceBatchingMetrics) {
  QueryService service(engine_.get(), BatchedConfig(4));
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> futures;
  for (size_t i = 0; i < 6; ++i) futures.push_back(service.SubmitTopK(Query(i)));
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());

  const std::string report = service.MetricsReport();
  EXPECT_NE(report.find("batch.batches"), std::string::npos);
  EXPECT_NE(report.find("batch.occupancy"), std::string::npos);
  EXPECT_NE(report.find("batch.window_wait.ms"), std::string::npos);
  EXPECT_NE(report.find("batching "), std::string::npos);

  const std::string prom = service.PrometheusReport();
  EXPECT_NE(prom.find("wsk_batch_batches_total"), std::string::npos);
  EXPECT_NE(prom.find("wsk_batch_dedup_total"), std::string::npos);
  EXPECT_NE(prom.find("wsk_batch_occupancy"), std::string::npos);
  EXPECT_NE(prom.find("wsk_batch_window_wait_ms"), std::string::npos);
  EXPECT_NE(prom.find("wsk_batch_pending_requests"), std::string::npos);
  // The index-layer amortization counters flow through trace absorption.
  EXPECT_NE(prom.find("wsk_prune_batch_queries_total"), std::string::npos);
}

// batch.occupancy records a batch size, a count: one batch of four
// exports 4 in both views, not the 0.004 a milliseconds-to-seconds
// conversion would make of it.
TEST_F(BatchServiceTest, OccupancyExportsTheBatchSizeAsACount) {
  // The window outlasts the test: the collector dispatches only when the
  // batch is full.
  QueryService service(engine_.get(), BatchedConfig(4, 60000.0));
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> futures;
  for (size_t i = 0; i < 4; ++i) {
    futures.push_back(service.SubmitTopK(Query(i)));
  }
  for (auto& f : futures) ASSERT_TRUE(f.get().ok());
  ASSERT_EQ(service.metrics().counter("batch.batches").value(), 1u);

  const std::string prom = service.PrometheusReport();
  EXPECT_NE(prom.find("\nwsk_batch_occupancy_sum 4\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\nwsk_batch_occupancy_max 4\n"), std::string::npos);
  EXPECT_NE(service.MetricsReport().find("batch.occupancy count 1 sum 4 "),
            std::string::npos);
}

TEST_F(BatchServiceTest, DefaultConfigKeepsSoloPath) {
  QueryServiceConfig config;  // batch_max_size defaults to 1: disabled
  ASSERT_EQ(config.batch_max_size, 1u);
  QueryService service(engine_.get(), config);
  StatusOr<QueryService::TopKResponse> got = service.TopK(Query(5));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(service.metrics().counter("batch.queries").value(), 0u);
  EXPECT_EQ(service.metrics().counter("batch.batches").value(), 0u);
  // No collector line in the report when batching is off.
  EXPECT_EQ(service.MetricsReport().find("batching "), std::string::npos);
}

TEST_F(BatchServiceTest, WindowZeroDispatchesImmediately) {
  QueryService service(engine_.get(), BatchedConfig(8, 0.0));
  StatusOr<QueryService::TopKResponse> got = service.TopK(Query(6));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(service.metrics().counter("batch.queries").value(), 1u);
}

}  // namespace
}  // namespace wsk
