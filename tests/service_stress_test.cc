// Concurrent-service stress test (CTest label: stress; CI runs it under
// TSan). Eight client threads fire a mixed top-k / why-not workload at one
// QueryService with the shared result cache enabled, interleaving normal
// requests with tiny deadlines and pre-cancelled tokens. Every future must
// resolve with a sane status, every OK answer must match the sequential
// baseline, and the engine must come out consistent.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "service/query_service.h"

namespace wsk {
namespace {

struct WhyNotCase {
  WhyNotAlgorithm algorithm;
  SpatialKeywordQuery query;
  std::vector<ObjectId> missing;
};

class ServiceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 400;
    config.vocab_size = 60;
    config.seed = 90210;
    dataset_ = GenerateDataset(config);
    WhyNotEngine::Config engine_config;
    engine_config.node_capacity = 8;
    engine_ = WhyNotEngine::Build(&dataset_, engine_config).value();

    for (int i = 0; i < 6; ++i) {
      SpatialKeywordQuery q;
      q.loc = Point{0.15 * i + 0.1, 0.9 - 0.12 * i};
      std::vector<TermId> terms(dataset_.object(7 * i + 3).doc.begin(),
                                dataset_.object(7 * i + 3).doc.end());
      if (terms.size() > 4) terms.resize(4);
      q.doc = KeywordSet(std::move(terms));
      q.k = 5 + i;
      q.alpha = 0.5;
      topk_queries_.push_back(q);
      topk_baselines_.push_back(engine_->TopK(q).value());
    }

    // Why-not cases with a small candidate universe so even BS finishes in
    // milliseconds: missing objects are picked among small-doc objects that
    // rank outside the top-k.
    const WhyNotAlgorithm algorithms[] = {WhyNotAlgorithm::kBasic,
                                          WhyNotAlgorithm::kAdvanced,
                                          WhyNotAlgorithm::kKcrBased};
    int produced = 0;
    for (const SpatialKeywordQuery& q : topk_queries_) {
      const ObjectId missing = SmallDocMissing(q);
      if (missing == kInvalidObjectId) continue;
      WhyNotCase c;
      c.algorithm = algorithms[produced % 3];
      c.query = q;
      c.missing = {missing};
      whynot_baselines_.push_back(
          engine_->Answer(c.algorithm, c.query, c.missing, {}).value());
      whynot_cases_.push_back(std::move(c));
      ++produced;
    }
    ASSERT_GE(whynot_cases_.size(), 3u);
  }

  ObjectId SmallDocMissing(const SpatialKeywordQuery& query) const {
    for (ObjectId id = 0; id < dataset_.size(); ++id) {
      if (dataset_.object(id).doc.size() > 2) continue;
      if (query.doc.UnionSize(dataset_.object(id).doc) > 6) continue;
      const auto rank = engine_->Rank(query, id);
      if (rank.ok() && rank.value() > 2 * query.k) return id;
    }
    return kInvalidObjectId;
  }

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
  std::vector<SpatialKeywordQuery> topk_queries_;
  std::vector<std::vector<ScoredObject>> topk_baselines_;
  std::vector<WhyNotCase> whynot_cases_;
  std::vector<WhyNotResult> whynot_baselines_;
};

TEST_F(ServiceStressTest, MixedWorkloadUnderContention) {
  QueryServiceConfig config;
  config.num_workers = 4;
  config.max_queue = 0;     // nothing is shed: every answer is checked
  config.max_inflight = 0;
  config.cache_capacity = 256;
  QueryService service(engine_.get(), config);

  constexpr int kClients = 8;
  constexpr int kPerClient = 40;
  std::atomic<int> wrong_results{0};
  std::atomic<int> unexpected_status{0};
  std::atomic<int> ok_count{0};
  std::atomic<int> interrupted_count{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int seq = c * kPerClient + i;
        RequestOptions opts;
        const bool tiny_deadline = seq % 7 == 3;
        const bool pre_cancelled = seq % 11 == 5;
        if (tiny_deadline) opts.timeout_ms = 0.05;
        if (pre_cancelled) {
          opts.cancel = CancelToken::Create();
          opts.cancel.Cancel();
        }
        const bool expect_interruptible = tiny_deadline || pre_cancelled;

        if (seq % 3 != 0) {
          const size_t qi = seq % topk_queries_.size();
          const auto r = service.TopK(topk_queries_[qi], opts);
          if (r.ok()) {
            ok_count.fetch_add(1);
            const auto& expected = topk_baselines_[qi];
            if (r.value().results.size() != expected.size()) {
              wrong_results.fetch_add(1);
            } else {
              for (size_t j = 0; j < expected.size(); ++j) {
                if (r.value().results[j].id != expected[j].id) {
                  wrong_results.fetch_add(1);
                  break;
                }
              }
            }
          } else if (expect_interruptible &&
                     (r.status().code() == StatusCode::kCancelled ||
                      r.status().code() == StatusCode::kDeadlineExceeded)) {
            interrupted_count.fetch_add(1);
          } else {
            unexpected_status.fetch_add(1);
          }
        } else {
          const size_t wi = seq % whynot_cases_.size();
          const WhyNotCase& wc = whynot_cases_[wi];
          const auto r =
              service.WhyNot(wc.algorithm, wc.query, wc.missing, {}, opts);
          if (r.ok()) {
            ok_count.fetch_add(1);
            const WhyNotResult& expected = whynot_baselines_[wi];
            if (r.value().result.refined.k != expected.refined.k ||
                r.value().result.refined.penalty != expected.refined.penalty ||
                !(r.value().result.refined.doc == expected.refined.doc)) {
              wrong_results.fetch_add(1);
            }
          } else if (expect_interruptible &&
                     (r.status().code() == StatusCode::kCancelled ||
                      r.status().code() == StatusCode::kDeadlineExceeded)) {
            interrupted_count.fetch_add(1);
          } else {
            unexpected_status.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(wrong_results.load(), 0);
  EXPECT_EQ(unexpected_status.load(), 0);
  // Pre-cancelled requests can never succeed, so some interruptions are
  // guaranteed; deadline outcomes depend on timing and may go either way.
  EXPECT_GT(interrupted_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);

  // Bookkeeping adds up across all clients.
  constexpr uint64_t kTotal = uint64_t{kClients} * kPerClient;
  EXPECT_EQ(service.metrics().counter("requests.total").value(), kTotal);
  EXPECT_EQ(service.metrics().counter("responses.ok").value() +
                service.metrics().counter("responses.cancelled").value() +
                service.metrics().counter("responses.deadline_exceeded").value(),
            kTotal);
  EXPECT_EQ(service.metrics().counter("responses.error").value(), 0u);
  EXPECT_EQ(service.inflight(), 0);
  // Every sink counts each finished request exactly once: the telemetry
  // hub and the two request-latency histograms agree with requests.total.
  EXPECT_EQ(service.telemetry()->stats().requests_observed, kTotal);
  EXPECT_EQ(
      service.metrics().histogram("latency.topk.ms").TakeSnapshot().count +
          service.metrics().histogram("latency.whynot.ms").TakeSnapshot().count,
      kTotal);

  // The repeated queries hit the shared cache (the workload has only a
  // handful of distinct fingerprints).
  EXPECT_GT(service.cache().stats().hits, 0u);

  // The engine survives: no leaked inflight marks, no pinned pages, and
  // answers are still exact.
  EXPECT_EQ(engine_->inflight_queries(), 0);
  EXPECT_TRUE(engine_->DropCaches().ok());
  const auto after = engine_->TopK(topk_queries_[0]).value();
  ASSERT_EQ(after.size(), topk_baselines_[0].size());
  for (size_t j = 0; j < after.size(); ++j) {
    EXPECT_EQ(after[j].id, topk_baselines_[0][j].id);
  }
}

}  // namespace
}  // namespace wsk
