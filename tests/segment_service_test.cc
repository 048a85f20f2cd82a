// QueryService over a live SegmentedEngine backend (docs/SERVICE.md
// "Mutations and cache invalidation"): the mutation entry points work end
// to end, cached pre-mutation answers are never served after a mutation
// (version-keyed fingerprints), read-only backends keep rejecting writes
// through the service, and the segment counters surface in both metric
// report formats.
#include "service/query_service.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "segment/segmented_engine.h"

namespace wsk {
namespace {

class SegmentServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 400;
    config.vocab_size = 60;
    config.seed = 4242;
    dataset_ = GenerateDataset(config);

    SegmentedEngine::Config engine_config;
    engine_config.node_capacity = 16;
    engine_config.delta_capacity = 32;
    engine_config.auto_merge = false;  // deterministic segment counts
    engine_ = SegmentedEngine::Build(dataset_, engine_config).value();
  }

  SpatialKeywordQuery Query() const {
    SpatialKeywordQuery q;
    q.loc = Point{0.5, 0.5};
    std::vector<TermId> terms(dataset_.object(7).doc.begin(),
                              dataset_.object(7).doc.end());
    if (terms.size() > 3) terms.resize(3);
    q.doc = KeywordSet(std::move(terms));
    q.k = 5;
    q.alpha = 0.5;
    return q;
  }

  // Keyword strings of the query's terms: an object carrying all of them
  // placed at the query point scores 1.0 and must enter the top-k.
  std::vector<std::string> QueryKeywords(const SpatialKeywordQuery& q) const {
    std::vector<std::string> out;
    for (TermId t : q.doc) out.push_back(dataset_.vocabulary().TermString(t));
    return out;
  }

  Dataset dataset_;
  std::unique_ptr<SegmentedEngine> engine_;
};

TEST_F(SegmentServiceTest, MutationsRoundTripThroughService) {
  QueryService service(engine_.get(), {});
  const uint64_t v0 = engine_->dataset_version();

  const auto inserted =
      service.Insert(Point{0.1, 0.1}, {"alpha", "beta"});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_GT(inserted.value().dataset_version, v0);
  EXPECT_GE(inserted.value().latency_ms, 0.0);
  const ObjectId id = inserted.value().id;

  const auto updated = service.Update(id, Point{0.2, 0.2}, {"alpha"});
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated.value().id, id);
  EXPECT_GT(updated.value().dataset_version,
            inserted.value().dataset_version);

  const auto deleted = service.Delete(id);
  ASSERT_TRUE(deleted.ok()) << deleted.status().ToString();
  EXPECT_EQ(deleted.value().id, id);
  EXPECT_GT(deleted.value().dataset_version,
            updated.value().dataset_version);

  // Failed mutations surface the backend's status and count separately.
  EXPECT_EQ(service.Delete(id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.metrics().counter("mutations.insert").value(), 1u);
  EXPECT_EQ(service.metrics().counter("mutations.update").value(), 1u);
  EXPECT_EQ(service.metrics().counter("mutations.delete").value(), 1u);
  EXPECT_EQ(service.metrics().counter("mutations.failed").value(), 1u);
}

// The regression the version-keyed fingerprints exist for: answer, cache,
// mutate something that changes the answer, ask again — the service must
// return the fresh answer, not the cached pre-mutation one.
TEST_F(SegmentServiceTest, StaleCachedResultsAreNeverServedAfterMutation) {
  QueryService service(engine_.get(), {});
  const SpatialKeywordQuery query = Query();

  const auto before = service.TopK(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_FALSE(before.value().cache_hit);
  const auto repeat = service.TopK(query);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat.value().cache_hit);  // cache demonstrably works

  // A perfect-score object: exactly the query's keywords at the query
  // point. It must displace the old top-1.
  const auto inserted = service.Insert(query.loc, QueryKeywords(query));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  const auto after = service.TopK(query);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after.value().cache_hit);  // old entry is unreachable
  ASSERT_FALSE(after.value().results.empty());
  EXPECT_EQ(after.value().results[0].id, inserted.value().id);
  ASSERT_FALSE(before.value().results.empty());
  EXPECT_NE(after.value().results[0].id, before.value().results[0].id);

  // Why-not answers are version-keyed the same way: a cached answer is
  // only reachable at the version it was computed under.
  const auto post = service.TopK(query);
  ASSERT_TRUE(post.ok());
  EXPECT_TRUE(post.value().cache_hit);  // fresh answer re-cached
}

TEST_F(SegmentServiceTest, FingerprintEmbedsDatasetVersion) {
  const SpatialKeywordQuery query = Query();
  const std::string v1 = FingerprintTopK(query, 1);
  const std::string v2 = FingerprintTopK(query, 2);
  EXPECT_NE(v1, v2);
  // Default version 0 == legacy key: read-only backends are unchanged.
  EXPECT_EQ(FingerprintTopK(query), FingerprintTopK(query, 0));

  WhyNotOptions options;
  const std::string w1 = FingerprintWhyNot(WhyNotAlgorithm::kAdvanced, query,
                                           {3}, options, 1);
  const std::string w2 = FingerprintWhyNot(WhyNotAlgorithm::kAdvanced, query,
                                           {3}, options, 2);
  EXPECT_NE(w1, w2);
  EXPECT_EQ(FingerprintWhyNot(WhyNotAlgorithm::kAdvanced, query, {3}, options),
            FingerprintWhyNot(WhyNotAlgorithm::kAdvanced, query, {3}, options,
                              0));
}

TEST_F(SegmentServiceTest, ReadOnlyBackendRejectsMutationsThroughService) {
  std::unique_ptr<WhyNotEngine> frozen =
      WhyNotEngine::Build(&dataset_, {}).value();
  QueryService service(frozen.get(), {});

  EXPECT_EQ(service.Insert(Point{0.0, 0.0}, {"x"}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Update(0, Point{0.0, 0.0}, {"x"}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Delete(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.metrics().counter("mutations.failed").value(), 3u);

  // Static backends report no segment counters, and the reports omit the
  // segment section.
  EXPECT_EQ(service.MetricsReport().find("segments  frozen"),
            std::string::npos);
  EXPECT_EQ(service.PrometheusReport().find("wsk_segment_"),
            std::string::npos);
}

TEST_F(SegmentServiceTest, SegmentCountersSurfaceInReports) {
  QueryService service(engine_.get(), {});
  ASSERT_TRUE(service.Insert(Point{0.3, 0.3}, {"gamma"}).ok());

  const std::string report = service.MetricsReport();
  EXPECT_NE(report.find("segments  frozen"), std::string::npos) << report;
  EXPECT_NE(report.find("compaction"), std::string::npos) << report;

  const std::string prom = service.PrometheusReport();
  EXPECT_NE(prom.find("wsk_segment_inserts_total"), std::string::npos);
  EXPECT_NE(prom.find("wsk_segment_live_objects"), std::string::npos);
  EXPECT_NE(prom.find("wsk_segment_dataset_version"), std::string::npos);
}

}  // namespace
}  // namespace wsk
