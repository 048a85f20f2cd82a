#include "service/result_cache.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/whynot.h"
#include "data/query.h"

namespace wsk {
namespace {

SpatialKeywordQuery MakeQuery(double x = 0.25, double y = 0.75,
                              uint32_t k = 10, double alpha = 0.5) {
  SpatialKeywordQuery q;
  q.loc = Point{x, y};
  q.k = k;
  q.alpha = alpha;
  q.doc = KeywordSet{3, 1, 7};
  return q;
}

TEST(FingerprintTest, IdenticalQueriesCollide) {
  EXPECT_EQ(FingerprintTopK(MakeQuery()), FingerprintTopK(MakeQuery()));
}

TEST(FingerprintTest, KeywordOrderIsCanonical) {
  SpatialKeywordQuery a = MakeQuery();
  a.doc = KeywordSet{7, 3, 1};
  SpatialKeywordQuery b = MakeQuery();
  b.doc = KeywordSet{1, 1, 3, 7};  // duplicates collapse too
  EXPECT_EQ(FingerprintTopK(a), FingerprintTopK(b));
}

TEST(FingerprintTest, LocationQuantization) {
  // Within a quantum cell: same key. A cell apart: different key.
  EXPECT_EQ(FingerprintTopK(MakeQuery(0.25)),
            FingerprintTopK(MakeQuery(0.25 + kCacheLocationQuantum * 0.2)));
  EXPECT_NE(FingerprintTopK(MakeQuery(0.25)),
            FingerprintTopK(MakeQuery(0.25 + kCacheLocationQuantum * 10)));
}

TEST(FingerprintTest, ParametersThatChangeAnswersChangeKeys) {
  EXPECT_NE(FingerprintTopK(MakeQuery(0.25, 0.75, 10)),
            FingerprintTopK(MakeQuery(0.25, 0.75, 11)));
  EXPECT_NE(FingerprintTopK(MakeQuery(0.25, 0.75, 10, 0.5)),
            FingerprintTopK(MakeQuery(0.25, 0.75, 10, 0.6)));
  SpatialKeywordQuery other_doc = MakeQuery();
  other_doc.doc = KeywordSet{1, 3};
  EXPECT_NE(FingerprintTopK(MakeQuery()), FingerprintTopK(other_doc));
}

TEST(FingerprintTest, TopKAndWhyNotNeverCollide) {
  WhyNotOptions options;
  EXPECT_NE(FingerprintTopK(MakeQuery()),
            FingerprintWhyNot(WhyNotAlgorithm::kKcrBased, MakeQuery(), {1},
                              options));
}

TEST(FingerprintTest, WhyNotMissingSetIsCanonical) {
  WhyNotOptions options;
  const auto a = FingerprintWhyNot(WhyNotAlgorithm::kKcrBased, MakeQuery(),
                                   {5, 2, 9}, options);
  const auto b = FingerprintWhyNot(WhyNotAlgorithm::kKcrBased, MakeQuery(),
                                   {9, 5, 2, 5}, options);
  EXPECT_EQ(a, b);
  const auto c = FingerprintWhyNot(WhyNotAlgorithm::kKcrBased, MakeQuery(),
                                   {5, 2}, options);
  EXPECT_NE(a, c);
}

TEST(FingerprintTest, WhyNotAlgorithmAndLambdaAreKeyed) {
  WhyNotOptions options;
  const auto kcr = FingerprintWhyNot(WhyNotAlgorithm::kKcrBased, MakeQuery(),
                                     {1}, options);
  const auto bs = FingerprintWhyNot(WhyNotAlgorithm::kBasic, MakeQuery(), {1},
                                    options);
  EXPECT_NE(kcr, bs);

  WhyNotOptions other_lambda = options;
  other_lambda.lambda = 0.9;
  EXPECT_NE(kcr, FingerprintWhyNot(WhyNotAlgorithm::kKcrBased, MakeQuery(),
                                   {1}, other_lambda));
}

TEST(FingerprintTest, OptimizationSwitchesAreNotKeyed) {
  // opt_* / num_threads don't change answers (differential-tested), so
  // they must share cache entries.
  WhyNotOptions a;
  WhyNotOptions b;
  b.num_threads = 8;
  b.opt_early_stop = !b.opt_early_stop;
  b.opt_enumeration_order = !b.opt_enumeration_order;
  EXPECT_EQ(FingerprintWhyNot(WhyNotAlgorithm::kAdvanced, MakeQuery(), {1}, a),
            FingerprintWhyNot(WhyNotAlgorithm::kAdvanced, MakeQuery(), {1}, b));
}

std::shared_ptr<const ResultCache::Entry> MakeEntry(double score) {
  auto entry = std::make_shared<ResultCache::Entry>();
  entry->topk.push_back(ScoredObject{0, score});
  return entry;
}

TEST(ResultCacheTest, LookupMissThenHit) {
  ResultCache cache(4);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  cache.Insert("a", MakeEntry(0.5));
  const auto hit = cache.Lookup("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->topk[0].score, 0.5);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Insert("a", MakeEntry(1));
  cache.Insert("b", MakeEntry(2));
  ASSERT_NE(cache.Lookup("a"), nullptr);  // promotes a; b is now coldest
  cache.Insert("c", MakeEntry(3));        // evicts b
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCacheTest, InsertRefreshesExistingKey) {
  ResultCache cache(2);
  cache.Insert("a", MakeEntry(1));
  cache.Insert("a", MakeEntry(9));
  EXPECT_EQ(cache.size(), 1u);
  const auto hit = cache.Lookup("a");
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->topk[0].score, 9);
}

TEST(ResultCacheTest, EvictedEntrySurvivesViaSharedPtr) {
  ResultCache cache(1);
  cache.Insert("a", MakeEntry(1));
  const auto held = cache.Lookup("a");
  cache.Insert("b", MakeEntry(2));  // evicts a
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  ASSERT_NE(held, nullptr);  // the handed-out entry is still intact
  EXPECT_DOUBLE_EQ(held->topk[0].score, 1);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.Insert("a", MakeEntry(1));
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.misses, 0u);  // disabled lookups aren't counted
}

TEST(ResultCacheTest, ClearEmptiesButKeepsStats) {
  ResultCache cache(4);
  cache.Insert("a", MakeEntry(1));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().insertions, 1u);
}

}  // namespace
}  // namespace wsk
