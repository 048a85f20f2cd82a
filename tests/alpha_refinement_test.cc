#include "core/alpha_refinement.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "data/generator.h"
#include "test_util.h"

namespace wsk {
namespace {

// Dense-grid reference: evaluate the penalty at many alphas and keep the
// best. The exact sweep must never be worse.
double GridReference(const Dataset& dataset,
                     const SpatialKeywordQuery& original,
                     const std::vector<ObjectId>& missing, double lambda,
                     uint32_t initial_rank) {
  const double normalizer = std::max(original.alpha, 1.0 - original.alpha);
  double best = lambda;  // basic refinement
  for (int i = 1; i < 999; ++i) {
    SpatialKeywordQuery q = original;
    q.alpha = i / 1000.0;
    if (q.alpha < 0.01 || q.alpha > 0.99) continue;
    const uint32_t rank = testing::BruteForceSetRank(dataset, q, missing);
    const double dk =
        rank > original.k ? static_cast<double>(rank - original.k) : 0.0;
    const double penalty =
        lambda * dk / (initial_rank - original.k) +
        (1.0 - lambda) * std::abs(q.alpha - original.alpha) / normalizer;
    best = std::min(best, penalty);
  }
  return best;
}

Dataset SmallDataset(uint32_t n, uint64_t seed) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = 30;
  config.seed = seed;
  return GenerateDataset(config);
}

TEST(AlphaRefinementTest, AlreadyInResult) {
  const Dataset dataset = SmallDataset(100, 1);
  SpatialKeywordQuery q;
  q.loc = dataset.object(5).loc;
  q.doc = dataset.object(5).doc;
  q.k = 10;
  q.alpha = 0.5;
  const auto result = RefineAlpha(dataset, q, {5}, 0.5).value();
  EXPECT_TRUE(result.already_in_result);
  EXPECT_DOUBLE_EQ(result.penalty, 0.0);
}

TEST(AlphaRefinementTest, RefinedQueryRevivesMissing) {
  const Dataset dataset = SmallDataset(200, 2);
  Rng rng(2);
  for (int iter = 0; iter < 5; ++iter) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.doc = dataset.object(static_cast<ObjectId>(
                                rng.NextUint64(dataset.size())))
                .doc;
    q.k = 5;
    q.alpha = 0.5;
    // The 20th object of the ranking is missing.
    std::vector<ScoredObject> top = BruteForceTopK(dataset, [&] {
      SpatialKeywordQuery big = q;
      big.k = 20;
      return big;
    }());
    const ObjectId missing = top.back().id;
    const auto result = RefineAlpha(dataset, q, {missing}, 0.5).value();
    if (result.already_in_result) continue;
    SpatialKeywordQuery refined = q;
    refined.alpha = result.alpha;
    EXPECT_LE(testing::BruteForceSetRank(dataset, refined, {missing}),
              result.k);
    EXPECT_LE(result.penalty, 0.5 + 1e-12);  // never worse than basic
  }
}

TEST(AlphaRefinementTest, MatchesDenseGridReference) {
  const Dataset dataset = SmallDataset(150, 3);
  Rng rng(3);
  for (double lambda : {0.2, 0.5, 0.8}) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.doc = dataset.object(7).doc;
    q.k = 5;
    q.alpha = 0.5;
    SpatialKeywordQuery probe = q;
    probe.k = 25;
    const ObjectId missing = BruteForceTopK(dataset, probe).back().id;
    const auto result = RefineAlpha(dataset, q, {missing}, lambda).value();
    if (result.already_in_result) continue;
    const double reference = GridReference(dataset, q, {missing}, lambda,
                                           result.initial_rank);
    // The sweep is exact; the grid can only be equal or slightly worse.
    EXPECT_LE(result.penalty, reference + 1e-9) << "lambda=" << lambda;
  }
}

TEST(AlphaRefinementTest, SpatialMismatchFixedByRaisingAlpha) {
  // The missing object is textually disjoint from the query but nearby;
  // pushing alpha toward the spatial side revives it.
  Dataset dataset;
  const TermId kw = dataset.vocabulary().Intern("query");
  const TermId other = dataset.vocabulary().Intern("other");
  dataset.Add(Point{0.30, 0.0}, KeywordSet{kw});    // far but matching
  dataset.Add(Point{0.02, 0.0}, KeywordSet{other}); // near, no match
  dataset.Add(Point{1.00, 0.0}, KeywordSet{other}); // diagonal anchor
  SpatialKeywordQuery q;
  q.loc = Point{0.0, 0.0};
  q.doc = KeywordSet{kw};
  q.k = 1;
  q.alpha = 0.3;  // textual-leaning: object 0 wins
  const auto result = RefineAlpha(dataset, q, {1}, 0.5).value();
  ASSERT_FALSE(result.already_in_result);
  EXPECT_GT(result.alpha, q.alpha);  // moved toward spatial
  SpatialKeywordQuery refined = q;
  refined.alpha = result.alpha;
  EXPECT_LE(testing::BruteForceSetRank(dataset, refined, {1}), result.k);
}

TEST(AlphaRefinementTest, MultipleMissingObjects) {
  const Dataset dataset = SmallDataset(200, 4);
  SpatialKeywordQuery q;
  q.loc = Point{0.4, 0.6};
  q.doc = dataset.object(9).doc;
  q.k = 5;
  q.alpha = 0.5;
  SpatialKeywordQuery probe = q;
  probe.k = 30;
  const auto stream = BruteForceTopK(dataset, probe);
  const std::vector<ObjectId> missing{stream[14].id, stream[29].id};
  const auto result = RefineAlpha(dataset, q, missing, 0.5).value();
  if (result.already_in_result) GTEST_SKIP();
  SpatialKeywordQuery refined = q;
  refined.alpha = result.alpha;
  for (ObjectId m : missing) {
    EXPECT_LE(BruteForceRank(dataset, refined, m), result.k);
  }
}

TEST(AlphaRefinementTest, InvalidInputsRejected) {
  const Dataset dataset = SmallDataset(50, 5);
  SpatialKeywordQuery q;
  q.loc = Point{0.5, 0.5};
  q.doc = dataset.object(0).doc;
  q.k = 5;
  q.alpha = 0.5;
  EXPECT_FALSE(RefineAlpha(dataset, q, {}, 0.5).ok());
  EXPECT_FALSE(RefineAlpha(dataset, q, {9999}, 0.5).ok());
  EXPECT_FALSE(RefineAlpha(dataset, q, {1}, 1.5).ok());
  SpatialKeywordQuery bad = q;
  bad.alpha = 0.0;
  EXPECT_FALSE(RefineAlpha(dataset, bad, {1}, 0.5).ok());
  EXPECT_FALSE(RefineAlpha(dataset, q, {1}, 0.5, 0.9, 0.2).ok());
}

// NaN must fail every range test rather than slip through it, and the
// query location must be finite.
TEST(AlphaRefinementTest, NonFiniteInputsRejected) {
  const Dataset dataset = SmallDataset(50, 5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  SpatialKeywordQuery q;
  q.loc = Point{0.5, 0.5};
  q.doc = dataset.object(0).doc;
  q.k = 5;
  q.alpha = 0.5;
  for (const double alpha : {nan, inf, -inf}) {
    SpatialKeywordQuery bad = q;
    bad.alpha = alpha;
    EXPECT_EQ(RefineAlpha(dataset, bad, {1}, 0.5).status().code(),
              StatusCode::kInvalidArgument)
        << "alpha " << alpha;
  }
  for (const double lambda : {nan, inf, -inf}) {
    EXPECT_EQ(RefineAlpha(dataset, q, {1}, lambda).status().code(),
              StatusCode::kInvalidArgument)
        << "lambda " << lambda;
  }
  for (const Point loc : {Point{nan, 0.5}, Point{0.5, nan}, Point{inf, 0.5},
                          Point{0.5, -inf}}) {
    SpatialKeywordQuery bad = q;
    bad.loc = loc;
    EXPECT_EQ(RefineAlpha(dataset, bad, {1}, 0.5).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(RefineAlpha(dataset, q, {1}, 0.5, nan, 0.9).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RefineAlpha(dataset, q, {1}, 0.5, 0.1, nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(RefineAlpha(dataset, q, {1}, 0.5).ok());
}

}  // namespace
}  // namespace wsk
