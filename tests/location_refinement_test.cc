#include "core/location_refinement.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "data/generator.h"
#include "test_util.h"

namespace wsk {
namespace {

Dataset SmallDataset(uint32_t n, uint64_t seed) {
  GeneratorConfig config;
  config.num_objects = n;
  config.vocab_size = 30;
  config.seed = seed;
  return GenerateDataset(config);
}

uint32_t RankWithLoc(const Dataset& dataset,
                     const SpatialKeywordQuery& original, Point loc,
                     const std::vector<ObjectId>& missing) {
  SpatialKeywordQuery q = original;
  q.loc = loc;
  return testing::BruteForceSetRank(dataset, q, missing);
}

TEST(LocationRefinementTest, AlreadyInResult) {
  const Dataset dataset = SmallDataset(100, 1);
  SpatialKeywordQuery q;
  q.loc = dataset.object(3).loc;
  q.doc = dataset.object(3).doc;
  q.k = 10;
  q.alpha = 0.5;
  const auto result =
      RefineLocationApproximate(dataset, q, {3}, 0.5).value();
  EXPECT_TRUE(result.already_in_result);
}

TEST(LocationRefinementTest, RefinedLocationRevivesMissing) {
  const Dataset dataset = SmallDataset(200, 2);
  Rng rng(2);
  int tested = 0;
  for (int iter = 0; iter < 6 && tested < 3; ++iter) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.doc = dataset.object(static_cast<ObjectId>(
                                rng.NextUint64(dataset.size())))
                .doc;
    q.k = 5;
    q.alpha = 0.5;
    SpatialKeywordQuery probe = q;
    probe.k = 25;
    const ObjectId missing = BruteForceTopK(dataset, probe).back().id;
    const auto result =
        RefineLocationApproximate(dataset, q, {missing}, 0.5).value();
    if (result.already_in_result) continue;
    ++tested;
    EXPECT_LE(RankWithLoc(dataset, q, result.loc, {missing}), result.k);
    // Never worse than the basic refinement.
    EXPECT_LE(result.penalty, 0.5 + 1e-12);
    EXPECT_EQ(result.rank, RankWithLoc(dataset, q, result.loc, {missing}));
  }
  EXPECT_GT(tested, 0);
}

TEST(LocationRefinementTest, MovingOntoTheMissingObjectHelps) {
  // One perfect-keyword object far away; moving the query toward it makes
  // it rank 1 with a location-only refinement.
  Dataset dataset;
  const TermId kw = dataset.vocabulary().Intern("match");
  const TermId other = dataset.vocabulary().Intern("other");
  dataset.Add(Point{0.9, 0.0}, KeywordSet{kw});    // missing, far
  dataset.Add(Point{0.05, 0.0}, KeywordSet{kw});   // near competitor
  dataset.Add(Point{0.10, 0.0}, KeywordSet{kw});   // near competitor
  dataset.Add(Point{0.0, 1.0}, KeywordSet{other}); // diagonal spreader
  SpatialKeywordQuery q;
  q.loc = Point{0.0, 0.0};
  q.doc = KeywordSet{kw};
  q.k = 1;
  q.alpha = 0.7;
  // lambda = 1: moving is free, only dk is penalized -> the optimum should
  // revive the object with zero k change by moving toward it.
  const auto result =
      RefineLocationApproximate(dataset, q, {0}, 1.0).value();
  ASSERT_FALSE(result.already_in_result);
  EXPECT_EQ(result.rank, 1u);
  EXPECT_DOUBLE_EQ(result.penalty, 0.0);
  EXPECT_GT(result.loc.x, 0.4);  // moved a long way toward x = 0.9
}

TEST(LocationRefinementTest, MoreSamplesNeverWorse) {
  const Dataset dataset = SmallDataset(150, 5);
  SpatialKeywordQuery q;
  q.loc = Point{0.2, 0.2};
  q.doc = dataset.object(11).doc;
  q.k = 5;
  q.alpha = 0.5;
  SpatialKeywordQuery probe = q;
  probe.k = 30;
  const ObjectId missing = BruteForceTopK(dataset, probe).back().id;
  const auto coarse =
      RefineLocationApproximate(dataset, q, {missing}, 0.5, 8).value();
  const auto fine =
      RefineLocationApproximate(dataset, q, {missing}, 0.5, 256).value();
  if (coarse.already_in_result) GTEST_SKIP();
  // Both sample the same segment, but the local-shrink phase starts from
  // different brackets, so the results are only comparable up to a small
  // tolerance; dense sampling must not be materially worse.
  EXPECT_LE(fine.penalty, coarse.penalty + 1e-3);
  EXPECT_LE(fine.penalty, 0.5 + 1e-12);  // never above the basic refinement
}

TEST(LocationRefinementTest, InvalidInputsRejected) {
  const Dataset dataset = SmallDataset(50, 7);
  SpatialKeywordQuery q;
  q.loc = Point{0.5, 0.5};
  q.doc = dataset.object(0).doc;
  q.k = 5;
  q.alpha = 0.5;
  EXPECT_FALSE(RefineLocationApproximate(dataset, q, {}, 0.5).ok());
  EXPECT_FALSE(RefineLocationApproximate(dataset, q, {9999}, 0.5).ok());
  EXPECT_FALSE(RefineLocationApproximate(dataset, q, {1}, -0.5).ok());
  EXPECT_FALSE(RefineLocationApproximate(dataset, q, {1}, 0.5, 1).ok());
  SpatialKeywordQuery bad = q;
  bad.alpha = 1.0;
  EXPECT_FALSE(RefineLocationApproximate(dataset, bad, {1}, 0.5).ok());
}

// NaN must fail every range test rather than slip through it, and the
// query location must be finite.
TEST(LocationRefinementTest, NonFiniteInputsRejected) {
  const Dataset dataset = SmallDataset(50, 7);
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
    EXPECT_EQ(
        RefineLocationApproximate(dataset, bad, {1}, 0.5).status().code(),
        StatusCode::kInvalidArgument)
        << "alpha " << alpha;
  }
  for (const double lambda : {nan, inf, -inf}) {
    EXPECT_EQ(
        RefineLocationApproximate(dataset, q, {1}, lambda).status().code(),
        StatusCode::kInvalidArgument)
        << "lambda " << lambda;
  }
  for (const Point loc : {Point{nan, 0.5}, Point{0.5, nan}, Point{inf, 0.5},
                          Point{0.5, -inf}}) {
    SpatialKeywordQuery bad = q;
    bad.loc = loc;
    EXPECT_EQ(
        RefineLocationApproximate(dataset, bad, {1}, 0.5).status().code(),
        StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(RefineLocationApproximate(dataset, q, {1}, 0.5).ok());
}

}  // namespace
}  // namespace wsk
