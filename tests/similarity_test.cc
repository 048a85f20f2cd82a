#include "text/similarity.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace wsk {
namespace {

TEST(SimilarityTest, JaccardBasics) {
  const KeywordSet a{1, 2, 3};
  const KeywordSet b{2, 3, 4};
  EXPECT_DOUBLE_EQ(TextualSimilarity(a, b), 0.5);
  EXPECT_DOUBLE_EQ(TextualSimilarity(a, a), 1.0);
  EXPECT_DOUBLE_EQ(TextualSimilarity(a, KeywordSet{9}), 0.0);
  EXPECT_DOUBLE_EQ(TextualSimilarity(KeywordSet(), KeywordSet()), 0.0);
}

TEST(SimilarityTest, PaperExampleValues) {
  // Fig. 1(b): TSim against doc0 = {t1, t2}.
  const KeywordSet doc0{1, 2};
  EXPECT_NEAR(TextualSimilarity(KeywordSet{1, 2, 3}, doc0), 0.66, 0.01);
  EXPECT_DOUBLE_EQ(TextualSimilarity(KeywordSet{1}, doc0), 0.5);
  EXPECT_NEAR(TextualSimilarity(KeywordSet{1, 3}, doc0), 0.33, 0.01);
  EXPECT_DOUBLE_EQ(TextualSimilarity(KeywordSet{1, 2}, doc0), 1.0);
}

TEST(SimilarityTest, DiceBasics) {
  const KeywordSet a{1, 2, 3};
  const KeywordSet b{2, 3, 4};
  EXPECT_DOUBLE_EQ(TextualSimilarity(a, b, SimilarityModel::kDice), 4.0 / 6);
  EXPECT_DOUBLE_EQ(TextualSimilarity(a, a, SimilarityModel::kDice), 1.0);
}

TEST(SimilarityTest, OverlapBasics) {
  const KeywordSet a{1, 2, 3};
  const KeywordSet b{2, 3};
  EXPECT_DOUBLE_EQ(TextualSimilarity(a, b, SimilarityModel::kOverlap), 1.0);
  EXPECT_DOUBLE_EQ(TextualSimilarity(a, KeywordSet{3, 9},
                                     SimilarityModel::kOverlap),
                   0.5);
}

TEST(SimilarityTest, ModelNames) {
  EXPECT_STREQ(SimilarityModelName(SimilarityModel::kJaccard), "jaccard");
  EXPECT_STREQ(SimilarityModelName(SimilarityModel::kDice), "dice");
  EXPECT_STREQ(SimilarityModelName(SimilarityModel::kOverlap), "overlap");
}

// Property: the Theorem 1 node bound dominates the exact similarity of any
// "object" set sandwiched between a random intersection and union set.
class NodeBoundProperty
    : public ::testing::TestWithParam<SimilarityModel> {};

TEST_P(NodeBoundProperty, BoundsSandwichedObjects) {
  const SimilarityModel model = GetParam();
  Rng rng(123);
  for (int iter = 0; iter < 300; ++iter) {
    // Build inter ⊆ object ⊆ union over a small universe.
    std::vector<TermId> inter_v, object_v, union_v, query_v;
    for (TermId t = 0; t < 14; ++t) {
      const double roll = rng.NextDouble();
      if (roll < 0.2) {
        inter_v.push_back(t);
        object_v.push_back(t);
        union_v.push_back(t);
      } else if (roll < 0.45) {
        object_v.push_back(t);
        union_v.push_back(t);
      } else if (roll < 0.7) {
        union_v.push_back(t);
      }
      if (rng.NextBool(0.4)) query_v.push_back(t);
    }
    if (object_v.empty() || query_v.empty()) continue;
    const KeywordSet inter(std::move(inter_v));
    const KeywordSet object(std::move(object_v));
    const KeywordSet uni(std::move(union_v));
    const KeywordSet query(std::move(query_v));

    const double exact = TextualSimilarity(object, query, model);
    const double bound = NodeSimilarityUpperBound(
        uni.IntersectionSize(query), inter.UnionSize(query), inter.size(),
        query.size(), model);
    EXPECT_GE(bound + 1e-12, exact)
        << "model=" << SimilarityModelName(model)
        << " object=" << object.ToString() << " query=" << query.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, NodeBoundProperty,
                         ::testing::Values(SimilarityModel::kJaccard,
                                           SimilarityModel::kDice,
                                           SimilarityModel::kOverlap));

// Regression: the Dice and Overlap node bounds used to exceed 1.0 when the
// node's union set intersected the query in more terms than the raw
// denominator — e.g. Overlap with |N_u ∩ q| = 4, |N_i| = 1, |q| = 4 gave
// 4/1 = 4.0. Similarity is capped at 1, so a bound above 1 is pure slack
// (and breaks callers that treat bounds as similarities, e.g. score
// composition against 1 - sdist). All models must stay within [0, 1].
TEST(NodeSimilarityUpperBoundTest, NeverExceedsOne) {
  for (size_t union_inter_query = 0; union_inter_query <= 12;
       ++union_inter_query) {
    for (size_t inter_union_query = 1; inter_union_query <= 12;
         ++inter_union_query) {
      for (size_t inter_size = 0; inter_size <= 6; ++inter_size) {
        for (size_t query_size = 0; query_size <= 6; ++query_size) {
          for (const SimilarityModel model :
               {SimilarityModel::kJaccard, SimilarityModel::kDice,
                SimilarityModel::kOverlap}) {
            const double bound = NodeSimilarityUpperBound(
                union_inter_query, inter_union_query, inter_size, query_size,
                model);
            EXPECT_GE(bound, 0.0);
            EXPECT_LE(bound, 1.0)
                << SimilarityModelName(model) << " u∩q=" << union_inter_query
                << " i∪q=" << inter_union_query << " |i|=" << inter_size
                << " |q|=" << query_size;
          }
        }
      }
    }
  }
  // The concrete case from the bug report: Overlap bound 4/1 before the fix.
  EXPECT_EQ(NodeSimilarityUpperBound(4, 5, 1, 4, SimilarityModel::kOverlap),
            1.0);
}


// The length-aware bound at hand-checked points: ℓ_(j) from the sorted
// counts, max(j, ℓ_(j)) when codes tie or fall below j, and no bite on
// Overlap.
TEST(LengthAwareUpperBoundTest, HandCheckedValues) {
  LengthCounts counts{};
  EXPECT_EQ(LengthAwareUpperBound(counts, 3, SimilarityModel::kJaccard), 0.0);
  counts[2] = 1;
  counts[5] = 1;
  // j = 1: 1 / (2 + 3 - 1); j = 2: 2 / (5 + 3 - 2).
  EXPECT_EQ(LengthAwareUpperBound(counts, 3, SimilarityModel::kJaccard),
            2.0 / 6);
  // j = 1: 2 / (2 + 3); j = 2: 4 / (5 + 3).
  EXPECT_EQ(LengthAwareUpperBound(counts, 3, SimilarityModel::kDice), 0.5);
  EXPECT_EQ(LengthAwareUpperBound(counts, 3, SimilarityModel::kOverlap), 1.0);

  // Three query terms tied at ℓ = 3: the query itself may be a document.
  counts = LengthCounts{};
  counts[3] = 3;
  EXPECT_EQ(LengthAwareUpperBound(counts, 3, SimilarityModel::kJaccard), 1.0);
  // Codes below j: the object still holds j terms.
  counts = LengthCounts{};
  counts[1] = 2;
  EXPECT_EQ(LengthAwareUpperBound(counts, 4, SimilarityModel::kJaccard), 0.5);
  // A capped code bounds a 40-term document by 1 / 15.
  counts = LengthCounts{};
  counts[LengthCode(40)] = 1;
  EXPECT_EQ(LengthCode(40), kMaxLengthCode);
  EXPECT_EQ(LengthAwareUpperBound(counts, 1, SimilarityModel::kJaccard),
            1.0 / 15);
  EXPECT_GE(LengthAwareUpperBound(counts, 1, SimilarityModel::kJaccard),
            TextualSimilarity(KeywordSet{1}, KeywordSet{1, 2, 3, 4, 5, 6, 7,
                                                        8, 9, 10, 11, 12, 13,
                                                        14, 15, 16, 17, 18,
                                                        19, 20}));
}

// The combined bound reads the codes parallel to the union's terms.
TEST(LengthAwareUpperBoundTest, NodeBoundTakesTheMin) {
  const KeywordSet uni{2, 4, 6, 8};
  const uint8_t min_len[] = {1, 9, 3, 15};
  const KeywordSet inter;
  const KeywordSet query{4, 8, 11};
  // Theorem 1 alone: 2 / 3. Length-aware: j = 1 at ℓ 9: 1 / 11; j = 2 at
  // ℓ 15: 2 / 16.
  EXPECT_EQ(NodeSimilarityUpperBound(uni, min_len, inter, query,
                                     SimilarityModel::kJaccard),
            2.0 / 16);
  EXPECT_EQ(NodeSimilarityUpperBound(uni, min_len, inter, query,
                                     SimilarityModel::kOverlap),
            NodeSimilarityUpperBound(2, 3, 0, 3, SimilarityModel::kOverlap));
}

}  // namespace
}  // namespace wsk
