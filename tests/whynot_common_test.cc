#include "core/whynot_common.h"

#include <gtest/gtest.h>

#include <limits>

#include "data/generator.h"
#include "index/setr_tree.h"
#include "test_util.h"

namespace wsk {
namespace {

using internal::MissingSet;
using internal::RankFromIndex;
using internal::ValidateWhyNotInput;
using testing::TempFile;

TEST(MissingSetTest, BuildCollectsDocsAndUnion) {
  Dataset d;
  d.Add(Point{0, 0}, KeywordSet{1, 2});
  d.Add(Point{1, 0}, KeywordSet{2, 3});
  d.Add(Point{0, 1}, KeywordSet{4});
  const MissingSet set = MissingSet::Build(d, {0, 2}).value();
  EXPECT_EQ(set.size(), 2u);
  EXPECT_EQ(set.union_doc, (KeywordSet{1, 2, 4}));
  EXPECT_EQ(*set.docs[0], (KeywordSet{1, 2}));
}

TEST(MissingSetTest, DuplicatesIgnored) {
  Dataset d;
  d.Add(Point{0, 0}, KeywordSet{1});
  d.Add(Point{1, 0}, KeywordSet{2});
  const MissingSet set = MissingSet::Build(d, {0, 0, 1, 0}).value();
  EXPECT_EQ(set.size(), 2u);
}

TEST(MissingSetTest, RejectsBadIds) {
  Dataset d;
  d.Add(Point{0, 0}, KeywordSet{1});
  EXPECT_FALSE(MissingSet::Build(d, {5}).ok());
  EXPECT_FALSE(MissingSet::Build(d, {}).ok());
}

TEST(MissingSetTest, MinScoreIsWorstMissing) {
  Dataset d;
  d.Add(Point{0.1, 0}, KeywordSet{1});   // near: higher score
  d.Add(Point{0.9, 0}, KeywordSet{1});   // far: lower score
  d.Add(Point{1.0, 1.0}, KeywordSet{2});
  const MissingSet set = MissingSet::Build(d, {0, 1}).value();
  SpatialKeywordQuery q;
  q.loc = Point{0, 0};
  q.doc = KeywordSet{1};
  q.alpha = 0.5;
  const double min_score = set.MinScore(q, d.diagonal());
  EXPECT_DOUBLE_EQ(min_score, Score(d.object(1), q, d.diagonal()));
}

TEST(ValidateTest, AcceptsSaneInput) {
  SpatialKeywordQuery q;
  q.doc = KeywordSet{1};
  q.k = 5;
  q.alpha = 0.5;
  WhyNotOptions options;
  EXPECT_TRUE(ValidateWhyNotInput(q, {1}, options, 100).ok());
}

TEST(ValidateTest, RejectsOutOfDomain) {
  SpatialKeywordQuery good;
  good.doc = KeywordSet{1};
  good.k = 5;
  good.alpha = 0.5;
  WhyNotOptions options;

  SpatialKeywordQuery q = good;
  q.alpha = 0.0;
  EXPECT_FALSE(ValidateWhyNotInput(q, {1}, options, 100).ok());
  q = good;
  q.doc = KeywordSet();
  EXPECT_FALSE(ValidateWhyNotInput(q, {1}, options, 100).ok());
  q = good;
  q.k = 0;
  EXPECT_FALSE(ValidateWhyNotInput(q, {1}, options, 100).ok());
  EXPECT_FALSE(ValidateWhyNotInput(good, {}, options, 100).ok());
  WhyNotOptions bad_options;
  bad_options.lambda = -0.1;
  EXPECT_FALSE(ValidateWhyNotInput(good, {1}, bad_options, 100).ok());
  bad_options = options;
  bad_options.num_threads = -1;
  EXPECT_FALSE(ValidateWhyNotInput(good, {1}, bad_options, 100).ok());
  // Validation only: none of these starts a thread.
  for (int threads : {kMaxWhyNotThreads + 1, 1000000}) {
    bad_options.num_threads = threads;
    EXPECT_EQ(ValidateWhyNotInput(good, {1}, bad_options, 100).code(),
              StatusCode::kInvalidArgument)
        << threads;
  }
  bad_options.num_threads = kMaxWhyNotThreads;
  EXPECT_TRUE(ValidateWhyNotInput(good, {1}, bad_options, 100).ok());

  // Non-finite inputs fail every range test instead of slipping past it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  q = good;
  q.alpha = nan;
  EXPECT_EQ(ValidateWhyNotInput(q, {1}, options, 100).code(),
            StatusCode::kInvalidArgument);
  bad_options = options;
  bad_options.lambda = nan;
  EXPECT_EQ(ValidateWhyNotInput(good, {1}, bad_options, 100).code(),
            StatusCode::kInvalidArgument);
  for (const Point loc : {Point{nan, 0.5}, Point{0.5, nan}, Point{inf, 0.5},
                          Point{0.5, -inf}}) {
    q = good;
    q.loc = loc;
    EXPECT_EQ(ValidateWhyNotInput(q, {1}, options, 100).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(ValidateWhyNotInput(good, {1}, options, 100).ok());
}

class RankFromIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 200;
    config.vocab_size = 30;
    config.seed = 55;
    dataset_ = GenerateDataset(config);
    file_ = std::make_unique<TempFile>("rank_idx");
    pager_ = Pager::Create(file_->path()).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    tree_ = SetRTree::BulkLoad(dataset_, pool_.get(), options).value();
  }

  Dataset dataset_;
  std::unique_ptr<TempFile> file_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<SetRTree> tree_;
};

TEST_F(RankFromIndexTest, MatchesBruteForceSetRank) {
  SpatialKeywordQuery q;
  q.loc = Point{0.3, 0.3};
  q.doc = dataset_.object(4).doc;
  q.alpha = 0.5;
  const std::vector<ObjectId> missing{10, 60, 120};
  const MissingSet set = MissingSet::Build(dataset_, missing).value();
  const double min_score = set.MinScore(q, tree_->diagonal());
  bool exceeded = false;
  const uint32_t rank =
      RankFromIndex(*tree_, q, min_score, 0, &exceeded, nullptr).value();
  EXPECT_FALSE(exceeded);
  EXPECT_EQ(rank, testing::BruteForceSetRank(dataset_, q, missing));
}

TEST_F(RankFromIndexTest, CollectsDominators) {
  SpatialKeywordQuery q;
  q.loc = Point{0.3, 0.3};
  q.doc = dataset_.object(4).doc;
  q.alpha = 0.5;
  const double target = Score(dataset_.object(100), q, tree_->diagonal());
  bool exceeded = false;
  std::vector<ObjectId> dominators;
  const uint32_t rank =
      RankFromIndex(*tree_, q, target, 0, &exceeded, &dominators).value();
  EXPECT_EQ(dominators.size() + 1, rank);
  for (ObjectId id : dominators) {
    EXPECT_GT(Score(dataset_.object(id), q, tree_->diagonal()), target);
  }
}

TEST_F(RankFromIndexTest, LimitShortCircuits) {
  SpatialKeywordQuery q;
  q.loc = Point{0.3, 0.3};
  q.doc = dataset_.object(4).doc;
  q.alpha = 0.5;
  bool exceeded = false;
  const uint32_t rank =
      RankFromIndex(*tree_, q, -10.0, 5, &exceeded, nullptr).value();
  EXPECT_TRUE(exceeded);
  EXPECT_EQ(rank, 6u);
}

}  // namespace
}  // namespace wsk
