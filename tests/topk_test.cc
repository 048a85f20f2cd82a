#include "index/topk.h"

#include <gtest/gtest.h>

#include "core/whynot_common.h"
#include "data/generator.h"
#include "index/setr_tree.h"
#include "test_util.h"

namespace wsk {
namespace {

using internal::RankFromIndex;
using testing::TempFile;

class TopKTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 250;
    config.vocab_size = 30;
    config.seed = 404;
    dataset_ = GenerateDataset(config);
    file_ = std::make_unique<TempFile>("topk");
    pager_ = Pager::Create(file_->path()).value();
    pool_ = std::make_unique<BufferPool>(pager_.get(), 4u << 20);
    SetRTree::Options options;
    options.capacity = 8;
    tree_ = SetRTree::BulkLoad(dataset_, pool_.get(), options).value();
  }

  SpatialKeywordQuery Query() const {
    SpatialKeywordQuery q;
    q.loc = Point{0.5, 0.5};
    q.doc = dataset_.object(0).doc;
    q.k = 10;
    q.alpha = 0.5;
    return q;
  }

  Dataset dataset_;
  std::unique_ptr<TempFile> file_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<SetRTree> tree_;
};

TEST_F(TopKTest, StreamsInNonIncreasingScoreOrder) {
  TopKIterator it(tree_.get(), Query());
  std::optional<ScoredObject> next;
  double prev = std::numeric_limits<double>::infinity();
  size_t count = 0;
  for (;;) {
    ASSERT_TRUE(it.Next(&next).ok());
    if (!next) break;
    EXPECT_LE(next->score, prev + 1e-12);
    prev = next->score;
    ++count;
  }
  EXPECT_EQ(count, dataset_.size());
  EXPECT_EQ(it.num_emitted(), dataset_.size());
}

TEST_F(TopKTest, StreamExhaustsThenStaysEmpty) {
  TopKIterator it(tree_.get(), Query());
  std::optional<ScoredObject> next;
  for (size_t i = 0; i < dataset_.size(); ++i) {
    ASSERT_TRUE(it.Next(&next).ok());
    ASSERT_TRUE(next.has_value());
  }
  ASSERT_TRUE(it.Next(&next).ok());
  EXPECT_FALSE(next.has_value());
  ASSERT_TRUE(it.Next(&next).ok());
  EXPECT_FALSE(next.has_value());
}

TEST_F(TopKTest, EmitsEveryObjectExactlyOnce) {
  TopKIterator it(tree_.get(), Query());
  std::vector<bool> seen(dataset_.size(), false);
  std::optional<ScoredObject> next;
  for (;;) {
    ASSERT_TRUE(it.Next(&next).ok());
    if (!next) break;
    EXPECT_FALSE(seen[next->id]) << "object emitted twice: " << next->id;
    seen[next->id] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST_F(TopKTest, TieBreakById) {
  // Duplicate objects produce equal scores; the stream must order them by
  // ascending id.
  Dataset d;
  for (int i = 0; i < 5; ++i) d.Add(Point{0.5, 0.5}, KeywordSet{1});
  d.Add(Point{0.9, 0.9}, KeywordSet{2});
  TempFile file("topk_ties");
  auto pager = Pager::Create(file.path()).value();
  BufferPool pool(pager.get(), 1u << 20);
  SetRTree::Options options;
  options.capacity = 4;
  auto tree = SetRTree::BulkLoad(d, &pool, options).value();
  SpatialKeywordQuery q;
  q.loc = Point{0.5, 0.5};
  q.doc = KeywordSet{1};
  q.k = 5;
  q.alpha = 0.5;
  const auto top = IndexTopK(*tree, q).value();
  ASSERT_EQ(top.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(top[i].id, i);
}

TEST_F(TopKTest, RankFromIndexMatchesBruteForce) {
  const SpatialKeywordQuery q = Query();
  for (ObjectId id : std::vector<ObjectId>{0, 17, 101, 249}) {
    const double score = Score(dataset_.object(id), q, dataset_.diagonal());
    bool exceeded = false;
    const uint32_t rank =
        RankFromIndex(*tree_, q, score, 0, &exceeded, nullptr).value();
    EXPECT_FALSE(exceeded);
    EXPECT_EQ(rank, BruteForceRank(dataset_, q, id));
  }
}

TEST_F(TopKTest, RankFromIndexGivesUpAtLimit) {
  const SpatialKeywordQuery q = Query();
  // Worst-ranked object: use a score below everything.
  bool exceeded = false;
  const uint32_t rank =
      RankFromIndex(*tree_, q, -1.0, 10, &exceeded, nullptr).value();
  EXPECT_TRUE(exceeded);
  EXPECT_EQ(rank, 11u);
}

TEST_F(TopKTest, IoErrorsPropagate) {
  ASSERT_TRUE(pool_->InvalidateAll().ok());
  pager_->set_read_fault_hook(
      [](PageId) { return Status::IoError("injected"); });
  TopKIterator it(tree_.get(), Query());
  std::optional<ScoredObject> next;
  const Status s = it.Next(&next);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  pager_->set_read_fault_hook(nullptr);
}

}  // namespace
}  // namespace wsk
