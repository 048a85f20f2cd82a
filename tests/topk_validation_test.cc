// Every backend validates a top-k query before scoring it: alpha outside
// (0, 1) or NaN, and a non-finite location, return kInvalidArgument from
// TopK and from the offending TopKBatch slot, never abort, and leave the
// backend answering the next valid query. The live backends run with an
// inserted delta object, whose scoring path WSK_CHECKs alpha. The index
// entry points under them (IndexTopK, RankFromIndex, ObjectAtPosition)
// reject the same inputs on their own.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/whynot_common.h"
#include "data/generator.h"
#include "index/merged_source.h"
#include "segment/segmented_engine.h"
#include "shard/shard_coordinator.h"

namespace wsk {
namespace {

class TopKValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_objects = 300;
    config.vocab_size = 40;
    config.seed = 909;
    dataset_ = GenerateDataset(config);
  }

  SpatialKeywordQuery Valid() const {
    SpatialKeywordQuery q;
    q.loc = Point{0.5, 0.5};
    q.doc = dataset_.object(3).doc;
    q.k = 5;
    q.alpha = 0.5;
    return q;
  }

  std::vector<SpatialKeywordQuery> Malformed() const {
    std::vector<SpatialKeywordQuery> bad(4, Valid());
    bad[0].alpha = 0.0;
    bad[1].alpha = 1.0;
    bad[2].alpha = std::numeric_limits<double>::quiet_NaN();
    bad[3].loc.x = std::numeric_limits<double>::infinity();
    return bad;
  }

  // Malformed queries fail alone, solo and batched, and the backend still
  // answers a valid query exactly as a valid-only batch slot does.
  void ExpectRejectsMalformed(const QueryBackend& backend) {
    const SpatialKeywordQuery good = Valid();
    for (const SpatialKeywordQuery& q : Malformed()) {
      const auto rejected = backend.TopK(q);
      ASSERT_FALSE(rejected.ok());
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument)
          << rejected.status().ToString();
    }
    const auto served = backend.TopK(good);
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    ASSERT_EQ(served.value().size(), good.k);

    const std::vector<SpatialKeywordQuery> bad = Malformed();
    std::vector<BackendBatchItem> items;
    items.push_back(BackendBatchItem{&good, nullptr});
    for (const SpatialKeywordQuery& q : bad) {
      items.push_back(BackendBatchItem{&q, nullptr});
    }
    const std::vector<BackendBatchResult> results = backend.TopKBatch(items);
    ASSERT_EQ(results.size(), items.size());
    ASSERT_TRUE(results[0].status.ok()) << results[0].status.ToString();
    ASSERT_EQ(results[0].topk.size(), served.value().size());
    for (size_t i = 0; i < served.value().size(); ++i) {
      EXPECT_EQ(results[0].topk[i].id, served.value()[i].id);
      EXPECT_EQ(results[0].topk[i].score, served.value()[i].score);
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status.code(), StatusCode::kInvalidArgument)
          << "slot " << i << ": " << results[i].status.ToString();
    }
  }

  Dataset dataset_;
};

TEST_F(TopKValidationTest, WhyNotEngine) {
  auto engine = WhyNotEngine::Build(&dataset_, {}).value();
  ExpectRejectsMalformed(*engine);
}

TEST_F(TopKValidationTest, LiveSegmentedEngineWithDeltaObject) {
  SegmentedEngine::Config config;
  config.node_capacity = 16;
  config.auto_merge = false;  // keep the inserted object in the delta
  auto engine = SegmentedEngine::Build(dataset_, config).value();
  ASSERT_TRUE(engine->Insert(Point{0.5, 0.5}, {"delta", "object"}).ok());
  ExpectRejectsMalformed(*engine);
}

TEST_F(TopKValidationTest, LiveShardCoordinatorWithDeltaObject) {
  ShardCoordinator::Config config;
  config.num_shards = 3;
  config.live = true;
  config.node_capacity = 16;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(dataset_, config).value();
  ASSERT_TRUE(coordinator->Insert(Point{0.5, 0.5}, {"delta", "object"}).ok());
  ExpectRejectsMalformed(*coordinator);
}

TEST_F(TopKValidationTest, FrozenShardCoordinator) {
  ShardCoordinator::Config config;
  config.num_shards = 3;
  config.node_capacity = 16;
  auto coordinator = ShardCoordinator::Build(dataset_, config).value();
  ExpectRejectsMalformed(*coordinator);
}

// IndexTopK (any k, k = 0 included) and RankFromIndex over the SetR-tree
// and over a merged source whose extra object would otherwise reach
// Score()'s alpha check, and ObjectAtPosition, all answer a malformed
// query with kInvalidArgument and still serve a valid one.
TEST_F(TopKValidationTest, IndexEntryPoints) {
  auto engine = WhyNotEngine::Build(&dataset_, {}).value();
  const SpatialObject extra = dataset_.object(0);
  const MergedTopKSource merged({MergedSegment{&engine->setr_tree(), nullptr}},
                                {&extra}, dataset_.diagonal());
  const std::vector<const TopKSource*> sources = {&engine->setr_tree(),
                                                  &merged};
  for (SpatialKeywordQuery q : Malformed()) {
    for (uint32_t k : {0u, 5u}) {
      q.k = k;
      for (const TopKSource* source : sources) {
        const auto topk = IndexTopK(*source, q);
        ASSERT_FALSE(topk.ok());
        EXPECT_EQ(topk.status().code(), StatusCode::kInvalidArgument)
            << topk.status().ToString();
        bool exceeded = false;
        const auto rank = internal::RankFromIndex(*source, q, 0.5, 0,
                                                  &exceeded, nullptr);
        ASSERT_FALSE(rank.ok());
        EXPECT_EQ(rank.status().code(), StatusCode::kInvalidArgument)
            << rank.status().ToString();
      }
    }
    const auto position = engine->ObjectAtPosition(q, 1);
    ASSERT_FALSE(position.ok());
    EXPECT_EQ(position.status().code(), StatusCode::kInvalidArgument)
        << position.status().ToString();
  }
  for (const TopKSource* source : sources) {
    const auto topk = IndexTopK(*source, Valid());
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    EXPECT_EQ(topk.value().size(), Valid().k);
  }
  EXPECT_TRUE(engine->ObjectAtPosition(Valid(), 1).ok());
}

}  // namespace
}  // namespace wsk
