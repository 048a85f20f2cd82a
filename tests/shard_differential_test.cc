// N-shard vs single-engine differential suite (docs/SHARDING.md): the
// ShardCoordinator must be answer-invisible. For 130+ seeded scenarios and
// shard counts {2, 3, 5}, the frozen coordinator's top-k and all three
// why-not algorithms are compared bit for bit against one unsharded
// WhyNotEngine over the same dataset — identical scores and ids under the
// canonical (score desc, id asc) order, identical refined queries and
// penalties. The cross-shard bound pruning and the concatenated why-not
// plan (one MergedTopKSource, one KcR traversal over every shard's trees)
// therefore may reorder work, never answers.
//
// The mutation-interleaved suite drives a *live* sharded coordinator
// (SegmentedEngine per tile, routed mutations, coordinator-allocated ids)
// through seeded insert/update/delete batches and checks every answer
// against the brute force and a from-scratch single engine rebuilt over
// the logical object set — including corpus-wide document frequencies,
// which the shards maintain through one shared vocabulary.
//
// Sharded like differential_oracle_test via GTEST_TOTAL_SHARDS (see
// tests/CMakeLists.txt). Failures print the scenario seed.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "data/query.h"
#include "shard/shard_coordinator.h"
#include "testing/scenario_gen.h"

namespace wsk {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 132;  // inclusive; acceptance floor is 100
constexpr uint64_t kLastMutationSeed = 48;
constexpr uint32_t kShardCounts[] = {2, 3, 5};
constexpr int kBatches = 2;

constexpr WhyNotAlgorithm kAlgorithms[] = {
    WhyNotAlgorithm::kBasic,
    WhyNotAlgorithm::kAdvanced,
    WhyNotAlgorithm::kKcrBased,
};

void ExpectTopKBitIdentical(const std::vector<ScoredObject>& got,
                            const std::vector<ScoredObject>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;
  }
}

void ExpectWhyNotEqual(const WhyNotResult& got, const WhyNotResult& want) {
  EXPECT_EQ(got.already_in_result, want.already_in_result);
  EXPECT_EQ(got.stats.initial_rank, want.stats.initial_rank);
  EXPECT_EQ(got.refined.penalty, want.refined.penalty);  // bit exact
  EXPECT_TRUE(got.refined.doc == want.refined.doc)
      << "got " << got.refined.doc.ToString() << " want "
      << want.refined.doc.ToString();
  EXPECT_EQ(got.refined.k, want.refined.k);
  EXPECT_EQ(got.refined.rank, want.refined.rank);
  EXPECT_EQ(got.refined.edit_distance, want.refined.edit_distance);
}

class ShardDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardDifferentialTest, FrozenCoordinatorMatchesSingleEngine) {
  const uint64_t seed = GetParam();
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, testing::ScenarioOptions{});
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  WhyNotEngine::Config single_config;
  single_config.node_capacity = 16;
  StatusOr<std::unique_ptr<WhyNotEngine>> single =
      WhyNotEngine::Build(&scenario->dataset, single_config);
  ASSERT_TRUE(single.ok()) << single.status().ToString();

  StatusOr<std::vector<ScoredObject>> want_topk =
      single.value()->TopK(scenario->query);
  ASSERT_TRUE(want_topk.ok()) << want_topk.status().ToString();

  std::vector<WhyNotResult> want_whynot;
  for (WhyNotAlgorithm algorithm : kAlgorithms) {
    StatusOr<WhyNotResult> want = single.value()->Answer(
        algorithm, scenario->query, scenario->missing, scenario->options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    want_whynot.push_back(std::move(want).value());
  }

  for (uint32_t num_shards : kShardCounts) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    ShardCoordinator::Config config;
    config.num_shards = num_shards;
    config.node_capacity = 16;
    StatusOr<std::unique_ptr<ShardCoordinator>> coordinator =
        ShardCoordinator::Build(scenario->dataset, config);
    ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

    StatusOr<std::vector<ScoredObject>> topk =
        coordinator.value()->TopK(scenario->query);
    ASSERT_TRUE(topk.ok()) << topk.status().ToString();
    ExpectTopKBitIdentical(topk.value(), want_topk.value());

    for (size_t a = 0; a < std::size(kAlgorithms); ++a) {
      SCOPED_TRACE(WhyNotAlgorithmName(kAlgorithms[a]));
      StatusOr<WhyNotResult> got = coordinator.value()->Answer(
          kAlgorithms[a], scenario->query, scenario->missing,
          scenario->options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectWhyNotEqual(got.value(), want_whynot[a]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDifferentialTest,
                         ::testing::Range<uint64_t>(kFirstSeed, kLastSeed + 1));

// ---------------------------------------------------------------------------
// Mutation-interleaved variant over sharded live SegmentedEngines.

struct ObjectRecord {
  Point loc;
  std::vector<std::string> keywords;
};

// The logical mirror the coordinator is compared against.
using Mirror = std::map<ObjectId, ObjectRecord>;

std::vector<std::string> TermStrings(const Vocabulary& vocabulary,
                                     const KeywordSet& doc) {
  std::vector<std::string> out;
  out.reserve(doc.size());
  for (TermId t : doc) out.push_back(vocabulary.TermString(t));
  return out;
}

Dataset RebuildReference(const ShardCoordinator& coordinator,
                         const Mirror& mirror) {
  Dataset reference;
  reference.vocabulary() = coordinator.vocabulary().CloneDictionary();
  reference.OverrideDiagonal(coordinator.diagonal());
  for (const auto& [id, record] : mirror) {  // std::map: ascending id order
    reference.AddWithId(id, record.loc,
                        reference.vocabulary().InternAll(record.keywords));
  }
  return reference;
}

// Full checkpoint: df reconciliation, top-k vs brute force, all three
// algorithms vs a from-scratch unsharded engine over the same objects.
void RunCheckpoint(const ShardCoordinator& coordinator, const Mirror& mirror,
                   const testing::WhyNotScenario& scenario) {
  const Dataset reference = RebuildReference(coordinator, mirror);

  // The shared vocabulary accumulated document frequencies across every
  // routed mutation; the reference re-recorded them from scratch.
  ASSERT_EQ(coordinator.vocabulary().DocumentFrequencies(),
            reference.vocabulary().DocumentFrequencies());

  StatusOr<std::vector<ScoredObject>> topk = coordinator.TopK(scenario.query);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ExpectTopKBitIdentical(topk.value(),
                         BruteForceTopK(reference, scenario.query));

  WhyNotEngine::Config config;
  config.node_capacity = 16;
  StatusOr<std::unique_ptr<WhyNotEngine>> rebuilt =
      WhyNotEngine::Build(&reference, config);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  for (WhyNotAlgorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
    StatusOr<WhyNotResult> sharded = coordinator.Answer(
        algorithm, scenario.query, scenario.missing, scenario.options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    StatusOr<WhyNotResult> fresh = rebuilt.value()->Answer(
        algorithm, scenario.query, scenario.missing, scenario.options);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ExpectWhyNotEqual(sharded.value(), fresh.value());
  }
}

class ShardMutationDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardMutationDifferentialTest, LiveShardedMatchesRebuiltSingleEngine) {
  const uint64_t seed = GetParam();
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, testing::ScenarioOptions{});
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());
  const uint32_t num_shards = kShardCounts[seed % std::size(kShardCounts)];
  SCOPED_TRACE("shards=" + std::to_string(num_shards));

  Mirror mirror;
  for (const SpatialObject& o : scenario->dataset.objects()) {
    mirror[o.id] =
        ObjectRecord{o.loc, TermStrings(scenario->dataset.vocabulary(),
                                        o.doc)};
  }
  const Rect bounds = scenario->dataset.bounding_rect();

  ShardCoordinator::Config config;
  config.num_shards = num_shards;
  config.live = true;
  config.node_capacity = 16;
  config.delta_capacity = 4 + static_cast<uint32_t>(seed % 13);
  config.auto_merge = (seed % 2) == 0;
  StatusOr<std::unique_ptr<ShardCoordinator>> built =
      ShardCoordinator::Build(scenario->dataset, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardCoordinator* coordinator = built.value().get();

  // The missing objects must survive untouched: their documents pin the
  // why-not instance.
  std::vector<ObjectId> mutable_ids;
  for (const auto& [id, record] : mirror) {
    if (std::find(scenario->missing.begin(), scenario->missing.end(), id) ==
        scenario->missing.end()) {
      mutable_ids.push_back(id);
    }
  }
  const uint64_t width =
      static_cast<uint64_t>(std::max(1.0, bounds.max_x - bounds.min_x));
  const uint64_t height =
      static_cast<uint64_t>(std::max(1.0, bounds.max_y - bounds.min_y));

  Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  for (int batch = 0; batch < kBatches; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const int ops = 6 + static_cast<int>(rng.Next() % 6);
    for (int op = 0; op < ops; ++op) {
      const uint64_t r = rng.Next();
      const Point loc{
          bounds.min_x + static_cast<double>((r >> 16) % (8 * width)) / 8.0,
          bounds.min_y + static_cast<double>((r >> 32) % (8 * height)) / 8.0};
      std::vector<std::string> keywords;
      const uint32_t num_terms = coordinator->vocabulary().num_terms();
      const int nkw = 1 + static_cast<int>(r % 3);
      for (int t = 0; t < nkw; ++t) {
        const uint64_t pick = rng.Next();
        if (pick % 8 == 0) {
          keywords.push_back("live" + std::to_string(pick % 5));
        } else {
          keywords.push_back(coordinator->vocabulary().TermString(
              static_cast<TermId>(pick % num_terms)));
        }
      }
      const int kind = static_cast<int>(r % 10);
      if (kind < 4 || mutable_ids.empty()) {  // insert
        StatusOr<ObjectId> id = coordinator->Insert(loc, keywords);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        EXPECT_GE(coordinator->OwnerShard(id.value()), 0);
        mirror[id.value()] = ObjectRecord{loc, keywords};
        mutable_ids.push_back(id.value());
      } else if (kind < 7) {  // update
        const ObjectId id = mutable_ids[rng.Next() % mutable_ids.size()];
        ASSERT_TRUE(coordinator->Update(id, loc, keywords).ok());
        mirror[id] = ObjectRecord{loc, keywords};
      } else {  // delete
        const size_t pos = rng.Next() % mutable_ids.size();
        const ObjectId id = mutable_ids[pos];
        mutable_ids.erase(mutable_ids.begin() + pos);
        ASSERT_TRUE(coordinator->Delete(id).ok());
        mirror.erase(id);
      }
    }
    RunCheckpoint(*coordinator, mirror, *scenario);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ShardMutationDifferentialTest,
    ::testing::Range<uint64_t>(kFirstSeed, kLastMutationSeed + 1));

}  // namespace
}  // namespace wsk
