// Batched-vs-solo differential suite (docs/BATCHING.md): for 120 seeded
// scenarios, a pool of derived queries runs through QueryBackend::TopKBatch
// at batch sizes {2, 4, 8} on all three backends — frozen WhyNotEngine,
// live SegmentedEngine (with mutations applied so delta segments and
// tombstones participate), a frozen 3-shard ShardCoordinator, and a live
// 3-shard one under the same mutations (its batch is one merged walk over
// every shard's frozen segment, tombstones and deltas, its solo TopK the
// parallel shard fan-out) — and every slot is compared bit for bit (ids
// and score doubles) against the same backend's solo TopK. A second pass
// injects a pre-cancelled token and an expired deadline mid-batch and
// checks the failed slots' statuses while the surviving slots stay
// bit-exact.
//
// Sharded like differential_oracle_test via GTEST_TOTAL_SHARDS (see
// tests/CMakeLists.txt). Failures print the scenario seed.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "core/engine.h"
#include "data/query.h"
#include "segment/segmented_engine.h"
#include "shard/shard_coordinator.h"
#include "testing/scenario_gen.h"

namespace wsk {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 120;  // inclusive
constexpr size_t kBatchSizes[] = {2, 4, 8};

void ExpectBitIdentical(const std::vector<ScoredObject>& got,
                        const std::vector<ScoredObject>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "position " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "position " << i;
  }
}

// Eight derived queries spanning k, alpha, location, doc, and similarity
// model — deterministic functions of the scenario query.
std::vector<SpatialKeywordQuery> DeriveQueries(
    const testing::WhyNotScenario& scenario) {
  const SpatialKeywordQuery& base = scenario.query;
  std::vector<SpatialKeywordQuery> queries(8, base);
  queries[1].k = 1;
  queries[2].k = base.k + 5;
  queries[3].alpha = 0.3;
  queries[4].alpha = 0.7;
  queries[5].loc = Point{base.loc.x * 0.9 + 0.05, base.loc.y * 0.9 + 0.02};
  if (base.doc.size() > 2) {
    std::vector<TermId> head(base.doc.begin(), base.doc.end());
    head.resize(2);
    queries[6].doc = KeywordSet(std::move(head));
  } else {
    queries[6].k = base.k + 1;
  }
  queries[7].model = SimilarityModel::kDice;  // mixed-model batches
  return queries;
}

// Solo-vs-batched differential over one backend.
void RunDifferential(const QueryBackend& backend,
                     const std::vector<SpatialKeywordQuery>& queries) {
  std::vector<std::vector<ScoredObject>> solo;
  for (const SpatialKeywordQuery& q : queries) {
    StatusOr<std::vector<ScoredObject>> got = backend.TopK(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    solo.push_back(std::move(got).value());
  }
  for (size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    for (size_t start = 0; start < queries.size(); start += batch_size) {
      const size_t end = std::min(start + batch_size, queries.size());
      std::vector<BackendBatchItem> items;
      for (size_t i = start; i < end; ++i) {
        items.push_back(BackendBatchItem{&queries[i], nullptr});
      }
      std::vector<BackendBatchResult> batched = backend.TopKBatch(items);
      ASSERT_EQ(batched.size(), items.size());
      for (size_t i = start; i < end; ++i) {
        SCOPED_TRACE("query=" + std::to_string(i));
        ASSERT_TRUE(batched[i - start].status.ok())
            << batched[i - start].status.ToString();
        ExpectBitIdentical(batched[i - start].topk, solo[i]);
      }
    }
  }
}

// A batch where slot 1 is pre-cancelled and slot 2 carries an expired
// deadline: the two failed slots report their own status, the rest stay
// bit-identical to solo.
void RunCancellationDifferential(
    const QueryBackend& backend,
    const std::vector<SpatialKeywordQuery>& queries) {
  ASSERT_GE(queries.size(), 4u);
  CancelToken cancelled = CancelToken::Create();
  cancelled.Cancel();
  CancelToken expired = CancelToken::WithTimeout(0.0001);
  while (expired.Check().ok()) {
  }
  std::vector<BackendBatchItem> items = {
      BackendBatchItem{&queries[0], nullptr},
      BackendBatchItem{&queries[1], &cancelled},
      BackendBatchItem{&queries[2], &expired},
      BackendBatchItem{&queries[3], nullptr},
  };
  std::vector<BackendBatchResult> batched = backend.TopKBatch(items);
  ASSERT_EQ(batched.size(), 4u);
  EXPECT_EQ(batched[1].status.code(), StatusCode::kCancelled);
  EXPECT_EQ(batched[2].status.code(), StatusCode::kDeadlineExceeded);
  for (size_t i : {0u, 3u}) {
    SCOPED_TRACE("slot=" + std::to_string(i));
    ASSERT_TRUE(batched[i].status.ok()) << batched[i].status.ToString();
    StatusOr<std::vector<ScoredObject>> solo = backend.TopK(queries[i]);
    ASSERT_TRUE(solo.ok());
    ExpectBitIdentical(batched[i].topk, solo.value());
  }
}

// Mutations so the batch walks frozen pages, delta segments, and
// tombstoned visibility at once: delete two seeded objects, re-insert
// keyword sets sampled from the corpus at fresh locations.
void ApplyMutations(const QueryBackend& backend, const Dataset& data) {
  ASSERT_TRUE(backend.Delete(0).ok());
  ASSERT_TRUE(backend.Delete(data.size() / 2).ok());
  for (size_t i = 0; i < 3; ++i) {
    const SpatialObject& donor = data.object((i * 7 + 1) % data.size());
    std::vector<std::string> keywords;
    for (TermId t : donor.doc) {
      keywords.push_back(data.vocabulary().TermString(t));
    }
    const double frac = 0.2 + 0.2 * static_cast<double>(i);
    ASSERT_TRUE(backend.Insert(Point{frac, 1.0 - frac}, keywords).ok());
  }
}

class BatchDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchDifferentialTest, FrozenEngineBatchedMatchesSolo) {
  const uint64_t seed = GetParam();
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, testing::ScenarioOptions{});
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  WhyNotEngine::Config config;
  config.node_capacity = 16;
  StatusOr<std::unique_ptr<WhyNotEngine>> engine =
      WhyNotEngine::Build(&scenario->dataset, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const std::vector<SpatialKeywordQuery> queries = DeriveQueries(*scenario);
  RunDifferential(*engine.value(), queries);
  RunCancellationDifferential(*engine.value(), queries);
}

TEST_P(BatchDifferentialTest, LiveEngineBatchedMatchesSolo) {
  const uint64_t seed = GetParam();
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, testing::ScenarioOptions{});
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  SegmentedEngine::Config config;
  config.node_capacity = 16;
  config.delta_capacity = 8;
  config.auto_merge = false;
  StatusOr<std::unique_ptr<SegmentedEngine>> engine =
      SegmentedEngine::Build(scenario->dataset, config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  ApplyMutations(*engine.value(), scenario->dataset);
  if (HasFatalFailure()) return;

  const std::vector<SpatialKeywordQuery> queries = DeriveQueries(*scenario);
  RunDifferential(*engine.value(), queries);
  RunCancellationDifferential(*engine.value(), queries);
}

TEST_P(BatchDifferentialTest, ShardedBatchedMatchesSolo) {
  const uint64_t seed = GetParam();
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, testing::ScenarioOptions{});
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  ShardCoordinator::Config config;
  config.num_shards = 3;
  config.node_capacity = 16;
  StatusOr<std::unique_ptr<ShardCoordinator>> coordinator =
      ShardCoordinator::Build(scenario->dataset, config);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();

  const std::vector<SpatialKeywordQuery> queries = DeriveQueries(*scenario);
  RunDifferential(*coordinator.value(), queries);
  RunCancellationDifferential(*coordinator.value(), queries);
}

TEST_P(BatchDifferentialTest, LiveShardedBatchedMatchesSolo) {
  const uint64_t seed = GetParam();
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, testing::ScenarioOptions{});
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  ShardCoordinator::Config config;
  config.num_shards = 3;
  config.live = true;
  config.node_capacity = 16;
  config.delta_capacity = 8;
  config.auto_merge = false;
  StatusOr<std::unique_ptr<ShardCoordinator>> coordinator =
      ShardCoordinator::Build(scenario->dataset, config);
  ASSERT_TRUE(coordinator.ok()) << coordinator.status().ToString();
  ApplyMutations(*coordinator.value(), scenario->dataset);
  if (HasFatalFailure()) return;

  const std::vector<SpatialKeywordQuery> queries = DeriveQueries(*scenario);
  RunDifferential(*coordinator.value(), queries);
  RunCancellationDifferential(*coordinator.value(), queries);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchDifferentialTest,
                         ::testing::Range<uint64_t>(kFirstSeed, kLastSeed + 1));

}  // namespace
}  // namespace wsk
