// The shared why-not frame (PlannedBackend::Answer) on live backends whose
// data sits only in deltas: a SegmentedEngine seeded from an empty dataset
// with merges off, and a live ShardCoordinator seeded the same way. Such a
// plan has extras and no frozen segment, so the KcR traversal has no tree
// to walk; every algorithm must still return the oracle's refinement. Also
// pins the "more missing objects than data objects" guard, which reads the
// live object count, on both backends.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "segment/segmented_engine.h"
#include "shard/shard_coordinator.h"
#include "testing/oracle.h"

namespace wsk {
namespace {

constexpr WhyNotAlgorithm kAlgorithms[] = {
    WhyNotAlgorithm::kBasic,
    WhyNotAlgorithm::kAdvanced,
    WhyNotAlgorithm::kKcrBased,
};

constexpr int kInserts = 30;

// Inserted object i: a deterministic point in [0, 0.7]^2 and one to three
// keywords from a vocabulary of six.
Point LocOf(int i) {
  return Point{0.1 * (i % 7), 0.1 * ((i * 3) % 8)};
}
std::vector<std::string> KeywordsOf(int i) {
  std::vector<std::string> keywords = {"t" + std::to_string(i % 6)};
  if (i % 2 == 0) keywords.push_back("t" + std::to_string((i / 2) % 6));
  if (i % 3 == 0) keywords.push_back("t" + std::to_string((i + 4) % 6));
  return keywords;
}

template <typename Backend>
void InsertAll(const Backend& backend, int count) {
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(backend.Insert(LocOf(i), KeywordsOf(i)).ok());
  }
}

std::unique_ptr<SegmentedEngine> EmptyLiveEngine() {
  SegmentedEngine::Config config;
  config.node_capacity = 8;
  config.delta_capacity = 8;  // rotations leave sealed deltas, never frozen
  config.auto_merge = false;
  StatusOr<std::unique_ptr<SegmentedEngine>> built =
      SegmentedEngine::Build(Dataset(), config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

std::unique_ptr<ShardCoordinator> EmptyLiveCoordinator() {
  ShardCoordinator::Config config;
  config.num_shards = 2;
  config.live = true;
  config.node_capacity = 8;
  config.delta_capacity = 8;
  config.auto_merge = false;
  StatusOr<std::unique_ptr<ShardCoordinator>> built =
      ShardCoordinator::Build(Dataset(), config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// The inserted objects as a dataset with the backend's term ids, document
// frequencies and SDist normalizer.
Dataset Reference(const Vocabulary& vocabulary, double diagonal) {
  Dataset reference;
  reference.vocabulary() = vocabulary.CloneDictionary();
  reference.OverrideDiagonal(diagonal);
  for (int i = 0; i < kInserts; ++i) {
    reference.AddWithId(static_cast<ObjectId>(i), LocOf(i),
                        reference.vocabulary().InternAll(KeywordsOf(i)));
  }
  return reference;
}

// Every algorithm answers three different why-not questions over the
// backend with the oracle's refinement, bit for bit.
void ExpectAlgorithmsMatchOracle(const PlannedBackend& backend,
                                 const Dataset& reference) {
  SpatialKeywordQuery query;
  query.loc = Point{0.3, 0.3};
  query.doc = KeywordSet({reference.vocabulary().Find("t1"),
                          reference.vocabulary().Find("t2")});
  query.k = 3;
  query.alpha = 0.5;
  const WhyNotOptions options;

  int asked = 0;
  for (ObjectId id = 0; id < kInserts && asked < 3; ++id) {
    const std::vector<ObjectId> missing = {id};
    const testing::OracleResult want =
        testing::SolveWhyNotOracle(reference, query, missing, options.lambda);
    if (want.already_in_result) continue;
    ++asked;
    SCOPED_TRACE("missing " + std::to_string(id));
    for (WhyNotAlgorithm algorithm : kAlgorithms) {
      SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
      StatusOr<WhyNotResult> got =
          backend.Answer(algorithm, query, missing, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_FALSE(got.value().already_in_result);
      EXPECT_EQ(got.value().stats.initial_rank, want.initial_rank);
      EXPECT_EQ(got.value().refined.penalty, want.best.penalty);
      EXPECT_TRUE(got.value().refined.doc == want.best.doc)
          << "got " << got.value().refined.doc.ToString() << " want "
          << want.best.doc.ToString();
      EXPECT_EQ(got.value().refined.k, want.best.k);
      EXPECT_EQ(got.value().refined.rank, want.best.rank);
    }
  }
  EXPECT_EQ(asked, 3);
}

TEST(PlannedBackendTest, LiveEngineWithoutFrozenSegmentAnswersEveryAlgorithm) {
  std::unique_ptr<SegmentedEngine> engine = EmptyLiveEngine();
  InsertAll(*engine, kInserts);
  ASSERT_TRUE(engine->GetSnapshot().view->frozen.empty());
  ExpectAlgorithmsMatchOracle(
      *engine, Reference(engine->vocabulary(), engine->diagonal()));
}

TEST(PlannedBackendTest, LiveCoordinatorFromEmptySeedAnswersEveryAlgorithm) {
  std::unique_ptr<ShardCoordinator> coordinator = EmptyLiveCoordinator();
  InsertAll(*coordinator, kInserts);
  ExpectAlgorithmsMatchOracle(
      *coordinator,
      Reference(coordinator->vocabulary(), coordinator->diagonal()));
}

// Five inserts and two deletes leave three live objects: asking about all
// three is rejected by every algorithm, asking about two is not.
void ExpectMissingCountGuard(const PlannedBackend& backend,
                             const Vocabulary& vocabulary) {
  SpatialKeywordQuery query;
  query.loc = Point{0.3, 0.3};
  query.doc = KeywordSet({vocabulary.Find("t1")});
  query.k = 1;
  query.alpha = 0.5;
  for (WhyNotAlgorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
    StatusOr<WhyNotResult> all =
        backend.Answer(algorithm, query, {2, 3, 4}, WhyNotOptions{});
    EXPECT_EQ(all.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(all.status().ToString().find("more missing objects"),
              std::string::npos)
        << all.status().ToString();
    EXPECT_TRUE(backend.Answer(algorithm, query, {3, 4}, WhyNotOptions{})
                    .ok());
  }
}

TEST(PlannedBackendTest, MissingCountGuardOnLiveEngine) {
  std::unique_ptr<SegmentedEngine> engine = EmptyLiveEngine();
  InsertAll(*engine, 5);
  ASSERT_TRUE(engine->Delete(0).ok());
  ASSERT_TRUE(engine->Delete(1).ok());
  ExpectMissingCountGuard(*engine, engine->vocabulary());
}

TEST(PlannedBackendTest, MissingCountGuardOnLiveCoordinator) {
  std::unique_ptr<ShardCoordinator> coordinator = EmptyLiveCoordinator();
  InsertAll(*coordinator, 5);
  ASSERT_TRUE(coordinator->Delete(0).ok());
  ASSERT_TRUE(coordinator->Delete(1).ok());
  ExpectMissingCountGuard(*coordinator, coordinator->vocabulary());
}

}  // namespace
}  // namespace wsk
