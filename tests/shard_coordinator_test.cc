// ShardCoordinator unit tests (docs/SHARDING.md): deterministic STR
// tiling, sound per-shard Theorem 1 bounds, cross-shard pruning on
// clustered data, routed mutations with coordinator-allocated ids, the
// version vector / topology fingerprint the result cache keys off, the
// shard-scoped cache validation predicate, k = 0 queries, the parallel
// fan-out's cancel and deadline paths, and the shard-count cap.
// Bit-exactness against the unsharded engine at scale lives in
// shard_differential_test.
#include "shard/shard_coordinator.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "data/generator.h"
#include "data/query.h"
#include "shard/shard_partition.h"
#include "shard/shard_summary.h"

namespace wsk {
namespace {

Dataset ClusteredDataset(uint32_t num_objects = 400) {
  GeneratorConfig config;
  config.num_objects = num_objects;
  config.vocab_size = 60;
  config.num_clusters = 4;
  config.cluster_stddev = 0.01;
  config.uniform_fraction = 0.0;
  config.seed = 90210;
  return GenerateDataset(config);
}

// Two well-separated clusters with disjoint vocabularies, `per_cluster`
// objects each: cluster A near (0.1, 0.1) tagged coffee/wifi, cluster B
// near (0.9, 0.9) tagged museum/art. With two shards the STR split puts
// each cluster in its own tile.
Dataset TwoClusterDataset(int per_cluster = 8) {
  Dataset dataset;
  for (int i = 0; i < per_cluster; ++i) {
    const double off = 0.002 * i;
    dataset.Add(Point{0.1 + off, 0.1 + off},
                std::vector<std::string>{"coffee", "wifi",
                                         "a" + std::to_string(i % 4)});
  }
  for (int i = 0; i < per_cluster; ++i) {
    const double off = 0.002 * i;
    dataset.Add(Point{0.9 - off, 0.9 - off},
                std::vector<std::string>{"museum", "art",
                                         "b" + std::to_string(i % 4)});
  }
  return dataset;
}

SpatialKeywordQuery QueryAt(Dataset& dataset, Point loc,
                            const std::vector<std::string>& keywords,
                            uint32_t k = 3) {
  SpatialKeywordQuery q;
  q.loc = loc;
  q.doc = dataset.vocabulary().InternAll(keywords);
  q.k = k;
  q.alpha = 0.5;
  return q;
}

TEST(ShardPartitionTest, DeterministicAndCoversEveryObjectOnce) {
  const Dataset seed = ClusteredDataset();
  for (uint32_t num_shards : {1u, 2u, 3u, 5u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(num_shards));
    const ShardPartition a = PartitionDataset(seed, num_shards);
    const ShardPartition b = PartitionDataset(seed, num_shards);
    ASSERT_EQ(a.tiles.size(), b.tiles.size());
    ASSERT_LE(a.tiles.size(), num_shards);

    std::set<ObjectId> seen;
    for (size_t t = 0; t < a.tiles.size(); ++t) {
      ASSERT_EQ(a.tiles[t].size(), b.tiles[t].size());
      EXPECT_EQ(a.tiles[t].diagonal(), seed.diagonal());
      ObjectId previous = 0;
      for (size_t i = 0; i < a.tiles[t].objects().size(); ++i) {
        const SpatialObject& o = a.tiles[t].objects()[i];
        EXPECT_EQ(o.id, b.tiles[t].objects()[i].id);  // deterministic
        EXPECT_TRUE(seen.insert(o.id).second) << "duplicate id " << o.id;
        if (i > 0) EXPECT_GT(o.id, previous);  // ascending ids in a tile
        previous = o.id;
        // The tile preserves the object verbatim under its original id.
        const SpatialObject& original = seed.object(o.id);
        EXPECT_EQ(o.loc.x, original.loc.x);
        EXPECT_TRUE(o.doc == original.doc);
      }
    }
    EXPECT_EQ(seen.size(), seed.size());
  }
}

TEST(ShardPartitionTest, EmptyDatasetYieldsOneEmptyTile) {
  Dataset empty;
  const ShardPartition partition = PartitionDataset(empty, 4);
  ASSERT_EQ(partition.tiles.size(), 1u);
  EXPECT_EQ(partition.tiles[0].size(), 0u);
}

TEST(ShardSummaryTest, UpperBoundDominatesEveryObjectScore) {
  Dataset seed = ClusteredDataset();
  const ShardPartition partition = PartitionDataset(seed, 4);
  const SpatialKeywordQuery query = QueryAt(
      seed, seed.objects()[3].loc,
      {seed.vocabulary().TermString(*seed.objects()[3].doc.begin())});

  for (const Dataset& tile : partition.tiles) {
    ShardSummary summary;
    for (const SpatialObject& o : tile.objects()) {
      AbsorbObject(&summary, o.loc, o.doc);
    }
    const double bound = ShardUpperBound(summary, query, seed.diagonal());
    // Theorem 1: no object in the tile may outscore its shard's bound.
    const std::vector<ScoredObject> best = BruteForceTopK(tile, query);
    if (!best.empty()) {
      EXPECT_GE(bound, best[0].score) << "bound not an upper bound";
    }
  }
}

// In-place absorption keeps each union term's shortest-document code:
// lowered by a shorter document, never raised by a longer one.
TEST(ShardSummaryTest, AbsorbKeepsShortestDocumentCodePerTerm) {
  ShardSummary summary;
  AbsorbObject(&summary, Point{0.1, 0.1}, KeywordSet{5, 7, 9});
  AbsorbObject(&summary, Point{0.2, 0.2}, KeywordSet{1, 7});
  AbsorbObject(&summary, Point{0.3, 0.3},
               KeywordSet{2, 9, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30,
                          31, 32, 33, 34});
  EXPECT_EQ(summary.uni.size(), summary.min_len.size());
  const KeywordSet want_uni{1,  2,  5,  7,  9,  20, 21, 22, 23, 24,
                            25, 26, 27, 28, 29, 30, 31, 32, 33, 34};
  EXPECT_EQ(summary.uni, want_uni);
  EXPECT_EQ(summary.min_len[0], 2);   // 1: only in the 2-term doc
  EXPECT_EQ(summary.min_len[1], 15);  // 2: only in the 17-term doc, capped
  EXPECT_EQ(summary.min_len[2], 3);   // 5
  EXPECT_EQ(summary.min_len[3], 2);   // 7: 3-term doc, then 2-term doc
  EXPECT_EQ(summary.min_len[4], 3);   // 9: the longer doc leaves it
  EXPECT_TRUE(summary.inter.empty());
}

TEST(ShardCoordinatorTest, ClusteredQueriesPruneShardsAndMatchSingleEngine) {
  Dataset seed = ClusteredDataset();
  ShardCoordinator::Config config;
  config.num_shards = 4;
  config.node_capacity = 16;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_EQ(coordinator->num_shards(), 4u);

  WhyNotEngine::Config single_config;
  single_config.node_capacity = 16;
  auto single = WhyNotEngine::Build(&seed, single_config).value();

  // Queries anchored at objects, distance-dominant (high alpha): the
  // keyword half of a shard's bound saturates (a whole tile's keyword
  // union nearly always covers the query terms), so it is the spatial
  // term that pushes far tiles below the kth score.
  for (int i = 0; i < 16; ++i) {
    const SpatialObject& anchor = seed.objects()[i * 7];
    SpatialKeywordQuery q;
    q.loc = anchor.loc;
    q.doc = anchor.doc;
    q.k = 5;
    q.alpha = 0.9;
    const auto sharded = coordinator->TopK(q);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    const auto reference = single->TopK(q);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(sharded.value().size(), reference.value().size());
    for (size_t p = 0; p < sharded.value().size(); ++p) {
      EXPECT_EQ(sharded.value()[p].id, reference.value()[p].id);
      EXPECT_EQ(sharded.value()[p].score, reference.value()[p].score);
    }
  }

  const ShardCountersSnapshot counters = coordinator->shard_counters();
  ASSERT_TRUE(counters.valid);
  EXPECT_EQ(counters.num_shards, 4u);
  EXPECT_EQ(counters.queries, 16u);
  EXPECT_GT(counters.shards_pruned, 0u) << "bound never pruned a shard";
  EXPECT_GT(counters.shards_visited, 0u);
  EXPECT_EQ(counters.per_shard_visited.size(), 4u);
  uint64_t per_shard_total = 0;
  for (uint64_t v : counters.per_shard_visited) per_shard_total += v;
  EXPECT_EQ(per_shard_total, counters.shards_visited);
}

// Two tiles equally far from the query, both matching its one keyword.
// Theorem 1 alone bounds the long-document tile's text at 1: every
// document there contains the keyword, so |N_i ∪ q| = |N_u ∩ q| = 1. Its
// length code (15) caps the Jaccard at 1/15, below the short-document
// tile's kth score, so the cut skips it at alpha 0.5.
TEST(ShardCoordinatorTest, LongDocumentShardIsPrunedByLength) {
  Dataset seed;
  for (int i = 0; i < 8; ++i) {
    const double off = 0.002 * i;
    seed.Add(Point{0.1 + off, 0.5 + off},
             std::vector<std::string>{"coffee", "s" + std::to_string(i)});
  }
  for (int i = 0; i < 8; ++i) {
    const double off = 0.002 * i;
    std::vector<std::string> doc = {"coffee"};
    for (int t = 0; t < 16; ++t) {
      doc.push_back("l" + std::to_string((i + t) % 20));
    }
    seed.Add(Point{0.9 - off, 0.5 - off}, doc);
  }
  ShardCoordinator::Config config;
  config.num_shards = 2;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_EQ(coordinator->num_shards(), 2u);
  const SpatialKeywordQuery query =
      QueryAt(seed, Point{0.5, 0.5}, {"coffee"}, 3);

  const auto answer = coordinator->TopK(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const std::vector<ScoredObject> reference = BruteForceTopK(seed, query);
  ASSERT_EQ(answer.value().size(), reference.size());
  for (size_t p = 0; p < reference.size(); ++p) {
    EXPECT_EQ(answer.value()[p].id, reference[p].id);
    EXPECT_EQ(answer.value()[p].score, reference[p].score);
  }
  const int long_shard = coordinator->OwnerShard(8);
  ASSERT_GE(long_shard, 0);
  EXPECT_NE(long_shard, coordinator->OwnerShard(0));
  EXPECT_LT(coordinator->ShardBound(long_shard, query),
            reference.back().score);
  EXPECT_EQ(coordinator->shard_counters().shards_pruned, 1u);
}

TEST(ShardCoordinatorTest, FrozenCoordinatorRejectsMutations) {
  Dataset seed = TwoClusterDataset();
  ShardCoordinator::Config config;
  config.num_shards = 2;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  EXPECT_FALSE(coordinator->live());
  EXPECT_EQ(coordinator->Insert(Point{0.5, 0.5}, {"x"}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator->Update(0, Point{0.5, 0.5}, {"x"}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(coordinator->Delete(0).code(), StatusCode::kFailedPrecondition);
}

TEST(ShardCoordinatorTest, RoutedMutationsTrackOwnershipAndVersions) {
  Dataset seed = TwoClusterDataset();
  ShardCoordinator::Config config;
  config.num_shards = 2;
  config.live = true;
  config.node_capacity = 16;
  config.delta_capacity = 64;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_EQ(coordinator->num_shards(), 2u);
  ASSERT_TRUE(coordinator->live());

  const std::vector<uint64_t> v0 = coordinator->version_vector();
  ASSERT_EQ(v0.size(), 2u);

  // An insert deep inside cluster B routes to B's shard; ids continue the
  // seed's sequence exactly as an unsharded engine would assign them.
  const auto inserted =
      coordinator->Insert(Point{0.9, 0.9}, {"museum", "art"});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(inserted.value(), static_cast<ObjectId>(seed.size()));
  const int owner = coordinator->OwnerShard(inserted.value());
  ASSERT_GE(owner, 0);

  // Exactly one shard's version moved.
  const std::vector<uint64_t> v1 = coordinator->version_vector();
  int changed = 0;
  for (size_t i = 0; i < v1.size(); ++i) changed += (v1[i] != v0[i]) ? 1 : 0;
  EXPECT_EQ(changed, 1);
  EXPECT_NE(v1[static_cast<size_t>(owner)], v0[static_cast<size_t>(owner)]);

  // The new object is queryable through the coordinator: a perfect-score
  // match at its own location.
  const SpatialKeywordQuery q =
      QueryAt(seed, Point{0.9, 0.9}, {"museum", "art"});
  const auto topk = coordinator->TopK(q);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ASSERT_FALSE(topk.value().empty());
  EXPECT_EQ(topk.value()[0].id, inserted.value());

  // Update and delete route to the owner; a deleted id loses its owner.
  ASSERT_TRUE(
      coordinator->Update(inserted.value(), Point{0.85, 0.85}, {"museum"})
          .ok());
  EXPECT_EQ(coordinator->OwnerShard(inserted.value()), owner);
  ASSERT_TRUE(coordinator->Delete(inserted.value()).ok());
  EXPECT_EQ(coordinator->OwnerShard(inserted.value()), -1);
  EXPECT_EQ(coordinator->Delete(inserted.value()).code(),
            StatusCode::kNotFound);

  const ShardCountersSnapshot counters = coordinator->shard_counters();
  ASSERT_TRUE(counters.valid);
  uint64_t mutations = 0;
  for (uint64_t m : counters.per_shard_mutations) mutations += m;
  EXPECT_EQ(mutations, 3u);
}

TEST(ShardCoordinatorTest, TopologyFingerprintReflectsTileLayout) {
  Dataset seed = ClusteredDataset();
  ShardCoordinator::Config two;
  two.num_shards = 2;
  ShardCoordinator::Config four;
  four.num_shards = 4;
  auto a = ShardCoordinator::Build(seed, two).value();
  auto b = ShardCoordinator::Build(seed, two).value();
  auto c = ShardCoordinator::Build(seed, four).value();
  EXPECT_NE(a->topology_fingerprint(), 0u);  // 0 is the unsharded sentinel
  EXPECT_EQ(a->topology_fingerprint(), b->topology_fingerprint());
  EXPECT_NE(a->topology_fingerprint(), c->topology_fingerprint());

  // Unsharded backends keep the legacy constant-0 fingerprint.
  auto single = WhyNotEngine::Build(&seed, {}).value();
  EXPECT_EQ(single->topology_fingerprint(), 0u);
}

// The predicate the result cache keys off: a mutation in a provably
// irrelevant shard keeps a cached top-k valid; a mutation in the answering
// shard invalidates it.
TEST(ShardCoordinatorTest, TopKCacheValidIsShardScoped) {
  Dataset seed = TwoClusterDataset();
  ShardCoordinator::Config config;
  config.num_shards = 2;
  config.live = true;
  config.node_capacity = 16;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_EQ(coordinator->num_shards(), 2u);

  const SpatialKeywordQuery query_a =
      QueryAt(seed, Point{0.1, 0.1}, {"coffee", "wifi"});
  const auto results_a = coordinator->TopK(query_a).value();
  ASSERT_GE(results_a.size(), query_a.k);
  const std::vector<uint64_t> versions = coordinator->version_vector();
  EXPECT_TRUE(coordinator->TopKCacheValid(versions, query_a, results_a));

  // Mutate cluster B's shard: far away, keyword-disjoint — its bound for
  // query A stays below the cached kth score, so A's entry survives.
  ASSERT_TRUE(coordinator->Insert(Point{0.9, 0.9}, {"museum", "art"}).ok());
  EXPECT_TRUE(coordinator->TopKCacheValid(versions, query_a, results_a));

  // Mutate cluster A's shard: the changed shard owns the cached results.
  const std::vector<uint64_t> fresh = coordinator->version_vector();
  ASSERT_TRUE(coordinator->Insert(Point{0.1, 0.1}, {"coffee", "wifi"}).ok());
  EXPECT_FALSE(coordinator->TopKCacheValid(fresh, query_a, results_a));

  // Why-not entries demand exact version equality.
  EXPECT_FALSE(coordinator->WhyNotCacheValid(fresh));
  EXPECT_TRUE(coordinator->WhyNotCacheValid(coordinator->version_vector()));
}

TEST(ShardCoordinatorTest, DatasetVersionSumsShardsAndIoAggregates) {
  Dataset seed = TwoClusterDataset();
  ShardCoordinator::Config config;
  config.num_shards = 2;
  config.live = true;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  const uint64_t v0 = coordinator->dataset_version();
  ASSERT_TRUE(coordinator->Insert(Point{0.1, 0.1}, {"coffee"}).ok());
  ASSERT_TRUE(coordinator->Insert(Point{0.9, 0.9}, {"art"}).ok());
  EXPECT_EQ(coordinator->dataset_version(), v0 + 2);

  SpatialKeywordQuery q = QueryAt(seed, Point{0.5, 0.5}, {"coffee"});
  q.k = 2;
  ASSERT_TRUE(coordinator->TopK(q).ok());
  const BackendIoSnapshot io = coordinator->io_snapshot();
  EXPECT_GT(io.setr_logical, 0u);  // per-shard reads aggregate coherently
}

Dataset UniformDataset(uint32_t num_objects) {
  GeneratorConfig config;
  config.num_objects = num_objects;
  config.vocab_size = 80;
  config.seed = 4242;
  return GenerateDataset(config);
}

void ExpectSameTopK(const std::vector<ScoredObject>& got,
                    const std::vector<ScoredObject>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

// k = 0 asks for nothing: TopK and TopKBatch answer OK and empty, exactly
// as WhyNotEngine::TopK and BruteForceTopK do, and a cached empty answer
// survives any mutation.
TEST(ShardCoordinatorTest, ZeroKAnswersEmptyAcrossTheSurface) {
  Dataset seed = UniformDataset(2000);
  ShardCoordinator::Config config;
  config.num_shards = 4;
  config.live = true;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_EQ(coordinator->num_shards(), 4u);

  SpatialKeywordQuery zero = QueryAt(
      seed, seed.objects()[5].loc,
      {seed.vocabulary().TermString(*seed.objects()[5].doc.begin())}, 0);
  ASSERT_TRUE(BruteForceTopK(seed, zero).empty());
  const auto topk = coordinator->TopK(zero);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  EXPECT_TRUE(topk.value().empty());

  SpatialKeywordQuery five = zero;
  five.k = 5;
  const std::vector<BackendBatchItem> items = {{&zero, nullptr},
                                               {&five, nullptr}};
  const std::vector<BackendBatchResult> batch = coordinator->TopKBatch(items);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].status.ok()) << batch[0].status.ToString();
  EXPECT_TRUE(batch[0].topk.empty());
  ASSERT_TRUE(batch[1].status.ok()) << batch[1].status.ToString();
  ExpectSameTopK(batch[1].topk, BruteForceTopK(seed, five));

  const std::vector<uint64_t> versions = coordinator->version_vector();
  ASSERT_TRUE(coordinator->Insert(zero.loc, {"fresh"}).ok());
  EXPECT_TRUE(coordinator->TopKCacheValid(versions, zero, {}));
}

// A text-dominant query visits every shard of a 5-shard live coordinator,
// so four of them run in the parallel fan-out. A cancelled token and a
// deadline that expires at any point of it both surface as that token's
// status, and the coordinator answers the next query exactly.
TEST(ShardCoordinatorTest, FanOutReturnsTheTokensStatus) {
  Dataset seed = UniformDataset(2000);
  ShardCoordinator::Config config;
  config.num_shards = 5;
  config.live = true;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_EQ(coordinator->num_shards(), 5u);

  SpatialKeywordQuery query = QueryAt(
      seed, Point{0.5, 0.5},
      {seed.vocabulary().TermString(1), seed.vocabulary().TermString(2)}, 10);
  query.alpha = 0.1;
  const std::vector<ScoredObject> reference = BruteForceTopK(seed, query);
  const auto answer = coordinator->TopK(query);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectSameTopK(answer.value(), reference);
  const ShardCountersSnapshot first = coordinator->shard_counters();
  ASSERT_EQ(first.shards_visited, 5u) << "the query must reach the fan-out";

  CancelToken cancelled = CancelToken::Create();
  cancelled.Cancel();
  EXPECT_EQ(coordinator->TopK(query, &cancelled).status().code(),
            StatusCode::kCancelled);
  EXPECT_EQ(coordinator->shard_counters().shards_visited,
            first.shards_visited);

  int expired = 0;
  int answered = 0;
  for (int round = 0; round < 4; ++round) {
    for (double timeout_ms : {0.0, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 1000.0}) {
      const CancelToken deadline = CancelToken::WithTimeout(timeout_ms);
      const auto result = coordinator->TopK(query, &deadline);
      if (result.ok()) {
        ++answered;
        ExpectSameTopK(result.value(), reference);
      } else {
        ++expired;
        EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
            << result.status().ToString();
      }
      const auto next = coordinator->TopK(query);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ExpectSameTopK(next.value(), reference);
    }
  }
  EXPECT_GT(expired, 0);
  EXPECT_GT(answered, 0);
}

// A batch or why-not plan takes one merged-walk segment per shard, so the
// shard count is capped by the walk's capacity: 0 and 64 shards fail with
// kInvalidArgument instead of aborting, and a coordinator at the cap
// answers a batch and a rank query through that one walk.
TEST(ShardCoordinatorTest, ShardCountIsBoundedByTheMergedWalk) {
  Dataset seed = UniformDataset(1000);
  ShardCoordinator::Config config;
  config.buffer_bytes = 64u << 10;
  config.node_cache_bytes = 0;
  for (uint32_t bad :
       {0u, static_cast<uint32_t>(MergedTopKSource::kMaxSegments + 1)}) {
    config.num_shards = bad;
    const auto built = ShardCoordinator::Build(seed, config);
    ASSERT_FALSE(built.ok()) << bad << " shards";
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument)
        << built.status().ToString();
  }

  config.num_shards = static_cast<uint32_t>(MergedTopKSource::kMaxSegments);
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_GT(coordinator->num_shards(), 32u);
  SpatialKeywordQuery query = QueryAt(
      seed, Point{0.3, 0.6},
      {seed.vocabulary().TermString(1), seed.vocabulary().TermString(2)}, 10);
  SpatialKeywordQuery other = query;
  other.alpha = 0.2;
  const std::vector<BackendBatchItem> items = {{&query, nullptr},
                                               {&other, nullptr}};
  const std::vector<BackendBatchResult> batch = coordinator->TopKBatch(items);
  ASSERT_EQ(batch.size(), 2u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].status.ok()) << batch[i].status.ToString();
    ExpectSameTopK(batch[i].topk, BruteForceTopK(seed, *items[i].query));
  }
  const ObjectId target = seed.objects()[500].id;
  const auto rank = coordinator->Rank(query, target);
  ASSERT_TRUE(rank.ok()) << rank.status().ToString();
  EXPECT_EQ(rank.value(), BruteForceRank(seed, query, target));
}

// Threads of this process: one entry per thread under /proc/self/task.
size_t ProcessThreads() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

// A live coordinator at the shard cap starts no threads of its own: its
// fan-out helpers and every shard's merges run on the shared executor, so
// building it, answering a top-k and compacting every shard grow the
// process by at most the executor's workers.
TEST(ShardCoordinatorTest, ALiveCoordinatorRunsOnTheSharedExecutor) {
  Dataset seed = UniformDataset(1000);
  ShardCoordinator::Config config;
  config.num_shards = static_cast<uint32_t>(MergedTopKSource::kMaxSegments);
  config.live = true;
  config.buffer_bytes = 64u << 10;
  config.node_cache_bytes = 0;
  const size_t before = ProcessThreads();
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_GT(coordinator->num_shards(), 32u);

  const SpatialKeywordQuery query = QueryAt(
      seed, Point{0.3, 0.6},
      {seed.vocabulary().TermString(1), seed.vocabulary().TermString(2)}, 10);
  const auto topk = coordinator->TopK(query);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ExpectSameTopK(topk.value(), BruteForceTopK(seed, query));

  // One delete per shard leaves every shard something to compact.
  std::set<int> touched;
  for (const SpatialObject& o : seed.objects()) {
    if (touched.insert(coordinator->OwnerShard(o.id)).second) {
      ASSERT_TRUE(coordinator->Delete(o.id).ok());
    }
  }
  ASSERT_EQ(touched.size(), coordinator->num_shards());
  ASSERT_TRUE(coordinator->ForceMerge().ok());
  EXPECT_GE(coordinator->segment_counters().merges,
            coordinator->num_shards());

  EXPECT_LE(ProcessThreads(),
            before + static_cast<size_t>(SharedExecutor().num_threads()));
}

// Updates stretch every shard's MBR over the whole space, so every insert
// afterwards ties on MBR distance; ties go to the smallest shard, and the
// shards stay balanced instead of the first one taking every insert.
TEST(ShardCoordinatorTest, InsertTiesGoToTheSmallestShard) {
  Dataset seed = UniformDataset(2000);
  ShardCoordinator::Config config;
  config.num_shards = 4;
  config.live = true;
  config.buffer_bytes = 64u << 10;
  config.node_cache_bytes = 0;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(seed, config).value();
  ASSERT_EQ(coordinator->num_shards(), 4u);

  std::vector<int> stretched(coordinator->num_shards(), 0);
  for (const SpatialObject& o : seed.objects()) {
    const int shard = coordinator->OwnerShard(o.id);
    ASSERT_GE(shard, 0);
    if (stretched[shard] >= 2) continue;
    const Point corner = stretched[shard] == 0 ? Point{0.0, 0.0}
                                               : Point{1.0, 1.0};
    ASSERT_TRUE(coordinator->Update(o.id, corner, {"stretch"}).ok());
    ++stretched[shard];
  }
  for (int count : stretched) ASSERT_EQ(count, 2);

  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(coordinator->Insert(Point{0.5, 0.5}, {"center"}).ok());
  }
  const ShardCountersSnapshot counters = coordinator->shard_counters();
  const auto [lo, hi] = std::minmax_element(counters.per_shard_objects.begin(),
                                            counters.per_shard_objects.end());
  EXPECT_LE(*hi - *lo, 1u) << "smallest " << *lo << ", largest " << *hi;
}

}  // namespace
}  // namespace wsk
