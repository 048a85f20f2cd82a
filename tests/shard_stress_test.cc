// Coordinator stress test (docs/SHARDING.md), in the `stress` CTest label
// so CI reruns it under TSan: concurrent top-k / why-not queries fan out
// over live shards while mutation threads stream routed inserts, updates,
// and deletes through the same QueryService. Exercises the scatter-gather
// read path racing per-shard rotations and merges, the shared-vocabulary
// intern path, summary updates, owner-map churn, and the validating result
// cache under concurrent invalidation. The 5-shard run keeps three pool
// workers busy in the parallel top-k fan-out while the service's own
// workers run other requests' first shards.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "service/query_service.h"
#include "shard/shard_coordinator.h"

namespace wsk {
namespace {

void RunConcurrentQueriesAndRoutedMutations(uint32_t num_shards) {
  GeneratorConfig gen;
  gen.num_objects = 300;
  gen.vocab_size = 50;
  gen.num_clusters = 6;
  gen.cluster_stddev = 0.02;
  gen.uniform_fraction = 0.1;
  gen.seed = 60601;
  Dataset dataset = GenerateDataset(gen);

  ShardCoordinator::Config config;
  config.num_shards = num_shards;
  config.live = true;
  config.node_capacity = 16;
  config.delta_capacity = 48;  // force rotations + merges under load
  config.auto_merge = true;
  auto coordinator = ShardCoordinator::Build(dataset, config).value();

  QueryServiceConfig service_config;
  service_config.num_workers = 4;
  service_config.max_queue = 0;
  service_config.max_inflight = 0;
  service_config.cache_capacity = 256;
  QueryService service(coordinator.get(), service_config);

  // Query workload: localized probes anchored at seed objects.
  std::vector<SpatialKeywordQuery> queries;
  for (int i = 0; i < 24; ++i) {
    const SpatialObject& anchor = dataset.objects()[i * 12];
    SpatialKeywordQuery q;
    q.loc = anchor.loc;
    q.doc = anchor.doc;
    q.k = 5;
    q.alpha = 0.5;
    queries.push_back(q);
  }
  std::vector<std::string> terms;
  for (TermId t = 0; t < dataset.vocabulary().num_terms(); ++t) {
    terms.push_back(dataset.vocabulary().TermString(t));
  }

  constexpr int kMutators = 2;
  constexpr int kMutationsPerThread = 120;
  std::atomic<uint64_t> mutation_failures{0};
  std::vector<std::thread> mutators;
  for (int m = 0; m < kMutators; ++m) {
    mutators.emplace_back([&, m] {
      // Each thread only updates/deletes ids it inserted itself, so every
      // mutation is expected to succeed — any non-ok status is a bug.
      std::vector<ObjectId> mine;
      uint64_t state = 0x9e3779b97f4a7c15ull * (m + 1);
      for (int i = 0; i < kMutationsPerThread; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const double x = static_cast<double>((state >> 16) & 0x3ff) / 1023.0;
        const double y = static_cast<double>((state >> 32) & 0x3ff) / 1023.0;
        const std::vector<std::string> keywords = {
            terms[state % terms.size()],
            terms[(state >> 20) % terms.size()]};
        const int kind = static_cast<int>(state % 4);
        if (kind < 2 || mine.size() < 4) {
          const auto inserted = service.Insert(Point{x, y}, keywords);
          if (inserted.ok()) {
            mine.push_back(inserted.value().id);
          } else {
            ++mutation_failures;
          }
        } else if (kind == 2) {
          const ObjectId id = mine[state % mine.size()];
          if (!service.Update(id, Point{x, y}, keywords).ok()) {
            ++mutation_failures;
          }
        } else {
          const size_t pos = state % mine.size();
          const ObjectId id = mine[pos];
          mine.erase(mine.begin() + pos);
          if (!service.Delete(id).ok()) ++mutation_failures;
        }
      }
    });
  }

  // Queries race the mutators: plain repeats (cache churn) plus a why-not
  // sprinkled in every round.
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> tf;
  std::vector<std::future<StatusOr<QueryService::WhyNotResponse>>> wf;
  for (int round = 0; round < 8; ++round) {
    for (const SpatialKeywordQuery& q : queries) {
      tf.push_back(service.SubmitTopK(q));
    }
    SpatialKeywordQuery narrow = queries[round % queries.size()];
    narrow.k = 2;
    wf.push_back(service.SubmitWhyNot(
        WhyNotAlgorithm::kKcrBased, narrow,
        {dataset.objects()[(round * 31) % dataset.objects().size()].id},
        WhyNotOptions{}));
  }
  for (auto& f : tf) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  for (auto& f : wf) {
    const auto r = f.get();
    // A why-not target deleted mid-flight surfaces NotFound; anything
    // else must succeed.
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
          << r.status().ToString();
    }
  }
  for (std::thread& t : mutators) t.join();
  EXPECT_EQ(mutation_failures.load(), 0u);

  // Post-race coherence: counters aggregate, every query was accounted,
  // and the owner map agrees with the shard object totals.
  const ShardCountersSnapshot counters = coordinator->shard_counters();
  ASSERT_TRUE(counters.valid);
  EXPECT_EQ(counters.num_shards, num_shards);
  EXPECT_GT(counters.queries, 0u);
  EXPECT_GT(counters.shards_visited, 0u);
  uint64_t mutations = 0;
  for (uint64_t m : counters.per_shard_mutations) mutations += m;
  EXPECT_EQ(mutations, static_cast<uint64_t>(kMutators) *
                           static_cast<uint64_t>(kMutationsPerThread));
  uint64_t objects = 0;
  for (uint64_t o : counters.per_shard_objects) objects += o;
  // Seed objects plus net inserts: every surviving id has exactly one
  // owner shard, and a follow-up query still answers.
  EXPECT_GT(objects, 0u);
  const auto final_topk = service.TopK(queries[0]);
  ASSERT_TRUE(final_topk.ok()) << final_topk.status().ToString();
}

TEST(ShardStressTest, ConcurrentQueriesAndRoutedMutations) {
  RunConcurrentQueriesAndRoutedMutations(3);
}

TEST(ShardStressTest, ConcurrentQueriesAndRoutedMutationsFiveShards) {
  RunConcurrentQueriesAndRoutedMutations(5);
}

}  // namespace
}  // namespace wsk
