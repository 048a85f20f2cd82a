// One io_reads definition on every backend: a why-not answer's
// stats.io_reads equals the before/after delta of its tree family's
// physical + mapped page counters — on a frozen engine serving v2 files
// from a mapping, on a live engine with deltas and tombstones, and on a
// two-shard live coordinator. Every backend runs with the node cache off,
// so each node access reads pages and the deltas are non-zero.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generator.h"
#include "segment/segmented_engine.h"
#include "shard/shard_coordinator.h"

namespace wsk {
namespace {

struct Scenario {
  Dataset dataset;
  SpatialKeywordQuery query;
  std::vector<ObjectId> missing;
};

Scenario MakeScenario() {
  GeneratorConfig config;
  config.num_objects = 1500;
  config.vocab_size = 60;
  config.seed = 2112;
  Scenario s{GenerateDataset(config), {}, {}};
  s.query.loc = Point{0.5, 0.5};
  s.query.doc = s.dataset.vocabulary().InternAll({"term1", "term7"});
  s.query.k = 5;
  s.query.alpha = 0.5;
  auto reference = WhyNotEngine::Build(&s.dataset, {}).value();
  s.missing.push_back(reference->ObjectAtPosition(s.query, 16).value());
  return s;
}

// The counters' delta, written out here rather than through
// BackendIoSnapshot's own arithmetic.
uint64_t PagesRead(const BackendIoSnapshot& before,
                   const BackendIoSnapshot& after, bool kcr) {
  return kcr ? (after.kcr_physical - before.kcr_physical) +
                   (after.kcr_mapped - before.kcr_mapped)
             : (after.setr_physical - before.setr_physical) +
                   (after.setr_mapped - before.setr_mapped);
}

void ExpectIoReadsMatchCounters(const QueryBackend& backend,
                                const Scenario& s) {
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
    const BackendIoSnapshot before = backend.io_snapshot();
    StatusOr<WhyNotResult> result =
        backend.Answer(algorithm, s.query, s.missing, WhyNotOptions{});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const uint64_t pages =
        PagesRead(before, backend.io_snapshot(),
                  algorithm == WhyNotAlgorithm::kKcrBased);
    EXPECT_GT(pages, 0u);
    EXPECT_EQ(result.value().stats.io_reads, pages);
  }
}

TEST(IoReadsTest, FrozenEngineCountsMappedPages) {
  const Scenario s = MakeScenario();
  WhyNotEngine::Config config;
  config.node_format = kNodeFormatV2;
  config.mmap_reads = true;
  config.node_cache_bytes = 0;
  auto engine = WhyNotEngine::Build(&s.dataset, config).value();
  ASSERT_TRUE(engine->kcr_pager().mapped());
  ExpectIoReadsMatchCounters(*engine, s);
  EXPECT_GT(engine->io_snapshot().kcr_mapped, 0u);
}

TEST(IoReadsTest, LiveEngine) {
  const Scenario s = MakeScenario();
  SegmentedEngine::Config config;
  config.node_cache_bytes = 0;
  config.auto_merge = false;
  auto engine = SegmentedEngine::Build(s.dataset, config).value();
  ASSERT_TRUE(engine->Insert(Point{0.5, 0.5}, {"term1"}).ok());
  ASSERT_TRUE(engine->Delete(s.missing[0] == 0 ? 1 : 0).ok());
  ExpectIoReadsMatchCounters(*engine, s);
}

TEST(IoReadsTest, TwoShardLiveCoordinator) {
  const Scenario s = MakeScenario();
  ShardCoordinator::Config config;
  config.num_shards = 2;
  config.live = true;
  config.node_cache_bytes = 0;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(s.dataset, config).value();
  ASSERT_TRUE(coordinator->Insert(Point{0.5, 0.5}, {"term1"}).ok());
  ExpectIoReadsMatchCounters(*coordinator, s);
}

}  // namespace
}  // namespace wsk
