// Cache-on/off differential (docs/STORAGE.md "Node cache"): every why-not
// algorithm must return the *identical* refined query from an engine with
// a decoded-node cache and from one without — same keywords, k, rank, edit
// distance, and penalty. The cache's contract is bit-identical reads (a
// cached node is exactly what a fresh decode produces), so even tie-breaks
// must not drift. Runs over seeded randomized instances (same generator as
// the oracle suite); failures print the seed-bearing scenario description.
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/whynot.h"
#include "testing/scenario_gen.h"

namespace wsk {
namespace {

constexpr uint64_t kFirstSeed = 1;
constexpr uint64_t kLastSeed = 120;

constexpr WhyNotAlgorithm kAlgorithms[] = {
    WhyNotAlgorithm::kBasic,
    WhyNotAlgorithm::kAdvanced,
    WhyNotAlgorithm::kKcrBased,
};

class CacheDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheDifferentialTest, CacheOnOffIdentical) {
  const uint64_t seed = GetParam();
  testing::ScenarioOptions opts;
  opts.vary_threads = true;  // cover the parallel BS path under TSan
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, opts);
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  // Two engines over the same dataset: one with a small cache over small
  // nodes, so the traversal actually cycles through hits, misses, and
  // evictions instead of fitting entirely in budget, and one without.
  WhyNotEngine::Config config;
  config.node_capacity = 16;
  config.node_cache_bytes = 64 << 10;
  StatusOr<std::unique_ptr<WhyNotEngine>> cached =
      WhyNotEngine::Build(&scenario->dataset, config);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  ASSERT_NE(cached.value()->node_cache(), nullptr);
  cached.value()->node_cache()->set_verify_fingerprints(true);
  config.node_cache_bytes = 0;
  StatusOr<std::unique_ptr<WhyNotEngine>> uncached =
      WhyNotEngine::Build(&scenario->dataset, config);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  ASSERT_EQ(uncached.value()->node_cache(), nullptr);

  for (WhyNotAlgorithm algorithm : kAlgorithms) {
    SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
    StatusOr<WhyNotResult> on =
        cached.value()->Answer(algorithm, scenario->query, scenario->missing,
                               scenario->options);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    StatusOr<WhyNotResult> off =
        uncached.value()->Answer(algorithm, scenario->query,
                                 scenario->missing, scenario->options);
    ASSERT_TRUE(off.ok()) << off.status().ToString();

    EXPECT_EQ(on.value().already_in_result, off.value().already_in_result);
    const RefinedQuery& a = on.value().refined;
    const RefinedQuery& b = off.value().refined;
    EXPECT_EQ(a.doc, b.doc) << a.doc.ToString() << " vs " << b.doc.ToString();
    EXPECT_EQ(a.k, b.k);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.edit_distance, b.edit_distance);
    // Bit-identical reads imply bit-identical penalties — exact double
    // equality, no tolerance.
    EXPECT_EQ(a.penalty, b.penalty);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheDifferentialTest,
                         ::testing::Range(kFirstSeed, kLastSeed + 1));

}  // namespace
}  // namespace wsk
