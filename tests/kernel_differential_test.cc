// Kernel-vs-scalar differential (docs/PERF.md): every why-not algorithm
// must return the *identical* refined query with the score kernel enabled
// and disabled — same keywords, k, rank, edit distance, and penalty. The
// kernel's contract is bit-identical scoring, so even tie-breaks must not
// drift. Runs over seeded randomized instances (same generator as the
// oracle suite); failures print the seed-bearing scenario description.
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

// Answers `algorithm` with the kernel on and off and expects identical
// refined queries.
void ExpectKernelOnOffIdentical(const WhyNotEngine& engine,
                                const testing::WhyNotScenario& scenario,
                                WhyNotAlgorithm algorithm) {
  SCOPED_TRACE(WhyNotAlgorithmName(algorithm));
  WhyNotOptions with_kernel = scenario.options;
  with_kernel.use_score_kernel = true;
  WhyNotOptions without_kernel = scenario.options;
  without_kernel.use_score_kernel = false;

  StatusOr<WhyNotResult> on =
      engine.Answer(algorithm, scenario.query, scenario.missing, with_kernel);
  ASSERT_TRUE(on.ok()) << on.status().ToString();
  StatusOr<WhyNotResult> off = engine.Answer(algorithm, scenario.query,
                                             scenario.missing, without_kernel);
  ASSERT_TRUE(off.ok()) << off.status().ToString();

  EXPECT_EQ(on.value().already_in_result, off.value().already_in_result);
  const RefinedQuery& a = on.value().refined;
  const RefinedQuery& b = off.value().refined;
  EXPECT_EQ(a.doc, b.doc) << a.doc.ToString() << " vs " << b.doc.ToString();
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.rank, b.rank);
  EXPECT_EQ(a.edit_distance, b.edit_distance);
  // Bit-identical scoring implies bit-identical penalties — exact double
  // equality, no tolerance.
  EXPECT_EQ(a.penalty, b.penalty);
}

class KernelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelDifferentialTest, KernelOnOffIdentical) {
  const uint64_t seed = GetParam();
  testing::ScenarioOptions opts;
  opts.vary_threads = true;  // cover the parallel BS path under TSan
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, opts);
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  WhyNotEngine::Config config;
  config.node_capacity = 16;
  StatusOr<std::unique_ptr<WhyNotEngine>> built =
      WhyNotEngine::Build(&scenario->dataset, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  for (WhyNotAlgorithm algorithm : kAlgorithms) {
    ExpectKernelOnOffIdentical(*built.value(), *scenario, algorithm);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialTest,
                         ::testing::Range(kFirstSeed, kLastSeed + 1));

// KcRBased at the shipped node capacity on thousands of objects, so the
// dominator bounds run on nodes holding hundreds to thousands of objects
// (capacity 16 above never gets MaxDom past a few hundred).
class KernelDifferentialLargeNodesTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KernelDifferentialLargeNodesTest, KcrKernelOnOffIdentical) {
  const uint64_t seed = GetParam();
  testing::ScenarioOptions opts;
  opts.min_objects = 1500;
  opts.max_objects = 3000;
  std::optional<testing::WhyNotScenario> scenario =
      testing::MakeScenario(seed, opts);
  if (!scenario.has_value()) {
    GTEST_SKIP() << "seed " << seed << " yields no usable instance";
  }
  SCOPED_TRACE(scenario->Describe());

  WhyNotEngine::Config config;
  ASSERT_EQ(config.node_capacity, 100u);
  StatusOr<std::unique_ptr<WhyNotEngine>> built =
      WhyNotEngine::Build(&scenario->dataset, config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const WhyNotEngine& engine = *built.value();
  ExpectKernelOnOffIdentical(engine, *scenario, WhyNotAlgorithm::kKcrBased);

  // The bounds must also stay sound on large nodes: KcRBased lands on the
  // exact answer AdvancedBS computes without any bounds.
  StatusOr<WhyNotResult> kcr =
      engine.Answer(WhyNotAlgorithm::kKcrBased, scenario->query,
                    scenario->missing, scenario->options);
  ASSERT_TRUE(kcr.ok()) << kcr.status().ToString();
  StatusOr<WhyNotResult> adv =
      engine.Answer(WhyNotAlgorithm::kAdvanced, scenario->query,
                    scenario->missing, scenario->options);
  ASSERT_TRUE(adv.ok()) << adv.status().ToString();
  EXPECT_EQ(kcr.value().refined.doc, adv.value().refined.doc);
  EXPECT_EQ(kcr.value().refined.k, adv.value().refined.k);
  EXPECT_EQ(kcr.value().refined.penalty, adv.value().refined.penalty);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferentialLargeNodesTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace wsk
