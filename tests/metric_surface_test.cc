// Pins the service's metric surface: the Prometheus families (`# TYPE`
// lines) and the text view's `section field` keys that PrometheusReport()
// and MetricsReport() emit, over the three service fixtures of
// prometheus_lint_test (frozen engine, live engine with batching, live
// 3-shard coordinator). Values are not pinned, only which names exist, so
// a refactor of how the service accounts a request can not add, drop or
// rename a series without this test failing. The expected lines live in
// metric_surface.txt, one `<fixture> type <family> <type>` or
// `<fixture> key <section> [field]` line each, sorted within a fixture.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "segment/segmented_engine.h"
#include "shard/shard_coordinator.h"

namespace wsk {
namespace {

SpatialKeywordQuery QueryFor(const Dataset& dataset, ObjectId seed_object) {
  SpatialKeywordQuery q;
  q.loc = Point{0.4, 0.4};
  std::vector<TermId> terms(dataset.object(seed_object).doc.begin(),
                            dataset.object(seed_object).doc.end());
  if (terms.size() > 3) terms.resize(3);
  q.doc = KeywordSet(std::move(terms));
  q.k = 5;
  q.alpha = 0.5;
  return q;
}

// The surface lines of one service, prefixed with the fixture name.
std::vector<std::string> Surface(const std::string& fixture,
                                 const QueryService& service) {
  std::set<std::string> lines;
  std::istringstream prometheus(service.PrometheusReport());
  for (std::string line; std::getline(prometheus, line);) {
    if (line.rfind("# TYPE ", 0) == 0) {
      lines.insert(fixture + " type " + line.substr(7));
    }
  }
  // A text line is the section, then `field value` pairs, or one bare
  // value for a registry counter.
  std::istringstream text(service.MetricsReport());
  for (std::string line; std::getline(text, line);) {
    std::istringstream tokens(line);
    std::vector<std::string> words;
    for (std::string word; tokens >> word;) words.push_back(word);
    if (words.empty()) continue;
    if (words.size() == 2) {
      lines.insert(fixture + " key " + words[0]);
      continue;
    }
    for (size_t i = 1; i + 1 < words.size(); i += 2) {
      lines.insert(fixture + " key " + words[0] + " " + words[i]);
    }
  }
  return {lines.begin(), lines.end()};
}

std::vector<std::string> FrozenSurface() {
  GeneratorConfig gen;
  gen.num_objects = 800;
  gen.vocab_size = 80;
  gen.seed = 777;
  Dataset dataset = GenerateDataset(gen);
  auto engine = WhyNotEngine::Build(&dataset, {}).value();

  QueryServiceConfig config;
  config.telemetry.sample_every = 1;
  QueryService service(engine.get(), config);
  const SpatialKeywordQuery query = QueryFor(dataset, 12);
  EXPECT_TRUE(service.TopK(query).ok());
  EXPECT_TRUE(service.TopK(query).ok());  // cache hit
  const ObjectId missing = engine->ObjectAtPosition(query, 2 * query.k).value();
  EXPECT_TRUE(
      service.WhyNot(WhyNotAlgorithm::kKcrBased, query, {missing}, {}).ok());
  return Surface("frozen", service);
}

std::vector<std::string> LiveBatchSurface() {
  GeneratorConfig gen;
  gen.num_objects = 400;
  gen.vocab_size = 60;
  gen.seed = 4242;
  Dataset dataset = GenerateDataset(gen);
  SegmentedEngine::Config engine_config;
  engine_config.delta_capacity = 32;
  engine_config.auto_merge = false;
  auto engine = SegmentedEngine::Build(dataset, engine_config).value();

  QueryServiceConfig config;
  config.batch_max_size = 4;
  QueryService service(engine.get(), config);
  EXPECT_TRUE(service.Insert(Point{0.1, 0.1}, {"alpha", "beta"}).ok());
  EXPECT_TRUE(service.TopK(QueryFor(dataset, 7)).ok());
  return Surface("live_batch", service);
}

std::vector<std::string> LiveShardedSurface() {
  GeneratorConfig gen;
  gen.num_objects = 600;
  gen.vocab_size = 60;
  gen.seed = 9090;
  Dataset dataset = GenerateDataset(gen);
  ShardCoordinator::Config shard_config;
  shard_config.num_shards = 3;
  shard_config.live = true;
  shard_config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(dataset, shard_config).value();

  QueryServiceConfig config;
  config.batch_max_size = 4;
  config.telemetry.sample_every = 1;
  QueryService service(coordinator.get(), config);
  EXPECT_TRUE(service.Insert(Point{0.2, 0.2}, {"alpha", "beta"}).ok());
  EXPECT_TRUE(service.TopK(QueryFor(dataset, 7)).ok());
  return Surface("live_sharded", service);
}

TEST(MetricSurfaceTest, FamiliesAndTextKeysMatchThePinnedList) {
  std::vector<std::string> actual;
  for (const auto& fixture :
       {FrozenSurface(), LiveBatchSurface(), LiveShardedSurface()}) {
    actual.insert(actual.end(), fixture.begin(), fixture.end());
  }

  std::ifstream in(WSK_METRIC_SURFACE_FILE);
  ASSERT_TRUE(in.good()) << "cannot open " << WSK_METRIC_SURFACE_FILE;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) expected.push_back(line);
  }

  // Report every difference, not just the first.
  const std::set<std::string> want(expected.begin(), expected.end());
  const std::set<std::string> got(actual.begin(), actual.end());
  std::string diff;
  for (const std::string& line : want) {
    if (got.count(line) == 0) diff += "- " + line + "\n";
  }
  for (const std::string& line : got) {
    if (want.count(line) == 0) diff += "+ " + line + "\n";
  }
  EXPECT_EQ(actual, expected) << diff;
}

}  // namespace
}  // namespace wsk
