// QueryService over a ShardCoordinator backend (docs/SHARDING.md): the
// service fronts the sharded backend unchanged, the shard counters surface
// in both report formats, a cancelled or expired request leaves the
// parallel fan-out ready for the next one, and — the regression the
// topology-aware version vector exists for — a mutation routed to one
// shard orphans only that shard's cached entries, while entries whose
// shards provably cannot be affected keep hitting. The service's one
// metrics snapshot prints every row with the same value in its text and
// Prometheus views.
#include "service/query_service.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "data/generator.h"
#include "shard/shard_coordinator.h"

namespace wsk {
namespace {

// Two well-separated, keyword-disjoint clusters; with two shards the STR
// split puts each in its own tile (see shard_coordinator_test).
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

TEST(ShardServiceTest, CoordinatorServesQueriesThroughService) {
  GeneratorConfig gen;
  gen.num_objects = 300;
  gen.vocab_size = 50;
  gen.seed = 31337;
  Dataset dataset = GenerateDataset(gen);

  ShardCoordinator::Config config;
  config.num_shards = 3;
  config.node_capacity = 16;
  auto coordinator = ShardCoordinator::Build(dataset, config).value();
  QueryService service(coordinator.get(), {});

  const SpatialKeywordQuery query = QueryAt(
      dataset, dataset.objects()[11].loc,
      {dataset.vocabulary().TermString(*dataset.objects()[11].doc.begin())},
      5);
  const auto via_service = service.TopK(query);
  ASSERT_TRUE(via_service.ok()) << via_service.status().ToString();
  const auto direct = coordinator->TopK(query);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(via_service.value().results.size(), direct.value().size());
  for (size_t i = 0; i < direct.value().size(); ++i) {
    EXPECT_EQ(via_service.value().results[i].id, direct.value()[i].id);
  }

  // Why-not rides through the same front end.
  ASSERT_FALSE(direct.value().empty());
  const ObjectId beyond = direct.value().back().id;
  const auto whynot = service.WhyNot(WhyNotAlgorithm::kAdvanced, query,
                                     {beyond}, WhyNotOptions{});
  ASSERT_TRUE(whynot.ok()) << whynot.status().ToString();

  // Frozen coordinator: mutations are rejected through the service.
  EXPECT_EQ(service.Insert(Point{0.5, 0.5}, {"x"}).status().code(),
            StatusCode::kFailedPrecondition);

  // Shard counters surface in both report formats.
  const std::string report = service.MetricsReport();
  EXPECT_NE(report.find("shards    count 3"), std::string::npos) << report;
  EXPECT_NE(report.find("shard.0"), std::string::npos) << report;
  const std::string prom = service.PrometheusReport();
  EXPECT_NE(prom.find("wsk_shards 3"), std::string::npos);
  EXPECT_NE(prom.find("wsk_shards_visited_total"), std::string::npos);
  EXPECT_NE(prom.find("wsk_shards_pruned_total"), std::string::npos);
}

// Requests that fail inside the 5-shard fan-out return their token's
// status, and each next request executes and answers exactly.
TEST(ShardServiceTest, FailedFanOutLeavesTheServiceReady) {
  GeneratorConfig gen;
  gen.num_objects = 2000;
  gen.vocab_size = 80;
  gen.seed = 4242;
  Dataset dataset = GenerateDataset(gen);
  ShardCoordinator::Config config;
  config.num_shards = 5;
  config.live = true;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(dataset, config).value();
  ASSERT_EQ(coordinator->num_shards(), 5u);
  QueryServiceConfig service_config;
  service_config.num_workers = 2;
  service_config.cache_capacity = 0;  // every request reaches the shards
  QueryService service(coordinator.get(), service_config);

  // Text-dominant: every shard's bound survives the first cut.
  SpatialKeywordQuery query = QueryAt(
      dataset, Point{0.5, 0.5},
      {dataset.vocabulary().TermString(1), dataset.vocabulary().TermString(2)},
      10);
  query.alpha = 0.1;
  const std::vector<ScoredObject> reference = BruteForceTopK(dataset, query);
  auto expect_exact = [&](const StatusOr<QueryService::TopKResponse>& r) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(r.value().results.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(r.value().results[i].id, reference[i].id);
      EXPECT_EQ(r.value().results[i].score, reference[i].score);
    }
  };
  expect_exact(service.TopK(query));

  RequestOptions cancelled;
  cancelled.cancel = CancelToken::Create();
  cancelled.cancel.Cancel();
  EXPECT_EQ(service.TopK(query, cancelled).status().code(),
            StatusCode::kCancelled);
  expect_exact(service.TopK(query));

  int expired = 0;
  for (int round = 0; round < 4; ++round) {
    for (double timeout_ms : {0.001, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0}) {
      RequestOptions opts;
      opts.timeout_ms = timeout_ms;
      const auto result = service.TopK(query, opts);
      if (result.ok()) {
        expect_exact(result);
      } else {
        ++expired;
        EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
            << result.status().ToString();
      }
      expect_exact(service.TopK(query));
    }
  }
  EXPECT_GT(expired, 0);
}

TEST(ShardServiceTest, UnshardedBackendsReportNoShardSection) {
  GeneratorConfig gen;
  gen.num_objects = 120;
  gen.vocab_size = 30;
  gen.seed = 5150;
  Dataset dataset = GenerateDataset(gen);
  auto engine = WhyNotEngine::Build(&dataset, {}).value();
  QueryService service(engine.get(), {});
  EXPECT_EQ(service.MetricsReport().find("shards    count"),
            std::string::npos);
  EXPECT_EQ(service.PrometheusReport().find("wsk_shards"),
            std::string::npos);
}

// The version-vector regression test: cache two queries answered by
// different shards, mutate one shard, and only that shard's entry may go
// stale. Before the topology-aware vector, ANY mutation bumped the single
// dataset version embedded in every key and orphaned both entries.
TEST(ShardServiceTest, MutationOrphansOnlyTheRoutedShardsCachedEntries) {
  Dataset dataset = TwoClusterDataset();
  ShardCoordinator::Config config;
  config.num_shards = 2;
  config.live = true;
  config.node_capacity = 16;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(dataset, config).value();
  ASSERT_EQ(coordinator->num_shards(), 2u);
  QueryService service(coordinator.get(), {});

  const SpatialKeywordQuery query_a =
      QueryAt(dataset, Point{0.1, 0.1}, {"coffee", "wifi"});
  const SpatialKeywordQuery query_b =
      QueryAt(dataset, Point{0.9, 0.9}, {"museum", "art"});

  // Prime and verify both cache entries.
  ASSERT_FALSE(service.TopK(query_a).value().cache_hit);
  ASSERT_FALSE(service.TopK(query_b).value().cache_hit);
  const auto a_cached = service.TopK(query_a);
  ASSERT_TRUE(a_cached.value().cache_hit);
  ASSERT_TRUE(service.TopK(query_b).value().cache_hit);

  // Insert a perfect cluster-B object: routed to B's shard only.
  const auto inserted =
      service.Insert(Point{0.9, 0.9}, {"museum", "art"});
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();

  // Query A's shard is untouched and cluster B's bound for A stays below
  // A's kth score — its entry must still hit, with the same answer.
  const auto a_after = service.TopK(query_a);
  ASSERT_TRUE(a_after.ok());
  EXPECT_TRUE(a_after.value().cache_hit) << "cross-shard over-invalidation";
  ASSERT_EQ(a_after.value().results.size(),
            a_cached.value().results.size());
  for (size_t i = 0; i < a_after.value().results.size(); ++i) {
    EXPECT_EQ(a_after.value().results[i].id,
              a_cached.value().results[i].id);
  }

  // Query B's entry is owned by the mutated shard: stale, recomputed, and
  // the fresh answer surfaces the inserted perfect-score object.
  const auto b_after = service.TopK(query_b);
  ASSERT_TRUE(b_after.ok());
  EXPECT_FALSE(b_after.value().cache_hit);
  ASSERT_FALSE(b_after.value().results.empty());
  EXPECT_EQ(b_after.value().results[0].id, inserted.value().id);

  const ResultCache::Stats stats = service.cache().stats();
  EXPECT_EQ(stats.stale, 1u) << "exactly B's entry went stale";
}

// Why-not entries keep the strict contract: any version movement anywhere
// invalidates (the refinement aggregates bounds across every shard).
TEST(ShardServiceTest, WhyNotCacheInvalidatesOnAnyShardMutation) {
  Dataset dataset = TwoClusterDataset();
  ShardCoordinator::Config config;
  config.num_shards = 2;
  config.live = true;
  config.node_capacity = 16;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(dataset, config).value();
  QueryService service(coordinator.get(), {});

  const SpatialKeywordQuery query_a =
      QueryAt(dataset, Point{0.1, 0.1}, {"coffee", "wifi"}, 2);
  const auto topk = service.TopK(query_a);
  ASSERT_TRUE(topk.ok());
  ASSERT_GT(topk.value().results.size(), 1u);
  const ObjectId missing = topk.value().results.back().id;

  SpatialKeywordQuery narrow = query_a;
  narrow.k = 1;
  ASSERT_FALSE(service
                   .WhyNot(WhyNotAlgorithm::kAdvanced, narrow, {missing},
                           WhyNotOptions{})
                   .value()
                   .cache_hit);
  ASSERT_TRUE(service
                  .WhyNot(WhyNotAlgorithm::kAdvanced, narrow, {missing},
                          WhyNotOptions{})
                  .value()
                  .cache_hit);

  // A mutation in the *other* cluster still invalidates why-not entries.
  ASSERT_TRUE(service.Insert(Point{0.9, 0.9}, {"museum"}).ok());
  EXPECT_FALSE(service
                   .WhyNot(WhyNotAlgorithm::kAdvanced, narrow, {missing},
                           WhyNotOptions{})
                   .value()
                   .cache_hit);
}

// The text view of one snapshot: line key -> field -> value. A bare value
// (a registry counter's line) is keyed by the empty field.
std::map<std::string, std::map<std::string, double>> ParseTextView(
    const std::string& text, size_t* values) {
  std::map<std::string, std::map<std::string, double>> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    for (std::string t; ls >> t;) tokens.push_back(t);
    if (tokens.size() < 2) {
      ADD_FAILURE() << "line without a value: " << line;
      continue;
    }
    EXPECT_TRUE(lines.find(tokens[0]) == lines.end()) << "repeated " << line;
    std::map<std::string, double>& fields = lines[tokens[0]];
    // An even token count is the key, a bare value, then pairs.
    size_t i = 1;
    if (tokens.size() % 2 == 0) {
      fields[""] = std::strtod(tokens[i++].c_str(), nullptr);
    }
    for (; i + 1 < tokens.size(); i += 2) {
      const double value = std::strtod(tokens[i + 1].c_str(), nullptr);
      EXPECT_TRUE(fields.emplace(tokens[i], value).second)
          << "repeated field " << tokens[i] << " in " << line;
    }
    *values += tokens.size() / 2;
  }
  return lines;
}

// The Prometheus view of one snapshot: series (`name{labels}`) -> value.
std::map<std::string, double> ParsePrometheusView(const std::string& text) {
  std::map<std::string, double> series;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    EXPECT_TRUE(series
                    .emplace(line.substr(0, space),
                             std::strtod(line.c_str() + space + 1, nullptr))
                    .second)
        << "repeated series " << line;
  }
  return series;
}

// One snapshot of a live sharded service with telemetry and batching on,
// rendered twice: every row's value reads the same in both views, and
// neither view carries a value that is not a row.
TEST(ShardServiceTest, BothViewsPrintEveryRowOfOneSnapshot) {
  GeneratorConfig gen;
  gen.num_objects = 600;
  gen.vocab_size = 60;
  gen.seed = 9090;
  Dataset dataset = GenerateDataset(gen);
  ShardCoordinator::Config config;
  config.num_shards = 3;
  config.live = true;
  config.auto_merge = false;
  auto coordinator = ShardCoordinator::Build(dataset, config).value();
  QueryServiceConfig service_config;
  service_config.batch_max_size = 4;
  service_config.telemetry.sample_every = 1;
  QueryService service(coordinator.get(), service_config);

  ASSERT_TRUE(service.Insert(Point{0.2, 0.2}, {"alpha", "beta"}).ok());
  const SpatialKeywordQuery query = QueryAt(
      dataset, dataset.objects()[5].loc,
      {dataset.vocabulary().TermString(*dataset.objects()[5].doc.begin())},
      5);
  const auto topk = service.TopK(query);
  ASSERT_TRUE(topk.ok()) << topk.status().ToString();
  ASSERT_TRUE(service.TopK(query).value().cache_hit);
  ASSERT_TRUE(service
                  .WhyNot(WhyNotAlgorithm::kAdvanced, query,
                          {topk.value().results.back().id}, WhyNotOptions{})
                  .ok());

  const MetricsSnapshot snapshot = service.Snapshot();
  size_t text_values = 0;
  const auto text = ParseTextView(snapshot.Text(), &text_values);
  const auto prom = ParsePrometheusView(snapshot.Prometheus());

  size_t want_text_values = 0;
  size_t want_samples = 0;
  size_t labelled = 0;
  for (const MetricRow& row : snapshot.rows) {
    std::string key = row.section;
    std::string labels;
    for (const auto& [name, value] : row.labels) {
      key += "." + value;
      labels += (labels.empty() ? "{" : ",") + name + "=\"" + value + "\"";
    }
    if (!labels.empty()) labels += "}";
    labelled += labels.empty() ? 0 : 1;
    SCOPED_TRACE(row.name + labels);
    const auto line = text.find(key);
    ASSERT_NE(line, text.end()) << key;
    const auto in_text = [&](const std::string& field) {
      const auto it = line->second.find(field);
      EXPECT_NE(it, line->second.end()) << key << " " << field;
      return it == line->second.end() ? -1.0 : it->second;
    };
    const auto in_prom = [&](const std::string& series) {
      const auto it = prom.find(series);
      EXPECT_NE(it, prom.end()) << series;
      return it == prom.end() ? -2.0 : it->second;
    };
    if (row.type != MetricRow::Type::kHistogram) {
      EXPECT_EQ(in_text(row.field), in_prom(row.name + labels));
      ++want_text_values;
      ++want_samples;
      continue;
    }
    const std::string unit = row.seconds ? "_s" : "";
    EXPECT_EQ(in_text("count"), in_prom(row.name + "_count"));
    EXPECT_EQ(in_text("sum" + unit), in_prom(row.name + "_sum"));
    EXPECT_EQ(in_text("max" + unit), in_prom(row.name + "_max"));
    EXPECT_EQ(in_text("count"),
              in_prom(row.name + "_bucket{le=\"+Inf\"}"));
    want_text_values += 6;  // count sum p50 p95 p99 max
    want_samples += LatencyHistogram::kNumBuckets + 4;  // +Inf sum count max
  }
  EXPECT_EQ(text_values, want_text_values);
  EXPECT_EQ(prom.size(), want_samples);
  // The per-shard and per-window rows are labelled in Prometheus and
  // appended to the section in the text.
  EXPECT_EQ(labelled, 3u * 4 + 3u * 6 + 1);  // shards, windows, build
  EXPECT_NE(text.find("shard.2"), text.end());
  EXPECT_NE(prom.find("wsk_shard_objects{shard=\"2\"}"), prom.end());
  EXPECT_NE(text.find("window.60s"), text.end());
}

}  // namespace
}  // namespace wsk
