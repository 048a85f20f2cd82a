// Prometheus exposition-format lint over QueryService::PrometheusReport()
// (docs/OBSERVABILITY.md "Prometheus export"). A scrape target that emits
// malformed exposition text fails silently at the collector, not in CI —
// so this test parses the full report like a strict scraper would:
//
//   - every # TYPE is immediately preceded by its # HELP, each family is
//     declared once, and the type is counter/gauge/histogram;
//   - every sample belongs to a previously declared family (exactly, or
//     via the _bucket/_sum/_count histogram suffixes);
//   - metric names and label keys obey the Prometheus grammar, label
//     values use only valid escapes, and values parse as finite numbers;
//   - counter families follow the _total naming convention and never go
//     negative;
//   - histogram buckets are cumulative (monotone non-decreasing), their
//     le bounds strictly increase, the +Inf bucket comes last and equals
//     _count, and _sum/_count are present.
//
// The linter itself is exercised against hand-written bad documents so a
// lint pass means the rules are actually enforced.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "segment/segmented_engine.h"
#include "shard/shard_coordinator.h"

namespace wsk {
namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(name[0])) || name[0] == '_' ||
        name[0] == ':')) {
    return false;
  }
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == ':')) {
      return false;
    }
  }
  return true;
}

bool ValidLabelKey(const std::string& key) {
  if (key.empty()) return false;
  if (!(std::isalpha(static_cast<unsigned char>(key[0])) || key[0] == '_')) {
    return false;
  }
  for (char c : key) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  return true;
}

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

// Parses `name{k="v",...} value`; appends errors instead of throwing.
bool ParseSample(const std::string& line, Sample* out,
                 std::vector<std::string>* errors) {
  size_t i = 0;
  while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
  out->name = line.substr(0, i);
  if (!ValidMetricName(out->name)) {
    errors->push_back("invalid metric name: " + line);
    return false;
  }
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      size_t eq = line.find('=', i);
      if (eq == std::string::npos || eq + 1 >= line.size() ||
          line[eq + 1] != '"') {
        errors->push_back("malformed labels: " + line);
        return false;
      }
      const std::string key = line.substr(i, eq - i);
      if (!ValidLabelKey(key)) {
        errors->push_back("invalid label key '" + key + "': " + line);
        return false;
      }
      std::string value;
      size_t j = eq + 2;  // past the opening quote
      for (; j < line.size() && line[j] != '"'; ++j) {
        if (line[j] == '\\') {
          if (j + 1 >= line.size() ||
              (line[j + 1] != '\\' && line[j + 1] != '"' &&
               line[j + 1] != 'n')) {
            errors->push_back("invalid label escape: " + line);
            return false;
          }
          ++j;
        }
        value += line[j];
      }
      if (j >= line.size()) {
        errors->push_back("unterminated label value: " + line);
        return false;
      }
      out->labels[key] = value;
      i = j + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size() || line[i] != '}') {
      errors->push_back("unterminated label set: " + line);
      return false;
    }
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    errors->push_back("missing value separator: " + line);
    return false;
  }
  const std::string value_str = line.substr(i + 1);
  char* end = nullptr;
  out->value = std::strtod(value_str.c_str(), &end);
  if (end == value_str.c_str() || *end != '\0' || !std::isfinite(out->value)) {
    errors->push_back("unparseable sample value: " + line);
    return false;
  }
  return true;
}

// Strict single-pass lint of one exposition document. Returns every
// violation found (empty = clean).
std::vector<std::string> LintExposition(const std::string& text) {
  std::vector<std::string> errors;
  std::map<std::string, std::string> family_type;  // name -> type
  std::set<std::string> help_seen;
  struct Bucket {
    double le;
    bool inf;
    double count;
  };
  std::map<std::string, std::vector<Bucket>> buckets;
  std::map<std::string, double> hist_count;
  std::set<std::string> hist_sum;
  std::set<std::string> samples_seen;

  std::istringstream in(text);
  std::string line;
  std::string last_help_name;
  while (std::getline(in, line)) {
    if (line.empty()) {
      errors.push_back("blank line in exposition");
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name;
      ls >> name;
      if (!ValidMetricName(name)) {
        errors.push_back("invalid HELP name: " + line);
      }
      if (!help_seen.insert(name).second) {
        errors.push_back("duplicate HELP for " + name);
      }
      last_help_name = name;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream ls(line.substr(7));
      std::string name, type;
      ls >> name >> type;
      if (name != last_help_name) {
        errors.push_back("TYPE not immediately preceded by its HELP: " + line);
      }
      if (type != "counter" && type != "gauge" && type != "histogram") {
        errors.push_back("unknown type: " + line);
      }
      if (!family_type.emplace(name, type).second) {
        errors.push_back("family declared twice: " + name);
      }
      if (type == "counter" &&
          (name.size() < 6 ||
           name.compare(name.size() - 6, 6, "_total") != 0)) {
        errors.push_back("counter not named *_total: " + name);
      }
      continue;
    }
    if (line[0] == '#') {
      errors.push_back("unrecognized comment line: " + line);
      continue;
    }

    Sample sample;
    if (!ParseSample(line, &sample, &errors)) continue;
    samples_seen.insert(sample.name);

    // Resolve the declaring family: exact, or histogram suffix.
    std::string family = sample.name;
    std::string suffix;
    if (family_type.find(family) == family_type.end()) {
      for (const char* s : {"_bucket", "_sum", "_count"}) {
        const size_t n = std::string(s).size();
        if (family.size() > n &&
            family.compare(family.size() - n, n, s) == 0) {
          const std::string base = family.substr(0, family.size() - n);
          const auto it = family_type.find(base);
          if (it != family_type.end() && it->second == "histogram") {
            family = base;
            suffix = s;
            break;
          }
        }
      }
    }
    const auto it = family_type.find(family);
    if (it == family_type.end()) {
      errors.push_back("sample without preceding TYPE: " + sample.name);
      continue;
    }
    if (it->second == "counter" && sample.value < 0.0) {
      errors.push_back("negative counter: " + line);
    }
    if (it->second == "histogram") {
      if (suffix == "_bucket") {
        const auto le = sample.labels.find("le");
        if (le == sample.labels.end()) {
          errors.push_back("histogram bucket without le: " + line);
          continue;
        }
        Bucket b;
        b.inf = le->second == "+Inf";
        b.le = b.inf ? 0.0 : std::strtod(le->second.c_str(), nullptr);
        b.count = sample.value;
        buckets[family].push_back(b);
      } else if (suffix == "_count") {
        hist_count[family] = sample.value;
      } else if (suffix == "_sum") {
        hist_sum.insert(family);
      } else {
        errors.push_back("bare sample of histogram family: " + line);
      }
    }
  }

  for (const auto& [name, type] : family_type) {
    if (type != "histogram") continue;
    const auto bs = buckets.find(name);
    if (bs == buckets.end() || bs->second.empty()) {
      errors.push_back("histogram without buckets: " + name);
      continue;
    }
    if (hist_sum.find(name) == hist_sum.end()) {
      errors.push_back("histogram without _sum: " + name);
    }
    if (hist_count.find(name) == hist_count.end()) {
      errors.push_back("histogram without _count: " + name);
      continue;
    }
    const std::vector<Bucket>& bl = bs->second;
    for (size_t i = 0; i < bl.size(); ++i) {
      if (i > 0 && bl[i].count < bl[i - 1].count) {
        errors.push_back("non-cumulative buckets: " + name);
      }
      if (i > 0 && !bl[i].inf && bl[i].le <= bl[i - 1].le) {
        errors.push_back("le bounds not increasing: " + name);
      }
      if (bl[i].inf && i + 1 != bl.size()) {
        errors.push_back("+Inf bucket not last: " + name);
      }
    }
    if (!bl.back().inf) {
      errors.push_back("missing +Inf bucket: " + name);
    } else if (bl.back().count != hist_count[name]) {
      errors.push_back("+Inf bucket != _count: " + name);
    }
  }
  return errors;
}

std::string JoinErrors(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += e + "\n";
  return out;
}

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

TEST(PrometheusLintTest, FrozenServiceReportIsCleanExposition) {
  GeneratorConfig gen;
  gen.num_objects = 800;
  gen.vocab_size = 80;
  gen.seed = 777;
  Dataset dataset = GenerateDataset(gen);
  auto engine = WhyNotEngine::Build(&dataset, {}).value();

  QueryServiceConfig config;
  config.telemetry.sample_every = 1;  // populate the telemetry families
  QueryService service(engine.get(), config);
  const SpatialKeywordQuery query = QueryFor(dataset, 12);
  ASSERT_TRUE(service.TopK(query).ok());
  ASSERT_TRUE(service.TopK(query).ok());  // cache hit
  const ObjectId missing = engine->ObjectAtPosition(query, 2 * query.k).value();
  ASSERT_TRUE(
      service.WhyNot(WhyNotAlgorithm::kKcrBased, query, {missing}, {}).ok());

  const std::string report = service.PrometheusReport();
  const std::vector<std::string> errors = LintExposition(report);
  EXPECT_TRUE(errors.empty()) << JoinErrors(errors);

  // The families this PR exports are present, not just well-formed.
  EXPECT_NE(report.find("wsk_trace_dropped_events_total"), std::string::npos);
  EXPECT_NE(report.find("wsk_telemetry_requests_observed_total"),
            std::string::npos);
  EXPECT_NE(report.find("wsk_window_request_rate{window=\"1s\"}"),
            std::string::npos);
  EXPECT_NE(report.find("wsk_window_latency_p99_seconds{window=\"60s\"}"),
            std::string::npos);
  EXPECT_NE(report.find("wsk_build_info{version="), std::string::npos);
  EXPECT_NE(report.find("wsk_process_uptime_seconds"), std::string::npos);
  EXPECT_NE(report.find("wsk_process_resident_memory_bytes"),
            std::string::npos);
}

TEST(PrometheusLintTest, LiveBatchServiceReportIsCleanExposition) {
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
  config.batch_max_size = 4;  // expose the batch gauge alongside the rest
  QueryService service(engine.get(), config);
  ASSERT_TRUE(service.Insert(Point{0.1, 0.1}, {"alpha", "beta"}).ok());
  ASSERT_TRUE(service.TopK(QueryFor(dataset, 7)).ok());

  const std::string report = service.PrometheusReport();
  const std::vector<std::string> errors = LintExposition(report);
  EXPECT_TRUE(errors.empty()) << JoinErrors(errors);

  // The live backend adds the segment and background-merge families.
  EXPECT_NE(report.find("wsk_segment_inserts_total"), std::string::npos);
  EXPECT_NE(report.find("wsk_bg_merge_passes_total"), std::string::npos);
  EXPECT_NE(report.find("wsk_bg_merge_busy_seconds_total"),
            std::string::npos);
  EXPECT_NE(report.find("wsk_batch_pending_requests"), std::string::npos);
}

TEST(PrometheusLintTest, LiveShardedServiceReportIsCleanExposition) {
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
  ASSERT_TRUE(service.Insert(Point{0.2, 0.2}, {"alpha", "beta"}).ok());
  ASSERT_TRUE(service.TopK(QueryFor(dataset, 7)).ok());

  const std::string report = service.PrometheusReport();
  const std::vector<std::string> errors = LintExposition(report);
  EXPECT_TRUE(errors.empty()) << JoinErrors(errors);

  // The aggregate shard families and the labelled per-shard series.
  EXPECT_NE(report.find("wsk_shards 3\n"), std::string::npos);
  EXPECT_NE(report.find("wsk_shards_pruned_total"), std::string::npos);
  for (const char* shard : {"0", "1", "2"}) {
    for (const std::string family :
         {"wsk_shard_visited_total", "wsk_shard_pruned_total",
          "wsk_shard_mutations_total", "wsk_shard_objects"}) {
      EXPECT_NE(report.find(family + "{shard=\"" + shard + "\"} "),
                std::string::npos)
          << family << " shard " << shard;
    }
  }
}

// The linter must actually reject bad documents, or the pass above is
// meaningless.
TEST(PrometheusLintTest, LinterCatchesMalformedExposition) {
  EXPECT_TRUE(LintExposition("# HELP wsk_x Fine.\n"
                             "# TYPE wsk_x gauge\n"
                             "wsk_x 1\n")
                  .empty());

  // TYPE without its HELP line directly above.
  EXPECT_FALSE(LintExposition("# TYPE wsk_x gauge\nwsk_x 1\n").empty());
  // Sample of an undeclared family.
  EXPECT_FALSE(LintExposition("wsk_y 1\n").empty());
  // Counter without the _total suffix.
  EXPECT_FALSE(LintExposition("# HELP wsk_c Bad.\n"
                              "# TYPE wsk_c counter\n"
                              "wsk_c 1\n")
                   .empty());
  // Invalid metric name and unparseable value.
  EXPECT_FALSE(LintExposition("# HELP wsk_x Fine.\n"
                              "# TYPE wsk_x gauge\n"
                              "wsk-x 1\n")
                   .empty());
  EXPECT_FALSE(LintExposition("# HELP wsk_x Fine.\n"
                              "# TYPE wsk_x gauge\n"
                              "wsk_x one\n")
                   .empty());
  // Bad label escape.
  EXPECT_FALSE(LintExposition("# HELP wsk_x Fine.\n"
                              "# TYPE wsk_x gauge\n"
                              "wsk_x{l=\"a\\q\"} 1\n")
                   .empty());

  const std::string hist_prefix =
      "# HELP wsk_h Fine.\n"
      "# TYPE wsk_h histogram\n";
  // Non-cumulative bucket counts.
  EXPECT_FALSE(LintExposition(hist_prefix +
                              "wsk_h_bucket{le=\"0.1\"} 5\n"
                              "wsk_h_bucket{le=\"0.2\"} 3\n"
                              "wsk_h_bucket{le=\"+Inf\"} 5\n"
                              "wsk_h_sum 1\n"
                              "wsk_h_count 5\n")
                   .empty());
  // +Inf bucket disagrees with _count.
  EXPECT_FALSE(LintExposition(hist_prefix +
                              "wsk_h_bucket{le=\"0.1\"} 5\n"
                              "wsk_h_bucket{le=\"+Inf\"} 5\n"
                              "wsk_h_sum 1\n"
                              "wsk_h_count 6\n")
                   .empty());
  // Missing _sum.
  EXPECT_FALSE(LintExposition(hist_prefix +
                              "wsk_h_bucket{le=\"+Inf\"} 1\n"
                              "wsk_h_count 1\n")
                   .empty());
  // A clean histogram passes.
  EXPECT_TRUE(LintExposition(hist_prefix +
                             "wsk_h_bucket{le=\"0.1\"} 3\n"
                             "wsk_h_bucket{le=\"0.2\"} 5\n"
                             "wsk_h_bucket{le=\"+Inf\"} 5\n"
                             "wsk_h_sum 0.4\n"
                             "wsk_h_count 5\n")
                  .empty());
}

}  // namespace
}  // namespace wsk
