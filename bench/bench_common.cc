#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/rng.h"
#include "data/generator.h"
#include "observability/trace.h"

namespace wsk::bench {

namespace {

uint32_t EnvU32(const char* name, uint32_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const long parsed = std::strtol(value, nullptr, 10);
  WSK_CHECK_MSG(parsed > 0, "bad %s=%s", name, value);
  return static_cast<uint32_t>(parsed);
}

struct EngineBundle {
  Dataset dataset;
  std::unique_ptr<WhyNotEngine> engine;
};

EngineBundle* BuildBundle(const DatasetSpec& spec) {
  auto* bundle = new EngineBundle();
  GeneratorConfig config;
  config.num_objects = spec.objects != 0 ? spec.objects : EnvObjects();
  config.vocab_size = spec.vocab != 0
                          ? spec.vocab
                          : EnvU32("WSK_BENCH_VOCAB",
                                   std::max<uint32_t>(
                                       100, config.num_objects / 5));
  config.seed = spec.seed;
  bundle->dataset = GenerateDataset(config);
  const WhyNotEngine::Config engine_config = BenchEngineConfig();
  bundle->engine =
      WhyNotEngine::Build(&bundle->dataset, engine_config).value();
  std::fprintf(stderr,
               "[wsk-bench] dataset: %u objects, %u distinct terms "
               "(seed %llu); index node capacity %u, page %u B, "
               "buffer %zu B\n",
               static_cast<uint32_t>(bundle->dataset.size()),
               bundle->dataset.vocabulary().num_terms(),
               static_cast<unsigned long long>(config.seed),
               engine_config.node_capacity, engine_config.page_size,
               engine_config.buffer_bytes);
  return bundle;
}

}  // namespace

WhyNotEngine::Config BenchEngineConfig() {
  WhyNotEngine::Config config;
  // The paper pairs a 4 MiB buffer with indexes hundreds of MiB large; at
  // bench scale the same ratio needs a smaller buffer or every query would
  // be served from memory and the I/O series would flatline at zero.
  config.buffer_bytes =
      static_cast<size_t>(EnvU32("WSK_BENCH_BUFFER_KB", 512)) * 1024;
  return config;
}

uint32_t EnvObjects() { return EnvU32("WSK_BENCH_OBJECTS", 20000); }

uint32_t EnvQueriesPerPoint() { return EnvU32("WSK_BENCH_QUERIES", 3); }

WhyNotEngine& SharedEngine() {
  static EngineBundle* bundle = BuildBundle(DatasetSpec{});
  return *bundle->engine;
}

WhyNotEngine& EngineFor(const DatasetSpec& spec) {
  // Keyed cache; engines live for the process (leaked deliberately: bench
  // binaries exit right after).
  static auto* cache = new std::map<std::pair<uint32_t, uint64_t>,
                                    EngineBundle*>();
  const auto key = std::make_pair(spec.objects, spec.seed);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, BuildBundle(spec)).first;
  }
  return *it->second->engine;
}

std::vector<WhyNotCase> MakeCases(const WhyNotEngine& engine,
                                  const WorkloadSpec& spec, uint32_t count) {
  const Dataset& dataset = engine.dataset();
  WSK_CHECK(dataset.size() > spec.missing_position + spec.num_missing + 1);
  Rng rng(spec.seed);
  std::vector<WhyNotCase> cases;
  int attempts = 0;
  while (cases.size() < count && attempts < 500) {
    ++attempts;
    WhyNotCase c;
    c.query.loc = Point{rng.NextDouble(), rng.NextDouble()};
    c.query.k = spec.k0;
    c.query.alpha = spec.alpha;

    // Query keywords: start from a random object's doc (so the query is
    // plausible), then pad with further objects' terms until we have the
    // requested count.
    std::vector<TermId> terms;
    while (terms.size() < spec.num_keywords) {
      const SpatialObject& pivot = dataset.object(
          static_cast<ObjectId>(rng.NextUint64(dataset.size())));
      for (TermId t : pivot.doc) {
        if (terms.size() >= spec.num_keywords) break;
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
    }
    c.query.doc = KeywordSet(std::move(terms));

    // Missing objects drawn from stream positions; the paper's default is
    // the single object at position 5*k0+1. For multiple missing objects,
    // positions are spread over (k0, missing_position].
    bool ok = true;
    for (uint32_t i = 0; i < spec.num_missing && ok; ++i) {
      const uint32_t position =
          spec.num_missing == 1
              ? spec.missing_position
              : spec.k0 + 1 +
                    static_cast<uint32_t>(rng.NextUint64(
                        spec.missing_position - spec.k0));
      auto id = engine.ObjectAtPosition(c.query, position);
      if (!id.ok()) {
        ok = false;
        break;
      }
      if (std::find(c.missing.begin(), c.missing.end(), id.value()) !=
          c.missing.end()) {
        ok = false;  // duplicate position draw; retry the case
        break;
      }
      if (spec.max_missing_doc > 0 &&
          dataset.object(id.value()).doc.size() > spec.max_missing_doc) {
        ok = false;
        break;
      }
      // Ties can place the object inside the top-k; skip such cases.
      if (engine.Rank(c.query, id.value()).value() <= spec.k0) {
        ok = false;
        break;
      }
      c.missing.push_back(id.value());
    }
    if (ok && spec.max_universe > 0) {
      KeywordSet universe = c.query.doc;
      for (ObjectId m : c.missing) {
        universe = universe.Union(dataset.object(m).doc);
      }
      if (universe.size() > spec.max_universe) ok = false;
    }
    if (ok) cases.push_back(std::move(c));
  }
  WSK_CHECK_MSG(!cases.empty(), "could not generate any why-not case");
  return cases;
}

void RunWhyNot(benchmark::State& state, WhyNotEngine& engine,
               WhyNotAlgorithm algorithm, const WorkloadSpec& spec,
               const WhyNotOptions& options) {
  const std::vector<WhyNotCase> cases =
      MakeCases(engine, spec, EnvQueriesPerPoint());

  // Warm the buffer (steady-state measurement, as the paper's averages).
  {
    const auto warm =
        engine.Answer(algorithm, cases[0].query, cases[0].missing, options);
    WSK_CHECK_MSG(warm.ok(), "%s", warm.status().ToString().c_str());
  }

  double total_ms = 0.0;
  double total_io = 0.0;
  double total_penalty = 0.0;
  double total_evaluated = 0.0;
  double total_filtered = 0.0;
  double total_skipped = 0.0;
  double total_pruned = 0.0;
  double total_nodes = 0.0;
  uint64_t runs = 0;
  for (auto _ : state) {
    for (const WhyNotCase& c : cases) {
      const auto result = engine.Answer(algorithm, c.query, c.missing,
                                        options);
      WSK_CHECK_MSG(result.ok(), "%s", result.status().ToString().c_str());
      const WhyNotResult& r = result.value();
      total_ms += r.stats.elapsed_ms;
      total_io += static_cast<double>(r.stats.io_reads);
      total_penalty += r.refined.penalty;
      total_evaluated += static_cast<double>(r.stats.candidates_evaluated);
      total_filtered += static_cast<double>(r.stats.candidates_filtered);
      total_skipped +=
          static_cast<double>(r.stats.candidates_skipped_order);
      total_pruned +=
          static_cast<double>(r.stats.candidates_pruned_bounds);
      total_nodes += static_cast<double>(r.stats.nodes_expanded);
      ++runs;
    }
  }
  state.counters["avg_ms"] = total_ms / runs;
  state.counters["avg_io"] = total_io / runs;
  state.counters["avg_penalty"] = total_penalty / runs;
  state.counters["cand_eval"] = total_evaluated / runs;
  // Pruning-effectiveness columns (docs/OBSERVABILITY.md): together with
  // cand_eval these partition the enumerated candidate set.
  state.counters["cand_filtered"] = total_filtered / runs;
  state.counters["cand_skipped"] = total_skipped / runs;
  state.counters["cand_pruned"] = total_pruned / runs;
  state.counters["nodes_expanded"] = total_nodes / runs;
}

void RegisterOne(const std::string& label, WhyNotAlgorithm algorithm,
                 const WorkloadSpec& spec, const WhyNotOptions& options) {
  const std::string name =
      std::string(WhyNotAlgorithmName(algorithm)) + "/" + label;
  benchmark::RegisterBenchmark(
      name.c_str(),
      [algorithm, spec, options](benchmark::State& state) {
        RunWhyNot(state, SharedEngine(), algorithm, spec, options);
      })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

void RegisterAllAlgorithms(const std::string& label, const WorkloadSpec& spec,
                           const WhyNotOptions& options) {
  for (WhyNotAlgorithm algorithm :
       {WhyNotAlgorithm::kBasic, WhyNotAlgorithm::kAdvanced,
        WhyNotAlgorithm::kKcrBased}) {
    RegisterOne(label, algorithm, spec, options);
  }
}

namespace {

// Tees console output while keeping a copy of every run for the JSON dump.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  bool ReportContext(const Context& context) override {
    return benchmark::ConsoleReporter::ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      runs_.push_back(run);
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }
  const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

void WriteJson(const std::string& path, const std::vector<
                   benchmark::BenchmarkReporter::Run>& runs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  WSK_CHECK_MSG(f != nullptr, "cannot open --json file %s", path.c_str());
  std::fprintf(f, "{\n  \"context\": {\n");
  std::fprintf(f, "    \"objects\": %u,\n", EnvObjects());
  std::fprintf(f, "    \"queries_per_point\": %u\n", EnvQueriesPerPoint());
  std::fprintf(f, "  },\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < runs.size(); ++i) {
    const auto& run = runs[i];
    std::string name;
    AppendJsonEscaped(run.benchmark_name(), &name);
    const double iterations = static_cast<double>(run.iterations);
    const double ns_per_op =
        iterations > 0 ? run.real_accumulated_time * 1e9 / iterations : 0.0;
    std::fprintf(f, "    {\n      \"name\": \"%s\",\n", name.c_str());
    std::fprintf(f, "      \"iterations\": %llu,\n",
                 static_cast<unsigned long long>(run.iterations));
    std::fprintf(f, "      \"ns_per_op\": %.17g,\n", ns_per_op);
    std::fprintf(f, "      \"counters\": {");
    bool first = true;
    for (const auto& [counter_name, counter] : run.counters) {
      std::string escaped;
      AppendJsonEscaped(counter_name, &escaped);
      std::fprintf(f, "%s\n        \"%s\": %.17g", first ? "" : ",",
                   escaped.c_str(), static_cast<double>(counter.value));
      first = false;
    }
    std::fprintf(f, "%s      }\n    }%s\n", first ? "" : "\n      ",
                 i + 1 < runs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[wsk-bench] wrote %zu benchmark results to %s\n",
               runs.size(), path.c_str());
}

}  // namespace

int RunRegisteredBenchmarks(int argc, char** argv) {
  // Strip --json before Google Benchmark sees the argument list.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonTeeReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    WriteJson(json_path, reporter.runs());
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace wsk::bench
