// wsk_cli — command-line front end for the library.
//
// Subcommands:
//   generate  --out FILE [--objects N] [--vocab V] [--seed S] [--gn]
//       Write a synthetic EURO-like (or GN-like) dataset as CSV.
//   topk      --data FILE --x X --y Y --keywords "a b c" [--k K] [--alpha A]
//       Run a spatial keyword top-k query.
//   whynot    --data FILE --x X --y Y --keywords "a b c" --missing ID
//             [--missing ID ...] [--k K] [--alpha A] [--lambda L]
//             [--algorithm bs|advanced|kcr] [--threads T] [--sample T]
//       Answer a keyword-adaption why-not query.
//   explain   --data FILE --x X --y Y --keywords "a b c" --missing ID
//             [--k K] [--alpha A]
//       Explain why an object is (not) in the result.
//   trace     --data FILE --x X --y Y --keywords "a b c" --missing ID
//             [--missing ID ...] [--k K] [--alpha A] [--lambda L]
//             [--algorithm bs|advanced|kcr] [--threads T] [--out FILE]
//       Run a why-not query with tracing enabled, write a Chrome
//       trace-event JSON profile (load it at https://ui.perfetto.dev),
//       explain each missing object into the trace, and print the
//       per-stage/per-counter summary (docs/OBSERVABILITY.md).
//   statsz    --data FILE (--queries FILE | --random N) [--workers W]
//             [--queue Q] [--inflight I] [--timeout-ms T] [--cache N]
//             [--batch N] [--batch-window-ms MS] [--repeat R] [--seed S]
//             [--top [--frames N] [--interval-ms MS]]
//             [--live [--mutations M] [--delta CAP]]
//       Replay a workload through the QueryService and print the
//       Prometheus text exposition of its metrics registry. --top
//       switches to a refreshing dashboard: the workload replays once
//       per frame and each frame prints the window.1s/10s/60s,
//       telemetry and compaction lines of the text report instead of
//       the full exposition. --live serves the segmented backend and
//       streams M random inserts per frame so rotations and merges run
//       (and the wsk_bg_* counters move) while windows fill.
//   profiles  --data FILE (--queries FILE | --random N) [--sample-every N]
//             [--reservoir N] [--dump FILE] [service flags]
//       Replay the workload with profile sampling forced on (default:
//       every request) and list the retained sampled profiles — one
//       line each with wall/queue/stage times and event counts. --dump
//       writes the most recent profile as Chrome trace-event JSON
//       (load it at https://ui.perfetto.dev).
//   serve     --data FILE (--queries FILE | --random N) [--workers W]
//             [--queue Q] [--inflight I] [--timeout-ms T] [--cache N]
//             [--batch N] [--batch-window-ms MS] [--repeat R] [--seed S]
//             [--shards N]
//       Replay a query workload through the concurrent QueryService and
//       print per-status counts, throughput, and the metrics report.
//       --shards N > 1 partitions the dataset into N spatial tiles served
//       by the scatter-gather ShardCoordinator with cross-shard bound
//       pruning (docs/SHARDING.md); the report gains shard counters.
//       --batch N > 1 groups concurrent top-k requests behind a short
//       collection window (--batch-window-ms, default 0.25) and answers
//       each batch with one shared index traversal (docs/BATCHING.md);
//       the report gains batch occupancy / amortization counters.
//   inspect   (--data FILE [--format v1|v2] [--capacity N] [--mmap]
//              | --index FILE [--mmap])
//       Print layout facts of the index files: node format version,
//       height, object/node counts, file size, and a per-level
//       node/entry/byte histogram (docs/STORAGE.md "v2 node format &
//       mmap"). --data builds both trees from a CSV dataset; --index
//       opens one existing finalized index file (the tree kind is
//       detected from the meta page magic).
//   live      --data FILE (--queries FILE | --random N) [--mutations M]
//             [--delta CAP] [--no-merge] [--workers W] [--cache N]
//             [--seed S]
//       Serve the workload on the live (segmented) backend while
//       streaming M random insert/update/delete mutations through the
//       service, force a final compaction, and print the mutation
//       counts, dataset version, and segment counters
//       (docs/SEGMENTS.md).
//       Query file lines:
//         topk <x> <y> <k> <alpha> <keywords...>
//         whynot <bs|advanced|kcr> <x> <y> <k> <alpha> <lambda> \
//                <missing-id[,id...]> <keywords...>
//       Blank lines and lines starting with '#' are skipped.
//
// Service subcommands (statsz/serve/live/profiles) share the continuous-
// telemetry flags (docs/OBSERVABILITY.md "Continuous telemetry"):
//   --sample-every N   profile every Nth request (default 1024)
//   --slow-min-ms MS   slow-query capture floor (default 50)
//   --slow-factor F    slow threshold = max(floor, F * rolling p99)
//   --slow-log FILE    append each slow query as one JSON line
//   --no-telemetry     disable the hub entirely (overhead measurement)
//
// Example:
//   wsk_cli generate --out /tmp/pois.csv --objects 5000
//   wsk_cli topk --data /tmp/pois.csv --x 0.5 --y 0.5 --keywords "term1 term7"
//   wsk_cli whynot --data /tmp/pois.csv --x 0.5 --y 0.5 \
//       --keywords "term1 term7" --missing 1234 --algorithm kcr
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/timer.h"
#include "core/engine.h"
#include "core/explain.h"
#include "data/dataset_io.h"
#include "data/generator.h"
#include "observability/trace.h"
#include "segment/segmented_engine.h"
#include "service/query_service.h"
#include "shard/shard_coordinator.h"

namespace {

using namespace wsk;

// Minimal flag parsing: --name value pairs; repeated flags accumulate.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i < argc; ++i) {
      // A flag followed by another flag is boolean (--live --top ...);
      // only a non-flag token becomes its value.
      if (std::strncmp(argv[i], "--", 2) == 0 && i + 1 < argc &&
          std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[argv[i] + 2].push_back(argv[i + 1]);
        ++i;
      } else if (std::strncmp(argv[i], "--", 2) == 0) {
        values_[argv[i] + 2].push_back("");
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
        ok_ = false;
      }
    }
  }

  bool ok() const { return ok_; }

  const char* Get(const std::string& name,
                  const char* fallback = nullptr) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    return it->second.back().c_str();
  }

  std::vector<std::string> GetAll(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? std::vector<std::string>{} : it->second;
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  // A numeric flag must parse whole: an empty value, trailing characters
  // or an out-of-range number is a usage error (exit 2).
  double GetDouble(const std::string& name, double fallback) const {
    const char* v = Get(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const double value = std::strtod(v, &end);
    CheckNumber(name, v, end);
    return value;
  }

  long GetLong(const std::string& name, long fallback) const {
    const char* v = Get(name);
    if (v == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(v, &end, 10);
    CheckNumber(name, v, end);
    return value;
  }

 private:
  static void CheckNumber(const std::string& name, const char* value,
                          const char* end) {
    if (*value != '\0' && *end == '\0' && errno != ERANGE) return;
    std::fprintf(stderr, "invalid number for --%s: '%s'\n", name.c_str(),
                 value);
    std::exit(2);
  }

  std::map<std::string, std::vector<std::string>> values_;
  bool ok_ = true;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: wsk_cli "
      "<generate|topk|whynot|explain|trace|statsz|serve|live|inspect"
      "|profiles> [--flags]\n"
      "see the header of tools/wsk_cli.cc for details\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Generate(const Args& args) {
  const char* out = args.Get("out");
  if (out == nullptr) {
    std::fprintf(stderr, "generate requires --out FILE\n");
    return 2;
  }
  GeneratorConfig config = args.Has("gn")
                               ? GnLikeConfig(0.01)
                               : EuroLikeConfig(0.05);
  config.num_objects =
      static_cast<uint32_t>(args.GetLong("objects", config.num_objects));
  config.vocab_size =
      static_cast<uint32_t>(args.GetLong("vocab", config.vocab_size));
  config.seed = static_cast<uint64_t>(args.GetLong("seed", 42));
  const Dataset dataset = GenerateDataset(config);
  const Status saved = SaveDatasetCsv(dataset, out);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %zu objects (%u distinct terms) to %s\n", dataset.size(),
              dataset.vocabulary().num_terms(), out);
  return 0;
}

// Loads the dataset and parses the query flags shared by topk / whynot /
// explain. Returns nullptr on error (after printing it).
std::unique_ptr<Dataset> LoadData(const Args& args) {
  const char* path = args.Get("data");
  if (path == nullptr) {
    std::fprintf(stderr, "missing --data FILE\n");
    return nullptr;
  }
  auto loaded = LoadDatasetCsv(path);
  if (!loaded.ok()) {
    Fail(loaded.status());
    return nullptr;
  }
  return std::make_unique<Dataset>(std::move(loaded).value());
}

bool ParseQuery(const Args& args, const Dataset& dataset,
                SpatialKeywordQuery* query) {
  query->loc = Point{args.GetDouble("x", 0.5), args.GetDouble("y", 0.5)};
  const long k = args.GetLong("k", 10);
  if (k < 0 || k > static_cast<long>(UINT32_MAX)) {
    std::fprintf(stderr, "--k must lie in [0, %u]\n", UINT32_MAX);
    return false;
  }
  query->k = static_cast<uint32_t>(k);
  query->alpha = args.GetDouble("alpha", 0.5);
  if (const Status valid = ValidateTopKQuery(*query); !valid.ok()) {
    Fail(valid);
    return false;
  }
  const char* keywords = args.Get("keywords");
  if (keywords == nullptr) {
    std::fprintf(stderr, "missing --keywords \"a b c\"\n");
    return false;
  }
  std::istringstream words(keywords);
  std::string word;
  std::vector<TermId> terms;
  while (words >> word) {
    const TermId t = dataset.vocabulary().Find(word);
    if (t == Vocabulary::kInvalidTermId) {
      std::fprintf(stderr, "warning: keyword \"%s\" not in the dataset\n",
                   word.c_str());
      continue;
    }
    terms.push_back(t);
  }
  if (terms.empty()) {
    std::fprintf(stderr, "no usable query keywords\n");
    return false;
  }
  query->doc = KeywordSet(std::move(terms));
  return true;
}

std::string FormatDoc(const Dataset& dataset, const KeywordSet& doc) {
  std::string out = "{";
  bool first = true;
  for (TermId t : doc) {
    if (!first) out += ", ";
    out += dataset.vocabulary().TermString(t);
    first = false;
  }
  out += "}";
  return out;
}

int TopK(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;
  SpatialKeywordQuery query;
  if (!ParseQuery(args, *dataset, &query)) return 2;

  auto engine_or = WhyNotEngine::Build(dataset.get(), {});
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();

  auto top_or = engine->TopK(query);
  if (!top_or.ok()) return Fail(top_or.status());
  const std::vector<ScoredObject> top = std::move(top_or).value();
  std::printf("top-%u for %s at (%g, %g):\n", query.k,
              FormatDoc(*dataset, query.doc).c_str(), query.loc.x,
              query.loc.y);
  for (size_t i = 0; i < top.size(); ++i) {
    const SpatialObject& o = dataset->object(top[i].id);
    std::printf("%3zu. object %-8u score %.4f  at (%.4f, %.4f)  %s\n", i + 1,
                top[i].id, top[i].score, o.loc.x, o.loc.y,
                FormatDoc(*dataset, o.doc).c_str());
  }
  return 0;
}

int WhyNot(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;
  SpatialKeywordQuery query;
  if (!ParseQuery(args, *dataset, &query)) return 2;

  std::vector<ObjectId> missing;
  for (const std::string& v : args.GetAll("missing")) {
    missing.push_back(
        static_cast<ObjectId>(std::strtoul(v.c_str(), nullptr, 10)));
  }
  if (missing.empty()) {
    std::fprintf(stderr, "whynot requires at least one --missing ID\n");
    return 2;
  }

  WhyNotAlgorithm algorithm = WhyNotAlgorithm::kKcrBased;
  const std::string algo_name = args.Get("algorithm", "kcr");
  if (algo_name == "bs") {
    algorithm = WhyNotAlgorithm::kBasic;
  } else if (algo_name == "advanced") {
    algorithm = WhyNotAlgorithm::kAdvanced;
  } else if (algo_name != "kcr") {
    std::fprintf(stderr, "unknown --algorithm %s (bs|advanced|kcr)\n",
                 algo_name.c_str());
    return 2;
  }

  WhyNotOptions options;
  options.lambda = args.GetDouble("lambda", 0.5);
  options.num_threads = static_cast<int>(args.GetLong("threads", 0));
  options.sample_size = static_cast<uint32_t>(args.GetLong("sample", 0));

  auto engine_or = WhyNotEngine::Build(dataset.get(), {});
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();

  auto result_or = engine->Answer(algorithm, query, missing, options);
  if (!result_or.ok()) return Fail(result_or.status());
  const WhyNotResult& result = result_or.value();

  if (result.already_in_result) {
    std::printf("every \"missing\" object already ranks within the top-%u\n",
                query.k);
    return 0;
  }
  std::printf("algorithm:      %s\n", WhyNotAlgorithmName(algorithm));
  std::printf("initial R(M,q): %u (k0 = %u)\n", result.stats.initial_rank,
              query.k);
  std::printf("refined doc':   %s\n",
              FormatDoc(*dataset, result.refined.doc).c_str());
  std::printf("refined k':     %u\n", result.refined.k);
  std::printf("penalty:        %.4f (lambda %.2f)\n", result.refined.penalty,
              options.lambda);
  std::printf("cost:           %.2f ms, %llu page reads, %llu of %llu "
              "candidates evaluated\n",
              result.stats.elapsed_ms,
              static_cast<unsigned long long>(result.stats.io_reads),
              static_cast<unsigned long long>(
                  result.stats.candidates_evaluated),
              static_cast<unsigned long long>(result.stats.candidates_total));
  return 0;
}

int Explain(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;
  SpatialKeywordQuery query;
  if (!ParseQuery(args, *dataset, &query)) return 2;
  const char* missing = args.Get("missing");
  if (missing == nullptr) {
    std::fprintf(stderr, "explain requires --missing ID\n");
    return 2;
  }
  auto engine_or = WhyNotEngine::Build(dataset.get(), {});
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();
  auto explanation = ExplainMiss(
      *engine, query,
      static_cast<ObjectId>(std::strtoul(missing, nullptr, 10)));
  if (!explanation.ok()) return Fail(explanation.status());
  std::printf("%s\n", explanation.value().ToString().c_str());
  return 0;
}

bool ParseAlgorithmName(const std::string& name, WhyNotAlgorithm* algorithm) {
  if (name == "bs") {
    *algorithm = WhyNotAlgorithm::kBasic;
  } else if (name == "advanced") {
    *algorithm = WhyNotAlgorithm::kAdvanced;
  } else if (name == "kcr") {
    *algorithm = WhyNotAlgorithm::kKcrBased;
  } else {
    return false;
  }
  return true;
}

int Trace(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;
  SpatialKeywordQuery query;
  if (!ParseQuery(args, *dataset, &query)) return 2;

  std::vector<ObjectId> missing;
  for (const std::string& v : args.GetAll("missing")) {
    missing.push_back(
        static_cast<ObjectId>(std::strtoul(v.c_str(), nullptr, 10)));
  }
  if (missing.empty()) {
    std::fprintf(stderr, "trace requires at least one --missing ID\n");
    return 2;
  }

  WhyNotAlgorithm algorithm = WhyNotAlgorithm::kKcrBased;
  if (!ParseAlgorithmName(args.Get("algorithm", "kcr"), &algorithm)) {
    std::fprintf(stderr, "unknown --algorithm %s (bs|advanced|kcr)\n",
                 args.Get("algorithm", "kcr"));
    return 2;
  }

  WhyNotOptions options;
  options.lambda = args.GetDouble("lambda", 0.5);
  options.num_threads = static_cast<int>(args.GetLong("threads", 0));
  options.sample_size = static_cast<uint32_t>(args.GetLong("sample", 0));
  TraceRecorder recorder;
  options.trace = &recorder;

  auto engine_or = WhyNotEngine::Build(dataset.get(), {});
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();

  auto result_or = engine->Answer(algorithm, query, missing, options);
  if (!result_or.ok()) return Fail(result_or.status());
  const WhyNotResult& result = result_or.value();

  // One annotation per missing object explaining its standing.
  for (ObjectId id : missing) {
    auto explanation = ExplainMiss(*engine, query, id, &recorder);
    if (!explanation.ok()) return Fail(explanation.status());
  }

  const char* out = args.Get("out", "trace.json");
  const Status written = recorder.WriteChromeTrace(out);
  if (!written.ok()) return Fail(written);

  std::printf("algorithm:    %s\n", WhyNotAlgorithmName(algorithm));
  std::printf("refined doc': %s, k' = %u (penalty %.4f)\n",
              FormatDoc(*dataset, result.refined.doc).c_str(),
              result.refined.k, result.refined.penalty);
  std::printf("trace:        %zu events (%llu dropped) -> %s\n",
              recorder.num_events(),
              static_cast<unsigned long long>(recorder.dropped_events()), out);
  std::printf("%s", recorder.Summary().c_str());
  return 0;
}

// One parsed workload request for the serve subcommand.
struct ServeRequest {
  bool is_whynot = false;
  SpatialKeywordQuery query;
  WhyNotAlgorithm algorithm = WhyNotAlgorithm::kKcrBased;
  std::vector<ObjectId> missing;
  WhyNotOptions options;
};

// Resolves whitespace-separated keyword strings (the rest of `line_in`)
// against the dataset vocabulary; unknown words are skipped.
KeywordSet ReadKeywords(std::istringstream* line_in, const Dataset& dataset) {
  std::vector<TermId> terms;
  std::string word;
  while (*line_in >> word) {
    const TermId t = dataset.vocabulary().Find(word);
    if (t != Vocabulary::kInvalidTermId) terms.push_back(t);
  }
  return KeywordSet(std::move(terms));
}

bool LoadQueryFile(const char* path, const Dataset& dataset,
                   std::vector<ServeRequest>* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open query file %s\n", path);
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream line_in(line);
    std::string kind;
    line_in >> kind;
    ServeRequest req;
    if (kind == "topk") {
      line_in >> req.query.loc.x >> req.query.loc.y >> req.query.k >>
          req.query.alpha;
    } else if (kind == "whynot") {
      req.is_whynot = true;
      std::string algo, missing_csv;
      line_in >> algo >> req.query.loc.x >> req.query.loc.y >> req.query.k >>
          req.query.alpha >> req.options.lambda >> missing_csv;
      if (!ParseAlgorithmName(algo, &req.algorithm)) {
        std::fprintf(stderr, "%s:%d: unknown algorithm %s\n", path, line_no,
                     algo.c_str());
        return false;
      }
      std::istringstream ids(missing_csv);
      std::string id;
      while (std::getline(ids, id, ',')) {
        req.missing.push_back(
            static_cast<ObjectId>(std::strtoul(id.c_str(), nullptr, 10)));
      }
      if (req.missing.empty()) {
        std::fprintf(stderr, "%s:%d: whynot line without missing ids\n", path,
                     line_no);
        return false;
      }
    } else {
      std::fprintf(stderr, "%s:%d: unknown request kind %s\n", path, line_no,
                   kind.c_str());
      return false;
    }
    if (!line_in && !line_in.eof()) {
      std::fprintf(stderr, "%s:%d: malformed request line\n", path, line_no);
      return false;
    }
    req.query.doc = ReadKeywords(&line_in, dataset);
    if (req.query.doc.empty()) {
      std::fprintf(stderr, "%s:%d: no usable keywords\n", path, line_no);
      return false;
    }
    out->push_back(std::move(req));
  }
  return true;
}

// Synthesizes a mixed workload (~2/3 top-k, 1/3 why-not cycling through the
// three algorithms) anchored at real objects so queries hit data. Query
// docs are trimmed to 4 terms and missing objects drawn from small-doc
// objects to keep the candidate universe |doc0 ∪ M.doc| small — the BS
// baseline is exponential in it.
std::vector<ServeRequest> RandomWorkload(size_t count, const Dataset& dataset,
                                         uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<size_t> pick_object(0, dataset.size() - 1);
  std::uniform_real_distribution<double> jitter(-0.05, 0.05);
  const auto pick_small_doc = [&](size_t max_terms) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const ObjectId id = static_cast<ObjectId>(pick_object(rng));
      if (dataset.object(id).doc.size() <= max_terms) return id;
    }
    return static_cast<ObjectId>(pick_object(rng));
  };
  std::vector<ServeRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const SpatialObject& anchor = dataset.object(pick_small_doc(6));
    ServeRequest req;
    req.query.loc = Point{anchor.loc.x + jitter(rng), anchor.loc.y + jitter(rng)};
    req.query.k = 5;
    req.query.alpha = 0.5;
    std::vector<TermId> terms(anchor.doc.begin(), anchor.doc.end());
    if (terms.size() > 4) terms.resize(4);
    req.query.doc = KeywordSet(std::move(terms));
    if (i % 3 == 2) {
      req.is_whynot = true;
      const WhyNotAlgorithm algorithms[] = {WhyNotAlgorithm::kBasic,
                                            WhyNotAlgorithm::kAdvanced,
                                            WhyNotAlgorithm::kKcrBased};
      req.algorithm = algorithms[(i / 3) % 3];
      req.missing.push_back(pick_small_doc(3));
      req.options.lambda = 0.5;
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

// Builds the serve/statsz workload from --queries or --random. Returns
// false on a usage error (after printing it).
bool BuildWorkload(const Args& args, const Dataset& dataset, const char* cmd,
                   std::vector<ServeRequest>* requests) {
  if (const char* queries = args.Get("queries")) {
    if (!LoadQueryFile(queries, dataset, requests)) return false;
  } else if (args.Has("random")) {
    const long n = args.GetLong("random", 100);
    if (n <= 0) {
      std::fprintf(stderr, "--random requires a positive count\n");
      return false;
    }
    *requests =
        RandomWorkload(static_cast<size_t>(n), dataset,
                       static_cast<uint64_t>(args.GetLong("seed", 42)));
  } else {
    std::fprintf(stderr, "%s requires --queries FILE or --random N\n", cmd);
    return false;
  }
  if (requests->empty()) {
    std::fprintf(stderr, "empty workload\n");
    return false;
  }
  return true;
}

QueryServiceConfig ServiceConfigFromArgs(const Args& args) {
  QueryServiceConfig config;
  config.num_workers = static_cast<int>(args.GetLong("workers", 4));
  config.max_queue = static_cast<size_t>(args.GetLong("queue", 0));
  config.max_inflight = static_cast<size_t>(args.GetLong("inflight", 0));
  config.default_timeout_ms = args.GetDouble("timeout-ms", 0.0);
  config.cache_capacity = static_cast<size_t>(args.GetLong("cache", 1024));
  // --batch N > 1 collects concurrent top-k requests behind a short
  // window and runs each batch as one shared traversal (docs/BATCHING.md).
  config.batch_max_size = static_cast<size_t>(args.GetLong("batch", 1));
  config.batch_window_ms =
      args.GetDouble("batch-window-ms", config.batch_window_ms);
  // Continuous telemetry (docs/OBSERVABILITY.md): sampling rate, the
  // slow-query threshold knobs, and the optional JSONL sink.
  config.telemetry.enabled = !args.Has("no-telemetry");
  config.telemetry.sample_every = static_cast<uint64_t>(
      args.GetLong("sample-every",
                   static_cast<long>(config.telemetry.sample_every)));
  config.telemetry.slow_min_ms =
      args.GetDouble("slow-min-ms", config.telemetry.slow_min_ms);
  config.telemetry.slow_factor =
      args.GetDouble("slow-factor", config.telemetry.slow_factor);
  if (const char* slow_log = args.Get("slow-log"); slow_log != nullptr) {
    config.telemetry.slow_log_path = slow_log;
  }
  return config;
}

// Replays the workload once, blocking per request; true when every
// request succeeded.
bool ReplayWorkload(QueryService* service,
                    const std::vector<ServeRequest>& requests) {
  bool all_ok = true;
  for (const ServeRequest& req : requests) {
    if (req.is_whynot) {
      all_ok &=
          service->WhyNot(req.algorithm, req.query, req.missing, req.options)
              .ok();
    } else {
      all_ok &= service->TopK(req.query).ok();
    }
  }
  return all_ok;
}

int Serve(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;

  std::vector<ServeRequest> requests;
  if (!BuildWorkload(args, *dataset, "serve", &requests)) return 2;

  // --shards N > 1 serves through the scatter-gather coordinator (one
  // frozen engine per spatial tile, docs/SHARDING.md); the default is the
  // single frozen engine.
  const long num_shards = args.GetLong("shards", 1);
  std::unique_ptr<WhyNotEngine> engine;
  std::unique_ptr<ShardCoordinator> coordinator;
  const QueryBackend* backend = nullptr;
  if (num_shards > 1) {
    ShardCoordinator::Config config;
    config.num_shards = static_cast<uint32_t>(num_shards);
    auto coordinator_or = ShardCoordinator::Build(*dataset, config);
    if (!coordinator_or.ok()) return Fail(coordinator_or.status());
    coordinator = std::move(coordinator_or).value();
    backend = coordinator.get();
  } else {
    auto engine_or = WhyNotEngine::Build(dataset.get(), {});
    if (!engine_or.ok()) return Fail(engine_or.status());
    engine = std::move(engine_or).value();
    backend = engine.get();
  }

  QueryService service(backend, ServiceConfigFromArgs(args));

  const long repeat = args.GetLong("repeat", 1);
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> topk_futures;
  std::vector<std::future<StatusOr<QueryService::WhyNotResponse>>>
      whynot_futures;
  Timer wall;
  for (long r = 0; r < repeat; ++r) {
    for (const ServeRequest& req : requests) {
      if (req.is_whynot) {
        whynot_futures.push_back(service.SubmitWhyNot(
            req.algorithm, req.query, req.missing, req.options));
      } else {
        topk_futures.push_back(service.SubmitTopK(req.query));
      }
    }
  }

  std::map<StatusCode, uint64_t> by_code;
  uint64_t cache_hits = 0;
  for (auto& f : topk_futures) {
    const StatusOr<QueryService::TopKResponse> r = f.get();
    ++by_code[r.status().code()];
    if (r.ok() && r.value().cache_hit) ++cache_hits;
  }
  for (auto& f : whynot_futures) {
    const StatusOr<QueryService::WhyNotResponse> r = f.get();
    ++by_code[r.status().code()];
    if (r.ok() && r.value().cache_hit) ++cache_hits;
  }
  const double wall_s = wall.ElapsedSeconds();

  const size_t total = topk_futures.size() + whynot_futures.size();
  std::printf("served %zu requests (%zu topk, %zu whynot) in %.3f s — "
              "throughput %.1f qps, %llu cache hits\n",
              total, topk_futures.size(), whynot_futures.size(), wall_s,
              total / (wall_s > 0.0 ? wall_s : 1e-9),
              static_cast<unsigned long long>(cache_hits));
  for (const auto& [code, count] : by_code) {
    std::printf("  %-20s %llu\n", StatusCodeName(code),
                static_cast<unsigned long long>(count));
  }
  std::printf("%s", service.MetricsReport().c_str());
  if (const TelemetryHub* hub = service.telemetry()) {
    for (const QueryProfile& p : hub->SlowQueries()) {
      std::printf("slow  %s\n", p.Summary().c_str());
    }
  }
  return by_code.size() == 1 && by_code.count(StatusCode::kOk) == 1 ? 0 : 1;
}

// Serves the workload on the live (segmented) backend while a stream of
// random mutations flows through the service, then forces a compaction.
// Demonstrates that queries keep answering — and the result cache never
// serves stale data — while the dataset changes underneath them.
int Live(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;

  std::vector<ServeRequest> requests;
  if (!BuildWorkload(args, *dataset, "live", &requests)) return 2;

  SegmentedEngine::Config engine_config;
  engine_config.delta_capacity =
      static_cast<uint32_t>(args.GetLong("delta", 4096));
  engine_config.auto_merge = !args.Has("no-merge");
  auto engine_or = SegmentedEngine::Build(*dataset, engine_config);
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();

  QueryService service(engine.get(), ServiceConfigFromArgs(args));

  // Mutation stream: keywords drawn from the seed vocabulary so mutated
  // objects interact with the workload's query terms.
  const Vocabulary& vocabulary = engine->vocabulary();
  std::vector<std::string> terms;
  for (TermId t = 0; t < std::min(vocabulary.num_terms(), 64u); ++t) {
    terms.push_back(vocabulary.TermString(t));
  }
  // Objects a why-not request names as missing are never mutation
  // victims: deleting one would turn that request into INVALID_ARGUMENT.
  std::unordered_set<ObjectId> named;
  for (const ServeRequest& req : requests) {
    named.insert(req.missing.begin(), req.missing.end());
  }
  std::vector<ObjectId> live_ids;
  for (ObjectId id = 0; id < dataset->size(); ++id) {
    if (named.count(id) == 0) live_ids.push_back(id);
  }
  std::mt19937_64 rng(static_cast<uint64_t>(args.GetLong("seed", 42)));
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  const auto random_keywords = [&] {
    return std::vector<std::string>{terms[rng() % terms.size()],
                                    terms[rng() % terms.size()]};
  };

  const long mutations = args.GetLong("mutations", 200);
  uint64_t inserts = 0, updates = 0, deletes = 0;
  uint64_t version = engine->dataset_version();
  std::vector<std::future<StatusOr<QueryService::TopKResponse>>> topk_futures;
  std::vector<std::future<StatusOr<QueryService::WhyNotResponse>>>
      whynot_futures;
  size_t next_request = 0;
  Timer wall;
  for (long i = 0; i < mutations; ++i) {
    const uint64_t r = rng();
    StatusOr<QueryService::MutationResponse> response =
        Status::Internal("unset");
    if (r % 4 < 2 || live_ids.empty()) {
      response = service.Insert(Point{coord(rng), coord(rng)},
                                random_keywords());
      if (response.ok()) {
        live_ids.push_back(response.value().id);
        ++inserts;
      }
    } else {
      const size_t victim = r % live_ids.size();
      if (r % 4 == 2) {
        response = service.Update(live_ids[victim],
                                  Point{coord(rng), coord(rng)},
                                  random_keywords());
        if (response.ok()) ++updates;
      } else {
        response = service.Delete(live_ids[victim]);
        if (response.ok()) {
          live_ids[victim] = live_ids.back();
          live_ids.pop_back();
          ++deletes;
        }
      }
    }
    if (!response.ok()) return Fail(response.status());
    version = response.value().dataset_version;
    // A query every few mutations so reads race rotations and merges.
    if (i % 4 == 0) {
      const ServeRequest& req = requests[next_request++ % requests.size()];
      if (req.is_whynot) {
        whynot_futures.push_back(service.SubmitWhyNot(
            req.algorithm, req.query, req.missing, req.options));
      } else {
        topk_futures.push_back(service.SubmitTopK(req.query));
      }
    }
  }

  std::map<StatusCode, uint64_t> by_code;
  for (auto& f : topk_futures) ++by_code[f.get().status().code()];
  for (auto& f : whynot_futures) ++by_code[f.get().status().code()];
  const double wall_s = wall.ElapsedSeconds();

  const Status merged = engine->ForceMerge();
  if (!merged.ok()) return Fail(merged);

  const size_t queries = topk_futures.size() + whynot_futures.size();
  std::printf("applied %llu inserts, %llu updates, %llu deletes and served "
              "%zu queries in %.3f s — dataset version %llu, %zu live "
              "objects\n",
              static_cast<unsigned long long>(inserts),
              static_cast<unsigned long long>(updates),
              static_cast<unsigned long long>(deletes), queries, wall_s,
              static_cast<unsigned long long>(version),
              static_cast<size_t>(engine->segment_counters().live_objects));
  for (const auto& [code, count] : by_code) {
    std::printf("  %-20s %llu\n", StatusCodeName(code),
                static_cast<unsigned long long>(count));
  }
  std::printf("%s", service.MetricsReport().c_str());
  return by_code.empty() ||
                 (by_code.size() == 1 && by_code.count(StatusCode::kOk) == 1)
             ? 0
             : 1;
}

int Statsz(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;

  std::vector<ServeRequest> requests;
  if (!BuildWorkload(args, *dataset, "statsz", &requests)) return 2;

  // --live serves the segmented backend and streams random inserts so
  // rotations and merges run (moving the wsk_bg_* counters) while the
  // rolling windows fill; the default is the frozen engine.
  std::unique_ptr<WhyNotEngine> engine;
  std::unique_ptr<SegmentedEngine> segmented;
  const QueryBackend* backend = nullptr;
  if (args.Has("live")) {
    SegmentedEngine::Config config;
    // Small delta by default so the insert stream forces rotations.
    config.delta_capacity = static_cast<uint32_t>(args.GetLong("delta", 64));
    auto engine_or = SegmentedEngine::Build(*dataset, config);
    if (!engine_or.ok()) return Fail(engine_or.status());
    segmented = std::move(engine_or).value();
    backend = segmented.get();
  } else {
    auto engine_or = WhyNotEngine::Build(dataset.get(), {});
    if (!engine_or.ok()) return Fail(engine_or.status());
    engine = std::move(engine_or).value();
    backend = engine.get();
  }

  QueryService service(backend, ServiceConfigFromArgs(args));

  std::mt19937_64 rng(static_cast<uint64_t>(args.GetLong("seed", 42)));
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  const long mutations = args.GetLong("mutations", 200);
  const auto stream_mutations = [&]() -> Status {
    if (segmented == nullptr) return Status();
    const Vocabulary& vocab = segmented->vocabulary();
    const uint32_t pool = std::min(vocab.num_terms(), 64u);
    for (long i = 0; i < mutations; ++i) {
      const std::vector<std::string> keywords{
          vocab.TermString(static_cast<TermId>(rng() % pool)),
          vocab.TermString(static_cast<TermId>(rng() % pool))};
      const auto response =
          service.Insert(Point{coord(rng), coord(rng)}, keywords);
      if (!response.ok()) return response.status();
    }
    return Status();
  };

  const long repeat = args.GetLong("repeat", 1);
  bool all_ok = true;

  if (args.Has("top")) {
    // `top`-style refresh: one workload replay per frame, printing the
    // rolling-window dashboard instead of the full exposition.
    if (service.telemetry() == nullptr) {
      std::fprintf(stderr, "statsz --top requires telemetry enabled\n");
      return 2;
    }
    const long frames = std::max(1L, args.GetLong("frames", 3));
    const long interval_ms = args.GetLong("interval-ms", 200);
    for (long frame = 0; frame < frames; ++frame) {
      if (Status streamed = stream_mutations(); !streamed.ok()) {
        return Fail(streamed);
      }
      for (long r = 0; r < repeat; ++r) {
        all_ok &= ReplayWorkload(&service, requests);
      }
      std::printf("-- frame %ld/%ld %.*s\n", frame + 1, frames, 44,
                  "--------------------------------------------");
      // The text view's rolling-window, telemetry and compaction lines.
      std::istringstream report(service.MetricsReport());
      for (std::string line; std::getline(report, line);) {
        if (line.starts_with("window.") || line.starts_with("telemetry ") ||
            line.starts_with("compaction ")) {
          std::printf("%s\n", line.c_str());
        }
      }
      if (frame + 1 < frames && interval_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    }
    return all_ok ? 0 : 1;
  }

  if (Status streamed = stream_mutations(); !streamed.ok()) {
    return Fail(streamed);
  }
  for (long r = 0; r < repeat; ++r) {
    all_ok &= ReplayWorkload(&service, requests);
  }
  std::printf("%s", service.PrometheusReport().c_str());
  return all_ok ? 0 : 1;
}

// profiles: replay the workload with sampling forced on (every request by
// default) and list the retained sampled profiles.
int Profiles(const Args& args) {
  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;

  std::vector<ServeRequest> requests;
  if (!BuildWorkload(args, *dataset, "profiles", &requests)) return 2;

  auto engine_or = WhyNotEngine::Build(dataset.get(), {});
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();

  QueryServiceConfig config = ServiceConfigFromArgs(args);
  config.telemetry.enabled = true;
  config.telemetry.sample_every =
      static_cast<uint64_t>(args.GetLong("sample-every", 1));
  config.telemetry.profile_reservoir =
      static_cast<size_t>(args.GetLong("reservoir", 32));
  QueryService service(engine.get(), config);

  const long repeat = args.GetLong("repeat", 1);
  bool all_ok = true;
  for (long r = 0; r < repeat; ++r) {
    all_ok &= ReplayWorkload(&service, requests);
  }

  const std::vector<QueryProfile> profiles = service.telemetry()->Profiles();
  const TelemetryStats stats = service.telemetry()->stats();
  std::printf("retained %zu of %llu sampled profiles "
              "(%llu requests observed)\n",
              profiles.size(),
              static_cast<unsigned long long>(stats.profiles_sampled),
              static_cast<unsigned long long>(stats.requests_observed));
  for (const QueryProfile& p : profiles) {
    std::printf("%s\n", p.Summary().c_str());
  }
  if (const char* dump = args.Get("dump"); dump != nullptr) {
    if (profiles.empty()) {
      std::fprintf(stderr, "no profile to dump\n");
      return 1;
    }
    const QueryProfile& last = profiles.back();
    std::ofstream out(dump);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", dump);
      return 1;
    }
    out << last.ToChromeTraceJson();
    std::printf("wrote profile #%llu (%zu events) to %s\n",
                static_cast<unsigned long long>(last.id), last.events.size(),
                dump);
  }
  return all_ok ? 0 : 1;
}

// Walks one tree breadth-first and prints the per-level layout histogram
// from StatNode (structure only, no payload materialization).
template <typename Tree>
int InspectTree(const char* label, const Tree& tree, const Pager& pager) {
  std::printf("%s: format v%u  height %u  objects %llu  capacity %u  "
              "file %llu pages (%llu bytes)%s\n",
              label, tree.options().format, tree.height(),
              static_cast<unsigned long long>(tree.num_objects()),
              tree.options().capacity,
              static_cast<unsigned long long>(pager.num_pages()),
              static_cast<unsigned long long>(
                  static_cast<uint64_t>(pager.num_pages()) *
                  pager.page_size()),
              pager.mapped() ? "  [mmap]" : "");
  std::vector<PageId> frontier;
  if (tree.height() > 0) frontier.push_back(tree.SearchRoot());
  uint64_t total_nodes = 0;
  uint64_t total_bytes = 0;
  uint64_t total_pages = 0;
  for (uint32_t level = tree.height(); level >= 1 && !frontier.empty();
       --level) {
    uint64_t nodes = 0, entries = 0, bytes = 0, pages = 0;
    std::vector<PageId> next;
    for (PageId page : frontier) {
      const auto stat = tree.StatNode(page);
      if (!stat.ok()) return Fail(stat.status());
      ++nodes;
      entries += stat.value().entries;
      bytes += stat.value().record_bytes;
      pages += stat.value().record_pages;
      if (!stat.value().is_leaf) {
        const auto node = tree.ReadNode(page);
        if (!node.ok()) return Fail(node.status());
        for (const auto& e : node.value().inner_entries) {
          next.push_back(e.child);
        }
      }
    }
    const char* kind =
        level == 1 ? " (leaf)" : (level == tree.height() ? " (root)" : "");
    std::printf("  level %u%-7s %6llu nodes %8llu entries %12llu bytes "
                "%8llu pages\n",
                level, kind, static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(entries),
                static_cast<unsigned long long>(bytes),
                static_cast<unsigned long long>(pages));
    total_nodes += nodes;
    total_bytes += bytes;
    total_pages += pages;
    frontier = std::move(next);
  }
  std::printf("  total          %6llu nodes %31llu bytes %8llu pages\n",
              static_cast<unsigned long long>(total_nodes),
              static_cast<unsigned long long>(total_bytes),
              static_cast<unsigned long long>(total_pages));
  return 0;
}

int Inspect(const Args& args) {
  const bool mmap_reads = args.Has("mmap");
  if (const char* index_path = args.Get("index"); index_path != nullptr) {
    auto pager_or = Pager::Open(index_path);
    if (!pager_or.ok()) return Fail(pager_or.status());
    auto pager = std::move(pager_or).value();
    // The meta page leads with the tree magic (SetRPayload::kMagic /
    // KcrPayload::kMagic). A SetR file older than the length codes carries
    // another magic and is reported as unrecognized.
    std::vector<uint8_t> page0(pager->page_size());
    const Status head = pager->ReadPage(0, page0.data());
    if (!head.ok()) return Fail(head);
    uint32_t magic = 0;
    std::memcpy(&magic, page0.data(), sizeof(magic));
    if (mmap_reads) {
      const Status mapped = pager->EnableMappedReads();
      if (!mapped.ok()) return Fail(mapped);
    }
    BufferPool pool(pager.get(), 4u << 20);
    if (magic == SetRPayload::kMagic) {
      auto tree = SetRTree::Open(&pool);
      if (!tree.ok()) return Fail(tree.status());
      return InspectTree("setr", *tree.value(), *pager);
    }
    if (magic == KcrPayload::kMagic) {
      auto tree = KcrTree::Open(&pool);
      if (!tree.ok()) return Fail(tree.status());
      return InspectTree("kcr", *tree.value(), *pager);
    }
    std::fprintf(stderr, "%s: unrecognized index magic 0x%08x\n", index_path,
                 magic);
    return 1;
  }

  std::unique_ptr<Dataset> dataset = LoadData(args);
  if (dataset == nullptr) return 1;
  uint8_t format = kNodeFormatV2;
  if (const char* fmt = args.Get("format"); fmt != nullptr) {
    if (std::strcmp(fmt, "v1") == 0) {
      format = kNodeFormatV1;
    } else if (std::strcmp(fmt, "v2") == 0) {
      format = kNodeFormatV2;
    } else {
      std::fprintf(stderr, "--format must be v1 or v2\n");
      return 2;
    }
  }
  WhyNotEngine::Config config;
  config.node_capacity =
      static_cast<uint32_t>(args.GetLong("capacity", config.node_capacity));
  config.node_format = format;
  config.mmap_reads = mmap_reads;
  auto engine_or = WhyNotEngine::Build(dataset.get(), config);
  if (!engine_or.ok()) return Fail(engine_or.status());
  auto engine = std::move(engine_or).value();
  std::printf("dataset: %zu objects, %u terms\n", dataset->size(),
              dataset->vocabulary().num_terms());
  const int setr_rc =
      InspectTree("setr", engine->setr_tree(), engine->setr_pager());
  if (setr_rc != 0) return setr_rc;
  return InspectTree("kcr", engine->kcr_tree(), engine->kcr_pager());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc - 2, argv + 2);
  if (!args.ok()) return Usage();
  if (command == "generate") return Generate(args);
  if (command == "topk") return TopK(args);
  if (command == "whynot") return WhyNot(args);
  if (command == "explain") return Explain(args);
  if (command == "trace") return Trace(args);
  if (command == "statsz") return Statsz(args);
  if (command == "serve") return Serve(args);
  if (command == "live") return Live(args);
  if (command == "inspect") return Inspect(args);
  if (command == "profiles") return Profiles(args);
  return Usage();
}
