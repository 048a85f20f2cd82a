// wsk_perfbench: the closed-loop, end-to-end benchmark driver.
//
//   wsk_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 --work-dir DIR --out FILE
//
// Every request goes through QueryService. The driver writes raw
// measurements (latency samples, counter deltas, layer totals) as JSON to
// --out; perfbench/run.py turns them into the reported metrics. See
// perfbench/README.md for the workloads and the metric glossary.
//
// Two passes exist, one per process:
//   --trace 0  setup (timed builds, some before the timed phase and some
//              after the output checks), warm-up, then a timed phase of
//              --seconds with the service over the undecorated backend.
//              Gives the end-to-end metrics.
//   --trace 1  setup once, warm-up, then a fixed number of operations in
//              chunks that alternate between untraced and traced. Traced
//              chunks run the backend behind TracedBackend, which times
//              every call and reads the TraceRecorder the service attaches
//              through the existing `trace` / WhyNotOptions.trace
//              parameters. Gives the per-layer metrics.
//
// Output checks (bit-exact top-k against the brute-force reference, equal
// AdvancedBS / KcRBased answers) and workload guards run outside the timed
// phase; any failure exits non-zero.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/backend.h"
#include "core/engine.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/query.h"
#include "service/query_service.h"
#include "shard/shard_coordinator.h"

namespace wsk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "wsk_perfbench: FAILED: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(1);
}

template <typename T>
T Unwrap(StatusOr<T> value, const char* what) {
  if (!value.ok()) Fail(std::string(what) + ": " + value.status().ToString());
  return std::move(value).value();
}

// --------------------------------------------------------------------------
// Request kinds and the per-layer totals the traced pass accumulates.

enum Kind : int { kTopK = 0, kAdv, kKcr, kWrite, kNumKinds };
constexpr const char* kKindNames[kNumKinds] = {"topk", "adv", "kcr", "write"};

Kind KindOf(WhyNotAlgorithm algorithm) {
  return algorithm == WhyNotAlgorithm::kAdvanced ? kAdv : kKcr;
}

// Sums over the backend calls of one request kind: the call count, the
// wall time the benchmark measured around each call, and the program's own
// stage totals and counters read from that call's TraceRecorder.
struct LayerTotals {
  uint64_t calls = 0;
  uint64_t call_ns = 0;
  std::array<uint64_t, kNumTraceStages> stage_us = {};
  std::array<uint64_t, kNumTraceCounters> counters = {};
};

// Decorator over the real backend. The service calls it exactly as it
// would call the backend; when recording, each call is timed (a span the
// benchmark owns) and the recorder the service passed in is read before
// and after, so the delta belongs to this call alone. When the service
// passes no recorder, the decorator attaches its own capacity-0 one.
class TracedBackend final : public QueryBackend {
 public:
  explicit TracedBackend(const QueryBackend* inner) : inner_(inner) {}

  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }
  std::array<LayerTotals, kNumKinds> totals() const {
    std::lock_guard<std::mutex> lock(mu_);
    return totals_;
  }

  StatusOr<std::vector<ScoredObject>> TopK(
      const SpatialKeywordQuery& query, const CancelToken* cancel,
      TraceRecorder* trace) const override {
    if (!recording()) return inner_->TopK(query, cancel, trace);
    TraceRecorder own(0);
    TraceRecorder* const recorder = trace != nullptr ? trace : &own;
    const Snapshot before = Take(*recorder);
    const Clock::time_point start = Clock::now();
    StatusOr<std::vector<ScoredObject>> out =
        inner_->TopK(query, cancel, recorder);
    Fold(kTopK, start, before, *recorder);
    return out;
  }

  StatusOr<WhyNotResult> Answer(WhyNotAlgorithm algorithm,
                                const SpatialKeywordQuery& query,
                                const std::vector<ObjectId>& missing,
                                const WhyNotOptions& options) const override {
    if (!recording()) return inner_->Answer(algorithm, query, missing, options);
    TraceRecorder own(0);
    WhyNotOptions effective = options;
    if (effective.trace == nullptr) effective.trace = &own;
    const Snapshot before = Take(*effective.trace);
    const Clock::time_point start = Clock::now();
    StatusOr<WhyNotResult> out =
        inner_->Answer(algorithm, query, missing, effective);
    Fold(KindOf(algorithm), start, before, *effective.trace);
    return out;
  }

  StatusOr<ObjectId> Insert(
      Point loc, const std::vector<std::string>& keywords) const override {
    const Clock::time_point start = Clock::now();
    StatusOr<ObjectId> out = inner_->Insert(loc, keywords);
    FoldWrite(start);
    return out;
  }
  Status Update(ObjectId id, Point loc,
                const std::vector<std::string>& keywords) const override {
    const Clock::time_point start = Clock::now();
    Status out = inner_->Update(id, loc, keywords);
    FoldWrite(start);
    return out;
  }
  Status Delete(ObjectId id) const override {
    const Clock::time_point start = Clock::now();
    Status out = inner_->Delete(id);
    FoldWrite(start);
    return out;
  }

  BackendIoSnapshot io_snapshot() const override {
    return inner_->io_snapshot();
  }
  NodeCache* node_cache() const override { return inner_->node_cache(); }
  uint64_t dataset_version() const override {
    return inner_->dataset_version();
  }
  uint64_t topology_fingerprint() const override {
    return inner_->topology_fingerprint();
  }
  std::vector<uint64_t> version_vector() const override {
    return inner_->version_vector();
  }
  bool TopKCacheValid(const std::vector<uint64_t>& versions,
                      const SpatialKeywordQuery& query,
                      const std::vector<ScoredObject>& results) const override {
    return inner_->TopKCacheValid(versions, query, results);
  }
  bool WhyNotCacheValid(const std::vector<uint64_t>& versions) const override {
    return inner_->WhyNotCacheValid(versions);
  }
  SegmentCountersSnapshot segment_counters() const override {
    return inner_->segment_counters();
  }
  ShardCountersSnapshot shard_counters() const override {
    return inner_->shard_counters();
  }

 private:
  struct Snapshot {
    std::array<uint64_t, kNumTraceStages> stage_us = {};
    std::array<uint64_t, kNumTraceCounters> counters = {};
  };

  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  static Snapshot Take(const TraceRecorder& recorder) {
    Snapshot s;
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      s.stage_us[i] = recorder.StageTotalUs(static_cast<TraceStage>(i));
    }
    for (size_t i = 0; i < kNumTraceCounters; ++i) {
      s.counters[i] = recorder.counter(static_cast<TraceCounter>(i));
    }
    return s;
  }

  void Fold(Kind kind, Clock::time_point start, const Snapshot& before,
            const TraceRecorder& recorder) const {
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    const Snapshot after = Take(recorder);
    std::lock_guard<std::mutex> lock(mu_);
    LayerTotals& t = totals_[kind];
    t.calls += 1;
    t.call_ns += ns;
    for (size_t i = 0; i < kNumTraceStages; ++i) {
      t.stage_us[i] += after.stage_us[i] - before.stage_us[i];
    }
    for (size_t i = 0; i < kNumTraceCounters; ++i) {
      t.counters[i] += after.counters[i] - before.counters[i];
    }
  }

  void FoldWrite(Clock::time_point start) const {
    if (!recording()) return;
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    std::lock_guard<std::mutex> lock(mu_);
    totals_[kWrite].calls += 1;
    totals_[kWrite].call_ns += ns;
  }

  const QueryBackend* const inner_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  mutable std::array<LayerTotals, kNumKinds> totals_ = {};  // guarded by mu_
};

// --------------------------------------------------------------------------
// Client-side bookkeeping.

// What one request looked like from the client.
struct Outcome {
  Kind kind = kTopK;
  double ms = 0.0;  // client-observed latency of the service call
  Clock::time_point done;
  bool ok = true;
  bool rejected = false;  // kResourceExhausted from admission control
  bool hit = false;       // top-k answered from the result cache
};

// Latency samples of one request class with their completion times
// (seconds since the phase started), so run.py can split a run into
// windows.
struct Samples {
  std::vector<double> ms;
  std::vector<double> done_s;

  void Add(double latency_ms, double at_s) {
    ms.push_back(latency_ms);
    done_s.push_back(at_s);
  }
  void Merge(const Samples& other) {
    ms.insert(ms.end(), other.ms.begin(), other.ms.end());
    done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
  }
};

// Per-client accumulation; merged after the clients join. Latency samples
// are kept only when `keep_samples` is set (the timed phase).
struct Tally {
  Clock::time_point origin = Clock::now();
  bool keep_samples = false;
  std::array<Samples, kNumKinds> latency;
  Samples topk_executed;  // top-k requests that missed the result cache
  std::array<uint64_t, kNumKinds> requests = {};
  std::array<double, kNumKinds> client_ms = {};
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t topk_hits = 0;

  void Add(const Outcome& o) {
    ++attempted;
    ++requests[o.kind];
    client_ms[o.kind] += o.ms;
    if (!o.ok) ++failed;
    if (o.rejected) ++rejected;
    if (o.kind == kTopK && o.hit) ++topk_hits;
    if (keep_samples && o.ok) {
      const double at_s =
          std::chrono::duration<double>(o.done - origin).count();
      latency[o.kind].Add(o.ms, at_s);
      if (o.kind == kTopK && !o.hit) topk_executed.Add(o.ms, at_s);
    }
  }
  void Merge(const Tally& other) {
    for (int k = 0; k < kNumKinds; ++k) {
      latency[k].Merge(other.latency[k]);
      requests[k] += other.requests[k];
      client_ms[k] += other.client_ms[k];
    }
    topk_executed.Merge(other.topk_executed);
    attempted += other.attempted;
    failed += other.failed;
    rejected += other.rejected;
    topk_hits += other.topk_hits;
  }
};

template <typename F>
Outcome Timed(Kind kind, F&& call) {
  Outcome o;
  o.kind = kind;
  const Clock::time_point start = Clock::now();
  call(o);
  o.done = Clock::now();
  o.ms = std::chrono::duration<double, std::milli>(o.done - start).count();
  return o;
}

void SetStatus(Outcome& o, const Status& status) {
  o.ok = status.ok();
  o.rejected = status.code() == StatusCode::kResourceExhausted;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + salt;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return x;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

// Flushes dirty pages of the work directory's file system, so writeback
// left by one build neither slows the next build nor the timed phase.
void SyncFiles(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) Fail("cannot open " + dir);
  syncfs(fd);
  close(fd);
}

bool SameTopK(const std::vector<ScoredObject>& a,
              const std::vector<ScoredObject>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    // Bit-exact: ids and scores must match, not merely be close.
    if (a[i].id != b[i].id || a[i].score != b[i].score) return false;
  }
  return true;
}

Dataset MakeDataset(uint32_t objects, uint32_t vocab, uint32_t clusters) {
  GeneratorConfig config;
  config.num_objects = objects;
  config.vocab_size = vocab;
  config.num_clusters = clusters;
  config.seed = 20160516;  // the repository's fixed EURO-like dataset seed
  return GenerateDataset(config);
}

// A top-k template: an anchor object's location and up to three of its
// keywords (k = 10, alpha = 0.5).
std::vector<SpatialKeywordQuery> MakeTopKTemplates(const Dataset& dataset,
                                                   size_t count,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<SpatialKeywordQuery> templates;
  templates.reserve(count);
  while (templates.size() < count) {
    const SpatialObject& anchor =
        dataset.object(static_cast<ObjectId>(rng.NextUint64(dataset.size())));
    if (anchor.doc.empty()) continue;
    std::vector<TermId> terms = anchor.doc.terms();
    rng.Shuffle(terms);
    // Keyword counts cycle 1, 2, 3 so every pool has the same mix.
    terms.resize(std::min<size_t>(terms.size(), 1 + templates.size() % 3));
    SpatialKeywordQuery q;
    q.loc = anchor.loc;
    q.doc = KeywordSet(std::move(terms));
    q.k = 10;
    q.alpha = 0.5;
    templates.push_back(std::move(q));
  }
  return templates;
}

// --------------------------------------------------------------------------
// Workloads.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string out;
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;
  // Builds of the backend timed for setup_s (the median is reported).
  virtual int setup_builds() const = 0;
  // Operations per client in the traced pass, per second of --seconds.
  virtual double traced_ops_per_second() const = 0;
  // Input generation: excluded from setup time.
  virtual void GenerateInputs(uint64_t seed) = 0;
  // Destroys the current backend (and deletes its files), if any.
  virtual void ReleaseBackend() = 0;
  // Builds a fresh backend; the previous one must have been released.
  virtual void BuildBackend(const std::string& work_dir) = 0;
  virtual const QueryBackend* backend() const = 0;
  virtual void Warmup(QueryService& service) = 0;
  // Issues request `seq` of client `client` and returns what it saw.
  virtual Outcome Step(QueryService& service, int client, uint64_t seq) = 0;
  // Output checks; returns the number of answers compared.
  virtual uint64_t Check(QueryService& service) = 0;
  virtual uint64_t live_objects() const = 0;
  virtual void Describe(std::ostream& os) const = 0;
};

// --- whynot-frozen --------------------------------------------------------

class WhyNotFrozen final : public Workload {
 public:
  int clients() const override { return 2; }
  int setup_builds() const override { return 20; }
  double traced_ops_per_second() const override { return 45.0; }

  void GenerateInputs(uint64_t seed) override {
    dataset_ = MakeDataset(20000, 4000, 32);
    // Case i depends only on (seed, i), so generation splits across threads
    // and stays deterministic.
    cases_.resize(kCases);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kGenThreads; ++t) {
      threads.emplace_back([this, seed, t] {
        std::vector<ScoredObject> scored(dataset_.size());
        for (size_t i = t; i < kCases; i += kGenThreads) {
          Rng rng(Mix(seed, 1000 + i));
          while (!MakeCase(rng, scored, &cases_[i])) {
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    Rng rng(Mix(seed, 1));
    order_.resize(kCases);
    for (size_t i = 0; i < kCases; ++i) order_[i] = i;
    rng.Shuffle(order_);
    answers_[0].assign(kCases, std::nullopt);
    answers_[1].assign(kCases, std::nullopt);
  }

  void ReleaseBackend() override { engine_.reset(); }
  void BuildBackend(const std::string& work_dir) override {
    WhyNotEngine::Config config;  // shipped defaults: v1, 4 MiB pools
    config.work_dir = work_dir;
    engine_ = Unwrap(WhyNotEngine::Build(&dataset_, config), "build engine");
  }
  const QueryBackend* backend() const override { return engine_.get(); }

  void Warmup(QueryService& service) override {
    // Both trees fit the node cache, so a few dozen cases with both
    // algorithms touch nearly every node the timed phase will need.
    for (size_t i = 0; i < kWarmupCases; ++i) {
      for (WhyNotAlgorithm a :
           {WhyNotAlgorithm::kAdvanced, WhyNotAlgorithm::kKcrBased}) {
        Run(service, a, i);
      }
    }
  }

  // Client c walks the shuffled pool from its own offset, alternating the
  // two algorithms, so both see every case equally often.
  Outcome Step(QueryService& service, int client, uint64_t seq) override {
    const WhyNotAlgorithm algorithm = (seq + client) % 2 == 0
                                          ? WhyNotAlgorithm::kAdvanced
                                          : WhyNotAlgorithm::kKcrBased;
    const size_t index =
        order_[(client * kCases / 2 + seq / 2) % kCases];
    return Run(service, algorithm, index);
  }

  uint64_t Check(QueryService& service) override {
    uint64_t compared = 0;
    for (size_t i = 0; i < kCases; ++i) {
      const bool adv_seen = Answer(WhyNotAlgorithm::kAdvanced, i).has_value();
      const bool kcr_seen = Answer(WhyNotAlgorithm::kKcrBased, i).has_value();
      if (!adv_seen && !kcr_seen) continue;  // never reached by the clients
      if (!adv_seen) Run(service, WhyNotAlgorithm::kAdvanced, i);
      if (!kcr_seen) Run(service, WhyNotAlgorithm::kKcrBased, i);
      if (!Answer(WhyNotAlgorithm::kAdvanced, i).has_value() ||
          !Answer(WhyNotAlgorithm::kKcrBased, i).has_value()) {
        Fail("why-not case " + std::to_string(i) + " did not complete");
      }
      const RefinedQuery adv = *Answer(WhyNotAlgorithm::kAdvanced, i);
      const RefinedQuery kcr = *Answer(WhyNotAlgorithm::kKcrBased, i);
      // EXPERIMENTS.md exactness: both algorithms return the same optimal
      // refinement, penalty bit for bit.
      if (adv.penalty != kcr.penalty || adv.k != kcr.k ||
          !(adv.doc == kcr.doc)) {
        Fail("why-not case " + std::to_string(i) +
             ": AdvancedBS and KcRBased disagree (penalty " +
             std::to_string(adv.penalty) + " vs " +
             std::to_string(kcr.penalty) + ")");
      }
      compared += 2;
    }
    if (repeat_mismatches_ > 0) {
      Fail(std::to_string(repeat_mismatches_) +
           " repeated why-not answers differed from the first answer");
    }
    return compared;
  }

  uint64_t live_objects() const override { return dataset_.size(); }
  void Describe(std::ostream& os) const override {
    os << "dataset: " << dataset_.size() << " objects, "
       << dataset_.vocabulary().num_terms() << " terms (EURO-like, seed "
       << 20160516 << "); " << kCases
       << " why-not cases (k0=10, 4 keywords, rank 51, universe<=14); "
       << clients() << " clients alternating AdvancedBS/KcRBased, "
       << "result cache bypassed";
  }

 private:
  // Enough distinct cases that the percentiles average over thousands of
  // inputs rather than a few hundred, which keeps them steady from seed to
  // seed.
  static constexpr size_t kCases = 3000;
  static constexpr size_t kWarmupCases = 64;
  static constexpr size_t kGenThreads = 4;
  struct Case {
    SpatialKeywordQuery query;
    std::vector<ObjectId> missing;
  };

  // Table III defaults: k0 = 10, 4 keywords, alpha = lambda = 0.5, one
  // missing object at stream position 5 * k0 + 1 = 51, and a candidate
  // universe |doc0 ∪ M.doc| of at most 14 terms. Positions come from the
  // brute-force reference scores, not from the engine under test. Returns
  // false when the draw must be retried.
  bool MakeCase(Rng& rng, std::vector<ScoredObject>& scored, Case* out) const {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.k = 10;
    q.alpha = 0.5;
    std::vector<TermId> terms;
    while (terms.size() < 4) {
      const SpatialObject& pivot = dataset_.object(
          static_cast<ObjectId>(rng.NextUint64(dataset_.size())));
      for (TermId t : pivot.doc) {
        if (terms.size() >= 4) break;
        if (std::find(terms.begin(), terms.end(), t) == terms.end()) {
          terms.push_back(t);
        }
      }
    }
    q.doc = KeywordSet(std::move(terms));
    const double diagonal = dataset_.diagonal();
    for (const SpatialObject& o : dataset_.objects()) {
      scored[o.id] = ScoredObject{o.id, Score(o, q, diagonal)};
    }
    std::nth_element(scored.begin(), scored.begin() + 50, scored.end(),
                     ScoreGreater{});
    const ScoredObject missing = scored[50];
    // R(M, q) = 1 + objects scoring strictly higher; ties can pull the
    // object into the top-k, and such cases are skipped.
    const uint32_t rank = 1 + static_cast<uint32_t>(std::count_if(
        scored.begin(), scored.end(),
        [&](const ScoredObject& o) { return o.score > missing.score; }));
    if (rank <= q.k) return false;
    const std::vector<ObjectId> ids = {missing.id};
    if (q.doc.Union(dataset_.UnionDocs(ids)).size() > 14) return false;
    *out = Case{std::move(q), ids};
    return true;
  }

  std::optional<RefinedQuery> Answer(WhyNotAlgorithm a, size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return answers_[a == WhyNotAlgorithm::kAdvanced ? 0 : 1][i];
  }

  Outcome Run(QueryService& service, WhyNotAlgorithm algorithm, size_t i) {
    const Case& c = cases_[i];
    RequestOptions opts;
    opts.bypass_cache = true;  // every request executes
    WhyNotOptions options;     // lambda = 0.5
    StatusOr<QueryService::WhyNotResponse> response =
        Status::Internal("unset");
    Outcome o = Timed(KindOf(algorithm), [&](Outcome& out) {
      response = service.WhyNot(algorithm, c.query, c.missing, options, opts);
      SetStatus(out, response.status());
    });
    if (response.ok()) {
      const RefinedQuery& refined = response.value().result.refined;
      std::lock_guard<std::mutex> lock(mu_);
      std::optional<RefinedQuery>& slot =
          answers_[algorithm == WhyNotAlgorithm::kAdvanced ? 0 : 1][i];
      if (!slot.has_value()) {
        slot = refined;
      } else if (slot->penalty != refined.penalty || slot->k != refined.k ||
                 !(slot->doc == refined.doc)) {
        ++repeat_mismatches_;
      }
    }
    return o;
  }

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
  std::vector<Case> cases_;
  std::vector<size_t> order_;
  std::mutex mu_;
  std::array<std::vector<std::optional<RefinedQuery>>, 2> answers_;
  uint64_t repeat_mismatches_ = 0;  // guarded by mu_
};

// --- topk-euro ------------------------------------------------------------

class TopKEuro final : public Workload {
 public:
  int clients() const override { return 1; }
  int setup_builds() const override { return 6; }
  double traced_ops_per_second() const override { return 20.0; }

  void GenerateInputs(uint64_t seed) override {
    const GeneratorConfig euro = EuroLikeConfig(1.0);  // Table II EURO
    dataset_ = MakeDataset(euro.num_objects, euro.vocab_size,
                           euro.num_clusters);
    templates_ = MakeTopKTemplates(dataset_, kTemplates, Mix(seed, 2));
    warmup_ = MakeTopKTemplates(dataset_, kWarmupQueries, Mix(seed, 3));
    stream_seed_ = Mix(seed, 4);
    answers_.assign(kTemplates, std::nullopt);
  }

  void ReleaseBackend() override { engine_.reset(); }
  void BuildBackend(const std::string& work_dir) override {
    WhyNotEngine::Config config;  // shipped defaults: v1, 4 MiB pools
    config.work_dir = work_dir;
    engine_ = Unwrap(WhyNotEngine::Build(&dataset_, config), "build engine");
    rng_ = Rng(stream_seed_);
    issued_.clear();
  }
  const QueryBackend* backend() const override { return engine_.get(); }

  // Queries outside the template pool, cache bypassed: fills the buffer
  // pools and node cache without seeding the result cache.
  void Warmup(QueryService& service) override {
    RequestOptions opts;
    opts.bypass_cache = true;
    for (const SpatialKeywordQuery& q : warmup_) {
      if (!service.TopK(q, opts).ok()) Fail("warm-up top-k failed");
    }
  }

  // Every kRepeatEvery'th request repeats one of the last kRecent
  // templates, Zipf-skewed towards the most recent; the rest are fresh
  // templates. The cache (1024 entries) still holds every repeated one, so
  // every window of a run has the same hit share however many requests
  // the run completes, and the median never slides towards the hits.
  Outcome Step(QueryService& service, int, uint64_t seq) override {
    size_t index = 0;
    if (!issued_.empty() && seq % kRepeatEvery == kRepeatEvery - 1) {
      const size_t back = zipf_.Sample(rng_) % issued_.size();
      index = issued_[issued_.size() - 1 - back];
    } else {
      index = issued_.size() % kTemplates;
      issued_.push_back(index);
    }
    StatusOr<QueryService::TopKResponse> response = Status::Internal("unset");
    Outcome o = Timed(kTopK, [&](Outcome& out) {
      response = service.TopK(templates_[index]);
      SetStatus(out, response.status());
    });
    if (response.ok()) {
      o.hit = response.value().cache_hit;
      if (!answers_[index].has_value()) {
        answers_[index] = response.value().results;
      } else if (!SameTopK(*answers_[index], response.value().results)) {
        ++repeat_mismatches_;
      }
    }
    return o;
  }

  uint64_t Check(QueryService&) override {
    if (repeat_mismatches_ > 0) {
      Fail(std::to_string(repeat_mismatches_) +
           " repeated top-k answers differed from the first answer");
    }
    std::vector<size_t> answered;
    for (size_t i = 0; i < kTemplates; ++i) {
      if (answers_[i].has_value()) answered.push_back(i);
    }
    Rng rng(stream_seed_ ^ 0x5eed);
    rng.Shuffle(answered);
    answered.resize(std::min<size_t>(answered.size(), 40));
    for (size_t i : answered) {
      if (!SameTopK(*answers_[i], BruteForceTopK(dataset_, templates_[i]))) {
        Fail("top-k template " + std::to_string(i) +
             " differs from the brute-force reference");
      }
    }
    return answered.size();
  }

  uint64_t live_objects() const override { return dataset_.size(); }
  void Describe(std::ostream& os) const override {
    os << "dataset: " << dataset_.size() << " objects, "
       << dataset_.vocabulary().num_terms() << " terms (EURO-like, seed "
       << 20160516 << "); " << kTemplates << " top-k templates, every " << kRepeatEvery
       << "th request repeats one of the last " << kRecent << " (Zipf s="
       << kZipfSkew << "); 1 client";
  }

 private:
  // A quarter of the requests hit the result cache: both percentiles
  // then fall among executed queries, and hits still exercise the cache
  // path.
  static constexpr uint64_t kRepeatEvery = 4;
  static constexpr size_t kRecent = 512;
  static constexpr double kZipfSkew = 0.8;
  static constexpr size_t kTemplates = 5000;
  static constexpr size_t kWarmupQueries = 24;

  Dataset dataset_;
  std::unique_ptr<WhyNotEngine> engine_;
  std::vector<SpatialKeywordQuery> templates_;
  std::vector<SpatialKeywordQuery> warmup_;
  ZipfSampler zipf_{kRecent, kZipfSkew};
  uint64_t stream_seed_ = 0;
  Rng rng_{0};
  std::vector<size_t> issued_;  // fresh templates in issue order
  std::vector<std::optional<std::vector<ScoredObject>>> answers_;
  uint64_t repeat_mismatches_ = 0;
};

// --- live-sharded ---------------------------------------------------------

class LiveSharded final : public Workload {
 public:
  int clients() const override { return 1; }
  int setup_builds() const override { return 14; }
  double traced_ops_per_second() const override { return 250.0; }

  void GenerateInputs(uint64_t seed) override {
    dataset_ = MakeDataset(20000, 4000, 32);
    templates_ = MakeTopKTemplates(dataset_, kTemplates, Mix(seed, 5));
    stream_seed_ = Mix(seed, 6);
  }

  void ReleaseBackend() override { coordinator_.reset(); }
  void BuildBackend(const std::string& work_dir) override {
    ShardCoordinator::Config config;
    config.num_shards = 4;
    config.live = true;  // SegmentedEngine per tile, v2 + mmap segments
    config.delta_capacity = 128;  // several rotations + merges per run
    config.work_dir = work_dir;
    coordinator_ =
        Unwrap(ShardCoordinator::Build(dataset_, config), "build shards");
    // The stream restarts with every build: ids are sequential from the
    // seed's size, so the same seed replays the same mutations.
    rng_ = Rng(stream_seed_);
    live_ids_.clear();
    for (const SpatialObject& o : dataset_.objects()) live_ids_.push_back(o.id);
    log_.clear();
  }
  const QueryBackend* backend() const override { return coordinator_.get(); }

  void Warmup(QueryService& service) override {
    for (int i = 0; i < 400; ++i) {
      if (!Step(service, 0, i).ok) Fail("warm-up operation failed");
    }
  }

  // About half top-k from the Zipf pool, half mutations of live ids split
  // evenly between inserts, updates and deletes.
  Outcome Step(QueryService& service, int, uint64_t) override {
    const uint64_t r = rng_.NextUint64(6);
    if (r < 3) {
      const SpatialKeywordQuery& q = templates_[zipf_.Sample(rng_)];
      StatusOr<QueryService::TopKResponse> response =
          Status::Internal("unset");
      Outcome o = Timed(kTopK, [&](Outcome& out) {
        response = service.TopK(q);
        SetStatus(out, response.status());
      });
      if (response.ok()) o.hit = response.value().cache_hit;
      return o;
    }
    Mutation m;
    m.kind = static_cast<int>(r - 3);  // 0 insert, 1 update, 2 delete
    const SpatialObject& source =
        dataset_.object(static_cast<ObjectId>(rng_.NextUint64(dataset_.size())));
    const Rect& bounds = dataset_.bounding_rect();
    m.loc = Point{rng_.NextDouble(bounds.min_x, bounds.max_x),
                  rng_.NextDouble(bounds.min_y, bounds.max_y)};
    for (TermId t : source.doc) {
      m.keywords.push_back(dataset_.vocabulary().TermString(t));
    }
    size_t pos = 0;
    if (m.kind != 0) {
      pos = static_cast<size_t>(rng_.NextUint64(live_ids_.size()));
      m.id = live_ids_[pos];
    }
    Status status;
    Outcome o = Timed(kWrite, [&](Outcome& out) {
      switch (m.kind) {
        case 0: {
          StatusOr<QueryService::MutationResponse> ins =
              service.Insert(m.loc, m.keywords);
          status = ins.status();
          if (ins.ok()) m.id = ins.value().id;
          break;
        }
        case 1: {
          status = service.Update(m.id, m.loc, m.keywords).status();
          break;
        }
        default:
          status = service.Delete(m.id).status();
      }
      SetStatus(out, status);
    });
    if (status.ok()) {
      if (m.kind == 0) live_ids_.push_back(m.id);
      if (m.kind == 2) {
        live_ids_[pos] = live_ids_.back();
        live_ids_.pop_back();
      }
      log_.push_back(std::move(m));
    }
    return o;
  }

  // Rebuilds the reference dataset from the seed plus every acknowledged
  // mutation, then compares a seeded sample of top-k answers — through the
  // service (cache validation included) and from the backend directly —
  // bit for bit against the brute-force reference.
  uint64_t Check(QueryService& service) override {
    struct Record {
      Point loc;
      std::vector<std::string> keywords;
    };
    std::map<ObjectId, Record> mirror;
    const Vocabulary& seed_vocab = dataset_.vocabulary();
    for (const SpatialObject& o : dataset_.objects()) {
      Record rec{o.loc, {}};
      for (TermId t : o.doc) rec.keywords.push_back(seed_vocab.TermString(t));
      mirror[o.id] = std::move(rec);
    }
    for (const Mutation& m : log_) {
      if (m.kind == 2) {
        mirror.erase(m.id);
      } else {
        mirror[m.id] = Record{m.loc, m.keywords};
      }
    }
    Dataset reference;
    reference.vocabulary() = coordinator_->vocabulary().CloneDictionary();
    reference.OverrideDiagonal(coordinator_->diagonal());
    for (const auto& [id, rec] : mirror) {
      reference.AddWithId(id, rec.loc,
                          reference.vocabulary().InternAll(rec.keywords));
    }
    if (coordinator_->vocabulary().DocumentFrequencies() !=
        reference.vocabulary().DocumentFrequencies()) {
      Fail("live document frequencies differ from the mirrored dataset");
    }
    Rng rng(stream_seed_ ^ 0x5eed);
    uint64_t compared = 0;
    for (int i = 0; i < 40; ++i) {
      const SpatialKeywordQuery& q =
          templates_[rng.NextUint64(templates_.size())];
      const std::vector<ScoredObject> want = BruteForceTopK(reference, q);
      StatusOr<QueryService::TopKResponse> via_service = service.TopK(q);
      if (!via_service.ok() || !SameTopK(via_service.value().results, want)) {
        Fail("live top-k through the service differs from the reference");
      }
      StatusOr<std::vector<ScoredObject>> direct = coordinator_->TopK(q);
      if (!direct.ok() || !SameTopK(direct.value(), want)) {
        Fail("live top-k from the backend differs from the reference");
      }
      compared += 2;
    }
    return compared;
  }

  uint64_t live_objects() const override {
    return coordinator_->segment_counters().live_objects;
  }
  void Describe(std::ostream& os) const override {
    os << "dataset: " << dataset_.size() << " seed objects, "
       << dataset_.vocabulary().num_terms() << " terms (EURO-like, seed "
       << 20160516 << "); 4 live shards, delta_capacity 128, v2+mmap; "
       << kTemplates << " top-k templates, Zipf s=" << kZipfSkew
       << "; 1 client, ~50% writes";
  }

 private:
  // Mutations keep the result cache almost always stale, so nearly every
  // draw executes; a mild skew over a large pool keeps a few expensive head
  // templates from setting the whole run's latency.
  static constexpr size_t kTemplates = 5000;
  static constexpr double kZipfSkew = 0.5;
  struct Mutation {
    int kind = 0;
    ObjectId id = 0;
    Point loc;
    std::vector<std::string> keywords;
  };

  Dataset dataset_;
  std::unique_ptr<ShardCoordinator> coordinator_;
  std::vector<SpatialKeywordQuery> templates_;
  ZipfSampler zipf_{kTemplates, kZipfSkew};
  uint64_t stream_seed_ = 0;
  Rng rng_{0};
  std::vector<ObjectId> live_ids_;
  std::vector<Mutation> log_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "whynot-frozen") return std::make_unique<WhyNotFrozen>();
  if (name == "topk-euro") return std::make_unique<TopKEuro>();
  if (name == "live-sharded") return std::make_unique<LiveSharded>();
  return nullptr;
}

// --------------------------------------------------------------------------
// Phases.

struct Counters {
  BackendIoSnapshot io;
  SegmentCountersSnapshot segment;
  ShardCountersSnapshot shard;
  ResultCache::Stats cache;
};

Counters TakeCounters(const QueryBackend& backend,
                      const QueryService& service) {
  return Counters{backend.io_snapshot(), backend.segment_counters(),
                  backend.shard_counters(), service.cache().stats()};
}

// Closed loop: each client sends its next request when the previous one
// returns, until the deadline.
Tally RunTimed(Workload& w, QueryService& service, double seconds,
               bool keep_samples, double* wall_s) {
  std::vector<Tally> tallies(w.clients());
  const Clock::time_point start = Clock::now();
  for (Tally& t : tallies) {
    t.origin = start;
    t.keep_samples = keep_samples;
  }
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients(); ++c) {
    threads.emplace_back([&, c] {
      for (uint64_t seq = 0; Clock::now() < deadline; ++seq) {
        tallies[c].Add(w.Step(service, c, seq));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *wall_s = SecondsSince(start);
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  return total;
}

// Fixed-count closed loop in chunks of `chunk` operations per client; the
// clients meet at a barrier between chunks and odd chunks are traced.
struct ChunkedResult {
  Tally untraced;
  Tally traced;
  double untraced_s = 0.0;
  double traced_s = 0.0;
};

ChunkedResult RunChunked(Workload& w, QueryService& service,
                         TracedBackend& traced, uint64_t ops_per_client,
                         uint64_t chunk) {
  const int n = w.clients();
  const uint64_t chunks = std::max<uint64_t>(2, ops_per_client / chunk);
  std::vector<std::array<Tally, 2>> tallies(n);
  std::array<double, 2> wall = {0.0, 0.0};
  Clock::time_point chunk_start = Clock::now();
  uint64_t current = 0;
  // The completion step runs on one thread while the others wait: it
  // closes the finished chunk's clock and flips recording for the next.
  auto on_chunk_done = [&]() noexcept {
    if (current > 0) wall[(current - 1) % 2] += SecondsSince(chunk_start);
    traced.set_recording(current % 2 == 1);
    ++current;
    chunk_start = Clock::now();
  };
  std::barrier sync(n, on_chunk_done);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      uint64_t seq = 0;
      for (uint64_t j = 0; j < chunks; ++j) {
        sync.arrive_and_wait();
        for (uint64_t i = 0; i < chunk; ++i, ++seq) {
          tallies[c][j % 2].Add(w.Step(service, c, seq));
        }
      }
      sync.arrive_and_wait();
    });
  }
  for (std::thread& t : threads) t.join();
  traced.set_recording(false);
  ChunkedResult out;
  for (const auto& t : tallies) {
    out.untraced.Merge(t[0]);
    out.traced.Merge(t[1]);
  }
  out.untraced_s = wall[0];
  out.traced_s = wall[1];
  return out;
}

// --------------------------------------------------------------------------
// JSON output.

class JsonWriter {
 public:
  void Key(const std::string& k) {
    Sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
  }
  void Num(double v) {
    Sep();
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os_ << buf;
  }
  void Int(uint64_t v) {
    Sep();
    os_ << v;
  }
  void Bool(bool v) {
    Sep();
    os_ << (v ? "true" : "false");
  }
  void Str(const std::string& v) {
    Sep();
    os_ << '"';
    for (char ch : v) {
      if (ch == '"' || ch == '\\') os_ << '\\';
      os_ << ch;
    }
    os_ << '"';
  }
  void Open(char c) {
    Sep();
    os_ << c;
    fresh_ = true;
  }
  void Close(char c) {
    os_ << c;
    fresh_ = false;
  }
  template <typename T>
  void Array(const T& values) {
    Open('[');
    for (auto v : values) Num(static_cast<double>(v));
    Close(']');
  }
  std::string str() const { return os_.str(); }

 private:
  void Sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

void WriteTally(JsonWriter& j, const std::string& key, const Tally& t) {
  j.Key(key);
  j.Open('{');
  j.Key("attempted");
  j.Int(t.attempted);
  j.Key("failed");
  j.Int(t.failed);
  j.Key("rejected");
  j.Int(t.rejected);
  j.Key("topk_hits");
  j.Int(t.topk_hits);
  j.Key("requests");
  j.Open('{');
  for (int k = 0; k < kNumKinds; ++k) {
    j.Key(kKindNames[k]);
    j.Int(t.requests[k]);
  }
  j.Close('}');
  j.Key("client_ms");
  j.Open('{');
  for (int k = 0; k < kNumKinds; ++k) {
    j.Key(kKindNames[k]);
    j.Num(t.client_ms[k]);
  }
  j.Close('}');
  for (const char* field : {"latency_ms", "done_s"}) {
    const bool ms = field[0] == 'l';
    j.Key(field);
    j.Open('{');
    for (int k = 0; k < kNumKinds; ++k) {
      j.Key(kKindNames[k]);
      j.Array(ms ? t.latency[k].ms : t.latency[k].done_s);
    }
    j.Key("topk_executed");
    j.Array(ms ? t.topk_executed.ms : t.topk_executed.done_s);
    j.Close('}');
  }
  j.Close('}');
}

void WriteCounterDelta(JsonWriter& j, const Counters& a, const Counters& b) {
  j.Key("io");
  j.Open('{');
  j.Key("physical");
  j.Int(b.io.setr_physical + b.io.kcr_physical - a.io.setr_physical -
        a.io.kcr_physical);
  j.Key("logical");
  j.Int(b.io.setr_logical + b.io.kcr_logical - a.io.setr_logical -
        a.io.kcr_logical);
  j.Key("mapped");
  j.Int(b.io.setr_mapped + b.io.kcr_mapped - a.io.setr_mapped -
        a.io.kcr_mapped);
  j.Key("node_cache_hits");
  j.Int(b.io.setr_cache_hits + b.io.kcr_cache_hits - a.io.setr_cache_hits -
        a.io.kcr_cache_hits);
  j.Key("node_cache_misses");
  j.Int(b.io.setr_cache_misses + b.io.kcr_cache_misses -
        a.io.setr_cache_misses - a.io.kcr_cache_misses);
  j.Close('}');
  j.Key("segment");
  j.Open('{');
  j.Key("merges");
  j.Int(b.segment.merges - a.segment.merges);
  j.Key("rotations");
  j.Int(b.segment.rotations - a.segment.rotations);
  j.Key("merge_busy_us");
  j.Int(b.segment.merge_busy_us - a.segment.merge_busy_us);
  j.Key("tombstones_replayed");
  j.Int(b.segment.tombstones_replayed - a.segment.tombstones_replayed);
  j.Close('}');
  j.Key("shard");
  j.Open('{');
  j.Key("queries");
  j.Int(b.shard.queries - a.shard.queries);
  j.Key("visited");
  j.Int(b.shard.shards_visited - a.shard.shards_visited);
  j.Key("pruned");
  j.Int(b.shard.shards_pruned - a.shard.shards_pruned);
  j.Key("scatter_busy_us");
  j.Int(b.shard.scatter_busy_us - a.shard.scatter_busy_us);
  j.Close('}');
  j.Key("cache");
  j.Open('{');
  j.Key("hits");
  j.Int(b.cache.hits - a.cache.hits);
  j.Key("misses");
  j.Int(b.cache.misses - a.cache.misses);
  j.Key("stale");
  j.Int(b.cache.stale - a.cache.stale);
  j.Close('}');
}

void WriteLayers(JsonWriter& j, const std::array<LayerTotals, kNumKinds>& t) {
  j.Key("layers");
  j.Open('{');
  for (int k = 0; k < kNumKinds; ++k) {
    j.Key(kKindNames[k]);
    j.Open('{');
    j.Key("calls");
    j.Int(t[k].calls);
    j.Key("call_ms");
    j.Num(static_cast<double>(t[k].call_ns) / 1e6);
    j.Key("stage_ms");
    j.Open('{');
    for (size_t s = 0; s < kNumTraceStages; ++s) {
      j.Key(TraceStageName(static_cast<TraceStage>(s)));
      j.Num(static_cast<double>(t[k].stage_us[s]) / 1e3);
    }
    j.Close('}');
    j.Key("counters");
    j.Open('{');
    for (size_t c = 0; c < kNumTraceCounters; ++c) {
      j.Key(TraceCounterName(static_cast<TraceCounter>(c)));
      j.Int(t[k].counters[c]);
    }
    j.Close('}');
    j.Close('}');
  }
  j.Close('}');
}

// --------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.work_dir.empty() || args.out.empty() || !(args.seconds > 0.0)) {
    Fail("usage: wsk_perfbench --workload NAME --seed N --seconds S "
         "--trace 0|1 --work-dir DIR --out FILE");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(args.workload);
  if (w == nullptr) Fail("unknown workload " + args.workload);

  w->GenerateInputs(args.seed);

  // Setup: backend build plus service construction. setup_s is the median
  // of setup_builds() timed builds; about half run here and the rest after
  // the output checks, so the median spans the whole run rather than one
  // moment of the machine's speed.
  QueryServiceConfig service_config;  // shipped defaults
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<QueryService> service;
  std::vector<double> setup_s;
  const auto setup = [&] {
    service.reset();
    traced.reset();
    w->ReleaseBackend();
    SyncFiles(args.work_dir);
    const Clock::time_point start = Clock::now();
    w->BuildBackend(args.work_dir);
    const QueryBackend* backend = w->backend();
    if (args.trace) {
      traced = std::make_unique<TracedBackend>(backend);
      backend = traced.get();
    }
    service = std::make_unique<QueryService>(backend, service_config);
    setup_s.push_back(SecondsSince(start));
  };
  const int builds = args.trace ? 1 : w->setup_builds();
  for (int b = 0; b < (builds + 1) / 2; ++b) setup();
  const uint64_t index_bytes_built = DirectoryBytes(args.work_dir);
  SyncFiles(args.work_dir);

  {
    std::ostringstream header;
    header << "# workload " << args.workload << " seed " << args.seed
           << " seconds " << args.seconds << " trace " << args.trace << "\n"
           << "# nproc " << std::thread::hardware_concurrency() << " WSK_ISA "
           << WSK_ISA_STRING << " build " << WSK_BUILD_TYPE_STRING << "\n# ";
    w->Describe(header);
    header << "\n# index " << index_bytes_built << " B on disk vs buffer pools "
           << "2 x " << (4u << 20) << " B (per index file) and node cache "
           << (8u << 20) << " B per engine\n";
    std::fputs(header.str().c_str(), stdout);
    std::fflush(stdout);
  }

  w->Warmup(*service);

  JsonWriter j;
  j.Open('{');
  j.Key("workload");
  j.Str(args.workload);
  j.Key("seed");
  j.Int(args.seed);
  j.Key("clients");
  j.Int(static_cast<uint64_t>(w->clients()));
  j.Key("nproc");
  j.Int(std::thread::hardware_concurrency());
  j.Key("isa");
  j.Str(WSK_ISA_STRING);
  j.Key("build_type");
  j.Str(WSK_BUILD_TYPE_STRING);
  j.Key("index_bytes_built");
  j.Int(index_bytes_built);

  const QueryBackend& backend = *w->backend();
  const Counters before = TakeCounters(backend, *service);
  if (!args.trace) {
    double wall_s = 0.0;
    const Tally tally =
        RunTimed(*w, *service, args.seconds, /*keep_samples=*/true, &wall_s);
    const Counters after = TakeCounters(backend, *service);
    j.Key("peak_rss_mb");
    j.Num(PeakRssMb());
    j.Key("wall_s");
    j.Num(wall_s);
    WriteTally(j, "timed", tally);
    WriteCounterDelta(j, before, after);
  } else {
    const uint64_t ops = static_cast<uint64_t>(
        std::ceil(w->traced_ops_per_second() * args.seconds));
    const uint64_t chunk = std::max<uint64_t>(1, ops / 20);
    const ChunkedResult r = RunChunked(*w, *service, *traced, ops, chunk);
    const Counters after = TakeCounters(backend, *service);
    j.Key("peak_rss_mb");
    j.Num(PeakRssMb());
    j.Key("untraced_s");
    j.Num(r.untraced_s);
    j.Key("traced_s");
    j.Num(r.traced_s);
    WriteTally(j, "untraced", r.untraced);
    WriteTally(j, "traced", r.traced);
    WriteCounterDelta(j, before, after);
    WriteLayers(j, traced->totals());
  }

  j.Key("index_bytes");
  j.Int(DirectoryBytes(args.work_dir));
  j.Key("live_objects");
  j.Int(w->live_objects());
  const Clock::time_point check_start = Clock::now();
  const uint64_t compared = w->Check(*service);
  j.Key("checked_answers");
  j.Int(compared);
  j.Key("check_s");
  j.Num(SecondsSince(check_start));

  while (static_cast<int>(setup_s.size()) < builds) setup();
  j.Key("setup_s");
  j.Array(setup_s);
  j.Close('}');

  service.reset();
  std::ofstream out(args.out);
  out << j.str() << "\n";
  out.close();
  if (!out) Fail("cannot write " + args.out);
  return 0;
}

}  // namespace
}  // namespace wsk::perfbench

int main(int argc, char** argv) { return wsk::perfbench::Main(argc, argv); }
