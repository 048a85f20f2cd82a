// Shared harness for the experiment benchmarks (Section VII).
//
// Each bench binary reproduces one figure of the paper: it sweeps one
// parameter of Table III, runs a fixed workload of why-not queries per
// (algorithm, value) pair, and reports the paper's two metrics — average
// query time (ms) and average I/O (physical page reads) — plus the average
// penalty where the figure reports it.
//
// Dataset scale is environment-tunable so the suite finishes in CI-sized
// containers while preserving the paper's *shape*:
//   WSK_BENCH_OBJECTS    objects in the EURO-like dataset (default 20000)
//   WSK_BENCH_VOCAB      vocabulary size              (default objects/5)
//   WSK_BENCH_QUERIES    why-not queries per data point (default 3)
//   WSK_BENCH_BUFFER_KB  buffer pool per index, KiB   (default 512 — the
//                        paper's 4 MiB : index-size ratio at bench scale)
#ifndef WSK_BENCH_BENCH_COMMON_H_
#define WSK_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset.h"

namespace wsk::bench {

// Table III defaults: k0=10, 4 query keywords, alpha=0.5, missing object at
// rank 5*k0+1 = 51, lambda=0.5, 1 missing object.
struct WorkloadSpec {
  uint32_t k0 = 10;
  uint32_t num_keywords = 4;
  double alpha = 0.5;
  uint32_t missing_position = 51;  // stream position of the missing object
  uint32_t num_missing = 1;
  // Reject generated cases whose candidate universe |doc0 ∪ M.doc| exceeds
  // this cap; keeps the exponential BS baseline finishable at bench scale.
  uint32_t max_universe = 14;
  // When > 0, multi-missing draws only consider objects with at most this
  // many keywords (otherwise |M.doc| blows the universe cap immediately).
  uint32_t max_missing_doc = 0;
  uint64_t seed = 4242;
};

struct WhyNotCase {
  SpatialKeywordQuery query;
  std::vector<ObjectId> missing;
};

struct DatasetSpec {
  uint32_t objects = 0;  // 0 = use WSK_BENCH_OBJECTS
  uint32_t vocab = 0;    // 0 = derived from objects
  uint64_t seed = 20160516;
};

// Environment knobs.
uint32_t EnvObjects();
uint32_t EnvQueriesPerPoint();

// The engine configuration every bench engine is built with: the shipped
// defaults with a WSK_BENCH_BUFFER_KB buffer pool per index.
WhyNotEngine::Config BenchEngineConfig();

// The shared EURO-like engine (built once per process; Table II header is
// printed on first use).
WhyNotEngine& SharedEngine();

// Engine for an explicit dataset size (Fig. 13 scalability); cached.
WhyNotEngine& EngineFor(const DatasetSpec& spec);

// Generates `count` why-not cases for the spec against the given engine.
std::vector<WhyNotCase> MakeCases(const WhyNotEngine& engine,
                                  const WorkloadSpec& spec, uint32_t count);

// Runs the workload under `state` (expects Iterations(1)); sets counters
// avg_ms, avg_io, avg_penalty and, for diagnostics, cand_eval.
void RunWhyNot(benchmark::State& state, WhyNotEngine& engine,
               WhyNotAlgorithm algorithm, const WorkloadSpec& spec,
               const WhyNotOptions& options);

// Registers the standard three-algorithm comparison for one sweep value.
// `label` example: "k0=10".
void RegisterAllAlgorithms(const std::string& label, const WorkloadSpec& spec,
                           const WhyNotOptions& options);

// Registers a single (algorithm, label) data point.
void RegisterOne(const std::string& label, WhyNotAlgorithm algorithm,
                 const WorkloadSpec& spec, const WhyNotOptions& options);

// Standard bench main body: initialize, run, shut down.
//
// Recognizes `--json <path>` / `--json=<path>` (stripped before the flags
// reach Google Benchmark): on top of the normal console output, writes a
// machine-readable summary of every run — name, iterations, ns/op, and all
// user counters (avg_ms, avg_io, avg_penalty, cand_eval, speedup, ...) —
// plus the dataset-scale context (WSK_BENCH_OBJECTS / WSK_BENCH_QUERIES),
// for tools/check_bench_regression.py.
int RunRegisteredBenchmarks(int argc, char** argv);

}  // namespace wsk::bench

#endif  // WSK_BENCH_BENCH_COMMON_H_
