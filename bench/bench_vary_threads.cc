// Fig. 10 — varying the number of worker threads ∈ {1, 2, 4, 8} for the
// parallelized AdvancedBS and KcRBased (Section IV-C4 / VII-B7).
//
// With T threads the caller and up to T - 1 shared-executor helpers share
// the work, so wall-clock speedup tops out at the machine's core count.
// KcRBased cuts each batch into T chunks with one KcR traversal each, so
// its nodes_expanded grows with T (EXPERIMENTS.md, Fig. 10).
#include "bench_common.h"

int main(int argc, char** argv) {
  using wsk::WhyNotAlgorithm;
  using wsk::WhyNotOptions;
  using namespace wsk::bench;
  for (int threads : {1, 2, 4, 8}) {
    WorkloadSpec spec;
    spec.seed = 10000;  // identical workload across thread counts
    WhyNotOptions options;
    options.num_threads = threads;
    const std::string label = "threads=" + std::to_string(threads);
    RegisterOne(label, WhyNotAlgorithm::kAdvanced, spec, options);
    RegisterOne(label, WhyNotAlgorithm::kKcrBased, spec, options);
  }
  return RunRegisteredBenchmarks(argc, argv);
}
