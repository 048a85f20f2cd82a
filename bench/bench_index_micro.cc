// Substrate micro-benchmark (not a paper figure): raw spatial keyword
// top-k latency and I/O on the SetR-tree vs the KcR-tree, for several k.
// Useful to sanity-check that the shared substrate behaves before reading
// the why-not figures. `nodes_expanded` counts tree nodes expanded per
// query, the work the node bounds decide.
#include "bench_common.h"

#include <chrono>

#include "common/rng.h"
#include "index/topk.h"
#include "observability/trace.h"
#include "storage/node_codec_v2.h"

namespace {

std::vector<wsk::SpatialKeywordQuery> MakeQueries(const wsk::Dataset& dataset,
                                                  uint32_t k) {
  using namespace wsk;
  Rng rng(k * 31 + 7);
  std::vector<SpatialKeywordQuery> queries;
  for (int i = 0; i < 20; ++i) {
    SpatialKeywordQuery q;
    q.loc = Point{rng.NextDouble(), rng.NextDouble()};
    q.doc = dataset
                .object(static_cast<ObjectId>(rng.NextUint64(dataset.size())))
                .doc;
    q.k = k;
    q.alpha = 0.5;
    queries.push_back(q);
  }
  return queries;
}

// Each series starts from cold buffer pools and a cold node cache, so
// `avg_io` counts the pages this series' queries read, not the pages an
// earlier series happened to leave resident.
void RunTopK(benchmark::State& state, const wsk::TopKSource& tree,
             wsk::IoStats& io, uint32_t k) {
  using namespace wsk;
  WhyNotEngine& engine = wsk::bench::SharedEngine();
  const std::vector<SpatialKeywordQuery> queries =
      MakeQueries(engine.dataset(), k);
  WSK_CHECK(engine.DropCaches().ok());
  TraceRecorder trace(/*event_capacity=*/0);  // counters only
  double total_io = 0;
  uint64_t runs = 0;
  for (auto _ : state) {
    for (const SpatialKeywordQuery& q : queries) {
      const uint64_t before = io.physical_reads();
      benchmark::DoNotOptimize(
          IndexTopK(tree, q, /*cancel=*/nullptr, &trace).value());
      total_io += static_cast<double>(io.physical_reads() - before);
      ++runs;
    }
  }
  const double expanded =
      static_cast<double>(trace.counter(TraceCounter::kNodesVisited));
  state.counters["avg_io"] = runs == 0 ? 0.0 : total_io / runs;
  state.counters["nodes_expanded"] = runs == 0 ? 0.0 : expanded / runs;
  state.counters["queries"] = static_cast<double>(runs);
}

// The shared engine's twin without a decoded-node cache: the same dataset
// and buffer pools, node_cache_bytes = 0.
wsk::WhyNotEngine& UncachedEngine() {
  using namespace wsk;
  static WhyNotEngine* engine = [] {
    WhyNotEngine::Config config = wsk::bench::BenchEngineConfig();
    config.node_cache_bytes = 0;
    return WhyNotEngine::Build(&wsk::bench::SharedEngine().dataset(), config)
        .value()
        .release();  // leaked deliberately, like the shared engine
  }();
  return *engine;
}

// Repeated-traversal node access with the decoded-node cache on vs off:
// the same tree walked in the shared engine (8 MiB cache) and in its
// uncached twin, timed back-to-back over the identical warm workload. The
// acceptance criterion for the cache layer is cache_speedup >= 2
// (docs/PERF.md); the regression checker enforces it via the
// `cache_speedup` counter (--min-cache-speedup). Both legs run against a
// warm buffer pool of the same size, so the ratio isolates what the cache
// saves: page fetches, node decoding, blob reads, and per-node artifact
// construction.
void RunNodeAccess(benchmark::State& state, const wsk::TopKSource& cached,
                   const wsk::TopKSource& uncached, uint32_t k) {
  using namespace wsk;
  const std::vector<SpatialKeywordQuery> queries =
      MakeQueries(wsk::bench::SharedEngine().dataset(), k);
  auto sweep = [&](const TopKSource& tree) {
    uint64_t total = 0;
    for (const SpatialKeywordQuery& q : queries) {
      total += IndexTopK(tree, q).value().size();
    }
    return total;
  };
  // Warm both buffer pools and the node cache before timing.
  benchmark::DoNotOptimize(sweep(uncached));
  benchmark::DoNotOptimize(sweep(cached));
  // Self-calibrating rep count (same scheme as bench_kernels): long enough
  // for a stable ratio everywhere.
  auto time_ns = [](auto&& fn) {
    using Clock = std::chrono::steady_clock;
    uint64_t reps = 1;
    for (;;) {
      const auto start = Clock::now();
      for (uint64_t r = 0; r < reps; ++r) benchmark::DoNotOptimize(fn());
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
      if (ns > 2e7) return ns / static_cast<double>(reps);
      reps *= 4;
    }
  };
  double off_ns = 0.0;
  double on_ns = 0.0;
  for (auto _ : state) {
    off_ns = time_ns([&] { return sweep(uncached); });
    on_ns = time_ns([&] { return sweep(cached); });
  }
  state.counters["cache_off_ns"] = off_ns;
  state.counters["cache_on_ns"] = on_ns;
  state.counters["cache_speedup"] = off_ns / on_ns;
}

// v1-vs-v2 node decode (docs/STORAGE.md "v2 node format & mmap"): three
// sibling engines over the shared dataset — {v1 pread, v2 pread, v2 mmap}
// — each with the decoded-node cache disabled so every sweep re-decodes
// every record, timed over a full-tree breadth-first decode of both
// indexes. The buffered legs run against a warm buffer pool, so the
// ratios isolate the record format and read path: v1 pays the pool fetch,
// fixed-layout copy, and per-entry blob-store reads; v2 decodes inline
// delta-varints, and the mmap leg does so straight from the map with no
// page copy at all. The regression gates key off `decode_speedup`
// (v1 / v2+mmap, --min-decode-speedup) and `v2_size_ratio`
// (--max-v2-size-ratio).
template <typename Tree>
std::vector<wsk::PageId> CollectNodePages(const Tree& tree) {
  using namespace wsk;
  std::vector<PageId> pages;
  std::vector<PageId> frontier;
  if (tree.height() > 0) frontier.push_back(tree.SearchRoot());
  for (uint32_t level = tree.height(); level >= 1 && !frontier.empty();
       --level) {
    std::vector<PageId> next;
    for (PageId page : frontier) {
      pages.push_back(page);
      if (level > 1) {
        const auto node = tree.ReadNode(page).value();
        for (const auto& e : node.inner_entries) next.push_back(e.child);
      }
    }
    frontier = std::move(next);
  }
  return pages;
}

void RunNodeDecode(benchmark::State& state) {
  using namespace wsk;
  WhyNotEngine& shared = wsk::bench::SharedEngine();
  struct Leg {
    uint8_t format = kNodeFormatV2;
    bool mmap = false;
    std::unique_ptr<WhyNotEngine> engine;
    std::vector<PageId> setr_pages;
    std::vector<PageId> kcr_pages;
  };
  Leg legs[3];
  legs[0].format = kNodeFormatV1;
  legs[2].mmap = true;
  for (Leg& leg : legs) {
    WhyNotEngine::Config config;
    config.node_format = leg.format;
    config.mmap_reads = leg.mmap;
    config.node_cache_bytes = 0;  // raw decode cost, not the cache
    leg.engine = WhyNotEngine::Build(&shared.dataset(), config).value();
    leg.setr_pages = CollectNodePages(leg.engine->setr_tree());
    leg.kcr_pages = CollectNodePages(leg.engine->kcr_tree());
  }
  auto sweep = [](const Leg& leg) {
    size_t decoded = 0;
    for (PageId page : leg.setr_pages) {
      decoded += leg.engine->setr_tree()
                     .ReadDecodedNode(page, /*use_cache=*/false)
                     .value()
                     ->node.size();
    }
    for (PageId page : leg.kcr_pages) {
      decoded += leg.engine->kcr_tree()
                     .ReadDecodedNode(page, /*use_cache=*/false)
                     .value()
                     ->node.size();
    }
    return decoded;
  };
  // Warm the buffered legs' pools (the mapped leg has nothing to warm).
  for (const Leg& leg : legs) benchmark::DoNotOptimize(sweep(leg));
  auto time_ns = [](auto&& fn) {
    using Clock = std::chrono::steady_clock;
    uint64_t reps = 1;
    for (;;) {
      const auto start = Clock::now();
      for (uint64_t r = 0; r < reps; ++r) benchmark::DoNotOptimize(fn());
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count());
      if (ns > 2e7) return ns / static_cast<double>(reps);
      reps *= 4;
    }
  };
  double ns[3] = {0.0, 0.0, 0.0};
  for (auto _ : state) {
    for (int i = 0; i < 3; ++i) {
      ns[i] = time_ns([&sweep, &leg = legs[i]] { return sweep(leg); });
    }
  }
  auto file_bytes = [](const WhyNotEngine& engine) {
    return static_cast<double>(
        (static_cast<uint64_t>(engine.setr_pager().num_pages()) +
         engine.kcr_pager().num_pages()) *
        engine.setr_pager().page_size());
  };
  const double v1_bytes = file_bytes(*legs[0].engine);
  const double v2_bytes = file_bytes(*legs[1].engine);
  const BackendIoSnapshot mapped_io = legs[2].engine->io_snapshot();
  state.counters["v1_decode_ns"] = ns[0];
  state.counters["v2_decode_ns"] = ns[1];
  state.counters["v2_mmap_decode_ns"] = ns[2];
  state.counters["v1_bytes"] = v1_bytes;
  state.counters["v2_bytes"] = v2_bytes;
  state.counters["v2_size_ratio"] = v2_bytes / v1_bytes;
  state.counters["decode_speedup"] = ns[0] / ns[2];
  state.counters["v2_mapped_reads"] =
      static_cast<double>(mapped_io.setr_mapped + mapped_io.kcr_mapped);
  state.counters["v2_physical_reads"] =
      static_cast<double>(mapped_io.setr_physical + mapped_io.kcr_physical);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsk::bench;
  for (uint32_t k : {1u, 10u, 100u}) {
    benchmark::RegisterBenchmark(
        ("topk/SetR/k=" + std::to_string(k)).c_str(),
        [k](benchmark::State& state) {
          auto& engine = SharedEngine();
          RunTopK(state, engine.setr_tree(), engine.setr_io(), k);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("topk/KcR/k=" + std::to_string(k)).c_str(),
        [k](benchmark::State& state) {
          auto& engine = SharedEngine();
          RunTopK(state, engine.kcr_tree(), engine.kcr_io(), k);
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  // Decoded-node cache on/off over the warm k=10 workload (one datapoint
  // per tree; the ratio is what the regression gate cares about).
  benchmark::RegisterBenchmark("node_access/SetR/k=10",
                               [](benchmark::State& state) {
                                 RunNodeAccess(state,
                                               SharedEngine().setr_tree(),
                                               UncachedEngine().setr_tree(),
                                               10);
                               })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("node_access/KcR/k=10",
                               [](benchmark::State& state) {
                                 RunNodeAccess(state,
                                               SharedEngine().kcr_tree(),
                                               UncachedEngine().kcr_tree(),
                                               10);
                               })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  // v1 vs v2 record format and read path over both indexes (one datapoint;
  // the regression gates care about decode_speedup and v2_size_ratio).
  benchmark::RegisterBenchmark(
      "node_decode/all",
      [](benchmark::State& state) { RunNodeDecode(state); })
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  return RunRegisteredBenchmarks(argc, argv);
}
