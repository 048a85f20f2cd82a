// WhyNotEngine: the library facade.
//
// Owns the disk-resident SetR-tree and KcR-tree built over a dataset (one
// IndexPair: each tree in its own paged file with its own 4 MiB LRU
// buffer, as in the paper's setup), and answers spatial keyword top-k and
// why-not queries through PlannedBackend's dispatcher, the latter with the
// three algorithms:
//   kBasic      — BS        (Section IV-B; no optimizations, SetR-tree)
//   kAdvanced   — AdvancedBS (Section IV-C optimizations, SetR-tree)
//   kKcrBased   — KcRBased  (Section V bound-and-prune, KcR-tree)
#ifndef WSK_CORE_ENGINE_H_
#define WSK_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/planned_backend.h"
#include "core/whynot.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/index_pair.h"
#include "storage/node_cache.h"

namespace wsk {

class WhyNotEngine : public PlannedBackend {
 public:
  struct Config {
    std::string work_dir = "/tmp";        // index files land here
    uint32_t page_size = kDefaultPageSize;  // 4 KiB (Section VII-A1)
    size_t buffer_bytes = 4u << 20;         // 4 MiB per index
    uint32_t node_capacity = 100;
    SimilarityModel model = SimilarityModel::kJaccard;
    // Byte budget of the shared decoded-node cache both trees use after
    // bulk load (docs/STORAGE.md "Node cache"). 0 disables the cache
    // entirely (every node access re-reads and re-decodes pages).
    size_t node_cache_bytes = 8u << 20;  // 8 MiB
    // Node format for the built indexes and whether to serve reads from an
    // mmap of the finalized files. Both default to the paper's setup (v1,
    // buffered) so physical-read counts keep matching the published I/O
    // accounting; frozen segments opt into v2+mmap on their own
    // (docs/STORAGE.md "v2 node format & mmap").
    uint8_t node_format = kNodeFormatV1;
    bool mmap_reads = false;
  };

  // Bulk-loads both indexes over `dataset`. The dataset must outlive the
  // engine (it is the authoritative object table; the missing objects'
  // keyword sets are read from it).
  static StatusOr<std::unique_ptr<WhyNotEngine>> Build(const Dataset* dataset,
                                                       const Config& config);

  WhyNotEngine(const WhyNotEngine&) = delete;
  WhyNotEngine& operator=(const WhyNotEngine&) = delete;

  // Thread-safety contract
  // ----------------------
  // The const query methods — Answer(), TopK(), Rank(), ObjectAtPosition()
  // — are safe to call concurrently from any number of threads over one
  // engine: the shared buffer pools are internally synchronized, the
  // per-pager IoStats counters are relaxed atomics, and all per-query
  // state is local. The service layer (src/service/) relies on this.
  //
  // DropCaches() and ResetIoStats() mutate shared state and require
  // exclusive access: they must not run while any query is in flight.
  // That contract is enforced — both WSK_CHECK that no query is active
  // (tracked by an inflight counter the query methods maintain; Answer(),
  // Rank(), TopK() and TopKBatch() hold it through the plan).
  //
  // Note: WhyNotResult.stats.io_reads counts the pages of the algorithm's
  // tree (physical + mapped reads; mapped stays 0 without mmap_reads) as a
  // before/after delta of the shared counters, so under concurrent queries
  // it attributes overlapping I/O to every query that was in flight; treat
  // it as exact only for sequential use (aggregate counters stay exact).

  // Answer(), Rank(), TopK() and TopKBatch() come from PlannedBackend
  // over this plan: the engine's dataset and its one index pair,
  // unfiltered, so top-k walks the SetR-tree directly.
  WhyNotPlan PlanWhyNot() const override;

  // The object at the given 1-based position of the ranked stream (used by
  // the experiments to pick "the object ranked 5*k0+1").
  StatusOr<ObjectId> ObjectAtPosition(const SpatialKeywordQuery& query,
                                      uint32_t position) const;

  // Queries currently executing inside this engine (diagnostics / tests).
  int inflight_queries() const {
    return inflight_queries_.load(std::memory_order_relaxed);
  }

  // Drops both buffer pools and the decoded-node cache (cold-cache
  // experiments). Requires no query in flight (see the thread-safety
  // contract above).
  Status DropCaches() const;

  // The shared decoded-node cache, or nullptr when disabled
  // (config.node_cache_bytes == 0).
  NodeCache* node_cache() const override { return node_cache_.get(); }

  // QueryBackend I/O view: the two pagers' cumulative counters.
  BackendIoSnapshot io_snapshot() const override;

  const Dataset& dataset() const { return *dataset_; }
  const SetRTree& setr_tree() const { return index_->setr(); }
  const KcrTree& kcr_tree() const { return index_->kcr(); }

  // I/O counters of the two index files.
  IoStats& setr_io() const { return index_->setr_io(); }
  IoStats& kcr_io() const { return index_->kcr_io(); }

  // The backing pagers (file size / map state introspection, wsk_cli
  // inspect).
  const Pager& setr_pager() const { return index_->setr_pager(); }
  const Pager& kcr_pager() const { return index_->kcr_pager(); }

  // Requires no query in flight (see the thread-safety contract above).
  void ResetIoStats() const;

 private:
  WhyNotEngine() = default;

  // RAII inflight-query marker backing the thread-safety contract.
  class QueryScope {
   public:
    explicit QueryScope(const WhyNotEngine* engine) : engine_(engine) {
      engine_->inflight_queries_.fetch_add(1, std::memory_order_relaxed);
    }
    ~QueryScope() {
      engine_->inflight_queries_.fetch_sub(1, std::memory_order_relaxed);
    }
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

   private:
    const WhyNotEngine* engine_;
  };

  const Dataset* dataset_ = nullptr;
  std::unique_ptr<NodeCache> node_cache_;  // outlives index_
  std::unique_ptr<IndexPair> index_;
  mutable std::atomic<int> inflight_queries_{0};
};

}  // namespace wsk

#endif  // WSK_CORE_ENGINE_H_
