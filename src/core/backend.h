// QueryBackend: the servable surface the service layer runs against.
//
// Three implementations exist: WhyNotEngine (a frozen dataset, bulk-loaded
// trees, no mutations), SegmentedEngine (src/segment/: a live dataset with
// a mutable delta segment and background merge) and ShardCoordinator
// (src/shard/: one of those per spatial tile). All three answer top-k and
// why-not queries through PlannedBackend (planned_backend.h); only the
// coordinator overrides solo TopK, with its shard fan-out. QueryService talks
// only to this interface, so the same front end serves all of them
// (docs/SERVICE.md, docs/SEGMENTS.md, docs/SHARDING.md).
#ifndef WSK_CORE_BACKEND_H_
#define WSK_CORE_BACKEND_H_

#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "core/whynot.h"
#include "data/dataset.h"
#include "data/query.h"
#include "index/batch_topk.h"
#include "observability/trace.h"
#include "storage/io_stats.h"
#include "storage/node_cache.h"

namespace wsk {

enum class WhyNotAlgorithm {
  kBasic,     // BS
  kAdvanced,  // AdvancedBS
  kKcrBased,  // KcRBased
};

const char* WhyNotAlgorithmName(WhyNotAlgorithm algorithm);

// Live-dataset counters for the segment subsystem; `valid` is false on
// frozen backends (the segment.* metrics lines are omitted).
struct SegmentCountersSnapshot {
  bool valid = false;
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t merges = 0;
  uint64_t rotations = 0;
  uint64_t segments_retired = 0;
  uint64_t frozen_segments = 0;  // gauge
  uint64_t delta_objects = 0;    // gauge (active + sealed deltas)
  uint64_t live_objects = 0;     // gauge
  // Background-merge visibility (docs/OBSERVABILITY.md "Continuous
  // telemetry"): total wall time merge tasks spent in completed
  // passes, the duration of the most recent pass, and how many post-
  // watermark tombstones swaps replayed onto fresh segments.
  uint64_t merge_busy_us = 0;
  uint64_t merge_last_us = 0;        // gauge
  uint64_t tombstones_replayed = 0;
};

// Scatter-gather counters for sharded backends; `valid` is false on
// unsharded backends (the shard.* metrics lines are omitted). The query
// counters count solo TopK calls only: a TopKBatch does not scatter.
struct ShardCountersSnapshot {
  bool valid = false;
  uint64_t num_shards = 0;       // gauge
  uint64_t queries = 0;          // scatter-gather top-k invocations
  uint64_t shards_visited = 0;   // shard top-k calls actually executed
  uint64_t shards_pruned = 0;    // shards skipped by the MaxScore bound
  uint64_t scatter_busy_us = 0;  // wall time inside scatter-gather top-k
  std::vector<uint64_t> per_shard_visited;
  std::vector<uint64_t> per_shard_pruned;
  std::vector<uint64_t> per_shard_mutations;
  std::vector<uint64_t> per_shard_objects;  // gauge: owned live objects
};

// One query's slot in a backend batch and its answer (docs/BATCHING.md):
// the shared traversal's own request/result types. `query` and `cancel`
// are borrowed and must outlive the call.
using BackendBatchItem = BatchTopKRequest;
using BackendBatchResult = BatchTopKResult;

class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  // Query surface; const methods are safe for concurrent callers.
  virtual StatusOr<std::vector<ScoredObject>> TopK(
      const SpatialKeywordQuery& query, const CancelToken* cancel = nullptr,
      TraceRecorder* trace = nullptr) const = 0;

  // Answers every item over one shared index traversal where the backend
  // supports it; results[i] corresponds to items[i] and each slot is
  // bit-identical to TopK(*items[i].query, items[i].cancel). The default
  // runs the items solo in order, so every backend accepts a batch;
  // PlannedBackend overrides it with the amortized walk over its plan
  // (docs/BATCHING.md).
  // `trace` (optional, borrowed) receives the whole batch's spans/counters.
  virtual std::vector<BackendBatchResult> TopKBatch(
      const std::vector<BackendBatchItem>& items,
      TraceRecorder* trace = nullptr) const {
    std::vector<BackendBatchResult> results(items.size());
    for (size_t i = 0; i < items.size(); ++i) {
      StatusOr<std::vector<ScoredObject>> one =
          TopK(*items[i].query, items[i].cancel, trace);
      if (one.ok()) {
        results[i].topk = std::move(one).value();
      } else {
        results[i].status = one.status();
      }
    }
    return results;
  }
  virtual StatusOr<WhyNotResult> Answer(
      WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
      const std::vector<ObjectId>& missing,
      const WhyNotOptions& options) const = 0;

  virtual BackendIoSnapshot io_snapshot() const = 0;

  // The shared decoded-node cache, or nullptr when disabled.
  virtual NodeCache* node_cache() const { return nullptr; }

  // Strictly increases with every applied mutation. Result-cache
  // fingerprints mix this in, so a cached answer can never be served after
  // the dataset changed (the invalidation contract, docs/SERVICE.md).
  // Frozen backends return a constant.
  virtual uint64_t dataset_version() const { return 0; }

  // Identifies the backend's structural layout (shard count + tile
  // boundaries for a sharded backend). Result-cache fingerprints embed
  // this instead of the scalar dataset version; data freshness is covered
  // separately by `version_vector()` + the *CacheValid hooks below, so a
  // mutation no longer has to orphan every cached entry (docs/SHARDING.md
  // "Cache versioning"). Unsharded backends return a constant.
  virtual uint64_t topology_fingerprint() const { return 0; }

  // Per-partition dataset versions, captured by the service layer before
  // a query executes and stored with the cached result. Unsharded
  // backends degenerate to the single dataset version.
  virtual std::vector<uint64_t> version_vector() const {
    return {dataset_version()};
  }

  // Whether a result cached at `versions` may still be served. The default
  // (exact version-vector equality) reproduces the pre-sharding contract:
  // any mutation invalidates. A sharded backend may keep a top-k entry
  // alive when only shards that provably cannot affect it have changed.
  virtual bool TopKCacheValid(const std::vector<uint64_t>& versions,
                              const SpatialKeywordQuery& query,
                              const std::vector<ScoredObject>& results) const {
    (void)query;
    (void)results;
    return versions == version_vector();
  }
  virtual bool WhyNotCacheValid(const std::vector<uint64_t>& versions) const {
    return versions == version_vector();
  }

  // Dataset lifecycle. Mutations are const like the query surface (the
  // "const = thread-safe" convention); read-only backends reject them.
  virtual StatusOr<ObjectId> Insert(
      Point loc, const std::vector<std::string>& keywords) const {
    (void)loc;
    (void)keywords;
    return Status::FailedPrecondition("backend is read-only");
  }
  virtual Status Update(ObjectId id, Point loc,
                        const std::vector<std::string>& keywords) const {
    (void)id;
    (void)loc;
    (void)keywords;
    return Status::FailedPrecondition("backend is read-only");
  }
  virtual Status Delete(ObjectId id) const {
    (void)id;
    return Status::FailedPrecondition("backend is read-only");
  }

  virtual SegmentCountersSnapshot segment_counters() const { return {}; }
  virtual ShardCountersSnapshot shard_counters() const { return {}; }
};

}  // namespace wsk

#endif  // WSK_CORE_BACKEND_H_
