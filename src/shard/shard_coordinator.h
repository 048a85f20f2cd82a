// ShardCoordinator: scatter-gather top-k and why-not over spatial tiles
// (docs/SHARDING.md).
//
// The seed dataset is STR-packed into `num_shards` tiles
// (shard_partition.h); each tile gets its own backend — a frozen
// WhyNotEngine, or a live SegmentedEngine when Config::live is set. The
// coordinator implements QueryBackend, so QueryService fronts it unchanged
// and composes admission control, deadlines, the result cache, and
// metrics on top.
//
// Solo top-k ranks shards best-first by their Theorem 1 MaxScore upper
// bound (shard_summary.h) and visits the best-bound shard on the calling
// thread. It then cuts every shard whose bound is strictly below that
// shard's kth score (the shards_pruned counter) and visits the rest
// concurrently: the caller and up to one helper per shared-executor worker
// claim shards from one ParallelFor cursor (common/thread_pool.h), and all
// partials go through one order-insensitive ScoreGreater merge.
// Answers are the same as with a serial visit that re-applies the cut
// after every shard; the visited set can only be larger. It stays the one
// top-k override because a solo merged walk, though it expands fewer
// nodes, loses the parallelism (docs/SHARDING.md has the measurement).
//
// Everything else comes from PlannedBackend over the shards' plans
// concatenated (frozen and live alike), exactly how SegmentedEngine merges
// its own segments: a TopKBatch is one merged walk over every shard's
// segments and deltas, and why-not aggregates the per-shard MaxDom/MinDom
// bounds inside the one keyword-adaption search, so answers are
// bit-identical to an unsharded engine.
//
// Mutations route by ownership: inserts to the shard whose summary MBR is
// nearest (a tie to the shard with the fewest live objects), updates and
// deletes to the owning shard. The coordinator allocates
// globally sequential object ids (SegmentManager's forced-id insert), so a
// sharded run assigns the same ids as an unsharded one. All shard engines
// intern through one coordinator-owned vocabulary, keeping term ids and
// corpus-wide document frequencies identical to the unsharded engine.
#ifndef WSK_SHARD_SHARD_COORDINATOR_H_
#define WSK_SHARD_SHARD_COORDINATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/backend.h"
#include "core/engine.h"
#include "segment/segmented_engine.h"
#include "shard/shard_summary.h"
#include "storage/pager.h"
#include "text/vocabulary.h"

namespace wsk {

class ShardCoordinator : public PlannedBackend {
 public:
  struct Config {
    uint32_t num_shards = 2;
    // false: one frozen WhyNotEngine per shard (read-only).
    // true: one live SegmentedEngine per shard (routed mutations).
    bool live = false;
    std::string work_dir = "/tmp";
    uint32_t page_size = kDefaultPageSize;
    size_t buffer_bytes = 4u << 20;  // per index file, per shard
    uint32_t node_capacity = 100;
    SimilarityModel model = SimilarityModel::kJaccard;
    size_t node_cache_bytes = 8u << 20;  // per shard
    // Live-shard merge policy (forwarded to SegmentedEngine).
    uint32_t delta_capacity = 4096;
    bool auto_merge = true;
  };

  // Tiles `seed` and builds one backend per tile. The actual shard count
  // is min(num_shards, populated tiles) — see shard_counters().num_shards.
  // kInvalidArgument unless 1 <= num_shards <= MergedTopKSource::kMaxSegments.
  static StatusOr<std::unique_ptr<ShardCoordinator>> Build(
      const Dataset& seed, const Config& config);

  ~ShardCoordinator() override;
  ShardCoordinator(const ShardCoordinator&) = delete;
  ShardCoordinator& operator=(const ShardCoordinator&) = delete;

  // --- QueryBackend query surface (thread-safe) ---

  // The bound-ranked scatter-gather of the file comment.
  StatusOr<std::vector<ScoredObject>> TopK(
      const SpatialKeywordQuery& query, const CancelToken* cancel = nullptr,
      TraceRecorder* trace = nullptr) const override;
  // TopKBatch(), Answer() and Rank() come from PlannedBackend over every
  // shard's plan, concatenated.
  WhyNotPlan PlanWhyNot() const override;

  BackendIoSnapshot io_snapshot() const override;
  uint64_t dataset_version() const override;
  uint64_t topology_fingerprint() const override { return topology_; }
  std::vector<uint64_t> version_vector() const override;

  // A cached top-k survives a mutation when every changed shard provably
  // cannot alter it: the cached result is full (>= k entries), the changed
  // shard owns none of the result objects, and the shard's current
  // MaxScore bound is strictly below the cached kth score (the summary is
  // monotone-conservative, so the bound covers every object the shard
  // held or gained since). Why-not entries require exact version equality.
  bool TopKCacheValid(const std::vector<uint64_t>& versions,
                      const SpatialKeywordQuery& query,
                      const std::vector<ScoredObject>& results) const override;
  bool WhyNotCacheValid(const std::vector<uint64_t>& versions) const override;

  SegmentCountersSnapshot segment_counters() const override;
  ShardCountersSnapshot shard_counters() const override;

  // --- QueryBackend mutation surface (live mode; serialized) ---

  StatusOr<ObjectId> Insert(
      Point loc, const std::vector<std::string>& keywords) const override;
  Status Update(ObjectId id, Point loc,
                const std::vector<std::string>& keywords) const override;
  Status Delete(ObjectId id) const override;
  // Synchronous compaction of every shard, one after another (live mode).
  Status ForceMerge() const;

  // --- introspection (tests, benchmarks) ---

  size_t num_shards() const { return shards_.size(); }
  bool live() const { return config_.live; }
  // The shard currently owning `id`, or -1 when unknown.
  int OwnerShard(ObjectId id) const;
  // The shard's current Theorem 1 upper bound for `query`.
  double ShardBound(size_t shard, const SpatialKeywordQuery& query) const;
  const Vocabulary& vocabulary() const { return *vocabulary_; }
  double diagonal() const { return diagonal_; }

 private:
  struct Shard {
    Dataset tile;  // frozen mode: the engine's object table
    std::unique_ptr<PlannedBackend> backend;
    SegmentedEngine* live = nullptr;  // live mode: `backend`, for mutations
    mutable std::mutex summary_mu;
    ShardSummary summary;
    mutable std::atomic<uint64_t> visited{0};
    mutable std::atomic<uint64_t> pruned{0};
    mutable std::atomic<uint64_t> mutations{0};
  };

  ShardCoordinator() = default;

  // Shards ordered best-first for `query` by their summary bound.
  struct RankedShard {
    double bound;
    uint32_t shard;
  };
  std::vector<RankedShard> RankShards(const SpatialKeywordQuery& query) const;

  // One shard's top-k: bumps its visited counter, records the kShardVisit
  // annotation and span, and runs the shard's backend.
  StatusOr<std::vector<ScoredObject>> VisitShard(
      uint32_t shard, const SpatialKeywordQuery& query,
      const CancelToken* cancel, TraceRecorder* trace) const;
  // Visits order[begin, end) concurrently and merges every partial into
  // `merged`. Returns the first failure in bound order, once every claimed
  // shard has finished.
  Status FanOut(const std::vector<RankedShard>& order, size_t begin,
                size_t end, const SpatialKeywordQuery& query,
                const CancelToken* cancel, TraceRecorder* trace,
                std::vector<ScoredObject>* merged) const;

  // Insert routing: the shard whose summary MBR is nearest to `loc`; a
  // tie goes to the fewest live objects, then the lowest index.
  uint32_t RouteInsert(Point loc) const;
  void AbsorbMutation(Shard* shard, Point loc, const KeywordSet& doc) const;

  Config config_;
  double diagonal_ = 1.0;
  uint64_t topology_ = 0;
  std::unique_ptr<Vocabulary> vocabulary_;  // global: shared by live shards
  std::vector<std::unique_ptr<Shard>> shards_;

  // Mutation state: one writer at a time across the whole coordinator so
  // id allocation and ownership stay consistent with an unsharded engine.
  mutable std::mutex mutation_mu_;
  mutable ObjectId next_insert_id_ = 0;
  mutable std::mutex owner_mu_;
  mutable std::unordered_map<ObjectId, uint32_t> owner_;

  mutable std::atomic<uint64_t> queries_{0};
  // Wall time spent inside scatter-gather TopK (all exits), exported as
  // wsk_bg_scatter_busy_seconds_total.
  mutable std::atomic<uint64_t> scatter_busy_us_{0};
};

}  // namespace wsk

#endif  // WSK_SHARD_SHARD_COORDINATOR_H_
