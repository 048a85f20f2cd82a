// Segment lifecycle: one active delta, N sealed deltas, M frozen segments,
// and a background merge (docs/SEGMENTS.md).
//
// Concurrency model
// -----------------
// Writers serialize on `writer_mu_`; readers never take it. The published
// state is a SegmentView — an immutable list-of-segments object plus an
// atomic sequence watermark. A reader snapshot is two loads: copy the view
// pointer (under the tiny `view_mu_`), then acquire-load the view's
// watermark. Every mutation with sequence <= the watermark is fully
// published (the writer release-stores the watermark after writing the
// mutation's data), and anything newer is filtered out by the visibility
// rule, so a snapshot is a consistent point-in-time database. The
// shared_ptr copies keep every segment of the snapshot alive until the last
// reader drops it — epoch-based reclamation by reference count, so readers
// never block writers and merges never invalidate in-flight queries.
//
// Merge protocol (no mutation log needed)
// ---------------------------------------
// 1. Under writer_mu_: rotate the active delta into the sealed list, record
//    the merge watermark s_m = current sequence, and take the input set =
//    all frozen + all sealed segments. New mutations keep flowing into a
//    fresh active delta (and tombstones keep landing on input segments).
// 2. Unlocked: collect every object visible at s_m from the inputs (sorted
//    by id, so a from-scratch rebuild over the same logical set produces
//    bit-identical trees) and STR-pack a new frozen segment F'.
// 3. Under writer_mu_: replay post-s_m tombstones onto F' by scanning the
//    inputs for del_seq > s_m (inputs can gain no *additions* after step 1,
//    so tombstones are the only divergence and they are all still present
//    in the inputs — no log required), then publish a new view
//    {frozen = [F'], sealed = segments sealed after step 1, active, seq}.
// Old-view readers keep the inputs alive; the inputs retire when the last
// snapshot drops, at which point their node-cache entries are erased and
// their I/O counters fold into the retired accumulator.
//
// Merges run as tasks on the process's shared executor
// (common/thread_pool.h), at most one per manager at a time; the
// destructor waits for a queued or running one.
#ifndef WSK_SEGMENT_SEGMENT_MANAGER_H_
#define WSK_SEGMENT_SEGMENT_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/backend.h"
#include "segment/delta_segment.h"
#include "segment/frozen_segment.h"
#include "storage/node_cache.h"
#include "text/vocabulary.h"

namespace wsk {

class SegmentManager {
 public:
  struct Options {
    // Every frozen segment's index files; the defaults (v2 node format,
    // mapped reads) suit sealed files. Deltas are in-memory and unaffected.
    IndexPair::Options index;
    // Active-delta rotation threshold: when the active delta reaches this
    // many entries it is sealed and (with auto_merge) a compaction starts.
    uint32_t delta_capacity = 4096;
    bool auto_merge = true;
  };

  // Immutable after publication except `seq`, which only the writer stores.
  struct SegmentView {
    std::vector<std::shared_ptr<FrozenSegment>> frozen;  // oldest -> newest
    std::vector<std::shared_ptr<DeltaSegment>> sealed;   // oldest -> newest
    std::shared_ptr<DeltaSegment> active;
    std::atomic<uint64_t> seq{0};
  };

  struct Snapshot {
    std::shared_ptr<const SegmentView> view;
    uint64_t seq = 0;
  };

  // `vocabulary` and `node_cache` (nullable) are borrowed and must outlive
  // the manager.
  SegmentManager(const Options& options, double diagonal,
                 Vocabulary* vocabulary, NodeCache* node_cache);
  ~SegmentManager();

  SegmentManager(const SegmentManager&) = delete;
  SegmentManager& operator=(const SegmentManager&) = delete;

  // Installs the initial frozen segment (sequence 0 state). Must run before
  // any mutation or snapshot; ids in `objects` must be unique, and ids for
  // future inserts continue above the largest seed id.
  Status SeedFrozen(std::vector<SpatialObject> objects);

  Snapshot GetSnapshot() const;

  // Mutations (thread-safe; serialized internally). Documents arrive with
  // terms already interned through the shared vocabulary; the manager
  // maintains the vocabulary's document frequencies.
  //
  // Insert normally assigns the next sequential id. A caller that owns id
  // allocation (the shard coordinator hands out globally sequential ids
  // across per-shard managers) passes `forced_id`; it must not collide
  // with a live object, and future automatic ids continue above it.
  StatusOr<ObjectId> Insert(Point loc, KeywordSet doc,
                            ObjectId forced_id = kInvalidObjectId);
  Status Update(ObjectId id, Point loc, KeywordSet doc);
  Status Delete(ObjectId id);

  // Runs (or joins) a full compaction and returns when the view holds at
  // most one frozen segment, no sealed deltas, and an empty active delta —
  // unless concurrent writers keep adding, in which case it returns after
  // the compaction that covered its call point.
  Status ForceMerge();

  uint64_t current_seq() const;
  double diagonal() const { return diagonal_; }
  size_t live_objects() const {
    return live_count_.load(std::memory_order_relaxed);
  }

  SegmentCountersSnapshot counters() const;
  BackendIoSnapshot io_snapshot() const;

  // Test hook: runs in the merge task after the new frozen segment is
  // built, before the swap lock is taken — mid-merge queries and mutations
  // issued from the hook exercise the protocol's concurrent window.
  void set_before_swap_hook(std::function<void()> hook);

 private:
  struct Located {
    std::shared_ptr<DeltaSegment> delta;  // set when found in a delta
    uint32_t delta_index = 0;
    std::shared_ptr<FrozenSegment> frozen;  // set when found frozen
    const SpatialObject* object = nullptr;  // nullptr = not found
  };

  // All *_Locked members require writer_mu_.
  Located LocateCurrentLocked(ObjectId id, uint64_t at_seq) const;
  void RotateLocked();
  void EnsureActiveSpaceLocked();
  void PublishViewLocked(std::shared_ptr<SegmentView> next);
  void MaybeScheduleMergeLocked();
  void RunMerge();

  const Options options_;
  const double diagonal_;
  Vocabulary* const vocabulary_;
  NodeCache* const node_cache_;

  mutable std::mutex writer_mu_;
  std::condition_variable merge_cv_;
  uint64_t next_seq_ = 0;  // last issued sequence
  ObjectId next_id_ = 0;
  bool merge_running_ = false;
  bool merge_pending_ = false;
  // How many sealed deltas, at the front of current_->sealed, the running
  // merge folds: all of them until it takes its inputs, then its inputs.
  // A write queues another pass only once a delta beyond them is sealed.
  size_t merge_sealed_inputs_ = 0;
  bool shutdown_ = false;
  std::function<void()> before_swap_hook_;

  mutable std::mutex view_mu_;
  std::shared_ptr<SegmentView> current_;

  std::atomic<size_t> live_count_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> rotations_{0};
  // Merge-pass telemetry: cumulative busy wall time, the last pass's
  // duration, and post-watermark tombstones replayed at swaps
  // (SegmentCountersSnapshot, docs/OBSERVABILITY.md).
  std::atomic<uint64_t> merge_busy_us_{0};
  std::atomic<uint64_t> merge_last_us_{0};
  std::atomic<uint64_t> tombstones_replayed_{0};
  RetiredIoAccumulator retired_;
};

}  // namespace wsk

#endif  // WSK_SEGMENT_SEGMENT_MANAGER_H_
