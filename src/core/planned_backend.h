// PlannedBackend: the one query dispatcher every backend shares.
//
// A backend describes what a query runs over as a WhyNotPlan: an object
// store, the index pairs (one per frozen table, each with its snapshot
// visibility filter), the in-memory delta objects that no tree indexes,
// and whatever must stay alive while the query runs. The dispatcher owns
// everything else — the cancel check, the root trace span, forcing BS's
// optimisation switches off, building the top-k sources, io_reads and the
// search frame all three algorithms share (validation, R(M, q), the
// candidate list, the best refinement, the stats and the trace flush) — so
// the frozen engine, the live engine and the shard coordinator answer
// through the same code, and an algorithm is only its candidate search
// (whynot_bs.h, whynot_kcr.h). Top-k, solo and batched, is one best-first
// walk over the same plan's SetR-tree source. The coordinator's plan is
// its shards' plans concatenated (docs/SHARDING.md); it keeps its own solo
// TopK, a bound-ranked parallel fan-out over the shards.
#ifndef WSK_CORE_PLANNED_BACKEND_H_
#define WSK_CORE_PLANNED_BACKEND_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/backend.h"
#include "index/index_pair.h"
#include "index/merged_source.h"

namespace wsk {

// One index pair a plan traverses.
struct PlanSegment {
  const IndexPair* index = nullptr;
  // nullptr: every object in the pair's trees is visible.
  const ObjectVisibility* visibility = nullptr;
  // Objects hidden by `visibility` (an upper bound is sound; the KcR
  // traversal uses it as MinDom slack).
  uint32_t shadow_count = 0;
};

struct WhyNotPlan {
  // Resolves object ids; null in plans made without one (top-k needs none).
  const ObjectStore* store = nullptr;
  std::vector<PlanSegment> segments;
  // Visible objects no tree indexes (live deltas), scored exactly.
  std::vector<const SpatialObject*> extras;
  double diagonal = 1.0;  // the SDist normalizer every tree shares
  // What the pointers above borrow from (snapshots, visibility filters,
  // stores) plus any in-flight guard the backend holds for the query.
  std::vector<std::shared_ptr<const void>> keep_alive;

  // The ranked stream over one tree family. One unfiltered tree with no
  // extras streams that tree directly (the frozen engine's paper setup);
  // every other plan goes through one MergedTopKSource, emplaced into
  // `*merged` (`trace` receives its segment counters).
  const TopKSource& Source(bool kcr, TraceRecorder* trace,
                           std::optional<MergedTopKSource>* merged) const;
};

class PlannedBackend : public QueryBackend {
 public:
  // Spatial keyword top-k over one PlanWhyNot() snapshot's SetR-tree
  // source, the one Answer and Rank use; the plan's keep_alive holds the
  // backend's in-flight guard. A malformed query fails the index walk.
  StatusOr<std::vector<ScoredObject>> TopK(
      const SpatialKeywordQuery& query, const CancelToken* cancel = nullptr,
      TraceRecorder* trace = nullptr) const override;

  // One snapshot and one shared walk over that source for every item
  // (docs/BATCHING.md), each slot bit-identical to TopK on the snapshot.
  std::vector<BackendBatchResult> TopKBatch(
      const std::vector<BackendBatchItem>& items,
      TraceRecorder* trace = nullptr) const override;

  // Answers the keyword-adapted why-not query (Definition 2) over
  // PlanWhyNot(). BS and AdvancedBS rank over the SetR-trees, KcRBased
  // traverses the KcR-trees and requires the Jaccard model. For kBasic the
  // optimisation switches in `options` are forced off, so it reproduces the
  // paper's unoptimised BS.
  // options.cancel aborts with kCancelled / kDeadlineExceeded.
  // stats.io_reads is the before/after delta of io_snapshot().page_reads
  // for the algorithm's tree family, so under concurrent queries it
  // counts every query's pages that overlapped this one.
  StatusOr<WhyNotResult> Answer(WhyNotAlgorithm algorithm,
                                const SpatialKeywordQuery& query,
                                const std::vector<ObjectId>& missing,
                                const WhyNotOptions& options) const override;

  // R(object, query) per Eqn 3, over the same plan.
  StatusOr<uint32_t> Rank(const SpatialKeywordQuery& query,
                          ObjectId object) const;

  // The point-in-time sources of one query; safe for concurrent callers.
  virtual WhyNotPlan PlanWhyNot() const = 0;
};

}  // namespace wsk

#endif  // WSK_CORE_PLANNED_BACKEND_H_
