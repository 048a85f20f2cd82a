// Multi-query best-first top-k: one shared index walk for N queries
// (docs/BATCHING.md).
//
// Every query runs its own TopKIterator — its own frontier, floor, cancel
// check and trace counters, the same SearchEntryLess tie-breaks and the
// same early termination at its own kth score — so every query's top-k is
// bit-identical to IndexTopK run alone. The sharing is purely physical: a
// round-based scheduler pops each walk's ready objects, then groups the
// walks still running by the node each must open next and makes one
// TopKSource::ExpandNode call per distinct node, amortizing the page read,
// node decode and cache probe across every query waiting on that node.
// Walks whose frontiers diverge simply stop sharing; they degrade to solo
// cost plus negligible bookkeeping.
//
// A query leaves the walk the moment its own k results have emitted (its
// kth score has pruned its remaining frontier) or its cancel token fires;
// cancellation and deadlines are honored at node-visit granularity, the
// same unit of I/O the solo iterator checks at.
#ifndef WSK_INDEX_BATCH_TOPK_H_
#define WSK_INDEX_BATCH_TOPK_H_

#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "data/query.h"
#include "index/topk.h"
#include "observability/trace.h"

namespace wsk {

// One query's slot in a batched traversal. `query` is borrowed and must
// outlive the call; `cancel` is optional (borrowed).
struct BatchTopKRequest {
  const SpatialKeywordQuery* query = nullptr;
  const CancelToken* cancel = nullptr;
};

struct BatchTopKResult {
  Status status;                  // kCancelled / kDeadlineExceeded / IO error
  std::vector<ScoredObject> topk;  // valid only when status.ok()
};

// Runs every request to completion over one shared traversal of `source`.
// results[i] corresponds to requests[i]; a failed slot does not disturb the
// others. `trace` (optional, borrowed) receives one kBatchTopK span, the
// node/object counters of every walk in the batch, and the batch.*
// amortization counters.
std::vector<BatchTopKResult> BatchedIndexTopK(
    const TopKSource& source, const std::vector<BatchTopKRequest>& requests,
    TraceRecorder* trace = nullptr);

}  // namespace wsk

#endif  // WSK_INDEX_BATCH_TOPK_H_
