// Incremental best-first spatial keyword top-k search.
//
// Both the SetR-tree (Section IV-B) and the KcR-tree (Section V-A) expose
// the TopKSource interface: given a node, produce child search entries
// whose `bound` is an upper bound on the ranking score ST (Eqn 1) of any
// object below the child (exact for object entries). TopKIterator then
// emits objects one at a time in non-increasing score order — exactly what
// the why-not algorithms need to "process the query until the missing
// object appears" or until the Eqn 6 rank bound is exceeded.
//
// There is one expansion path. A solo walk expands each node as a batch of
// one; BatchedIndexTopK (batch_topk.h) steps many iterators and expands a
// node once for every walk waiting on it (docs/BATCHING.md).
#ifndef WSK_INDEX_TOPK_H_
#define WSK_INDEX_TOPK_H_

#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "data/query.h"
#include "observability/trace.h"
#include "storage/pager.h"

namespace wsk {

struct SearchEntry {
  double bound = 0.0;      // score upper bound (exact for objects)
  bool is_object = false;
  PageId node = kInvalidPageId;        // when !is_object
  ObjectId object = kInvalidObjectId;  // when is_object
};

// Max-heap order: higher bound first; at equal bound objects before nodes
// and lower ids first, so the emission order is fully deterministic.
struct SearchEntryLess {
  bool operator()(const SearchEntry& a, const SearchEntry& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    if (a.is_object != b.is_object) return !a.is_object;
    if (a.is_object) return a.object > b.object;
    return a.node > b.node;
  }
};

// One query's share of a node expansion. The source appends one entry per
// child of the node to `out`, except that object entries whose exact score
// is <= `floor` may be left out (-inf keeps every child), and adds the
// number of leaf objects it examined — appended or left out — to
// *objects_scored.
struct ExpandSlot {
  const SpatialKeywordQuery* query = nullptr;
  double floor = -std::numeric_limits<double>::infinity();
  std::vector<SearchEntry>* out = nullptr;
  uint64_t* objects_scored = nullptr;
};

// An index capable of best-first spatial keyword search.
class TopKSource {
 public:
  virtual ~TopKSource() = default;

  // Root node slot, or kInvalidPageId for an empty index.
  virtual PageId SearchRoot() const = 0;

  // Expands `node` once for every slot. A slot receives the same entries,
  // bit for bit and in the same order, whether it is expanded alone or
  // with others: a batch only shares the node's read and decode (and a
  // leaf's keyword footprints) among the queries waiting on it. The node
  // cache serves the read whenever the source has one attached.
  virtual Status ExpandNode(PageId node,
                            std::span<const ExpandSlot> slots) const = 0;
};

// Streams objects in (score desc, id asc) order. Typical use:
//
//   TopKIterator it(tree, query);
//   std::optional<ScoredObject> next;
//   while (it.Next(&next).ok() && next) { ... }
class TopKIterator {
 public:
  // `cancel` (optional, borrowed; must outlive the iterator) is consulted
  // before every node expansion — the traversal's unit of I/O — so a
  // cancelled or timed-out search unwinds within one page visit. `trace`
  // (optional, borrowed) receives the traversal's node/object counters
  // when the iterator is destroyed.
  //
  // `floor` bounds the stream from below: entries whose bound is <= floor
  // are never enqueued (a dropped node counts as seen and pruned), so the
  // iterator emits exactly the objects of the unfloored stream that score
  // above the floor, in the same order. The default -inf drops nothing.
  // A query failing ValidateTopKQuery expands nothing; status() and every
  // Next() return its kInvalidArgument.
  TopKIterator(const TopKSource* source, SpatialKeywordQuery query,
               const CancelToken* cancel = nullptr,
               TraceRecorder* trace = nullptr,
               double floor = -std::numeric_limits<double>::infinity());
  ~TopKIterator();

  TopKIterator(const TopKIterator&) = delete;
  TopKIterator& operator=(const TopKIterator&) = delete;

  // Sets *out to the next object, or nullopt when the index is exhausted.
  // Returns kCancelled / kDeadlineExceeded when the cancel token fired.
  Status Next(std::optional<ScoredObject>* out);

  // Stepping for a scheduler that expands one node for many iterators
  // (BatchedIndexTopK). Next() is PopReady until it names a node, then
  // BeginExpand, the source's ExpandNode on that one slot, and EndExpand.
  //
  // Pops the top object into *out when the frontier starts with one.
  // Otherwise leaves *out empty and returns the node the walk must open
  // next, or kInvalidPageId when the frontier is exhausted.
  PageId PopReady(std::optional<ScoredObject>* out);
  // Pops that node and checks the cancel token; on success fills *slot
  // with this walk's share of the node's expansion.
  Status BeginExpand(ExpandSlot* slot);
  // Pushes the children the expansion appended (those above the floor).
  void EndExpand();

  // The construction-time query check.
  const Status& status() const { return status_; }

  // Objects emitted so far.
  size_t num_emitted() const { return num_emitted_; }

  // Nodes expanded so far (pages/cached nodes materialized). Counted even
  // without a trace recorder — the why-not stats report it per query.
  uint64_t num_expanded() const { return nodes_visited_; }

 private:
  const TopKSource* source_;
  SpatialKeywordQuery query_;
  Status status_;
  const CancelToken* cancel_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  double floor_;
  bool floored_;  // floor_ > -inf
  std::priority_queue<SearchEntry, std::vector<SearchEntry>, SearchEntryLess>
      heap_;
  std::vector<SearchEntry> scratch_;
  size_t num_emitted_ = 0;
  // Plain members (one iterator is single-threaded); flushed to the trace
  // recorder in one batch by the destructor.
  uint64_t nodes_seen_ = 0;
  uint64_t nodes_visited_ = 0;
  uint64_t objects_scored_ = 0;
};

// Convenience wrappers over the iterator.

// The k best objects; kInvalidArgument for a malformed query, any k.
StatusOr<std::vector<ScoredObject>> IndexTopK(
    const TopKSource& source, const SpatialKeywordQuery& query,
    const CancelToken* cancel = nullptr, TraceRecorder* trace = nullptr);

}  // namespace wsk

#endif  // WSK_INDEX_TOPK_H_
