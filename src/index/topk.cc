#include "index/topk.h"

#include <limits>

namespace wsk {

Status TopKSource::ExpandNodeBatch(PageId node,
                                   const SpatialKeywordQuery* const* queries,
                                   std::vector<SearchEntry>* const* outs,
                                   size_t count, bool use_cache) const {
  for (size_t i = 0; i < count; ++i) {
    uint64_t objects_scored = 0;
    WSK_RETURN_IF_ERROR(
        ExpandNode(node, *queries[i], -std::numeric_limits<double>::infinity(),
                   use_cache, outs[i], &objects_scored));
  }
  return Status::Ok();
}

TopKIterator::TopKIterator(const TopKSource* source, SpatialKeywordQuery query,
                           const CancelToken* cancel, bool use_cache,
                           TraceRecorder* trace, double floor)
    : source_(source),
      query_(std::move(query)),
      cancel_(cancel),
      use_cache_(use_cache),
      trace_(trace),
      floor_(floor),
      floored_(floor > -std::numeric_limits<double>::infinity()) {
  status_ = ValidateTopKQuery(query_);
  if (!status_.ok()) return;
  const PageId root = source_->SearchRoot();
  if (root != kInvalidPageId) {
    // The root has no parent entry to bound it; expand it unconditionally.
    SearchEntry entry;
    entry.bound = std::numeric_limits<double>::infinity();
    entry.node = root;
    heap_.push(entry);
    ++nodes_seen_;
  }
}

TopKIterator::~TopKIterator() {
  if (trace_ == nullptr) return;
  // nodes_pruned is derived (seen - visited): nodes dropped at the floor
  // plus heap leftovers at early termination.
  trace_->Add(TraceCounter::kNodesSeen, nodes_seen_);
  trace_->Add(TraceCounter::kNodesVisited, nodes_visited_);
  trace_->Add(TraceCounter::kNodesPruned, nodes_seen_ - nodes_visited_);
  trace_->Add(TraceCounter::kLeafObjectsScored, objects_scored_);
}

Status TopKIterator::Next(std::optional<ScoredObject>* out) {
  out->reset();
  if (!status_.ok()) return status_;
  while (!heap_.empty()) {
    const SearchEntry top = heap_.top();
    heap_.pop();
    if (top.is_object) {
      ++num_emitted_;
      *out = ScoredObject{top.object, top.bound};
      return Status::Ok();
    }
    if (cancel_ != nullptr) WSK_RETURN_IF_ERROR(cancel_->Check());
    scratch_.clear();
    WSK_RETURN_IF_ERROR(source_->ExpandNode(top.node, query_, floor_,
                                            use_cache_, &scratch_,
                                            &objects_scored_));
    ++nodes_visited_;
    for (const SearchEntry& child : scratch_) {
      if (!child.is_object) ++nodes_seen_;
      if (floored_ && child.bound <= floor_) continue;
      heap_.push(child);
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<ScoredObject>> IndexTopK(
    const TopKSource& source, const SpatialKeywordQuery& query,
    const CancelToken* cancel, bool use_cache, TraceRecorder* trace) {
  TraceSpan span(trace, TraceStage::kTopK);
  TopKIterator it(&source, query, cancel, use_cache, trace);
  WSK_RETURN_IF_ERROR(it.status());
  // No reserve(k): k comes from outside and may far exceed the index.
  std::vector<ScoredObject> result;
  std::optional<ScoredObject> next;
  while (result.size() < query.k) {
    WSK_RETURN_IF_ERROR(it.Next(&next));
    if (!next) break;
    result.push_back(*next);
  }
  return result;
}

}  // namespace wsk
