#include "index/topk.h"

#include <limits>

namespace wsk {

TopKIterator::TopKIterator(const TopKSource* source, SpatialKeywordQuery query,
                           const CancelToken* cancel, TraceRecorder* trace,
                           double floor)
    : source_(source),
      query_(std::move(query)),
      cancel_(cancel),
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

PageId TopKIterator::PopReady(std::optional<ScoredObject>* out) {
  out->reset();
  if (heap_.empty()) return kInvalidPageId;
  const SearchEntry& top = heap_.top();
  if (!top.is_object) return top.node;
  ++num_emitted_;
  *out = ScoredObject{top.object, top.bound};
  heap_.pop();
  return kInvalidPageId;
}

Status TopKIterator::BeginExpand(ExpandSlot* slot) {
  heap_.pop();
  if (cancel_ != nullptr) WSK_RETURN_IF_ERROR(cancel_->Check());
  scratch_.clear();
  *slot = ExpandSlot{&query_, floor_, &scratch_, &objects_scored_};
  return Status::Ok();
}

void TopKIterator::EndExpand() {
  ++nodes_visited_;
  for (const SearchEntry& child : scratch_) {
    if (!child.is_object) ++nodes_seen_;
    if (floored_ && child.bound <= floor_) continue;
    heap_.push(child);
  }
}

Status TopKIterator::Next(std::optional<ScoredObject>* out) {
  out->reset();
  if (!status_.ok()) return status_;
  for (;;) {
    const PageId node = PopReady(out);
    if (node == kInvalidPageId) return Status::Ok();  // emitted or exhausted
    ExpandSlot slot;
    WSK_RETURN_IF_ERROR(BeginExpand(&slot));
    WSK_RETURN_IF_ERROR(source_->ExpandNode(node, {&slot, 1}));
    EndExpand();
  }
}

StatusOr<std::vector<ScoredObject>> IndexTopK(
    const TopKSource& source, const SpatialKeywordQuery& query,
    const CancelToken* cancel, TraceRecorder* trace) {
  TraceSpan span(trace, TraceStage::kTopK);
  TopKIterator it(&source, query, cancel, trace);
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
