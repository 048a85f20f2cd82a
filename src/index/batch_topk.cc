#include "index/batch_topk.h"

#include <deque>
#include <optional>
#include <unordered_map>

namespace wsk {

std::vector<BatchTopKResult> BatchedIndexTopK(
    const TopKSource& source, const std::vector<BatchTopKRequest>& requests,
    TraceRecorder* trace) {
  TraceSpan span(trace, TraceStage::kBatchTopK);
  std::vector<BatchTopKResult> results(requests.size());
  // Each walk flushes its own counters to `trace` when the deque goes.
  std::deque<TopKIterator> walks;
  std::vector<size_t> live;
  for (size_t i = 0; i < requests.size(); ++i) {
    walks.emplace_back(&source, *requests[i].query, requests[i].cancel,
                       trace);
    // An invalid query fails alone; the rest of the batch still answers.
    results[i].status = walks.back().status();
    if (results[i].status.ok()) live.push_back(i);
  }

  // Scheduling scratch, reused across rounds. Groups preserve first-seen
  // order so the expansion sequence is deterministic.
  std::unordered_map<PageId, size_t> group_of;
  std::vector<PageId> group_nodes;
  std::vector<std::vector<size_t>> group_members;
  std::vector<size_t> still_live;
  std::vector<ExpandSlot> slots;
  std::vector<size_t> opened;
  uint64_t batch_nodes_expanded = 0;
  uint64_t batch_nodes_shared = 0;

  while (!live.empty()) {
    group_of.clear();
    group_nodes.clear();
    group_members.clear();
    still_live.clear();
    for (size_t i : live) {
      if (!results[i].status.ok()) continue;  // failed in the last round
      // IndexTopK's loop: pull until k results have emitted, the frontier
      // runs out, or the walk must open a node.
      std::vector<ScoredObject>& topk = results[i].topk;
      PageId node = kInvalidPageId;
      std::optional<ScoredObject> next;
      while (topk.size() < requests[i].query->k) {
        node = walks[i].PopReady(&next);
        if (!next) break;
        topk.push_back(*next);
      }
      if (node == kInvalidPageId) continue;  // finished
      still_live.push_back(i);
      auto [it, inserted] = group_of.emplace(node, group_nodes.size());
      if (inserted) {
        group_nodes.push_back(node);
        group_members.emplace_back();
      }
      group_members[it->second].push_back(i);
    }
    live.swap(still_live);

    for (size_t g = 0; g < group_nodes.size(); ++g) {
      slots.clear();
      opened.clear();
      for (size_t i : group_members[g]) {
        ExpandSlot slot;
        results[i].status = walks[i].BeginExpand(&slot);
        if (!results[i].status.ok()) continue;
        slots.push_back(slot);
        opened.push_back(i);
      }
      if (slots.empty()) continue;
      const Status expanded = source.ExpandNode(group_nodes[g], slots);
      if (!expanded.ok()) {
        // The node itself failed to materialize; every query that needed
        // it fails the same way a solo walk would.
        for (size_t i : opened) results[i].status = expanded;
        continue;
      }
      ++batch_nodes_expanded;
      batch_nodes_shared += slots.size() - 1;
      for (size_t i : opened) walks[i].EndExpand();
    }
  }

  for (BatchTopKResult& result : results) {
    if (!result.status.ok()) result.topk.clear();
  }
  if (trace != nullptr) {
    trace->Add(TraceCounter::kBatchQueries, requests.size());
    trace->Add(TraceCounter::kBatchNodesExpanded, batch_nodes_expanded);
    trace->Add(TraceCounter::kBatchNodesShared, batch_nodes_shared);
  }
  return results;
}

}  // namespace wsk
