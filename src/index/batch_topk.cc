#include "index/batch_topk.h"

#include <limits>
#include <queue>
#include <unordered_map>

namespace wsk {

namespace {

// Per-query traversal state: exactly a solo TopKIterator's heap plus its
// IndexTopK result accumulation, advanced in lockstep with the batch.
struct QueryState {
  const SpatialKeywordQuery* query = nullptr;
  const CancelToken* cancel = nullptr;
  std::priority_queue<SearchEntry, std::vector<SearchEntry>, SearchEntryLess>
      heap;
  std::vector<ScoredObject> topk;
  Status status;
  bool done = false;
  uint64_t nodes_seen = 0;
  uint64_t nodes_visited = 0;
  uint64_t objects_scored = 0;
};

// Pops ready objects until the query finishes or needs a node expansion.
// Mirrors IndexTopK's loop: stop pulling once k results have emitted, and
// an exhausted frontier ends the query with fewer than k.
void DrainObjects(QueryState* q) {
  while (!q->done) {
    if (q->topk.size() >= q->query->k) {
      q->done = true;
      return;
    }
    if (q->heap.empty()) {
      q->done = true;
      return;
    }
    const SearchEntry top = q->heap.top();
    if (!top.is_object) return;  // frontier blocked on a node visit
    q->heap.pop();
    q->topk.push_back(ScoredObject{top.object, top.bound});
  }
}

}  // namespace

std::vector<BatchTopKResult> BatchedIndexTopK(
    const TopKSource& source, const std::vector<BatchTopKRequest>& requests,
    bool use_cache, TraceRecorder* trace) {
  TraceSpan span(trace, TraceStage::kBatchTopK);
  std::vector<QueryState> states(requests.size());
  const PageId root = source.SearchRoot();
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryState& q = states[i];
    q.query = requests[i].query;
    q.cancel = requests[i].cancel;
    // An invalid query fails alone; the rest of the batch still answers.
    // On an empty index every query finishes with no results.
    q.status = ValidateTopKQuery(*q.query);
    if (!q.status.ok() || root == kInvalidPageId) {
      q.done = true;
      continue;
    }
    SearchEntry entry;
    entry.bound = std::numeric_limits<double>::infinity();
    entry.node = root;
    q.heap.push(entry);
    ++q.nodes_seen;
  }

  // Scheduling scratch, reused across rounds. Groups preserve first-seen
  // order so the expansion sequence is deterministic.
  std::unordered_map<PageId, size_t> group_of;
  std::vector<PageId> group_nodes;
  std::vector<std::vector<size_t>> group_members;
  std::vector<const SpatialKeywordQuery*> expand_queries;
  std::vector<std::vector<SearchEntry>> expand_scratch;
  std::vector<std::vector<SearchEntry>*> expand_outs;
  uint64_t batch_nodes_expanded = 0;
  uint64_t batch_nodes_shared = 0;

  for (;;) {
    group_of.clear();
    group_nodes.clear();
    group_members.clear();
    bool any_active = false;
    for (size_t i = 0; i < states.size(); ++i) {
      QueryState& q = states[i];
      DrainObjects(&q);
      if (q.done) continue;
      any_active = true;
      const PageId node = q.heap.top().node;
      auto [it, inserted] = group_of.emplace(node, group_nodes.size());
      if (inserted) {
        group_nodes.push_back(node);
        group_members.emplace_back();
      }
      group_members[it->second].push_back(i);
    }
    if (!any_active) break;

    for (size_t g = 0; g < group_nodes.size(); ++g) {
      expand_queries.clear();
      expand_outs.clear();
      std::vector<size_t> live;
      for (size_t i : group_members[g]) {
        QueryState& q = states[i];
        // Same order as the solo iterator: the node entry is popped, then
        // the cancel token gates the expansion — the traversal's I/O unit.
        q.heap.pop();
        if (q.cancel != nullptr) {
          const Status check = q.cancel->Check();
          if (!check.ok()) {
            q.status = check;
            q.done = true;
            continue;
          }
        }
        live.push_back(i);
      }
      if (live.empty()) continue;
      if (expand_scratch.size() < live.size()) {
        expand_scratch.resize(live.size());
      }
      for (size_t j = 0; j < live.size(); ++j) {
        expand_scratch[j].clear();
        expand_queries.push_back(states[live[j]].query);
        expand_outs.push_back(&expand_scratch[j]);
      }
      const Status expanded = source.ExpandNodeBatch(
          group_nodes[g], expand_queries.data(), expand_outs.data(),
          live.size(), use_cache);
      if (!expanded.ok()) {
        // The node itself failed to materialize; every query that needed
        // it fails the same way a solo walk would.
        for (size_t i : live) {
          states[i].status = expanded;
          states[i].done = true;
        }
        continue;
      }
      ++batch_nodes_expanded;
      batch_nodes_shared += live.size() - 1;
      for (size_t j = 0; j < live.size(); ++j) {
        QueryState& q = states[live[j]];
        ++q.nodes_visited;
        for (const SearchEntry& child : expand_scratch[j]) {
          if (child.is_object) {
            ++q.objects_scored;
          } else {
            ++q.nodes_seen;
          }
          q.heap.push(child);
        }
      }
    }
  }

  std::vector<BatchTopKResult> results(states.size());
  uint64_t nodes_seen = 0;
  uint64_t nodes_visited = 0;
  uint64_t objects_scored = 0;
  for (size_t i = 0; i < states.size(); ++i) {
    results[i].status = states[i].status;
    if (states[i].status.ok()) results[i].topk = std::move(states[i].topk);
    nodes_seen += states[i].nodes_seen;
    nodes_visited += states[i].nodes_visited;
    objects_scored += states[i].objects_scored;
  }
  if (trace != nullptr) {
    trace->Add(TraceCounter::kNodesSeen, nodes_seen);
    trace->Add(TraceCounter::kNodesVisited, nodes_visited);
    trace->Add(TraceCounter::kNodesPruned, nodes_seen - nodes_visited);
    trace->Add(TraceCounter::kLeafObjectsScored, objects_scored);
    trace->Add(TraceCounter::kBatchQueries, states.size());
    trace->Add(TraceCounter::kBatchNodesExpanded, batch_nodes_expanded);
    trace->Add(TraceCounter::kBatchNodesShared, batch_nodes_shared);
  }
  return results;
}

}  // namespace wsk
