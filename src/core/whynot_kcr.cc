#include "core/whynot_kcr.h"

#include <algorithm>
#include <bit>

#include "common/thread_pool.h"
#include "index/dom_bounds.h"
#include "observability/trace.h"

namespace wsk::internal {

namespace {

// Per-candidate search state during one Algorithm 3 batch. The frontier
// dominator sums are kept per missing object; the rank bound of the set M
// is the max over the per-object bounds (Section VI-A).
struct CandState {
  const Candidate* cand = nullptr;
  CandidateMask mask = 0;      // kernel path: bits over doc0 ∪ M.doc
  uint32_t cand_size = 0;      // popcount(mask)
  std::vector<double> tsim;           // TSim(m_i, S)
  std::vector<double> missing_score;  // ST(m_i, q_S)
  std::vector<int64_t> sum_hi;        // Σ_frontier MaxDom per missing
  std::vector<int64_t> sum_lo;        // Σ_frontier MinDom per missing
  bool alive = true;

  int64_t RankHi() const {
    int64_t r = 0;
    for (int64_t v : sum_hi) r = std::max(r, v);
    return r + 1;
  }
  int64_t RankLo() const {
    int64_t r = 0;
    for (int64_t v : sum_lo) r = std::max(r, v);
    return r + 1;
  }
  bool Converged() const { return sum_hi == sum_lo; }
};

// A frontier node awaiting expansion, with the dominator bounds it
// currently contributes to every candidate (flattened [cand][missing]).
// `source` indexes the segment the page belongs to.
struct QueueNode {
  PageId page = kInvalidPageId;
  uint32_t source = 0;
  double priority = 0.0;  // total hi-lo gap at enqueue time
  std::vector<int64_t> hi;
  std::vector<int64_t> lo;
};

struct QueueNodeLess {
  bool operator()(const QueueNode& a, const QueueNode& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    if (a.source != b.source) return a.source > b.source;  // deterministic
    return a.page > b.page;
  }
};

// MinDom slack for tombstones: any of the segment's `shadow` hidden objects
// might lie below this node, so the certain-dominator count can only be
// trusted down to lo - shadow (clamped at zero). Never applied to MaxDom —
// hiding objects cannot create dominators.
int64_t ClampLo(int64_t lo, uint32_t shadow) {
  return std::max<int64_t>(0, lo - static_cast<int64_t>(shadow));
}

class KcrBatchRunner {
 public:
  // Algorithm 3 over every segment of the frame's plan at once plus its
  // extras; `stats` receives this runner's candidate dispositions.
  KcrBatchRunner(const SearchFrame& frame, WhyNotStats* stats)
      : plan_(frame.plan),
        original_(frame.original),
        missing_(frame.missing),
        scorer_(frame.scorer),
        pm_(frame.pm),
        best_(frame.best),
        stats_(stats),
        cancel_(frame.options.cancel),
        trace_(frame.options.trace) {
    const double diagonal = plan_.diagonal;
    dom_ctx_.reserve(missing_.size());
    for (size_t i = 0; i < missing_.size(); ++i) {
      DomContext ctx;
      ctx.query_loc = original_.loc;
      ctx.alpha = original_.alpha;
      ctx.diagonal = diagonal;
      ctx.missing_sdist =
          Distance(missing_.locs[i], original_.loc) / diagonal;
      dom_ctx_.push_back(ctx);
    }
  }

  // Runs Algorithm 3 on the candidate batch [begin, end) of the ordered
  // candidate list.
  Status RunBatch(const Candidate* begin, const Candidate* end);

 private:
  // Evaluates the node-level bounds for one candidate, one missing object.
  // `uc` carries the node's universe-term counts when the kernel is on
  // (nullptr selects the scalar count-map path). `shadow` is the owning
  // segment's tombstone count (MinDom slack).
  void NodeBounds(const NodeDomStats& stats, const NodeUniverseCounts* uc,
                  const CandState& cand, size_t i, uint32_t shadow,
                  int64_t* hi, int64_t* lo) const {
    if (uc != nullptr) {
      *hi = MaxDom(stats, *uc, cand.mask, cand.cand_size, cand.tsim[i],
                   dom_ctx_[i]);
      *lo = ClampLo(MinDom(stats, *uc, cand.mask, cand.cand_size,
                           cand.tsim[i], dom_ctx_[i]),
                    shadow);
      return;
    }
    *hi = MaxDom(stats, cand.cand->doc, cand.tsim[i], dom_ctx_[i]);
    *lo = ClampLo(MinDom(stats, cand.cand->doc, cand.tsim[i], dom_ctx_[i]),
                  shadow);
  }

  // Re-derives penalty bounds for `cand` and applies pruning / threshold
  // tightening. Returns false when the candidate was pruned.
  bool Reassess(CandState* cand) {
    if (!cand->alive) return false;
    const double pen_hi =
        pm_.Penalty(static_cast<uint64_t>(cand->RankHi()),
                    cand->cand->edit_distance);
    const double pen_lo =
        pm_.Penalty(static_cast<uint64_t>(cand->RankLo()),
                    cand->cand->edit_distance);
    best_->Tighten(pen_hi);
    if (pen_lo > best_->Threshold()) {
      cand->alive = false;
      ++stats_->candidates_pruned_bounds;
      return false;
    }
    return true;
  }

  const WhyNotPlan& plan_;
  const SpatialKeywordQuery& original_;
  const MissingSet& missing_;
  const WhyNotScorer& scorer_;
  const PenaltyModel& pm_;
  BestRefinement* const best_;
  WhyNotStats* stats_;
  const CancelToken* cancel_;
  TraceRecorder* const trace_;
  std::vector<DomContext> dom_ctx_;
};

Status KcrBatchRunner::RunBatch(const Candidate* begin,
                                const Candidate* end) {
  const size_t num_cands = static_cast<size_t>(end - begin);
  const size_t num_missing = missing_.size();
  if (num_cands == 0) return Status::Ok();
  TraceSpan batch_span(trace_, TraceStage::kBatch);
  // Node accounting for this traversal; the invariant
  // seen = visited + pruned is flushed to the trace at the end.
  uint64_t nodes_seen = 0;
  uint64_t nodes_visited = 0;
  uint64_t leaf_objects_scored = 0;
  if (trace_ != nullptr) {
    trace_->Add(TraceCounter::kBatches);
    trace_->Add(TraceCounter::kBatchCandidates, num_cands);
  }

  // Per-candidate precomputation: textual similarity and exact score of
  // each missing object under the candidate keywords. With the kernel on,
  // each candidate is frozen into a mask once and every TSim is a popcount
  // against the precomputed missing-object footprints.
  const bool kernel = scorer_.kernel_enabled();
  std::vector<CandState> cands(num_cands);
  std::vector<CandidateMask> batch_masks;
  if (kernel) batch_masks.resize(num_cands);
  for (size_t c = 0; c < num_cands; ++c) {
    CandState& state = cands[c];
    state.cand = begin + c;
    state.tsim.resize(num_missing);
    state.missing_score.resize(num_missing);
    state.sum_hi.assign(num_missing, 0);
    state.sum_lo.assign(num_missing, 0);
    if (kernel) {
      state.mask = scorer_.universe().MaskOf(state.cand->doc);
      state.cand_size = static_cast<uint32_t>(std::popcount(state.mask));
      batch_masks[c] = state.mask;
      if (trace_ != nullptr) {
        trace_->Add(TraceCounter::kKernelInvocations);
      }
    }
    for (size_t i = 0; i < num_missing; ++i) {
      state.tsim[i] = kernel
                          ? scorer_.MissingTsim(i, state.mask)
                          : TextualSimilarity(*missing_.docs[i],
                                              state.cand->doc,
                                              original_.model);
      state.missing_score[i] =
          original_.alpha * (1.0 - dom_ctx_[i].missing_sdist) +
          (1.0 - original_.alpha) * state.tsim[i];
    }
  }

  // Exact 0/1 domination of one object over each missing object, added to
  // `counts` ([candidate][missing]) for every alive candidate. With the
  // kernel on, one footprint per object scores the whole batch
  // (ScoreAllCandidates) instead of one sorted merge per (object,
  // candidate) pair.
  const size_t width = num_cands * num_missing;
  std::vector<int64_t> total_hi(width);
  std::vector<int64_t> total_lo(width);
  std::vector<double> batch_tsim;
  const auto count_dominance = [&](Point loc, const KeywordSet& doc,
                                   int64_t* counts) {
    const double sdist = Distance(loc, original_.loc) / plan_.diagonal;
    if (kernel) {
      ScoreAllCandidates(scorer_.universe().FootprintOf(doc), batch_masks,
                         original_.model, &batch_tsim);
    }
    for (size_t c = 0; c < num_cands; ++c) {
      if (!cands[c].alive) continue;
      const double tsim =
          kernel ? batch_tsim[c]
                 : TextualSimilarity(doc, cands[c].cand->doc,
                                     original_.model);
      const double score =
          original_.alpha * (1.0 - sdist) + (1.0 - original_.alpha) * tsim;
      for (size_t i = 0; i < num_missing; ++i) {
        counts[c * num_missing + i] +=
            score > cands[c].missing_score[i] ? 1 : 0;
      }
    }
  };

  // Delta extras: exactly-scored objects outside any tree. Their dominate
  // counts are final, so they enter both bound sums up front and never
  // appear in the frontier.
  if (!plan_.extras.empty()) {
    TraceSpan extras_span(trace_, TraceStage::kLeafScoring);
    leaf_objects_scored += plan_.extras.size();
    if (trace_ != nullptr && kernel) {
      trace_->Add(TraceCounter::kKernelInvocations, plan_.extras.size());
    }
    for (const SpatialObject* o : plan_.extras) {
      count_dominance(o->loc, o->doc, total_hi.data());
    }
    for (size_t c = 0; c < num_cands; ++c) {
      for (size_t i = 0; i < num_missing; ++i) {
        cands[c].sum_hi[i] += total_hi[c * num_missing + i];
        cands[c].sum_lo[i] += total_hi[c * num_missing + i];
      }
    }
  }

  // Algorithm 3 lines 2-6: bound every candidate using each segment's root
  // summary; the per-object sums accumulate across segments (and extras).
  std::vector<QueueNode> root_entries;
  root_entries.reserve(plan_.segments.size());
  for (uint32_t s = 0; s < plan_.segments.size(); ++s) {
    const PlanSegment& seg = plan_.segments[s];
    const KcrTree& tree = seg.index->kcr();
    StatusOr<KeywordCountMap> root_kcm = tree.ReadRootKcm();
    if (!root_kcm.ok()) return root_kcm.status();
    const NodeDomStats root_stats(&root_kcm.value(), tree.root_cnt(),
                                  tree.root_mbr());
    NodeUniverseCounts root_uc;
    if (kernel) {
      root_uc = NodeUniverseCounts::Build(root_stats, scorer_.universe());
    }
    QueueNode root_entry;
    root_entry.page = tree.SearchRoot();
    root_entry.source = s;
    ++nodes_seen;  // the root was bounded even if never expanded
    root_entry.hi.assign(num_cands * num_missing, 0);
    root_entry.lo.assign(num_cands * num_missing, 0);
    for (size_t c = 0; c < num_cands; ++c) {
      for (size_t i = 0; i < num_missing; ++i) {
        int64_t hi, lo;
        NodeBounds(root_stats, kernel ? &root_uc : nullptr, cands[c], i,
                   seg.shadow_count, &hi, &lo);
        root_entry.hi[c * num_missing + i] = hi;
        root_entry.lo[c * num_missing + i] = lo;
        cands[c].sum_hi[i] += hi;
        cands[c].sum_lo[i] += lo;
        root_entry.priority += static_cast<double>(hi - lo);
      }
    }
    root_entries.push_back(std::move(root_entry));
  }
  size_t num_alive = 0;
  for (size_t c = 0; c < num_cands; ++c) {
    if (Reassess(&cands[c])) ++num_alive;
  }

  // The frontier is a max-heap under QueueNodeLess kept in a plain vector
  // (the push_heap/pop_heap sequence std::priority_queue performs), so the
  // top entry can be moved out instead of copied.
  std::vector<QueueNode> queue;
  for (QueueNode& root_entry : root_entries) {
    if (num_alive > 0 && root_entry.priority > 0.0) {
      queue.push_back(std::move(root_entry));
      std::push_heap(queue.begin(), queue.end(), QueueNodeLess());
    }
  }

  // Scratch reused across visits. `total_hi/lo` sum the expanded node's
  // children's bounds per (candidate, missing); inner nodes also keep each
  // child's bounds in `child_hi/lo`, one row of `width` per child.
  std::vector<int64_t> child_hi;
  std::vector<int64_t> child_lo;

  while (!queue.empty() && num_alive > 0) {
    // Node-visit granularity cancellation (Algorithm 3's unit of work).
    if (cancel_ != nullptr) WSK_RETURN_IF_ERROR(cancel_->Check());
    std::pop_heap(queue.begin(), queue.end(), QueueNodeLess());
    const QueueNode entry = std::move(queue.back());
    queue.pop_back();
    const PlanSegment& seg = plan_.segments[entry.source];
    // Decoded read: entry payloads are already materialized (and, for
    // inner nodes, the per-child NodeDomStats precomputed) — either shared
    // from the engine cache or built fresh for this visit.
    StatusOr<std::shared_ptr<const KcrTree::DecodedNode>> read =
        seg.index->kcr().ReadDecodedNode(entry.page);
    if (!read.ok()) return read.status();
    const KcrTree::DecodedNode& decoded = *read.value();
    const KcrTree::Node& node = decoded.node;
    ++stats_->nodes_expanded;
    ++nodes_visited;

    const size_t num_children = node.size();
    std::fill(total_hi.begin(), total_hi.end(), 0);
    std::fill(total_lo.begin(), total_lo.end(), 0);

    if (node.is_leaf) {
      // Children are objects: their exact 0/1 dominations go straight into
      // the totals, where both bounds agree. Tombstoned objects contribute
      // nothing.
      TraceSpan leaf_span(trace_, TraceStage::kLeafScoring);
      uint64_t scored = 0;
      for (size_t j = 0; j < num_children; ++j) {
        const KcrTree::LeafEntry& e = node.leaf_entries[j];
        if (seg.visibility != nullptr && !seg.visibility->IsVisible(e.object)) {
          continue;
        }
        ++scored;
        count_dominance(e.loc, decoded.leaf_docs[j], total_hi.data());
      }
      total_lo = total_hi;
      leaf_objects_scored += scored;
      if (trace_ != nullptr && kernel) {
        trace_->Add(TraceCounter::kKernelInvocations, scored);
      }
    } else {
      TraceSpan bounds_span(trace_, TraceStage::kBoundTightening);
      nodes_seen += num_children;
      child_hi.assign(num_children * width, 0);
      child_lo.assign(num_children * width, 0);
      for (size_t j = 0; j < num_children; ++j) {
        // The capped-mass stats are query-independent, so they ride along
        // with the decoded node (precomputed once at materialization
        // instead of once per visit). The universe counts are
        // query-dependent and stay per batch.
        const NodeDomStats& child_stats = decoded.child_stats[j];
        NodeUniverseCounts child_uc;
        if (kernel) {
          child_uc = NodeUniverseCounts::Build(child_stats,
                                               scorer_.universe());
        }
        int64_t* row_hi = child_hi.data() + j * width;
        int64_t* row_lo = child_lo.data() + j * width;
        for (size_t c = 0; c < num_cands; ++c) {
          if (!cands[c].alive) continue;
          for (size_t i = 0; i < num_missing; ++i) {
            const size_t at = c * num_missing + i;
            NodeBounds(child_stats, kernel ? &child_uc : nullptr, cands[c],
                       i, seg.shadow_count, &row_hi[at], &row_lo[at]);
            total_hi[at] += row_hi[at];
            total_lo[at] += row_lo[at];
          }
        }
      }
    }

    // Replace the node's contribution by its children's (Alg. 3 lines
    // 16-19), then reassess every alive candidate.
    num_alive = 0;
    for (size_t c = 0; c < num_cands; ++c) {
      if (!cands[c].alive) continue;
      for (size_t i = 0; i < num_missing; ++i) {
        const size_t at = c * num_missing + i;
        cands[c].sum_hi[i] += total_hi[at] - entry.hi[at];
        cands[c].sum_lo[i] += total_lo[at] - entry.lo[at];
      }
      if (Reassess(&cands[c])) ++num_alive;
    }

    // Enqueue children that can still tighten some alive candidate
    // (Alg. 3 lines 29-32); objects are final and never enqueued.
    if (!node.is_leaf) {
      for (size_t j = 0; j < num_children; ++j) {
        const int64_t* row_hi = child_hi.data() + j * width;
        const int64_t* row_lo = child_lo.data() + j * width;
        double gap = 0.0;
        for (size_t c = 0; c < num_cands; ++c) {
          if (!cands[c].alive) continue;
          for (size_t i = 0; i < num_missing; ++i) {
            gap += static_cast<double>(row_hi[c * num_missing + i] -
                                       row_lo[c * num_missing + i]);
          }
        }
        if (gap > 0.0) {
          QueueNode child_entry;
          child_entry.page = node.inner_entries[j].child;
          child_entry.source = entry.source;
          child_entry.priority = gap;
          child_entry.hi.assign(row_hi, row_hi + width);
          child_entry.lo.assign(row_lo, row_lo + width);
          queue.push_back(std::move(child_entry));
          std::push_heap(queue.begin(), queue.end(), QueueNodeLess());
        }
      }
    }
  }

  // Every surviving candidate has converged bounds: offer exact penalties.
  for (CandState& cand : cands) {
    if (!cand.alive) continue;
    WSK_CHECK_MSG(cand.Converged(),
                  "KcR batch ended with unconverged candidate bounds");
    ++stats_->candidates_evaluated;
    const uint32_t rank = static_cast<uint32_t>(cand.RankHi());
    const double penalty = pm_.Penalty(rank, cand.cand->edit_distance);
    best_->Offer(*cand.cand, rank, penalty);
  }
  if (trace_ != nullptr) {
    trace_->Add(TraceCounter::kNodesSeen, nodes_seen);
    trace_->Add(TraceCounter::kNodesVisited, nodes_visited);
    trace_->Add(TraceCounter::kNodesPruned, nodes_seen - nodes_visited);
    trace_->Add(TraceCounter::kLeafObjectsScored, leaf_objects_scored);
  }
  return Status::Ok();
}

}  // namespace

Status SearchByKcrBatches(const SearchFrame& frame) {
  const std::vector<Candidate>& candidates = frame.candidates;
  const WhyNotOptions& options = frame.options;
  // Algorithm 4 lines 3-7: batches in ascending edit distance, stopping
  // when the keyword penalty alone reaches the best penalty. With
  // num_threads > 0 each batch is divided among workers that share the
  // best refinement (Section VII-B7). With kcr_single_batch the whole candidate
  // set goes through one traversal (the Section V-D strawman).
  size_t start = 0;
  while (start < candidates.size()) {
    if (options.cancel != nullptr) {
      WSK_RETURN_IF_ERROR(options.cancel->Check());
    }
    size_t end = start + 1;
    if (options.kcr_single_batch) {
      end = candidates.size();
    } else {
      while (end < candidates.size() &&
             candidates[end].edit_distance ==
                 candidates[start].edit_distance) {
        ++end;
      }
      if (frame.pm.DocPenalty(candidates[start].edit_distance) >=
          frame.best->Threshold()) {
        frame.stats->candidates_skipped_order += candidates.size() - start;
        break;
      }
    }
    const size_t batch_size = end - start;
    const size_t num_chunks =
        options.num_threads > 0
            ? std::min<size_t>(options.num_threads, batch_size)
            : 1;
    // The caller and up to num_chunks - 1 executor helpers run the chunks.
    std::vector<WhyNotStats> chunk_stats(num_chunks);
    WSK_RETURN_IF_ERROR(ParallelFor(
        num_chunks, num_chunks - 1, [&](size_t chunk) -> Status {
          const size_t chunk_begin = start + chunk * batch_size / num_chunks;
          const size_t chunk_end =
              start + (chunk + 1) * batch_size / num_chunks;
          KcrBatchRunner runner(frame, &chunk_stats[chunk]);
          return runner.RunBatch(candidates.data() + chunk_begin,
                                 candidates.data() + chunk_end);
        }));
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) {
      frame.stats->nodes_expanded += chunk_stats[chunk].nodes_expanded;
      frame.stats->candidates_pruned_bounds +=
          chunk_stats[chunk].candidates_pruned_bounds;
      // Evaluated = converged to an exact penalty; batch candidates pruned
      // by the penalty bounds are accounted separately, so the candidate
      // dispositions partition the batch.
      frame.stats->candidates_evaluated +=
          chunk_stats[chunk].candidates_evaluated;
    }
    start = end;
  }
  return Status::Ok();
}

}  // namespace wsk::internal
