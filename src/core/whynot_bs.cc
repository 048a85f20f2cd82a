#include "core/whynot_bs.h"

#include <mutex>
#include <unordered_set>

#include "common/thread_pool.h"
#include "observability/trace.h"

namespace wsk::internal {

namespace {

// BS's own search state, shared between candidate-evaluation workers
// (Section IV-C4: p_c and the rank bounds must be synchronized across
// threads; p_c and the best answer live in the frame's BestRefinement).
struct SharedState {
  std::mutex mu;

  // Candidates at enumeration index >= stop_order are skipped (the
  // enumeration-order early termination). An index rather than a flag so
  // that a worker still holding an earlier candidate finishes it —
  // otherwise the thread schedule could decide which candidate wins.
  uint64_t stop_order = UINT64_MAX;

  // Opt3: objects seen to dominate the missing set under some candidate.
  std::unordered_set<ObjectId> dominator_cache;
  std::vector<ObjectId> dominator_list;  // stable snapshot source

  // The frame's stats, guarded by mu. Every candidate lands in exactly one
  // of evaluated (rank queries run, including capped ones), filtered (Opt3
  // dominator-cache prunes), skipped_order (Opt2 order-stop skips) or
  // pruned_bounds (Eqn 6 rank bound < 1), which keeps the disposition
  // partition exact.
  WhyNotStats* stats = nullptr;
};

// Evaluates candidate `cand` (enumeration position `order`) and updates the
// shared state. Returns non-OK only on I/O failure.
Status EvaluateCandidate(const SearchFrame& f, const Candidate& cand,
                         uint64_t order, SharedState* state) {
  const WhyNotOptions& options = f.options;
  // Cancellation check per candidate; the rank query below re-checks at
  // every node visit through the token passed to RankFromIndex.
  if (options.cancel != nullptr) {
    WSK_RETURN_IF_ERROR(options.cancel->Check());
  }
  TraceSpan eval_span(options.trace, TraceStage::kCandidateEval);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    if (order >= state->stop_order) {
      ++state->stats->candidates_skipped_order;
      return Status::Ok();
    }
  }
  const double p_c = f.best->Threshold();

  const double doc_pen = f.pm.DocPenalty(cand.edit_distance);
  // Candidates are ordered canonically, so neither this candidate nor any
  // later one can beat p_c on the keyword penalty alone: stop the
  // enumeration here. Exception: at doc_pen == p_c this candidate can still
  // tie, and it wins the tie when it precedes the incumbent in canonical
  // order — then it must be evaluated, not stopped on. (p_c only falls, and
  // at an unchanged penalty the incumbent only moves canonically earlier, so
  // a lost tie stays lost without holding the search's lock; every later
  // candidate is canonically after this one, so the stop itself never needs
  // to move past `order`.)
  if (options.opt_enumeration_order && doc_pen >= p_c &&
      !f.best->WinsTie(cand, doc_pen)) {
    std::lock_guard<std::mutex> lock(state->mu);
    state->stop_order = std::min(state->stop_order, order);
    ++state->stats->candidates_skipped_order;  // skipped, not run
    return Status::Ok();
  }

  // Eqn 6 rank bound: shared by Opt1 (query early stop) and Opt3 (cache
  // filtering); the two optimizations consume it independently. A bound
  // below 1 means no rank can beat p_c, so either one prunes the candidate
  // before its query as a bound prune.
  const int64_t rank_bound = f.pm.RankUpperBound(p_c, cand.edit_distance);
  if ((options.opt_early_stop || options.opt_keyword_filtering) &&
      rank_bound < 1) {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->stats->candidates_pruned_bounds;
    return Status::Ok();
  }
  // Opt1: cap query processing at the bound (0 = run to completion).
  const int64_t rank_limit = options.opt_early_stop ? rank_bound : 0;

  SpatialKeywordQuery refined = f.original;
  refined.doc = cand.doc;
  // Kernel path: the candidate becomes a mask over doc0 ∪ M.doc; the
  // missing objects' footprints and distances were computed once up front.
  const WhyNotScorer& scorer = f.scorer;
  const bool kernel = scorer.kernel_enabled();
  const CandidateMask cand_mask =
      kernel ? scorer.universe().MaskOf(cand.doc) : 0;
  const double min_score = kernel ? scorer.MinScore(cand_mask)
                                  : f.missing.MinScore(refined,
                                                       f.plan.diagonal);

  // Opt3: prune the candidate before running its query by counting cached
  // dominators that still dominate under the new keywords against the rank
  // bound.
  if (options.opt_keyword_filtering) {
    TraceSpan probe_span(options.trace, TraceStage::kDominatorProbe);
    std::vector<ObjectId> snapshot;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      snapshot = state->dominator_list;
    }
    int64_t still_dominating = 0;
    uint64_t probes = 0;
    for (ObjectId id : snapshot) {
      const double score =
          kernel ? scorer.ObjectScore(id, cand_mask)
                 : Score(*f.plan.store->FindObject(id), refined,
                         f.plan.diagonal);
      ++probes;
      if (score > min_score) ++still_dominating;
      if (still_dominating >= rank_bound) break;
    }
    if (options.trace != nullptr) {
      options.trace->Add(TraceCounter::kDominatorCacheProbes, probes);
      if (kernel) {
        options.trace->Add(TraceCounter::kKernelInvocations, probes);
      }
    }
    if (still_dominating >= rank_bound) {
      std::lock_guard<std::mutex> lock(state->mu);
      ++state->stats->candidates_filtered;
      return Status::Ok();
    }
  }
  if (options.trace != nullptr && kernel) {
    // MaskOf + MinScore above dispatched one kernel scoring pass.
    options.trace->Add(TraceCounter::kKernelInvocations);
  }

  bool exceeded = false;
  std::vector<ObjectId> dominators;
  uint64_t rank_nodes = 0;
  StatusOr<uint32_t> rank = RankFromIndex(
      f.source, refined, min_score, rank_limit, &exceeded,
      options.opt_keyword_filtering ? &dominators : nullptr, options.cancel,
      options.trace, &rank_nodes);
  if (!rank.ok()) return rank.status();

  {
    std::lock_guard<std::mutex> lock(state->mu);
    ++state->stats->candidates_evaluated;
    state->stats->nodes_expanded += rank_nodes;
    for (ObjectId id : dominators) {
      if (state->dominator_cache.insert(id).second) {
        state->dominator_list.push_back(id);
      }
    }
  }
  if (!exceeded) {
    f.best->Offer(cand, rank.value(),
                  f.pm.Penalty(rank.value(), cand.edit_distance));
  }
  return Status::Ok();
}

}  // namespace

Status SearchByRankQueries(const SearchFrame& frame) {
  const std::vector<Candidate>& candidates = frame.candidates;
  SharedState state;
  state.stats = frame.stats;
  // With num_threads = T the caller and up to T - 1 executor helpers
  // evaluate candidates from one cursor.
  const int num_threads = frame.options.num_threads;
  return ParallelFor(
      candidates.size(), num_threads > 1 ? num_threads - 1 : 0,
      [&](size_t i) -> Status {
        {
          std::lock_guard<std::mutex> lock(state.mu);
          if (i >= state.stop_order) {
            ++state.stats->candidates_skipped_order;  // behind the stop
            return Status::Ok();
          }
        }
        return EvaluateCandidate(frame, candidates[i], i, &state);
      });
}

}  // namespace wsk::internal
