#include "core/planned_backend.h"

#include "common/timer.h"
#include "core/whynot_bs.h"
#include "core/whynot_kcr.h"
#include "index/batch_topk.h"

namespace wsk {

namespace {

using internal::MissingSet;
using internal::WhyNotScorer;

const TopKSource& Tree(const PlanSegment& segment, bool kcr) {
  if (kcr) return segment.index->kcr();
  return segment.index->setr();
}

}  // namespace

const TopKSource& WhyNotPlan::Source(
    bool kcr, TraceRecorder* trace,
    std::optional<MergedTopKSource>* merged) const {
  if (segments.size() == 1 && segments[0].visibility == nullptr &&
      extras.empty()) {
    return Tree(segments[0], kcr);
  }
  std::vector<MergedSegment> trees;
  trees.reserve(segments.size());
  for (const PlanSegment& segment : segments) {
    trees.push_back(MergedSegment{&Tree(segment, kcr), segment.visibility});
  }
  return merged->emplace(std::move(trees), extras, diagonal, trace);
}

StatusOr<std::vector<ScoredObject>> PlannedBackend::TopK(
    const SpatialKeywordQuery& query, const CancelToken* cancel,
    TraceRecorder* trace) const {
  TraceSpan root_span(trace, TraceStage::kQuery);
  const WhyNotPlan plan = PlanWhyNot();
  std::optional<MergedTopKSource> merged;
  return IndexTopK(plan.Source(/*kcr=*/false, trace, &merged), query, cancel,
                   trace);
}

std::vector<BackendBatchResult> PlannedBackend::TopKBatch(
    const std::vector<BackendBatchItem>& items, TraceRecorder* trace) const {
  TraceSpan root_span(trace, TraceStage::kQuery);
  // One snapshot for the whole batch: every item answers against the same
  // point-in-time view, exactly what solo execution at batch-formation time
  // would have seen.
  const WhyNotPlan plan = PlanWhyNot();
  std::optional<MergedTopKSource> merged;
  return BatchedIndexTopK(plan.Source(/*kcr=*/false, trace, &merged), items,
                          trace);
}

StatusOr<WhyNotResult> PlannedBackend::Answer(
    WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
    const std::vector<ObjectId>& missing, const WhyNotOptions& options) const {
  if (options.cancel != nullptr) {
    WSK_RETURN_IF_ERROR(options.cancel->Check());
  }
  // Root span: encloses the whole invocation so every stage span nests
  // inside it (the coverage property the trace tests assert).
  TraceSpan root_span(options.trace, TraceStage::kQuery);
  // What the algorithm decides: its candidate search, its tree family
  // (KcRBased ranks over the KcR-trees it traverses, so R(M, q') and the
  // dominator bounds agree on what exists) and, for BS, the optimisation
  // switches forced off.
  WhyNotOptions opts = options;
  internal::CandidateSearch search = internal::SearchByRankQueries;
  const bool kcr = algorithm == WhyNotAlgorithm::kKcrBased;
  if (algorithm == WhyNotAlgorithm::kBasic) {
    opts.opt_early_stop = false;
    opts.opt_enumeration_order = false;
    opts.opt_keyword_filtering = false;
  } else if (kcr) {
    if (query.model != SimilarityModel::kJaccard) {
      return Status::InvalidArgument(
          "the KcR-based algorithm requires the Jaccard similarity model");
    }
    search = internal::SearchByKcrBatches;
  }
  const WhyNotPlan plan = PlanWhyNot();
  std::optional<MergedTopKSource> merged;
  const TopKSource& source = plan.Source(kcr, options.trace, &merged);
  const BackendIoSnapshot before = io_snapshot();

  // Algorithm 4's frame, one copy for all three algorithms.
  Timer timer;
  WSK_RETURN_IF_ERROR(internal::ValidateWhyNotInput(
      query, missing, opts, plan.store->num_objects()));
  StatusOr<MissingSet> built = MissingSet::Build(*plan.store, missing);
  if (!built.ok()) return built.status();
  const MissingSet missing_set = std::move(built).value();
  WhyNotResult result;

  // Algorithm 4, line 1: R(M, q) under the original query.
  bool exceeded = false;
  StatusOr<uint32_t> initial_rank = Status::Internal("unreachable");
  {
    TraceSpan span(opts.trace, TraceStage::kInitialRank);
    initial_rank = internal::RankFromIndex(
        source, query, missing_set.MinScore(query, plan.diagonal),
        /*limit=*/0, &exceeded, nullptr, opts.cancel, opts.trace,
        &result.stats.nodes_expanded);
  }
  if (!initial_rank.ok()) return initial_rank.status();
  const uint32_t r0 = initial_rank.value();
  result.stats.initial_rank = r0;
  if (r0 <= query.k) {
    result.already_in_result = true;
    result.refined.doc = query.doc;
    result.refined.k = query.k;
    result.refined.rank = r0;
  } else {
    // The candidates over doc0 ∪ M.doc, and the basic refinement as the
    // best answer to beat. The one branch on the algorithm: KcRBased's
    // batches need the canonical order whatever opt_enumeration_order says.
    const uint64_t enum_start_us =
        opts.trace != nullptr ? opts.trace->NowUs() : 0;
    CandidateEnumerator enumerator(query.doc, missing_set.docs,
                                   plan.store->vocabulary());
    const PenaltyModel pm(opts.lambda, query.k, r0,
                          enumerator.universe_size());
    const WhyNotScorer scorer(*plan.store, missing_set, query, plan.diagonal,
                              enumerator.universe(), opts.use_score_kernel);
    internal::BestRefinement best(query.doc, query.k, r0, opts.lambda);
    const std::vector<Candidate> candidates =
        opts.sample_size > 0 ? enumerator.SampleByBenefit(opts.sample_size)
        : (kcr || opts.opt_enumeration_order) ? enumerator.ordered()
                                               : enumerator.UnorderedCopy();
    result.stats.candidates_total = candidates.size();
    if (opts.trace != nullptr) {
      opts.trace->RecordSpan(TraceStage::kEnumeration, enum_start_us,
                             opts.trace->NowUs());
    }
    WSK_RETURN_IF_ERROR(search({plan, source, query, opts, missing_set, scorer,
                                pm, candidates, &best, &result.stats}));
    result.refined = best.best();
    if (opts.trace != nullptr) {
      TraceRecorder& t = *opts.trace;
      t.Add(TraceCounter::kCandidatesEnumerated,
            result.stats.candidates_total);
      t.Add(TraceCounter::kCandidatesKept, result.stats.candidates_evaluated);
      t.Add(TraceCounter::kCandidatesPrunedEarlyStop,
            result.stats.candidates_pruned_bounds +
                result.stats.candidates_skipped_order);
      t.Add(TraceCounter::kCandidatesPrunedDominator,
            result.stats.candidates_filtered);
    }
  }
  result.stats.elapsed_ms = timer.ElapsedMillis();
  result.stats.io_reads = (io_snapshot() - before).page_reads(kcr);
  return result;
}

StatusOr<uint32_t> PlannedBackend::Rank(const SpatialKeywordQuery& query,
                                        ObjectId object) const {
  const WhyNotPlan plan = PlanWhyNot();
  const SpatialObject* o = plan.store->FindObject(object);
  if (o == nullptr) {
    return Status::InvalidArgument("object id not visible in this snapshot");
  }
  std::optional<MergedTopKSource> merged;
  bool exceeded = false;
  return internal::RankFromIndex(
      plan.Source(/*kcr=*/false, nullptr, &merged), query,
      Score(*o, query, plan.diagonal), /*limit=*/0, &exceeded,
      /*dominators=*/nullptr);
}

}  // namespace wsk
