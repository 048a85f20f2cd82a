#include "core/planned_backend.h"

#include "core/whynot_bs.h"
#include "core/whynot_common.h"
#include "core/whynot_kcr.h"

namespace wsk {

namespace {

const TopKSource& Tree(const PlanSegment& segment, bool kcr) {
  if (kcr) return segment.index->kcr();
  return segment.index->setr();
}

}  // namespace

std::vector<MergedSegment> WhyNotPlan::Trees(bool kcr) const {
  std::vector<MergedSegment> trees;
  trees.reserve(segments.size());
  for (const PlanSegment& segment : segments) {
    trees.push_back(MergedSegment{&Tree(segment, kcr), segment.visibility});
  }
  return trees;
}

const TopKSource& WhyNotPlan::Source(
    bool kcr, TraceRecorder* trace,
    std::optional<MergedTopKSource>* merged) const {
  if (segments.size() == 1 && segments[0].visibility == nullptr &&
      extras.empty()) {
    return Tree(segments[0], kcr);
  }
  return merged->emplace(Trees(kcr), extras, diagonal, trace);
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
  const WhyNotPlan plan = PlanWhyNot();
  const bool kcr = algorithm == WhyNotAlgorithm::kKcrBased;
  // KcRBased ranks over the KcR-trees it traverses, so R(M, q') and the
  // dominator bounds agree on what exists.
  std::optional<MergedTopKSource> merged;
  const TopKSource& source = plan.Source(kcr, options.trace, &merged);
  const BackendIoSnapshot before = io_snapshot();

  StatusOr<WhyNotResult> result = Status::Internal("unreachable");
  switch (algorithm) {
    case WhyNotAlgorithm::kBasic: {
      WhyNotOptions plain = options;
      plain.opt_early_stop = false;
      plain.opt_enumeration_order = false;
      plain.opt_keyword_filtering = false;
      result = AnswerWhyNotBasic(*plan.store, source, plan.diagonal, query,
                                 missing, plain);
      break;
    }
    case WhyNotAlgorithm::kAdvanced:
      result = AnswerWhyNotBasic(*plan.store, source, plan.diagonal, query,
                                 missing, options);
      break;
    case WhyNotAlgorithm::kKcrBased: {
      KcrMultiSource kcr_source;
      for (const PlanSegment& segment : plan.segments) {
        kcr_source.segments.push_back(KcrSegmentSource{
            &segment.index->kcr(), segment.visibility, segment.shadow_count});
      }
      kcr_source.extras = plan.extras;
      kcr_source.rank_source = &source;
      kcr_source.diagonal = plan.diagonal;
      result = AnswerWhyNotKcr(*plan.store, kcr_source, query, missing,
                               options);
      break;
    }
  }
  if (result.ok()) {
    result.value().stats.io_reads =
        (io_snapshot() - before).page_reads(kcr);
  }
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
