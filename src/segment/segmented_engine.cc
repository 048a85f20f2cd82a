#include "segment/segmented_engine.h"

#include <optional>
#include <utility>

#include "common/macros.h"
#include "core/whynot_bs.h"
#include "core/whynot_kcr.h"
#include "index/batch_topk.h"
#include "index/topk.h"
#include "observability/trace.h"

namespace wsk {

SnapshotStore::SnapshotStore(const Vocabulary* vocabulary,
                             SegmentManager::Snapshot snapshot)
    : vocabulary_(vocabulary), snapshot_(std::move(snapshot)) {
  const SegmentManager::SegmentView& view = *snapshot_.view;
  const uint64_t seq = snapshot_.seq;
  size_t count = view.active->CountVisible(seq);
  for (const auto& sealed : view.sealed) count += sealed->CountVisible(seq);
  for (const auto& frozen : view.frozen) {
    count += frozen->num_objects() - frozen->ShadowedAt(seq);
  }
  num_objects_ = count;
}

const SpatialObject* SnapshotStore::FindObject(ObjectId id) const {
  const SegmentManager::SegmentView& view = *snapshot_.view;
  const uint64_t seq = snapshot_.seq;
  if (const SpatialObject* o = view.active->FindVisible(id, seq)) return o;
  for (auto it = view.sealed.rbegin(); it != view.sealed.rend(); ++it) {
    if (const SpatialObject* o = (*it)->FindVisible(id, seq)) return o;
  }
  for (auto it = view.frozen.rbegin(); it != view.frozen.rend(); ++it) {
    if ((*it)->VisibleAt(id, seq)) return (*it)->Find(id);
  }
  return nullptr;
}

StatusOr<std::unique_ptr<SegmentedEngine>> SegmentedEngine::Build(
    const Dataset& seed, const Config& config) {
  std::unique_ptr<SegmentedEngine> engine(new SegmentedEngine());
  engine->config_ = config;
  if (config.shared_vocabulary != nullptr) {
    engine->shared_vocab_ = config.shared_vocabulary;
  } else {
    engine->vocabulary_ = std::make_unique<Vocabulary>(seed.vocabulary());
  }
  if (config.node_cache_bytes > 0) {
    engine->node_cache_ = std::make_unique<NodeCache>(config.node_cache_bytes);
  }
  engine->merge_pool_ = std::make_unique<ThreadPool>(1);
  SegmentManager::Options options;
  options.work_dir = config.work_dir;
  options.page_size = config.page_size;
  options.buffer_bytes = config.buffer_bytes;
  options.node_capacity = config.node_capacity;
  options.model = config.model;
  options.delta_capacity = config.delta_capacity;
  options.auto_merge = config.auto_merge;
  engine->manager_ = std::make_unique<SegmentManager>(
      options, seed.diagonal(), engine->vocab(),
      engine->node_cache_.get(), engine->merge_pool_.get());
  WSK_RETURN_IF_ERROR(engine->manager_->SeedFrozen(seed.objects()));
  return engine;
}

SegmentedEngine::~SegmentedEngine() = default;

SegmentedEngine::QueryPlan SegmentedEngine::MakePlan(bool want_kcr) const {
  QueryPlan plan;
  plan.snapshot = manager_->GetSnapshot();
  const SegmentManager::SegmentView& view = *plan.snapshot.view;
  const uint64_t seq = plan.snapshot.seq;
  for (const auto& frozen : view.frozen) {
    const FrozenVisibility* vis = nullptr;
    // A tombstone applied after the check would carry a sequence above this
    // snapshot — invisible to the filter anyway — so skipping the filter
    // for shadow-free segments is exact, not just an optimization.
    if (frozen->shadow_total() > 0) {
      plan.visibility.push_back(
          std::make_unique<FrozenVisibility>(frozen.get(), seq));
      vis = plan.visibility.back().get();
    }
    plan.setr_segments.push_back(MergedSegment{&frozen->setr(), vis});
    if (want_kcr) {
      plan.kcr.segments.push_back(
          KcrSegmentSource{&frozen->kcr(), vis, frozen->shadow_total()});
    }
  }
  const auto collect = [&plan](const DeltaSegment::Entry& e) {
    plan.extras.push_back(&e.object);
  };
  for (const auto& sealed : view.sealed) sealed->ForEachVisible(seq, collect);
  view.active->ForEachVisible(seq, collect);
  if (want_kcr) {
    plan.kcr.extras = plan.extras;
    plan.kcr.diagonal = manager_->diagonal();
  }
  return plan;
}

StatusOr<std::vector<ScoredObject>> SegmentedEngine::TopK(
    const SpatialKeywordQuery& query, const CancelToken* cancel,
    TraceRecorder* trace) const {
  // Before any scoring: delta objects go through Score(), which aborts on
  // an alpha outside (0, 1).
  WSK_RETURN_IF_ERROR(ValidateTopKQuery(query));
  TraceSpan root_span(trace, TraceStage::kQuery);
  const QueryPlan plan = MakePlan(/*want_kcr=*/false);
  MergedTopKSource source(plan.setr_segments, plan.extras,
                          manager_->diagonal(), trace);
  return IndexTopK(source, query, cancel, /*use_cache=*/true, trace);
}

std::vector<BackendBatchResult> SegmentedEngine::TopKBatch(
    const std::vector<BackendBatchItem>& items, TraceRecorder* trace) const {
  TraceSpan root_span(trace, TraceStage::kQuery);
  // One snapshot for the whole batch: every item answers against the same
  // point-in-time view, exactly what solo execution at batch-formation time
  // would have seen.
  const QueryPlan plan = MakePlan(/*want_kcr=*/false);
  MergedTopKSource source(plan.setr_segments, plan.extras,
                          manager_->diagonal(), trace);
  std::vector<BatchTopKRequest> requests(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    requests[i].query = items[i].query;
    requests[i].cancel = items[i].cancel;
  }
  std::vector<BatchTopKResult> raw =
      BatchedIndexTopK(source, requests, /*use_cache=*/true, trace);
  std::vector<BackendBatchResult> results(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    results[i].status = std::move(raw[i].status);
    results[i].topk = std::move(raw[i].topk);
  }
  return results;
}

StatusOr<WhyNotResult> SegmentedEngine::Answer(
    WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
    const std::vector<ObjectId>& missing, const WhyNotOptions& options) const {
  if (options.cancel != nullptr) {
    WSK_RETURN_IF_ERROR(options.cancel->Check());
  }
  TraceSpan root_span(options.trace, TraceStage::kQuery);
  const bool kcr = algorithm == WhyNotAlgorithm::kKcrBased;
  QueryPlan plan = MakePlan(kcr);
  const SnapshotStore store(vocab(), plan.snapshot);
  const double diagonal = manager_->diagonal();
  const BackendIoSnapshot before = io_snapshot();

  StatusOr<WhyNotResult> result = Status::Internal("unreachable");
  switch (algorithm) {
    case WhyNotAlgorithm::kBasic: {
      WhyNotOptions plain = options;
      plain.opt_early_stop = false;
      plain.opt_enumeration_order = false;
      plain.opt_keyword_filtering = false;
      MergedTopKSource source(plan.setr_segments, plan.extras, diagonal,
                              options.trace);
      result = AnswerWhyNotBasic(store, source, diagonal, query, missing,
                                 plain);
      break;
    }
    case WhyNotAlgorithm::kAdvanced: {
      MergedTopKSource source(plan.setr_segments, plan.extras, diagonal,
                              options.trace);
      result = AnswerWhyNotBasic(store, source, diagonal, query, missing,
                                 options);
      break;
    }
    case WhyNotAlgorithm::kKcrBased: {
      // The rank source mirrors the traversal's segment set over the same
      // visibility filters, so R(M, q') and the dominator bounds agree on
      // what exists.
      std::vector<MergedSegment> kcr_segments;
      kcr_segments.reserve(plan.kcr.segments.size());
      for (const KcrSegmentSource& seg : plan.kcr.segments) {
        kcr_segments.push_back(MergedSegment{seg.tree, seg.visibility});
      }
      MergedTopKSource rank_source(std::move(kcr_segments), plan.extras,
                                   diagonal, options.trace);
      plan.kcr.rank_source = &rank_source;
      result = AnswerWhyNotKcr(store, plan.kcr, query, missing, options);
      break;
    }
  }
  if (result.ok()) {
    // Frozen segments serve node reads from the mmap path by default, so a
    // page access lands in either the physical or the mapped counter —
    // io_reads stays "pages fetched from the index file" in both modes.
    const BackendIoSnapshot after = io_snapshot();
    result.value().stats.io_reads =
        kcr ? (after.kcr_physical - before.kcr_physical) +
                  (after.kcr_mapped - before.kcr_mapped)
            : (after.setr_physical - before.setr_physical) +
                  (after.setr_mapped - before.setr_mapped);
  }
  return result;
}

StatusOr<uint32_t> SegmentedEngine::Rank(const SpatialKeywordQuery& query,
                                         ObjectId object) const {
  const QueryPlan plan = MakePlan(/*want_kcr=*/false);
  const SnapshotStore store(vocab(), plan.snapshot);
  const SpatialObject* o = store.FindObject(object);
  if (o == nullptr) {
    return Status::InvalidArgument("object id not visible in this snapshot");
  }
  const double score = Score(*o, query, manager_->diagonal());
  MergedTopKSource source(plan.setr_segments, plan.extras,
                          manager_->diagonal(), nullptr);
  TopKIterator it(&source, query);
  uint32_t strictly_better = 0;
  std::optional<ScoredObject> next;
  for (;;) {
    WSK_RETURN_IF_ERROR(it.Next(&next));
    if (!next || next->score <= score) break;
    ++strictly_better;
  }
  return strictly_better + 1;
}

BackendIoSnapshot SegmentedEngine::io_snapshot() const {
  return manager_->io_snapshot();
}

uint64_t SegmentedEngine::dataset_version() const {
  return manager_->current_seq();
}

SegmentCountersSnapshot SegmentedEngine::segment_counters() const {
  return manager_->counters();
}

StatusOr<ObjectId> SegmentedEngine::Insert(
    Point loc, const std::vector<std::string>& keywords) const {
  return manager_->Insert(loc, vocab()->InternAll(keywords));
}

StatusOr<ObjectId> SegmentedEngine::InsertWithId(
    ObjectId id, Point loc, const std::vector<std::string>& keywords) const {
  return manager_->Insert(loc, vocab()->InternAll(keywords), id);
}

Status SegmentedEngine::Update(
    ObjectId id, Point loc, const std::vector<std::string>& keywords) const {
  return manager_->Update(id, loc, vocab()->InternAll(keywords));
}

Status SegmentedEngine::Delete(ObjectId id) const {
  return manager_->Delete(id);
}

}  // namespace wsk
