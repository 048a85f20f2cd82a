#include "core/engine.h"

#include <atomic>
#include <cstdio>

#include <unistd.h>

#include "core/whynot_bs.h"
#include "core/whynot_kcr.h"
#include "index/batch_topk.h"
#include "index/topk.h"
#include "observability/trace.h"

namespace wsk {

namespace {

std::string UniqueIndexPath(const std::string& work_dir, const char* kind) {
  static std::atomic<uint64_t> counter{0};
  const uint64_t id = counter.fetch_add(1);
  return work_dir + "/wsk_" + std::to_string(getpid()) + "_" +
         std::to_string(id) + "_" + kind + ".idx";
}

}  // namespace

const char* WhyNotAlgorithmName(WhyNotAlgorithm algorithm) {
  switch (algorithm) {
    case WhyNotAlgorithm::kBasic:
      return "BS";
    case WhyNotAlgorithm::kAdvanced:
      return "AdvancedBS";
    case WhyNotAlgorithm::kKcrBased:
      return "KcRBased";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<WhyNotEngine>> WhyNotEngine::Build(
    const Dataset* dataset, const Config& config) {
  if (dataset == nullptr) {
    return Status::InvalidArgument("dataset is null");
  }
  std::unique_ptr<WhyNotEngine> engine(new WhyNotEngine());
  engine->dataset_ = dataset;
  engine->config_ = config;
  engine->setr_path_ = UniqueIndexPath(config.work_dir, "setr");
  engine->kcr_path_ = UniqueIndexPath(config.work_dir, "kcr");

  StatusOr<std::unique_ptr<Pager>> setr_pager =
      Pager::Create(engine->setr_path_, config.page_size);
  if (!setr_pager.ok()) return setr_pager.status();
  engine->setr_pager_ = std::move(setr_pager).value();
  engine->setr_pool_ = std::make_unique<BufferPool>(engine->setr_pager_.get(),
                                                    config.buffer_bytes);

  StatusOr<std::unique_ptr<Pager>> kcr_pager =
      Pager::Create(engine->kcr_path_, config.page_size);
  if (!kcr_pager.ok()) return kcr_pager.status();
  engine->kcr_pager_ = std::move(kcr_pager).value();
  engine->kcr_pool_ = std::make_unique<BufferPool>(engine->kcr_pager_.get(),
                                                   config.buffer_bytes);

  SetRTree::Options setr_options;
  setr_options.capacity = config.node_capacity;
  setr_options.model = config.model;
  setr_options.format = config.node_format;
  StatusOr<std::unique_ptr<SetRTree>> setr =
      SetRTree::BulkLoad(*dataset, engine->setr_pool_.get(), setr_options);
  if (!setr.ok()) return setr.status();
  engine->setr_tree_ = std::move(setr).value();

  KcrTree::Options kcr_options;
  kcr_options.capacity = config.node_capacity;
  kcr_options.model = config.model;
  kcr_options.format = config.node_format;
  StatusOr<std::unique_ptr<KcrTree>> kcr =
      KcrTree::BulkLoad(*dataset, engine->kcr_pool_.get(), kcr_options);
  if (!kcr.ok()) return kcr.status();
  engine->kcr_tree_ = std::move(kcr).value();

  if (config.mmap_reads) {
    // Indexes are finalized by bulk load; map them read-only. A non-OK
    // result just keeps the buffered pread path — same bytes, more copies.
    (void)engine->setr_pager_->EnableMappedReads();
    (void)engine->kcr_pager_->EnableMappedReads();
  }

  if (config.node_cache_bytes > 0) {
    engine->node_cache_ = std::make_unique<NodeCache>(config.node_cache_bytes);
    engine->setr_tree_->AttachNodeCache(engine->node_cache_.get());
    engine->kcr_tree_->AttachNodeCache(engine->node_cache_.get());
  }

  engine->ResetIoStats();
  return engine;
}

WhyNotEngine::~WhyNotEngine() {
  // Trees and pools must close before the backing files are removed.
  setr_tree_.reset();
  kcr_tree_.reset();
  setr_pool_.reset();
  kcr_pool_.reset();
  setr_pager_.reset();
  kcr_pager_.reset();
  if (!setr_path_.empty()) std::remove(setr_path_.c_str());
  if (!kcr_path_.empty()) std::remove(kcr_path_.c_str());
}

StatusOr<WhyNotResult> WhyNotEngine::Answer(
    WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
    const std::vector<ObjectId>& missing, const WhyNotOptions& options) const {
  QueryScope scope(this);
  if (options.cancel != nullptr) {
    WSK_RETURN_IF_ERROR(options.cancel->Check());
  }
  // Root span: encloses the whole invocation so every stage span nests
  // inside it (the coverage property the trace tests assert).
  TraceSpan root_span(options.trace, TraceStage::kQuery);
  const IoStats& io = algorithm == WhyNotAlgorithm::kKcrBased
                          ? kcr_pager_->io_stats()
                          : setr_pager_->io_stats();
  const uint64_t reads_before = io.physical_reads();

  StatusOr<WhyNotResult> result = Status::Internal("unreachable");
  switch (algorithm) {
    case WhyNotAlgorithm::kBasic: {
      WhyNotOptions plain = options;
      plain.opt_early_stop = false;
      plain.opt_enumeration_order = false;
      plain.opt_keyword_filtering = false;
      result = AnswerWhyNotBasic(*dataset_, *setr_tree_, query, missing,
                                 plain);
      break;
    }
    case WhyNotAlgorithm::kAdvanced:
      result = AnswerWhyNotBasic(*dataset_, *setr_tree_, query, missing,
                                 options);
      break;
    case WhyNotAlgorithm::kKcrBased:
      result = AnswerWhyNotKcr(*dataset_, *kcr_tree_, query, missing,
                               options);
      break;
  }
  if (result.ok()) {
    result.value().stats.io_reads = io.physical_reads() - reads_before;
  }
  return result;
}

StatusOr<std::vector<ScoredObject>> WhyNotEngine::TopK(
    const SpatialKeywordQuery& query, const CancelToken* cancel,
    TraceRecorder* trace) const {
  WSK_RETURN_IF_ERROR(ValidateTopKQuery(query));
  QueryScope scope(this);
  TraceSpan root_span(trace, TraceStage::kQuery);
  return IndexTopK(*setr_tree_, query, cancel, /*use_cache=*/true, trace);
}

std::vector<BackendBatchResult> WhyNotEngine::TopKBatch(
    const std::vector<BackendBatchItem>& items, TraceRecorder* trace) const {
  QueryScope scope(this);
  TraceSpan root_span(trace, TraceStage::kQuery);
  std::vector<BatchTopKRequest> requests(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    requests[i].query = items[i].query;
    requests[i].cancel = items[i].cancel;
  }
  std::vector<BatchTopKResult> raw =
      BatchedIndexTopK(*setr_tree_, requests, /*use_cache=*/true, trace);
  std::vector<BackendBatchResult> results(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    results[i].status = std::move(raw[i].status);
    results[i].topk = std::move(raw[i].topk);
  }
  return results;
}

StatusOr<uint32_t> WhyNotEngine::Rank(const SpatialKeywordQuery& query,
                                      ObjectId object) const {
  QueryScope scope(this);
  if (object >= dataset_->size()) {
    return Status::InvalidArgument("object id out of range");
  }
  const double score =
      Score(dataset_->object(object), query, setr_tree_->diagonal());
  TopKIterator it(setr_tree_.get(), query);
  uint32_t strictly_better = 0;
  std::optional<ScoredObject> next;
  for (;;) {
    WSK_RETURN_IF_ERROR(it.Next(&next));
    if (!next || next->score <= score) break;
    ++strictly_better;
  }
  return strictly_better + 1;
}

StatusOr<ObjectId> WhyNotEngine::ObjectAtPosition(
    const SpatialKeywordQuery& query, uint32_t position) const {
  QueryScope scope(this);
  if (position == 0) {
    return Status::InvalidArgument("positions are 1-based");
  }
  TopKIterator it(setr_tree_.get(), query);
  std::optional<ScoredObject> next;
  for (uint32_t i = 0; i < position; ++i) {
    WSK_RETURN_IF_ERROR(it.Next(&next));
    if (!next) {
      return Status::NotFound("dataset has fewer objects than the position");
    }
  }
  return next->id;
}

BackendIoSnapshot WhyNotEngine::io_snapshot() const {
  const IoStats& setr = setr_pager_->io_stats();
  const IoStats& kcr = kcr_pager_->io_stats();
  BackendIoSnapshot snap;
  snap.setr_physical = setr.physical_reads();
  snap.kcr_physical = kcr.physical_reads();
  snap.setr_logical = setr.logical_reads();
  snap.kcr_logical = kcr.logical_reads();
  snap.setr_mapped = setr.mapped_reads();
  snap.kcr_mapped = kcr.mapped_reads();
  snap.setr_cache_hits = setr.node_cache_hits();
  snap.kcr_cache_hits = kcr.node_cache_hits();
  snap.setr_cache_misses = setr.node_cache_misses();
  snap.kcr_cache_misses = kcr.node_cache_misses();
  return snap;
}

Status WhyNotEngine::DropCaches() const {
  WSK_CHECK_MSG(inflight_queries() == 0,
                "DropCaches requires exclusive access (%d queries in flight)",
                inflight_queries());
  if (node_cache_ != nullptr) node_cache_->Clear();
  WSK_RETURN_IF_ERROR(setr_pool_->InvalidateAll());
  return kcr_pool_->InvalidateAll();
}

void WhyNotEngine::ResetIoStats() const {
  WSK_CHECK_MSG(inflight_queries() == 0,
                "ResetIoStats requires exclusive access (%d queries in flight)",
                inflight_queries());
  setr_pager_->io_stats().Reset();
  kcr_pager_->io_stats().Reset();
}

}  // namespace wsk
