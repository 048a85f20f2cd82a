#include "core/engine.h"

#include <optional>

#include "index/topk.h"

namespace wsk {

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
  if (config.node_cache_bytes > 0) {
    engine->node_cache_ = std::make_unique<NodeCache>(config.node_cache_bytes);
  }
  IndexPair::Options options;
  options.work_dir = config.work_dir;
  options.page_size = config.page_size;
  options.buffer_bytes = config.buffer_bytes;
  options.node_capacity = config.node_capacity;
  options.model = config.model;
  options.node_format = config.node_format;
  options.mmap_reads = config.mmap_reads;
  StatusOr<std::unique_ptr<IndexPair>> index =
      IndexPair::Build(dataset->objects(), dataset->diagonal(), options,
                       engine->node_cache_.get());
  if (!index.ok()) return index.status();
  engine->index_ = std::move(index).value();
  engine->ResetIoStats();
  return engine;
}

WhyNotPlan WhyNotEngine::PlanWhyNot() const {
  WhyNotPlan plan;
  plan.store = dataset_;
  plan.segments.push_back(PlanSegment{index_.get(), nullptr, 0});
  plan.diagonal = index_->setr().diagonal();
  plan.keep_alive.push_back(std::make_shared<QueryScope>(this));
  return plan;
}

StatusOr<ObjectId> WhyNotEngine::ObjectAtPosition(
    const SpatialKeywordQuery& query, uint32_t position) const {
  QueryScope scope(this);
  if (position == 0) {
    return Status::InvalidArgument("positions are 1-based");
  }
  TopKIterator it(&index_->setr(), query);
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
  return index_->io_snapshot();
}

Status WhyNotEngine::DropCaches() const {
  WSK_CHECK_MSG(inflight_queries() == 0,
                "DropCaches requires exclusive access (%d queries in flight)",
                inflight_queries());
  if (node_cache_ != nullptr) node_cache_->Clear();
  return index_->InvalidatePools();
}

void WhyNotEngine::ResetIoStats() const {
  WSK_CHECK_MSG(inflight_queries() == 0,
                "ResetIoStats requires exclusive access (%d queries in flight)",
                inflight_queries());
  index_->ResetIoStats();
}

}  // namespace wsk
