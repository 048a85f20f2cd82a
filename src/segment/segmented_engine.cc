#include "segment/segmented_engine.h"

#include <utility>

#include "common/macros.h"

namespace wsk {

SnapshotStore::SnapshotStore(const Vocabulary* vocabulary,
                             SegmentManager::Snapshot snapshot,
                             size_t num_objects)
    : vocabulary_(vocabulary),
      snapshot_(std::move(snapshot)),
      num_objects_(num_objects) {}

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
  if (config.shared_vocabulary != nullptr) {
    engine->shared_vocab_ = config.shared_vocabulary;
  } else {
    engine->vocabulary_ = std::make_unique<Vocabulary>(seed.vocabulary());
  }
  if (config.node_cache_bytes > 0) {
    engine->node_cache_ = std::make_unique<NodeCache>(config.node_cache_bytes);
  }
  SegmentManager::Options options;
  options.index.work_dir = config.work_dir;
  options.index.page_size = config.page_size;
  options.index.buffer_bytes = config.buffer_bytes;
  options.index.node_capacity = config.node_capacity;
  options.index.model = config.model;
  options.delta_capacity = config.delta_capacity;
  options.auto_merge = config.auto_merge;
  engine->manager_ = std::make_unique<SegmentManager>(
      options, seed.diagonal(), engine->vocab(), engine->node_cache_.get());
  WSK_RETURN_IF_ERROR(engine->manager_->SeedFrozen(seed.objects()));
  return engine;
}

SegmentedEngine::~SegmentedEngine() = default;

WhyNotPlan SegmentedEngine::PlanWhyNot() const {
  const SegmentManager::Snapshot snapshot = manager_->GetSnapshot();
  const SegmentManager::SegmentView& view = *snapshot.view;
  const uint64_t seq = snapshot.seq;
  WhyNotPlan plan;
  plan.diagonal = manager_->diagonal();
  for (const auto& frozen : view.frozen) {
    const ObjectVisibility* vis = nullptr;
    // A tombstone applied after the check would carry a sequence above this
    // snapshot — invisible to the filter anyway — so skipping the filter
    // for shadow-free segments is exact, not just an optimization.
    if (frozen->shadow_total() > 0) {
      auto filter = std::make_shared<FrozenVisibility>(frozen.get(), seq);
      vis = filter.get();
      plan.keep_alive.push_back(std::move(filter));
    }
    plan.segments.push_back(
        PlanSegment{&frozen->trees(), vis, frozen->shadow_total()});
  }
  const auto collect = [&plan](const DeltaSegment::Entry& e) {
    plan.extras.push_back(&e.object);
  };
  for (const auto& sealed : view.sealed) sealed->ForEachVisible(seq, collect);
  view.active->ForEachVisible(seq, collect);
  // The live count is read after the snapshot, so it may include
  // mutations that race it; it only feeds the "more missing objects than
  // data objects" guard.
  auto store = std::make_shared<SnapshotStore>(vocab(), snapshot,
                                               manager_->live_objects());
  plan.store = store.get();
  plan.keep_alive.push_back(std::move(store));
  return plan;
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
