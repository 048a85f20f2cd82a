#include "segment/frozen_segment.h"

#include "common/macros.h"

namespace wsk {

StatusOr<std::shared_ptr<FrozenSegment>> FrozenSegment::Build(
    std::vector<SpatialObject> objects, double diagonal,
    const IndexPair::Options& options, NodeCache* node_cache,
    RetiredIoAccumulator* retired) {
  std::shared_ptr<FrozenSegment> segment(new FrozenSegment());
  segment->objects_ = std::move(objects);
  segment->retired_ = retired;

  const size_t n = segment->objects_.size();
  segment->index_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool inserted =
        segment->index_
            .emplace(segment->objects_[i].id, static_cast<uint32_t>(i))
            .second;
    WSK_CHECK_MSG(inserted, "duplicate object id in frozen segment");
  }
  // Value-initialized: every object starts live (tombstone sequence 0).
  segment->shadow_ = std::make_unique<std::atomic<uint64_t>[]>(n > 0 ? n : 1);

  StatusOr<std::unique_ptr<IndexPair>> index =
      IndexPair::Build(segment->objects_, diagonal, options, node_cache);
  if (!index.ok()) return index.status();
  segment->trees_ = std::move(index).value();
  return segment;
}

FrozenSegment::~FrozenSegment() {
  FoldIntoRetired();
  if (retired_ != nullptr) {
    retired_->segments_retired.fetch_add(1, std::memory_order_relaxed);
  }
}

const SpatialObject* FrozenSegment::Find(ObjectId id) const {
  auto it = index_.find(id);
  return it == index_.end() ? nullptr : &objects_[it->second];
}

bool FrozenSegment::VisibleAt(ObjectId id, uint64_t seq) const {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  const uint64_t del = shadow_[it->second].load(std::memory_order_relaxed);
  return del == 0 || del > seq;
}

bool FrozenSegment::Shadow(ObjectId id, uint64_t del_seq) {
  auto it = index_.find(id);
  if (it == index_.end()) return false;
  uint64_t expected = 0;
  if (!shadow_[it->second].compare_exchange_strong(
          expected, del_seq, std::memory_order_release,
          std::memory_order_relaxed)) {
    return false;  // already tombstoned (earlier sequence wins)
  }
  shadow_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FrozenSegment::FoldIntoRetired() {
  if (retired_ == nullptr || trees_ == nullptr) return;
  const BackendIoSnapshot now = trees_->io_snapshot();
  retired_->Add(now - folded_);
  folded_ = now;
}

}  // namespace wsk
