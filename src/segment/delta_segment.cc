#include "segment/delta_segment.h"

#include "common/macros.h"

namespace wsk {

DeltaSegment::DeltaSegment(uint32_t capacity)
    : capacity_(capacity), entries_(new Entry[capacity]) {
  WSK_CHECK_MSG(capacity > 0, "delta segment capacity must be positive");
}

uint32_t DeltaSegment::Add(SpatialObject object, uint64_t add_seq) {
  const uint32_t index = size_.load(std::memory_order_relaxed);
  WSK_CHECK_MSG(index < capacity_, "delta segment overflow");
  Entry& e = entries_[index];
  e.object = std::move(object);
  e.add_seq = add_seq;
  e.del_seq.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    by_id_[e.object.id].push_back(index);
  }
  size_.store(index + 1, std::memory_order_release);
  return index;
}

void DeltaSegment::MarkDeleted(uint32_t index, uint64_t del_seq) {
  WSK_CHECK(index < size());
  entries_[index].del_seq.store(del_seq, std::memory_order_release);
}

uint32_t DeltaSegment::FindLatest(ObjectId id, uint64_t seq) const {
  std::vector<uint32_t> indices;
  {
    std::lock_guard<std::mutex> lock(map_mu_);
    auto it = by_id_.find(id);
    if (it == by_id_.end()) return kNotFound;
    indices = it->second;
  }
  for (auto it = indices.rbegin(); it != indices.rend(); ++it) {
    const Entry& e = entries_[*it];
    if (e.add_seq > seq) continue;
    const uint64_t del = e.del_seq.load(std::memory_order_relaxed);
    if (del != 0 && del <= seq) continue;
    return *it;
  }
  return kNotFound;
}

const SpatialObject* DeltaSegment::FindVisible(ObjectId id,
                                               uint64_t seq) const {
  const uint32_t index = FindLatest(id, seq);
  return index == kNotFound ? nullptr : &entries_[index].object;
}

}  // namespace wsk
