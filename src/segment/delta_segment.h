// In-memory mutable segment (docs/SEGMENTS.md).
//
// The write head of a live dataset: a bounded, append-only array of
// versioned entries. Every mutation carries the manager-issued sequence
// number that created it; an entry is visible to a snapshot at sequence S
// iff it was added at or before S and not tombstoned at or before S:
//
//   add_seq <= S  &&  (del_seq == 0 || del_seq > S)
//
// Concurrency contract: all writes (Add, MarkDeleted) happen under the
// SegmentManager's writer mutex, one writer at a time. Readers never take
// that mutex — they acquire-load size() once and scan entries [0, size);
// entry payloads are fully written before the size is release-published,
// and tombstones are atomic stores readers may observe at any time (the
// visibility rule makes late observation harmless: a tombstone's sequence
// is always above the reader's snapshot). Sealed deltas simply stop
// receiving Add calls; tombstones keep landing until the segment is merged
// away.
//
// Entries are stored in a fixed preallocated array (atomics pin them in
// place), so `const SpatialObject*` pointers into a delta stay valid for
// the lifetime of the segment — snapshots hand such pointers to the query
// algorithms as exactly-scored extra objects.
#ifndef WSK_SEGMENT_DELTA_SEGMENT_H_
#define WSK_SEGMENT_DELTA_SEGMENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"

namespace wsk {

class DeltaSegment {
 public:
  struct Entry {
    SpatialObject object;
    uint64_t add_seq = 0;
    std::atomic<uint64_t> del_seq{0};  // 0 = live
  };

  explicit DeltaSegment(uint32_t capacity);

  DeltaSegment(const DeltaSegment&) = delete;
  DeltaSegment& operator=(const DeltaSegment&) = delete;

  uint32_t capacity() const { return capacity_; }
  bool full() const { return size_.load(std::memory_order_relaxed) >= capacity_; }

  // --- writer side (under the manager's writer mutex) ---

  // Appends a new version; the segment must not be full. Returns the entry
  // index. Publishes the entry with a release store of the size, so any
  // reader that observes the new size sees the payload complete.
  uint32_t Add(SpatialObject object, uint64_t add_seq);

  // Tombstones the entry at `index` as of `del_seq`.
  void MarkDeleted(uint32_t index, uint64_t del_seq);

  // Newest entry holding `id` that is visible at snapshot `seq` (writers
  // pass the sequence *preceding* their mutation to find the version they
  // are superseding). Returns the entry index or kNotFound.
  static constexpr uint32_t kNotFound = 0xffffffffu;
  uint32_t FindLatest(ObjectId id, uint64_t seq) const;

  // --- reader side (lock-free over the entry array) ---

  uint32_t size() const { return size_.load(std::memory_order_acquire); }
  const Entry& entry(uint32_t index) const { return entries_[index]; }

  // Newest version of `id` visible at snapshot `seq`, or nullptr. At most
  // one version per id is visible at any sequence (writers tombstone the
  // predecessor in the same mutation that adds a successor).
  const SpatialObject* FindVisible(ObjectId id, uint64_t seq) const;

  // Invokes fn(const Entry&) for every entry visible at `seq`, in insertion
  // order.
  template <typename Fn>
  void ForEachVisible(uint64_t seq, Fn&& fn) const {
    const uint32_t n = size();
    for (uint32_t i = 0; i < n; ++i) {
      const Entry& e = entries_[i];
      if (e.add_seq > seq) continue;
      const uint64_t del = e.del_seq.load(std::memory_order_relaxed);
      if (del != 0 && del <= seq) continue;
      fn(e);
    }
  }

 private:
  const uint32_t capacity_;
  std::unique_ptr<Entry[]> entries_;
  std::atomic<uint32_t> size_{0};

  // id -> indices of the entries holding it, in insertion order. Guarded
  // by its own mutex so FindLatest can consult it while a writer appends.
  mutable std::mutex map_mu_;
  std::unordered_map<ObjectId, std::vector<uint32_t>> by_id_;
};

}  // namespace wsk

#endif  // WSK_SEGMENT_DELTA_SEGMENT_H_
