// I/O accounting. The paper evaluates every algorithm by "number of I/Os";
// here that is the number of physical page reads issued by the pager, i.e.
// buffer-pool misses, under the experiment's buffer configuration (4 MiB by
// default, as in Section VII-A1).
#ifndef WSK_STORAGE_IO_STATS_H_
#define WSK_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>

namespace wsk {

// Thread-safe counters. Snapshot() gives a consistent-enough view for
// experiment reporting (counters are monotone between Reset() calls).
//
// These counters sit on the query hot path (one logical read per page
// fetch) and are shared by every query running against an engine, so they
// are atomics with relaxed ordering: each increment is an independent
// event count that synchronizes nothing — sequential consistency here
// would buy no correctness and cost a fence per page access. Reset() must
// not race with in-flight queries (see WhyNotEngine's thread-safety
// contract); the relaxed stores keep even a misuse data-race-free.
class IoStats {
 public:
  struct Snapshot {
    uint64_t physical_reads = 0;
    uint64_t physical_writes = 0;
    uint64_t logical_reads = 0;
    uint64_t node_cache_hits = 0;
    uint64_t node_cache_misses = 0;
    uint64_t mapped_reads = 0;
  };

  void RecordPhysicalRead() {
    physical_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordPhysicalWrite() {
    physical_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordLogicalRead() {
    logical_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  // Decoded-node cache accesses. A hit serves the node without touching
  // the buffer pool, so it records neither a logical nor a physical read —
  // the cache is accounted separately, never double-counted as page I/O.
  void RecordNodeCacheHit() {
    node_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordNodeCacheMiss() {
    node_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }
  // Page spans served from a read-only memory mapping (Pager::MappedSpan),
  // counted per page spanned. Mapped reads hit the OS page cache directly —
  // they are neither buffer-pool logical reads nor physical reads, so they
  // get their own counter and never inflate the paper's I/O metric.
  void RecordMappedRead(uint64_t pages) {
    mapped_reads_.fetch_add(pages, std::memory_order_relaxed);
  }

  uint64_t physical_reads() const {
    return physical_reads_.load(std::memory_order_relaxed);
  }
  uint64_t physical_writes() const {
    return physical_writes_.load(std::memory_order_relaxed);
  }
  uint64_t logical_reads() const {
    return logical_reads_.load(std::memory_order_relaxed);
  }
  uint64_t node_cache_hits() const {
    return node_cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t node_cache_misses() const {
    return node_cache_misses_.load(std::memory_order_relaxed);
  }
  uint64_t mapped_reads() const {
    return mapped_reads_.load(std::memory_order_relaxed);
  }

  Snapshot TakeSnapshot() const {
    return Snapshot{physical_reads(),  physical_writes(),
                    logical_reads(),   node_cache_hits(),
                    node_cache_misses(), mapped_reads()};
  }

  void Reset() {
    physical_reads_.store(0, std::memory_order_relaxed);
    physical_writes_.store(0, std::memory_order_relaxed);
    logical_reads_.store(0, std::memory_order_relaxed);
    node_cache_hits_.store(0, std::memory_order_relaxed);
    node_cache_misses_.store(0, std::memory_order_relaxed);
    mapped_reads_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> physical_reads_{0};
  std::atomic<uint64_t> physical_writes_{0};
  std::atomic<uint64_t> logical_reads_{0};
  std::atomic<uint64_t> node_cache_hits_{0};
  std::atomic<uint64_t> node_cache_misses_{0};
  std::atomic<uint64_t> mapped_reads_{0};
};

// Point-in-time view of a backend's cumulative I/O counters, split by
// index family. Monotonic across the backend's lifetime — a segmented
// backend folds retired segments' totals into these numbers so counters
// never run backwards across a merge.
struct BackendIoSnapshot {
  BackendIoSnapshot() = default;
  // The counters of one SetR-tree file and one KcR-tree file.
  BackendIoSnapshot(const IoStats& setr, const IoStats& kcr)
      : setr_physical(setr.physical_reads()),
        kcr_physical(kcr.physical_reads()),
        setr_logical(setr.logical_reads()),
        kcr_logical(kcr.logical_reads()),
        setr_mapped(setr.mapped_reads()),
        kcr_mapped(kcr.mapped_reads()),
        setr_cache_hits(setr.node_cache_hits()),
        kcr_cache_hits(kcr.node_cache_hits()),
        setr_cache_misses(setr.node_cache_misses()),
        kcr_cache_misses(kcr.node_cache_misses()) {}

  BackendIoSnapshot& operator+=(const BackendIoSnapshot& other);

  // Pages of one tree family fetched from its index files, through the
  // buffer pool or the mapping — a why-not answer's io_reads.
  uint64_t page_reads(bool kcr) const {
    return kcr ? kcr_physical + kcr_mapped : setr_physical + setr_mapped;
  }

  uint64_t setr_physical = 0;
  uint64_t kcr_physical = 0;
  uint64_t setr_logical = 0;
  uint64_t kcr_logical = 0;
  // Pages served from the mmap zero-copy path. Counted apart from physical
  // reads so the paper's buffered-I/O metric keeps its meaning when
  // mapping is on.
  uint64_t setr_mapped = 0;
  uint64_t kcr_mapped = 0;
  uint64_t setr_cache_hits = 0;
  uint64_t kcr_cache_hits = 0;
  uint64_t setr_cache_misses = 0;
  uint64_t kcr_cache_misses = 0;
};

// Every counter of BackendIoSnapshot, for the field-wise arithmetic.
inline constexpr uint64_t BackendIoSnapshot::*kBackendIoFields[] = {
    &BackendIoSnapshot::setr_physical,   &BackendIoSnapshot::kcr_physical,
    &BackendIoSnapshot::setr_logical,    &BackendIoSnapshot::kcr_logical,
    &BackendIoSnapshot::setr_mapped,     &BackendIoSnapshot::kcr_mapped,
    &BackendIoSnapshot::setr_cache_hits, &BackendIoSnapshot::kcr_cache_hits,
    &BackendIoSnapshot::setr_cache_misses,
    &BackendIoSnapshot::kcr_cache_misses,
};

inline BackendIoSnapshot& BackendIoSnapshot::operator+=(
    const BackendIoSnapshot& other) {
  for (uint64_t BackendIoSnapshot::*field : kBackendIoFields) {
    this->*field += other.*field;
  }
  return *this;
}

inline BackendIoSnapshot operator-(BackendIoSnapshot a,
                                   const BackendIoSnapshot& b) {
  for (uint64_t BackendIoSnapshot::*field : kBackendIoFields) {
    a.*field -= b.*field;
  }
  return a;
}

}  // namespace wsk

#endif  // WSK_STORAGE_IO_STATS_H_
