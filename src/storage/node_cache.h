// Shared decoded-node cache (docs/STORAGE.md "Node cache").
//
// The trees are immutable after bulk load (the read-path contract the
// service layer documents), so a node decoded once can be shared by every
// concurrent query instead of being re-read from the BufferPool and
// re-materialized per visit. NodeCache is a sharded, byte-budgeted LRU
// keyed by (tree-id, PageId); values are type-erased `shared_ptr<const
// void>` so each index caches its own decoded representation (KcrTree /
// SetRTree decoded nodes) without the storage layer knowing their shapes.
// A hit hands out a shared_ptr copy, so an entry evicted mid-query stays
// alive until the last reader drops it.
//
// Thread safety: all methods are safe for concurrent callers; each shard
// serializes on its own mutex, and eviction never runs payload destructors
// under the shard lock.
//
// Immutability checking: Insert may register a fingerprint function. When
// verification is enabled (default in debug builds; tests can force it via
// set_verify_fingerprints), every Lookup recomputes the fingerprint and
// aborts if the cached payload changed since insertion — no cached node may
// ever be mutated.
#ifndef WSK_STORAGE_NODE_CACHE_H_
#define WSK_STORAGE_NODE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace wsk {

// FNV-1a accumulator used by fingerprint functions to digest the primary
// payload of a cached value. Cheap, order-sensitive, and good enough to
// catch accidental in-place mutation.
class FingerprintHasher {
 public:
  void Mix(const void* data, size_t size) {
    const uint8_t* bytes = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  void MixU64(uint64_t value) { Mix(&value, sizeof(value)); }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

class NodeCache {
 public:
  // Recomputes a digest of the cached payload; must be a pure function of
  // the value's logical contents.
  using Fingerprint = uint64_t (*)(const void*);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;       // capacity evictions only
    uint64_t bytes_inserted = 0;  // cumulative charge of all inserts
    size_t bytes_in_use = 0;      // current resident charge (gauge)
    size_t entries = 0;           // current resident entries (gauge)
    size_t capacity_bytes = 0;
  };

  // `capacity_bytes` is split statically across `num_shards` (same scheme
  // as BufferPool). A capacity of 0 disables insertion: every Lookup
  // misses and every Insert is rejected.
  explicit NodeCache(size_t capacity_bytes, size_t num_shards = 8);

  NodeCache(const NodeCache&) = delete;
  NodeCache& operator=(const NodeCache&) = delete;

  // Returns the cached value or nullptr, promoting the entry to MRU.
  std::shared_ptr<const void> Lookup(uint32_t tree_id, uint32_t key);

  template <typename T>
  std::shared_ptr<const T> LookupAs(uint32_t tree_id, uint32_t key) {
    return std::static_pointer_cast<const T>(Lookup(tree_id, key));
  }

  // Inserts `value` with the given byte charge, evicting LRU entries of
  // the same shard until the shard budget holds. Returns false (and caches
  // nothing) when the charge alone exceeds the shard budget, so one
  // oversized node cannot flush a whole shard. Re-inserting a resident key
  // keeps the existing entry (concurrent decoders race benignly: both
  // materialized identical payloads).
  bool Insert(uint32_t tree_id, uint32_t key,
              std::shared_ptr<const void> value, size_t charge,
              Fingerprint fingerprint = nullptr);

  // Drops one key / every key of one tree / everything. Outstanding
  // shared_ptrs held by readers stay valid.
  void Erase(uint32_t tree_id, uint32_t key);
  void EraseTree(uint32_t tree_id);
  void Clear();

  Stats GetStats() const;

  size_t capacity_bytes() const { return capacity_bytes_; }

  void set_verify_fingerprints(bool on) {
    verify_fingerprints_.store(on, std::memory_order_relaxed);
  }
  bool verify_fingerprints() const {
    return verify_fingerprints_.load(std::memory_order_relaxed);
  }

  // Process-wide unique id generator so every tree (and every posting-list
  // namespace) attached to a shared cache gets a disjoint key space.
  static uint32_t NextTreeId();

 private:
  struct Entry {
    uint64_t key = 0;
    std::shared_ptr<const void> value;
    size_t charge = 0;
    Fingerprint fingerprint = nullptr;
    uint64_t fingerprint_value = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<uint64_t, std::list<Entry>::iterator> index;
    size_t bytes = 0;
  };

  static uint64_t MakeKey(uint32_t tree_id, uint32_t key) {
    return (static_cast<uint64_t>(tree_id) << 32) | key;
  }
  Shard& ShardFor(uint64_t key) {
    // Mix tree id and page so consecutive pages of one tree spread out.
    uint64_t h = key * 0x9e3779b97f4a7c15ull;
    return *shards_[(h >> 32) % num_shards_];
  }

  const size_t capacity_bytes_;
  const size_t num_shards_;
  const size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> bytes_inserted_{0};
  std::atomic<bool> verify_fingerprints_;
};

}  // namespace wsk

#endif  // WSK_STORAGE_NODE_CACHE_H_
