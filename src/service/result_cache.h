// Shared LRU result cache for the query service.
//
// WISK-style workload skew (repeated queries from popular locations and
// keyword sets) is exactly what a service-level cache captures: the cache
// key is a *canonical fingerprint* of the request, so textually different
// but semantically identical requests share an entry:
//   - the location is quantized to a grid of kCacheLocationQuantum cells
//     (two queries within the same cell are served the same answer),
//   - keywords are the Vocabulary's dense term ids, which KeywordSet keeps
//     sorted and deduplicated — set semantics, order-independent,
//   - missing-object ids are sorted and deduplicated,
//   - alpha / lambda are quantized to 1e-9 so bit-identical parameters
//     never miss on formatting noise,
//   - the why-not algorithm and sample_size are part of the key (they can
//     change the answer); pure optimization switches (opt_*, num_threads,
//     kcr_single_batch) are NOT — the differential suite guarantees they
//     do not change results,
//   - the backend's topology fingerprint
//     (QueryBackend::topology_fingerprint(): shard count + tile layout;
//     constant 0 on unsharded backends) is part of every key, so entries
//     never survive a re-partitioning. Data *freshness* is handled by
//     validation instead of the key: each entry stores the backend's
//     version vector captured before the answer was computed, and Lookup
//     re-checks it through a caller-supplied validator
//     (QueryBackend::TopKCacheValid / WhyNotCacheValid). The default
//     validators require exact version equality — the pre-sharding
//     "any mutation invalidates" contract — while a sharded backend keeps
//     top-k entries alive when only provably irrelevant shards changed
//     (docs/SHARDING.md "Cache versioning").
//
// Entries are immutable and shared via shared_ptr, so a hit never copies
// the payload and eviction never invalidates a response already handed to
// a client. All operations are internally synchronized.
#ifndef WSK_SERVICE_RESULT_CACHE_H_
#define WSK_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/engine.h"
#include "core/whynot.h"
#include "data/query.h"

namespace wsk {

// The fingerprint grid's cell size, in the dataset's coordinate units:
// fine enough that only float noise, never a different place, shares a
// key.
inline constexpr double kCacheLocationQuantum = 1e-6;

// Canonical cache keys. The returned string is an opaque byte sequence;
// equal requests (in the sense above) produce equal strings. The version
// argument is whatever structural stamp the caller wants baked into the
// key — QueryService passes the backend's topology fingerprint.
std::string FingerprintTopK(const SpatialKeywordQuery& query,
                            uint64_t dataset_version = 0);
std::string FingerprintWhyNot(WhyNotAlgorithm algorithm,
                              const SpatialKeywordQuery& query,
                              const std::vector<ObjectId>& missing,
                              const WhyNotOptions& options,
                              uint64_t dataset_version = 0);

class ResultCache {
 public:
  // One cached answer; `is_whynot` selects which payload is meaningful.
  // `versions` is the backend version vector captured *before* the answer
  // was computed (conservative: a mutation racing the computation makes
  // the entry look staler than it is, never fresher).
  struct Entry {
    bool is_whynot = false;
    std::vector<ScoredObject> topk;
    WhyNotResult whynot;
    std::vector<uint64_t> versions;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t stale = 0;  // hits rejected by the validator (counted as misses)
  };

  // Freshness check applied on lookup; false evicts the entry and turns
  // the hit into a miss.
  using Validator = std::function<bool(const Entry&)>;

  // `capacity` is a number of entries; 0 disables the cache (Lookup always
  // misses, Insert is a no-op).
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // nullptr on miss; promotes the entry to most-recently-used on hit. A
  // non-null `validator` vets the entry first — stale entries are erased
  // and reported as misses.
  std::shared_ptr<const Entry> Lookup(const std::string& key,
                                      const Validator& validator = nullptr);

  // Inserts (or refreshes) the entry, evicting the coldest on overflow.
  void Insert(const std::string& key, std::shared_ptr<const Entry> entry);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  Stats stats() const;

 private:
  struct Slot {
    std::shared_ptr<const Entry> entry;
    std::list<std::string>::iterator lru_it;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = hottest
  std::unordered_map<std::string, Slot> map_;
  Stats stats_;
};

}  // namespace wsk

#endif  // WSK_SERVICE_RESULT_CACHE_H_
