#include "service/result_cache.h"

#include <algorithm>
#include <cmath>

namespace wsk {

namespace {

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendI64(std::string* out, int64_t v) {
  AppendU64(out, static_cast<uint64_t>(v));
}

// Quantizes a real parameter so that equal-up-to-noise values collide.
int64_t Quantize(double v, double quantum) {
  return static_cast<int64_t>(std::llround(v / quantum));
}

void AppendQueryCore(std::string* out, const SpatialKeywordQuery& query) {
  AppendI64(out, Quantize(query.loc.x, kCacheLocationQuantum));
  AppendI64(out, Quantize(query.loc.y, kCacheLocationQuantum));
  AppendU64(out, query.k);
  AppendI64(out, Quantize(query.alpha, 1e-9));
  AppendU64(out, static_cast<uint64_t>(query.model));
  // KeywordSet is sorted and deduplicated by construction: canonical.
  AppendU64(out, query.doc.size());
  for (TermId t : query.doc) AppendU64(out, t);
}

}  // namespace

std::string FingerprintTopK(const SpatialKeywordQuery& query,
                            uint64_t dataset_version) {
  std::string key;
  key.push_back('T');
  AppendU64(&key, dataset_version);
  AppendQueryCore(&key, query);
  return key;
}

std::string FingerprintWhyNot(WhyNotAlgorithm algorithm,
                              const SpatialKeywordQuery& query,
                              const std::vector<ObjectId>& missing,
                              const WhyNotOptions& options,
                              uint64_t dataset_version) {
  std::string key;
  key.push_back('W');
  key.push_back(static_cast<char>(algorithm));
  AppendU64(&key, dataset_version);
  AppendQueryCore(&key, query);
  std::vector<ObjectId> sorted = missing;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  AppendU64(&key, sorted.size());
  for (ObjectId id : sorted) AppendU64(&key, id);
  AppendI64(&key, Quantize(options.lambda, 1e-9));
  AppendU64(&key, options.sample_size);
  return key;
}

std::shared_ptr<const ResultCache::Entry> ResultCache::Lookup(
    const std::string& key, const Validator& validator) {
  if (capacity_ == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (validator != nullptr && !validator(*it->second.entry)) {
    lru_.erase(it->second.lru_it);
    map_.erase(it);
    ++stats_.stale;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.entry;
}

void ResultCache::Insert(const std::string& key,
                         std::shared_ptr<const Entry> entry) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    // Refresh: concurrent misses on the same key both compute and insert.
    it->second.entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  map_[key] = Slot{std::move(entry), lru_.begin()};
  ++stats_.insertions;
  while (map_.size() > capacity_) {
    map_.erase(lru_.back());
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace wsk
