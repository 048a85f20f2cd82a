#include "shard/shard_coordinator.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "shard/shard_partition.h"

namespace wsk {

namespace {

// Cross-shard ObjectStore: id lookups fan out over the per-shard stores,
// the vocabulary is the coordinator's global one (corpus-wide document
// frequencies, identical to an unsharded engine's).
class ShardedStore : public ObjectStore {
 public:
  ShardedStore(const Vocabulary* vocabulary,
               std::vector<const ObjectStore*> stores)
      : vocabulary_(vocabulary), stores_(std::move(stores)) {
    for (const ObjectStore* store : stores_) count_ += store->num_objects();
  }

  const SpatialObject* FindObject(ObjectId id) const override {
    for (const ObjectStore* store : stores_) {
      if (const SpatialObject* o = store->FindObject(id)) return o;
    }
    return nullptr;
  }
  size_t num_objects() const override { return count_; }
  const Vocabulary& vocabulary() const override { return *vocabulary_; }

 private:
  const Vocabulary* vocabulary_;
  std::vector<const ObjectStore*> stores_;
  size_t count_ = 0;
};

// Theorem 1 shard pruning: once k results are gathered, a shard whose
// upper bound is strictly below the global kth score cannot contribute
// (ties cannot displace either: an equal-score object loses only on id,
// and id-tie objects are unique). With k = 0 nothing can contribute.
bool CutsShard(double bound, const std::vector<ScoredObject>& merged,
               uint32_t k) {
  return merged.size() >= k && (merged.empty() || bound < merged.back().score);
}

// Adds `found` to the running global top-k. ScoreGreater is a total order
// over unique ids, so the result does not depend on merge order.
void MergeInto(std::vector<ScoredObject>* merged,
               const std::vector<ScoredObject>& found, uint32_t k) {
  merged->insert(merged->end(), found.begin(), found.end());
  std::sort(merged->begin(), merged->end(), ScoreGreater{});
  if (merged->size() > k) merged->resize(k);
}

uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t FnvMixDouble(uint64_t hash, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return FnvMix(hash, bits);
}

}  // namespace

StatusOr<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Build(
    const Dataset& seed, const Config& config) {
  // The concatenated plan's merged walk takes one segment per shard.
  if (config.num_shards < 1 ||
      config.num_shards > MergedTopKSource::kMaxSegments) {
    return Status::InvalidArgument(
        "num_shards must lie in [1, " +
        std::to_string(MergedTopKSource::kMaxSegments) + "]");
  }
  std::unique_ptr<ShardCoordinator> c(new ShardCoordinator());
  c->config_ = config;
  c->diagonal_ = seed.diagonal();
  c->vocabulary_ = std::make_unique<Vocabulary>(seed.vocabulary());

  // The storage knobs both kinds of shard engine take from `config`.
  const auto storage = [&config](auto* ec) {
    ec->work_dir = config.work_dir;
    ec->page_size = config.page_size;
    ec->buffer_bytes = config.buffer_bytes;
    ec->node_capacity = config.node_capacity;
    ec->model = config.model;
    ec->node_cache_bytes = config.node_cache_bytes;
  };
  ShardPartition partition = PartitionDataset(seed, config.num_shards);
  ObjectId max_id = 0;
  uint64_t topology = 1469598103934665603ull;  // FNV-1a offset basis
  topology = FnvMix(topology, partition.tiles.size());
  for (size_t i = 0; i < partition.tiles.size(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->tile = std::move(partition.tiles[i]);
    for (const SpatialObject& o : shard->tile.objects()) {
      AbsorbObject(&shard->summary, o.loc, o.doc);
      c->owner_[o.id] = static_cast<uint32_t>(i);
      max_id = std::max(max_id, o.id + 1);
    }
    topology = FnvMix(topology, shard->tile.size());
    topology = FnvMixDouble(topology, shard->summary.mbr.min_x);
    topology = FnvMixDouble(topology, shard->summary.mbr.min_y);
    topology = FnvMixDouble(topology, shard->summary.mbr.max_x);
    topology = FnvMixDouble(topology, shard->summary.mbr.max_y);
    if (config.live) {
      SegmentedEngine::Config ec;
      storage(&ec);
      ec.delta_capacity = config.delta_capacity;
      ec.auto_merge = config.auto_merge;
      ec.shared_vocabulary = c->vocabulary_.get();
      StatusOr<std::unique_ptr<SegmentedEngine>> built =
          SegmentedEngine::Build(shard->tile, ec);
      if (!built.ok()) return built.status();
      shard->live = built.value().get();
      shard->backend = std::move(built).value();
      // The engine owns the seeded objects now; drop the tile copy.
      shard->tile = Dataset();
    } else {
      WhyNotEngine::Config ec;
      storage(&ec);
      StatusOr<std::unique_ptr<WhyNotEngine>> built =
          WhyNotEngine::Build(&shard->tile, ec);
      if (!built.ok()) return built.status();
      shard->backend = std::move(built).value();
    }
    c->shards_.push_back(std::move(shard));
  }
  c->next_insert_id_ = max_id;
  c->topology_ = topology;
  return c;
}

ShardCoordinator::~ShardCoordinator() = default;

double ShardCoordinator::ShardBound(size_t shard,
                                    const SpatialKeywordQuery& query) const {
  const Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.summary_mu);
  return ShardUpperBound(s.summary, query, diagonal_);
}

// Accumulates the enclosing scope's wall time into a relaxed busy-time
// counter on every exit path (wsk_bg_scatter_busy visibility).
class ScatterBusyScope {
 public:
  explicit ScatterBusyScope(std::atomic<uint64_t>* sink) : sink_(sink) {}
  ~ScatterBusyScope() {
    sink_->fetch_add(static_cast<uint64_t>(timer_.ElapsedMicros()),
                     std::memory_order_relaxed);
  }

 private:
  const Timer timer_;
  std::atomic<uint64_t>* const sink_;
};

std::vector<ShardCoordinator::RankedShard> ShardCoordinator::RankShards(
    const SpatialKeywordQuery& query) const {
  std::vector<RankedShard> order;
  order.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    order.push_back(RankedShard{ShardBound(i, query),
                                static_cast<uint32_t>(i)});
  }
  std::sort(order.begin(), order.end(),
            [](const RankedShard& a, const RankedShard& b) {
              if (a.bound != b.bound) return a.bound > b.bound;
              return a.shard < b.shard;
            });
  return order;
}

StatusOr<std::vector<ScoredObject>> ShardCoordinator::VisitShard(
    uint32_t shard_id, const SpatialKeywordQuery& query,
    const CancelToken* cancel, TraceRecorder* trace) const {
  const Shard& shard = *shards_[shard_id];
  shard.visited.fetch_add(1, std::memory_order_relaxed);
  if (trace != nullptr) {
    trace->Add(TraceCounter::kShardsVisited);
    trace->Annotate(TraceStage::kShardVisit,
                    "shard." + std::to_string(shard_id),
                    static_cast<int64_t>(shard_id));
  }
  TraceSpan visit_span(trace, TraceStage::kShardVisit);
  return shard.backend->TopK(query, cancel, trace);
}

Status ShardCoordinator::FanOut(const std::vector<RankedShard>& order,
                                size_t begin, size_t end,
                                const SpatialKeywordQuery& query,
                                const CancelToken* cancel,
                                TraceRecorder* trace,
                                std::vector<ScoredObject>* merged) const {
  // The caller visits shards itself and executor helpers join it, so a
  // request never waits for a free thread. An exception from a shard visit
  // comes back as Internal.
  const size_t n = end - begin;
  std::vector<std::vector<ScoredObject>> found(n);
  WSK_RETURN_IF_ERROR(ParallelFor(n, n - 1, [&](size_t i) -> Status {
    if (cancel != nullptr) WSK_RETURN_IF_ERROR(cancel->Check());
    StatusOr<std::vector<ScoredObject>> partial =
        VisitShard(order[begin + i].shard, query, cancel, trace);
    if (!partial.ok()) return partial.status();
    found[i] = std::move(partial).value();
    return Status::Ok();
  }));
  for (const std::vector<ScoredObject>& partial : found) {
    MergeInto(merged, partial, query.k);
  }
  return Status::Ok();
}

StatusOr<std::vector<ScoredObject>> ShardCoordinator::TopK(
    const SpatialKeywordQuery& query, const CancelToken* cancel,
    TraceRecorder* trace) const {
  // Before RankShards: a NaN alpha makes every shard bound NaN.
  WSK_RETURN_IF_ERROR(ValidateTopKQuery(query));
  TraceSpan root_span(trace, TraceStage::kQuery);
  const ScatterBusyScope busy(&scatter_busy_us_);
  queries_.fetch_add(1, std::memory_order_relaxed);
  const std::vector<RankedShard> order = RankShards(query);

  // Best-bound shard on the calling thread, then the Theorem 1 cut against
  // its kth score, then every unpruned shard concurrently.
  std::vector<ScoredObject> merged;
  size_t end = 0;
  if (!order.empty() && !CutsShard(order[0].bound, merged, query.k)) {
    if (cancel != nullptr) WSK_RETURN_IF_ERROR(cancel->Check());
    StatusOr<std::vector<ScoredObject>> first =
        VisitShard(order[0].shard, query, cancel, trace);
    if (!first.ok()) return first.status();
    MergeInto(&merged, first.value(), query.k);
    // Bounds are sorted descending, so the cut prunes a suffix.
    for (end = 1; end < order.size(); ++end) {
      if (CutsShard(order[end].bound, merged, query.k)) break;
    }
    if (end > 1) {
      WSK_RETURN_IF_ERROR(
          FanOut(order, 1, end, query, cancel, trace, &merged));
    }
  }
  for (size_t i = end; i < order.size(); ++i) {
    shards_[order[i].shard]->pruned.fetch_add(1, std::memory_order_relaxed);
    if (trace != nullptr) trace->Add(TraceCounter::kShardsPruned);
  }
  return merged;
}

WhyNotPlan ShardCoordinator::PlanWhyNot() const {
  // Every shard's sources side by side: one cross-shard merged traversal,
  // whatever kind of backend each shard runs. Each shard adds at most one
  // segment, so Build's shard cap keeps the walk within its capacity.
  WhyNotPlan plan;
  plan.diagonal = diagonal_;
  std::vector<const ObjectStore*> stores;
  stores.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    WhyNotPlan part = shard->backend->PlanWhyNot();
    stores.push_back(part.store);
    plan.segments.insert(plan.segments.end(), part.segments.begin(),
                         part.segments.end());
    plan.extras.insert(plan.extras.end(), part.extras.begin(),
                       part.extras.end());
    plan.keep_alive.insert(plan.keep_alive.end(),
                           std::make_move_iterator(part.keep_alive.begin()),
                           std::make_move_iterator(part.keep_alive.end()));
  }
  auto store =
      std::make_shared<ShardedStore>(vocabulary_.get(), std::move(stores));
  plan.store = store.get();
  plan.keep_alive.push_back(std::move(store));
  return plan;
}

BackendIoSnapshot ShardCoordinator::io_snapshot() const {
  BackendIoSnapshot total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->backend->io_snapshot();
  }
  return total;
}

uint64_t ShardCoordinator::dataset_version() const {
  uint64_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->backend->dataset_version();
  }
  return total;
}

std::vector<uint64_t> ShardCoordinator::version_vector() const {
  std::vector<uint64_t> versions;
  versions.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    versions.push_back(shard->backend->dataset_version());
  }
  return versions;
}

bool ShardCoordinator::TopKCacheValid(
    const std::vector<uint64_t>& versions, const SpatialKeywordQuery& query,
    const std::vector<ScoredObject>& results) const {
  const std::vector<uint64_t> current = version_vector();
  if (versions.size() != current.size()) return false;
  if (versions == current) return true;
  // A changed shard invalidates unless it provably cannot alter the cached
  // top-k: the result is full, the shard owns none of its objects (a
  // missing owner means a result object was deleted), and the shard's
  // current bound is strictly below the cached kth score.
  if (results.size() < query.k) return false;
  if (query.k == 0) return true;  // a top-0 answer never changes
  std::vector<int> result_owner;
  result_owner.reserve(results.size());
  {
    std::lock_guard<std::mutex> lock(owner_mu_);
    for (const ScoredObject& r : results) {
      auto it = owner_.find(r.id);
      result_owner.push_back(it == owner_.end() ? -1
                                                : static_cast<int>(it->second));
    }
  }
  const double kth = results.back().score;
  for (size_t i = 0; i < current.size(); ++i) {
    if (versions[i] == current[i]) continue;
    for (int owner : result_owner) {
      if (owner < 0 || static_cast<size_t>(owner) == i) return false;
    }
    if (!(ShardBound(i, query) < kth)) return false;
  }
  return true;
}

bool ShardCoordinator::WhyNotCacheValid(
    const std::vector<uint64_t>& versions) const {
  return versions == version_vector();
}

SegmentCountersSnapshot ShardCoordinator::segment_counters() const {
  SegmentCountersSnapshot total;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const SegmentCountersSnapshot s = shard->backend->segment_counters();
    total.valid = total.valid || s.valid;
    total.inserts += s.inserts;
    total.updates += s.updates;
    total.deletes += s.deletes;
    total.merges += s.merges;
    total.rotations += s.rotations;
    total.segments_retired += s.segments_retired;
    total.frozen_segments += s.frozen_segments;
    total.delta_objects += s.delta_objects;
    total.live_objects += s.live_objects;
    total.merge_busy_us += s.merge_busy_us;
    total.merge_last_us = std::max(total.merge_last_us, s.merge_last_us);
    total.tombstones_replayed += s.tombstones_replayed;
  }
  return total;
}

ShardCountersSnapshot ShardCoordinator::shard_counters() const {
  ShardCountersSnapshot snap;
  snap.valid = true;
  snap.num_shards = shards_.size();
  snap.queries = queries_.load(std::memory_order_relaxed);
  snap.scatter_busy_us = scatter_busy_us_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard : shards_) {
    const uint64_t visited = shard->visited.load(std::memory_order_relaxed);
    const uint64_t pruned = shard->pruned.load(std::memory_order_relaxed);
    snap.shards_visited += visited;
    snap.shards_pruned += pruned;
    snap.per_shard_visited.push_back(visited);
    snap.per_shard_pruned.push_back(pruned);
    snap.per_shard_mutations.push_back(
        shard->mutations.load(std::memory_order_relaxed));
    snap.per_shard_objects.push_back(
        shard->live != nullptr ? shard->live->manager()->live_objects()
                               : shard->tile.size());
  }
  return snap;
}

int ShardCoordinator::OwnerShard(ObjectId id) const {
  std::lock_guard<std::mutex> lock(owner_mu_);
  auto it = owner_.find(id);
  return it == owner_.end() ? -1 : static_cast<int>(it->second);
}

uint32_t ShardCoordinator::RouteInsert(Point loc) const {
  // Updates stretch the summary MBRs until they overlap, so MBR distance
  // ties often; a tie goes to the smaller shard, keeping the tiles
  // balanced, and then to the lower index.
  uint32_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  size_t best_size = std::numeric_limits<size_t>::max();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = *shards_[i];
    double dist;
    {
      std::lock_guard<std::mutex> lock(shard.summary_mu);
      dist = shard.summary.has_objects
                 ? MinDist(loc, shard.summary.mbr)
                 : std::numeric_limits<double>::infinity();
    }
    const size_t size = shard.live->manager()->live_objects();
    if (dist < best_dist || (dist == best_dist && size < best_size)) {
      best_dist = dist;
      best_size = size;
      best = static_cast<uint32_t>(i);
    }
  }
  return best;
}

void ShardCoordinator::AbsorbMutation(Shard* shard, Point loc,
                                      const KeywordSet& doc) const {
  std::lock_guard<std::mutex> lock(shard->summary_mu);
  AbsorbObject(&shard->summary, loc, doc);
}

StatusOr<ObjectId> ShardCoordinator::Insert(
    Point loc, const std::vector<std::string>& keywords) const {
  if (!config_.live) {
    return Status::FailedPrecondition("backend is read-only");
  }
  std::lock_guard<std::mutex> lock(mutation_mu_);
  const uint32_t target = RouteInsert(loc);
  Shard& shard = *shards_[target];
  const ObjectId id = next_insert_id_;
  StatusOr<ObjectId> inserted = shard.live->InsertWithId(id, loc, keywords);
  if (!inserted.ok()) return inserted;
  ++next_insert_id_;
  {
    std::lock_guard<std::mutex> owners(owner_mu_);
    owner_[id] = target;
  }
  AbsorbMutation(&shard, loc, vocabulary_->InternAll(keywords));
  shard.mutations.fetch_add(1, std::memory_order_relaxed);
  return inserted;
}

Status ShardCoordinator::Update(ObjectId id, Point loc,
                                const std::vector<std::string>& keywords) const {
  if (!config_.live) {
    return Status::FailedPrecondition("backend is read-only");
  }
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t target;
  {
    std::lock_guard<std::mutex> owners(owner_mu_);
    auto it = owner_.find(id);
    if (it == owner_.end()) {
      return Status::NotFound("no live object with this id");
    }
    target = it->second;
  }
  Shard& shard = *shards_[target];
  WSK_RETURN_IF_ERROR(shard.live->Update(id, loc, keywords));
  AbsorbMutation(&shard, loc, vocabulary_->InternAll(keywords));
  shard.mutations.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status ShardCoordinator::Delete(ObjectId id) const {
  if (!config_.live) {
    return Status::FailedPrecondition("backend is read-only");
  }
  std::lock_guard<std::mutex> lock(mutation_mu_);
  uint32_t target;
  {
    std::lock_guard<std::mutex> owners(owner_mu_);
    auto it = owner_.find(id);
    if (it == owner_.end()) {
      return Status::NotFound("no live object with this id");
    }
    target = it->second;
  }
  Shard& shard = *shards_[target];
  WSK_RETURN_IF_ERROR(shard.live->Delete(id));
  {
    std::lock_guard<std::mutex> owners(owner_mu_);
    owner_.erase(id);
  }
  shard.mutations.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

Status ShardCoordinator::ForceMerge() const {
  if (!config_.live) {
    return Status::FailedPrecondition("backend is read-only");
  }
  for (const std::unique_ptr<Shard>& shard : shards_) {
    WSK_RETURN_IF_ERROR(shard->live->ForceMerge());
  }
  return Status::Ok();
}

}  // namespace wsk
