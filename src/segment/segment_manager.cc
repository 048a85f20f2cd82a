#include "segment/segment_manager.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "common/timer.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace wsk {

SegmentManager::SegmentManager(const Options& options, double diagonal,
                               Vocabulary* vocabulary, NodeCache* node_cache)
    : options_(options),
      diagonal_(diagonal),
      vocabulary_(vocabulary),
      node_cache_(node_cache) {
  WSK_CHECK(vocabulary_ != nullptr);
  WSK_CHECK(diagonal_ > 0.0);
  auto view = std::make_shared<SegmentView>();
  view->active = std::make_shared<DeltaSegment>(options_.delta_capacity);
  current_ = std::move(view);
}

SegmentManager::~SegmentManager() {
  std::unique_lock<std::mutex> lock(writer_mu_);
  shutdown_ = true;  // suppresses pending-merge rescheduling
  merge_cv_.wait(lock, [this] { return !merge_running_; });
}

Status SegmentManager::SeedFrozen(std::vector<SpatialObject> objects) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  WSK_CHECK_MSG(next_seq_ == 0 && current_->frozen.empty() &&
                    current_->sealed.empty() && current_->active->size() == 0,
                "SeedFrozen must run on a pristine manager");
  ObjectId max_id = 0;
  for (const SpatialObject& o : objects) max_id = std::max(max_id, o.id + 1);
  const size_t count = objects.size();
  auto next = std::make_shared<SegmentView>();
  if (!objects.empty()) {
    StatusOr<std::shared_ptr<FrozenSegment>> built = FrozenSegment::Build(
        std::move(objects), diagonal_, options_.index, node_cache_, &retired_);
    if (!built.ok()) return built.status();
    next->frozen.push_back(std::move(built).value());
  }
  next->active = current_->active;
  PublishViewLocked(std::move(next));
  next_id_ = max_id;
  live_count_.store(count, std::memory_order_relaxed);
  return Status::Ok();
}

SegmentManager::Snapshot SegmentManager::GetSnapshot() const {
  Snapshot snap;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    snap.view = current_;
  }
  snap.seq = snap.view->seq.load(std::memory_order_acquire);
  return snap;
}

uint64_t SegmentManager::current_seq() const { return GetSnapshot().seq; }

StatusOr<ObjectId> SegmentManager::Insert(Point loc, KeywordSet doc,
                                          ObjectId forced_id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  ObjectId id;
  if (forced_id != kInvalidObjectId) {
    if (LocateCurrentLocked(forced_id, next_seq_).object != nullptr) {
      return Status::InvalidArgument("forced insert id is already live");
    }
    id = forced_id;
    next_id_ = std::max(next_id_, forced_id + 1);
  } else {
    id = next_id_++;
  }
  const uint64_t seq = next_seq_ + 1;
  EnsureActiveSpaceLocked();
  vocabulary_->RecordDocument(doc);
  current_->active->Add(SpatialObject{id, loc, std::move(doc)}, seq);
  next_seq_ = seq;
  current_->seq.store(seq, std::memory_order_release);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  MaybeScheduleMergeLocked();
  return id;
}

Status SegmentManager::Update(ObjectId id, Point loc, KeywordSet doc) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const Located cur = LocateCurrentLocked(id, next_seq_);
  if (cur.object == nullptr) {
    return Status::NotFound("no live object with this id");
  }
  const uint64_t seq = next_seq_ + 1;
  EnsureActiveSpaceLocked();
  vocabulary_->UnrecordDocument(cur.object->doc);
  vocabulary_->RecordDocument(doc);
  if (cur.delta != nullptr) {
    cur.delta->MarkDeleted(cur.delta_index, seq);
  } else {
    WSK_CHECK(cur.frozen->Shadow(id, seq));
  }
  current_->active->Add(SpatialObject{id, loc, std::move(doc)}, seq);
  next_seq_ = seq;
  current_->seq.store(seq, std::memory_order_release);
  updates_.fetch_add(1, std::memory_order_relaxed);
  MaybeScheduleMergeLocked();
  return Status::Ok();
}

Status SegmentManager::Delete(ObjectId id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const Located cur = LocateCurrentLocked(id, next_seq_);
  if (cur.object == nullptr) {
    return Status::NotFound("no live object with this id");
  }
  const uint64_t seq = next_seq_ + 1;
  vocabulary_->UnrecordDocument(cur.object->doc);
  if (cur.delta != nullptr) {
    cur.delta->MarkDeleted(cur.delta_index, seq);
  } else {
    WSK_CHECK(cur.frozen->Shadow(id, seq));
  }
  next_seq_ = seq;
  current_->seq.store(seq, std::memory_order_release);
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  deletes_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

SegmentManager::Located SegmentManager::LocateCurrentLocked(
    ObjectId id, uint64_t at_seq) const {
  Located found;
  // Newest first: active, sealed (newest to oldest), frozen (newest to
  // oldest). At most one version is visible, so the first hit is it.
  const uint32_t index = current_->active->FindLatest(id, at_seq);
  if (index != DeltaSegment::kNotFound) {
    found.delta = current_->active;
    found.delta_index = index;
    found.object = &current_->active->entry(index).object;
    return found;
  }
  for (auto it = current_->sealed.rbegin(); it != current_->sealed.rend();
       ++it) {
    const uint32_t i = (*it)->FindLatest(id, at_seq);
    if (i != DeltaSegment::kNotFound) {
      found.delta = *it;
      found.delta_index = i;
      found.object = &(*it)->entry(i).object;
      return found;
    }
  }
  for (auto it = current_->frozen.rbegin(); it != current_->frozen.rend();
       ++it) {
    if ((*it)->VisibleAt(id, at_seq)) {
      found.frozen = *it;
      found.object = (*it)->Find(id);
      return found;
    }
  }
  return found;
}

void SegmentManager::RotateLocked() {
  auto next = std::make_shared<SegmentView>();
  next->frozen = current_->frozen;
  next->sealed = current_->sealed;
  next->sealed.push_back(current_->active);
  next->active = std::make_shared<DeltaSegment>(options_.delta_capacity);
  PublishViewLocked(std::move(next));
  rotations_.fetch_add(1, std::memory_order_relaxed);
}

void SegmentManager::EnsureActiveSpaceLocked() {
  if (current_->active->full()) RotateLocked();
}

void SegmentManager::PublishViewLocked(std::shared_ptr<SegmentView> next) {
  next->seq.store(next_seq_, std::memory_order_release);
  std::lock_guard<std::mutex> lock(view_mu_);
  current_ = std::move(next);
}

void SegmentManager::MaybeScheduleMergeLocked() {
  if (!options_.auto_merge || shutdown_) return;
  if (current_->sealed.empty()) return;
  if (merge_running_) {
    // The running merge already folds the deltas it took: queue another
    // pass for a newly sealed one, not for every write that lands in the
    // active delta meanwhile.
    if (current_->sealed.size() > merge_sealed_inputs_) merge_pending_ = true;
    return;
  }
  merge_running_ = true;
  merge_sealed_inputs_ = SIZE_MAX;
  SharedExecutor().Submit([this] { RunMerge(); });
}

Status SegmentManager::ForceMerge() {
  std::unique_lock<std::mutex> lock(writer_mu_);
  const bool dirty =
      current_->frozen.size() > 1 || !current_->sealed.empty() ||
      current_->active->size() > 0 ||
      (!current_->frozen.empty() && current_->frozen[0]->shadow_total() > 0);
  if (merge_running_) {
    // Join the running merge, then run one more pass covering this call
    // point (the running merge's watermark may predate it).
    merge_pending_ = true;
  } else if (dirty) {
    merge_running_ = true;
    merge_sealed_inputs_ = SIZE_MAX;
    SharedExecutor().Submit([this] { RunMerge(); });
  } else {
    return Status::Ok();
  }
  merge_cv_.wait(lock, [this] { return !merge_running_ && !merge_pending_; });
  return Status::Ok();
}

void SegmentManager::RunMerge() {
  // One pass = rotate + build + swap; the busy-time counters make merge
  // stalls attributable from the service's wsk_bg_* metrics.
  const Timer merge_timer;
  const auto account_pass = [&] {
    const uint64_t us = static_cast<uint64_t>(merge_timer.ElapsedMicros());
    merge_busy_us_.fetch_add(us, std::memory_order_relaxed);
    merge_last_us_.store(us, std::memory_order_relaxed);
  };
  std::vector<std::shared_ptr<FrozenSegment>> in_frozen;
  std::vector<std::shared_ptr<DeltaSegment>> in_sealed;
  uint64_t watermark = 0;
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    WSK_CHECK(merge_running_);
    // Seal the write head so every input stops receiving additions;
    // tombstones keep landing on the inputs and are replayed at the swap.
    if (current_->active->size() > 0) RotateLocked();
    watermark = next_seq_;
    in_frozen = current_->frozen;
    in_sealed = current_->sealed;
    merge_sealed_inputs_ = in_sealed.size();
    hook = before_swap_hook_;
  }

  // Build phase (unlocked): the merged object table = everything visible at
  // the watermark, in id order so a from-scratch rebuild of the same
  // logical set packs bit-identical trees.
  std::vector<SpatialObject> objects;
  for (const auto& frozen : in_frozen) {
    const std::vector<SpatialObject>& table = frozen->objects();
    for (uint32_t i = 0; i < table.size(); ++i) {
      const uint64_t del = frozen->shadow_seq(i);
      if (del == 0 || del > watermark) objects.push_back(table[i]);
    }
  }
  for (const auto& sealed : in_sealed) {
    sealed->ForEachVisible(watermark, [&objects](const DeltaSegment::Entry& e) {
      objects.push_back(e.object);
    });
  }
  std::sort(objects.begin(), objects.end(),
            [](const SpatialObject& a, const SpatialObject& b) {
              return a.id < b.id;
            });

  std::shared_ptr<FrozenSegment> merged;
  if (!objects.empty()) {
    StatusOr<std::shared_ptr<FrozenSegment>> built = FrozenSegment::Build(
        std::move(objects), diagonal_, options_.index, node_cache_, &retired_);
    if (!built.ok()) {
      // Failed merges leave the published view untouched; the inputs stay
      // live and a later merge retries.
      std::lock_guard<std::mutex> lock(writer_mu_);
      account_pass();
      merge_running_ = false;
      merge_pending_ = false;
      merge_cv_.notify_all();
      return;
    }
    merged = std::move(built).value();
  }

  if (hook) hook();  // mid-merge window for tests

  bool reschedule = false;
  {
    std::lock_guard<std::mutex> lock(writer_mu_);
    WSK_CHECK_MSG(current_->frozen.size() == in_frozen.size(),
                  "frozen set changed under a running merge");
    // Replay tombstones that landed on the inputs after the watermark. Any
    // such object was visible at the watermark (its predecessor versions
    // were already dead), so it is present in the merged table.
    if (merged != nullptr) {
      uint64_t replayed = 0;
      for (const auto& frozen : in_frozen) {
        const std::vector<SpatialObject>& table = frozen->objects();
        for (uint32_t i = 0; i < table.size(); ++i) {
          const uint64_t del = frozen->shadow_seq(i);
          if (del > watermark) {
            WSK_CHECK(merged->Shadow(table[i].id, del));
            ++replayed;
          }
        }
      }
      for (const auto& sealed : in_sealed) {
        const uint32_t n = sealed->size();
        for (uint32_t i = 0; i < n; ++i) {
          const DeltaSegment::Entry& e = sealed->entry(i);
          const uint64_t del = e.del_seq.load(std::memory_order_relaxed);
          if (del > watermark) {
            WSK_CHECK(e.add_seq <= watermark);
            WSK_CHECK(merged->Shadow(e.object.id, del));
            ++replayed;
          }
        }
      }
      tombstones_replayed_.fetch_add(replayed, std::memory_order_relaxed);
    }
    auto next = std::make_shared<SegmentView>();
    if (merged != nullptr) next->frozen.push_back(std::move(merged));
    // Deltas sealed after the merge started survive the swap.
    next->sealed.assign(current_->sealed.begin() + in_sealed.size(),
                        current_->sealed.end());
    next->active = current_->active;
    next->seq.store(next_seq_, std::memory_order_release);
    {
      // Fold the inputs' I/O and swap the view in one view_mu_ critical
      // section: io_snapshot() reads under the same mutex, so it sees
      // either (old view, unfolded) or (new view, folded) — the aggregate
      // counters neither dip nor double-count across the swap. Destructors
      // later fold only post-swap growth, which is monotone.
      std::lock_guard<std::mutex> view_lock(view_mu_);
      for (const auto& frozen : in_frozen) frozen->FoldIntoRetired();
      current_ = std::move(next);
    }
    merges_.fetch_add(1, std::memory_order_relaxed);
    account_pass();
    // Drop the merge's own input references before signaling completion:
    // with no snapshots outstanding, ForceMerge callers then observe the
    // inputs fully retired (node-cache entries erased, I/O folded), not
    // lingering on this worker's stack.
    in_frozen.clear();
    in_sealed.clear();
    merge_pending_ = merge_pending_ && !shutdown_;
    reschedule = merge_pending_;
    merge_pending_ = false;
    if (reschedule) {
      merge_sealed_inputs_ = SIZE_MAX;
      SharedExecutor().Submit([this] { RunMerge(); });
    } else {
      merge_running_ = false;
    }
    merge_cv_.notify_all();
  }
#if defined(__GLIBC__)
  // Every manager's merges share the executor's workers, so one worker's
  // malloc arena interleaves several segments' builds, and the pages the
  // builds freed stay resident between them (perfbench live-sharded on a
  // 4-vCPU VM: 173-212 MB peak RSS against 130-146 MB with one merge thread
  // per manager, at equal bytes in use). Hand free pages back.
  malloc_trim(0);
#endif
}

SegmentCountersSnapshot SegmentManager::counters() const {
  SegmentCountersSnapshot snap;
  snap.valid = true;
  snap.inserts = inserts_.load(std::memory_order_relaxed);
  snap.updates = updates_.load(std::memory_order_relaxed);
  snap.deletes = deletes_.load(std::memory_order_relaxed);
  snap.merges = merges_.load(std::memory_order_relaxed);
  snap.rotations = rotations_.load(std::memory_order_relaxed);
  snap.segments_retired =
      retired_.segments_retired.load(std::memory_order_relaxed);
  snap.merge_busy_us = merge_busy_us_.load(std::memory_order_relaxed);
  snap.merge_last_us = merge_last_us_.load(std::memory_order_relaxed);
  snap.tombstones_replayed =
      tombstones_replayed_.load(std::memory_order_relaxed);
  const Snapshot s = GetSnapshot();
  snap.frozen_segments = s.view->frozen.size();
  uint64_t delta_objects = s.view->active->size();
  for (const auto& sealed : s.view->sealed) delta_objects += sealed->size();
  snap.delta_objects = delta_objects;
  snap.live_objects = live_count_.load(std::memory_order_relaxed);
  return snap;
}

BackendIoSnapshot SegmentManager::io_snapshot() const {
  // Under view_mu_ so a concurrent merge swap (which folds its inputs into
  // the retired accumulator in the same critical section) can never be
  // observed half-done.
  std::lock_guard<std::mutex> lock(view_mu_);
  BackendIoSnapshot snap = retired_.Total();
  for (const auto& frozen : current_->frozen) {
    snap += frozen->trees().io_snapshot();
  }
  return snap;
}

void SegmentManager::set_before_swap_hook(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  before_swap_hook_ = std::move(hook);
}

}  // namespace wsk
