#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "common/version.h"

namespace wsk {

namespace {

// Registry names of QueryService's counter and histogram slots, in slot
// order.
constexpr const char* kCounterNames[] = {
    "requests.total", "requests.topk", "requests.whynot",
    // ResponseSlot() order.
    "responses.ok", "responses.rejected_overload", "responses.cancelled",
    "responses.deadline_exceeded", "responses.error",
    // kBackendIoFields order.
    "io.setr.physical_reads", "io.kcr.physical_reads",
    "io.setr.logical_reads", "io.kcr.logical_reads", "io.setr.mapped_reads",
    "io.kcr.mapped_reads", "io.setr.node_cache_hits",
    "io.kcr.node_cache_hits", "io.setr.node_cache_misses",
    "io.kcr.node_cache_misses",
    "mutations.insert", "mutations.update", "mutations.delete",
    "mutations.failed",
    "batch.batches", "batch.queries", "batch.dedup", "batch.fallback_solo",
    "bg.collector.dispatches", "trace.dropped_events"};
constexpr const char* kHistogramNames[] = {
    "latency.topk.ms", "latency.whynot.ms", "bg.collector.exec.ms",
    "latency.mutation.ms", "batch.occupancy", "batch.window_wait.ms"};

// The responses.* slot of a terminal status: its index here, or the last
// (responses.error) for any other code. RESOURCE_EXHAUSTED comes only from
// admission control; the backends never return it.
constexpr StatusCode kResponseCodes[] = {
    StatusCode::kOk, StatusCode::kResourceExhausted, StatusCode::kCancelled,
    StatusCode::kDeadlineExceeded};
size_t ResponseSlot(StatusCode code) {
  return std::find(std::begin(kResponseCodes), std::end(kResponseCodes),
                   code) -
         std::begin(kResponseCodes);
}

}  // namespace

QueryService::QueryService(const QueryBackend* backend,
                           const QueryServiceConfig& config)
    : backend_(backend), config_(config), cache_(config.cache_capacity) {
  WSK_CHECK_MSG(backend_ != nullptr, "QueryService requires a backend");
  WSK_CHECK_MSG(config_.num_workers >= 1,
                "QueryService requires at least one worker (got %d)",
                config_.num_workers);
  static_assert(std::size(kCounterNames) == kNumCounterSlots);
  static_assert(std::size(kHistogramNames) == kNumHistogramSlots);
  for (size_t i = 0; i < kNumCounterSlots; ++i) {
    counters_[i] = &metrics_.counter(kCounterNames[i]);
  }
  for (size_t i = 0; i < kNumHistogramSlots; ++i) {
    histograms_[i] = &metrics_.histogram(kHistogramNames[i]);
  }
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    stage_hist_[i] = &metrics_.histogram(
        std::string("stage.") + TraceStageName(static_cast<TraceStage>(i)) +
        ".ms");
  }
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    prune_counter_[i] = &metrics_.counter(
        std::string("prune.") +
        TraceCounterName(static_cast<TraceCounter>(i)));
  }
  if (config_.telemetry.enabled) {
    telemetry_ = std::make_unique<TelemetryHub>(config_.telemetry);
  }
  pool_ = std::make_unique<ThreadPool>(config_.num_workers, config_.max_queue);
  if (config_.batch_max_size > 1) {
    batch_collector_ = std::thread([this] { BatchCollectorLoop(); });
  }
}

QueryService::~QueryService() {
  // Stop the collector first: it flushes whatever is still pending into
  // the pool on its way out, and must not touch the pool after reset.
  if (batch_collector_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(batch_mu_);
      batch_stop_ = true;
    }
    batch_cv_.notify_all();
    batch_collector_.join();
  }
  // ThreadPool's destructor drains the queue and joins, so every admitted
  // request fulfils its promise before the service's members go away.
  pool_.reset();
}

void QueryService::Observe(QueryProfile profile, const Status& status) {
  profile.status = StatusCodeName(status.code());
  profile.ok = status.ok();
  // A batch dispatch is background work: its members count the responses.
  if (profile.kind != ProfileKind::kBatch) {
    counters_[kResponses + ResponseSlot(status.code())]->Increment();
  }
  if (status.code() == StatusCode::kResourceExhausted) {
    // Shed at admission: nothing ran and nothing waited.
    if (telemetry_ != nullptr) telemetry_->ReportShed();
    return;
  }
  histograms_[kLatency + static_cast<size_t>(profile.kind)]->Record(
      profile.wall_ms + profile.queue_ms);
  counters_[kTraceDropped]->Increment(profile.dropped_events);
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    if (profile.stage_count[i] == 0) continue;
    stage_hist_[i]->Record(static_cast<double>(profile.stage_total_us[i]) /
                           1000.0);
  }
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    if (profile.counters[i] > 0) {
      prune_counter_[i]->Increment(profile.counters[i]);
    }
  }
  if (telemetry_ != nullptr) telemetry_->Report(std::move(profile));
}

template <typename Call>
void QueryService::Finish(Request<Call>& request,
                          StatusOr<typename Call::Response> outcome,
                          QueryProfile* executed) {
  const double latency_ms = request.timer.ElapsedMillis();
  if (outcome.ok()) outcome.value().latency_ms = latency_ms;
  // A request that executed nothing itself reports its end-to-end latency
  // as its wall time; a batch member's stage breakdown lives in the shared
  // batch profile.
  QueryProfile profile;
  if (executed != nullptr) {
    profile = std::move(*executed);
    profile.queue_ms = std::max(0.0, latency_ms - profile.wall_ms);
  } else {
    profile.wall_ms = latency_ms;
  }
  profile.kind = Call::kKind;
  profile.algorithm = request.call.Algorithm();
  profile.fingerprint =
      request.key.empty() ? 0 : std::hash<std::string>{}(request.key);
  profile.cache_hit = outcome.ok() && outcome.value().cache_hit;
  Observe(std::move(profile), outcome.status());
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  request.promise.set_value(std::move(outcome));
}

template <typename Call, typename Value>
void QueryService::Remember(const std::string& key, const Value& value,
                            std::vector<uint64_t> versions) {
  if (key.empty()) return;
  auto entry = std::make_shared<ResultCache::Entry>();
  entry->is_whynot = Call::kKind == ProfileKind::kWhyNot;
  (*entry).*Call::kCached = value;
  entry->versions = std::move(versions);
  cache_.Insert(key, std::move(entry));
}

template <typename Fn>
auto QueryService::Execute(bool sample, QueryProfile* profile, Fn&& run)
    -> decltype(run(nullptr)) {
  // The sampling decision is drawn only here, by work about to execute:
  // every sample_every'th gets an event-capacity recorder, the rest the
  // capacity-0 aggregation recorder.
  TraceRecorder trace(sample && telemetry_ != nullptr
                          ? telemetry_->NextEventCapacity()
                          : 0);
  const BackendIoSnapshot before = backend_->io_snapshot();
  const Timer timer;
  auto result = [&]() -> decltype(run(nullptr)) {
    try {
      return run(&trace);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("query execution threw: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("query execution threw a non-std exception");
    }
  }();
  profile->wall_ms = timer.ElapsedMillis();
  profile->Absorb(trace);
  const BackendIoSnapshot io = backend_->io_snapshot() - before;
  for (size_t i = 0; i < std::size(kBackendIoFields); ++i) {
    counters_[kIo + i]->Increment(io.*kBackendIoFields[i]);
  }
  profile->io_physical = io.setr_physical + io.kcr_physical;
  profile->io_mapped = io.setr_mapped + io.kcr_mapped;
  profile->io_cache_hits = io.setr_cache_hits + io.kcr_cache_hits;
  return result;
}

template <typename Call>
void QueryService::ExecuteSolo(Request<Call>& request) {
  // Fail fast: a request cancelled, or past its deadline, while it waited
  // finishes before any work.
  if (Status status = request.token.Check(); !status.ok()) {
    Finish(request, std::move(status), nullptr);
    return;
  }
  // Captured before the query runs: a mutation racing the computation
  // makes the entry look staler than it is, never fresher.
  std::vector<uint64_t> versions;
  if (!request.key.empty()) versions = backend_->version_vector();
  QueryProfile profile;
  auto result = Execute(request.call.ServiceTraced(), &profile,
                        [&](TraceRecorder* trace) {
                          return request.call.Run(*backend_, &request.token,
                                                  trace);
                        });
  if (!result.ok()) {
    Finish(request, result.status(), &profile);
    return;
  }
  Remember<Call>(request.key, result.value(), std::move(versions));
  typename Call::Response response;
  response.*Call::kResult = std::move(result).value();
  Finish(request, std::move(response), &profile);
}

template <typename Call>
std::future<StatusOr<typename Call::Response>> QueryService::Submit(
    Call call, const RequestOptions& opts) {
  auto request = std::make_shared<Request<Call>>();
  request->call = std::move(call);
  std::future<StatusOr<typename Call::Response>> future =
      request->promise.get_future();
  counters_[kRequestsTotal]->Increment();
  counters_[kRequests + static_cast<size_t>(Call::kKind)]->Increment();
  const int64_t admitted = inflight_.fetch_add(1, std::memory_order_relaxed);
  if (config_.max_inflight > 0 &&
      admitted >= static_cast<int64_t>(config_.max_inflight)) {
    Finish(*request,
           Status::ResourceExhausted(
               "query service overloaded: max_inflight reached"),
           nullptr);
    return future;
  }
  // The token observes the client's token (if any) AND the deadline; a
  // null client token derives into a plain deadline token.
  const double timeout_ms =
      opts.timeout_ms < 0.0 ? config_.default_timeout_ms : opts.timeout_ms;
  request->token = timeout_ms > 0.0 ? opts.cancel.DeriveWithTimeout(timeout_ms)
                                    : opts.cancel;
  // Rejected before any work, the cache included: a NaN alpha would make
  // every heap bound NaN, and the client of a cancelled request is no
  // longer waiting for an answer.
  Status early = request->call.Validate();
  if (early.ok()) early = request->token.Check();
  if (!early.ok()) {
    Finish(*request, std::move(early), nullptr);
    return future;
  }
  // The one cache lookup, on the caller's thread: a hit takes no pool
  // slot and never waits in the queue or a batch window.
  if (!opts.bypass_cache) {
    request->key =
        request->call.Fingerprint(backend_->topology_fingerprint());
    const Call& c = request->call;
    if (std::shared_ptr<const ResultCache::Entry> hit = cache_.Lookup(
            request->key, [this, &c](const ResultCache::Entry& e) {
              return c.CacheValid(*backend_, e);
            })) {
      typename Call::Response response;
      response.*Call::kResult = (*hit).*Call::kCached;
      response.cache_hit = true;
      Finish(*request, std::move(response), nullptr);
      return future;
    }
  }
  if constexpr (std::is_same_v<Call, TopKCall>) {
    if (config_.batch_max_size > 1) {
      {
        std::lock_guard<std::mutex> lock(batch_mu_);
        batch_queue_.push_back(std::move(request));
      }
      batch_cv_.notify_one();
      return future;
    }
  }
  if (!pool_->TrySubmit([this, request] { ExecuteSolo(*request); })) {
    Finish(*request,
           Status::ResourceExhausted(
               "query service overloaded: worker queue full"),
           nullptr);
  }
  return future;
}

std::future<StatusOr<QueryService::TopKResponse>> QueryService::SubmitTopK(
    const SpatialKeywordQuery& query, const RequestOptions& opts) {
  return Submit(TopKCall{query}, opts);
}

std::future<StatusOr<QueryService::WhyNotResponse>> QueryService::SubmitWhyNot(
    WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
    const std::vector<ObjectId>& missing, const WhyNotOptions& options,
    const RequestOptions& opts) {
  return Submit(WhyNotCall{algorithm, query, missing, options}, opts);
}

void QueryService::BatchCollectorLoop() {
  std::unique_lock<std::mutex> lock(batch_mu_);
  for (;;) {
    batch_cv_.wait(lock,
                   [this] { return batch_stop_ || !batch_queue_.empty(); });
    if (batch_queue_.empty()) return;  // stopping, nothing left to flush
    // The window opens when the first request of a batch arrives. A full
    // batch dispatches immediately; shutdown flushes without waiting.
    const Timer wait_timer;
    if (!batch_stop_ && config_.batch_window_ms > 0.0 &&
        batch_queue_.size() < config_.batch_max_size) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::milli>(
                  config_.batch_window_ms));
      batch_cv_.wait_until(lock, deadline, [this] {
        return batch_stop_ || batch_queue_.size() >= config_.batch_max_size;
      });
    }
    const size_t take = std::min(batch_queue_.size(), config_.batch_max_size);
    auto batch = std::make_shared<std::vector<std::shared_ptr<TopKRequest>>>();
    batch->reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(batch_queue_.front()));
      batch_queue_.pop_front();
    }
    lock.unlock();
    histograms_[kBatchWindowWait]->Record(wait_timer.ElapsedMillis());
    histograms_[kBatchOccupancy]->Record(static_cast<double>(batch->size()));
    // Execution runs on the worker pool so the collector can keep forming
    // batches while earlier ones are still walking the index. Submit (not
    // TrySubmit): every request in the batch was already admitted.
    pool_->Submit([this, batch] { ExecuteTopKBatch(std::move(*batch)); });
    counters_[kCollectorDispatches]->Increment();
    lock.lock();
  }
}

void QueryService::ExecuteTopKBatch(
    std::vector<std::shared_ptr<TopKRequest>> batch) {
  // Fail fast per request, exactly as the solo execute step does.
  std::vector<std::shared_ptr<TopKRequest>> live;
  live.reserve(batch.size());
  for (std::shared_ptr<TopKRequest>& item : batch) {
    if (Status status = item->token.Check(); !status.ok()) {
      Finish(*item, std::move(status), nullptr);
    } else {
      live.push_back(std::move(item));
    }
  }
  if (live.empty()) return;

  // Within-batch dedupe: requests with identical cache fingerprints
  // execute once and fan the answer out. Bypass-cache requests carry an
  // empty key and never dedupe.
  std::vector<size_t> reps;                  // group -> representative
  std::vector<std::vector<size_t>> members;  // group -> all items (rep first)
  {
    std::unordered_map<std::string_view, size_t> by_key;
    for (size_t i = 0; i < live.size(); ++i) {
      if (!live[i]->key.empty()) {
        auto [it, inserted] = by_key.emplace(live[i]->key, members.size());
        if (!inserted) {
          members[it->second].push_back(i);
          counters_[kBatchDedup]->Increment();
          continue;
        }
      }
      reps.push_back(i);
      members.push_back({i});
    }
  }

  // Captured before the batch runs, as in the solo step.
  std::vector<uint64_t> versions;
  if (std::any_of(reps.begin(), reps.end(),
                  [&](size_t rep) { return !live[rep]->key.empty(); })) {
    versions = backend_->version_vector();
  }
  std::vector<BackendBatchItem> items(reps.size());
  for (size_t g = 0; g < reps.size(); ++g) {
    items[g].query = &live[reps[g]]->call.query;
    items[g].cancel = &live[reps[g]]->token;
  }
  // The dispatch itself is background work: one batch profile covers the
  // shared traversal, while each member request reports its own
  // completion through Finish.
  QueryProfile profile;
  StatusOr<std::vector<BackendBatchResult>> ran =
      Execute(true, &profile, [&](TraceRecorder* trace) {
        return StatusOr<std::vector<BackendBatchResult>>(
            backend_->TopKBatch(items, trace));
      });
  std::vector<BackendBatchResult> results;
  if (ran.ok()) results = std::move(ran).value();
  results.resize(
      reps.size(),
      BackendBatchResult{
          ran.ok() ? Status::Internal("backend returned a short batch result")
                   : ran.status(),
          {}});
  counters_[kBatchBatches]->Increment();
  counters_[kBatchQueries]->Increment(live.size());
  profile.kind = ProfileKind::kBatch;
  profile.algorithm = "batch";
  Observe(std::move(profile), ran.status());

  for (size_t g = 0; g < reps.size(); ++g) {
    const BackendBatchResult& r = results[g];
    // One insertion per unique fingerprint per batch, no matter how many
    // requests the group fanned out to.
    if (r.status.ok()) Remember<TopKCall>(live[reps[g]]->key, r.topk, versions);
    for (size_t m : members[g]) {
      TopKRequest& item = *live[m];
      if (r.status.ok()) {
        TopKResponse response;
        response.results = r.topk;
        Finish(item, std::move(response), nullptr);
      } else if (m != reps[g] &&
                 (r.status.code() == StatusCode::kCancelled ||
                  r.status.code() == StatusCode::kDeadlineExceeded) &&
                 item.token.Check().ok()) {
        // The representative's token fired mid-walk but this duplicate is
        // still live: it runs through the solo execute step, so one
        // client's cancellation never cancels another client's request.
        // The failed representative inserted nothing, so the step's insert
        // is the only one for this key.
        counters_[kBatchFallbackSolo]->Increment();
        ExecuteSolo(item);
      } else {
        Finish(item, r.status, nullptr);
      }
    }
  }
}

StatusOr<QueryService::MutationResponse> QueryService::FinishMutation(
    const Timer& timer, StatusOr<ObjectId> outcome, size_t kind) {
  const double latency_ms = timer.ElapsedMillis();
  histograms_[kMutationLatency]->Record(latency_ms);
  if (!outcome.ok()) {
    counters_[kMutationsFailed]->Increment();
    return outcome.status();
  }
  counters_[kind]->Increment();
  MutationResponse response;
  response.id = outcome.value();
  response.dataset_version = backend_->dataset_version();
  response.latency_ms = latency_ms;
  return response;
}

StatusOr<QueryService::MutationResponse> QueryService::Insert(
    Point location, const std::vector<std::string>& keywords) {
  const Timer timer;
  return FinishMutation(timer, backend_->Insert(location, keywords),
                        kMutationsInsert);
}

StatusOr<QueryService::MutationResponse> QueryService::Update(
    ObjectId id, Point location, const std::vector<std::string>& keywords) {
  const Timer timer;
  const Status status = backend_->Update(id, location, keywords);
  return FinishMutation(timer, status.ok() ? StatusOr<ObjectId>(id) : status,
                        kMutationsUpdate);
}

StatusOr<QueryService::MutationResponse> QueryService::Delete(ObjectId id) {
  const Timer timer;
  const Status status = backend_->Delete(id);
  return FinishMutation(timer, status.ok() ? StatusOr<ObjectId>(id) : status,
                        kMutationsDelete);
}

MetricsSnapshot QueryService::Snapshot() const {
  MetricsSnapshot s = metrics_.Snapshot();
  const ResultCache::Stats cs = cache_.stats();
  s.AddCounter("cache", "hits", "wsk_result_cache_hits_total",
               "Result-cache lookups answered from cache.", cs.hits);
  s.AddCounter("cache", "misses", "wsk_result_cache_misses_total",
               "Result-cache lookups that missed.", cs.misses);
  s.AddCounter("cache", "stale", "wsk_result_cache_stale_total",
               "Cached entries rejected by version validation.", cs.stale);
  s.AddCounter("cache", "insertions", "wsk_result_cache_insertions_total",
               "Entries inserted into the result cache.", cs.insertions);
  s.AddCounter("cache", "evictions", "wsk_result_cache_evictions_total",
               "Entries evicted from the result cache.", cs.evictions);
  s.AddGauge("cache", "size", "wsk_result_cache_size",
             "Entries currently cached.", cache_.size());
  s.AddGauge("cache", "capacity", "wsk_result_cache_capacity",
             "Result-cache capacity in entries.", cache_.capacity());
  const BackendIoSnapshot io = backend_->io_snapshot();
  s.AddCounter("engine_io", "setr_physical",
               "wsk_engine_setr_physical_reads_total",
               "SETR tree pages read from disk.", io.setr_physical);
  s.AddCounter("engine_io", "setr_logical",
               "wsk_engine_setr_logical_reads_total",
               "SETR tree node accesses.", io.setr_logical);
  s.AddCounter("engine_io", "setr_mapped", "wsk_engine_setr_mapped_reads_total",
               "SETR tree nodes served zero-copy from mmap.", io.setr_mapped);
  s.AddCounter("engine_io", "kcr_physical",
               "wsk_engine_kcr_physical_reads_total",
               "KcR tree pages read from disk.", io.kcr_physical);
  s.AddCounter("engine_io", "kcr_logical", "wsk_engine_kcr_logical_reads_total",
               "KcR tree node accesses.", io.kcr_logical);
  s.AddCounter("engine_io", "kcr_mapped", "wsk_engine_kcr_mapped_reads_total",
               "KcR tree nodes served zero-copy from mmap.", io.kcr_mapped);
  if (const SegmentCountersSnapshot seg = backend_->segment_counters();
      seg.valid) {
    s.AddGauge("segments", "frozen", "wsk_segment_frozen_segments",
               "Frozen segments live now.", seg.frozen_segments);
    s.AddGauge("segments", "delta_objects", "wsk_segment_delta_objects",
               "Objects in the mutable delta segment.", seg.delta_objects);
    s.AddGauge("segments", "live", "wsk_segment_live_objects",
               "Live objects across segments.", seg.live_objects);
    s.AddCounter("segments", "inserts", "wsk_segment_inserts_total",
                 "Objects inserted.", seg.inserts);
    s.AddCounter("segments", "updates", "wsk_segment_updates_total",
                 "Objects updated.", seg.updates);
    s.AddCounter("segments", "deletes", "wsk_segment_deletes_total",
                 "Objects deleted.", seg.deletes);
    s.AddGauge("segments", "version", "wsk_segment_dataset_version",
               "Backend dataset version (bumped by every mutation).",
               backend_->dataset_version());
    // Background-task visibility: compaction work as rates and durations.
    s.AddCounter("compaction", "merges", "wsk_bg_merge_passes_total",
                 "Background merge passes started (success or failure).",
                 seg.merges);
    s.AddCounter("compaction", "rotations", "wsk_segment_rotations_total",
                 "Delta-to-frozen segment rotations.", seg.rotations);
    s.AddCounter("compaction", "retired", "wsk_bg_segments_retired_total",
                 "Segments handed to epoch-based reclamation.",
                 seg.segments_retired);
    s.AddCounter("compaction", "busy_s", "wsk_bg_merge_busy_seconds_total",
                 "Wall time spent inside background merge passes.",
                 static_cast<double>(seg.merge_busy_us) / 1e6);
    s.AddGauge("compaction", "last_s", "wsk_bg_merge_last_seconds",
               "Duration of the most recent merge pass.",
               static_cast<double>(seg.merge_last_us) / 1e6);
    s.AddCounter("compaction", "tombstones", "wsk_bg_merge_tombstones_total",
                 "Tombstones replayed onto freshly merged segments.",
                 seg.tombstones_replayed);
  }
  if (const ShardCountersSnapshot sh = backend_->shard_counters(); sh.valid) {
    s.AddGauge("shards", "count", "wsk_shards",
               "Shards the coordinator fans out to.", sh.num_shards);
    s.AddCounter("shards", "queries", "wsk_shard_queries_total",
                 "Queries answered by scatter-gather.", sh.queries);
    s.AddCounter("shards", "visited", "wsk_shards_visited_total",
                 "Per-query shard visits (bound not reached).",
                 sh.shards_visited);
    s.AddCounter("shards", "pruned", "wsk_shards_pruned_total",
                 "Shards skipped by the MaxScore bound.", sh.shards_pruned);
    s.AddCounter("shards", "scatter_busy_s",
                 "wsk_bg_scatter_busy_seconds_total",
                 "Wall time spent inside scatter-gather top-k.",
                 static_cast<double>(sh.scatter_busy_us) / 1e6);
    for (size_t i = 0; i < sh.per_shard_visited.size(); ++i) {
      const MetricRow::Labels shard = {{"shard", std::to_string(i)}};
      s.AddCounter("shard", "visited", "wsk_shard_visited_total",
                   "Scatter-gather visits of the shard.",
                   sh.per_shard_visited[i], shard);
      s.AddCounter("shard", "pruned", "wsk_shard_pruned_total",
                   "Scatter-gather visits of the shard skipped by the bound.",
                   sh.per_shard_pruned[i], shard);
      s.AddCounter("shard", "mutations", "wsk_shard_mutations_total",
                   "Mutations routed to the shard.",
                   sh.per_shard_mutations[i], shard);
      s.AddGauge("shard", "objects", "wsk_shard_objects",
                 "Live objects the shard owns.", sh.per_shard_objects[i],
                 shard);
    }
  }
  if (const NodeCache* nc = backend_->node_cache()) {
    const NodeCache::Stats ns = nc->GetStats();
    s.AddCounter("node_cache", "hits", "wsk_node_cache_hits_total",
                 "Node-cache hits.", ns.hits);
    s.AddCounter("node_cache", "misses", "wsk_node_cache_misses_total",
                 "Node-cache misses.", ns.misses);
    s.AddCounter("node_cache", "evictions", "wsk_node_cache_evictions_total",
                 "Node-cache evictions.", ns.evictions);
    s.AddGauge("node_cache", "entries", "wsk_node_cache_entries",
               "Decoded nodes resident.", ns.entries);
    s.AddGauge("node_cache", "bytes", "wsk_node_cache_bytes",
               "Bytes of cached nodes resident.", ns.bytes_in_use);
    s.AddGauge("node_cache", "capacity_bytes", "wsk_node_cache_capacity_bytes",
               "Node-cache capacity in bytes.", ns.capacity_bytes);
  }
  if (config_.batch_max_size > 1) {
    s.AddGauge("batching", "max_size", "wsk_batch_max_size",
               "Largest batch the collector dispatches.",
               config_.batch_max_size);
    s.AddGauge("batching", "window_s", "wsk_batch_window_seconds",
               "How long the collector holds an open batch.",
               config_.batch_window_ms / 1e3);
    std::lock_guard<std::mutex> lock(batch_mu_);
    s.AddGauge("batching", "pending", "wsk_batch_pending_requests",
               "Requests waiting in the batch collector.", batch_queue_.size());
  }
  if (telemetry_ != nullptr) {
    const TelemetryStats ts = telemetry_->stats();
    s.AddCounter("telemetry", "observed",
                 "wsk_telemetry_requests_observed_total",
                 "Request completions the telemetry hub observed.",
                 ts.requests_observed);
    s.AddCounter("telemetry", "sampled", "wsk_telemetry_profiles_sampled_total",
                 "Requests that carried an event-capacity profile recorder.",
                 ts.profiles_sampled);
    s.AddCounter("telemetry", "slow", "wsk_telemetry_slow_queries_total",
                 "Requests captured by the rolling slow threshold.",
                 ts.slow_queries);
    s.AddGauge("telemetry", "threshold_s",
               "wsk_telemetry_slow_threshold_seconds",
               "Current slow-query capture threshold.",
               ts.slow_threshold_ms / 1e3);
    s.AddGauge("telemetry", "reservoir", "wsk_telemetry_reservoir_profiles",
               "Sampled profiles retained in the reservoir.",
               ts.reservoir_size);
    s.AddGauge("telemetry", "slow_ring", "wsk_telemetry_slow_log_entries",
               "Slow-query records retained in the ring.", ts.slow_log_size);
    for (const uint64_t seconds : {1, 10, 60}) {
      const RollingWindows::Snapshot w = telemetry_->Window(seconds);
      const MetricRow::Labels window = {
          {"window", std::to_string(seconds) + "s"}};
      s.AddGauge("window", "requests", "wsk_window_requests",
                 "Completed requests in the window.", w.requests, window);
      s.AddGauge("window", "qps", "wsk_window_request_rate",
                 "Completed requests per second over the window.", w.qps,
                 window);
      s.AddGauge("window", "shed", "wsk_window_shed_ratio",
                 "Admission rejections over offered load in the window.",
                 w.shed_ratio, window);
      s.AddGauge("window", "hit", "wsk_window_cache_hit_ratio",
                 "Result-cache hits over completions in the window.",
                 w.hit_ratio, window);
      s.AddGauge("window", "p50_s", "wsk_window_latency_p50_seconds",
                 "Median request latency (queue wait included) in the window.",
                 w.p50_ms / 1e3, window);
      s.AddGauge("window", "p99_s", "wsk_window_latency_p99_seconds",
                 "99th-percentile request latency (queue wait included) in "
                 "the window.",
                 w.p99_ms / 1e3, window);
    }
  }
  s.AddGauge("pool", "workers", "wsk_pool_workers", "Worker threads.",
             config_.num_workers);
  s.AddGauge("pool", "queue_depth", "wsk_pool_queue_depth",
             "Tasks queued for the worker pool.", pool_->queue_depth());
  s.AddCounter("pool", "task_exceptions", "wsk_pool_task_exceptions_total",
               "Worker tasks that escaped with an exception.",
               pool_->num_task_exceptions());
  s.AddGauge("service", "inflight", "wsk_inflight_requests",
             "Admitted requests not yet completed.", inflight());
  s.AddGauge("process", "uptime_s", "wsk_process_uptime_seconds",
             "Seconds since process start.", ProcessUptimeSeconds());
  s.AddGauge("process", "resident_bytes", "wsk_process_resident_memory_bytes",
             "Resident set size of the process.", ProcessResidentBytes());
  s.AddGauge("build", "info", "wsk_build_info",
             "Build metadata; the value is always 1.", 1,
             {{"version", kBuildVersion},
              {"isa", BuildIsa()},
              {"node_format", kNodeFormatName}});
  return s;
}

}  // namespace wsk
