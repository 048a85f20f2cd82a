#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "common/version.h"

namespace wsk {

QueryService::QueryService(const QueryBackend* backend,
                           const QueryServiceConfig& config)
    : backend_(backend),
      config_(config),
      cache_(config.cache_capacity),
      requests_total_(metrics_.counter("requests.total")),
      requests_topk_(metrics_.counter("requests.topk")),
      requests_whynot_(metrics_.counter("requests.whynot")),
      responses_ok_(metrics_.counter("responses.ok")),
      responses_rejected_(metrics_.counter("responses.rejected_overload")),
      responses_cancelled_(metrics_.counter("responses.cancelled")),
      responses_deadline_(metrics_.counter("responses.deadline_exceeded")),
      responses_error_(metrics_.counter("responses.error")),
      io_setr_physical_(metrics_.counter("io.setr.physical_reads")),
      io_kcr_physical_(metrics_.counter("io.kcr.physical_reads")),
      io_setr_logical_(metrics_.counter("io.setr.logical_reads")),
      io_kcr_logical_(metrics_.counter("io.kcr.logical_reads")),
      io_setr_mapped_(metrics_.counter("io.setr.mapped_reads")),
      io_kcr_mapped_(metrics_.counter("io.kcr.mapped_reads")),
      io_setr_node_cache_hits_(metrics_.counter("io.setr.node_cache_hits")),
      io_kcr_node_cache_hits_(metrics_.counter("io.kcr.node_cache_hits")),
      io_setr_node_cache_misses_(
          metrics_.counter("io.setr.node_cache_misses")),
      io_kcr_node_cache_misses_(metrics_.counter("io.kcr.node_cache_misses")),
      latency_topk_(metrics_.histogram("latency.topk.ms")),
      latency_whynot_(metrics_.histogram("latency.whynot.ms")),
      mutations_insert_(metrics_.counter("mutations.insert")),
      mutations_update_(metrics_.counter("mutations.update")),
      mutations_delete_(metrics_.counter("mutations.delete")),
      mutations_failed_(metrics_.counter("mutations.failed")),
      latency_mutation_(metrics_.histogram("latency.mutation.ms")),
      batch_batches_(metrics_.counter("batch.batches")),
      batch_queries_(metrics_.counter("batch.queries")),
      batch_dedup_(metrics_.counter("batch.dedup")),
      batch_fallback_solo_(metrics_.counter("batch.fallback_solo")),
      batch_occupancy_(metrics_.histogram("batch.occupancy")),
      batch_window_wait_(metrics_.histogram("batch.window_wait.ms")),
      trace_dropped_(metrics_.counter("trace.dropped_events")),
      bg_collector_dispatches_(metrics_.counter("bg.collector.dispatches")),
      bg_collector_exec_(metrics_.histogram("bg.collector.exec.ms")) {
  WSK_CHECK_MSG(backend_ != nullptr, "QueryService requires a backend");
  WSK_CHECK_MSG(config_.num_workers >= 1,
                "QueryService requires at least one worker (got %d)",
                config_.num_workers);
  WSK_CHECK(config_.cache_location_quantum > 0.0);
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

void QueryService::AccountStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      responses_ok_.Increment();
      return;
    case StatusCode::kCancelled:
      responses_cancelled_.Increment();
      return;
    case StatusCode::kDeadlineExceeded:
      responses_deadline_.Increment();
      return;
    default:
      responses_error_.Increment();
      return;
  }
}

void QueryService::AccountIo(const BackendIoSnapshot& before,
                             QueryProfile* profile) {
  const BackendIoSnapshot after = backend_->io_snapshot();
  io_setr_physical_.Increment(after.setr_physical - before.setr_physical);
  io_kcr_physical_.Increment(after.kcr_physical - before.kcr_physical);
  io_setr_logical_.Increment(after.setr_logical - before.setr_logical);
  io_kcr_logical_.Increment(after.kcr_logical - before.kcr_logical);
  io_setr_mapped_.Increment(after.setr_mapped - before.setr_mapped);
  io_kcr_mapped_.Increment(after.kcr_mapped - before.kcr_mapped);
  io_setr_node_cache_hits_.Increment(after.setr_cache_hits -
                                     before.setr_cache_hits);
  io_kcr_node_cache_hits_.Increment(after.kcr_cache_hits -
                                    before.kcr_cache_hits);
  io_setr_node_cache_misses_.Increment(after.setr_cache_misses -
                                       before.setr_cache_misses);
  io_kcr_node_cache_misses_.Increment(after.kcr_cache_misses -
                                      before.kcr_cache_misses);
  profile->io_physical = (after.setr_physical - before.setr_physical) +
                         (after.kcr_physical - before.kcr_physical);
  profile->io_mapped = (after.setr_mapped - before.setr_mapped) +
                       (after.kcr_mapped - before.kcr_mapped);
  profile->io_cache_hits = (after.setr_cache_hits - before.setr_cache_hits) +
                           (after.kcr_cache_hits - before.kcr_cache_hits);
}

void QueryService::AbsorbTrace(const TraceRecorder& trace) {
  trace_dropped_.Increment(trace.dropped_events());
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    if (trace.StageCount(static_cast<TraceStage>(i)) == 0) continue;
    stage_hist_[i]->Record(
        static_cast<double>(trace.StageTotalUs(static_cast<TraceStage>(i))) /
        1000.0);
  }
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    const uint64_t v = trace.counter(static_cast<TraceCounter>(i));
    if (v > 0) prune_counter_[i]->Increment(v);
  }
}

template <typename Call>
void QueryService::Finish(Request<Call>& request,
                          StatusOr<typename Call::Response> outcome,
                          Execution* exec) {
  const double latency_ms = request.timer.ElapsedMillis();
  if (outcome.ok()) outcome.value().latency_ms = latency_ms;
  AccountStatus(outcome.status());
  (Call::kKind == ProfileKind::kTopK ? latency_topk_ : latency_whynot_)
      .Record(latency_ms);
  if (telemetry_ != nullptr) {
    // A request that executed nothing itself reports its end-to-end
    // latency without a recorder; a batch member's stage breakdown lives
    // in the shared batch profile.
    QueryProfile profile;
    if (exec != nullptr) profile = std::move(exec->profile);
    profile.kind = Call::kKind;
    profile.algorithm = request.call.Algorithm();
    profile.fingerprint =
        request.key.empty() ? 0 : std::hash<std::string>{}(request.key);
    profile.status = StatusCodeName(outcome.status().code());
    profile.ok = outcome.ok();
    profile.cache_hit = outcome.ok() && outcome.value().cache_hit;
    if (exec != nullptr) {
      profile.queue_ms = std::max(0.0, latency_ms - profile.wall_ms);
    } else {
      profile.wall_ms = latency_ms;
    }
    telemetry_->Report(std::move(profile),
                       exec != nullptr ? exec->trace : nullptr);
  }
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  request.promise.set_value(std::move(outcome));
}

template <typename Call>
void QueryService::Shed(Request<Call>& request, const char* reason) {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  responses_rejected_.Increment();
  if (telemetry_ != nullptr) telemetry_->ReportShed();
  request.promise.set_value(Status::ResourceExhausted(
      std::string("query service overloaded: ") + reason));
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
auto QueryService::Execute(TraceRecorder& trace, Execution* exec, Fn&& run)
    -> decltype(run()) {
  const BackendIoSnapshot before = backend_->io_snapshot();
  const Timer timer;
  auto result = [&]() -> decltype(run()) {
    try {
      return run();
    } catch (const std::exception& e) {
      return Status::Internal(std::string("query execution threw: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("query execution threw a non-std exception");
    }
  }();
  exec->profile.wall_ms = timer.ElapsedMillis();
  exec->trace = &trace;
  AbsorbTrace(trace);
  AccountIo(before, &exec->profile);
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
  // The sampling decision is drawn only here, by a request about to
  // execute: every sample_every'th gets an event-capacity recorder, the
  // rest the capacity-0 aggregation recorder.
  TraceRecorder trace(request.call.ServiceTraced() && telemetry_ != nullptr
                          ? telemetry_->NextEventCapacity()
                          : 0);
  Execution exec;
  auto result = Execute(trace, &exec, [&] {
    return request.call.Run(*backend_, &request.token, &trace);
  });
  if (!result.ok()) {
    Finish(request, result.status(), &exec);
    return;
  }
  Remember<Call>(request.key, result.value(), std::move(versions));
  typename Call::Response response;
  response.*Call::kResult = std::move(result).value();
  Finish(request, std::move(response), &exec);
}

template <typename Call>
std::future<StatusOr<typename Call::Response>> QueryService::Submit(
    Call call, const RequestOptions& opts) {
  auto request = std::make_shared<Request<Call>>();
  request->call = std::move(call);
  std::future<StatusOr<typename Call::Response>> future =
      request->promise.get_future();
  requests_total_.Increment();
  const int64_t admitted = inflight_.fetch_add(1, std::memory_order_relaxed);
  if (config_.max_inflight > 0 &&
      admitted >= static_cast<int64_t>(config_.max_inflight)) {
    Shed(*request, "max_inflight reached");
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
    request->key = request->call.Fingerprint(
        config_.cache_location_quantum, backend_->topology_fingerprint());
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
    Shed(*request, "worker queue full");
  }
  return future;
}

std::future<StatusOr<QueryService::TopKResponse>> QueryService::SubmitTopK(
    const SpatialKeywordQuery& query, const RequestOptions& opts) {
  requests_topk_.Increment();
  return Submit(TopKCall{query}, opts);
}

std::future<StatusOr<QueryService::WhyNotResponse>> QueryService::SubmitWhyNot(
    WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
    const std::vector<ObjectId>& missing, const WhyNotOptions& options,
    const RequestOptions& opts) {
  requests_whynot_.Increment();
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
    batch_window_wait_.Record(wait_timer.ElapsedMillis());
    batch_occupancy_.Record(static_cast<double>(batch->size()));
    // Execution runs on the worker pool so the collector can keep forming
    // batches while earlier ones are still walking the index. Submit (not
    // TrySubmit): every request in the batch was already admitted.
    pool_->Submit([this, batch] { ExecuteTopKBatch(std::move(*batch)); });
    bg_collector_dispatches_.Increment();
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
          batch_dedup_.Increment();
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
  // The dispatch itself is background work: one sampled batch profile
  // covers the shared traversal, while each member request reports its
  // own completion through Finish.
  TraceRecorder trace(telemetry_ != nullptr ? telemetry_->NextEventCapacity()
                                            : 0);
  Execution exec;
  StatusOr<std::vector<BackendBatchResult>> ran = Execute(trace, &exec, [&] {
    return StatusOr<std::vector<BackendBatchResult>>(
        backend_->TopKBatch(items, &trace));
  });
  std::vector<BackendBatchResult> results;
  if (ran.ok()) results = std::move(ran).value();
  results.resize(
      reps.size(),
      BackendBatchResult{
          ran.ok() ? Status::Internal("backend returned a short batch result")
                   : ran.status(),
          {}});
  bg_collector_exec_.Record(exec.profile.wall_ms);
  batch_batches_.Increment();
  batch_queries_.Increment(live.size());
  if (telemetry_ != nullptr) {
    exec.profile.kind = ProfileKind::kBatch;
    exec.profile.algorithm = "batch";
    exec.profile.status = StatusCodeName(StatusCode::kOk);
    exec.profile.ok = true;
    telemetry_->Report(std::move(exec.profile), &trace);
  }

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
        batch_fallback_solo_.Increment();
        ExecuteSolo(item);
      } else {
        Finish(item, r.status, nullptr);
      }
    }
  }
}

size_t QueryService::BatchQueueDepth() const {
  std::lock_guard<std::mutex> lock(batch_mu_);
  return batch_queue_.size();
}

StatusOr<QueryService::MutationResponse> QueryService::FinishMutation(
    StatusOr<ObjectId> outcome, Counter& kind_counter, double latency_ms) {
  latency_mutation_.Record(latency_ms);
  if (!outcome.ok()) {
    mutations_failed_.Increment();
    return outcome.status();
  }
  kind_counter.Increment();
  MutationResponse response;
  response.id = outcome.value();
  response.dataset_version = backend_->dataset_version();
  response.latency_ms = latency_ms;
  return response;
}

StatusOr<QueryService::MutationResponse> QueryService::Insert(
    Point location, const std::vector<std::string>& keywords) {
  const Timer timer;
  StatusOr<ObjectId> id = backend_->Insert(location, keywords);
  return FinishMutation(std::move(id), mutations_insert_,
                        timer.ElapsedMillis());
}

StatusOr<QueryService::MutationResponse> QueryService::Update(
    ObjectId id, Point location, const std::vector<std::string>& keywords) {
  const Timer timer;
  StatusOr<ObjectId> outcome = id;
  if (Status status = backend_->Update(id, location, keywords); !status.ok()) {
    outcome = status;
  }
  return FinishMutation(std::move(outcome), mutations_update_,
                        timer.ElapsedMillis());
}

StatusOr<QueryService::MutationResponse> QueryService::Delete(ObjectId id) {
  const Timer timer;
  StatusOr<ObjectId> outcome = id;
  if (Status status = backend_->Delete(id); !status.ok()) {
    outcome = status;
  }
  return FinishMutation(std::move(outcome), mutations_delete_,
                        timer.ElapsedMillis());
}

std::string QueryService::MetricsReport() const {
  std::string out = metrics_.Report();
  char line[256];
  const ResultCache::Stats cs = cache_.stats();
  std::snprintf(line, sizeof(line),
                "cache     hits %llu misses %llu stale %llu insertions %llu "
                "evictions %llu size %zu capacity %zu\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.stale),
                static_cast<unsigned long long>(cs.insertions),
                static_cast<unsigned long long>(cs.evictions), cache_.size(),
                cache_.capacity());
  out += line;
  const BackendIoSnapshot io = backend_->io_snapshot();
  std::snprintf(line, sizeof(line),
                "engine_io setr physical %llu logical %llu mapped %llu | "
                "kcr physical %llu logical %llu mapped %llu\n",
                static_cast<unsigned long long>(io.setr_physical),
                static_cast<unsigned long long>(io.setr_logical),
                static_cast<unsigned long long>(io.setr_mapped),
                static_cast<unsigned long long>(io.kcr_physical),
                static_cast<unsigned long long>(io.kcr_logical),
                static_cast<unsigned long long>(io.kcr_mapped));
  out += line;
  if (const SegmentCountersSnapshot seg = backend_->segment_counters();
      seg.valid) {
    std::snprintf(line, sizeof(line),
                  "segments  frozen %llu delta_objects %llu live %llu | "
                  "inserts %llu updates %llu deletes %llu\n",
                  static_cast<unsigned long long>(seg.frozen_segments),
                  static_cast<unsigned long long>(seg.delta_objects),
                  static_cast<unsigned long long>(seg.live_objects),
                  static_cast<unsigned long long>(seg.inserts),
                  static_cast<unsigned long long>(seg.updates),
                  static_cast<unsigned long long>(seg.deletes));
    out += line;
    std::snprintf(line, sizeof(line),
                  "compaction merges %llu rotations %llu retired %llu "
                  "busy_ms %.1f last_ms %.1f tombstones %llu\n",
                  static_cast<unsigned long long>(seg.merges),
                  static_cast<unsigned long long>(seg.rotations),
                  static_cast<unsigned long long>(seg.segments_retired),
                  static_cast<double>(seg.merge_busy_us) / 1000.0,
                  static_cast<double>(seg.merge_last_us) / 1000.0,
                  static_cast<unsigned long long>(seg.tombstones_replayed));
    out += line;
  }
  if (const ShardCountersSnapshot sh = backend_->shard_counters(); sh.valid) {
    std::snprintf(line, sizeof(line),
                  "shards    count %llu queries %llu visited %llu "
                  "pruned %llu scatter_busy_ms %.1f\n",
                  static_cast<unsigned long long>(sh.num_shards),
                  static_cast<unsigned long long>(sh.queries),
                  static_cast<unsigned long long>(sh.shards_visited),
                  static_cast<unsigned long long>(sh.shards_pruned),
                  static_cast<double>(sh.scatter_busy_us) / 1000.0);
    out += line;
    for (size_t i = 0; i < sh.per_shard_visited.size(); ++i) {
      std::snprintf(
          line, sizeof(line),
          "shard.%zu   visited %llu pruned %llu mutations %llu objects "
          "%llu\n",
          i, static_cast<unsigned long long>(sh.per_shard_visited[i]),
          static_cast<unsigned long long>(sh.per_shard_pruned[i]),
          static_cast<unsigned long long>(sh.per_shard_mutations[i]),
          static_cast<unsigned long long>(sh.per_shard_objects[i]));
      out += line;
    }
  }
  if (const NodeCache* nc = backend_->node_cache()) {
    const NodeCache::Stats ns = nc->GetStats();
    std::snprintf(line, sizeof(line),
                  "node_cache hits %llu misses %llu evictions %llu "
                  "entries %llu bytes %llu capacity %llu\n",
                  static_cast<unsigned long long>(ns.hits),
                  static_cast<unsigned long long>(ns.misses),
                  static_cast<unsigned long long>(ns.evictions),
                  static_cast<unsigned long long>(ns.entries),
                  static_cast<unsigned long long>(ns.bytes_in_use),
                  static_cast<unsigned long long>(ns.capacity_bytes));
    out += line;
  }
  if (config_.batch_max_size > 1) {
    std::snprintf(line, sizeof(line),
                  "batching  max_size %zu window_ms %.3f pending %zu\n",
                  config_.batch_max_size, config_.batch_window_ms,
                  BatchQueueDepth());
    out += line;
  }
  if (telemetry_ != nullptr) {
    const TelemetryStats ts = telemetry_->stats();
    std::snprintf(line, sizeof(line),
                  "telemetry observed %llu sampled %llu slow %llu "
                  "threshold_ms %.3f reservoir %zu slow_ring %zu\n",
                  static_cast<unsigned long long>(ts.requests_observed),
                  static_cast<unsigned long long>(ts.profiles_sampled),
                  static_cast<unsigned long long>(ts.slow_queries),
                  ts.slow_threshold_ms, ts.reservoir_size, ts.slow_log_size);
    out += line;
    for (const uint64_t w : {uint64_t{1}, uint64_t{10}, uint64_t{60}}) {
      const RollingWindows::Snapshot s = telemetry_->Window(w);
      char label[16];
      std::snprintf(label, sizeof(label), "%llus",
                    static_cast<unsigned long long>(w));
      std::snprintf(line, sizeof(line),
                    "window.%-4s requests %llu qps %.1f shed %.2f hit %.2f "
                    "p50 %.3f p99 %.3f ms\n", label,
                    static_cast<unsigned long long>(s.requests), s.qps,
                    s.shed_ratio, s.hit_ratio, s.p50_ms, s.p99_ms);
      out += line;
    }
  }
  std::snprintf(line, sizeof(line),
                "pool      workers %d queue_depth %zu task_exceptions %llu\n",
                config_.num_workers, pool_->queue_depth(),
                static_cast<unsigned long long>(pool_->num_task_exceptions()));
  out += line;
  return out;
}

std::string QueryService::PrometheusReport() const {
  std::string out = metrics_.PrometheusText();
  char line[256];
  const auto sample = [&](const char* name, const char* help,
                          const char* type, double value) {
    out += std::string("# HELP ") + name + " " + help + "\n";
    out += std::string("# TYPE ") + name + " " + type + "\n";
    std::snprintf(line, sizeof(line), "%s %.17g\n", name, value);
    out += line;
  };
  const auto counter_line = [&](const char* name, const char* help,
                                uint64_t value) {
    sample(name, help, "counter", static_cast<double>(value));
  };
  const auto gauge_line = [&](const char* name, const char* help,
                              uint64_t value) {
    sample(name, help, "gauge", static_cast<double>(value));
  };
  const ResultCache::Stats cs = cache_.stats();
  counter_line("wsk_result_cache_hits_total",
               "Result-cache lookups answered from cache.", cs.hits);
  counter_line("wsk_result_cache_misses_total",
               "Result-cache lookups that missed.", cs.misses);
  counter_line("wsk_result_cache_stale_total",
               "Cached entries rejected by version validation.", cs.stale);
  counter_line("wsk_result_cache_insertions_total",
               "Entries inserted into the result cache.", cs.insertions);
  counter_line("wsk_result_cache_evictions_total",
               "Entries evicted from the result cache.", cs.evictions);
  gauge_line("wsk_result_cache_size", "Entries currently cached.",
             cache_.size());
  const BackendIoSnapshot io = backend_->io_snapshot();
  counter_line("wsk_engine_setr_physical_reads_total",
               "SETR tree pages read from disk.", io.setr_physical);
  counter_line("wsk_engine_setr_logical_reads_total",
               "SETR tree node accesses.", io.setr_logical);
  counter_line("wsk_engine_setr_mapped_reads_total",
               "SETR tree nodes served zero-copy from mmap.", io.setr_mapped);
  counter_line("wsk_engine_kcr_physical_reads_total",
               "KcR tree pages read from disk.", io.kcr_physical);
  counter_line("wsk_engine_kcr_logical_reads_total",
               "KcR tree node accesses.", io.kcr_logical);
  counter_line("wsk_engine_kcr_mapped_reads_total",
               "KcR tree nodes served zero-copy from mmap.", io.kcr_mapped);
  if (const SegmentCountersSnapshot seg = backend_->segment_counters();
      seg.valid) {
    counter_line("wsk_segment_inserts_total", "Objects inserted.",
                 seg.inserts);
    counter_line("wsk_segment_updates_total", "Objects updated.",
                 seg.updates);
    counter_line("wsk_segment_deletes_total", "Objects deleted.",
                 seg.deletes);
    counter_line("wsk_segment_merges_total", "Merge passes completed.",
                 seg.merges);
    counter_line("wsk_segment_rotations_total",
                 "Delta-to-frozen segment rotations.", seg.rotations);
    counter_line("wsk_segment_retired_total",
                 "Frozen segments retired after merges.",
                 seg.segments_retired);
    gauge_line("wsk_segment_frozen_segments", "Frozen segments live now.",
               seg.frozen_segments);
    gauge_line("wsk_segment_delta_objects",
               "Objects in the mutable delta segment.", seg.delta_objects);
    gauge_line("wsk_segment_live_objects", "Live objects across segments.",
               seg.live_objects);
    gauge_line("wsk_segment_dataset_version",
               "Backend dataset version (bumped by every mutation).",
               backend_->dataset_version());
    // Background-task visibility: compaction work as rates and durations.
    counter_line("wsk_bg_merge_passes_total",
                 "Background merge passes started (success or failure).",
                 seg.merges);
    sample("wsk_bg_merge_busy_seconds_total",
           "Wall time spent inside background merge passes.", "counter",
           static_cast<double>(seg.merge_busy_us) / 1e6);
    sample("wsk_bg_merge_last_seconds",
           "Duration of the most recent merge pass.", "gauge",
           static_cast<double>(seg.merge_last_us) / 1e6);
    counter_line("wsk_bg_merge_tombstones_total",
                 "Tombstones replayed onto freshly merged segments.",
                 seg.tombstones_replayed);
    counter_line("wsk_bg_segments_retired_total",
                 "Segments handed to epoch-based reclamation.",
                 seg.segments_retired);
  }
  if (const ShardCountersSnapshot sh = backend_->shard_counters(); sh.valid) {
    gauge_line("wsk_shards", "Shards the coordinator fans out to.",
               sh.num_shards);
    counter_line("wsk_shard_queries_total",
                 "Queries answered by scatter-gather.", sh.queries);
    counter_line("wsk_shards_visited_total",
                 "Per-query shard visits (bound not reached).",
                 sh.shards_visited);
    counter_line("wsk_shards_pruned_total",
                 "Shards skipped by the MaxScore bound.", sh.shards_pruned);
    sample("wsk_bg_scatter_busy_seconds_total",
           "Wall time spent inside scatter-gather top-k.", "counter",
           static_cast<double>(sh.scatter_busy_us) / 1e6);
  }
  if (const NodeCache* nc = backend_->node_cache()) {
    const NodeCache::Stats ns = nc->GetStats();
    counter_line("wsk_node_cache_hits_total", "Node-cache hits.", ns.hits);
    counter_line("wsk_node_cache_misses_total", "Node-cache misses.",
                 ns.misses);
    counter_line("wsk_node_cache_evictions_total", "Node-cache evictions.",
                 ns.evictions);
    gauge_line("wsk_node_cache_bytes", "Bytes of cached nodes resident.",
               ns.bytes_in_use);
  }
  gauge_line("wsk_inflight_requests",
             "Admitted requests not yet completed.", inflight());
  if (config_.batch_max_size > 1) {
    // wsk_batch_* counters/histograms come from the registry above; the
    // pending-queue depth is the one live gauge the registry cannot hold.
    gauge_line("wsk_batch_pending_requests",
               "Requests waiting in the batch collector.", BatchQueueDepth());
  }
  gauge_line("wsk_pool_queue_depth", "Tasks queued for the worker pool.",
             pool_->queue_depth());
  counter_line("wsk_pool_task_exceptions_total",
               "Worker tasks that escaped with an exception.",
               pool_->num_task_exceptions());
  if (telemetry_ != nullptr) {
    const TelemetryStats ts = telemetry_->stats();
    counter_line("wsk_telemetry_requests_observed_total",
                 "Request completions the telemetry hub observed.",
                 ts.requests_observed);
    counter_line("wsk_telemetry_profiles_sampled_total",
                 "Requests that carried an event-capacity profile recorder.",
                 ts.profiles_sampled);
    counter_line("wsk_telemetry_slow_queries_total",
                 "Requests captured by the rolling slow threshold.",
                 ts.slow_queries);
    sample("wsk_telemetry_slow_threshold_seconds",
           "Current slow-query capture threshold.", "gauge",
           ts.slow_threshold_ms / 1e3);
    gauge_line("wsk_telemetry_reservoir_profiles",
               "Sampled profiles retained in the reservoir.",
               ts.reservoir_size);
    const RollingWindows::Snapshot w1 = telemetry_->Window(1);
    const RollingWindows::Snapshot w10 = telemetry_->Window(10);
    const RollingWindows::Snapshot w60 = telemetry_->Window(60);
    const auto window_gauge = [&](const char* name, const char* help,
                                  double v1, double v10, double v60) {
      out += std::string("# HELP ") + name + " " + help + "\n";
      out += std::string("# TYPE ") + name + " gauge\n";
      const char* const windows[3] = {"1s", "10s", "60s"};
      const double values[3] = {v1, v10, v60};
      for (int i = 0; i < 3; ++i) {
        std::snprintf(line, sizeof(line), "%s{window=\"%s\"} %.17g\n", name,
                      windows[i], values[i]);
        out += line;
      }
    };
    window_gauge("wsk_window_request_rate",
                 "Completed requests per second over the window.", w1.qps,
                 w10.qps, w60.qps);
    window_gauge("wsk_window_shed_ratio",
                 "Admission rejections over offered load in the window.",
                 w1.shed_ratio, w10.shed_ratio, w60.shed_ratio);
    window_gauge("wsk_window_cache_hit_ratio",
                 "Result-cache hits over completions in the window.",
                 w1.hit_ratio, w10.hit_ratio, w60.hit_ratio);
    window_gauge("wsk_window_latency_p50_seconds",
                 "Median request execution wall time in the window.",
                 w1.p50_ms / 1e3, w10.p50_ms / 1e3, w60.p50_ms / 1e3);
    window_gauge("wsk_window_latency_p99_seconds",
                 "99th-percentile request execution wall time in the window.",
                 w1.p99_ms / 1e3, w10.p99_ms / 1e3, w60.p99_ms / 1e3);
  }
  out += "# HELP wsk_build_info Build metadata; the value is always 1.\n";
  out += "# TYPE wsk_build_info gauge\n";
  std::snprintf(line, sizeof(line),
                "wsk_build_info{version=\"%s\",isa=\"%s\",node_format=\"%s\"}"
                " 1\n",
                kBuildVersion, BuildIsa(), kNodeFormatName);
  out += line;
  sample("wsk_process_uptime_seconds", "Seconds since process start.",
         "gauge", ProcessUptimeSeconds());
  gauge_line("wsk_process_resident_memory_bytes",
             "Resident set size of the process.", ProcessResidentBytes());
  return out;
}

}  // namespace wsk
