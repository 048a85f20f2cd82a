// QueryService: the concurrent, servable front end over a QueryBackend
// (the static WhyNotEngine or the live SegmentedEngine).
//
// Every top-k and why-not request, solo or batched, runs one pipeline
// (see docs/SERVICE.md "Life of a request"):
//
//   admission -> fail fast -> result cache (caller's thread) -> pool task
//   or batch -> fail fast -> execute (with deadline/cancel) -> cache
//   insert -> metrics
//
// Mutations (Insert/Update/Delete) run synchronously on the caller's
// thread — the backend serializes writers internally, and a mutation's
// latency is the write path itself, not queueing. Cache keys embed the
// backend's topology fingerprint, and every cached entry stores the
// backend's version vector from before its answer was computed; lookups
// re-validate through QueryBackend::TopKCacheValid / WhyNotCacheValid, so
// a stale answer is structurally unservable. For unsharded backends the
// default validators require exact version equality (any mutation
// invalidates, exactly the pre-sharding contract); a sharded backend keeps
// top-k entries whose changed shards provably cannot affect them
// (docs/SERVICE.md "Mutations and cache invalidation", docs/SHARDING.md).
//
// Admission control bounds load two ways: `max_inflight` caps admitted
// requests (queued + executing) and the worker pool's `max_queue` bounds
// the pending backlog; either limit rejects new work immediately with
// kResourceExhausted so an overloaded service degrades by shedding load
// instead of queueing unboundedly. Admitted requests execute on a shared
// ThreadPool, each under a CancelToken that combines the client's token
// with the request deadline; the engine's algorithms observe the token at
// node-visit / candidate granularity, so a timed-out query returns
// kDeadlineExceeded within one unit of work. Successful answers land in a
// shared LRU ResultCache keyed on a canonical query fingerprint. Every
// finished request (and every batch dispatch) becomes one QueryProfile,
// and Observe feeds the MetricsRegistry (status counters, latency and stage
// histograms, pruning counters) and the telemetry hub from it; executed
// work also adds its I/O counter deltas (storage/io_stats.h).
//
// Thread safety: all public methods may be called concurrently. The
// service relies on the backend's documented contract that const query
// methods are concurrency-safe; for WhyNotEngine, do not call
// engine->DropCaches() / ResetIoStats() while the service has requests in
// flight.
#ifndef WSK_SERVICE_QUERY_SERVICE_H_
#define WSK_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/backend.h"
#include "core/engine.h"
#include "observability/telemetry.h"
#include "observability/trace.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "storage/io_stats.h"

namespace wsk {

struct QueryServiceConfig {
  int num_workers = 4;       // worker threads executing queries (>= 1)
  size_t max_queue = 128;    // pending tasks the pool accepts (0 = unbounded)
  size_t max_inflight = 256;  // admitted (queued + executing); 0 = unlimited
  double default_timeout_ms = 0.0;  // per-request deadline; 0 = none
  size_t cache_capacity = 1024;     // result cache entries; 0 disables
  // Batched top-k execution (docs/BATCHING.md). With batch_max_size > 1 a
  // collector thread groups admitted top-k requests behind a short
  // collection window and drives them through QueryBackend::TopKBatch —
  // one shared index traversal per batch, bit-identical results per query.
  // 1 disables batching (the default: every request executes solo).
  // Why-not requests are never batched.
  size_t batch_max_size = 1;
  // How long the collector holds an open batch waiting for more requests
  // once the first one arrives, in milliseconds. A full batch dispatches
  // immediately; 0 dispatches whatever is queued without waiting.
  double batch_window_ms = 0.25;
  // Continuous telemetry (docs/OBSERVABILITY.md "Continuous telemetry"):
  // always-on sampled profiling, slow-query capture, and rolling-window
  // metrics. On by default — the sampling-overhead CI gate holds the
  // default rate to <= 1.05x of a telemetry-off service. Set
  // telemetry.enabled = false for measurement runs that must exclude it.
  TelemetryConfig telemetry;
};

// Per-request knobs.
struct RequestOptions {
  // Overrides the service default deadline; < 0 uses the default, 0
  // disables the deadline for this request.
  double timeout_ms = -1.0;
  // Optional client-side cancellation; combined with the deadline.
  CancelToken cancel;
  // Skip cache lookup AND insertion (measurement / debugging).
  bool bypass_cache = false;
};

class QueryService {
 public:
  struct TopKResponse {
    std::vector<ScoredObject> results;
    bool cache_hit = false;
    double latency_ms = 0.0;  // admission to completion
  };

  struct WhyNotResponse {
    WhyNotResult result;
    bool cache_hit = false;
    double latency_ms = 0.0;
  };

  struct MutationResponse {
    ObjectId id = 0;                // assigned (insert) or targeted id
    uint64_t dataset_version = 0;   // backend version after the mutation
    double latency_ms = 0.0;
  };

  // `backend` is borrowed and must outlive the service.
  QueryService(const QueryBackend* backend, const QueryServiceConfig& config);
  // Convenience for the common static-engine case (WhyNotEngine is a
  // QueryBackend; mutations will return kFailedPrecondition).
  QueryService(const WhyNotEngine* engine, const QueryServiceConfig& config)
      : QueryService(static_cast<const QueryBackend*>(engine), config) {}

  // Drains: blocks until every admitted request has completed.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Asynchronous entry points. The returned future is always fulfilled —
  // with kResourceExhausted immediately when admission rejects the
  // request, with kCancelled / kDeadlineExceeded when its token fires, or
  // with the answer.
  std::future<StatusOr<TopKResponse>> SubmitTopK(
      const SpatialKeywordQuery& query, const RequestOptions& opts = {});
  std::future<StatusOr<WhyNotResponse>> SubmitWhyNot(
      WhyNotAlgorithm algorithm, const SpatialKeywordQuery& query,
      const std::vector<ObjectId>& missing, const WhyNotOptions& options,
      const RequestOptions& opts = {});

  // Blocking conveniences.
  StatusOr<TopKResponse> TopK(const SpatialKeywordQuery& query,
                              const RequestOptions& opts = {}) {
    return SubmitTopK(query, opts).get();
  }
  StatusOr<WhyNotResponse> WhyNot(WhyNotAlgorithm algorithm,
                                  const SpatialKeywordQuery& query,
                                  const std::vector<ObjectId>& missing,
                                  const WhyNotOptions& options,
                                  const RequestOptions& opts = {}) {
    return SubmitWhyNot(algorithm, query, missing, options, opts).get();
  }

  // Synchronous mutation entry points. kFailedPrecondition on read-only
  // backends. A successful mutation bumps the backend's dataset version,
  // which every cache key embeds — cached pre-mutation answers become
  // unreachable immediately (and age out of the LRU).
  StatusOr<MutationResponse> Insert(Point location,
                                    const std::vector<std::string>& keywords);
  StatusOr<MutationResponse> Update(ObjectId id, Point location,
                                    const std::vector<std::string>& keywords);
  StatusOr<MutationResponse> Delete(ObjectId id);

  // Admitted requests not yet completed (racy diagnostic).
  size_t inflight() const {
    return static_cast<size_t>(inflight_.load(std::memory_order_relaxed));
  }

  MetricsRegistry& metrics() { return metrics_; }
  const ResultCache& cache() const { return cache_; }
  const QueryServiceConfig& config() const { return config_; }
  // Continuous-telemetry hub: sampled profiles, the slow-query ring, and
  // rolling-window rates. nullptr when config.telemetry.enabled is false.
  TelemetryHub* telemetry() const { return telemetry_.get(); }

  // The service's whole observable state as one table: every registered
  // counter and histogram, then result-cache, engine I/O, segment, shard,
  // node-cache, batching, telemetry, rolling-window, pool, inflight,
  // process and build rows (docs/OBSERVABILITY.md "One snapshot, two
  // views").
  MetricsSnapshot Snapshot() const;

  // The snapshot's two views: human text and Prometheus exposition.
  std::string MetricsReport() const { return Snapshot().Text(); }
  std::string PrometheusReport() const { return Snapshot().Prometheus(); }

 private:
  // The per-kind part of the request pipeline: the arguments, the
  // fingerprint and cache validator, the backend call, and the response /
  // cache-entry field the answer fills. Everything else (Submit,
  // ExecuteSolo, Finish) is shared by both kinds.
  struct TopKCall {
    using Response = TopKResponse;
    static constexpr ProfileKind kKind = ProfileKind::kTopK;
    static constexpr auto kResult = &TopKResponse::results;
    static constexpr auto kCached = &ResultCache::Entry::topk;
    SpatialKeywordQuery query;

    Status Validate() const { return ValidateTopKQuery(query); }
    const char* Algorithm() const { return "topk"; }
    bool ServiceTraced() const { return true; }
    std::string Fingerprint(uint64_t topology) const {
      return FingerprintTopK(query, topology);
    }
    bool CacheValid(const QueryBackend& backend,
                    const ResultCache::Entry& e) const {
      return backend.TopKCacheValid(e.versions, query, e.topk);
    }
    StatusOr<std::vector<ScoredObject>> Run(const QueryBackend& backend,
                                            const CancelToken* token,
                                            TraceRecorder* trace) const {
      return backend.TopK(query, token, trace);
    }
  };
  struct WhyNotCall {
    using Response = WhyNotResponse;
    static constexpr ProfileKind kKind = ProfileKind::kWhyNot;
    static constexpr auto kResult = &WhyNotResponse::result;
    static constexpr auto kCached = &ResultCache::Entry::whynot;
    WhyNotAlgorithm algorithm = WhyNotAlgorithm::kBasic;
    SpatialKeywordQuery query;
    std::vector<ObjectId> missing;
    WhyNotOptions options;

    Status Validate() const { return Status::Ok(); }
    const char* Algorithm() const { return WhyNotAlgorithmName(algorithm); }
    // A client-supplied recorder may span several requests: it replaces
    // the service's own, so it is never absorbed into the stage metrics
    // or sampled into a profile.
    bool ServiceTraced() const { return options.trace == nullptr; }
    std::string Fingerprint(uint64_t topology) const {
      return FingerprintWhyNot(algorithm, query, missing, options, topology);
    }
    bool CacheValid(const QueryBackend& backend,
                    const ResultCache::Entry& e) const {
      return backend.WhyNotCacheValid(e.versions);
    }
    StatusOr<WhyNotResult> Run(const QueryBackend& backend,
                               const CancelToken* token,
                               TraceRecorder* trace) const {
      WhyNotOptions effective = options;
      effective.cancel = token;
      if (ServiceTraced()) effective.trace = trace;
      return backend.Answer(algorithm, query, missing, effective);
    }
  };

  // One admitted request from submission to Finish, shared by the
  // submitting thread and whichever task (solo or batch) executes it.
  template <typename Call>
  struct Request {
    Call call;
    std::promise<StatusOr<typename Call::Response>> promise;
    CancelToken token;
    std::string key;  // cache fingerprint; empty = bypass_cache
    Timer timer;      // started at submission; end-to-end latency
  };
  using TopKRequest = Request<TopKCall>;

  // Shared tail of the three mutation entry points, timed from `timer`;
  // `kind` is the kMutationsInsert/Update/Delete slot.
  StatusOr<MutationResponse> FinishMutation(const Timer& timer,
                                            StatusOr<ObjectId> outcome,
                                            size_t kind);
  // Writes one finished unit of work — a solo request, a batch dispatch, a
  // request that executed nothing itself (cache hit, fail fast, batch
  // member), or an admission rejection — into every sink: responses.*,
  // the latency histogram of its kind, stage.*, prune.* and
  // trace.dropped_events from its recorder's copy, and the telemetry hub.
  // `status` is its terminal status, stamped into the profile here.
  void Observe(QueryProfile profile, const Status& status);

  // The request pipeline (docs/SERVICE.md "Life of a request"). Submit
  // admits (max_inflight), validates, fails fast, looks the answer up in
  // the cache, and hands a miss to its execution strategy: a pool task
  // running ExecuteSolo, or the batch collector.
  template <typename Call>
  std::future<StatusOr<typename Call::Response>> Submit(
      Call call, const RequestOptions& opts);
  // Pickup of one request: fail fast, capture versions, execute, insert
  // the answer into the cache, Finish.
  template <typename Call>
  void ExecuteSolo(Request<Call>& request);
  // Runs `run(TraceRecorder*)` under a fresh recorder (event capacity per
  // the sampling decision when `sample`), fills `profile` with the wall
  // time, the recorder's contents and the io_* reads, and adds the I/O to
  // the io.* counters — on every outcome, so reads by a request that ends
  // in an error still count. An escaping exception becomes kInternal. I/O
  // attribution is approximate under concurrency (overlapping queries see
  // each other's reads); the engine_io rows of Snapshot() are exact.
  template <typename Fn>
  auto Execute(bool sample, QueryProfile* profile, Fn&& run)
      -> decltype(run(nullptr));
  // The one cache insertion: a computed answer under `key` (no-op when
  // empty), stamped with the versions captured before it ran.
  template <typename Call, typename Value>
  void Remember(const std::string& key, const Value& value,
                std::vector<uint64_t> versions);
  // A request's terminal outcome: completes its profile (`executed` is
  // null when the request itself executed nothing — cache hit, fail fast,
  // admission rejection, answered by a batch), observes it, frees the
  // inflight slot and fulfils the promise.
  template <typename Call>
  void Finish(Request<Call>& request,
              StatusOr<typename Call::Response> outcome,
              QueryProfile* executed);

  // Collector thread body: waits for pending requests, holds the batch
  // open for up to batch_window_ms (or until batch_max_size), then hands
  // the batch to the worker pool for execution.
  void BatchCollectorLoop();
  // Executes one formed batch: per-item fail-fast, within-batch dedupe by
  // fingerprint, one QueryBackend::TopKBatch call, cache insertion (one
  // per unique fingerprint), and Finish per request.
  void ExecuteTopKBatch(std::vector<std::shared_ptr<TopKRequest>> batch);

  const QueryBackend* const backend_;
  const QueryServiceConfig config_;
  MetricsRegistry metrics_;
  ResultCache cache_;
  std::atomic<int64_t> inflight_{0};

  // Hot-path metrics, interned once at construction from the name tables
  // in query_service.cc (registry lookups take the registry mutex; the
  // request path must not). A run of slots is indexed by ProfileKind
  // (requests, latencies; a batch dispatch's latency is
  // bg.collector.exec.ms), ResponseSlot() or kBackendIoFields. Batching
  // (docs/BATCHING.md) counts batches dispatched, requests routed through
  // them, duplicates answered by a shared execution, solo re-runs after a
  // representative's cancellation, and batches handed to the pool; it
  // records each batch's size and how long its window held it.
  enum CounterSlot : size_t {
    kRequestsTotal,
    kRequests,  // + ProfileKind (topk, whynot)
    kResponses = kRequests + 2,
    kIo = kResponses + 5,
    kMutationsInsert = kIo + std::size(kBackendIoFields),
    kMutationsUpdate, kMutationsDelete, kMutationsFailed,
    kBatchBatches, kBatchQueries, kBatchDedup, kBatchFallbackSolo,
    kCollectorDispatches,
    kTraceDropped,  // events the bounded trace buffers had to discard
    kNumCounterSlots
  };
  enum HistogramSlot : size_t {
    kLatency,  // + ProfileKind (topk, whynot, batch)
    kMutationLatency = kLatency + 3,
    kBatchOccupancy, kBatchWindowWait,
    kNumHistogramSlots
  };
  Counter* counters_[kNumCounterSlots] = {};
  LatencyHistogram* histograms_[kNumHistogramSlots] = {};
  // Indexed by TraceStage / TraceCounter.
  LatencyHistogram* stage_hist_[kNumTraceStages] = {};
  Counter* prune_counter_[kNumTraceCounters] = {};
  // Constructed iff config.telemetry.enabled. Declared before pool_ so
  // draining workers can still report completions during teardown.
  std::unique_ptr<TelemetryHub> telemetry_;
  // Batch collector state. The queue is bounded indirectly by
  // max_inflight (only admitted requests enqueue); the collector thread is
  // joined in the destructor before the pool drains.
  mutable std::mutex batch_mu_;
  std::condition_variable batch_cv_;
  std::deque<std::shared_ptr<TopKRequest>> batch_queue_;
  bool batch_stop_ = false;
  // Declared last so teardown destroys it first: workers drain while the
  // metrics/cache members their tasks touch are still alive.
  std::unique_ptr<ThreadPool> pool_;
  std::thread batch_collector_;  // joined explicitly before pool_ resets
};

}  // namespace wsk

#endif  // WSK_SERVICE_QUERY_SERVICE_H_
