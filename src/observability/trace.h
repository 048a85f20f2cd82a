// Per-query tracing: wall-time spans and pruning-effectiveness counters
// for the why-not algorithms and the top-k traversals beneath them.
//
// Design constraints (docs/OBSERVABILITY.md):
//   - Disabled is free. Every instrumentation site receives a
//     `TraceRecorder*` that is nullptr by default; TraceSpan then reads no
//     clock and touches no memory beyond the pointer test, and counter
//     flushes are skipped entirely. The CI trace-overhead gate holds the
//     disabled path to the bench baseline.
//   - Enabled is cheap and thread-safe. Counters are relaxed atomics;
//     spans append to a bounded, pre-allocated event buffer through a
//     relaxed fetch_add index. When the buffer fills, further events are
//     dropped (and counted) instead of wrapping — a dropped tail is easier
//     to reason about in a profile than interleaved overwrites, and it
//     keeps writers free of any writer/writer coordination.
//   - Aggregation works without events. Per-stage wall-time totals and
//     span counts are tracked in atomics independent of the event buffer,
//     so a recorder built with event_capacity = 0 (QueryService's
//     aggregation mode) costs two fetch_adds per span and nothing else.
//
// Readers (Events(), exporters) expect a quiescent recorder — export after
// the traced query returns, not concurrently with it.
#ifndef WSK_OBSERVABILITY_TRACE_H_
#define WSK_OBSERVABILITY_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace wsk {

// Span taxonomy. One enum value per algorithm stage; the glossary in
// docs/OBSERVABILITY.md maps each to the paper's pseudocode.
enum class TraceStage : uint8_t {
  kQuery = 0,        // root span: one whole why-not / top-k invocation
  kInitialRank,      // R(M, q) under the original query (Alg. 2/4 line 1)
  kEnumeration,      // candidate enumeration + Opt2 ordering
  kCandidateEval,    // one BS/AdvancedBS candidate, end to end
  kDominatorProbe,   // Opt3 cached-dominator re-scoring for one candidate
  kRankQuery,        // one rank traversal (Eqn 3, bounded per Eqn 6)
  kBatch,            // one KcR Algorithm 3 batch traversal
  kLeafScoring,      // exact scoring of a KcR leaf against the batch
  kBoundTightening,  // KcR child MaxDom/MinDom bounds + reassessment
  kTopK,             // stand-alone top-k traversal (service / CLI)
  kExplain,          // ExplainMiss annotation scope
  kDeltaScan,        // linear scan of in-memory delta segments (live path)
  kShardVisit,       // one shard's top-k under the scatter-gather fan-out
  kBatchTopK,        // one multi-query shared traversal (docs/BATCHING.md)
};
inline constexpr size_t kNumTraceStages = 14;
const char* TraceStageName(TraceStage stage);

// Pruning-effectiveness counters. The candidate family satisfies
//   enumerated = kept + pruned_early_stop + pruned_dominator
// and the node family satisfies
//   nodes_seen = nodes_visited + nodes_pruned
// whenever a query runs to completion (asserted by tests/trace_e2e_test).
enum class TraceCounter : uint8_t {
  kCandidatesEnumerated = 0,  // candidate sets produced by the enumerator
  kCandidatesKept,            // evaluated to a rank / converged bounds
  kCandidatesPrunedEarlyStop,  // Eqn 6 bound, order stop, KcR bound prune
  kCandidatesPrunedDominator,  // Opt3 dominator-cache filtering
  kNodesSeen,          // index nodes considered (enqueued or bounded)
  kNodesVisited,       // index nodes expanded (one page/cache access each)
  kNodesPruned,        // seen but never expanded (bound or termination)
  kLeafObjectsScored,  // objects exactly scored during traversals
  kDominatorCacheProbes,  // cached dominators re-scored by Opt3
  kKernelInvocations,     // bitmask-kernel scoring calls (docs/PERF.md)
  kBatches,               // KcR Algorithm 3 traversals run
  kBatchCandidates,       // candidates entering those traversals
  kDeltaObjectsScanned,   // delta-segment objects scored by a live query
  kSegmentsVisited,       // segments consulted by a live query
  kShardsVisited,         // shards whose top-k actually ran (scatter-gather)
  kShardsPruned,          // shards skipped by the cross-shard MaxScore bound
  kBatchQueries,          // queries answered by a shared batched traversal
  kBatchNodesExpanded,    // physical node expansions a batched walk performed
  kBatchNodesShared,      // per-query node openings served by those
                          // expansions beyond the first (amortized accesses)
};
inline constexpr size_t kNumTraceCounters = 19;
const char* TraceCounterName(TraceCounter counter);

// Appends `s` to `out` as the inside of a JSON string: quote, backslash,
// newline and tab take their short escapes, other control bytes \u00XX.
// The one escaper behind the trace, slow-log and bench JSON writers.
void AppendJsonEscaped(std::string_view s, std::string* out);

struct TraceEvent {
  TraceStage stage = TraceStage::kQuery;
  bool instant = false;  // annotation rather than a duration span
  uint32_t tid = 0;      // stable hash of the recording thread's id
  uint64_t start_us = 0;  // microseconds since the recorder's epoch
  uint64_t dur_us = 0;    // 0 for instants
  int64_t arg = -1;       // optional numeric payload (object id, count, …)
  std::string detail;     // optional annotation text
};

// Chrome trace-event JSON ({"traceEvents": [...]}) over an event list plus
// the counter table (appended as one trailing instant event, stamped at the
// end of the last stored event so identical inputs serialize to identical
// bytes). Shared by TraceRecorder::ToChromeTraceJson and the telemetry
// layer's retained QueryProfile exports.
std::string ChromeTraceJsonFromEvents(const std::vector<TraceEvent>& events,
                                      const uint64_t (&counters)[kNumTraceCounters],
                                      uint64_t dropped_events);

class TraceRecorder {
 public:
  static constexpr size_t kDefaultEventCapacity = 1 << 14;

  // `event_capacity` bounds the stored events; 0 keeps only counters and
  // per-stage totals (the cheapest aggregation-only mode).
  explicit TraceRecorder(size_t event_capacity = kDefaultEventCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  // --- write side (thread-safe, wait-free) ---

  void Add(TraceCounter counter, uint64_t delta = 1) {
    counters_[static_cast<size_t>(counter)].fetch_add(
        delta, std::memory_order_relaxed);
  }

  // Microseconds since the recorder's construction.
  uint64_t NowUs() const;

  // Records a completed span; normally called by ~TraceSpan.
  void RecordSpan(TraceStage stage, uint64_t start_us, uint64_t end_us);

  // Records an instant annotation event (e.g. one ExplainMiss verdict).
  void Annotate(TraceStage stage, std::string detail, int64_t arg = -1);

  // --- read side (quiescent recorder only) ---

  uint64_t counter(TraceCounter counter) const {
    return counters_[static_cast<size_t>(counter)].load(
        std::memory_order_relaxed);
  }
  uint64_t StageTotalUs(TraceStage stage) const {
    return stage_total_us_[static_cast<size_t>(stage)].load(
        std::memory_order_relaxed);
  }
  uint64_t StageCount(TraceStage stage) const {
    return stage_count_[static_cast<size_t>(stage)].load(
        std::memory_order_relaxed);
  }

  size_t event_capacity() const { return capacity_; }
  size_t num_events() const;
  uint64_t dropped_events() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  // Stored events in recording order.
  std::vector<TraceEvent> Events() const;

  // Chrome trace-event JSON ({"traceEvents": [...]}), loadable in Perfetto
  // or chrome://tracing. Counters ride along as one final instant event.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  // Human-readable stage/counter table for CLI output.
  std::string Summary() const;

 private:
  static uint32_t CurrentTid();

  const std::chrono::steady_clock::time_point epoch_;
  const size_t capacity_;
  std::vector<TraceEvent> events_;  // pre-allocated slots [0, capacity_)
  std::atomic<uint64_t> next_{0};   // next free slot (may overshoot)
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> counters_[kNumTraceCounters] = {};
  std::atomic<uint64_t> stage_total_us_[kNumTraceStages] = {};
  std::atomic<uint64_t> stage_count_[kNumTraceStages] = {};
};

// RAII scope for one stage. With a null recorder the constructor and
// destructor reduce to a pointer test — no clock read, no stores.
class TraceSpan {
 public:
  TraceSpan(TraceRecorder* recorder, TraceStage stage)
      : recorder_(recorder), stage_(stage) {
    if (recorder_ != nullptr) start_us_ = recorder_->NowUs();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (recorder_ != nullptr) {
      recorder_->RecordSpan(stage_, start_us_, recorder_->NowUs());
    }
  }

 private:
  TraceRecorder* recorder_;
  TraceStage stage_;
  uint64_t start_us_ = 0;
};

}  // namespace wsk

#endif  // WSK_OBSERVABILITY_TRACE_H_
