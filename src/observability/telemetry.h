// Continuous telemetry: always-on sampled query profiles, slow-query
// capture, and rolling-window metrics (docs/OBSERVABILITY.md "Continuous
// telemetry").
//
// The hub sits beside the per-query TraceRecorder machinery (trace.h) and
// turns individual request completions into an operator-facing stream:
//
//   - Sampled profiling. A lock-light decision picks every Nth executed
//     request (one relaxed fetch_add) to carry an event-capacity
//     TraceRecorder instead of the capacity-0 aggregation recorder every
//     request already gets. Completed profiles land in a fixed-size ring
//     reservoir, queryable via `wsk_cli profiles` and dumpable as Chrome
//     trace-event JSON.
//   - Tail capture. Every completed request compares its end-to-end
//     latency (execution wall plus queue wait) against a rolling threshold
//     max(slow_min_ms, slow_factor x rolling-60s p99); requests over it
//     are appended to a bounded slow-query ring as structured records
//     (fingerprint, algorithm, per-stage wall breakdown, pruning counters,
//     io disposition) and streamed as JSONL when a sink path is configured
//     — the replayable workload feed the ROADMAP's tuner item asks for.
//   - Rolling windows. A ring of per-second slots aggregates request /
//     shed / cache-hit counts and latency buckets; 1s/10s/60s snapshots
//     export as wsk_window_* gauges and drive `wsk_cli statsz --top`.
//
// Thread safety: Report()/ReportShed()/NextEventCapacity() are safe for
// concurrent callers and wait-free except when a capture fires (reservoir
// and slow-log appends take a mutex; at sampled/tail rates that is rare by
// construction). Readers (Profiles(), SlowQueries(), Window()) may run
// concurrently with writers and see a mildly stale snapshot.
#ifndef WSK_OBSERVABILITY_TELEMETRY_H_
#define WSK_OBSERVABILITY_TELEMETRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "observability/histogram.h"
#include "observability/trace.h"

namespace wsk {

struct TelemetryConfig {
  // Master switch: disabled constructs no hub and every instrumentation
  // site reduces to a null-pointer test.
  bool enabled = true;
  // Every Nth executed request carries a full event-profile recorder
  // (0 or 1 = profile every request; useful for tests and `wsk_cli
  // profiles`).
  uint64_t sample_every = 1024;
  // Event capacity of a sampled request's recorder.
  size_t profile_event_capacity = 4096;
  // Completed sampled/slow profiles retained (ring of the most recent).
  size_t profile_reservoir = 32;
  // Slow-query records retained in memory (ring of the most recent).
  size_t slow_log_capacity = 256;
  // A request is slow when its end-to-end latency reaches
  // max(slow_min_ms, slow_factor * rolling-60s p99). slow_factor <= 0
  // disables the p99 term (the floor alone decides).
  double slow_factor = 2.0;
  double slow_min_ms = 50.0;
  // When non-empty, every slow-query record is appended to this file as
  // one JSON line at capture time (JSONL stream for offline replay).
  std::string slow_log_path;
};

// What kind of work a profile describes.
enum class ProfileKind : uint8_t { kTopK, kWhyNot, kBatch };
const char* ProfileKindName(ProfileKind kind);

// One completed request's telemetry snapshot: metadata plus the counters,
// stage totals, and (for sampled requests) the event buffer of its
// TraceRecorder. Used both as the reservoir entry and as the slow-query
// record; the slow-query JSONL serialization omits the events.
struct QueryProfile {
  uint64_t id = 0;  // hub-assigned completion ordinal
  ProfileKind kind = ProfileKind::kTopK;
  std::string algorithm;    // "topk", "bs", "advanced", "kcr", "batch"
  uint64_t fingerprint = 0;  // hash of the cache key; 0 = bypass/none
  std::string status;        // terminal status code name
  bool ok = false;
  bool cache_hit = false;
  bool sampled = false;  // carried an event-capacity recorder
  bool slow = false;     // exceeded the rolling slow threshold
  double wall_ms = 0.0;   // execution wall (around the backend call)
  double queue_ms = 0.0;  // admission -> execution start
  // Request-attributed I/O deltas (approximate under concurrency, exactly
  // as the io.* registry counters are).
  uint64_t io_physical = 0;
  uint64_t io_mapped = 0;
  uint64_t io_cache_hits = 0;
  // Copied from the request's recorder by Absorb().
  uint64_t stage_total_us[kNumTraceStages] = {};
  uint64_t stage_count[kNumTraceStages] = {};
  uint64_t counters[kNumTraceCounters] = {};
  uint64_t dropped_events = 0;
  std::vector<TraceEvent> events;  // empty for aggregation-only recorders

  // Copies a finished, quiescent recorder's stage totals, counters and
  // dropped-event count, plus its events when it had an event buffer
  // (which marks the profile sampled). The one place a request's recorder
  // is read: every sink is then fed from the profile.
  void Absorb(const TraceRecorder& trace);
  // Sum of all stage wall totals in milliseconds. Nested spans overlap
  // their parents, so this is >= the root span's coverage of wall_ms.
  double StageSumMs() const;
  // One structured JSON object (single line, no trailing newline):
  // metadata, non-zero stages, non-zero counters, io. The slow-query
  // JSONL format.
  std::string ToJson() const;
  // Chrome trace-event JSON of the stored events (sampled profiles).
  std::string ToChromeTraceJson() const;
  // One human-readable line for `wsk_cli profiles` listings.
  std::string Summary() const;
};

// Sliding per-second aggregation. 64 slots cover the 60 s window with
// headroom; a writer landing on a slot tagged with a stale second CASes
// the tag forward and zeroes the slot. Readers sum only slots whose tag
// falls inside the requested window, so an idle second contributes
// nothing. Counts may be mildly inconsistent around a slot reset (a racing
// writer's increment can land mid-zeroing) — the same tolerance every
// relaxed-atomic metric in the system already has.
class RollingWindows {
 public:
  static constexpr size_t kSlots = 64;

  struct Snapshot {
    uint64_t window_s = 0;
    uint64_t requests = 0;  // one latency sample each
    uint64_t shed = 0;
    uint64_t cache_hits = 0;
    double qps = 0.0;
    double shed_ratio = 0.0;   // shed / (requests + shed)
    double hit_ratio = 0.0;    // cache_hits / requests
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };

  RollingWindows();

  // One completed request (not shed). `latency_ms` (end to end, queue wait
  // included) feeds the window latency quantiles.
  void RecordRequest(bool cache_hit, double latency_ms);
  // One admission rejection.
  void RecordShed();

  // Aggregate over the last `window_s` seconds (<= kSlots - 2; 1, 10 and
  // 60 are the exported windows).
  Snapshot Take(uint64_t window_s) const;

 private:
  struct Slot {
    std::atomic<uint64_t> second{UINT64_MAX};
    std::atomic<uint64_t> shed{0};
    std::atomic<uint64_t> cache_hits{0};
    // One sample per completed request: their sum is the request count.
    std::atomic<uint64_t> lat_buckets[kLatencyBuckets] = {};
  };

  uint64_t NowSeconds() const;
  // Claims the slot for the current second (resetting it if stale) and
  // returns it.
  Slot& Claim(uint64_t now_s);

  const std::chrono::steady_clock::time_point epoch_;
  Slot slots_[kSlots];
};

// Point-in-time summary of the hub for reports.
struct TelemetryStats {
  uint64_t requests_observed = 0;
  uint64_t profiles_sampled = 0;
  uint64_t slow_queries = 0;
  size_t reservoir_size = 0;
  size_t slow_log_size = 0;
  double slow_threshold_ms = 0.0;
};

// Process-level gauges accompanying wsk_build_info in the Prometheus
// exposition: seconds since process start (a static-initialization epoch)
// and resident set size in bytes (/proc/self/statm; 0 where unavailable).
double ProcessUptimeSeconds();
uint64_t ProcessResidentBytes();

class TelemetryHub {
 public:
  explicit TelemetryHub(const TelemetryConfig& config);
  ~TelemetryHub();

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  // Sampling decision for one request about to execute: the event
  // capacity its TraceRecorder should be built with — the configured
  // profile capacity for every sample_every'th call, 0 (aggregation-only)
  // otherwise. One relaxed fetch_add.
  size_t NextEventCapacity();

  // Completion report of one finished profile (metadata, wall, status,
  // io, and whatever its recorder held, see QueryProfile::Absorb). The hub
  // numbers it, updates the windows, retains it when it was sampled or
  // lands over the slow threshold, and appends slow records to the JSONL
  // sink.
  void Report(QueryProfile profile);
  // Admission rejection (windows only).
  void ReportShed();

  RollingWindows::Snapshot Window(uint64_t window_s) const {
    return windows_.Take(window_s);
  }
  // Current slow-capture threshold in milliseconds.
  double slow_threshold_ms() const {
    return slow_threshold_us_.load(std::memory_order_relaxed) / 1000.0;
  }

  // Most recent retained profiles, oldest first (copies; events included).
  std::vector<QueryProfile> Profiles() const;
  // Most recent slow-query records, oldest first (events omitted).
  std::vector<QueryProfile> SlowQueries() const;
  TelemetryStats stats() const;

 private:
  // Recomputes the slow threshold from the rolling 60 s p99; called every
  // kThresholdRefreshMask+1 reports (batch dispatches included).
  void RefreshThreshold();
  // Appends to a ring of the most recent `capacity`, dropping the oldest.
  void Retain(std::deque<QueryProfile>* ring, size_t capacity,
              QueryProfile profile);

  static constexpr uint64_t kThresholdRefreshMask = 255;

  const TelemetryConfig config_;
  RollingWindows windows_;
  std::atomic<uint64_t> decision_counter_{0};
  std::atomic<uint64_t> reports_{0};      // every profile: ids, cadence
  std::atomic<uint64_t> completions_{0};  // client requests only
  std::atomic<uint64_t> profiles_sampled_{0};
  std::atomic<uint64_t> slow_queries_{0};
  std::atomic<uint64_t> slow_threshold_us_;

  mutable std::mutex capture_mu_;  // reservoir, slow ring, sink
  std::deque<QueryProfile> reservoir_;  // oldest first
  std::deque<QueryProfile> slow_ring_;  // oldest first
  std::FILE* slow_sink_ = nullptr;
};

}  // namespace wsk

#endif  // WSK_OBSERVABILITY_TELEMETRY_H_
