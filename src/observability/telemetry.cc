#include "observability/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <iterator>
#include <utility>

#if defined(__linux__)
#include <unistd.h>
#endif

namespace wsk {

namespace {

// Captured during static initialization — effectively process start.
const std::chrono::steady_clock::time_point kProcessEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double ProcessUptimeSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessEpoch)
      .count();
}

uint64_t ProcessResidentBytes() {
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long long pages = 0, resident = 0;
    const int fields = std::fscanf(f, "%llu %llu", &pages, &resident);
    std::fclose(f);
    if (fields == 2) {
      return static_cast<uint64_t>(resident) *
             static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
    }
  }
#endif
  return 0;
}

const char* ProfileKindName(ProfileKind kind) {
  constexpr const char* kNames[] = {"topk", "whynot", "batch"};
  const size_t i = static_cast<size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "unknown";
}

double QueryProfile::StageSumMs() const {
  uint64_t total_us = 0;
  for (size_t i = 0; i < kNumTraceStages; ++i) total_us += stage_total_us[i];
  return static_cast<double>(total_us) / 1000.0;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"id\":%" PRIu64 ",\"kind\":\"%s\"", id,
                ProfileKindName(kind));
  out += buf;
  out += ",\"algorithm\":\"";
  AppendJsonEscaped(algorithm, &out);
  std::snprintf(buf, sizeof(buf),
                "\",\"fingerprint\":\"%016" PRIx64 "\",\"status\":\"",
                fingerprint);
  out += buf;
  AppendJsonEscaped(status, &out);
  std::snprintf(buf, sizeof(buf),
                "\",\"ok\":%s,\"cache_hit\":%s,\"sampled\":%s,\"slow\":%s,"
                "\"wall_ms\":%.3f,\"queue_ms\":%.3f",
                ok ? "true" : "false", cache_hit ? "true" : "false",
                sampled ? "true" : "false", slow ? "true" : "false", wall_ms,
                queue_ms);
  out += buf;
  out += ",\"stages\":{";
  bool first = true;
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    if (stage_count[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"count\":%" PRIu64 ",\"total_ms\":%.3f}",
                  TraceStageName(static_cast<TraceStage>(i)), stage_count[i],
                  static_cast<double>(stage_total_us[i]) / 1000.0);
    out += buf;
  }
  out += "},\"counters\":{";
  first = true;
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    if (counters[i] == 0) continue;
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64,
                  TraceCounterName(static_cast<TraceCounter>(i)), counters[i]);
    out += buf;
  }
  out += "}";
  std::snprintf(buf, sizeof(buf),
                ",\"io\":{\"physical\":%" PRIu64 ",\"mapped\":%" PRIu64
                ",\"node_cache_hits\":%" PRIu64 "},\"dropped_events\":%" PRIu64
                "}",
                io_physical, io_mapped, io_cache_hits, dropped_events);
  out += buf;
  return out;
}

void QueryProfile::Absorb(const TraceRecorder& trace) {
  for (size_t i = 0; i < kNumTraceStages; ++i) {
    stage_total_us[i] = trace.StageTotalUs(static_cast<TraceStage>(i));
    stage_count[i] = trace.StageCount(static_cast<TraceStage>(i));
  }
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    counters[i] = trace.counter(static_cast<TraceCounter>(i));
  }
  dropped_events = trace.dropped_events();
  if (trace.event_capacity() > 0) {
    sampled = true;
    events = trace.Events();
  }
}

std::string QueryProfile::ToChromeTraceJson() const {
  return ChromeTraceJsonFromEvents(events, counters, dropped_events);
}

std::string QueryProfile::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "#%-5" PRIu64 " %-6s %-8s %-18s wall %9.3f ms  queue %7.3f ms"
                "  stages %9.3f ms  events %zu%s%s",
                id, ProfileKindName(kind), algorithm.c_str(), status.c_str(),
                wall_ms, queue_ms, StageSumMs(), events.size(),
                sampled ? "  [sampled]" : "", slow ? "  [slow]" : "");
  return buf;
}

RollingWindows::RollingWindows() : epoch_(std::chrono::steady_clock::now()) {}

uint64_t RollingWindows::NowSeconds() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

RollingWindows::Slot& RollingWindows::Claim(uint64_t now_s) {
  Slot& slot = slots_[now_s % kSlots];
  uint64_t tag = slot.second.load(std::memory_order_relaxed);
  while (tag != now_s) {
    // One writer wins the CAS and zeroes the stale slot; losers observe
    // the new tag and just increment. A loser that increments before the
    // winner finishes zeroing loses that increment — accepted slack.
    if (slot.second.compare_exchange_weak(tag, now_s,
                                          std::memory_order_relaxed)) {
      slot.shed.store(0, std::memory_order_relaxed);
      slot.cache_hits.store(0, std::memory_order_relaxed);
      for (size_t i = 0; i < kLatencyBuckets; ++i) {
        slot.lat_buckets[i].store(0, std::memory_order_relaxed);
      }
      break;
    }
  }
  return slot;
}

void RollingWindows::RecordRequest(bool cache_hit, double latency_ms) {
  Slot& slot = Claim(NowSeconds());
  if (cache_hit) slot.cache_hits.fetch_add(1, std::memory_order_relaxed);
  slot.lat_buckets[LatencyBucketIndex(latency_ms)].fetch_add(
      1, std::memory_order_relaxed);
}

void RollingWindows::RecordShed() {
  Claim(NowSeconds()).shed.fetch_add(1, std::memory_order_relaxed);
}

RollingWindows::Snapshot RollingWindows::Take(uint64_t window_s) const {
  Snapshot snap;
  snap.window_s = window_s;
  if (window_s == 0) return snap;
  const uint64_t now_s = NowSeconds();
  const uint64_t oldest = now_s >= window_s - 1 ? now_s - (window_s - 1) : 0;
  uint64_t buckets[kLatencyBuckets] = {};
  for (uint64_t s = oldest; s <= now_s; ++s) {
    const Slot& slot = slots_[s % kSlots];
    if (slot.second.load(std::memory_order_relaxed) != s) continue;
    snap.shed += slot.shed.load(std::memory_order_relaxed);
    snap.cache_hits += slot.cache_hits.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kLatencyBuckets; ++i) {
      const uint64_t n = slot.lat_buckets[i].load(std::memory_order_relaxed);
      buckets[i] += n;
      snap.requests += n;
    }
  }
  snap.qps =
      static_cast<double>(snap.requests) / static_cast<double>(window_s);
  const uint64_t offered = snap.requests + snap.shed;
  if (offered > 0) {
    snap.shed_ratio =
        static_cast<double>(snap.shed) / static_cast<double>(offered);
  }
  if (snap.requests > 0) {
    snap.hit_ratio = static_cast<double>(snap.cache_hits) /
                     static_cast<double>(snap.requests);
    snap.p50_ms = LatencyQuantileMs(buckets, snap.requests, 0.50);
    snap.p99_ms = LatencyQuantileMs(buckets, snap.requests, 0.99);
  }
  return snap;
}

TelemetryHub::TelemetryHub(const TelemetryConfig& config)
    : config_(config),
      slow_threshold_us_(static_cast<uint64_t>(
          config.slow_min_ms > 0.0 ? config.slow_min_ms * 1000.0 : 0.0)) {
  if (!config_.slow_log_path.empty()) {
    slow_sink_ = std::fopen(config_.slow_log_path.c_str(), "a");
  }
}

TelemetryHub::~TelemetryHub() {
  if (slow_sink_ != nullptr) std::fclose(slow_sink_);
}

size_t TelemetryHub::NextEventCapacity() {
  const uint64_t n =
      decision_counter_.fetch_add(1, std::memory_order_relaxed);
  if (config_.sample_every <= 1 || n % config_.sample_every == 0) {
    return config_.profile_event_capacity;
  }
  return 0;
}

void TelemetryHub::RefreshThreshold() {
  if (config_.slow_factor <= 0.0) return;  // fixed floor only
  const RollingWindows::Snapshot w = windows_.Take(60);
  double threshold_ms = config_.slow_min_ms;
  if (w.requests > 0) {
    threshold_ms = std::max(threshold_ms, config_.slow_factor * w.p99_ms);
  }
  slow_threshold_us_.store(
      static_cast<uint64_t>(threshold_ms > 0.0 ? threshold_ms * 1000.0 : 0.0),
      std::memory_order_relaxed);
}

void TelemetryHub::Retain(std::deque<QueryProfile>* ring, size_t capacity,
                          QueryProfile profile) {
  if (capacity == 0) return;
  if (ring->size() == capacity) ring->pop_front();
  ring->push_back(std::move(profile));
}

void TelemetryHub::Report(QueryProfile profile) {
  profile.id = reports_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Batch dispatches are background work covering many client requests
  // (each of which reports its own completion): they may be sampled into
  // the reservoir but never count as observed requests, feed the
  // per-request windows or the slow classification. Those read end-to-end
  // latency, as the latency.* histograms do: an executed request's wall
  // plus its queue wait (a request that executed nothing carries it all as
  // wall_ms).
  const bool background = profile.kind == ProfileKind::kBatch;
  const double latency_ms = profile.wall_ms + profile.queue_ms;
  if (!background) {
    completions_.fetch_add(1, std::memory_order_relaxed);
    windows_.RecordRequest(profile.cache_hit, latency_ms);
  }
  const uint64_t threshold_us =
      slow_threshold_us_.load(std::memory_order_relaxed);
  profile.slow = !background &&
                 latency_ms * 1000.0 >= static_cast<double>(threshold_us) &&
                 threshold_us > 0;
  if (profile.sampled) profiles_sampled_.fetch_add(1, std::memory_order_relaxed);
  if (profile.slow) slow_queries_.fetch_add(1, std::memory_order_relaxed);
  if ((profile.id & kThresholdRefreshMask) == 0) RefreshThreshold();
  if (!profile.sampled && !profile.slow) return;

  std::lock_guard<std::mutex> lock(capture_mu_);
  if (profile.slow) {
    QueryProfile record = profile;
    record.events.clear();  // slow ring keeps the breakdown, not the events
    if (slow_sink_ != nullptr) {
      const std::string line = record.ToJson();
      std::fwrite(line.data(), 1, line.size(), slow_sink_);
      std::fputc('\n', slow_sink_);
      std::fflush(slow_sink_);
    }
    Retain(&slow_ring_, config_.slow_log_capacity, std::move(record));
  }
  if (profile.sampled) {
    Retain(&reservoir_, config_.profile_reservoir, std::move(profile));
  }
}

void TelemetryHub::ReportShed() { windows_.RecordShed(); }

std::vector<QueryProfile> TelemetryHub::Profiles() const {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return {reservoir_.begin(), reservoir_.end()};
}

std::vector<QueryProfile> TelemetryHub::SlowQueries() const {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return {slow_ring_.begin(), slow_ring_.end()};
}

TelemetryStats TelemetryHub::stats() const {
  TelemetryStats stats;
  stats.requests_observed = completions_.load(std::memory_order_relaxed);
  stats.profiles_sampled = profiles_sampled_.load(std::memory_order_relaxed);
  stats.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  stats.slow_threshold_ms = slow_threshold_ms();
  std::lock_guard<std::mutex> lock(capture_mu_);
  stats.reservoir_size = reservoir_.size();
  stats.slow_log_size = slow_ring_.size();
  return stats;
}

}  // namespace wsk
