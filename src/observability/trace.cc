#include "observability/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <thread>

namespace wsk {

namespace {

constexpr const char* kStageNames[kNumTraceStages] = {
    "query",           "initial_rank",  "enumeration",      "candidate_eval",
    "dominator_probe", "rank_query",    "batch",            "leaf_scoring",
    "bound_tightening", "topk",         "explain",          "delta_scan",
    "shard_visit",      "batch.topk",
};

constexpr const char* kCounterNames[kNumTraceCounters] = {
    "candidates_enumerated",
    "candidates_kept",
    "candidates_pruned_early_stop",
    "candidates_pruned_dominator",
    "nodes_seen",
    "nodes_visited",
    "nodes_pruned",
    "leaf_objects_scored",
    "dominator_cache_probes",
    "kernel_invocations",
    "batches",
    "batch_candidates",
    "delta_objects_scanned",
    "segments_visited",
    "shards_visited",
    "shards_pruned",
    "batch.queries",
    "batch.nodes_expanded",
    "batch.nodes_shared",
};

}  // namespace

void AppendJsonEscaped(std::string_view s, std::string* out) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

const char* TraceStageName(TraceStage stage) {
  const size_t i = static_cast<size_t>(stage);
  return i < kNumTraceStages ? kStageNames[i] : "unknown";
}

const char* TraceCounterName(TraceCounter counter) {
  const size_t i = static_cast<size_t>(counter);
  return i < kNumTraceCounters ? kCounterNames[i] : "unknown";
}

TraceRecorder::TraceRecorder(size_t event_capacity)
    : epoch_(std::chrono::steady_clock::now()), capacity_(event_capacity) {
  events_.resize(capacity_);
}

uint64_t TraceRecorder::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

uint32_t TraceRecorder::CurrentTid() {
  const size_t h = std::hash<std::thread::id>{}(std::this_thread::get_id());
  // Fold to 31 bits: Chrome readers treat tids as signed ints.
  return static_cast<uint32_t>((h ^ (h >> 32)) & 0x7fffffff);
}

void TraceRecorder::RecordSpan(TraceStage stage, uint64_t start_us,
                               uint64_t end_us) {
  const size_t s = static_cast<size_t>(stage);
  stage_total_us_[s].fetch_add(end_us - start_us, std::memory_order_relaxed);
  stage_count_[s].fetch_add(1, std::memory_order_relaxed);
  if (capacity_ == 0) return;
  const uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& e = events_[slot];
  e.stage = stage;
  e.instant = false;
  e.tid = CurrentTid();
  e.start_us = start_us;
  e.dur_us = end_us - start_us;
}

void TraceRecorder::Annotate(TraceStage stage, std::string detail,
                             int64_t arg) {
  const size_t s = static_cast<size_t>(stage);
  stage_count_[s].fetch_add(1, std::memory_order_relaxed);
  if (capacity_ == 0) return;
  const uint64_t slot = next_.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent& e = events_[slot];
  e.stage = stage;
  e.instant = true;
  e.tid = CurrentTid();
  e.start_us = NowUs();
  e.dur_us = 0;
  e.arg = arg;
  e.detail = std::move(detail);
}

size_t TraceRecorder::num_events() const {
  return static_cast<size_t>(
      std::min<uint64_t>(next_.load(std::memory_order_relaxed), capacity_));
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  return {events_.begin(),
          events_.begin() + static_cast<ptrdiff_t>(num_events())};
}

std::string ChromeTraceJsonFromEvents(
    const std::vector<TraceEvent>& events,
    const uint64_t (&counters)[kNumTraceCounters], uint64_t dropped_events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[192];
  bool first = true;
  const size_t n = events.size();
  for (size_t i = 0; i < n; ++i) {
    const TraceEvent& e = events[i];
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"wsk\",\"ph\":\"%s\",\"ts\":%" PRIu64
                  ",\"dur\":%" PRIu64 ",\"pid\":1,\"tid\":%u",
                  TraceStageName(e.stage), e.instant ? "i" : "X", e.start_us,
                  e.dur_us, e.tid);
    out += buf;
    if (e.instant) out += ",\"s\":\"t\"";
    if (e.arg >= 0 || !e.detail.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      if (e.arg >= 0) {
        std::snprintf(buf, sizeof(buf), "\"arg\":%lld",
                      static_cast<long long>(e.arg));
        out += buf;
        first_arg = false;
      }
      if (!e.detail.empty()) {
        if (!first_arg) out += ",";
        out += "\"detail\":\"";
        AppendJsonEscaped(e.detail, &out);
        out += "\"";
      }
      out += "}";
    }
    out += "}";
  }
  // Counters as one trailing instant so the numbers travel with the trace.
  // Stamped at the end of the last stored event (not the export-time
  // clock) so exporting the same recorder twice yields identical bytes.
  uint64_t counters_ts = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t end = events[i].start_us + events[i].dur_us;
    if (end > counters_ts) counters_ts = end;
  }
  if (!first) out += ",";
  out += "{\"name\":\"counters\",\"cat\":\"wsk\",\"ph\":\"i\",\"s\":\"g\","
         "\"ts\":";
  std::snprintf(buf, sizeof(buf), "%" PRIu64, counters_ts);
  out += buf;
  out += ",\"pid\":1,\"tid\":0,\"args\":{";
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, kCounterNames[i],
                  counters[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf), ",\"dropped_events\":%" PRIu64,
                dropped_events);
  out += buf;
  out += "}}]}";
  return out;
}

std::string TraceRecorder::ToChromeTraceJson() const {
  uint64_t counters[kNumTraceCounters];
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    counters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  return ChromeTraceJsonFromEvents(Events(), counters, dropped_events());
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output file " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int close_rc = std::fclose(f);
  if (written != json.size() || close_rc != 0) {
    return Status::IoError("short write to trace output file " + path);
  }
  return Status::Ok();
}

std::string TraceRecorder::Summary() const {
  std::string out;
  char line[160];
  out += "stage                 spans      total_ms\n";
  for (size_t s = 0; s < kNumTraceStages; ++s) {
    const uint64_t count = stage_count_[s].load(std::memory_order_relaxed);
    if (count == 0) continue;
    std::snprintf(line, sizeof(line), "%-20s %6" PRIu64 "  %12.3f\n",
                  kStageNames[s], count,
                  static_cast<double>(
                      stage_total_us_[s].load(std::memory_order_relaxed)) /
                      1000.0);
    out += line;
  }
  out += "counter                            value\n";
  for (size_t i = 0; i < kNumTraceCounters; ++i) {
    std::snprintf(line, sizeof(line), "%-28s %10" PRIu64 "\n",
                  kCounterNames[i],
                  counters_[i].load(std::memory_order_relaxed));
    out += line;
  }
  if (dropped_events() > 0) {
    std::snprintf(line, sizeof(line), "(%" PRIu64 " events dropped)\n",
                  dropped_events());
    out += line;
  }
  return out;
}

}  // namespace wsk
