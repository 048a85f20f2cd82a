// Lock-free service metrics: named atomic counters and fixed-bucket
// latency histograms with percentile snapshots, and the one snapshot type
// every report is rendered from.
//
// The registry is the observability surface of the query service: every
// request increments a handful of counters and records one histogram
// sample, so the write path must be wait-free (relaxed atomics, no
// allocation). Reads (snapshots, the formatted report) are rare and may
// be mildly inconsistent across metrics — each individual counter and
// bucket is exact.
//
// Reports are views of a MetricsSnapshot: a flat table of rows, each one
// value in its Prometheus unit, rendered once as human text and once as
// Prometheus exposition (docs/OBSERVABILITY.md "One snapshot, two
// views").
#ifndef WSK_SERVICE_METRICS_H_
#define WSK_SERVICE_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "observability/histogram.h"

namespace wsk {

// A monotone event counter. Writers never contend on anything but the
// cache line of the atomic itself.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Latency histogram over fixed exponential buckets: bucket i holds samples
// in (2^(i-1), 2^i] microseconds, covering 1 us .. ~17 min. Percentiles
// are read from the bucket boundaries, so their resolution is a factor of
// two — ample for p50/p95/p99 tail reporting, and in exchange Record() is
// two relaxed fetch_adds and a handful of bit operations. The bucket and
// quantile math lives in observability/histogram.h, shared with the rolling
// telemetry windows so windowed and cumulative quantiles can never diverge.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = kLatencyBuckets;

  struct Snapshot {
    uint64_t count = 0;
    double sum_ms = 0.0;
    double mean_ms = 0.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;  // largest sample observed (exact, not a bucket bound)
    uint64_t bucket_counts[kNumBuckets] = {};  // per-bucket sample counts
  };

  void Record(double ms);
  Snapshot TakeSnapshot() const;

  // Upper bound of bucket `i` in milliseconds (bucket i covers
  // (2^(i-1), 2^i] microseconds). Exposed for exporters that need the
  // boundary values, e.g. Prometheus `le` labels.
  static double BucketBoundMs(size_t i) { return LatencyBucketBoundMs(i); }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_us_{0};
  // True observed maximum, maintained with a relaxed CAS loop; a bucket
  // bound would overstate the max by up to 2x.
  std::atomic<double> max_ms_{0.0};
};

// One observable value: where the text view prints it and what the
// Prometheus view calls it.
struct MetricRow {
  enum class Type { kCounter, kGauge, kHistogram };
  using Labels = std::vector<std::pair<std::string, std::string>>;

  std::string section;  // text line, e.g. "cache"
  std::string field;    // key in the line; empty prints the bare value
  std::string name;     // Prometheus family, e.g. wsk_result_cache_hits_total
  std::string help;
  Type type = Type::kGauge;
  double value = 0.0;  // in the family's unit (seconds, bytes, count)
  // Prometheus `{key="value",...}`; the text view appends the values to
  // the section (`window.1s`, `shard.0`).
  Labels labels = {};
  // kHistogram only, recorded in the registry name's unit: `*.ms`
  // histograms export seconds, any other (batch.occupancy, a count)
  // exports its samples as recorded.
  LatencyHistogram::Snapshot histogram = {};
  bool seconds = false;
};

// The observable state as one flat table, rendered twice. Text() prints a
// section's rows on one line (`%-9s` section, then `field value` pairs; a
// histogram prints count, sum, p50, p95, p99 and max); Prometheus() prints
// each family once, under one HELP and TYPE line. Both group rows by key,
// so neither depends on the table's order, and both print the same number
// for every row.
struct MetricsSnapshot {
  std::vector<MetricRow> rows;

  void AddCounter(std::string section, std::string field, std::string name,
                  std::string help, double value,
                  MetricRow::Labels labels = {}) {
    rows.push_back({std::move(section), std::move(field), std::move(name),
                    std::move(help), MetricRow::Type::kCounter, value,
                    std::move(labels)});
  }
  void AddGauge(std::string section, std::string field, std::string name,
                std::string help, double value,
                MetricRow::Labels labels = {}) {
    rows.push_back({std::move(section), std::move(field), std::move(name),
                    std::move(help), MetricRow::Type::kGauge, value,
                    std::move(labels)});
  }

  std::string Text() const;
  // Prometheus text exposition (version 0.0.4).
  std::string Prometheus() const;
};

// Name -> metric registry. counter()/histogram() intern the name on first
// use and return a stable reference; the returned objects live as long as
// the registry, so hot paths should look a metric up once and keep the
// reference.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  // One row per registered metric, counters then histograms, each sorted
  // by name and sectioned by it. Counter `a.b.c` becomes family
  // `wsk_a_b_c_total`; histogram `a.b.ms` becomes `wsk_a_b_ms` with
  // cumulative `_bucket{le=...}` series and `_sum`/`_count`, plus a
  // `wsk_..._max` gauge for the observed maximum.
  MetricsSnapshot Snapshot() const;

  // The two views of Snapshot().
  std::string Report() const { return Snapshot().Text(); }
  std::string PrometheusText() const { return Snapshot().Prometheus(); }

 private:
  mutable std::mutex mu_;  // guards the maps, not the metrics themselves
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace wsk

#endif  // WSK_SERVICE_METRICS_H_
