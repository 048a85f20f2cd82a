#include "service/metrics.h"

#include <cmath>
#include <cstdio>

namespace wsk {

namespace {

// Prometheus metric names admit [a-zA-Z0-9_:]; our dotted registry names
// map dots (and anything else) to underscores, prefixed with wsk_.
std::string PrometheusName(const std::string& name) {
  std::string out = "wsk_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// One number format for both views: integral values print whole, the
// rest with nine significant digits.
std::string FormatValue(double value) {
  char buf[32];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", value);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", value);
  }
  return buf;
}

// A histogram sample (recorded in its registry name's unit) in the unit
// both views print.
double InUnit(const MetricRow& row, double recorded) {
  return row.seconds ? recorded / 1000.0 : recorded;
}

// The text view's line key: the section with the label values appended.
std::string TextKey(const MetricRow& row) {
  std::string key = row.section;
  for (const auto& label : row.labels) key += "." + label.second;
  return key;
}

std::string LabelSet(const MetricRow::Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    if (out.size() > 1) out += ",";
    out += key + "=\"" + value + "\"";
  }
  return out + "}";
}

// The rows grouped by `key`, groups in order of first appearance.
template <typename KeyFn>
std::vector<std::vector<const MetricRow*>> GroupRows(
    const std::vector<MetricRow>& rows, KeyFn key) {
  std::vector<std::vector<const MetricRow*>> groups;
  std::map<std::string, size_t> index;
  for (const MetricRow& row : rows) {
    const auto [it, added] = index.emplace(key(row), groups.size());
    if (added) groups.emplace_back();
    groups[it->second].push_back(&row);
  }
  return groups;
}

}  // namespace

void LatencyHistogram::Record(double ms) {
  buckets_[LatencyBucketIndex(ms)].fetch_add(1, std::memory_order_relaxed);
  const double us = ms > 0.0 ? ms * 1000.0 : 0.0;
  sum_us_.fetch_add(static_cast<uint64_t>(us), std::memory_order_relaxed);
  // Keep the true maximum (not the bucket bound). Lost CAS races only
  // happen when another writer installed a value at least as large.
  double seen = max_ms_.load(std::memory_order_relaxed);
  const double sample = ms > 0.0 ? ms : 0.0;
  while (sample > seen &&
         !max_ms_.compare_exchange_weak(seen, sample,
                                        std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::TakeSnapshot() const {
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  Snapshot snap;
  snap.count = total;
  snap.sum_ms =
      static_cast<double>(sum_us_.load(std::memory_order_relaxed)) / 1000.0;
  for (size_t i = 0; i < kNumBuckets; ++i) snap.bucket_counts[i] = counts[i];
  if (total == 0) return snap;
  snap.mean_ms = snap.sum_ms / static_cast<double>(total);
  snap.p50_ms = LatencyQuantileMs(counts, total, 0.50);
  snap.p95_ms = LatencyQuantileMs(counts, total, 0.95);
  snap.p99_ms = LatencyQuantileMs(counts, total, 0.99);
  snap.max_ms = max_ms_.load(std::memory_order_relaxed);
  return snap;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<LatencyHistogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.AddCounter(name, "", PrometheusName(name) + "_total",
                    "Cumulative count of " + name + " events.",
                    static_cast<double>(counter->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    const bool seconds = name.ends_with(".ms");
    snap.rows.push_back({name, "", PrometheusName(name),
                         "Distribution of " + name + " samples" +
                             (seconds ? " (seconds)." : "."),
                         MetricRow::Type::kHistogram, 0.0, {},
                         histogram->TakeSnapshot(), seconds});
  }
  return snap;
}

std::string MetricsSnapshot::Text() const {
  std::string out;
  // Appends ` key value`, or ` value` for an empty key.
  const auto put = [&out](const std::string& key, double value) {
    if (!key.empty()) out += ' ' + key;
    out += ' ';
    out += FormatValue(value);
  };
  for (const auto& line : GroupRows(rows, TextKey)) {
    std::string head = TextKey(*line.front());
    if (head.size() < 9) head.resize(9, ' ');
    out += head;
    for (const MetricRow* row : line) {
      if (row->type != MetricRow::Type::kHistogram) {
        put(row->field, row->value);
        continue;
      }
      const LatencyHistogram::Snapshot& h = row->histogram;
      const std::string unit = row->seconds ? "_s" : "";
      put("count", static_cast<double>(h.count));
      for (const auto& [stat, ms] :
           {std::pair{"sum", h.sum_ms}, std::pair{"p50", h.p50_ms},
            std::pair{"p95", h.p95_ms}, std::pair{"p99", h.p99_ms},
            std::pair{"max", h.max_ms}}) {
        put(stat + unit, InUnit(*row, ms));
      }
    }
    out += '\n';
  }
  return out;
}

std::string MetricsSnapshot::Prometheus() const {
  std::string out;
  const auto family = [&out](const std::string& name, const std::string& help,
                             const char* type) {
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " " + type + "\n";
  };
  const auto sample = [&out](const std::string& series, double value) {
    out += series + " " + FormatValue(value) + "\n";
  };
  const auto by_name = [](const MetricRow& row) { return row.name; };
  for (const auto& group : GroupRows(rows, by_name)) {
    const MetricRow& first = *group.front();
    if (first.type != MetricRow::Type::kHistogram) {
      family(first.name, first.help,
             first.type == MetricRow::Type::kCounter ? "counter" : "gauge");
      for (const MetricRow* row : group) {
        sample(row->name + LabelSet(row->labels), row->value);
      }
      continue;
    }
    // A histogram family: cumulative buckets, _sum and _count, then the
    // observed maximum as its own gauge family.
    const LatencyHistogram::Snapshot& h = first.histogram;
    family(first.name, first.help, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
      cumulative += h.bucket_counts[i];
      const double le = InUnit(first, LatencyHistogram::BucketBoundMs(i));
      sample(first.name + "_bucket{le=\"" + FormatValue(le) + "\"}",
             static_cast<double>(cumulative));
    }
    sample(first.name + "_bucket{le=\"+Inf\"}", static_cast<double>(h.count));
    sample(first.name + "_sum", InUnit(first, h.sum_ms));
    sample(first.name + "_count", static_cast<double>(h.count));
    family(first.name + "_max",
           "Largest observed " + first.section + " sample" +
               (first.seconds ? " (seconds)." : "."),
           "gauge");
    sample(first.name + "_max", InUnit(first, h.max_ms));
  }
  return out;
}

}  // namespace wsk
