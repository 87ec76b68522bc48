#include "serve/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

namespace safenn::serve {
namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

std::size_t bucket_index(std::uint64_t ns) {
  // bit_width(ns) = position of highest set bit + 1; bucket 0 holds ns<=1.
  const std::size_t idx = ns <= 1 ? 0 : std::bit_width(ns - 1);
  return std::min(idx, LatencyHistogram::kBuckets - 1);
}

double bucket_upper_ns(std::size_t idx) {
  return std::ldexp(1.0, static_cast<int>(idx));  // 2^idx
}

void json_histogram(std::ostringstream& os, const char* name,
                    const LatencyHistogram& h) {
  os << "    \"" << name << "\": {"
     << "\"count\": " << h.count()
     << ", \"mean_ms\": " << h.mean_ns() / 1e6
     << ", \"p50_ms\": " << h.percentile_ns(0.50) / 1e6
     << ", \"p95_ms\": " << h.percentile_ns(0.95) / 1e6
     << ", \"p99_ms\": " << h.percentile_ns(0.99) / 1e6 << "}";
}

/// Writes `text` as a JSON string: slice labels are caller data (a
/// version is any whitespace-free token, a model id any non-empty
/// string), so quotes, backslashes and control characters are escaped.
void json_string(std::ostringstream& os, const std::string& text) {
  static constexpr char kHex[] = "0123456789abcdef";
  os << '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (byte < 0x20) {
      os << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xf];
    } else {
      os << c;
    }
  }
  os << '"';
}

void note_peak(std::atomic<std::uint64_t>& peak, std::size_t depth) {
  std::uint64_t seen = peak.load(kRelaxed);
  while (depth > seen && !peak.compare_exchange_weak(seen, depth, kRelaxed)) {
  }
}

}  // namespace

void LatencyHistogram::record(std::uint64_t ns) {
  buckets_[bucket_index(ns)].fetch_add(1, kRelaxed);
  count_.fetch_add(1, kRelaxed);
  sum_ns_.fetch_add(ns, kRelaxed);
}

std::uint64_t LatencyHistogram::count() const { return count_.load(kRelaxed); }

double LatencyHistogram::mean_ns() const {
  const std::uint64_t n = count_.load(kRelaxed);
  return n == 0 ? 0.0
               : static_cast<double>(sum_ns_.load(kRelaxed)) /
                     static_cast<double>(n);
}

double LatencyHistogram::percentile_ns(double p) const {
  const std::uint64_t n = count_.load(kRelaxed);
  if (n == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(n)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i].load(kRelaxed);
    if (cumulative >= target && cumulative > 0) return bucket_upper_ns(i);
  }
  return bucket_upper_ns(kBuckets - 1);
}

void LatencyHistogram::reset() {
  for (auto& b : buckets_) b.store(0, kRelaxed);
  count_.store(0, kRelaxed);
  sum_ns_.store(0, kRelaxed);
}

std::uint64_t VersionCounters::completed() const {
  return served.load(kRelaxed) + clamped.load(kRelaxed) +
         degraded.load(kRelaxed);
}

void ModelMetrics::note_queue_depth(std::size_t depth) {
  note_peak(queue_depth_peak, depth);
}

ModelMetrics& MetricsRegistry::slice(SliceKind kind,
                                     const std::string& label) {
  std::lock_guard<std::mutex> lock(slices_mu_);
  std::unique_ptr<ModelMetrics>& slot = slices_[{kind, label}];
  if (!slot) slot = std::make_unique<ModelMetrics>();
  return *slot;
}

VersionCounters& MetricsRegistry::version_counters(
    const std::string& version) {
  return slice(SliceKind::kVersion, version).counters;
}

VersionCounters& MetricsRegistry::backend_counters(
    const std::string& backend) {
  return slice(SliceKind::kBackend, backend).counters;
}

ModelMetrics& MetricsRegistry::model_metrics(const std::string& model_id) {
  return slice(SliceKind::kModel, model_id);
}

void MetricsRegistry::note_queue_depth(std::size_t depth) {
  note_peak(queue_depth_peak, depth);
}

std::uint64_t MetricsRegistry::completed() const {
  return served.load(kRelaxed) + clamped.load(kRelaxed) +
         degraded.load(kRelaxed);
}

double MetricsRegistry::mean_batch_size() const {
  const std::uint64_t b = batches.load(kRelaxed);
  return b == 0 ? 0.0
               : static_cast<double>(batch_items.load(kRelaxed)) /
                     static_cast<double>(b);
}

std::string MetricsRegistry::to_json(double elapsed_seconds) const {
  std::ostringstream os;
  os << "{\n"
     << "  \"requests\": {"
     << "\"submitted\": " << submitted.load(kRelaxed)
     << ", \"served\": " << served.load(kRelaxed)
     << ", \"clamped\": " << clamped.load(kRelaxed)
     << ", \"degraded\": " << degraded.load(kRelaxed)
     << ", \"rejected\": " << rejected.load(kRelaxed) << "},\n"
     << "  \"shield\": {"
     << "\"assumption_hits\": " << assumption_hits.load(kRelaxed)
     << ", \"interventions\": " << interventions.load(kRelaxed) << "},\n"
     << "  \"batching\": {"
     << "\"batches\": " << batches.load(kRelaxed)
     << ", \"mean_batch_size\": " << mean_batch_size()
     << ", \"mixed_batches\": " << mixed_batches.load(kRelaxed)
     << ", \"queue_depth_peak\": " << queue_depth_peak.load(kRelaxed)
     << "},\n"
     << "  \"lifecycle\": {"
     << "\"shed\": " << shed.load(kRelaxed)
     << ", \"reloads\": " << reloads.load(kRelaxed) << "},\n";
  {
    // One walk over the slice table: keys sort by family, so each
    // section's slices are contiguous and arrive in section order.
    std::lock_guard<std::mutex> lock(slices_mu_);
    auto it = slices_.begin();
    for (const auto& [kind, section] :
         {std::pair{SliceKind::kVersion, "versions"},
          std::pair{SliceKind::kBackend, "backends"},
          std::pair{SliceKind::kModel, "models"}}) {
      os << "  \"" << section << "\": {";
      bool first = true;
      for (; it != slices_.end() && it->first.first == kind; ++it) {
        const ModelMetrics& m = *it->second;
        os << (first ? "\n    " : ",\n    ");
        json_string(os, it->first.second);
        os << ": {"
           << "\"served\": " << m.counters.served.load(kRelaxed)
           << ", \"clamped\": " << m.counters.clamped.load(kRelaxed)
           << ", \"degraded\": " << m.counters.degraded.load(kRelaxed)
           << ", \"assumption_hits\": "
           << m.counters.assumption_hits.load(kRelaxed)
           << ", \"interventions\": "
           << m.counters.interventions.load(kRelaxed);
        if (kind == SliceKind::kModel) {
          const LatencyHistogram& h = m.total_latency;
          os << ", \"shed\": " << m.shed.load(kRelaxed)
             << ", \"batches\": " << m.batches.load(kRelaxed)
             << ", \"queue_depth_peak\": "
             << m.queue_depth_peak.load(kRelaxed)
             << ", \"p50_ms\": " << h.percentile_ns(0.50) / 1e6
             << ", \"p95_ms\": " << h.percentile_ns(0.95) / 1e6
             << ", \"p99_ms\": " << h.percentile_ns(0.99) / 1e6;
        }
        os << "}";
        first = false;
      }
      if (!first) os << "\n  ";
      os << "},\n";
    }
  }
  os << "  \"latency\": {\n";
  json_histogram(os, "queue", queue_latency);
  os << ",\n";
  json_histogram(os, "infer", infer_latency);
  os << ",\n";
  json_histogram(os, "total", total_latency);
  os << "\n  }";
  if (elapsed_seconds > 0.0) {
    os << ",\n  \"elapsed_seconds\": " << elapsed_seconds
       << ",\n  \"throughput_rps\": "
       << static_cast<double>(completed()) / elapsed_seconds;
  }
  os << "\n}";
  return os.str();
}

void MetricsRegistry::reset() {
  queue_latency.reset();
  infer_latency.reset();
  total_latency.reset();
  for (auto* c : {&submitted, &served, &clamped, &degraded, &rejected,
                  &assumption_hits, &interventions, &batches, &batch_items,
                  &mixed_batches, &queue_depth_peak, &shed, &reloads}) {
    c->store(0, kRelaxed);
  }
  // Zero in place: references handed out by the slice accessors stay
  // valid.
  std::lock_guard<std::mutex> lock(slices_mu_);
  for (auto& [key, m] : slices_) {
    for (auto* c : {&m->counters.served, &m->counters.clamped,
                    &m->counters.degraded, &m->counters.assumption_hits,
                    &m->counters.interventions, &m->shed, &m->batches,
                    &m->queue_depth_peak}) {
      c->store(0, kRelaxed);
    }
    m->total_latency.reset();
  }
}

}  // namespace safenn::serve
