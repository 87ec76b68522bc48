#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, 0.5);
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  static const double kCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kCandidates) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    // Round down: a fractional sample is not a sample.
    if (std::floor(beyond + 1e-9) >= static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 0.0;
}

LatencySummary summarize_latency(std::vector<double> values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.5);
  s.p99 = quantile_sorted(values, 0.99);
  s.max = values.back();
  s.tail_pct = tail_percentile(values.size());
  if (s.tail_pct > 0.0) {
    s.tail = quantile_sorted(values, s.tail_pct / 100.0);
    s.beyond_tail = static_cast<std::size_t>(std::floor(
        static_cast<double>(values.size()) * (1.0 - s.tail_pct / 100.0) +
        1e-9));
  }
  return s;
}

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 g(seed ^ (stream * 0xD1B54A32D192ED03ull));
  g.next();
  return g.next();
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds) {
  std::vector<double> out;
  if (!(rate > 0.0) || !(seconds > 0.0)) return out;
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  SplitMix64 g(seed);
  double t = 0.0;
  for (;;) {
    // Inverse transform on (0, 1]: never log(0).
    t += -std::log(1.0 - g.uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(t);
  }
  return out;
}

bool backlog_growing(const RungResult& rung, const RungRule& rule) {
  const double grown = rung.depth_second_half - rung.depth_first_half;
  return rung.depth_second_half >
             rule.backlog_factor * rung.depth_first_half &&
         grown > rule.backlog_floor;
}

std::string rung_failure(const RungResult& rung, const RungRule& rule) {
  if (rung.sent == 0) return "no requests";
  const double fail_frac =
      static_cast<double>(rung.failed) / static_cast<double>(rung.sent);
  if (fail_frac > rule.max_fail_frac) return "failures";
  if (!(rung.p99_ms <= rule.latency_limit_ms)) return "p99";
  if (backlog_growing(rung, rule)) return "backlog";
  return "";
}

bool scan_done(const std::vector<bool>& passed, std::size_t stop_after) {
  if (stop_after == 0 || passed.size() < stop_after) return false;
  return std::none_of(passed.end() - static_cast<std::ptrdiff_t>(stop_after),
                      passed.end(), [](bool p) { return p; });
}

std::ptrdiff_t scan_highest_pass(const std::vector<bool>& passed) {
  for (std::size_t i = passed.size(); i-- > 0;) {
    if (passed[i]) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

std::size_t scan_start(const std::vector<double>& ladder, double rps) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i] <= rps) start = i;
  }
  return start;
}

std::vector<double> geometric_ladder(double lo, double hi, double ratio) {
  if (!(lo > 0.0) || !(ratio > 1.0) || hi < lo) {
    throw std::invalid_argument("geometric_ladder: bad range or ratio");
  }
  std::vector<double> out;
  for (double r = lo;; r *= ratio) {
    out.push_back(r);
    if (r >= hi) break;
  }
  return out;
}

double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi) {
  for (auto& [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cur_a = 0.0, cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (!open) {
      cur_a = a;
      cur_b = b;
      open = true;
    } else if (a <= cur_b) {
      cur_b = std::max(cur_b, b);
    } else {
      covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    }
  }
  if (open) covered += cur_b - cur_a;
  return covered;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double dur = std::max(0.0, spans[i].end - spans[i].start);
    out[i] = dur - covered_length(std::move(children[i]), spans[i].start,
                                  spans[i].end);
  }
  return out;
}

}  // namespace perfbench
