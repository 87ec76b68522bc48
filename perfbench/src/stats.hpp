// Statistics helpers of the safenn benchmark: percentiles with the
// sample-count rule, seeded open-loop arrival schedules, the
// serve_max_rps ladder rule, and span self-time arithmetic.
//
// Everything here is a pure function of its arguments, so
// tests/test_helpers.cpp pins each rule exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ percentiles

/// Nearest-rank quantile (q in [0, 1]) of an ascending sample; 0 when
/// empty. Nearest rank returns an observed value, never an interpolation.
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (copies and sorts); 0 when empty.
double median(std::vector<double> values);

/// The highest percentile among {99.9, 99, 95, 90, 75, 50} that has at
/// least `min_beyond` samples strictly beyond it in a sample of `n`, or 0
/// when even the median has fewer. "Beyond p" means the n * (1 - p/100)
/// largest samples.
double tail_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Median plus the highest supported tail percentile of a sample, with
/// the counts behind them. Failed requests enter as +infinity: they
/// count as missing any latency limit.
struct LatencySummary {
  std::size_t count = 0;       // samples, failures included
  double p50 = 0.0;
  double tail_pct = 0.0;       // which percentile `tail` is (0: none)
  double tail = 0.0;
  std::size_t beyond_tail = 0; // samples beyond the tail percentile
  double p99 = 0.0;            // nearest-rank p99, regardless of support
  double max = 0.0;
};
LatencySummary summarize_latency(std::vector<double> values);

// --------------------------------------------------------------- arrivals

/// SplitMix64: a tiny, fully specified generator, so a seeded schedule is
/// identical on every standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1) with 53 random bits.
  double uniform();

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from (seed, stream) by hashing.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Poisson arrival offsets (seconds from the start) at `rate` per second
/// over [0, seconds): exponential gaps from SplitMix64(seed).
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds);

// ------------------------------------------------------- the max-rps rule

/// One rung of the offered-rate ladder as measured.
struct RungResult {
  double offered_rps = 0.0;
  std::size_t sent = 0;
  std::size_t failed = 0;        // rejected + degraded + shed
  double p99_ms = 0.0;           // failures count as +infinity
  double depth_first_half = 0.0; // mean fleet backlog, first half of sends
  double depth_second_half = 0.0;
};

struct RungRule {
  double latency_limit_ms = 0.0;
  double max_fail_frac = 0.01;
  /// Backlog grows when the second half's mean depth exceeds the first
  /// half's by this factor AND by `backlog_floor` requests (so jitter in
  /// a near-empty queue never counts as growth).
  double backlog_factor = 1.5;
  double backlog_floor = 32.0;
};

bool backlog_growing(const RungResult& rung, const RungRule& rule);

/// Why a rung passes or fails: "" when it passes.
std::string rung_failure(const RungResult& rung, const RungRule& rule);

/// serve_max_rps's scan: ladder rungs run upward, one trial each, from
/// a first rung below the knee. `passed` holds the verdicts of the rungs
/// run so far, in order. The scan stops once its last `stop_after`
/// rungs have all failed: a single failing trial below the knee (a host
/// stall) does not end it, and two in a row mark the knee.
bool scan_done(const std::vector<bool>& passed, std::size_t stop_after);

/// Offset from the scan's first rung of the highest rung that passed,
/// or -1 when none did.
std::ptrdiff_t scan_highest_pass(const std::vector<bool>& passed);

/// The scan's first rung: the highest index whose rate is at most
/// `rps`, or 0 when every rung is above it.
std::size_t scan_start(const std::vector<double>& ladder, double rps);

/// A geometric ladder: `lo`, lo*ratio, ... up to and including the first
/// rate >= hi.
std::vector<double> geometric_ladder(double lo, double hi, double ratio);

// ------------------------------------------------------------------ spans

/// One span: a named interval with a parent (index into the same vector,
/// -1 for a root) and the id of the request, query or cycle it belongs to.
struct Span {
  std::string name;
  double start = 0.0;  // seconds since the run's epoch
  double end = 0.0;
  int parent = -1;
  std::uint64_t id = 0;
};

/// Length of the union of intervals, each clipped to [lo, hi].
double covered_length(std::vector<std::pair<double, double>> intervals,
                      double lo, double hi);

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
