// In-memory span recorder for the traced run.
//
// Spans come only from the benchmark's own code, around its calls into
// each layer's public API. One Tracer per recording thread (no locks on
// the record path); a disabled tracer costs one branch per span. Spans
// stay in memory and are written out when the run ends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

class Tracer {
 public:
  /// `epoch` is the run's time origin (now_seconds() at start).
  Tracer(bool enabled, double epoch) : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }
  double epoch() const { return epoch_; }

  /// Opens a span now; returns its index (-1 when disabled).
  int begin(const char* name, int parent, std::uint64_t id);
  /// Closes span `index` now (no-op for -1).
  void end(int index);
  /// Records a span with known bounds (absolute now_seconds() values).
  int add(const char* name, double start_abs, double end_abs, int parent,
          std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span>& spans() { return spans_; }
  /// Spans opened with begin() (the ones that cost time while measuring).
  std::size_t live() const { return live_; }

 private:
  bool enabled_;
  double epoch_;
  std::vector<Span> spans_;
  std::size_t live_ = 0;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, std::uint64_t id)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.begin(name, parent, id) : -1) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

/// Per-name aggregate of a span set: count, total and self time.
struct LayerTime {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Aggregates span trees per layer (span name) without keeping them: the
/// serve phase produces one tree per request, far too many to hold.
class LayerAccumulator {
 public:
  /// Adds one tree (parent indices local to `tree`); roots count toward
  /// the phase's covered time.
  void add_tree(const std::vector<Span>& tree);
  /// Prints each layer's count, total and self time, then the phase's
  /// unattributed remainder on its own line. Times are relative to the
  /// tracer epoch. Returns the share of the phase the roots cover.
  double print(const std::string& phase, double phase_start,
               double phase_end) const;

 private:
  std::map<std::string, LayerTime> layers_;
  std::vector<std::pair<double, double>> roots_;
};

/// Writes spans as JSON lines to `path`; false when the file cannot be
/// written.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
