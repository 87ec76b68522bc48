#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "host.hpp"

namespace perfbench {

int Tracer::begin(const char* name, int parent, std::uint64_t id) {
  if (!enabled_) return -1;
  const double t = now_seconds() - epoch_;
  ++live_;
  spans_.push_back(Span{name, t, t, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_seconds() - epoch_;
}

int Tracer::add(const char* name, double start_abs, double end_abs,
                int parent, std::uint64_t id) {
  if (!enabled_) return -1;
  spans_.push_back(
      Span{name, start_abs - epoch_, end_abs - epoch_, parent, id});
  return static_cast<int>(spans_.size()) - 1;
}

void LayerAccumulator::add_tree(const std::vector<Span>& tree) {
  const std::vector<double> self = self_times(tree);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    LayerTime& lt = layers_[tree[i].name];
    ++lt.count;
    lt.total_s += std::max(0.0, tree[i].end - tree[i].start);
    lt.self_s += self[i];
    if (tree[i].parent < 0) roots_.emplace_back(tree[i].start, tree[i].end);
  }
}

double LayerAccumulator::print(const std::string& phase, double phase_start,
                               double phase_end) const {
  const double wall = std::max(1e-12, phase_end - phase_start);
  const double covered = covered_length(roots_, phase_start, phase_end);
  std::printf("trace %s: phase %.3f s, spans cover %.3f s (%.1f%%)\n",
              phase.c_str(), wall, covered, 100.0 * covered / wall);
  for (const auto& [name, lt] : layers_) {
    std::printf("trace %s: layer %-22s n=%-8zu total %10.4f s  self %10.4f s\n",
                phase.c_str(), name.c_str(), lt.count, lt.total_s, lt.self_s);
  }
  std::printf("trace %s: unattributed %.4f s (%.1f%% of the phase)\n",
              phase.c_str(), wall - covered, 100.0 * (wall - covered) / wall);
  return covered / wall;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out.precision(9);
  for (const Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"start\": " << s.start
        << ", \"end\": " << s.end << ", \"parent\": " << s.parent
        << ", \"id\": " << s.id << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
