#include "battery.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/compress.hpp"

namespace perfbench {
namespace {

using safenn::verify::Verdict;

std::string hexd(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double parse_double(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    throw std::runtime_error("battery: bad number '" + token + "'");
  }
  return v;
}

Verdict parse_truth(const std::string& s) {
  if (s == "proved") return Verdict::kProved;
  if (s == "violated") return Verdict::kViolated;
  if (s == "open") return Verdict::kUnknown;
  throw std::runtime_error("battery: bad truth '" + s + "'");
}

}  // namespace

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kProved: return "proved";
    case Verdict::kViolated: return "violated";
    case Verdict::kUnknown: return "unknown";
  }
  return "?";
}

const char* truth_name(Verdict truth) {
  return truth == Verdict::kUnknown ? "open" : verdict_name(truth);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Battery load_battery(const std::string& path) {
  std::istringstream in(read_file(path));
  std::string magic;
  int format = 0;
  in >> magic >> format;
  if (magic != "perfbench-battery" || format != 2) {
    throw std::runtime_error(path + ": not a perfbench-battery v2 file");
  }
  Battery b;
  std::string tag;
  while (in >> tag) {
    if (tag == "deadline") {
      std::string v;
      in >> v;
      b.deadline_seconds = parse_double(v);
    } else if (tag == "region") {
      std::string name;
      std::size_t dims = 0;
      in >> name >> dims;
      if (!in || dims == 0 || dims > 4096) {
        throw std::runtime_error(path + ": bad region header");
      }
      safenn::verify::InputRegion region;
      region.box.resize(dims);
      for (auto& iv : region.box) {
        std::string lo, hi;
        in >> lo >> hi;
        iv.lo = parse_double(lo);
        iv.hi = parse_double(hi);
      }
      b.regions[name] = std::move(region);
    } else if (tag == "query") {
      BatteryQuery q;
      std::string thr, truth;
      in >> q.name >> q.net >> q.region >> q.output >> thr >> truth;
      if (!in) throw std::runtime_error(path + ": truncated query");
      q.threshold = parse_double(thr);
      q.truth = parse_truth(truth);
      if (b.regions.find(q.region) == b.regions.end()) {
        throw std::runtime_error(path + ": query " + q.name +
                                 " names unknown region " + q.region);
      }
      b.queries.push_back(std::move(q));
    } else if (tag == "end") {
      return b;
    } else {
      throw std::runtime_error(path + ": unknown tag '" + tag + "'");
    }
  }
  throw std::runtime_error(path + ": missing 'end'");
}

void save_battery(const std::string& path, const Battery& b) {
  std::ostringstream os;
  os << "perfbench-battery 2\n";
  os << "deadline " << hexd(b.deadline_seconds) << "\n";
  for (const auto& [name, region] : b.regions) {
    if (!region.constraints.empty()) {
      throw std::runtime_error("save_battery: only box regions supported");
    }
    os << "region " << name << " " << region.box.size() << "\n";
    for (const auto& iv : region.box) {
      os << hexd(iv.lo) << " " << hexd(iv.hi) << "\n";
    }
  }
  for (const BatteryQuery& q : b.queries) {
    os << "query " << q.name << " " << q.net << " " << q.region << " "
       << q.output << " " << hexd(q.threshold) << " "
       << truth_name(q.truth) << "\n";
  }
  os << "end\n";
  std::ofstream(path, std::ios::binary) << os.str();
}

safenn::verify::SafetyProperty make_property(const Battery& battery,
                                             const BatteryQuery& query) {
  safenn::verify::SafetyProperty p;
  p.name = query.name;
  p.region = battery.regions.at(query.region);
  p.expr.terms = {{query.output, 1.0}};
  p.threshold = query.threshold;
  return p;
}

std::vector<safenn::linalg::Vector> load_scenes(const std::string& path) {
  std::istringstream in(safenn::decompress_text(read_file(path)));
  std::vector<safenn::linalg::Vector> scenes;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::vector<double> values;
    std::string tok;
    while (ls >> tok) values.push_back(parse_double(tok));
    safenn::linalg::Vector v(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) v[i] = values[i];
    scenes.push_back(std::move(v));
  }
  if (scenes.empty()) throw std::runtime_error(path + ": no scenes");
  return scenes;
}

void save_scenes(const std::string& path,
                 const std::vector<safenn::linalg::Vector>& scenes) {
  std::ostringstream os;
  for (const auto& s : scenes) {
    for (std::size_t i = 0; i < s.size(); ++i) {
      // %.9g round-trips every float-representable value exactly.
      const auto f = static_cast<float>(s[i]);
      if (static_cast<double>(f) != s[i]) {
        throw std::runtime_error("save_scenes: scene not float-rounded");
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(f));
      os << (i ? " " : "") << buf;
    }
    os << "\n";
  }
  std::ofstream(path, std::ios::binary) << safenn::compress_text(os.str());
}

}  // namespace perfbench
