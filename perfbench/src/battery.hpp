// The benchmark's committed inputs: verification batteries (regions,
// thresholds, true verdicts), the traffic scene pool, and the text
// codecs for them. Every double is written as a hexfloat, so what the
// program receives is bit-for-bit what was committed.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "linalg/vector.hpp"
#include "verify/property.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

/// One Table II-style query: "forall x in region: output[o] <= threshold".
struct BatteryQuery {
  std::string name;
  std::string net;     // network key: a file stem or a fleet model id
  std::string region;  // key into Battery::regions
  int output = 0;      // output index (a component's lateral-velocity mean)
  double threshold = 0.0;
  /// The property's true verdict, settled offline without a deadline:
  /// every decided verdict must equal it. kUnknown ("open" in the file)
  /// when no long run settled it; then any decided verdict is accepted.
  safenn::verify::Verdict truth = safenn::verify::Verdict::kUnknown;
};

struct Battery {
  double deadline_seconds = 0.0;  // per query
  std::map<std::string, safenn::verify::InputRegion> regions;
  std::vector<BatteryQuery> queries;
};

Battery load_battery(const std::string& path);
void save_battery(const std::string& path, const Battery& battery);

safenn::verify::SafetyProperty make_property(const Battery& battery,
                                             const BatteryQuery& query);

const char* verdict_name(safenn::verify::Verdict verdict);
/// A truth as the battery file writes it: kUnknown is "open".
const char* truth_name(safenn::verify::Verdict truth);

/// Scene pool: one 84-dim scene per line, safenn-pack compressed. Scenes
/// are float-precision values written with %.9g, which parses back to
/// the same doubles.
std::vector<safenn::linalg::Vector> load_scenes(const std::string& path);
void save_scenes(const std::string& path,
                 const std::vector<safenn::linalg::Vector>& scenes);

/// Whole-file read; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

}  // namespace perfbench
