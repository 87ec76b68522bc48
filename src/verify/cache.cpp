#include "verify/cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "nn/serialize.hpp"

namespace safenn::verify {
namespace {

namespace fs = std::filesystem;

constexpr const char* kMagic = "safenn-vcache";
constexpr const char* kVersion = "v1";

[[noreturn]] void fail(CacheError::Kind kind, const std::string& what) {
  throw CacheError(kind, "VerificationCache: " + what);
}

/// Bitwise-exact double rendering ("%a" hexfloat). Round-trips through
/// parse_double for every finite value and for +/-inf, which is what
/// makes "cached verdict bitwise-equal to a fresh run" a testable claim.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

double parse_double(const std::string& s, bool* ok) {
  const char* begin = s.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  *ok = end != begin && *end == '\0' && !s.empty();
  return v;
}

/// The entry payload store() writes: one "name value" line per field.
std::string render_payload(const CacheKey& key, const CachedVerdict& value) {
  std::ostringstream payload;
  payload << "network " << hex64(key.network) << '\n'
          << "property " << hex64(key.property) << '\n'
          << "verdict " << to_string(value.verdict) << '\n'
          << "upper_bound " << format_double(value.upper_bound) << '\n'
          << "has_value " << (value.has_value ? 1 : 0) << '\n'
          << "max_value " << format_double(value.max_value) << '\n'
          << "engine " << (value.engine.empty() ? "-" : value.engine) << '\n'
          << "seconds " << format_double(value.seconds) << '\n';
  return payload.str();
}

std::string checksum_trailer(const std::string& payload) {
  return "checksum " + hex64(fnv1a64(payload)) + "\n";
}

}  // namespace

std::string canonical_property_text(const SafetyProperty& property) {
  std::ostringstream os;
  os << "box " << property.region.box.size() << '\n';
  for (const Interval& iv : property.region.box) {
    os << format_double(iv.lo) << ' ' << format_double(iv.hi) << '\n';
  }
  os << "constraints " << property.region.constraints.size() << '\n';
  for (const InputConstraint& c : property.region.constraints) {
    os << lp::to_string(c.relation) << ' ' << format_double(c.rhs) << ' '
       << c.terms.size();
    for (const auto& [idx, coef] : c.terms) {
      os << ' ' << idx << ' ' << format_double(coef);
    }
    os << '\n';
  }
  os << "expr " << property.expr.terms.size() << '\n';
  for (const auto& [idx, coef] : property.expr.terms) {
    os << idx << ' ' << format_double(coef) << '\n';
  }
  os << "threshold " << format_double(property.threshold) << '\n';
  return os.str();
}

CacheKey make_cache_key(const nn::Network& net,
                        const SafetyProperty& property) {
  CacheKey key;
  key.network = nn::network_checksum(net);
  key.property = fnv1a64(canonical_property_text(property));
  // Combine via the hex renderings (not raw bytes) so the combined key is
  // endianness-independent — the same (network, property) pair maps to
  // the same filename on any host, across process restarts.
  key.combined = fnv1a64(hex64(key.network) + ":" + hex64(key.property));
  return key;
}

VerificationCache::VerificationCache(std::string directory)
    : dir_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) fail(CacheError::Kind::kIo, "cannot create '" + dir_ + "'");
}

std::string VerificationCache::entry_path(const CacheKey& key) const {
  return (fs::path(dir_) / (key.hex() + ".vc")).string();
}

CachedVerdict VerificationCache::load(const CacheKey& key) const {
  const std::string path = entry_path(key);
  std::ifstream is(path);
  if (!is.is_open()) {
    fail(CacheError::Kind::kNotFound, "no entry '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  if (is.bad()) fail(CacheError::Kind::kIo, "read failure on '" + path + "'");
  const std::string text = buffer.str();

  // Header line.
  const std::string header = std::string(kMagic) + " " + kVersion + "\n";
  if (text.compare(0, header.size(), header) != 0) {
    fail(CacheError::Kind::kBadEntry, "bad header in '" + path + "'");
  }
  // Trailing "checksum <16 hex>\n" — validate the payload bytes *before*
  // parsing any field, so truncation and corruption are caught typed.
  const std::string marker = "checksum ";
  const std::size_t pos = text.rfind("\n" + marker);
  if (pos == std::string::npos) {
    fail(CacheError::Kind::kBadEntry,
         "missing checksum trailer in '" + path + "' (truncated file?)");
  }
  const std::size_t payload_begin = header.size();
  const std::size_t payload_end = pos + 1;  // keep the final payload '\n'
  std::string recorded_hex = text.substr(payload_end + marker.size());
  while (!recorded_hex.empty() &&
         (recorded_hex.back() == '\n' || recorded_hex.back() == '\r')) {
    recorded_hex.pop_back();
  }
  std::uint64_t recorded = 0;
  try {
    recorded = parse_hex64(recorded_hex);
  } catch (const Error&) {
    fail(CacheError::Kind::kBadEntry,
         "unparseable checksum value in '" + path + "'");
  }
  const std::string payload =
      text.substr(payload_begin, payload_end - payload_begin);
  const std::uint64_t actual = fnv1a64(payload);
  if (actual != recorded) {
    fail(CacheError::Kind::kChecksumMismatch,
         "payload checksum " + hex64(actual) + " != recorded " +
             recorded_hex + " in '" + path + "'");
  }

  // Fields, one "key value" line each, in fixed order.
  std::istringstream ps(payload);
  auto field = [&](const char* name) {
    std::string k, v;
    if (!(ps >> k >> v) || k != name) {
      fail(CacheError::Kind::kBadEntry,
           std::string("expected field '") + name + "' in '" + path + "'");
    }
    return v;
  };
  auto double_field = [&](const char* name) {
    bool ok = false;
    const double v = parse_double(field(name), &ok);
    if (!ok) {
      fail(CacheError::Kind::kBadEntry,
           std::string("unparseable double field '") + name + "' in '" +
               path + "'");
    }
    return v;
  };

  CachedVerdict out;
  std::uint64_t net_sum = 0, prop_sum = 0;
  try {
    net_sum = parse_hex64(field("network"));
    prop_sum = parse_hex64(field("property"));
  } catch (const Error&) {
    fail(CacheError::Kind::kBadEntry, "unparseable key hash in '" + path + "'");
  }
  // The filename already encodes the combined hash, but recording both
  // halves makes a hash collision between distinct pairs detectable.
  if (net_sum != key.network || prop_sum != key.property) {
    fail(CacheError::Kind::kBadEntry,
         "entry '" + path + "' records a different (network, property) pair");
  }
  const std::string verdict = field("verdict");
  if (verdict == "proved") {
    out.verdict = Verdict::kProved;
  } else if (verdict == "violated") {
    out.verdict = Verdict::kViolated;
  } else if (verdict == "unknown") {
    out.verdict = Verdict::kUnknown;
  } else {
    fail(CacheError::Kind::kBadEntry,
         "unknown verdict '" + verdict + "' in '" + path + "'");
  }
  out.upper_bound = double_field("upper_bound");
  const std::string has_value = field("has_value");
  if (has_value != "0" && has_value != "1") {
    fail(CacheError::Kind::kBadEntry, "bad has_value in '" + path + "'");
  }
  out.has_value = has_value == "1";
  out.max_value = double_field("max_value");
  out.engine = field("engine");
  if (out.engine == "-") out.engine.clear();
  out.seconds = double_field("seconds");
  // Accept only what store() writes: re-rendering the fields must give
  // back every payload byte (each number's own token, no stray
  // whitespace or line), and the trailer must be the one store() puts
  // after it. So a loaded entry re-stores byte for byte.
  if (render_payload(key, out) != payload ||
      text.compare(payload_end, std::string::npos,
                   checksum_trailer(payload)) != 0) {
    fail(CacheError::Kind::kBadEntry,
         "entry '" + path + "' is not in the form store() writes");
  }
  return out;
}

std::optional<CachedVerdict> VerificationCache::lookup(const CacheKey& key) {
  try {
    CachedVerdict v = load(key);
    ++stats_.hits;
    return v;
  } catch (const CacheError& e) {
    if (e.kind() == CacheError::Kind::kNotFound) {
      ++stats_.misses;
      return std::nullopt;
    }
    // Corrupt / unreadable: quarantine in place (never delete — the bytes
    // are evidence) and treat as a miss so the query is re-verified.
    ++stats_.rejected;
    ++stats_.misses;
    std::error_code ec;
    const std::string path = entry_path(key);
    fs::rename(path, path + ".quarantined", ec);
    return std::nullopt;
  }
}

void VerificationCache::store(const CacheKey& key, const CachedVerdict& value) {
  const std::string body = render_payload(key, value);
  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp);
    if (!os.is_open()) {
      fail(CacheError::Kind::kIo, "cannot open '" + tmp + "'");
    }
    os << kMagic << ' ' << kVersion << '\n' << body << checksum_trailer(body);
    if (!os.good()) fail(CacheError::Kind::kIo, "write failure on '" + tmp + "'");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) fail(CacheError::Kind::kIo, "cannot rename '" + tmp + "'");
  ++stats_.stores;
}

}  // namespace safenn::verify
