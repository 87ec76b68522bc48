// Content-addressed verification cache.
//
// Certification is a continuous process (Kwiatkowska & Zhang's survey,
// PAPERS.md): networks are retrained and every retrain re-raises the
// question "is the deployed artifact still the verified one?". The cache
// makes re-verification incremental: a completed (network, property)
// query is stored under a key derived from the *content* of both sides —
// the serialized-network checksum from nn/serialize v2 and a canonical
// rendering of the property — so an unchanged pair is answered from disk
// bit-for-bit, while any retrain (different payload => different
// checksum) or property edit misses and re-pays only for what changed.
//
// Storage discipline mirrors the model registry: one plain-text file per
// entry, payload pinned by a trailing FNV-1a64 checksum that is validated
// *before* a single field is parsed, typed CacheError on every rejection
// reason, and quarantine (rename, never delete) for corrupt files so a
// damaged entry can neither be served nor silently re-poisoned.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "nn/network.hpp"
#include "verify/property.hpp"
#include "verify/verifier.hpp"

namespace safenn::verify {

/// Typed cache failure, following the registry error pattern: the reason
/// an entry was refused is audit evidence, not just a boolean miss.
class CacheError : public Error {
 public:
  enum class Kind {
    kNotFound,          // no entry file for that key
    kBadEntry,          // file exists but is not a valid cache entry
    kChecksumMismatch,  // payload bytes do not hash to the recorded sum
    kIo,                // filesystem failure (open/create/rename)
  };

  CacheError(Kind kind, const std::string& what) : Error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

inline const char* to_string(CacheError::Kind kind) {
  switch (kind) {
    case CacheError::Kind::kNotFound: return "not-found";
    case CacheError::Kind::kBadEntry: return "bad-entry";
    case CacheError::Kind::kChecksumMismatch: return "checksum-mismatch";
    case CacheError::Kind::kIo: return "io";
  }
  return "?";
}

/// Canonical text of a property: box intervals, side constraints, expr
/// terms, and the threshold, every double rendered as a hexfloat so the
/// text is an exact (bitwise) function of the semantics. The property
/// *name* is deliberately excluded — renaming a property does not change
/// what was proved, so it must not invalidate the cache.
std::string canonical_property_text(const SafetyProperty& property);

/// Cache key: both content hashes plus their combination (the filename).
struct CacheKey {
  std::uint64_t network = 0;   // nn::network_checksum(net)
  std::uint64_t property = 0;  // fnv1a64(canonical_property_text)
  std::uint64_t combined = 0;  // fnv1a64 over both hex renderings

  std::string hex() const { return hex64(combined); }
};

CacheKey make_cache_key(const nn::Network& net,
                        const SafetyProperty& property);

/// One cached query result. Doubles round-trip bitwise (hexfloat), so a
/// cache hit is indistinguishable from the fresh run that produced it.
/// The witness input is not stored: a kViolated entry records that a
/// witness exists (has_value) and its value, and a caller needing the
/// concrete input re-runs the query.
struct CachedVerdict {
  Verdict verdict = Verdict::kUnknown;
  double upper_bound = 0.0;  // tightest proven bound on max expr
  bool has_value = false;    // a concrete in-region value was achieved
  double max_value = 0.0;    // that value (valid when has_value)
  std::string engine;        // producing engine (portfolio winner)
  double seconds = 0.0;      // wall-clock of the original fresh run
};

struct CacheStats {
  long hits = 0;
  long misses = 0;
  long stores = 0;
  long rejected = 0;  // corrupt entries quarantined by lookup()
};

/// Directory-backed cache: one `<hex16>.vc` file per key. Constructing
/// creates the directory. Not internally synchronized — callers serialize
/// access (the portfolio consults it once per query, outside the race).
class VerificationCache {
 public:
  explicit VerificationCache(std::string directory);

  const std::string& directory() const { return dir_; }
  std::string entry_path(const CacheKey& key) const;

  /// Soft read: nullopt on miss. A corrupt or truncated entry is
  /// quarantined (renamed `<name>.quarantined`, preserving the evidence),
  /// counted in stats().rejected, and reported as a miss — a damaged
  /// entry must never decide a verification query.
  std::optional<CachedVerdict> lookup(const CacheKey& key);

  /// Strict read: throws typed CacheError (kNotFound / kBadEntry /
  /// kChecksumMismatch / kIo) instead of quarantining. Accepts only the
  /// bytes store() writes, so whatever loads re-stores byte for byte.
  CachedVerdict load(const CacheKey& key) const;

  /// Atomic write (tmp + rename): a crash mid-store can leave a stray
  /// tmp file but never a torn entry.
  void store(const CacheKey& key, const CachedVerdict& value);

  const CacheStats& stats() const { return stats_; }

 private:
  std::string dir_;
  CacheStats stats_;
};

}  // namespace safenn::verify
