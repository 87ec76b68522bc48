// Plain-text (de)serialization of networks.
//
// Certification workflows must pin the exact artifact that was verified;
// a human-diffable text format makes the verified network auditable. The
// v2 format additionally pins the payload with a content checksum so a
// corrupted or truncated file can never yield a (partial) network: the
// loader validates the checksum before parsing a single parameter.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "nn/network.hpp"

namespace safenn::nn {

/// Typed serialization failure. Derives from safenn::Error so existing
/// catch sites keep working; `kind()` lets callers (registry, tests)
/// distinguish corruption from version skew from plain bad input.
class SerializeError : public Error {
 public:
  enum class Kind {
    kBadMagic,            // not a safenn-network file at all
    kUnsupportedVersion,  // recognized magic, unknown format version
    kTruncated,           // payload ends before the checksum line
    kChecksumMismatch,    // payload bytes do not hash to the recorded sum
    kMalformed,           // checksum ok but a field fails to parse
    kIo,                  // underlying stream/file failure
  };

  SerializeError(Kind kind, const std::string& what)
      : Error(what), kind_(kind) {}

  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

const char* to_string(SerializeError::Kind kind);

/// Writes `net` in the "safenn-network v2" text format: a version header,
/// the layer payload, and a trailing `checksum <16-hex>` line (FNV-1a 64
/// over the payload bytes between header and checksum line).
void save_network(std::ostream& os, const Network& net);

/// Parses a network written by save_network. Throws SerializeError on any
/// malformed, truncated, corrupted, or wrong-version input; a network is
/// returned only after the whole payload has been checksum-verified and
/// parsed, so no partial network can ever escape. Any layout or number
/// save_network cannot emit is kMalformed.
Network load_network(std::istream& is);

/// In-memory conveniences (the registry embeds network text verbatim).
std::string network_to_string(const Network& net);
Network network_from_string(std::string_view text);

/// Content checksum of `net`: FNV-1a 64 over the exact v2 payload bytes —
/// the same value save_network records in its trailing `checksum` line.
/// Two networks share a checksum iff they serialize identically, which is
/// what makes it a cache/identity key (verification cache, registry);
/// the payload streams into the hash without being built as a string.
std::uint64_t network_checksum(const Network& net);

/// File-path conveniences.
void save_network_file(const std::string& path, const Network& net);
Network load_network_file(const std::string& path);

}  // namespace safenn::nn
