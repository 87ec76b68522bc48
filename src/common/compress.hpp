// Numeric-token packing codec for canonical artifact text ("safenn-pack").
//
// The registry's wire format is deliberately text — canonical,
// deterministic, content-addressed by an FNV-1a hash over the exact
// bytes. Compression must therefore round-trip BITWISE: the decompressed
// text is re-hashed against the recorded checksum, so a codec that
// "mostly" reproduces the text is useless. General LZ windows do poorly
// here anyway — the payload is dominated by doubles printed at 17
// significant digits, whose digit streams are close to incompressible
// by backreference.
//
// This codec exploits what the text actually is instead: a stream of
// whitespace-separated numeric tokens. Each token that (a) parses as an
// int64 or double and (b) REPRINTS byte-identically under the canonical
// formatter (common/numtext, the "%.17g" / "%lld" rendering every safenn
// serializer uses) is replaced by its binary form — zigzag varint for
// integers (quantized payload weights), 8-byte IEEE bits for doubles
// (float weights: ~20 text bytes -> 9) — with the following separator
// folded into the opcode. Anything that fails the reprint check is
// carried as a literal run, so arbitrary text (including binary
// garbage) round-trips exactly. Decompression verifies the declared
// original size and throws safenn::Error on any malformed stream.
#pragma once

#include <string>
#include <string_view>

namespace safenn {

/// Magic prefix of every packed blob ("safenn-pack v1").
inline constexpr std::string_view kPackMagic = "SNPK1";

/// Packs `text` into the binary safenn-pack format. Always succeeds;
/// worst case (no packable tokens) the blob is the text plus a few
/// bytes of framing.
std::string compress_text(std::string_view text);

/// Exact inverse of compress_text. Throws safenn::Error on a blob that
/// is not well-formed safenn-pack (bad magic, truncated op, size
/// mismatch) — corruption never yields silently different text.
std::string decompress_text(std::string_view blob);

}  // namespace safenn
