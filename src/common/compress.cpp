#include "common/compress.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/numtext.hpp"

namespace safenn {
namespace {

// Op stream (after magic + varint original size). Numeric ops fold the
// token's following separator into the opcode (space, newline, end: the
// base op plus 0, 1, 2) so the common "value then one space or newline"
// shape costs zero extra bytes.
enum Op : unsigned char {
  kOpLiteral = 0,        // varint length + raw bytes
  kOpIntSpace = 1,       // zigzag varint, then ' '
  kOpIntNewline = 2,     // zigzag varint, then '\n'
  kOpIntEnd = 3,         // zigzag varint, no separator (end of text)
  kOpDoubleSpace = 4,    // 8 IEEE-754 bytes (LE), then ' '
  kOpDoubleNewline = 5,  // 8 IEEE-754 bytes (LE), then '\n'
  kOpDoubleEnd = 6,      // 8 IEEE-754 bytes (LE), no separator
};

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void put_double(std::string& out, double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
  }
}

bool is_token_char(char c) {
  return (c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
         c == 'e' || c == 'E';
}

/// True when `token` is exactly numtext's rendering of `v` — only such
/// tokens are packed, so decoding reprints the original bytes.
template <class T>
bool reprints(std::string_view token, T v) {
  char buf[numtext::kMaxChars];
  return std::string_view(buf, numtext::write(buf, v) - buf) == token;
}

void flush_literal(std::string& out, std::string& lit) {
  if (lit.empty()) return;
  out.push_back(static_cast<char>(kOpLiteral));
  put_varint(out, lit.size());
  out.append(lit);
  lit.clear();
}

[[noreturn]] void corrupt(const char* what) {
  throw Error(std::string("decompress_text: ") + what);
}

}  // namespace

std::string compress_text(std::string_view text) {
  std::string out;
  out.reserve(text.size() / 2 + 16);
  out.append(kPackMagic);
  put_varint(out, text.size());

  std::string lit;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    std::size_t j = i;
    while (j < n && is_token_char(text[j])) ++j;
    const std::size_t tok_len = j - i;
    if (tok_len == 0) {
      lit.push_back(text[i]);
      ++i;
      continue;
    }
    const char sep = j < n ? text[j] : '\0';
    const bool at_end = j == n;
    const std::size_t sep_cost = at_end ? 0 : 1;
    const int shape = at_end ? 2 : sep == ' ' ? 0 : 1;
    if ((sep == ' ' || sep == '\n' || at_end) &&
        tok_len <= numtext::kMaxChars) {
      const std::string_view token = text.substr(i, tok_len);
      std::int64_t iv = 0;
      double dv = 0.0;
      if (numtext::parse(token, iv) && reprints(token, iv) &&
          1 + varint_size(zigzag(iv)) < tok_len + sep_cost) {
        flush_literal(out, lit);
        out.push_back(static_cast<char>(kOpIntSpace + shape));
        put_varint(out, zigzag(iv));
        i = j + sep_cost;
        continue;
      }
      // Subnormals stay literal, as under the format's first (strtod)
      // encoder, which saw range errors: existing blobs keep their bytes.
      if (numtext::parse(token, dv) &&
          std::fpclassify(dv) != FP_SUBNORMAL && reprints(token, dv) &&
          9 < tok_len + sep_cost) {
        flush_literal(out, lit);
        out.push_back(static_cast<char>(kOpDoubleSpace + shape));
        put_double(out, dv);
        i = j + sep_cost;
        continue;
      }
    }
    // Not packable: carry the token (separator follows as its own
    // literal char on the next iteration).
    lit.append(text.data() + i, tok_len);
    i = j;
  }
  flush_literal(out, lit);
  return out;
}

std::string decompress_text(std::string_view blob) {
  if (blob.size() < kPackMagic.size() ||
      blob.substr(0, kPackMagic.size()) != kPackMagic) {
    corrupt("bad magic (not a safenn-pack blob)");
  }
  std::size_t pos = kPackMagic.size();
  const auto read_varint = [&]() -> std::uint64_t {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= blob.size()) corrupt("truncated varint");
      const auto byte = static_cast<unsigned char>(blob[pos++]);
      if (shift >= 64) corrupt("oversized varint");
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  };

  const std::uint64_t declared = read_varint();
  std::string out;
  // A corrupt size must not drive the allocation: no op expands its
  // bytes more than 3x, so cap the reservation by what the blob encodes.
  out.reserve(std::min<std::uint64_t>(declared, 4 * blob.size()));
  char reprint[numtext::kMaxChars];
  while (pos < blob.size()) {
    const auto op = static_cast<unsigned char>(blob[pos++]);
    if (op == kOpLiteral) {
      const std::uint64_t len = read_varint();
      if (len > blob.size() - pos) corrupt("truncated literal");
      out.append(blob.data() + pos, len);
      pos += len;
      continue;
    }
    if (op > kOpDoubleEnd) corrupt("unknown opcode");
    if (op < kOpDoubleSpace) {
      out.append(reprint, numtext::write(reprint, unzigzag(read_varint())));
    } else {
      if (blob.size() - pos < 8) corrupt("truncated double");
      std::uint64_t bits = 0;  // little-endian
      for (int i = 7; i >= 0; --i) {
        bits = bits << 8 | static_cast<unsigned char>(blob[pos + i]);
      }
      pos += 8;
      out.append(reprint, numtext::write(reprint, std::bit_cast<double>(bits)));
    }
    const int shape = (op - kOpIntSpace) % 3;
    if (shape < 2) out.push_back(shape == 0 ? ' ' : '\n');
  }
  if (out.size() != declared) corrupt("size mismatch after decode");
  return out;
}

}  // namespace safenn
