// Exact number text behind every canonical safenn format (networks,
// artifacts, the pack codec, dataset CSV). Content hashes cover bytes, so
// numbers render as printf's "%.17g" (round-trips every double bitwise)
// and "%lld"/"%zu" forever: std::to_chars with a precision is specified as
// exactly that conversion, free of locale and stream state, and
// std::from_chars is its exact inverse.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <string>
#include <string_view>

#include "common/hash.hpp"

namespace safenn::numtext {

/// Room for one number: "%.17g" takes at most 24 chars, "%lld" 20.
inline constexpr std::size_t kMaxChars = 32;

template <class T>
concept Number = std::integral<T> || std::same_as<T, double>;

/// printf("%.17g") of a double, printf("%lld") / ("%zu") of an integer,
/// into [first, first + kMaxChars); returns the end.
template <Number T>
char* write(char* first, T v) {
  if constexpr (std::same_as<T, double>) {
    return std::to_chars(first, first + kMaxChars, v,
                         std::chars_format::general, 17)
        .ptr;
  } else {
    return std::to_chars(first, first + kMaxChars, v).ptr;
  }
}

/// Parses the whole token or fails (leaving `out` alone): no whitespace,
/// no '+', no trailing bytes, nothing out of range. Every finite value
/// write() emits parses back to the same bits; "inf" and "nan" parse too.
template <Number T>
bool parse(std::string_view token, T& out) {
  T v{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  out = v;
  return true;
}

/// ostream-style `<<` into a std::string or straight into an Fnv1a64, so
/// one writer yields both the bytes and their hash.
template <class Sink>
class Writer {
 public:
  explicit Writer(Sink& sink) : sink_(sink) {}

  Writer& operator<<(std::string_view text) {
    if constexpr (std::same_as<Sink, Fnv1a64>) {
      sink_.update(text);
    } else {
      sink_.append(text);
    }
    return *this;
  }
  Writer& operator<<(char c) { return *this << std::string_view(&c, 1); }
  template <Number T>
  Writer& operator<<(T v) {
    char buf[kMaxChars];
    return *this << std::string_view(buf, write(buf, v) - buf);
  }
  /// `n` values separated by spaces, ending the line.
  template <Number T>
  void row(const T* values, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      *this << values[i] << (i + 1 == n ? '\n' : ' ');
    }
  }

 private:
  Sink& sink_;
};

/// Strict cursor over writer output. Each token ends in one ' ' or '\n'
/// and each read names the separator the writer put there, so tabs, '\r',
/// doubled spaces, a moved line break or bytes glued to a number fail.
/// Doubles must be finite: no canonical payload holds inf or nan.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  /// Consumes `literal` (a keyword and its separator) if it comes next.
  bool skip(std::string_view literal) {
    if (!text_.substr(pos_).starts_with(literal)) return false;
    pos_ += literal.size();
    return true;
  }

  /// The next token, which must be non-empty and end in `sep`; else empty.
  std::string_view word(char sep) {
    std::size_t end = pos_;
    while (end < text_.size() && text_[end] != ' ' && text_[end] != '\n') {
      ++end;
    }
    if (end == pos_ || end == text_.size() || text_[end] != sep) return {};
    const std::string_view token = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return token;
  }

  template <Number T>
  bool read(T& out, char sep) {
    return parse(word(sep), out) && (std::integral<T> || std::isfinite(out));
  }
  /// The inverse of Writer::row: `n` numbers, the last ending its line.
  template <Number T>
  bool read_row(T* out, std::size_t n) {
    std::size_t i = 0;
    while (i < n && read(out[i], i + 1 == n ? '\n' : ' ')) ++i;
    return i == n;
  }

  /// Whether `rows * per_row` more tokens (a byte and a separator each)
  /// fit in the rest; checked before sizing buffers from declared counts.
  bool room_for(std::size_t rows, std::size_t per_row = 1) const {
    return per_row == 0 || rows <= (text_.size() - pos_) / 2 / per_row;
  }

  std::string_view rest() const { return text_.substr(pos_); }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace safenn::numtext
