// Error handling primitives shared by every safenn module.
#pragma once

#include <stdexcept>
#include <string>

namespace safenn {

/// Base exception for all library errors. Thrown on contract violations
/// at API boundaries (bad dimensions, unknown names, malformed files).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws safenn::Error with `msg` when `cond` is false. Used for
/// precondition checks that must stay active in release builds.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw Error(msg);
}

/// Same check for a literal message: the std::string is built only when
/// the check fails, so a passing check on a hot path (an element read)
/// allocates nothing.
inline void require(bool cond, const char* msg) {
  if (!cond) [[unlikely]] throw Error(msg);
}

}  // namespace safenn
