// Lightweight contract checking used across the library.
//
// WMCAST_ASSERT(cond, msg): internal invariant; aborts with location info.
// util::require(cond, msg):  precondition on public API input; throws
//                            std::invalid_argument so callers can recover.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace wmcast::util {

[[noreturn]] inline void assert_fail(const char* expr, const char* file, int line,
                                     const char* msg) {
  std::fprintf(stderr, "wmcast: assertion `%s` failed at %s:%d: %s\n", expr, file,
               line, msg);
  std::abort();
}

/// Throws std::invalid_argument when a documented precondition is violated.
inline void require(bool cond, const std::string& msg) {
  if (!cond) throw std::invalid_argument("wmcast: " + msg);
}

/// Literal-message form: the message string is built only on failure, so a
/// check inside a hot loop (one per member in CoverageEngine::add_set) costs
/// a branch, not an allocation.
inline void require(bool cond, const char* msg) {
  if (!cond) throw std::invalid_argument(std::string("wmcast: ") + msg);
}

}  // namespace wmcast::util

#define WMCAST_ASSERT(cond, msg)                                         \
  do {                                                                   \
    if (!(cond)) ::wmcast::util::assert_fail(#cond, __FILE__, __LINE__, msg); \
  } while (0)
