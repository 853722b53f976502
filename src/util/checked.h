// Narrowing and invariant helpers in the spirit of the GSL (C++ Core
// Guidelines ES.46, I.6): fail loudly instead of silently truncating.
#pragma once

#include <cstdint>
#include <limits>
#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace bss {

/// Thrown when a runtime invariant of the library is violated.  Invariant
/// failures are programming errors (broken preconditions), so most callers
/// should let this propagate.
class InvariantError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// The part of a source path that failure messages print: from its last
/// `src/` component on, or the bare file name when it has none.  A message
/// thus reads the same whatever directory the tree was checked out or built
/// in, and so do the counterexample artifacts that carry it.
constexpr std::string_view source_path(std::string_view file) {
  if (const auto at = file.rfind("/src/"); at != std::string_view::npos) {
    return file.substr(at + 1);
  }
  if (file.starts_with("src/")) return file;
  const auto slash = file.rfind('/');
  return slash == std::string_view::npos ? file : file.substr(slash + 1);
}

/// Throws the InvariantError of a failed expects(): out of line, so the
/// check itself inlines to a test and a branch.
[[noreturn, gnu::noinline]] inline void invariant_failed(
    std::string_view what, const std::source_location& loc) {
  std::string message(source_path(loc.file_name()));
  message += ':';
  message += std::to_string(loc.line());
  message += ": ";
  message += what;
  throw InvariantError(message);
}

/// Checks a precondition/invariant; throws InvariantError with location info.
/// `what` is a view, so a literal message costs nothing when the check
/// passes; build a composed message only on the failure path.
inline void expects(bool condition, std::string_view what,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] invariant_failed(what, loc);
}

/// Cast that throws if the value does not round-trip (GSL narrow).
template <class To, class From>
To checked_cast(From value) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>);
  const To result = static_cast<To>(value);
  if (static_cast<From>(result) != value ||
      ((result < To{}) != (value < From{}))) {
    throw InvariantError("checked_cast: value does not fit target type");
  }
  return result;
}

/// Saturating factorial in uint64; throws when the exact value overflows.
inline std::uint64_t factorial_u64(int n) {
  expects(n >= 0, "factorial of negative number");
  expects(n <= 20, "factorial_u64 overflows past 20!");
  std::uint64_t result = 1;
  for (int i = 2; i <= n; ++i) result *= static_cast<std::uint64_t>(i);
  return result;
}

}  // namespace bss
