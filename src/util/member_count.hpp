#pragma once
// Compile-time member count of an aggregate, for "every member has a row"
// checks: a member added without a row makes the count disagree.

#include <cstddef>
#include <utility>

namespace bitio {

namespace detail {
/// Converts to any member type (unevaluated contexts only).
struct AnyMember {
  template <typename T>
  operator T() const;
};

template <typename T, std::size_t... I>
constexpr bool brace_initializable(std::index_sequence<I...>) {
  return requires { T{(void(I), AnyMember{})...}; };
}
}  // namespace detail

/// Number of members of the aggregate T: the most initializers T{...}
/// accepts.  T must have no base classes and no array members.
template <typename T, std::size_t N = 0>
constexpr std::size_t member_count() {
  if constexpr (detail::brace_initializable<T>(
                    std::make_index_sequence<N + 1>{}))
    return member_count<T, N + 1>();
  else
    return N;
}

}  // namespace bitio
