//===- visit.h - Visitors that may stop a sequential scan ------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#ifndef CPAM_UTIL_VISIT_H
#define CPAM_UTIL_VISIT_H

#include <type_traits>

namespace cpam {

/// Calls f(X) and returns whether a sequential scan should go on: false
/// only when \p f returned false, so visitors returning void never stop it.
template <class F, class T> bool visit_continue(const F &f, const T &X) {
  if constexpr (std::is_void_v<decltype(f(X))>) {
    f(X);
    return true;
  } else {
    return static_cast<bool>(f(X));
  }
}

} // namespace cpam

#endif // CPAM_UTIL_VISIT_H
