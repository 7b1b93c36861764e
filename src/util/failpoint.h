//===- failpoint.h - Deterministic fault-injection registry ---------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A registry of named failpoints: sites in production code where tests
/// inject failures (allocation throws, fork refusals, artificial stalls)
/// deterministically. Each site is guarded by CPAM_FAILPOINT_ACTIVE("name"),
/// which compiles to a single relaxed load of a global armed-count when no
/// failpoint is armed — the framework is zero-cost in production builds and
/// disarmed test runs alike.
///
/// Triggers (per point):
///
///  - `always`    every hit fires.
///  - `nth=N`     exactly the N-th hit fires (one-shot).
///  - `every=N`   every N-th hit fires (hits N, 2N, 3N, ...).
///  - `p=N`       each hit fires with probability 1/N, decided by a
///                counter-based RNG over (seed, hit index): a pure function
///                of the spec, so a given seed replays the exact same
///                fire pattern on every run, at any thread interleaving of
///                *other* points.
///
/// Modifier clauses: `seed=S` (the `p=` stream seed) and `arg=V` (an opaque
/// site-interpreted payload, e.g. a sleep duration in ms for the serving
/// stall points). Clauses combine with '/': `alloc.node:p=64/seed=7`.
///
/// Configuration: programmatically via fail::arm()/fail::scoped_arm, or from
/// the environment at first use — `CPAM_FAILPOINTS=name:spec,name:spec`.
/// Hit/fire counters for every registered point export through the obs
/// registry (source "failpoints" in obs::export_json(); obs::reset_all()
/// zeroes the counts but keeps the arming).
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_UTIL_FAILPOINT_H
#define CPAM_UTIL_FAILPOINT_H

#include <atomic>
#include <cstdint>
#include <string>

namespace cpam {
namespace fail {

enum class trigger : uint8_t { Off, Always, Nth, EveryNth, Prob };

/// One named failpoint. Stable address for the lifetime of the process
/// (sites cache a reference); all fields atomic so arming races benignly
/// with hot-path evaluation.
struct point {
  explicit point(std::string Name) : Name(std::move(Name)) {}
  point(const point &) = delete;
  point &operator=(const point &) = delete;

  const std::string Name;
  std::atomic<trigger> Mode{trigger::Off};
  std::atomic<uint64_t> Param{0}; ///< N of nth=/every=/p=.
  std::atomic<uint64_t> Seed{0};  ///< Seed of the p= decision stream.
  std::atomic<uint64_t> Arg{0};   ///< Site-interpreted payload (arg=).
  std::atomic<uint64_t> Hits{0};  ///< Guard evaluations while armed.
  std::atomic<uint64_t> Fires{0}; ///< Hits that fired.

  /// Counts a hit and decides whether this one fires. Only called while the
  /// global armed-count is nonzero, but the point itself may still be off.
  bool should_fire() {
    trigger M = Mode.load(std::memory_order_acquire);
    if (M == trigger::Off)
      return false;
    uint64_t H = Hits.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t N = Param.load(std::memory_order_relaxed);
    bool Fire = false;
    switch (M) {
    case trigger::Always:
      Fire = true;
      break;
    case trigger::Nth:
      Fire = H == N;
      break;
    case trigger::EveryNth:
      Fire = N != 0 && H % N == 0;
      break;
    case trigger::Prob: {
      // splitmix64 over (seed, hit index): the decision for hit H depends
      // only on the spec, never on timing.
      uint64_t X = Seed.load(std::memory_order_relaxed) +
                   H * 0x9e3779b97f4a7c15ULL;
      X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
      X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
      X ^= X >> 31;
      Fire = N != 0 && X % N == 0;
      break;
    }
    case trigger::Off:
      break;
    }
    if (Fire)
      Fires.fetch_add(1, std::memory_order_relaxed);
    return Fire;
  }
};

namespace detail {
/// Number of points whose Mode != Off. The one load every disarmed site
/// pays.
extern std::atomic<int> ArmedCount;

inline bool any_armed() {
  return ArmedCount.load(std::memory_order_relaxed) != 0;
}

/// Looks up (or creates) the point named \p Name. Parses CPAM_FAILPOINTS on
/// first use. Thread-safe; the returned reference is stable forever.
point &get(const char *Name);
} // namespace detail

/// Arms \p Name with \p Spec (grammar in the file header). Returns false on
/// a malformed spec (the point is left untouched).
bool arm(const std::string &Name, const std::string &Spec);

/// Disarms \p Name (hit/fire counts are kept).
void disarm(const std::string &Name);

/// Disarms every point.
void disarm_all();

/// Zeroes every point's hit/fire counters (arming is kept).
void reset_counts();

/// Hit / fire counters and the arg payload of \p Name (0 / Default if the
/// point was never referenced).
uint64_t hits(const std::string &Name);
uint64_t fires(const std::string &Name);
uint64_t arg(const std::string &Name, uint64_t Default = 0);

/// RAII arming for tests: arms in the constructor, disarms (and zeroes the
/// counters) in the destructor so no failpoint leaks into later tests.
class scoped_arm {
public:
  scoped_arm(std::string Name, const std::string &Spec)
      : Name(std::move(Name)) {
    arm(this->Name, Spec);
  }
  scoped_arm(const scoped_arm &) = delete;
  scoped_arm &operator=(const scoped_arm &) = delete;
  ~scoped_arm();

private:
  std::string Name;
};

} // namespace fail
} // namespace cpam

/// Site guard. Evaluates to true when the named failpoint decides to fire.
/// Disarmed cost: one relaxed load + predicted-untaken branch. The static
/// local caches the registry lookup per site, so armed cost is one atomic
/// fetch_add per hit, no lock.
#define CPAM_FAILPOINT_ACTIVE(NameLiteral)                                     \
  (__builtin_expect(::cpam::fail::detail::any_armed(), 0) &&                   \
   ([]() -> ::cpam::fail::point & {                                            \
     static ::cpam::fail::point &P = ::cpam::fail::detail::get(NameLiteral);   \
     return P;                                                                 \
   }())                                                                        \
       .should_fire())

#endif // CPAM_UTIL_FAILPOINT_H
