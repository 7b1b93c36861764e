//===- test_common.h - Shared test fixtures and helpers --------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared test infrastructure:
///
///  - test_seed() / seeded_rng(): deterministic per-test RNG seeding. The
///    seed is derived from the running test's full name, so every test gets
///    an independent, reproducible stream and copy-pasted seeds cannot
///    collide across tests.
///
///  - LeakCheckTest / TypedLeakCheckTest: fixtures that snapshot the node
///    allocator's live-object count in SetUp and fail the test in TearDown
///    if tree nodes leaked. Every tree built inside a test body is destroyed
///    before TearDown runs, so a nonzero delta means the reference-counting
///    collector dropped references. Adopted by the map/set/seq suites.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_TESTS_TEST_COMMON_H
#define CPAM_TESTS_TEST_COMMON_H

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

#include "src/core/allocator.h"
#include "src/parallel/random.h"

namespace cpam {
namespace test {

/// Deterministic seed unique to the currently running test (FNV-1a over the
/// "Suite.Name" string, mixed with an optional salt). Stable across runs and
/// across machines.
inline uint64_t test_seed(uint64_t Salt = 0) {
  const ::testing::TestInfo *Info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  uint64_t H = 1469598103934665603ULL; // FNV offset basis.
  auto Mix = [&H](const char *S) {
    for (; S && *S; ++S) {
      H ^= static_cast<uint64_t>(static_cast<unsigned char>(*S));
      H *= 1099511628211ULL; // FNV prime.
    }
  };
  if (Info) {
    Mix(Info->test_suite_name());
    Mix(".");
    Mix(Info->name());
  }
  return hash64(H ^ Salt);
}

/// A counter-based RNG seeded deterministically for the current test.
inline Rng seeded_rng(uint64_t Salt = 0) { return Rng(test_seed(Salt)); }

/// Saves a copyable runtime knob (a grain, a threshold, a flag) on
/// construction and restores it on scope exit, so a failed ASSERT cannot
/// leak a retuned global into later tests in the same binary.
template <class T> class ValueGuard {
public:
  explicit ValueGuard(T &Ref) : Ref(Ref), Saved(Ref) {}
  ValueGuard(const ValueGuard &) = delete;
  ValueGuard &operator=(const ValueGuard &) = delete;
  ~ValueGuard() { Ref = Saved; }

private:
  T &Ref;
  T Saved;
};

/// Fails the test if tree nodes allocated during its body were not returned
/// to the allocator by the time the body finished.
class LeakCheckTest : public ::testing::Test {
protected:
  void SetUp() override {
    LiveObjectsBefore = alloc_stats::live_object_count();
    LiveBytesBefore = alloc_stats::live_byte_count();
  }
  void TearDown() override {
    EXPECT_EQ(alloc_stats::live_object_count(), LiveObjectsBefore)
        << "tree nodes leaked during this test";
    EXPECT_EQ(alloc_stats::live_byte_count(), LiveBytesBefore)
        << "tree node bytes leaked during this test";
  }

  int64_t LiveObjectsBefore = 0;
  int64_t LiveBytesBefore = 0;
};

/// Typed-suite variant of LeakCheckTest (TYPED_TEST_SUITE needs a class
/// template).
template <class T> class TypedLeakCheckTest : public LeakCheckTest {};

} // namespace test
} // namespace cpam

#endif // CPAM_TESTS_TEST_COMMON_H
