//===- test_scheduler.cpp - Chase-Lev deque and runtime tests --------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The work-stealing runtime's own suite: the Chase-Lev deque in isolation
/// (owner LIFO semantics, grow-on-overflow, and a one-owner/many-thieves
/// stress test proving every element is claimed exactly once), then the
/// scheduler built on it (nested parDo recursion depth, foreign-thread
/// degradation, park/unpark churn, telemetry), then run_on_pool, the
/// submission path for threads outside the pool. Registered with CTest
/// three times: with the default pool, with one worker (every run_on_pool
/// runs inline) and with 16 oversubscribed workers — all under the tier1
/// label, so the ASan leg runs all three.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "src/parallel/chase_lev.h"
#include "src/parallel/primitives.h"
#include "src/parallel/scheduler.h"
#include "tests/test_common.h"

using namespace cpam;
using cl_deque = par::chase_lev_deque<int64_t>;

//===----------------------------------------------------------------------===//
// Chase-Lev deque in isolation.
//===----------------------------------------------------------------------===//

TEST(ChaseLev, OwnerPushPopIsLifo) {
  cl_deque D;
  for (int64_t I = 0; I < 100; ++I)
    D.push(I);
  EXPECT_EQ(D.size_approx(), 100u);
  for (int64_t I = 99; I >= 0; --I) {
    int64_t V = -1;
    ASSERT_TRUE(D.pop(V));
    EXPECT_EQ(V, I);
  }
  int64_t V;
  EXPECT_FALSE(D.pop(V));
  EXPECT_TRUE(D.empty_approx());
}

TEST(ChaseLev, StealTakesOldest) {
  cl_deque D;
  for (int64_t I = 0; I < 10; ++I)
    D.push(I);
  int64_t V = -1;
  ASSERT_EQ(D.steal(V), cl_deque::steal_t::Ok);
  EXPECT_EQ(V, 0); // Oldest end.
  ASSERT_TRUE(D.pop(V));
  EXPECT_EQ(V, 9); // Newest end.
}

TEST(ChaseLev, GrowOnOverflowPreservesContents) {
  cl_deque D(/*InitCap=*/8);
  size_t Cap0 = D.capacity();
  const int64_t N = 5000;
  for (int64_t I = 0; I < N; ++I)
    D.push(I);
  EXPECT_GT(D.capacity(), Cap0);
  EXPECT_GE(D.capacity(), static_cast<size_t>(N));
  // Mixed draining: alternate pops (newest) and steals (oldest) and check
  // both frontiers stay coherent across the ring swaps.
  int64_t Lo = 0, Hi = N - 1;
  while (Lo <= Hi) {
    int64_t V = -1;
    if ((Lo + Hi) % 2) {
      ASSERT_TRUE(D.pop(V));
      EXPECT_EQ(V, Hi--);
    } else {
      ASSERT_EQ(D.steal(V), cl_deque::steal_t::Ok);
      EXPECT_EQ(V, Lo++);
    }
  }
  int64_t V;
  EXPECT_FALSE(D.pop(V));
  EXPECT_EQ(D.steal(V), cl_deque::steal_t::Empty);
}

TEST(ChaseLev, InterleavedPushPopNeverLoses) {
  cl_deque D(8);
  int64_t Next = 0;
  std::vector<bool> Seen(3000, false);
  Rng R(test::test_seed());
  // Random push/pop interleaving, owner only: every pushed value must come
  // back exactly once, in stack order.
  std::vector<int64_t> Stack;
  for (int Round = 0; Round < 3000; ++Round) {
    if (Next < 3000 && (Stack.empty() || R.next(2))) {
      D.push(Next);
      Stack.push_back(Next++);
    } else {
      int64_t V = -1;
      ASSERT_TRUE(D.pop(V));
      ASSERT_EQ(V, Stack.back());
      Stack.pop_back();
      ASSERT_FALSE(Seen[static_cast<size_t>(V)]);
      Seen[static_cast<size_t>(V)] = true;
    }
  }
}

/// The core safety property: one owner pushing/popping, many thieves
/// stealing, every element claimed exactly once — across ring growth.
TEST(ChaseLev, StressOneOwnerManyThieves) {
  const int64_t N = 200000;
  const int NumThieves = 4;
  cl_deque D(/*InitCap=*/8); // Small ring: force many grow cycles.
  std::vector<std::atomic<int>> Claimed(static_cast<size_t>(N));
  std::atomic<bool> OwnerDone{false};
  std::atomic<int64_t> TotalClaims{0};

  auto Claim = [&](int64_t V) {
    ASSERT_GE(V, 0);
    ASSERT_LT(V, N);
    Claimed[static_cast<size_t>(V)].fetch_add(1, std::memory_order_relaxed);
    TotalClaims.fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> Thieves;
  for (int T = 0; T < NumThieves; ++T) {
    Thieves.emplace_back([&] {
      while (true) {
        int64_t V = -1;
        switch (D.steal(V)) {
        case cl_deque::steal_t::Ok:
          Claim(V);
          break;
        case cl_deque::steal_t::Lost:
          break; // Contention: retry immediately.
        case cl_deque::steal_t::Empty:
          if (OwnerDone.load(std::memory_order_acquire))
            return;
          std::this_thread::yield();
          break;
        }
      }
    });
  }

  // Owner: bursts of pushes with interspersed pops (the fork-join shape).
  Rng R(test::test_seed());
  int64_t Next = 0;
  while (Next < N) {
    int64_t Burst = static_cast<int64_t>(1 + R.next(64));
    for (int64_t I = 0; I < Burst && Next < N; ++I)
      D.push(Next++);
    int64_t Pops = static_cast<int64_t>(R.next(32));
    for (int64_t I = 0; I < Pops; ++I) {
      int64_t V = -1;
      if (!D.pop(V))
        break;
      Claim(V);
    }
  }
  // Drain whatever the thieves have not taken.
  int64_t V = -1;
  while (D.pop(V))
    Claim(V);
  OwnerDone.store(true, std::memory_order_release);
  for (std::thread &T : Thieves)
    T.join();

  EXPECT_EQ(TotalClaims.load(), N);
  for (int64_t I = 0; I < N; ++I)
    ASSERT_EQ(Claimed[static_cast<size_t>(I)].load(), 1) << "element " << I;
}

//===----------------------------------------------------------------------===//
// Scheduler on top.
//===----------------------------------------------------------------------===//

TEST(SchedulerRuntime, NestedParDoRecursionDepth) {
  // A linear chain of nested parDos: every frame's task object lives on the
  // forking thread's stack, so this exercises deep reclaim/help interleaving
  // without exhausting memory.
  const int Depth = 2000; // Deep, but stack-safe under ASan's fat frames.
  std::atomic<long> Sum{0};
  std::function<void(int)> Rec = [&](int D) {
    if (D == 0)
      return;
    par::par_do([&] { Rec(D - 1); },
                [&] { Sum.fetch_add(1, std::memory_order_relaxed); });
  };
  Rec(Depth);
  EXPECT_EQ(Sum.load(), Depth);
}

TEST(SchedulerRuntime, BinaryRecursionClaimsEveryLeafOnce) {
  const size_t N = 1 << 18;
  std::vector<std::atomic<int>> Hits(N);
  std::function<void(size_t, size_t)> Rec = [&](size_t Lo, size_t Hi) {
    if (Hi - Lo == 1) {
      Hits[Lo].fetch_add(1, std::memory_order_relaxed);
      return;
    }
    size_t Mid = Lo + (Hi - Lo) / 2;
    // Grain 1: maximum fork pressure, every internal node is a push.
    par::par_do([&] { Rec(Lo, Mid); }, [&] { Rec(Mid, Hi); });
  };
  Rec(0, N);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1) << "leaf " << I;
}

TEST(SchedulerRuntime, ForeignThreadsDegradeAndGetSlots) {
  std::atomic<long> Sum{0};
  std::atomic<int> BadIds{0};
  std::vector<std::thread> Foreign;
  for (int T = 0; T < 4; ++T) {
    Foreign.emplace_back([&] {
      if (par::worker_id() != -1)
        BadIds.fetch_add(1);
      if (par::thread_slot() < par::Scheduler::kForeignSlotBase)
        BadIds.fetch_add(1);
      // parDo off-pool must degrade to sequential execution and still nest.
      par::par_do(
          [&] {
            par::parallel_for(0, 1000, [&](size_t I) {
              Sum.fetch_add(static_cast<long>(I), std::memory_order_relaxed);
            });
          },
          [&] { Sum.fetch_add(1, std::memory_order_relaxed); });
    });
  }
  for (std::thread &T : Foreign)
    T.join();
  EXPECT_EQ(BadIds.load(), 0);
  EXPECT_EQ(Sum.load(), 4 * (999L * 1000 / 2 + 1));
}

TEST(SchedulerRuntime, StatsCountForksAndReclaims) {
  par::scheduler_stats_reset();
  const size_t N = 1 << 16;
  std::vector<std::atomic<int>> Hits(N);
  par::parallel_for(
      0, N, [&](size_t I) { Hits[I].fetch_add(1, std::memory_order_relaxed); },
      /*Gran=*/64);
  par::SchedulerStats S = par::scheduler_stats();
  if (par::num_workers() == 1) {
    // Single-worker pools bypass the deque entirely (parDo shortcut).
    EXPECT_EQ(S.Forks, 0u);
  } else {
    // N/64 chunks require (N/64 - 1) forks, whatever the tree shape.
    EXPECT_EQ(S.Forks, N / 64 - 1);
  }
  // Every fork is either reclaimed inline by its forker or stolen and
  // joined; nothing is lost.
  EXPECT_EQ(S.Forks, S.InlineReclaims + S.Steals);
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Hits[I].load(), 1);
}

TEST(SchedulerRuntime, ParkUnparkChurn) {
  par::scheduler_stats_reset();
  // Alternate short parallel bursts with idle gaps that last until a worker
  // has parked, so every round exercises the wake-on-push protocol from a
  // cold (parked) pool. A gap waits for the park rather than sleeping a
  // fixed time: on a loaded host the idle workers may not be scheduled
  // through their spin/yield escalation within any fixed few milliseconds.
  const int Rounds = 30;
  const bool Pool = par::num_workers() > 1;
  for (int R = 0; R < Rounds; ++R) {
    std::atomic<long> Sum{0};
    par::parallel_for(
        0, 4096,
        [&](size_t I) {
          Sum.fetch_add(static_cast<long>(I), std::memory_order_relaxed);
        },
        /*Gran=*/16);
    ASSERT_EQ(Sum.load(), 4095L * 4096 / 2) << "round " << R;
    if (!Pool)
      continue;
    // Parked workers re-park after every backstop timeout, so the count
    // keeps rising while the pool idles; 2 s bounds a wedged run.
    uint64_t Before = par::scheduler_stats().Parks;
    auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (par::scheduler_stats().Parks == Before &&
           std::chrono::steady_clock::now() < Deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  par::SchedulerStats S = par::scheduler_stats();
  if (Pool) {
    EXPECT_GT(S.Forks, 0u);
    // Workers must actually have parked during the gaps.
    EXPECT_GT(S.Parks, 0u);
  } else {
    EXPECT_EQ(S.Parks, 0u);
  }
}

TEST(SchedulerRuntime, JoinerParksOnLongStolenBranch) {
  // A forker whose stolen branch outlives its own branch must end up on the
  // join condition variable (JoinParks telemetry), not in a sleep-poll loop:
  // the completion signal, not a timer, is what wakes it. Stealing is
  // timing-dependent (the pushed branch may be reclaimed inline before any
  // thief gets scheduled), so retry until a steal actually happens.
  if (par::num_workers() < 2)
    GTEST_SKIP() << "needs a multi-worker pool";
  bool Parked = false;
  for (int Attempt = 0; Attempt < 40 && !Parked; ++Attempt) {
    par::scheduler_stats_reset();
    par::par_do(
        [&] {
          // Linger long enough for a thief to claim the pushed branch.
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        },
        [&] {
          // Hold the joiner far past its spin/yield probe budget.
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        });
    Parked = par::scheduler_stats().JoinParks > 0;
  }
  EXPECT_TRUE(Parked) << "joiner never parked on a long stolen branch";
}

TEST(SchedulerRuntime, MixedNestedWorkMatchesSequential) {
  // Nested parallel_for + par_do + tree recursion, compared against the
  // same computation with forking disabled.
  auto Work = [](std::atomic<uint64_t> &Acc) {
    par::par_do(
        [&] {
          par::parallel_for(0, 50000, [&](size_t I) {
            Acc.fetch_add(hash64(I) & 0xff, std::memory_order_relaxed);
          });
        },
        [&] {
          std::function<uint64_t(size_t, size_t)> Rec = [&](size_t Lo,
                                                            size_t Hi) {
            if (Hi - Lo <= 128) {
              uint64_t H = 0;
              for (size_t I = Lo; I < Hi; ++I)
                H += hash64(I) >> 56;
              return H;
            }
            size_t Mid = Lo + (Hi - Lo) / 2;
            uint64_t A = 0, B = 0;
            par::par_do([&] { A = Rec(Lo, Mid); }, [&] { B = Rec(Mid, Hi); });
            return A + B;
          };
          Acc.fetch_add(Rec(0, 100000), std::memory_order_relaxed);
        });
  };
  std::atomic<uint64_t> Par{0}, Seq{0};
  Work(Par);
  par::set_sequential(true);
  Work(Seq);
  par::set_sequential(false);
  EXPECT_EQ(Par.load(), Seq.load());
}

//===----------------------------------------------------------------------===//
// run_on_pool: the submission path for threads outside the pool.
//===----------------------------------------------------------------------===//

namespace {
/// Sum of 0..N-1 over a grain-64 parallel_for (N/64 - 1 forks on a pool).
uint64_t parallelSum(size_t N) {
  std::atomic<uint64_t> Sum{0};
  par::parallel_for(
      0, N, [&](size_t I) { Sum.fetch_add(I, std::memory_order_relaxed); },
      /*Gran=*/64);
  return Sum.load();
}

constexpr uint64_t triangle(uint64_t N) { return N * (N - 1) / 2; }
} // namespace

TEST(RunOnPool, ForeignThreadRunsOnAWorkerAndForks) {
  const size_t N = 1 << 16;
  int Id = -2;
  uint64_t Sum = 0;
  uint64_t Forks0 = par::scheduler_stats().Forks;
  std::thread Caller([&] {
    par::run_on_pool([&] {
      Id = par::worker_id();
      Sum = parallelSum(N);
    });
  });
  Caller.join();
  EXPECT_EQ(Sum, triangle(N));
  if (par::num_workers() > 1) {
    EXPECT_GE(Id, 1) << "worker 0 is the main thread; it never takes the slot";
    EXPECT_GT(par::scheduler_stats().Forks, Forks0);
  } else {
    EXPECT_EQ(Id, -1) << "a one-worker pool runs the task inline";
  }
}

TEST(RunOnPool, ExceptionIsRethrownOnTheCaller) {
  bool Caught = false;
  std::thread Caller([&] {
    try {
      par::run_on_pool([] { throw std::runtime_error("from the task"); });
    } catch (const std::runtime_error &E) {
      Caught = std::string(E.what()) == "from the task";
    }
  });
  Caller.join();
  EXPECT_TRUE(Caught);
  // The worker that ran the throwing task is back in service.
  uint64_t Sum = 0;
  std::thread Again(
      [&] { par::run_on_pool([&] { Sum = parallelSum(4096); }); });
  Again.join();
  EXPECT_EQ(Sum, triangle(4096));
}

TEST(RunOnPool, PoolThreadAndSequentialModeRunInline) {
  // The main thread is pool worker 0: no hand-off.
  std::thread::id Ran;
  par::run_on_pool([&] { Ran = std::this_thread::get_id(); });
  EXPECT_EQ(Ran, std::this_thread::get_id());

  // Sequential mode: a foreign caller runs its task itself.
  par::set_sequential(true);
  std::thread::id Caller, RanOn;
  int Id = -2;
  std::thread T([&] {
    Caller = std::this_thread::get_id();
    par::run_on_pool([&] {
      RanOn = std::this_thread::get_id();
      Id = par::worker_id();
    });
  });
  T.join();
  par::set_sequential(false);
  EXPECT_EQ(RanOn, Caller);
  EXPECT_EQ(Id, -1);
}

TEST(RunOnPool, ConcurrentCallersAllComplete) {
  // Eight foreign threads contend for the one submission slot, several
  // times each; every task runs exactly once and sees a correct sum.
  constexpr int kCallers = 8, kCalls = 5;
  const size_t N = 1 << 14;
  std::atomic<int> Runs{0}, BadSums{0};
  std::vector<std::thread> Callers;
  for (int C = 0; C < kCallers; ++C)
    Callers.emplace_back([&] {
      for (int K = 0; K < kCalls; ++K) {
        uint64_t Sum = 0;
        par::run_on_pool([&] {
          Runs.fetch_add(1, std::memory_order_relaxed);
          Sum = parallelSum(N);
        });
        if (Sum != triangle(N))
          BadSums.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Callers)
    T.join();
  EXPECT_EQ(Runs.load(), kCallers * kCalls);
  EXPECT_EQ(BadSums.load(), 0);
}
