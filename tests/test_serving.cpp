//===- test_serving.cpp - Versioned snapshot store tests -------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the serving layer (src/serving/): the epoch manager's
/// pin/advance/min_active protocol, version_chain's publish/acquire/
/// reclaim contract (reclamation strictly after the last reader epoch
/// that could observe a version exits; snapshots stay valid past
/// reclamation through refcounts alone), the bounded batch-ingest
/// pipeline, and the versioned_graph binding for both sym_graph and the
/// aspen_graph baseline. The concurrent episodes run readers on foreign
/// std::threads — the scheduler's sequential degradation path — against a
/// live writer whose batches run on pool workers, and are part of the CI
/// TSan leg. Leak-check fixtures
/// confirm a drained chain releases every tree node it ever owned.
///
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/pam_set.h"
#include "src/baselines/aspen_graph.h"
#include "src/graph/graph.h"
#include "src/parallel/scheduler.h"
#include "src/serving/version_chain.h"
#include "src/util/failpoint.h"
#include "tests/test_common.h"

namespace cpam {
namespace {

using serving::epoch_manager;
using serving::ingest_pipeline;
using serving::overload_policy;
using serving::version_chain;
using serving::versioned_graph;

using u64_set = pam_set<uint64_t>;

std::vector<uint64_t> iota(uint64_t N) {
  std::vector<uint64_t> V(N);
  for (uint64_t I = 0; I < N; ++I)
    V[I] = I;
  return V;
}

//===----------------------------------------------------------------------===//
// Epoch manager.
//===----------------------------------------------------------------------===//

TEST(EpochManager, PinUnpinAndMinActive) {
  epoch_manager E;
  uint64_t E0 = E.current();
  EXPECT_EQ(E.min_active(), E0) << "no pins: min_active is the global epoch";
  EXPECT_FALSE(E.any_pinned());

  size_t S1 = E.pin();
  EXPECT_TRUE(E.any_pinned());
  EXPECT_EQ(E.min_active(), E0);

  // Advancing with a pinned reader keeps min_active at the pin.
  EXPECT_EQ(E.advance(), E0);
  EXPECT_EQ(E.current(), E0 + 1);
  EXPECT_EQ(E.min_active(), E0) << "pinned reader holds min_active back";

  // A second pin at the newer epoch does not lift the floor.
  size_t S2 = E.pin();
  EXPECT_NE(S1, S2) << "nested pins claim distinct slots";
  EXPECT_EQ(E.min_active(), E0);

  E.unpin(S1);
  EXPECT_EQ(E.min_active(), E0 + 1) << "floor rises to the remaining pin";
  E.unpin(S2);
  EXPECT_EQ(E.min_active(), E.current());
  EXPECT_FALSE(E.any_pinned());
  EXPECT_GE(E.stats().Pins, 2u);
}

TEST(EpochManager, GuardIsRaii) {
  epoch_manager E;
  {
    epoch_manager::guard G(E);
    EXPECT_TRUE(E.any_pinned());
  }
  EXPECT_FALSE(E.any_pinned());
}

/// Slot exhaustion contract: with all kMaxReaders slots pinned, pin()
/// does not fail or corrupt anything — it counts a SlotExhausted sweep,
/// yields, and completes as soon as any slot frees.
TEST(EpochManager, SlotExhaustionBlocksThenRecovers) {
  epoch_manager E;
  std::vector<size_t> Slots;
  Slots.reserve(epoch_manager::kMaxReaders);
  for (size_t I = 0; I < epoch_manager::kMaxReaders; ++I)
    Slots.push_back(E.pin());
  EXPECT_EQ(E.stats().SlotExhausted, 0u)
      << "exactly kMaxReaders pins must fit without a failed sweep";

  std::atomic<bool> Claimed{false};
  size_t LateSlot = 0;
  std::thread Late([&] {
    LateSlot = E.pin(); // Spins in yield-retry until a slot frees.
    Claimed.store(true, std::memory_order_release);
  });
  // The 513th pin cannot succeed while the table is full; wait until it
  // has demonstrably swept the whole table at least once.
  while (E.stats().SlotExhausted == 0)
    std::this_thread::yield();
  EXPECT_FALSE(Claimed.load(std::memory_order_acquire))
      << "pin claimed a slot while all were busy";

  E.unpin(Slots.back());
  Slots.pop_back();
  Late.join();
  EXPECT_TRUE(Claimed.load());
  E.unpin(LateSlot);
  for (size_t S : Slots)
    E.unpin(S);
  EXPECT_FALSE(E.any_pinned());
  EXPECT_GE(E.stats().SlotExhausted, 1u);
}

//===----------------------------------------------------------------------===//
// Version chain: deterministic single-thread contract.
//===----------------------------------------------------------------------===//

class ServingLeakTest : public test::LeakCheckTest {};

TEST_F(ServingLeakTest, PublishAcquireSequence) {
  version_chain<u64_set> Chain(u64_set::from_sorted(iota(1)));
  for (uint64_t K = 2; K <= 8; ++K)
    Chain.publish(u64_set::from_sorted(iota(K)));
  uint64_t Seq = 0;
  u64_set S = Chain.acquire(Seq);
  EXPECT_EQ(Seq, 8u);
  EXPECT_EQ(Chain.seq(), 8u);
  EXPECT_EQ(S.size(), 8u);
  EXPECT_TRUE(S.contains(7));
  EXPECT_FALSE(S.contains(8));
}

TEST_F(ServingLeakTest, ReclaimOnlyAfterLastReaderEpochExits) {
  version_chain<u64_set> Chain(u64_set::from_sorted(iota(4)));
  // Pin a reader epoch by hand, as a reader caught between loading the
  // version pointer and copying the root would.
  epoch_manager &E = Chain.epochs();
  size_t Slot = E.pin();

  for (uint64_t K = 5; K <= 9; ++K)
    Chain.publish(u64_set::from_sorted(iota(K)));
  // All five retired versions carry retire epochs >= the pinned epoch, so
  // nothing may be reclaimed — neither by publish's inline pass nor by an
  // explicit one.
  EXPECT_EQ(Chain.retired_count(), 5u);
  EXPECT_EQ(Chain.reclaim(), 0u);
  EXPECT_EQ(Chain.reclaimed_total(), 0u);

  E.unpin(Slot);
  // Last reader epoch gone: every retired version frees in one pass.
  EXPECT_EQ(Chain.reclaim(), 5u);
  EXPECT_EQ(Chain.retired_count(), 0u);
  EXPECT_EQ(Chain.reclaimed_total(), 5u);
}

TEST_F(ServingLeakTest, SnapshotOutlivesReclamation) {
  version_chain<u64_set> Chain(u64_set::from_sorted(iota(100)));
  // The snapshot handle holds the tree by refcount; the epoch pin only
  // protects the acquire window. Reclaiming the retired version node must
  // leave the held snapshot fully readable.
  u64_set Old = Chain.acquire();
  Chain.publish(u64_set::from_sorted(iota(200)));
  Chain.publish(u64_set::from_sorted(iota(300)));
  // No reader pinned: publish's inline pass reclaimed both versions.
  EXPECT_EQ(Chain.retired_count(), 0u);
  EXPECT_EQ(Chain.reclaimed_total(), 2u);
  EXPECT_EQ(Old.size(), 100u);
  EXPECT_TRUE(Old.contains(99));
  EXPECT_EQ(Chain.acquire().size(), 300u);
}

TEST_F(ServingLeakTest, ChainDrainReleasesAllNodes) {
  // The fixture snapshots live-node counts around the body: building a
  // chain, churning versions, and destroying it must return to baseline.
  {
    version_chain<u64_set> Chain(u64_set::from_sorted(iota(64)));
    for (int Round = 0; Round < 32; ++Round)
      Chain.publish(u64_set::from_sorted(iota(64 + Round)));
    u64_set Keep = Chain.acquire();
    EXPECT_EQ(Keep.size(), 95u);
  } // Chain destructor drains current + retired versions.
}

//===----------------------------------------------------------------------===//
// Version chain: readers vs writer (the TSan episodes).
//===----------------------------------------------------------------------===//

/// Readers acquire snapshots continuously while one writer publishes
/// versions holding {0..K}: every snapshot must be internally consistent
/// (size s implies membership of exactly 0..s-1) and version sequence
/// numbers must be monotone per reader.
TEST_F(ServingLeakTest, SnapshotDuringPublishIsConsistent) {
  constexpr uint64_t kVersions = 300;
  constexpr size_t kReaders = 4;
  {
    version_chain<u64_set> Chain(u64_set::from_sorted(iota(1)));
    std::atomic<bool> Done{false};
    std::vector<std::thread> Readers;
    for (size_t R = 0; R < kReaders; ++R) {
      Readers.emplace_back([&] {
        uint64_t LastSeq = 0;
        while (!Done.load(std::memory_order_acquire)) {
          uint64_t Seq = 0;
          u64_set S = Chain.acquire(Seq);
          size_t N = S.size();
          ASSERT_GE(N, 1u);
          EXPECT_TRUE(S.contains(N - 1))
              << "snapshot missing its own maximum";
          EXPECT_FALSE(S.contains(N)) << "snapshot sees a future element";
          EXPECT_GE(Seq, LastSeq) << "version sequence went backwards";
          LastSeq = Seq;
        }
      });
    }
    for (uint64_t K = 2; K <= kVersions; ++K)
      Chain.publish(u64_set::from_sorted(iota(K)));
    Done.store(true, std::memory_order_release);
    for (auto &T : Readers)
      T.join();
    // Writer idle, readers gone: the whole retired backlog drains.
    Chain.reclaim();
    EXPECT_EQ(Chain.retired_count(), 0u);
    EXPECT_EQ(Chain.reclaimed_total(), kVersions - 1);
  }
}

TEST_F(ServingLeakTest, ManyReadersManyVersionsReclaimsEverything) {
  constexpr uint64_t kMinVersions = 200;
  constexpr uint64_t kMinAcquires = 64;
  constexpr uint64_t kMaxVersions = 1u << 20; // Starvation backstop.
  constexpr size_t kReaders = 8;
  {
    version_chain<u64_set> Chain(u64_set::from_sorted(iota(16)));
    std::atomic<bool> Done{false};
    std::atomic<uint64_t> Acquires{0};
    std::vector<std::thread> Readers;
    for (size_t R = 0; R < kReaders; ++R) {
      Readers.emplace_back([&, R] {
        Rng Rnd(test::test_seed(R));
        uint64_t I = 0;
        while (!Done.load(std::memory_order_acquire)) {
          u64_set S = Chain.acquire();
          // Touch the tree beyond the root so TSan sees real reads of
          // shared nodes racing any (incorrect) premature free.
          uint64_t Probe = Rnd.ith(I++) % (S.size() + 1);
          (void)S.contains(Probe);
          Acquires.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Publish until readers have demonstrably raced the writer (on a
    // single-core box the writer can otherwise finish any fixed version
    // count before a reader is ever scheduled), yielding to let them run.
    uint64_t Published = 0;
    while (Published < kMinVersions ||
           (Acquires.load(std::memory_order_relaxed) < kMinAcquires &&
            Published < kMaxVersions)) {
      Chain.publish(u64_set::from_sorted(iota(16 + Published % 64)));
      ++Published;
      if ((Published & 63) == 0)
        std::this_thread::yield();
    }
    Done.store(true, std::memory_order_release);
    for (auto &T : Readers)
      T.join();
    EXPECT_GT(Acquires.load(), 0u);
    Chain.reclaim();
    EXPECT_EQ(Chain.retired_count(), 0u);
    EXPECT_EQ(Chain.reclaimed_total(), Published);
  }
}

/// Readers call range on acquired snapshots while the writer publishes
/// versions built with insert, remove and multi_insert and reclaims old
/// ones. range takes no reference on the path nodes it walks, so every
/// result matching the same slice of its snapshot's to_vector() shows the
/// writer never frees or rewrites a node a reader is on.
TEST_F(ServingLeakTest, ConcurrentRangeReadersMatchTheirSnapshot) {
  constexpr uint64_t kUniverse = 1u << 15;
  constexpr uint64_t kMinVersions = 200;
  constexpr uint64_t kMinRanges = 64;
  constexpr uint64_t kMaxVersions = 1u << 16; // Starvation backstop.
  constexpr size_t kReaders = 3;
  {
    std::vector<uint64_t> Start = iota(kUniverse / 4);
    for (uint64_t &K : Start)
      K *= 4;
    version_chain<u64_set> Chain(u64_set::from_sorted(Start));
    std::atomic<bool> Done{false};
    std::atomic<uint64_t> Ranges{0};
    std::vector<std::thread> Readers;
    for (size_t R = 0; R < kReaders; ++R) {
      Readers.emplace_back([&, R] {
        Rng Rnd(test::test_seed(R));
        uint64_t I = 0;
        while (!Done.load(std::memory_order_acquire)) {
          u64_set S = Chain.acquire();
          uint64_t Lo = Rnd.ith(I++) % kUniverse;
          uint64_t Hi = Lo + Rnd.ith(I++) % 4096;
          std::vector<uint64_t> Got = S.range(Lo, Hi).to_vector();
          std::vector<uint64_t> All = S.to_vector();
          std::vector<uint64_t> Want(
              std::lower_bound(All.begin(), All.end(), Lo),
              std::upper_bound(All.begin(), All.end(), Hi));
          EXPECT_EQ(Got, Want) << "range [" << Lo << "," << Hi << "]";
          Ranges.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    Rng W = test::seeded_rng(kReaders);
    u64_set Cur = Chain.acquire();
    uint64_t Published = 0;
    while (Published < kMinVersions ||
           (Ranges.load(std::memory_order_relaxed) < kMinRanges &&
            Published < kMaxVersions)) {
      switch (Published % 3) {
      case 0:
        Cur.insert_inplace(W.next(kUniverse));
        break;
      case 1:
        Cur.remove_inplace(W.next(kUniverse));
        break;
      default: {
        std::vector<uint64_t> Batch(64);
        for (uint64_t &K : Batch)
          K = W.next(kUniverse);
        Cur = Cur.multi_insert(std::move(Batch));
        break;
      }
      }
      Chain.publish(Cur);
      ++Published;
      if ((Published & 63) == 0)
        std::this_thread::yield();
    }
    Done.store(true, std::memory_order_release);
    for (auto &T : Readers)
      T.join();
    EXPECT_GT(Ranges.load(), 0u);
    Chain.reclaim();
    EXPECT_EQ(Chain.retired_count(), 0u);
    EXPECT_EQ(Chain.reclaimed_total(), Published);
  }
}

//===----------------------------------------------------------------------===//
// Ingest pipeline.
//===----------------------------------------------------------------------===//

TEST_F(ServingLeakTest, IngestPipelineAppliesEverySubmittedUpdate) {
  constexpr size_t kProducers = 4;
  constexpr uint64_t kPerProducer = 500;
  {
    version_chain<u64_set> Chain(u64_set{});
    ingest_pipeline<u64_set, uint64_t>::options O;
    O.QueueCapacity = 64; // Small: force the backpressure path.
    O.BatchWindow = 32;
    ingest_pipeline<u64_set, uint64_t> Pipe(
        Chain,
        [](const u64_set &Cur, std::vector<uint64_t> Batch) {
          return u64_set::map_union(Cur, u64_set(Batch));
        },
        O);
    std::vector<std::thread> Producers;
    for (size_t P = 0; P < kProducers; ++P)
      Producers.emplace_back([&, P] {
        for (uint64_t I = 0; I < kPerProducer; ++I)
          ASSERT_TRUE(Pipe.submit(P * kPerProducer + I));
      });
    for (auto &T : Producers)
      T.join();
    Pipe.flush();
    u64_set Final = Chain.acquire();
    EXPECT_EQ(Final.size(), kProducers * kPerProducer)
        << "some submitted updates never reached a published version";
    auto St = Pipe.stats();
    EXPECT_EQ(St.Submitted, kProducers * kPerProducer);
    EXPECT_EQ(St.Applied, St.Submitted);
    EXPECT_GE(St.Batches, St.Applied / O.BatchWindow)
        << "batch window exceeded";
    Pipe.stop();
    Chain.reclaim();
    EXPECT_EQ(Chain.retired_count(), 0u);
  }
}

TEST_F(ServingLeakTest, IngestPipelineFlushSeesPriorSubmits) {
  {
    version_chain<u64_set> Chain(u64_set{});
    ingest_pipeline<u64_set, uint64_t> Pipe(
        Chain, [](const u64_set &Cur, std::vector<uint64_t> Batch) {
          return u64_set::map_union(Cur, u64_set(Batch));
        });
    for (uint64_t Round = 0; Round < 10; ++Round) {
      for (uint64_t I = 0; I < 100; ++I)
        ASSERT_TRUE(Pipe.submit(Round * 100 + I));
      Pipe.flush();
      EXPECT_EQ(Chain.acquire().size(), (Round + 1) * 100)
          << "flush returned before all prior submits were published";
    }
  }
}

/// Apply runs on a pool worker (par::run_on_pool), not on the pipeline's
/// own writer thread, so its merges fork. The sched.fork failpoint (armed
/// process-wide in the chaos leg) may refuse the hand-off and run a batch
/// inline, so the all-on-pool check applies only to a run without fires.
TEST_F(ServingLeakTest, IngestPipelineAppliesOnPoolWorkers) {
  {
    version_chain<u64_set> Chain(u64_set{});
    ingest_pipeline<u64_set, uint64_t>::options O;
    O.BatchWindow = 16;
    std::mutex IdsM;
    std::vector<int> Ids;
    uint64_t Refused0 = fail::fires("sched.fork");
    ingest_pipeline<u64_set, uint64_t> Pipe(
        Chain,
        [&](const u64_set &Cur, std::vector<uint64_t> Batch) {
          {
            std::lock_guard<std::mutex> L(IdsM);
            Ids.push_back(par::worker_id());
          }
          return u64_set::map_union(Cur, u64_set(Batch));
        },
        O);
    for (uint64_t Round = 0; Round < 16; ++Round) {
      for (uint64_t I = 0; I < 16; ++I)
        ASSERT_TRUE(Pipe.submit(Round * 16 + I));
      Pipe.flush();
    }
    Pipe.stop();
    EXPECT_EQ(Chain.acquire().size(), 256u);
    bool Refused = fail::fires("sched.fork") != Refused0;
    size_t OnPool = 0;
    for (int Id : Ids)
      OnPool += Id >= 0;
    if (par::num_workers() == 1) {
      EXPECT_EQ(OnPool, 0u) << "a one-worker pool applies on the writer";
    } else {
      EXPECT_GT(OnPool, 0u);
      if (!Refused) {
        EXPECT_EQ(OnPool, Ids.size()) << "a batch applied off the pool";
      }
    }
    Chain.reclaim();
  }
}

//===----------------------------------------------------------------------===//
// Ingest pipeline: overload policies, deadlines, shutdown.
//===----------------------------------------------------------------------===//

/// Gates the pipeline's apply function: every batch blocks inside Apply
/// until open(), which lets a test hold the writer mid-batch and fill the
/// queue deterministically behind it.
struct apply_gate {
  std::mutex M;
  std::condition_variable Cv;
  bool Open = false;
  std::atomic<int> Entered{0};

  void block() {
    Entered.fetch_add(1, std::memory_order_release);
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Open; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> L(M);
      Open = true;
    }
    Cv.notify_all();
  }
  void wait_entered(int N) {
    while (Entered.load(std::memory_order_acquire) < N)
      std::this_thread::yield();
  }
};

using u64_pipeline = ingest_pipeline<u64_set, uint64_t>;

/// Builds a gated pipeline: BatchWindow 1 so the writer takes exactly one
/// item per batch, and every apply blocks on \p Gate until opened.
u64_pipeline::options gatedOptions(size_t Capacity, overload_policy Policy) {
  u64_pipeline::options O;
  O.QueueCapacity = Capacity;
  O.BatchWindow = 1;
  O.Policy = Policy;
  return O;
}

u64_pipeline::apply_fn gatedApply(apply_gate &Gate) {
  return [&Gate](const u64_set &Cur, std::vector<uint64_t> Batch) {
    Gate.block();
    return u64_set::map_union(Cur, u64_set(Batch));
  };
}

/// Regression: a submitter blocked on a full queue (Block policy) must
/// wake and return false when stop() races in — not hang, and not sneak
/// its update into a stopping pipeline.
TEST_F(ServingLeakTest, StopWakesBlockedSubmitters) {
  constexpr size_t kBlocked = 3;
  {
    version_chain<u64_set> Chain(u64_set{});
    apply_gate Gate;
    u64_pipeline Pipe(Chain, gatedApply(Gate),
                      gatedOptions(2, overload_policy::Block));
    // Writer takes item 0 and parks inside Apply; then fill the queue.
    ASSERT_TRUE(Pipe.submit(0));
    Gate.wait_entered(1);
    ASSERT_TRUE(Pipe.submit(1));
    ASSERT_TRUE(Pipe.submit(2));

    // These block on NotFull: no space can free while the writer is parked.
    bool Res[kBlocked] = {true, true, true};
    std::vector<std::thread> Submitters;
    for (size_t I = 0; I < kBlocked; ++I)
      Submitters.emplace_back([&, I] { Res[I] = Pipe.submit(10 + I); });
    while (Pipe.stats().FullWaits < kBlocked)
      std::this_thread::yield();

    // stop() must wake all three even though the writer is still parked
    // inside Apply (stop itself blocks joining the writer, so run it on a
    // separate thread and release the gate afterwards).
    std::thread Stopper([&] { Pipe.stop(); });
    for (auto &T : Submitters)
      T.join();
    for (size_t I = 0; I < kBlocked; ++I)
      EXPECT_FALSE(Res[I]) << "blocked submitter " << I
                           << " was not refused on shutdown";
    Gate.open();
    Stopper.join();

    // The queued items drain on shutdown; the refused ones never land.
    u64_set Final = Chain.acquire();
    EXPECT_EQ(Final.size(), 3u);
    EXPECT_FALSE(Final.contains(10));
    EXPECT_EQ(Pipe.stats().Submitted, 3u);
    Chain.reclaim();
  }
}

/// RejectNewest: exactly the submits that found a full queue are refused
/// and counted; everything accepted is eventually applied.
TEST_F(ServingLeakTest, RejectNewestCountsExactly) {
  {
    version_chain<u64_set> Chain(u64_set{});
    apply_gate Gate;
    u64_pipeline Pipe(Chain, gatedApply(Gate),
                      gatedOptions(4, overload_policy::RejectNewest));
    ASSERT_TRUE(Pipe.submit(0));
    Gate.wait_entered(1);
    for (uint64_t I = 1; I <= 4; ++I)
      ASSERT_TRUE(Pipe.submit(I));
    for (uint64_t I = 5; I <= 7; ++I)
      EXPECT_FALSE(Pipe.submit(I)) << "queue was full; " << I
                                   << " must be rejected";
    auto St = Pipe.stats();
    EXPECT_EQ(St.Submitted, 5u);
    EXPECT_EQ(St.Rejected, 3u);
    EXPECT_EQ(St.Shed, 0u);

    Gate.open();
    Pipe.flush();
    u64_set Final = Chain.acquire();
    EXPECT_EQ(Final.size(), 5u);
    for (uint64_t I = 0; I <= 4; ++I)
      EXPECT_TRUE(Final.contains(I));
    for (uint64_t I = 5; I <= 7; ++I)
      EXPECT_FALSE(Final.contains(I));
    Pipe.stop();
    Chain.reclaim();
  }
}

/// ShedOldest: the oldest queued updates are the victims, the new ones
/// land, and Shed counts exactly the dropped items.
TEST_F(ServingLeakTest, ShedOldestDropsOldestExactly) {
  {
    version_chain<u64_set> Chain(u64_set{});
    apply_gate Gate;
    u64_pipeline Pipe(Chain, gatedApply(Gate),
                      gatedOptions(4, overload_policy::ShedOldest));
    ASSERT_TRUE(Pipe.submit(0));
    Gate.wait_entered(1);
    for (uint64_t I = 1; I <= 4; ++I)
      ASSERT_TRUE(Pipe.submit(I)); // Queue now holds {1,2,3,4}.
    ASSERT_TRUE(Pipe.submit(5));   // Sheds 1.
    ASSERT_TRUE(Pipe.submit(6));   // Sheds 2.
    auto St = Pipe.stats();
    EXPECT_EQ(St.Submitted, 7u);
    EXPECT_EQ(St.Shed, 2u);
    EXPECT_EQ(St.Rejected, 0u);

    Gate.open();
    Pipe.flush();
    u64_set Final = Chain.acquire();
    EXPECT_EQ(Final.size(), 5u);
    for (uint64_t I : {0u, 3u, 4u, 5u, 6u})
      EXPECT_TRUE(Final.contains(I)) << I;
    EXPECT_FALSE(Final.contains(1)) << "oldest victim survived";
    EXPECT_FALSE(Final.contains(2)) << "second victim survived";
    EXPECT_EQ(Pipe.stats().Applied, 5u)
        << "shed items must not be applied";
    Pipe.stop();
    Chain.reclaim();
  }
}

/// submit_for: the deadline expires against a wedged writer (counted in
/// DeadlineTimeouts), then succeeds once space frees.
TEST_F(ServingLeakTest, SubmitForDeadlineExpiresThenSucceeds) {
  {
    version_chain<u64_set> Chain(u64_set{});
    apply_gate Gate;
    u64_pipeline Pipe(Chain, gatedApply(Gate),
                      gatedOptions(2, overload_policy::Block));
    ASSERT_TRUE(Pipe.submit(0));
    Gate.wait_entered(1);
    ASSERT_TRUE(Pipe.submit(1));
    ASSERT_TRUE(Pipe.submit(2));

    EXPECT_FALSE(Pipe.submit_for(3, std::chrono::milliseconds(30)))
        << "deadline must expire while the writer is wedged";
    auto St = Pipe.stats();
    EXPECT_EQ(St.DeadlineTimeouts, 1u);
    EXPECT_EQ(St.Submitted, 3u);

    Gate.open();
    EXPECT_TRUE(Pipe.submit_for(4, std::chrono::seconds(30)));
    Pipe.flush();
    u64_set Final = Chain.acquire();
    EXPECT_EQ(Final.size(), 4u);
    EXPECT_FALSE(Final.contains(3)) << "timed-out update leaked in";
    EXPECT_TRUE(Final.contains(4));
    Pipe.stop();
    Chain.reclaim();
  }
}

/// flush_for reports in-flight work honestly: false while a batch is
/// wedged inside Apply, true once the queue drains.
TEST_F(ServingLeakTest, FlushForTimesOutWhileApplyWedged) {
  {
    version_chain<u64_set> Chain(u64_set{});
    apply_gate Gate;
    u64_pipeline Pipe(Chain, gatedApply(Gate),
                      gatedOptions(8, overload_policy::Block));
    ASSERT_TRUE(Pipe.submit(0));
    Gate.wait_entered(1);
    EXPECT_FALSE(Pipe.flush_for(std::chrono::milliseconds(30)));
    Gate.open();
    EXPECT_TRUE(Pipe.flush_for(std::chrono::seconds(30)));
    EXPECT_EQ(Chain.acquire().size(), 1u);
    Pipe.stop();
    Chain.reclaim();
  }
}

/// Stall watchdog + retire backlog: a reader pinned past the age
/// threshold shows up in stalled_readers() and dams up the retired list
/// (visible through retired_high_water()); unpinning clears both.
TEST_F(ServingLeakTest, StalledReaderWatchdogAndRetiredBacklog) {
  {
    version_chain<u64_set> Chain(u64_set::from_sorted(iota(8)));
    epoch_manager &E = Chain.epochs();
    EXPECT_EQ(E.stalled_readers(0), 0u) << "no pins, no stalls";

    size_t Slot = E.pin();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(E.stalled_readers(1'000'000), 1u)
        << "a 5ms-old pin must trip a 1ms threshold";
    EXPECT_EQ(E.stalled_readers(uint64_t(60) * 1'000'000'000), 0u)
        << "a 5ms-old pin must not trip a 60s threshold";

    for (uint64_t K = 9; K <= 16; ++K)
      Chain.publish(u64_set::from_sorted(iota(K)));
    EXPECT_EQ(Chain.retired_count(), 8u) << "stalled reader dams reclamation";
    EXPECT_GE(Chain.retired_high_water(), 8u);

    E.unpin(Slot);
    EXPECT_EQ(E.stalled_readers(1'000'000), 0u);
    Chain.reclaim();
    EXPECT_EQ(Chain.retired_count(), 0u);
    EXPECT_GE(Chain.retired_high_water(), 8u) << "high-water is sticky";
  }
}

//===----------------------------------------------------------------------===//
// Versioned graph binding (sym_graph and the aspen baseline).
//===----------------------------------------------------------------------===//

/// Drives a versioned_graph<G>: concurrent edge producers against BFS-free
/// readers checking snapshot degree consistency, then a flush and a full
/// content check.
template <class G> void runVersionedGraphEpisode() {
  constexpr size_t kProducers = 2;
  constexpr vertex_id kSpokes = 400;
  // Star around vertex 0 built incrementally: spoke K adds both directions
  // of (0, K). Any snapshot must satisfy degree(0) == #spokes visible, and
  // symmetric membership for every visible spoke.
  G Init = G::from_edges({{0, 1}, {1, 0}}, kSpokes + 1);
  typename versioned_graph<G>::options O;
  O.QueueCapacity = 128;
  O.BatchWindow = 64;
  versioned_graph<G> VG(std::move(Init), O);

  std::atomic<bool> Done{false};
  std::thread Reader([&] {
    size_t LastDeg = 0;
    while (!Done.load(std::memory_order_acquire)) {
      G Snap = VG.snapshot();
      size_t Deg = Snap.degree(0);
      EXPECT_GE(Deg, LastDeg) << "hub degree shrank across snapshots";
      EXPECT_GE(Deg, 1u);
      LastDeg = Deg;
    }
  });
  std::vector<std::thread> Producers;
  for (size_t P = 0; P < kProducers; ++P)
    Producers.emplace_back([&, P] {
      for (vertex_id V = 2 + P; V <= kSpokes; V += kProducers) {
        ASSERT_TRUE(VG.submit_edge(0, V));
        ASSERT_TRUE(VG.submit_edge(V, 0));
      }
    });
  for (auto &T : Producers)
    T.join();
  VG.flush();
  Done.store(true, std::memory_order_release);
  Reader.join();

  G Final = VG.snapshot();
  EXPECT_EQ(Final.degree(0), kSpokes);
  for (vertex_id V = 1; V <= kSpokes; ++V) {
    EXPECT_EQ(Final.degree(V), 1u) << "spoke " << V;
    EXPECT_TRUE(Final.neighbors(V).contains(0));
  }
  auto St = VG.ingest_stats();
  EXPECT_EQ(St.Applied, St.Submitted);
  VG.stop();
  VG.chain().reclaim();
  EXPECT_EQ(VG.chain().retired_count(), 0u);
}

TEST_F(ServingLeakTest, VersionedSymGraphServesConsistentSnapshots) {
  runVersionedGraphEpisode<sym_graph>();
}

TEST_F(ServingLeakTest, VersionedAspenGraphServesConsistentSnapshots) {
  runVersionedGraphEpisode<aspen_graph>();
}

} // namespace
} // namespace cpam
