//===- epoch.h - Epoch-based reclamation for snapshot readers --------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Epoch-based reclamation (EBR) for the versioned snapshot store
/// (src/serving/version_chain.h). The protocol guards exactly one narrow
/// window: the interval between a reader loading the current version
/// pointer and finishing its O(1) tree-root copy (an atomic refcount
/// increment in node.h). Once the copy exists, the tree itself is kept
/// alive by reference counts and the reader needs no further protection —
/// so pins last nanoseconds, not query lifetimes.
///
/// Scheme (per-reader epoch records, as in Fraser's EBR / Aspen's version
/// GC): a global epoch counter only the writer advances, and a fixed table
/// of reader slots. A reader *pins* by claiming a free slot with a CAS
/// from kIdle to the current global epoch, and *unpins* by storing kIdle
/// back. The writer retires a version by stamping it with the
/// pre-advance epoch R (epoch_manager::advance() returns R and bumps the
/// counter), and may free it once every occupied slot holds an epoch
/// strictly greater than R.
///
/// Safety argument (all epoch/slot/version-pointer accesses are seq_cst,
/// so one total order S covers them): a reader that obtains retired
/// version V loaded the version pointer before the writer's swap in S,
/// hence its pin precedes the swap, hence the epoch e it pinned satisfies
/// e <= R (the global counter is monotone and R is read after the swap).
/// That slot blocks the free until the reader unpins. Conversely a slot
/// the writer observes idle or > R belongs to a reader whose next load of
/// the version pointer follows the swap in S and therefore cannot return
/// V. The unpin store is release and the writer's slot scan is acquire,
/// so every plain read the reader made of V happens-before the free —
/// this is the edge ThreadSanitizer checks (no standalone fences, which
/// TSan cannot model).
///
/// Threads are not registered up front: any thread (pool worker or
/// foreign std::thread) may pin; the slot search starts from a hash of
/// par::thread_slot() so re-pinning threads land on their previous slot
/// with one CAS. Pins may nest trivially (each pin claims its own slot).
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_SERVING_EPOCH_H
#define CPAM_SERVING_EPOCH_H

#include <atomic>
#include <cassert>
#include <cstdint>
#include <thread>

#include "src/obs/metrics.h"
#include "src/parallel/random.h"
#include "src/parallel/scheduler.h"

namespace cpam {
namespace serving {

class epoch_manager {
public:
  /// Capacity of the reader-slot table. Pins outlive only the pointer-load
  /// + root-copy window, so concurrency is bounded by thread count, not
  /// outstanding snapshots; 512 slots of one cache line each (32 KiB)
  /// comfortably covers heavy oversubscription.
  static constexpr size_t kMaxReaders = 512;
  /// Slot value meaning "no reader here".
  static constexpr uint64_t kIdle = ~uint64_t{0};

  epoch_manager() = default;
  epoch_manager(const epoch_manager &) = delete;
  epoch_manager &operator=(const epoch_manager &) = delete;

  /// Pins the calling thread at the current global epoch. Returns the
  /// claimed slot index, to be passed to unpin(). Never fails: if all
  /// slots are busy (pathological oversubscription) it yields and
  /// retries. The stored epoch may lag the global counter by the time
  /// the CAS lands; that is conservative (it can only delay frees).
  size_t pin() {
    size_t Start = static_cast<size_t>(
        hash64(static_cast<uint64_t>(par::thread_slot())) % kMaxReaders);
    for (;;) {
      for (size_t I = 0; I < kMaxReaders; ++I) {
        size_t S = (Start + I) % kMaxReaders;
        uint64_t Idle = kIdle;
        uint64_t E = Global.load(std::memory_order_seq_cst);
        if (Slots[S].E.compare_exchange_strong(Idle, E,
                                               std::memory_order_seq_cst)) {
          // Wall-clock stamp for the stall watchdog. Relaxed: it feeds
          // telemetry only, and the kIdle filter in stalled_readers()
          // screens out released slots with stale stamps.
          Slots[S].PinNs.store(obs::now_ns(), std::memory_order_relaxed);
          Pins.fetch_add(1, std::memory_order_relaxed);
          return S;
        }
        Conflicts.fetch_add(1, std::memory_order_relaxed);
      }
      // All 512 slots busy: pathological oversubscription. Count the full
      // failed sweep (the documented "never fails, only waits" fallback)
      // and retry after yielding.
      Exhausted.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  }

  /// Releases a slot claimed by pin(). Release order publishes every read
  /// the reader performed under the pin to the writer's slot scan.
  void unpin(size_t Slot) {
    assert(Slot < kMaxReaders && "bad epoch slot");
    assert(Slots[Slot].E.load(std::memory_order_relaxed) != kIdle &&
           "unpin of an idle slot");
    Slots[Slot].E.store(kIdle, std::memory_order_release);
  }

  /// RAII pin for the common reader path.
  class guard {
  public:
    explicit guard(epoch_manager &M) : M(M), Slot(M.pin()) {}
    guard(const guard &) = delete;
    guard &operator=(const guard &) = delete;
    ~guard() { M.unpin(Slot); }

  private:
    epoch_manager &M;
    size_t Slot;
  };

  /// Current global epoch (starts at 1 so retire stamps are nonzero).
  uint64_t current() const { return Global.load(std::memory_order_seq_cst); }

  /// Writer-side: advances the global epoch and returns the *pre-advance*
  /// value — the retire stamp for a version unpublished just before the
  /// call (every reader still able to reach it is pinned at an epoch <=
  /// this value).
  uint64_t advance() { return Global.fetch_add(1, std::memory_order_seq_cst); }

  /// Smallest epoch any pinned reader holds, or the current global epoch
  /// when no reader is pinned. A version retired with stamp R is
  /// reclaimable iff R < min_active(): acquire loads on the slot scan pair
  /// with the readers' unpin stores.
  uint64_t min_active() const {
    uint64_t Min = Global.load(std::memory_order_seq_cst);
    for (size_t S = 0; S < kMaxReaders; ++S) {
      uint64_t E = Slots[S].E.load(std::memory_order_seq_cst);
      if (E != kIdle && E < Min)
        Min = E;
    }
    return Min;
  }

  /// True when some reader is currently pinned (telemetry/tests; racy by
  /// nature).
  bool any_pinned() const {
    for (size_t S = 0; S < kMaxReaders; ++S)
      if (Slots[S].E.load(std::memory_order_acquire) != kIdle)
        return true;
    return false;
  }

  /// Stall watchdog: number of slots currently pinned for longer than
  /// \p AgeNs nanoseconds. A healthy pin lasts nanoseconds (pointer load +
  /// root-copy), so anything visible here is a reader stuck inside the
  /// guarded window — a wedged thread, a debugger stop, or a misuse that
  /// holds a guard across real work — and it blocks reclamation for every
  /// version retired since. Racy by nature (slots may unpin mid-scan);
  /// use as telemetry, not as a synchronization primitive.
  size_t stalled_readers(uint64_t AgeNs) const {
    uint64_t Now = obs::now_ns();
    size_t N = 0;
    for (size_t S = 0; S < kMaxReaders; ++S) {
      if (Slots[S].E.load(std::memory_order_seq_cst) == kIdle)
        continue;
      uint64_t P = Slots[S].PinNs.load(std::memory_order_relaxed);
      if (P != 0 && Now > P && Now - P > AgeNs)
        ++N;
    }
    return N;
  }

  struct stats_t {
    uint64_t Pins = 0;          ///< Successful slot claims.
    uint64_t SlotConflicts = 0; ///< CAS attempts that found a busy slot.
    uint64_t SlotExhausted = 0; ///< Full-table sweeps that found no slot.
  };
  stats_t stats() const {
    return {Pins.load(std::memory_order_relaxed),
            Conflicts.load(std::memory_order_relaxed),
            Exhausted.load(std::memory_order_relaxed)};
  }

private:
  struct alignas(64) slot_t {
    std::atomic<uint64_t> E{kIdle};
    /// obs::now_ns() at the moment the slot was claimed (watchdog input).
    std::atomic<uint64_t> PinNs{0};
  };

  std::atomic<uint64_t> Global{1};
  slot_t Slots[kMaxReaders];
  // Pins is bumped by many reader threads, so it uses a real RMW (unlike
  // the scheduler's single-writer counters); both counters are telemetry
  // only.
  std::atomic<uint64_t> Pins{0};
  std::atomic<uint64_t> Conflicts{0};
  std::atomic<uint64_t> Exhausted{0};
};

} // namespace serving
} // namespace cpam

#endif // CPAM_SERVING_EPOCH_H
