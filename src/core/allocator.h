//===- allocator.h - Node allocation with live-byte accounting ------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Allocation shim for tree nodes. Every allocation and free updates
/// live-object/live-byte counters, which the tests use to prove the
/// reference-counting collector reclaims everything, and which the space
/// benchmarks cross-check against per-structure traversals. Each thread
/// counts in its own block with plain single-writer adds (par::counter_bump,
/// no locked RMW on the allocation path); readers sum the registered blocks.
///
/// Storage comes from the size-class pool allocator (pool_allocator.h) by
/// default; build with CPAM_POOL_ALLOC=0 (-DCPAM_POOL_ALLOC=OFF) for direct
/// `operator new` per node, the mode sanitizer builds use so ASan redzones
/// every node boundary. Accounting is identical in both modes: the pool is
/// only a storage cache, never an owner of liveness.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_CORE_ALLOCATOR_H
#define CPAM_CORE_ALLOCATOR_H

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#ifndef CPAM_POOL_ALLOC
#define CPAM_POOL_ALLOC 1
#endif

#if CPAM_POOL_ALLOC
#include "src/core/pool_allocator.h"
#endif

#include "src/parallel/scheduler.h"
#include "src/util/failpoint.h"

namespace cpam {

/// True when node storage is served by the pooled allocator.
constexpr bool pool_enabled() { return CPAM_POOL_ALLOC != 0; }

/// Live-object and live-byte counts of tree node storage. Every thread
/// counts its own tree_alloc/tree_free calls in a registered per-thread
/// block, written only by that thread; a thread that exits folds its block
/// into a dead-thread total (the pool's LocalStats discipline). One
/// thread's counts go negative when it frees what another allocated; only
/// the sum over all blocks means anything.
struct alloc_stats {
  struct counts {
    std::atomic<int64_t> Objects{0};
    std::atomic<int64_t> Bytes{0};
  };

  /// A thread's counter block, registered while the thread lives.
  struct alignas(64) Local : counts {
    Local() {
      Registry &R = registry();
      std::lock_guard<std::mutex> Lock(R.M);
      R.Live.push_back(this);
    }
    ~Local() {
      Registry &R = registry();
      std::lock_guard<std::mutex> Lock(R.M);
      for (auto F : {&counts::Objects, &counts::Bytes})
        (R.Dead.*F).fetch_add((this->*F).load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      R.Live.erase(std::find(R.Live.begin(), R.Live.end(), this));
    }
  };

  /// The calling thread's counter block.
  static Local &local() {
    thread_local Local L;
    return L;
  }

  /// Total live objects across all threads (exact when quiescent).
  static int64_t live_object_count() { return total(&counts::Objects); }

  static int64_t live_byte_count() { return total(&counts::Bytes); }

private:
  struct Registry {
    std::mutex M;
    std::vector<const Local *> Live;
    counts Dead; ///< Folded counts of exited threads.
  };

  /// Allocated once and never destroyed: thread-exit folds may run after
  /// static destruction has begun.
  static Registry &registry() {
    static Registry *R = new Registry;
    return *R;
  }

  static int64_t total(std::atomic<int64_t> counts::*F) {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    int64_t N = (R.Dead.*F).load(std::memory_order_relaxed);
    for (const Local *L : R.Live)
      N += (L->*F).load(std::memory_order_relaxed);
    return N;
  }
};

/// Allocates \p Bytes of node storage (16-byte aligned). Throws
/// std::bad_alloc on exhaustion — or when the "alloc.node" failpoint fires
/// (the chaos suites' injection site, covering both pool modes). Accounting
/// happens only after the storage is secured, so a throw from any layer
/// (failpoint, pool refill, heap) leaves the live counters untouched.
inline void *tree_alloc(size_t Bytes) {
  if (CPAM_FAILPOINT_ACTIVE("alloc.node"))
    throw std::bad_alloc();
#if CPAM_POOL_ALLOC
  void *P = pool_allocator::allocate(Bytes);
#else
  void *P = ::operator new(Bytes, std::align_val_t(16));
#endif
  alloc_stats::Local &L = alloc_stats::local();
  par::counter_bump(L.Objects, 1);
  par::counter_bump(L.Bytes, static_cast<int64_t>(Bytes));
  return P;
}

/// Frees node storage previously obtained from tree_alloc.
inline void tree_free(void *P, size_t Bytes) {
  alloc_stats::Local &L = alloc_stats::local();
  par::counter_bump(L.Objects, -1);
  par::counter_bump(L.Bytes, -static_cast<int64_t>(Bytes));
#if CPAM_POOL_ALLOC
  pool_allocator::deallocate(P, Bytes);
#else
  ::operator delete(P, std::align_val_t(16));
#endif
}

/// Scratch storage whose size is fixed on first use: kept inside the
/// object up to kInline bytes, else taken from tree_alloc. The limit is 2B
/// 16-byte entries at B = 128 (the maps of the perfbench workloads) and
/// 2B entries of either graph level at B = 64 (4-byte neighbour ids,
/// 16-byte vertex entries), so a flattened block never needs a scratch
/// allocation, and a small merge, cut or fold allocates only its result
/// blocks. Neither copyable nor movable: the storage may be the object
/// itself.
class scratch_buf {
public:
  static constexpr size_t kInline = 4096;

  scratch_buf() = default;
  scratch_buf(const scratch_buf &) = delete;
  scratch_buf &operator=(const scratch_buf &) = delete;
  ~scratch_buf() {
    if (P != Inline)
      tree_free(P, Bytes);
  }

  /// Returns \p N bytes of 16-byte aligned storage; call at most once.
  uint8_t *reserve(size_t N) {
    assert(Bytes == 0 && "scratch_buf reserved twice");
    if (N > kInline) {
      P = static_cast<uint8_t *>(tree_alloc(N));
      Bytes = N;
    }
    return P;
  }

private:
  alignas(16) uint8_t Inline[kInline];
  uint8_t *P = Inline;
  size_t Bytes = 0;
};

} // namespace cpam

#endif // CPAM_CORE_ALLOCATOR_H
