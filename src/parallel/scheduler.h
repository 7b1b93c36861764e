//===- scheduler.h - Work-stealing fork-join scheduler -------------------===//
//
// Part of the CPAM reproduction of "PaC-trees: Supporting Parallel and
// Compressed Purely-Functional Collections" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing fork-join scheduler in the style of ParlayLib, which the
/// original CPAM uses as its parallel substrate. The model is binary
/// forking: parDo(f1, f2) runs the two thunks, possibly in parallel, and
/// returns only when both are complete. Tasks are allocated on the forking
/// thread's stack; a per-worker deque holds pending right-hand branches,
/// and idle workers steal from the top (oldest, hence largest) end of a
/// random victim's deque.
///
/// The deques are the lock-free Chase-Lev deques of
/// src/parallel/chase_lev.h: owner push/pop without locked instructions on
/// the fast path, steals via one CAS (~19 ns per fork-join cycle, against
/// 42 ns for the mutex deques they replaced; BENCH_PR4.json). Idle workers
/// spin briefly with exponential backoff, then park on a condition
/// variable; a push wakes them (see the memory-order contract in README
/// "Parallel runtime"), so an idle process costs ~0 CPU.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_PARALLEL_SCHEDULER_H
#define CPAM_PARALLEL_SCHEDULER_H

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/parallel/chase_lev.h"
#include "src/util/failpoint.h"

namespace cpam {
namespace par {

/// Single-writer relaxed counter add: the counter is written by exactly
/// one thread, so the unsynchronized load+store compiles to a plain add (no
/// locked RMW); snapshot readers load it relaxed from other threads. Shared
/// by the scheduler's and the pool allocator's telemetry and the live-node
/// accounting of tree_alloc/tree_free.
template <class T>
inline void counter_bump(std::atomic<T> &C, std::type_identity_t<T> Delta = 1) {
  C.store(C.load(std::memory_order_relaxed) + Delta,
          std::memory_order_relaxed);
}

/// A unit of work produced by a fork (or a runOnPool submission). The task
/// object lives on the forking thread's stack; the forker does not return
/// from parDo until the task has run, so no heap allocation or reference
/// counting is required.
struct Task {
  void (*Run)(void *Env) = nullptr;
  void *Env = nullptr;
  /// An exception the task body threw on a helping/stealing thread,
  /// captured by runTask (written before the Done release-store, so the
  /// joiner's acquire load orders the read) and rethrown by parDo (or
  /// runOnPool) on the forking thread.
  std::exception_ptr Exc;
  /// Set with release semantics when the task body has finished.
  std::atomic<bool> Done{false};
};

namespace detail {
/// Runs both thunks sequentially with fork-join exception semantics: f2
/// runs even if f1 throws (so a branch that owns resources always gets to
/// run or release them), and the first exception wins. Costs nothing on the
/// no-throw path (zero-cost EH).
template <class F1, class F2> void runBothSeq(F1 &&f1, F2 &&f2) {
  std::exception_ptr E1;
  try {
    f1();
  } catch (...) {
    E1 = std::current_exception();
  }
  if (!E1) {
    f2();
    return;
  }
  try {
    f2();
  } catch (...) {
    // f1's exception wins; f2's is swallowed (same policy as the forked
    // path below).
  }
  std::rethrow_exception(E1);
}
} // namespace detail

/// Aggregated scheduler telemetry (see par::scheduler_stats()). Counters
/// are summed over per-worker relaxed counters, so a snapshot taken while
/// workers are active is approximate; quiescent snapshots are exact.
struct SchedulerStats {
  uint64_t Forks = 0;          ///< Tasks pushed by parDo.
  uint64_t InlineReclaims = 0; ///< Forked tasks popped back un-stolen.
  uint64_t Steals = 0;         ///< Successful steals.
  uint64_t FailedSteals = 0;   ///< Steal attempts finding empty/losing CAS.
  uint64_t Parks = 0;          ///< Times a worker blocked on the condvar.
  uint64_t Wakes = 0;          ///< Wake signals issued by pushes.
  uint64_t JoinParks = 0;      ///< Times a joiner parked on a stolen branch.
};

/// The process-wide scheduler. The first thread to touch the scheduler
/// (normally the main thread) is registered as worker 0; numWorkers()-1
/// additional threads are spawned. Threads that are not pool members can
/// still call parDo; they simply run both branches sequentially. To fork
/// from such a thread, hand the whole computation to the pool with
/// runOnPool.
class Scheduler {
public:
  /// Returns the singleton, creating the thread pool on first use.
  static Scheduler &get();

  ~Scheduler();
  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  int numWorkers() const { return NumWorkers; }

  /// Telemetry snapshot, summed across workers.
  SchedulerStats stats() const;
  /// Zeroes all telemetry counters (quiescent use only).
  void statsReset();

  /// Returns the calling thread's worker id, or -1 for non-pool threads.
  static int workerId();

  /// True while the singleton exists (between get()'s construction and
  /// static destruction). Exit-time telemetry consumers (the obs registry's
  /// scheduler source) check this instead of calling get(), which would
  /// either construct a pool at exit or touch a destroyed one.
  static bool alive();

  /// Returns a small dense slot id for *any* thread: pool workers report
  /// their worker id; foreign threads (user-spawned std::threads, test
  /// harness threads) get stable ids handed out above kForeignSlotBase.
  /// Consumers (e.g. the pooled node allocator's stripe selection) only
  /// need a cheap, stable, well-distributed integer — this never constructs
  /// the thread pool, so it is safe to call from static initialization.
  static int threadSlot();
  static constexpr int kForeignSlotBase = 1024;

  /// When true, parDo runs both branches inline on the calling thread.
  /// Used by benchmarks to measure honest single-thread (T1) times.
  static std::atomic<bool> &sequentialMode() {
    static std::atomic<bool> Seq{false};
    return Seq;
  }

  /// Runs \p f1 and \p f2 to completion, potentially in parallel.
  ///
  /// Exception contract: both branches always run to completion (a throw in
  /// one never skips the other — each branch may own resources it must
  /// consume or release), and the first exception — f1's if both throw — is
  /// rethrown on the forking thread after the join. An exception thrown by
  /// a stolen f2 on a helping thread is captured in the stack Task and
  /// rethrown here.
  template <class F1, class F2> void parDo(F1 &&f1, F2 &&f2) {
    int Id = workerId();
    if (CPAM_FAILPOINT_ACTIVE("sched.fork") || Id < 0 || NumWorkers == 1 ||
        sequentialMode().load(std::memory_order_relaxed)) {
      // Not a pool thread (a user-spawned std::thread), or a single-worker
      // pool — where no thief exists, so every fork would be reclaimed
      // inline anyway: degrade to sequential execution, which is always
      // correct and skips the deque entirely. The "sched.fork" failpoint
      // (fork refusal under injected scheduler pressure) lands here too; it
      // is evaluated first so every fork attempt counts a hit even where
      // the pool shape alone would already force inline execution.
      detail::runBothSeq(f1, f2);
      return;
    }
    Task T;
    T.Env = &f2;
    T.Run = [](void *Env) { (*static_cast<F2 *>(Env))(); };
    push(Id, &T);
    std::exception_ptr E1;
    try {
      f1();
    } catch (...) {
      E1 = std::current_exception();
    }
    if (tryReclaim(Id, &T)) {
      if (!E1) {
        f2();
        return;
      }
      try {
        f2();
      } catch (...) {
      }
      std::rethrow_exception(E1);
    }
    waitHelping(Id, &T);
    if (E1)
      std::rethrow_exception(E1);
    if (T.Exc)
      std::rethrow_exception(T.Exc);
  }

  /// Runs \p f on an idle pool worker and returns once it has finished, so
  /// the forks inside \p f run in parallel even when the caller is a
  /// thread outside the pool. \p f's exception is rethrown on the caller.
  /// Where parDo would run inline anyway (a pool thread, a one-worker pool
  /// — worker 0 is the main thread and never idles in the worker loop —
  /// sequential mode, or the "sched.fork" failpoint refusing the hand-off),
  /// \p f runs inline on the caller.
  template <class F> void runOnPool(F &&f) {
    if (CPAM_FAILPOINT_ACTIVE("sched.fork") || workerId() >= 0 ||
        NumWorkers == 1 || sequentialMode().load(std::memory_order_relaxed)) {
      f();
      return;
    }
    auto Body = [&f] { f(); };
    Task T;
    T.Env = &Body;
    T.Run = [](void *Env) { (*static_cast<decltype(Body) *>(Env))(); };
    submitAndWait(&T);
    if (T.Exc)
      std::rethrow_exception(T.Exc);
  }

private:
  /// Per-worker telemetry, incremented via counter_bump (each counter is
  /// written by exactly one worker); the snapshot reads them relaxed from
  /// any thread.
  struct alignas(64) WorkerStats {
    std::atomic<uint64_t> Forks{0};
    std::atomic<uint64_t> InlineReclaims{0};
    std::atomic<uint64_t> Steals{0};
    std::atomic<uint64_t> FailedSteals{0};
    std::atomic<uint64_t> Parks{0};
    std::atomic<uint64_t> Wakes{0};
    std::atomic<uint64_t> JoinParks{0};
  };

  Scheduler();

  /// Appends \p T to worker \p Id's deque and wakes a parked worker if any.
  void push(int Id, Task *T);
  /// Pops worker \p Id's newest task if it is \p T. By the LIFO fork-join
  /// discipline (and because helping steals from deque *tops* only), the
  /// bottom of the owner's deque at reclaim time is either \p T itself or
  /// nothing of this frame: every task pushed after T has completed, and T
  /// can only have been claimed after everything older was stolen too.
  bool tryReclaim(int Id, Task *T);
  /// Runs stolen tasks until \p T completes. Steals only (never pops the
  /// own deque's bottom, which would break the tryReclaim invariant of
  /// enclosing frames); the waiter's own deque is one of the victims.
  /// When nothing is stealable it escalates spin -> yield -> joinPark: the
  /// completion of any stolen task signals JoinCV, so a joiner blocked on
  /// a long stolen branch sleeps instead of polling.
  void waitHelping(int Id, Task *T);
  /// Parks a joiner until some stolen task completes (signalJoiners), new
  /// work is pushed (unparkOne pokes JoinCV too), the backstop elapses, or
  /// the pool shuts down. Same register/fence/re-check discipline as
  /// park(), with \p T's Done flag in the re-check and wait predicate.
  void joinPark(int Id, Task *T);
  /// Wakes parked joiners after a task completion; the seq_cst fence pairs
  /// with joinPark's registration fence so a completion either sees the
  /// registration or the joiner re-check sees Done.
  void signalJoiners();
  /// One steal attempt against a random victim (possibly the caller's own
  /// deque top). Returns nullptr on failure.
  Task *steal(int Id);
  /// True if any deque looks non-empty (approximate; park-path use only).
  bool hasWork() const;
  /// Blocks until a push signals, the backstop timeout elapses, or the
  /// pool shuts down. Registers via NumParked, fences, then re-scans for
  /// work before sleeping; the timed backstop bounds the one store-load
  /// reordering window the fence-free push side leaves open.
  void park(int Id);
  /// Wakes one parked worker if there is one. Called after every push;
  /// fence-free by design (best-effort, backstopped — see scheduler.cpp).
  void unparkOne(int Id);
  /// runOnPool's hand-off: waits for the submission slot to be free, puts
  /// \p T in it, wakes a parked worker and blocks until \p T is Done.
  void submitAndWait(Task *T);
  /// Takes the task in the submission slot, if any (idle workers only).
  Task *takeSubmitted();
  /// Wakes submitters after the slot frees or a submitted task completes.
  void signalSubmitters();
  void workerLoop(int Id);
  void runTask(Task *T) {
    // A task body that throws (injected allocation failure inside a stolen
    // branch) must not unwind into the worker loop — capture and hand the
    // exception to the joiner, which rethrows on the forking thread.
    try {
      T->Run(T->Env);
    } catch (...) {
      T->Exc = std::current_exception();
    }
    T->Done.store(true, std::memory_order_release);
    signalJoiners();
  }

  int NumWorkers;
  std::vector<chase_lev_deque<Task *>> Deques;
  std::vector<WorkerStats> Stats;
  std::vector<std::thread> Threads;
  std::atomic<bool> Stop{false};

  // Elastic parking state. WakeEpoch is guarded by ParkM; NumParked is the
  // lock-free fast-path hint pushes read (zero while the pool is busy).
  std::atomic<int> NumParked{0};
  std::mutex ParkM;
  std::condition_variable ParkCV;
  uint64_t WakeEpoch = 0;

  // Join parking state (waitHelping). Separate from the idle-park channel:
  // completions signal here, and only joiners wait here, so an idle pool's
  // parked workers are never woken by task completions (and vice versa).
  // JoinEpoch is guarded by JoinM; NumJoinParked is the fast-path hint both
  // completions and pushes read (zero unless someone joins a long branch).
  std::atomic<int> NumJoinParked{0};
  std::mutex JoinM;
  std::condition_variable JoinCV;
  uint64_t JoinEpoch = 0;

  // Submission slot (runOnPool). One task from a thread outside the pool
  // waits here until an idle worker takes it; joiners never do, so no
  // fork's join waits behind a whole submitted computation. SubmitCV
  // signals both "slot free" (to queued submitters) and "task done" (to
  // its submitter); both are checked under SubmitM, and the signalling
  // side touches only this state, never the submitter's stack Task.
  std::atomic<Task *> Submitted{nullptr};
  std::mutex SubmitM;
  std::condition_variable SubmitCV;
};

/// Number of worker threads (reads CPAM_NUM_THREADS, defaulting to the
/// hardware concurrency).
inline int num_workers() { return Scheduler::get().numWorkers(); }

/// Id of the calling worker in [0, num_workers()), or -1 off-pool.
inline int worker_id() { return Scheduler::workerId(); }

/// True when par_do from the calling thread runs both branches inline (the
/// pool-shape test at the top of Scheduler::parDo: a thread outside the
/// pool, a one-worker pool, or sequential mode), so a caller can skip setup
/// that only a parallel run needs.
inline bool forks_inline() {
  return worker_id() < 0 || num_workers() == 1 ||
         Scheduler::sequentialMode().load(std::memory_order_relaxed);
}

/// Stable dense slot id for any thread (worker id for pool workers). Cheap:
/// does not construct the scheduler.
inline int thread_slot() { return Scheduler::threadSlot(); }

/// Forces all fork-join constructs to run sequentially (for T1 timing).
inline void set_sequential(bool Seq) {
  Scheduler::sequentialMode().store(Seq, std::memory_order_relaxed);
}

/// Scheduler telemetry snapshot (forks, inline reclaims, steals, failed
/// steals, parks, wakes) summed across workers. Approximate while workers
/// are active; exact when quiescent.
inline SchedulerStats scheduler_stats() { return Scheduler::get().stats(); }

/// Zeroes the scheduler telemetry (call while quiescent).
inline void scheduler_stats_reset() { Scheduler::get().statsReset(); }

/// Fork-join: run both thunks, potentially in parallel.
template <class F1, class F2> void par_do(F1 &&f1, F2 &&f2) {
  Scheduler::get().parDo(std::forward<F1>(f1), std::forward<F2>(f2));
}

/// Runs \p f on a pool worker and waits for it: the one way for a thread
/// outside the pool (an ingest writer, a user std::thread) to get its
/// forks run in parallel. Inline wherever par_do would be (see
/// Scheduler::runOnPool). \p f holds its worker until it returns, so it
/// must not block on work that itself needs an idle worker.
template <class F> void run_on_pool(F &&f) {
  Scheduler::get().runOnPool(std::forward<F>(f));
}

/// Conditional fork-join: parallel only if \p DoParallel. Both arms share
/// parDo's exception contract (both branches always run; first exception
/// wins).
template <class F1, class F2>
void par_do_if(bool DoParallel, F1 &&f1, F2 &&f2) {
  if (DoParallel) {
    par_do(std::forward<F1>(f1), std::forward<F2>(f2));
    return;
  }
  detail::runBothSeq(f1, f2);
}

namespace detail {
template <class F>
void parallel_for_rec(size_t Lo, size_t Hi, const F &f, size_t Gran) {
  if (Hi - Lo <= Gran) {
    for (size_t I = Lo; I < Hi; ++I)
      f(I);
    return;
  }
  size_t Mid = Lo + (Hi - Lo) / 2;
  par_do([&] { parallel_for_rec(Lo, Mid, f, Gran); },
         [&] { parallel_for_rec(Mid, Hi, f, Gran); });
}
} // namespace detail

/// Anchor for parallel_for's default chunking: one lock-free fork-join
/// cycle (push + reclaim, the "fork_overhead" row of bench_scheduler —
/// 19.3 ns with a live thief on the reference container, vs 42.1 ns on
/// the mutex deques it replaced; BENCH_PR4.json) costs at most
/// kForkCostIters iterations of a trivial loop body (~1 ns each) even
/// allowing for steal-traffic inflation. Both derived constants below are
/// justified in these units.
inline constexpr size_t kForkCostIters = 64;

/// Largest chunk parallel_for runs sequentially: at 16 * kForkCostIters
/// iterations per fork, scheduling overhead is bounded by ~1/16 (~6%) even
/// for the cheapest possible bodies — and by measurement forks come in
/// ~3x under the kForkCostIters bound, so the real ceiling is ~2%. The
/// cap sat at 2048 when each fork paid two mutex round trips; the
/// lock-free fork cost halves the break-even chunk.
inline constexpr size_t kParallelForMaxGrain = 16 * kForkCostIters;

/// Chunks per worker when the range is small enough that the grain cap is
/// not reached: 8-way oversubscription bounds load imbalance from uneven
/// chunk runtimes at ~1/8 of a worker's share while adding at most
/// 8 * num_workers forks — noise at lock-free fork cost.
inline constexpr size_t kParallelForOversub = 8;

/// Parallel loop over [Lo, Hi). \p Gran is the largest chunk executed
/// sequentially; 0 picks a default based on the range size and worker count
/// (see the constants above).
template <class F>
void parallel_for(size_t Lo, size_t Hi, const F &f, size_t Gran = 0) {
  if (Lo >= Hi)
    return;
  size_t N = Hi - Lo;
  if (Gran == 0) {
    size_t PerWorker =
        N / (kParallelForOversub * static_cast<size_t>(num_workers()) + 1);
    Gran = std::max<size_t>(1, std::min(kParallelForMaxGrain, PerWorker));
  }
  if (N <= Gran) {
    for (size_t I = Lo; I < Hi; ++I)
      f(I);
    return;
  }
  detail::parallel_for_rec(Lo, Hi, f, Gran);
}

} // namespace par
} // namespace cpam

#endif // CPAM_PARALLEL_SCHEDULER_H
