//===- scheduler.cpp - Work-stealing fork-join scheduler -----------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "src/parallel/scheduler.h"

#include <chrono>
#include <cstdlib>

#include "src/obs/trace.h"

using namespace cpam;
using namespace cpam::par;

namespace {
thread_local int ThisWorkerId = -1;

/// Tracks the singleton's lifetime for exit-time telemetry readers (see
/// Scheduler::alive()). File-scope atomic: trivially destructible, so it
/// stays readable at any point of static destruction.
std::atomic<bool> SchedulerAlive{false};

int chooseNumWorkers() {
  if (const char *Env = std::getenv("CPAM_NUM_THREADS")) {
    int N = std::atoi(Env);
    if (N > 0)
      return N;
  }
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : static_cast<int>(HW);
}

/// Cheap per-thread RNG used only for victim selection.
unsigned nextVictimSeed() {
  thread_local unsigned Seed =
      std::hash<std::thread::id>()(std::this_thread::get_id()) | 1u;
  Seed = Seed * 1664525u + 1013904223u;
  return Seed;
}

/// One spin-wait hint (cheaper than yield; keeps the core's pipeline free
/// for the hyper-twin during short waits).
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

/// Exponential backoff between failed steal probes: the pause burst doubles
/// every 32 consecutive failures, capped at 64 pauses (~a few hundred ns).
inline void stealBackoff(int Failed) {
  int Shift = Failed >> 5;
  int Spins = 1 << (Shift > 6 ? 6 : Shift);
  for (int I = 0; I < Spins; ++I)
    cpuRelax();
}

/// Failed-probe thresholds of the idle escalation: spin (with the
/// exponential backoff above), then yield the core, then park. At ~100 ns
/// per probe the full spin+yield phase lasts a few hundred microseconds —
/// long enough to ride out a fork-join barrier, short enough that an idle
/// pool stops burning CPU almost immediately.
constexpr int kSpinProbes = 256;
constexpr int kYieldProbes = 1024;

/// Parked workers re-check for work at this interval even without a wake
/// signal: it bounds the delay of a push that lands in the fence-free wake
/// protocol's store-load window (see unparkOne). At 10 ms a parked worker
/// costs ~100 cheap scans per second — idle pools measure well under 1% of
/// one core — while the worst-case missed-wake delay stays invisible next
/// to any real parallel phase.
constexpr std::chrono::milliseconds kParkBackstop(10);
} // namespace

Scheduler &Scheduler::get() {
  static Scheduler S;
  return S;
}

int Scheduler::workerId() { return ThisWorkerId; }

bool Scheduler::alive() {
  return SchedulerAlive.load(std::memory_order_acquire);
}

int Scheduler::threadSlot() {
  // Not cached across calls so a thread that later joins the pool (the main
  // thread becomes worker 0 when it first constructs the scheduler) starts
  // reporting its worker id.
  if (ThisWorkerId >= 0)
    return ThisWorkerId;
  static std::atomic<int> NextForeign{0};
  thread_local int ForeignSlot =
      kForeignSlotBase + NextForeign.fetch_add(1, std::memory_order_relaxed);
  return ForeignSlot;
}

Scheduler::Scheduler()
    : NumWorkers(chooseNumWorkers()), Deques(NumWorkers), Stats(NumWorkers) {
  // The constructing thread becomes worker 0 so that top-level calls from
  // main() participate in the pool.
  ThisWorkerId = 0;
  Threads.reserve(NumWorkers - 1);
  for (int I = 1; I < NumWorkers; ++I)
    Threads.emplace_back([this, I] { workerLoop(I); });
  SchedulerAlive.store(true, std::memory_order_release);
}

Scheduler::~Scheduler() {
  SchedulerAlive.store(false, std::memory_order_release);
  Stop.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> Lock(ParkM);
    ++WakeEpoch;
  }
  ParkCV.notify_all();
  {
    std::lock_guard<std::mutex> Lock(JoinM);
    ++JoinEpoch;
  }
  JoinCV.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats S;
  for (const WorkerStats &W : Stats) {
    S.Forks += W.Forks.load(std::memory_order_relaxed);
    S.InlineReclaims += W.InlineReclaims.load(std::memory_order_relaxed);
    S.Steals += W.Steals.load(std::memory_order_relaxed);
    S.FailedSteals += W.FailedSteals.load(std::memory_order_relaxed);
    S.Parks += W.Parks.load(std::memory_order_relaxed);
    S.Wakes += W.Wakes.load(std::memory_order_relaxed);
    S.JoinParks += W.JoinParks.load(std::memory_order_relaxed);
  }
  return S;
}

void Scheduler::statsReset() {
  for (WorkerStats &W : Stats) {
    W.Forks.store(0, std::memory_order_relaxed);
    W.InlineReclaims.store(0, std::memory_order_relaxed);
    W.Steals.store(0, std::memory_order_relaxed);
    W.FailedSteals.store(0, std::memory_order_relaxed);
    W.Parks.store(0, std::memory_order_relaxed);
    W.Wakes.store(0, std::memory_order_relaxed);
    W.JoinParks.store(0, std::memory_order_relaxed);
  }
}

void Scheduler::push(int Id, Task *T) {
  Deques[Id].push(T);
  counter_bump(Stats[Id].Forks);
  // Per-fork instants only at the verbose trace level: forks are the
  // hottest event in the system and would wrap the ring in milliseconds.
  if (obs::trace::level() >= 2)
    obs::trace::instant("fork", "sched");
  unparkOne(Id);
}

void Scheduler::unparkOne(int Id) {
  // Deliberately fence-free: a seq_cst fence here would make the wake
  // handshake airtight but put ~20 ns on *every* fork. Instead the parker
  // fences after registering and re-scans for work, which closes the race
  // except for a store-load reordering window a few instructions wide; a
  // push that lands in it is caught by the parker's 10 ms backstop timeout
  // (and by the NumParked check of every subsequent push, which cannot
  // race the same registration). Wake-on-push is best-effort by design —
  // see README "Parallel runtime".
  if (NumJoinParked.load(std::memory_order_relaxed) != 0) {
    // A joiner parked on a long stolen branch can help with this fresh
    // work: poke the join channel too (same best-effort discipline).
    {
      std::lock_guard<std::mutex> Lock(JoinM);
      ++JoinEpoch;
    }
    JoinCV.notify_all();
  }
  if (NumParked.load(std::memory_order_relaxed) == 0)
    return;
  {
    std::lock_guard<std::mutex> Lock(ParkM);
    ++WakeEpoch;
  }
  ParkCV.notify_one();
  counter_bump(Stats[Id].Wakes);
}

bool Scheduler::tryReclaim(int Id, Task *T) {
  Task *P = nullptr;
  if (!Deques[Id].pop(P))
    return false; // Empty (or a thief won the final-element race): stolen.
  assert(P == T &&
         "bottom of the owner's deque at reclaim time must be the frame's "
         "own task (helping steals from tops only)");
  (void)T;
  counter_bump(Stats[Id].InlineReclaims);
  return true;
}

Task *Scheduler::steal(int Id) {
  if (NumWorkers == 1)
    return nullptr;
  // The caller's own deque is a legal victim: while helping, claiming one
  // of its *older* frames' tasks from the top is ordinary help-first work
  // (and keeps the tryReclaim bottom invariant intact).
  int Victim = static_cast<int>(nextVictimSeed() % NumWorkers);
  Task *T = nullptr;
  if (Deques[Victim].steal(T) != chase_lev_deque<Task *>::steal_t::Ok)
    T = nullptr;
  counter_bump(T ? Stats[Id].Steals : Stats[Id].FailedSteals);
  if (T && obs::trace::level() >= 2)
    obs::trace::instant("steal", "sched");
  return T;
}

bool Scheduler::hasWork() const {
  for (const chase_lev_deque<Task *> &D : Deques)
    if (!D.empty_approx())
      return true;
  return false;
}

void Scheduler::park(int Id) {
  // Snapshot the wake epoch *before* registering: a push that bumps the
  // epoch after this point trips the wait predicate, and one that bumped it
  // before published its task under ParkM, so the hasWork() scan below sees
  // it (the lock acquisition synchronizes with the pusher's release).
  uint64_t E;
  {
    std::lock_guard<std::mutex> Lock(ParkM);
    E = WakeEpoch;
  }
  NumParked.fetch_add(1, std::memory_order_relaxed);
  // Publish the registration before re-scanning: any push whose NumParked
  // load is ordered after this fence sees it and signals; pushes that
  // slipped into the reordering window are bounded by the wait_for backstop
  // below (see unparkOne).
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (hasWork() || Submitted.load(std::memory_order_relaxed) ||
      Stop.load(std::memory_order_acquire)) {
    NumParked.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  counter_bump(Stats[Id].Parks);
  {
    obs::trace::span S("park", "sched");
    std::unique_lock<std::mutex> Lock(ParkM);
    ParkCV.wait_for(Lock, kParkBackstop, [&] {
      return WakeEpoch != E || Stop.load(std::memory_order_relaxed);
    });
  }
  NumParked.fetch_sub(1, std::memory_order_relaxed);
}

void Scheduler::waitHelping(int Id, Task *T) {
  // The forked task was stolen; execute other pending work until it is
  // done. Steal-only (see the header): popping the own deque's bottom here
  // would consume an enclosing frame's task and break its reclaim.
  int Failed = 0;
  while (!T->Done.load(std::memory_order_acquire)) {
    Task *Other = steal(Id);
    if (Other) {
      obs::trace::span S("task", "sched");
      runTask(Other);
      Failed = 0;
      continue;
    }
    ++Failed;
    if (Failed < kSpinProbes) {
      stealBackoff(Failed);
    } else if (Failed < kYieldProbes) {
      std::this_thread::yield();
    } else {
      // Park while joining: every stolen task's completion signals JoinCV
      // (signalJoiners), so a worker blocked on a long stolen branch
      // sleeps on the condvar instead of burning 50 us poll cycles. After
      // a wake: one steal attempt, then straight back to the condvar
      // (same shape as workerLoop's post-park escalation).
      joinPark(Id, T);
      Failed = kYieldProbes;
    }
  }
}

void Scheduler::signalJoiners() {
  // Pairs with joinPark's registration fence: the completer's Done store
  // is ordered before this fence, the joiner's registration before its
  // fence — so either this load sees the registration (and signals) or
  // the joiner's re-check sees Done. The fence costs only on task
  // completions, which are steal-rate rare next to forks.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (NumJoinParked.load(std::memory_order_relaxed) == 0)
    return;
  {
    std::lock_guard<std::mutex> Lock(JoinM);
    ++JoinEpoch;
  }
  JoinCV.notify_all();
}

void Scheduler::joinPark(int Id, Task *T) {
  // Same snapshot/register/fence/re-check discipline as park(), with the
  // joined task's Done flag added to the re-check and the wait predicate.
  // The backstop timeout additionally bounds the fence-free window of
  // unparkOne's join poke (a push racing this registration).
  uint64_t E;
  {
    std::lock_guard<std::mutex> Lock(JoinM);
    E = JoinEpoch;
  }
  NumJoinParked.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (T->Done.load(std::memory_order_acquire) || hasWork() ||
      Stop.load(std::memory_order_acquire)) {
    NumJoinParked.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  counter_bump(Stats[Id].JoinParks);
  {
    obs::trace::span S("join_park", "sched");
    std::unique_lock<std::mutex> Lock(JoinM);
    JoinCV.wait_for(Lock, kParkBackstop, [&] {
      return JoinEpoch != E || T->Done.load(std::memory_order_relaxed) ||
             Stop.load(std::memory_order_relaxed);
    });
  }
  NumJoinParked.fetch_sub(1, std::memory_order_relaxed);
}

void Scheduler::submitAndWait(Task *T) {
  {
    std::unique_lock<std::mutex> Lock(SubmitM);
    SubmitCV.wait(Lock, [&] {
      return Submitted.load(std::memory_order_relaxed) == nullptr;
    });
    Submitted.store(T, std::memory_order_release);
  }
  // Unlike a push, a submission is rare (one per ingest batch), so it pays
  // for the fence that makes the wake airtight: it pairs with park()'s
  // registration fence, so either this load sees the parked worker or that
  // worker's re-check sees the slot.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (NumParked.load(std::memory_order_relaxed) != 0) {
    {
      std::lock_guard<std::mutex> Lock(ParkM);
      ++WakeEpoch;
    }
    ParkCV.notify_one();
  }
  std::unique_lock<std::mutex> Lock(SubmitM);
  SubmitCV.wait(Lock, [&] { return T->Done.load(std::memory_order_acquire); });
}

Task *Scheduler::takeSubmitted() {
  // Idle workers probe on every loop turn: a plain load keeps the line
  // shared between them until a task is actually there.
  if (Submitted.load(std::memory_order_relaxed) == nullptr)
    return nullptr;
  Task *T = Submitted.exchange(nullptr, std::memory_order_acquire);
  if (T)
    signalSubmitters(); // Free slot: let the next queued submitter in.
  return T;
}

void Scheduler::signalSubmitters() {
  // Submitters check their predicates under SubmitM, so taking it orders
  // the slot exchange or Done store before any submitter's re-check.
  { std::lock_guard<std::mutex> Lock(SubmitM); }
  SubmitCV.notify_all();
}

void Scheduler::workerLoop(int Id) {
  ThisWorkerId = Id;
  int Failed = 0;
  while (!Stop.load(std::memory_order_acquire)) {
    // The submission slot first: only idle workers drain it, and a
    // submitter blocks until its task is done.
    if (Task *T = takeSubmitted()) {
      {
        obs::trace::span S("submitted", "sched");
        runTask(T);
      }
      signalSubmitters(); // Not through T: it may be gone once Done is set.
      Failed = 0;
      continue;
    }
    Task *T = steal(Id);
    if (T) {
      obs::trace::span S("task", "sched");
      runTask(T);
      Failed = 0;
      continue;
    }
    ++Failed;
    if (Failed < kSpinProbes) {
      stealBackoff(Failed);
    } else if (Failed < kYieldProbes) {
      std::this_thread::yield();
    } else {
      park(Id);
      // One steal attempt after a wake, then straight back to the condvar
      // if it finds nothing: a genuine wake-for-work almost always lands
      // the next steal (resetting the escalation), while backstop timeouts
      // and raced wakes must not burn a spin/yield phase per cycle — that
      // measured ~40% of a core for four idle workers.
      Failed = kYieldProbes;
    }
  }
}
