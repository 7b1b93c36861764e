//===- version_chain.h - Versioned snapshot store with batch ingest --------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's serving architecture: a single-writer/many-reader versioned
/// snapshot store over any purely-functional value T (a PaC-tree map/set,
/// a sym_graph, an aspen_graph — anything whose copy is an O(1) refcount
/// bump and whose destructor releases the refs).
///
/// Three layers:
///
///  - version_chain<T>: publishes immutable versions via one atomic
///    pointer swap. Readers acquire() a snapshot in O(1): pin an epoch
///    (src/serving/epoch.h), load the current version pointer, copy the
///    value (root refcount increment), unpin. The writer publish()es a new
///    version, retires the old one onto a writer-private list stamped with
///    the pre-advance epoch, and reclaims retired versions only once no
///    pinned reader epoch can still observe them — so the subtree
///    decrements of an abandoned version run on the writer, never on a
///    reader's critical path.
///
///  - ingest_pipeline<T, U>: the single-writer batch ingest front door.
///    Producers submit() updates into a bounded queue; a dedicated writer
///    thread drains them and applies one batch per publish (at most
///    BatchWindow updates each) through a caller-supplied apply function
///    (e.g. sym_graph::insert_edges / pam_map::multi_insert). Batching
///    amortizes the O(log n) structural work across the batch, which is
///    exactly the regime where PaC-tree multi-inserts win (Thm. 7.1).
///    Each batch's apply and publish run as one task on a fork-join pool
///    worker (par::run_on_pool), so the batch merges run in parallel.
///
///  - versioned_graph<G>: convenience binding of the two for graphs with
///    an insert_edges(std::vector<edge_pair>) batch API (sym_graph and
///    the aspen_graph baseline both qualify).
///
/// Concurrency contract: any number of threads may call acquire()
/// concurrently with one writer calling publish()/reclaim(). publish()
/// and reclaim() must not race each other (single-writer; the ingest
/// pipeline satisfies this by construction — its writer thread hands one
/// batch at a time to the pool and waits for it — and a debug assert
/// trips on violations). Destroying the chain requires quiescence, like
/// destroying any other container.
///
//===----------------------------------------------------------------------===//

#ifndef CPAM_SERVING_VERSION_CHAIN_H
#define CPAM_SERVING_VERSION_CHAIN_H

#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parallel/scheduler.h"
#include "src/serving/epoch.h"
#include "src/util/datagen.h"
#include "src/util/failpoint.h"

namespace cpam {
namespace serving {

/// The serving layer's obs-registry bindings, resolved once: latency
/// histograms for the three lifecycle verbs (ns domain), the ingest
/// queue-depth gauge, and the published/reclaimed version counters. Shared
/// by every chain/pipeline instance in the process — instance-granular
/// numbers stay available through the per-object stats accessors.
struct serving_metrics_t {
  obs::histogram &AcquireNs;
  obs::histogram &PublishNs;
  obs::histogram &ReclaimNs;
  obs::gauge &QueueDepth;
  obs::counter &Published;
  obs::counter &Reclaimed;
  /// High-water mark of retired-but-unreclaimed versions (raw cell:
  /// CAS-maxed by the writer, read by export_json / the watchdog tests).
  std::atomic<uint64_t> &RetiredBacklogHw;
  /// Most recent stalled-reader count observed by a pipeline writer loop
  /// (raw cell, overwritten once per batch).
  std::atomic<uint64_t> &StalledReaders;
};

inline serving_metrics_t &serving_metrics() {
  // References into the leaked registry: valid for the process lifetime.
  static serving_metrics_t M{
      obs::registry::get().get_histogram("serving.acquire_ns"),
      obs::registry::get().get_histogram("serving.publish_ns"),
      obs::registry::get().get_histogram("serving.reclaim_ns"),
      obs::registry::get().get_gauge("serving.queue_depth"),
      obs::registry::get().get_counter("serving.published"),
      obs::registry::get().get_counter("serving.reclaimed"),
      obs::registry::get().raw_counter("serving.retired_backlog_hw"),
      obs::registry::get().raw_counter("serving.stalled_readers")};
  return M;
}

template <class T> class version_chain {
public:
  /// Creates the chain holding \p Initial as version 1.
  explicit version_chain(T Initial)
      : Current(new version_node{std::move(Initial), 1}) {}

  version_chain(const version_chain &) = delete;
  version_chain &operator=(const version_chain &) = delete;

  /// Requires quiescence (no concurrent readers or writer). Frees the
  /// current version and every still-retired one; with all snapshots
  /// dropped this releases every node the chain ever owned.
  ~version_chain() {
    delete Current.load(std::memory_order_relaxed);
    version_node *R = RetiredHead;
    while (R) {
      version_node *Next = R->NextRetired;
      delete R;
      R = Next;
    }
  }

  /// O(1) snapshot of the current version: epoch pin, pointer load, root
  /// refcount bump, unpin. Wait-free apart from the slot claim. Safe from
  /// any thread, concurrent with publish().
  T acquire() const {
    // Sampled timing (1 in 256 per thread): acquire is ~a hundred ns, so
    // two unconditional clock reads would be a double-digit-percent tax.
    const bool Timed = obs::sampled<8>();
    const uint64_t T0 = Timed ? obs::now_ns() : 0;
    epoch_manager::guard G(Epochs);
    slowReaderFailpoint();
    version_node *V = Current.load(std::memory_order_seq_cst);
    T Snap = V->Value;
    if (Timed)
      serving_metrics().AcquireNs.record(obs::now_ns() - T0);
    return Snap;
  }

  /// Snapshot plus its version sequence number.
  T acquire(uint64_t &SeqOut) const {
    const bool Timed = obs::sampled<8>();
    const uint64_t T0 = Timed ? obs::now_ns() : 0;
    epoch_manager::guard G(Epochs);
    slowReaderFailpoint();
    version_node *V = Current.load(std::memory_order_seq_cst);
    SeqOut = V->Seq;
    T Snap = V->Value;
    if (Timed)
      serving_metrics().AcquireNs.record(obs::now_ns() - T0);
    return Snap;
  }

  /// Sequence number of the current version (1-based, monotone).
  uint64_t seq() const {
    epoch_manager::guard G(Epochs);
    return Current.load(std::memory_order_seq_cst)->Seq;
  }

  /// Writer-side: publishes \p Next as the new current version, retires
  /// the old one, and opportunistically reclaims every retired version no
  /// reader can still observe. Single writer only.
  void publish(T Next) {
    assert(!WriterActive.exchange(true) && "version_chain: second writer");
    obs::trace::span S("publish", "serve");
    // Unsampled timing: one publish per batch, the clock reads are noise.
    const uint64_t T0 = obs::now_ns();
    version_node *Old = Current.load(std::memory_order_relaxed);
    version_node *N = new version_node{std::move(Next), Old->Seq + 1};
    Current.store(N, std::memory_order_seq_cst);
    // Stamp with the pre-advance epoch: every reader still able to reach
    // Old is pinned at an epoch <= this value (see epoch.h).
    Old->RetireEpoch = Epochs.advance();
    Old->NextRetired = RetiredHead;
    RetiredHead = Old;
    ++NumRetired;
    if (NumRetired > RetiredHw) {
      RetiredHw = NumRetired;
      // CAS-max into the process-wide cell: stalled readers show up as a
      // climbing backlog high-water long before memory pressure does.
      auto &HW = serving_metrics().RetiredBacklogHw;
      uint64_t Cur = HW.load(std::memory_order_relaxed);
      while (Cur < RetiredHw &&
             !HW.compare_exchange_weak(Cur, RetiredHw,
                                       std::memory_order_relaxed)) {
      }
    }
    serving_metrics().PublishNs.record(obs::now_ns() - T0);
    serving_metrics().Published.inc();
    reclaimLocked();
    WriterActive.store(false);
  }

  /// Writer-side: frees every retired version whose retire epoch precedes
  /// all pinned readers. Returns the number of versions freed. publish()
  /// already calls this; exposed for tests and for draining after load.
  size_t reclaim() {
    assert(!WriterActive.exchange(true) && "version_chain: second writer");
    size_t Freed = reclaimLocked();
    WriterActive.store(false);
    return Freed;
  }

  /// Retired-but-not-yet-freed version count (writer thread only).
  size_t retired_count() const { return NumRetired; }
  /// High-water mark of retired_count() over the chain's lifetime (writer
  /// only). A mark far above steady-state means readers stalled long
  /// enough to dam up reclamation.
  size_t retired_high_water() const { return RetiredHw; }
  /// Total versions reclaimed over the chain's lifetime (writer only).
  uint64_t reclaimed_total() const { return NumReclaimed; }

  /// The chain's epoch manager (manual pinning in tests/telemetry).
  epoch_manager &epochs() const { return Epochs; }

private:
  struct version_node {
    T Value;
    uint64_t Seq;
    uint64_t RetireEpoch = 0;
    version_node *NextRetired = nullptr;
  };

  /// Chaos hook: stretches the reader's pinned window so the stall
  /// watchdog and retire-backlog paths can be exercised deterministically.
  /// The spec's arg clause sets the dwell in microseconds (default 1ms).
  static void slowReaderFailpoint() {
    if (CPAM_FAILPOINT_ACTIVE("serving.slow_reader"))
      std::this_thread::sleep_for(
          std::chrono::microseconds(fail::arg("serving.slow_reader", 1000)));
  }

  size_t reclaimLocked() {
    if (!RetiredHead)
      return 0;
    obs::trace::span S("reclaim", "serve");
    const uint64_t T0 = obs::now_ns();
    uint64_t MinActive = Epochs.min_active();
    version_node **Link = &RetiredHead;
    size_t Freed = 0;
    while (*Link) {
      version_node *V = *Link;
      if (V->RetireEpoch < MinActive) {
        *Link = V->NextRetired;
        delete V; // ~T decrements the tree roots — off the reader path.
        ++Freed;
      } else {
        Link = &V->NextRetired;
      }
    }
    NumRetired -= Freed;
    NumReclaimed += Freed;
    serving_metrics().ReclaimNs.record(obs::now_ns() - T0);
    serving_metrics().Reclaimed.inc(Freed);
    return Freed;
  }

  std::atomic<version_node *> Current;
  mutable epoch_manager Epochs;
  // Writer-private state (guarded by the single-writer contract).
  version_node *RetiredHead = nullptr;
  size_t NumRetired = 0;
  size_t RetiredHw = 0;
  uint64_t NumReclaimed = 0;
  std::atomic<bool> WriterActive{false};
};

/// What a producer-facing submit does when the bounded ingest queue is
/// full. Counted per-policy in ingest_pipeline::stats_t and in the shared
/// queue metrics, so overload is observable rather than silent.
enum class overload_policy {
  /// Block the submitter until space frees (default; lossless
  /// backpressure).
  Block,
  /// Refuse the new update (submit returns false; Rejected counts it).
  RejectNewest,
  /// Drop the oldest queued update to admit the new one (Shed counts the
  /// victim). Keeps producers wait-free at the cost of losing the oldest
  /// not-yet-applied data — the classic head-drop queue.
  ShedOldest,
};

/// Single-writer batch-ingest pipeline in front of a version_chain<T>:
/// producers enqueue updates of type U into a bounded queue; the pipeline's
/// writer thread drains them and applies one batch per publish.
///
/// The writer thread hands each batch's Apply, together with the publish
/// and reclaim after it, to the fork-join pool as one task
/// (par::run_on_pool) and waits for it; the slow-apply dwell and the
/// stall watchdog stay on the writer thread. Apply therefore runs on a
/// pool worker (inline on the writer where the pool cannot take it: one
/// worker, sequential mode, fork refusal), one batch at a time and in
/// submission order. It must not block on its own pipeline — a
/// Block-policy submit or a flush would wait for the batch it is part of
/// — and must not rely on thread identity: consecutive batches may run on
/// different threads.
template <class T, class U> class ingest_pipeline {
public:
  /// Applies a batch of updates to a snapshot, returning the next version.
  using apply_fn = std::function<T(const T &, std::vector<U>)>;

  struct options {
    /// Bounded-queue capacity: the overload policy engages while this many
    /// updates are pending.
    size_t QueueCapacity = size_t(1) << 16;
    /// Max updates applied per published version. Small windows minimize
    /// snapshot staleness; large windows amortize structural work.
    size_t BatchWindow = size_t(1) << 12;
    /// What submit() does when the queue is full (see overload_policy).
    overload_policy Policy = overload_policy::Block;
    /// Pin age beyond which a reader counts as stalled (watchdog
    /// threshold; the writer loop samples stalled_readers(StallAgeNs)
    /// once per batch). Default 100ms — five orders of magnitude past a
    /// healthy pin.
    uint64_t StallAgeNs = 100'000'000;
  };

  ingest_pipeline(version_chain<T> &Chain, apply_fn Apply, options O = {})
      : Chain(Chain), Apply(std::move(Apply)), Opts(O) {
    assert(Opts.QueueCapacity > 0 && Opts.BatchWindow > 0);
    Writer = std::thread([this] { writerLoop(); });
  }

  ingest_pipeline(const ingest_pipeline &) = delete;
  ingest_pipeline &operator=(const ingest_pipeline &) = delete;

  ~ingest_pipeline() { stop(); }

  /// Enqueues one update, resolving a full queue per Opts.Policy: Block
  /// waits for space (lossless backpressure), RejectNewest returns false,
  /// ShedOldest drops the oldest queued update and admits this one.
  /// Returns false (dropping the update) once the pipeline is stopping —
  /// including when stop() races in while a Block submitter is waiting,
  /// which wakes every blocked submitter rather than stranding them.
  /// The "serving.queue_full" failpoint forces the reject path for chaos
  /// runs regardless of actual queue depth.
  bool submit(U Item) {
    if (CPAM_FAILPOINT_ACTIVE("serving.queue_full")) {
      std::lock_guard<std::mutex> L(M);
      ++NumRejected;
      return false;
    }
    std::unique_lock<std::mutex> L(M);
    if (Stopping)
      return false;
    bool DidShed = false;
    if (Pending.size() >= Opts.QueueCapacity) {
      switch (Opts.Policy) {
      case overload_policy::Block:
        ++FullWaits;
        NotFull.wait(L, [&] {
          return Pending.size() < Opts.QueueCapacity || Stopping;
        });
        if (Stopping)
          return false;
        break;
      case overload_policy::RejectNewest:
        ++NumRejected;
        return false;
      case overload_policy::ShedOldest:
        Pending.pop_front();
        ++NumShed;
        DidShed = true;
        break;
      }
    }
    Pending.push_back(std::move(Item));
    ++NumSubmitted;
    L.unlock();
    if (!DidShed) // Shedding swapped one queued item for another: net 0.
      serving_metrics().QueueDepth.add(1);
    NotEmpty.notify_one();
    return true;
  }

  /// Deadline-bounded submit: waits for queue space at most \p Timeout,
  /// then gives up (counted in DeadlineTimeouts). Ignores the overload
  /// policy — the deadline *is* the policy. Returns false on timeout or
  /// shutdown.
  template <class Rep, class Period>
  bool submit_for(U Item, std::chrono::duration<Rep, Period> Timeout) {
    if (CPAM_FAILPOINT_ACTIVE("serving.queue_full")) {
      std::lock_guard<std::mutex> L(M);
      ++NumRejected;
      return false;
    }
    std::unique_lock<std::mutex> L(M);
    if (Pending.size() >= Opts.QueueCapacity && !Stopping) {
      ++FullWaits;
      if (!NotFull.wait_for(L, Timeout, [&] {
            return Pending.size() < Opts.QueueCapacity || Stopping;
          })) {
        ++NumDeadlineTimeouts;
        return false;
      }
    }
    if (Stopping)
      return false;
    Pending.push_back(std::move(Item));
    ++NumSubmitted;
    L.unlock();
    serving_metrics().QueueDepth.add(1);
    NotEmpty.notify_one();
    return true;
  }

  /// Non-blocking submit; false if the queue is full or stopping.
  bool try_submit(U Item) {
    if (CPAM_FAILPOINT_ACTIVE("serving.queue_full")) {
      std::lock_guard<std::mutex> L(M);
      ++NumRejected;
      return false;
    }
    std::unique_lock<std::mutex> L(M);
    if (Stopping || Pending.size() >= Opts.QueueCapacity)
      return false;
    Pending.push_back(std::move(Item));
    ++NumSubmitted;
    L.unlock();
    serving_metrics().QueueDepth.add(1);
    NotEmpty.notify_one();
    return true;
  }

  /// Blocks until every update submitted before the call has been applied
  /// and published.
  void flush() {
    std::unique_lock<std::mutex> L(M);
    Drained.wait(L, [&] { return (Pending.empty() && !Applying) || Stopping; });
  }

  /// Deadline-bounded flush: true if the queue drained (or the pipeline
  /// stopped) within \p Timeout, false if work was still in flight.
  template <class Rep, class Period>
  bool flush_for(std::chrono::duration<Rep, Period> Timeout) {
    std::unique_lock<std::mutex> L(M);
    return Drained.wait_for(L, Timeout, [&] {
      return (Pending.empty() && !Applying) || Stopping;
    });
  }

  /// Drains the queue, publishes the remainder, and joins the writer
  /// thread. Idempotent; called by the destructor.
  void stop() {
    {
      std::lock_guard<std::mutex> L(M);
      if (Stopping)
        return;
      Stopping = true;
    }
    NotEmpty.notify_all();
    NotFull.notify_all();
    Drained.notify_all();
    if (Writer.joinable())
      Writer.join();
  }

  struct stats_t {
    uint64_t Submitted = 0; ///< Updates accepted into the queue.
    uint64_t Applied = 0;   ///< Updates applied and published.
    uint64_t Batches = 0;   ///< Versions published by the writer loop.
    uint64_t FullWaits = 0; ///< Times a submitter waited on a full queue.
    uint64_t Rejected = 0;  ///< Updates refused (RejectNewest / failpoint).
    uint64_t Shed = 0;      ///< Oldest-queued updates dropped (ShedOldest).
    uint64_t DeadlineTimeouts = 0; ///< submit_for() deadline expirations.
  };
  stats_t stats() const {
    std::lock_guard<std::mutex> L(M);
    return {NumSubmitted, NumApplied,  NumBatches,
            FullWaits,    NumRejected, NumShed,
            NumDeadlineTimeouts};
  }

private:
  void writerLoop() {
    // The writer tracks the tip locally: with a single writer the chain
    // head only moves underneath us via our own publishes.
    T Tip = Chain.acquire();
    std::vector<U> Batch;
    for (;;) {
      {
        std::unique_lock<std::mutex> L(M);
        NotEmpty.wait(L, [&] { return !Pending.empty() || Stopping; });
        if (Pending.empty() && Stopping)
          break;
        size_t Take = std::min(Opts.BatchWindow, Pending.size());
        Batch.assign(std::make_move_iterator(Pending.begin()),
                     std::make_move_iterator(Pending.begin() + Take));
        Pending.erase(Pending.begin(), Pending.begin() + Take);
        Applying = true;
      }
      NotFull.notify_all();
      serving_metrics().QueueDepth.sub(static_cast<int64_t>(Batch.size()));
      size_t Applied = Batch.size();
      {
        obs::trace::span S("apply_batch", "serve");
        // Chaos hook: a glacial apply (arg = dwell in ms, default 10)
        // backs the queue up against its capacity so the overload
        // policies and deadline paths can be driven deterministically.
        if (CPAM_FAILPOINT_ACTIVE("serving.slow_apply"))
          std::this_thread::sleep_for(
              std::chrono::milliseconds(fail::arg("serving.slow_apply", 10)));
        // Apply and the publish/reclaim after it run as one task on a pool
        // worker, so the batch merges and the reclaimed version's release
        // fork; this thread only waits for it.
        par::run_on_pool([&] {
          Tip = Apply(Tip, std::move(Batch));
          Chain.publish(Tip);
        });
      }
      // Watchdog sweep, once per batch off the reader path: publish the
      // current stalled-reader count so export_json / bench_serving can
      // surface wedged pins without scanning the slot table themselves.
      serving_metrics().StalledReaders.store(
          Chain.epochs().stalled_readers(Opts.StallAgeNs),
          std::memory_order_relaxed);
      Batch.clear();
      {
        std::lock_guard<std::mutex> L(M);
        Applying = false;
        NumApplied += Applied;
        ++NumBatches;
      }
      Drained.notify_all();
    }
    // Leave retired versions fully drained when no reader is left pinned.
    Chain.reclaim();
  }

  version_chain<T> &Chain;
  apply_fn Apply;
  options Opts;

  mutable std::mutex M;
  std::condition_variable NotEmpty, NotFull, Drained;
  // Deque, not vector: ShedOldest pops the front in O(1).
  std::deque<U> Pending;
  bool Stopping = false;
  bool Applying = false;
  uint64_t NumSubmitted = 0, NumApplied = 0, NumBatches = 0, FullWaits = 0;
  uint64_t NumRejected = 0, NumShed = 0, NumDeadlineTimeouts = 0;

  std::thread Writer;
};

/// A versioned graph service: version_chain + ingest_pipeline bound to a
/// graph type with batch edge insertion (sym_graph, aspen_graph). Readers
/// snapshot(); producers submit_edge(); the pipeline's writer publishes one
/// new graph version per drained batch.
template <class G> class versioned_graph {
public:
  using pipeline_t = ingest_pipeline<G, edge_pair>;
  using options = typename pipeline_t::options;

  explicit versioned_graph(G Initial, options O = {})
      : Chain(std::move(Initial)),
        Pipe(Chain,
             [](const G &Cur, std::vector<edge_pair> Batch) {
               return Cur.insert_edges(std::move(Batch));
             },
             O) {}

  /// O(1) snapshot of the newest published graph.
  G snapshot() const { return Chain.acquire(); }
  G snapshot(uint64_t &SeqOut) const { return Chain.acquire(SeqOut); }

  /// Enqueues one directed edge (blocking backpressure when the queue is
  /// full). For undirected updates submit both directions.
  bool submit_edge(vertex_id U, vertex_id V) {
    return Pipe.submit(edge_pair{U, V});
  }
  bool submit_edge(edge_pair E) { return Pipe.submit(E); }

  /// Waits until all submitted edges are visible in snapshots.
  void flush() { Pipe.flush(); }
  /// Stops the writer thread (destructor also stops).
  void stop() { Pipe.stop(); }

  version_chain<G> &chain() { return Chain; }
  const version_chain<G> &chain() const { return Chain; }
  /// Direct pipeline access (deadline submits, overload counters).
  pipeline_t &pipeline() { return Pipe; }
  typename pipeline_t::stats_t ingest_stats() const { return Pipe.stats(); }

private:
  version_chain<G> Chain;
  pipeline_t Pipe;
};

} // namespace serving
} // namespace cpam

#endif // CPAM_SERVING_VERSION_CHAIN_H
