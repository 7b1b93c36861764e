//===- test_chaos.cpp - Fault-injection framework and chaos episodes -------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chaos suite: semantics of the deterministic failpoint registry
/// (src/util/failpoint.h) and fault-injection episodes driving every armed
/// failure path — allocation throws mid-merge, mid-filter, mid-splice of
/// a sequence or mid graph batch update (alloc.node, leaf.seal), fork
/// refusal degrading to inline execution (sched.fork), and the serving
/// failure paths (queue-full rejection, wedged applies, stalled readers
/// tripping the watchdog).
/// Episodes assert the exception contract end to end: a failed op leaves
/// its operands untouched, leaks nothing (LeakCheckTest fixtures), and the
/// structure still satisfies the Def. 4.1 invariants. Runs in the ASan
/// `chaos` CI leg with latency failpoints armed process-wide via
/// CPAM_FAILPOINTS, and in the TSan leg.
///
//===----------------------------------------------------------------------===//

#include <atomic>
#include <chrono>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

#include "src/api/aug_map.h"
#include "src/api/pam_map.h"
#include "src/api/pam_seq.h"
#include "src/api/pam_set.h"
#include "src/encoding/diff_encoder.h"
#include "src/encoding/gamma_encoder.h"
#include "src/graph/graph.h"
#include "src/serving/version_chain.h"
#include "src/util/failpoint.h"
#include "tests/test_common.h"

using namespace cpam;

namespace {

//===----------------------------------------------------------------------===//
// Failpoint registry semantics.
//===----------------------------------------------------------------------===//

TEST(Failpoint, DisarmedPointNeverFiresOrCounts) {
  // Arm an unrelated point so the global armed-count fast path is open and
  // the named lookup actually runs.
  fail::scoped_arm Other("chaos.other", "always");
  for (int I = 0; I < 8; ++I)
    EXPECT_FALSE(CPAM_FAILPOINT_ACTIVE("chaos.disarmed"));
  EXPECT_EQ(fail::hits("chaos.disarmed"), 0u)
      << "an off point must not count hits";
  EXPECT_EQ(fail::fires("chaos.disarmed"), 0u);
}

TEST(Failpoint, AlwaysFiresEveryHit) {
  fail::scoped_arm Arm("chaos.always", "always");
  for (int I = 0; I < 5; ++I)
    EXPECT_TRUE(CPAM_FAILPOINT_ACTIVE("chaos.always"));
  EXPECT_EQ(fail::hits("chaos.always"), 5u);
  EXPECT_EQ(fail::fires("chaos.always"), 5u);
}

TEST(Failpoint, NthFiresExactlyOnce) {
  fail::scoped_arm Arm("chaos.nth", "nth=3");
  std::vector<bool> Fired;
  for (int I = 0; I < 6; ++I)
    Fired.push_back(CPAM_FAILPOINT_ACTIVE("chaos.nth"));
  EXPECT_EQ(Fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
  EXPECT_EQ(fail::fires("chaos.nth"), 1u);
}

TEST(Failpoint, EveryNthFiresPeriodically) {
  fail::scoped_arm Arm("chaos.every", "every=2");
  std::vector<bool> Fired;
  for (int I = 0; I < 6; ++I)
    Fired.push_back(CPAM_FAILPOINT_ACTIVE("chaos.every"));
  EXPECT_EQ(Fired, (std::vector<bool>{false, true, false, true, false,
                                      true}));
  EXPECT_EQ(fail::fires("chaos.every"), 3u);
}

TEST(Failpoint, ProbStreamReplaysExactlyFromSeed) {
  // The p= decision is a pure function of (seed, hit index): re-arming the
  // same spec replays the identical fire pattern. scoped_arm zeroes the
  // hit counter on exit, so both passes start from hit 1.
  std::vector<bool> First, Second;
  {
    fail::scoped_arm Arm("chaos.prob", "p=4/seed=42");
    for (int I = 0; I < 256; ++I)
      First.push_back(CPAM_FAILPOINT_ACTIVE("chaos.prob"));
  }
  {
    fail::scoped_arm Arm("chaos.prob", "p=4/seed=42");
    for (int I = 0; I < 256; ++I)
      Second.push_back(CPAM_FAILPOINT_ACTIVE("chaos.prob"));
  }
  EXPECT_EQ(First, Second) << "p= stream is not a pure function of the spec";
  size_t Fires = 0;
  for (bool B : First)
    Fires += B;
  // ~64 expected at 1-in-4; just pin that the stream is neither empty nor
  // saturated.
  EXPECT_GT(Fires, 16u);
  EXPECT_LT(Fires, 128u);

  // A different seed gives a different stream.
  std::vector<bool> Reseeded;
  {
    fail::scoped_arm Arm("chaos.prob", "p=4/seed=43");
    for (int I = 0; I < 256; ++I)
      Reseeded.push_back(CPAM_FAILPOINT_ACTIVE("chaos.prob"));
  }
  EXPECT_NE(First, Reseeded);
}

TEST(Failpoint, ArgClauseCarriesPayload) {
  EXPECT_EQ(fail::arg("chaos.arg", 7), 7u) << "disarmed point: default";
  fail::scoped_arm Arm("chaos.arg", "always/arg=123");
  EXPECT_EQ(fail::arg("chaos.arg", 7), 123u);
}

TEST(Failpoint, MalformedSpecsAreRejected) {
  for (const char *Spec :
       {"", "bogus", "nth=0", "nth=x", "every=0", "p=", "p=0", "seed=x",
        "always=1", "arg=", "always/", "/always"})
    EXPECT_FALSE(fail::arm("chaos.malformed", Spec)) << Spec;
  // The point stayed off through all of that.
  EXPECT_FALSE(CPAM_FAILPOINT_ACTIVE("chaos.malformed"));
}

TEST(Failpoint, ScopedArmDisarmsAndZeroesOnExit) {
  {
    fail::scoped_arm Arm("chaos.scoped", "always");
    EXPECT_TRUE(CPAM_FAILPOINT_ACTIVE("chaos.scoped"));
    EXPECT_EQ(fail::hits("chaos.scoped"), 1u);
  }
  EXPECT_FALSE(CPAM_FAILPOINT_ACTIVE("chaos.scoped"));
  EXPECT_EQ(fail::hits("chaos.scoped"), 0u) << "counters survive the scope";
  EXPECT_EQ(fail::fires("chaos.scoped"), 0u);
}

//===----------------------------------------------------------------------===//
// Tree chaos: injected failures on the merge/splice hot paths.
//===----------------------------------------------------------------------===//

class ChaosLeakTest : public test::LeakCheckTest {};

/// The entry of key \p K in a tree of type \p TreeT: the key itself in a
/// set; in a string-valued map, a heap-allocated string derived from the
/// key, so that a failed op that leaks or double-destroys an entry shows up
/// under ASan.
template <class TreeT> typename TreeT::entry_t entryOf(uint64_t K) {
  if constexpr (std::is_same_v<typename TreeT::entry_t, uint64_t>)
    return K;
  else
    return {K, "value-" + std::to_string(K) + std::string(24, '.')};
}

template <class TreeT>
std::vector<typename TreeT::entry_t>
entriesOf(const std::vector<uint64_t> &Keys) {
  std::vector<typename TreeT::entry_t> Out;
  for (uint64_t K : Keys)
    Out.push_back(entryOf<TreeT>(K));
  return Out;
}

/// \p S holds exactly the keys of \p O (each with its entryOf value).
template <class SetT>
void checkSet(const SetT &S, const std::set<uint64_t> &O, const char *What) {
  ASSERT_EQ(S.check_invariants(), "") << What;
  ASSERT_EQ(S.size(), O.size()) << What;
  std::vector<uint64_t> Keys(O.begin(), O.end());
  ASSERT_EQ(S.to_vector(), entriesOf<SetT>(Keys)) << What;
}

std::vector<uint64_t> randomKeys(Rng &R, size_t N, uint64_t Universe) {
  std::vector<uint64_t> Keys(N);
  for (auto &K : Keys)
    K = R.next(Universe);
  return Keys;
}

/// Chunk-writer chaos: "leaf.seal" throws while a streamed multi-leaf
/// result is mid-write. The failed op must drop its sealed leaves and
/// unwind its pending entries and separators without leaking, and leave
/// the operand untouched; survivors must match the oracle. Typed over
/// every block layout, since every blocked tree writes through the one
/// leaf_writer: diff- and gamma-compressed sets, a raw set, and a raw map
/// of std::string values (non-trivial entries the unwind must destroy).
/// Every B=8 base-case merge writes through the chunk writer, so the
/// failpoint fires without any tuning.
template <class SetT> void runLeafSealChaos(uint64_t Salt) {
  fail::scoped_arm Arm("leaf.seal", "every=50");
  Rng R = test::seeded_rng(Salt);
  constexpr uint64_t kUniverse = 200000;
  SetT S;
  std::set<uint64_t> O;
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < 24; ++Step) {
    // Sizes spread from a handful of seals (usually survives) to hundreds
    // (usually dies): both outcomes occur in every run.
    auto Keys = randomKeys(R, 50 + R.next(2000), kUniverse);
    try {
      if (Step % 2) {
        SetT Next = SetT::map_union(S, SetT(entriesOf<SetT>(Keys)));
        S = std::move(Next);
      } else {
        SetT Next = S.multi_insert(entriesOf<SetT>(Keys));
        S = std::move(Next);
      }
      O.insert(Keys.begin(), Keys.end());
      ++Survived;
      checkSet(S, O, "seal-chaos survivor");
    } catch (const std::bad_alloc &) {
      ++Died;
      checkSet(S, O, "operand after mid-write seal failure");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(fail::fires("leaf.seal"), 0u)
      << "chunked write path never hit the seal failpoint";
  EXPECT_GT(Survived, 0u);
  EXPECT_GT(Died, 0u);
}

TEST_F(ChaosLeakTest, LeafSealChaosDiffBlocks) {
  runLeafSealChaos<pam_set<uint64_t, 8, diff_encoder>>(101);
}

TEST_F(ChaosLeakTest, LeafSealChaosGammaBlocks) {
  runLeafSealChaos<pam_set<uint64_t, 8, gamma_encoder>>(103);
}

TEST_F(ChaosLeakTest, LeafSealChaosRawBlocks) {
  runLeafSealChaos<pam_set<uint64_t, 8>>(107);
}

TEST_F(ChaosLeakTest, LeafSealChaosStringValuedBlocks) {
  runLeafSealChaos<pam_map<uint64_t, std::string, 8>>(109);
}

/// Fork refusal is not a failure: "sched.fork" firing makes parDo run both
/// branches inline, which must be invisible in the result.
TEST_F(ChaosLeakTest, ForkRefusalDegradesToInlineExecution) {
  fail::scoped_arm Arm("sched.fork", "p=2/seed=9");
  using SetT = pam_set<uint64_t, 128>;
  Rng R = test::seeded_rng(7);
  auto KA = randomKeys(R, 8000, 300000);
  auto KB = randomKeys(R, 6000, 300000);
  SetT A(KA), B(KB);
  SetT U = SetT::map_union(A, B);
  std::set<uint64_t> O(KA.begin(), KA.end());
  O.insert(KB.begin(), KB.end());
  checkSet(U, O, "union under fork refusal");
  EXPECT_GT(fail::hits("sched.fork"), 0u)
      << "parallel union never attempted a fork";
  EXPECT_GT(fail::fires("sched.fork"), 0u);
}

/// Capstone: every tree-layer failpoint armed at once over a mixed op
/// sequence. Any hole in the unwind paths shows up as an oracle mismatch,
/// an invariant break, or a fixture-detected leak.
TEST_F(ChaosLeakTest, CombinedChaosEpisode) {
  fail::scoped_arm A1("alloc.node", "p=300/seed=71");
  fail::scoped_arm A2("leaf.seal", "every=400");
  fail::scoped_arm A3("sched.fork", "p=3/seed=72");
  using SetT = pam_set<uint64_t, 8>;
  Rng R = test::seeded_rng(9);
  constexpr uint64_t kUniverse = 100000;
  SetT S;
  std::set<uint64_t> O;
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < 48; ++Step) {
    auto Keys = randomKeys(R, R.next(1200), kUniverse);
    try {
      switch (Step % 4) {
      case 0: {
        SetT Next = SetT::map_union(S, SetT(Keys));
        S = std::move(Next);
        O.insert(Keys.begin(), Keys.end());
        break;
      }
      case 1: {
        SetT Next = S.multi_insert(Keys);
        S = std::move(Next);
        O.insert(Keys.begin(), Keys.end());
        break;
      }
      case 2: {
        SetT Next = SetT::map_difference(S, SetT(Keys));
        S = std::move(Next);
        for (uint64_t K : Keys)
          O.erase(K);
        break;
      }
      default: {
        SetT Next = S.multi_delete(Keys);
        S = std::move(Next);
        for (uint64_t K : Keys)
          O.erase(K);
        break;
      }
      }
      ++Survived;
      checkSet(S, O, "combined-chaos survivor");
    } catch (const std::bad_alloc &) {
      ++Died;
      checkSet(S, O, "operand after combined-chaos failure");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Survived, 0u);
  EXPECT_GT(Died, 0u);
  EXPECT_GT(fail::fires("alloc.node") + fail::fires("leaf.seal"), 0u);
}

/// aug_filter under "alloc.node" failures: a failed call releases every
/// partial result (the fixture counts live nodes) and leaves its operand
/// intact; survivors match the brute-force filter. Thresholds keep from
/// half the entries down to a handful, so both outcomes occur.
TEST_F(ChaosLeakTest, AugFilterChaosLeaksNothing) {
  using MapT = aug_map<aug_max_entry<uint64_t, uint64_t>, 8>;
  constexpr uint64_t kMaxVal = 1u << 20;
  Rng R = test::seeded_rng(13);
  std::vector<std::pair<uint64_t, uint64_t>> E(20000);
  for (uint64_t I = 0; I < E.size(); ++I)
    E[I] = {I, R.next(kMaxVal)};
  MapT M = MapT::from_sorted(E);
  fail::scoped_arm Arm("alloc.node", "p=50/seed=17");
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < 56; ++Step) {
    uint64_t Tau = kMaxVal - (kMaxVal >> (1 + Step % 14));
    try {
      MapT F = M.aug_filter([Tau](uint64_t Max) { return Max >= Tau; });
      ++Survived;
      std::vector<std::pair<uint64_t, uint64_t>> Want;
      for (const auto &KV : E)
        if (KV.second >= Tau)
          Want.push_back(KV);
      ASSERT_EQ(F.to_vector(), Want) << "Tau=" << Tau;
    } catch (const std::bad_alloc &) {
      ++Died;
    }
    ASSERT_EQ(M.to_vector(), E) << "operand changed at step " << Step;
  }
  EXPECT_GT(Survived, 0u);
  EXPECT_GT(Died, 0u);
}

/// Sequence ops under "alloc.node" failures: a failed take, drop, append,
/// map, filter or reverse releases every partial result (the fixture
/// counts live nodes) and leaves its operand intact; survivors match a
/// std::vector oracle. Operands run from one block to 20,000 elements, so
/// the short ones usually survive and the long ones die deep in their
/// recursion. Elements stay strictly increasing under every op but
/// reverse, which difference-encoded blocks cannot hold, so it runs only
/// when \p CanReverse.
template <class SeqT, bool CanReverse> void runSeqChaos(uint64_t Salt) {
  Rng R = test::seeded_rng(Salt);
  std::vector<std::vector<uint64_t>> Vs;
  for (size_t N : {12, 200, 2000, 20000}) {
    std::vector<uint64_t> V(N);
    for (size_t I = 0; I < N; ++I)
      V[I] = 5 * I + R.next(5);
    Vs.push_back(std::move(V));
  }
  // Appended to each operand: a one-block sequence above every operand key.
  std::vector<uint64_t> Tail(12);
  for (size_t I = 0; I < Tail.size(); ++I)
    Tail[I] = 5 * (20000 + I) + R.next(5);
  std::vector<SeqT> Ss(Vs.begin(), Vs.end());
  SeqT T(Tail);
  auto F = [](uint64_t X) { return 3 * X + 1; };
  auto P = [](uint64_t X) { return X % 3 != 0; };
  fail::scoped_arm Arm("alloc.node", "p=50/seed=17");
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < 96; ++Step) {
    int Op = Step % 6;
    if (Op == 5 && !CanReverse)
      continue;
    const std::vector<uint64_t> &V = Vs[Step / 6 % Vs.size()];
    const SeqT &S = Ss[Step / 6 % Vs.size()];
    size_t Cut = R.next(V.size() + 1);
    std::vector<uint64_t> Want;
    try {
      SeqT Out;
      switch (Op) {
      case 0:
        Out = S.take(Cut);
        Want.assign(V.begin(), V.begin() + Cut);
        break;
      case 1:
        Out = S.drop(Cut);
        Want.assign(V.begin() + Cut, V.end());
        break;
      case 2:
        Out = SeqT::append(S, T);
        Want = V;
        Want.insert(Want.end(), Tail.begin(), Tail.end());
        break;
      case 3:
        Out = S.map(F);
        for (uint64_t X : V)
          Want.push_back(F(X));
        break;
      case 4:
        Out = S.filter(P);
        for (uint64_t X : V)
          if (P(X))
            Want.push_back(X);
        break;
      default:
        Out = S.reverse();
        Want.assign(V.rbegin(), V.rend());
        break;
      }
      ++Survived;
      ASSERT_EQ(Out.check_invariants(), "") << "op " << Op << " n=" << V.size();
      ASSERT_EQ(Out.to_vector(), Want) << "op " << Op << " n=" << V.size();
    } catch (const std::bad_alloc &) {
      ++Died;
    }
    ASSERT_EQ(S.to_vector(), V) << "operand changed at step " << Step;
  }
  EXPECT_GT(Survived, 0u);
  EXPECT_GT(Died, 0u);
}

TEST_F(ChaosLeakTest, SeqOpsChaosLeakNothing) {
  runSeqChaos<pam_seq<uint64_t, 8>, /*CanReverse=*/true>(31);
  if (HasFatalFailure())
    return;
  runSeqChaos<pam_seq<uint64_t, 64, diff_encoder>, /*CanReverse=*/false>(37);
}

/// Graph batch updates under "alloc.node" and "leaf.seal" failures. An
/// insert unions per-source edge sets inside the vertex-tree union and a
/// delete runs edge-set differences inside the keep-left update, so a
/// failure can land in the nested combine, in a vertex-level merge or in
/// building the delta; every failed batch must leave its graph exactly as
/// it was and leak nothing, and every surviving batch must match the
/// reference adjacency.
TEST_F(ChaosLeakTest, GraphBatchChaosLeavesGraphIntact) {
  using AdjRef = std::map<vertex_id, std::set<vertex_id>>;
  auto Check = [](const sym_graph &G, const AdjRef &Ref, const char *What) {
    ASSERT_EQ(G.check_invariants(), "") << What;
    size_t Edges = 0;
    for (const auto &[U, Ns] : Ref) {
      Edges += Ns.size();
      std::vector<vertex_id> Want(Ns.begin(), Ns.end());
      ASSERT_EQ(G.neighbors(U).to_vector(), Want) << What << ": vertex " << U;
    }
    ASSERT_EQ(G.num_edges(), Edges) << What;
  };
  constexpr int LogN = 9;
  auto Edges = rmat_graph(LogN, 6000);
  AdjRef Ref;
  for (auto [U, V] : Edges)
    Ref[U].insert(V);
  sym_graph G = sym_graph::from_edges(Edges, size_t{1} << LogN);
  fail::scoped_arm Arm("alloc.node", "p=3000/seed=23");
  fail::scoped_arm Seal("leaf.seal", "every=10");
  Rng R = test::seeded_rng(41);
  uint64_t Survived = 0, Died = 0;
  for (int Step = 0; Step < 40; ++Step) {
    bool IsDelete = Step % 2;
    std::vector<edge_pair> Batch;
    if (IsDelete) {
      // Half present edges, half random ones (mostly absent).
      for (size_t I = 0; I < 200; ++I) {
        const edge_pair &E = Edges[R.next(Edges.size())];
        Batch.push_back(E);
        Batch.push_back({static_cast<vertex_id>(R.next(1 << LogN)),
                         static_cast<vertex_id>(R.next(1 << LogN))});
      }
    } else {
      // rMAT edges plus a star of 150 at one low vertex: merging the star
      // into that vertex's edge set is wide enough to seal chunks.
      RmatParams P;
      P.Seed = R.next();
      Batch = rmat_edges(LogN, 400, P);
      vertex_id Hub = static_cast<vertex_id>(R.next(8));
      for (size_t I = 0; I < 150; ++I)
        Batch.push_back({Hub, static_cast<vertex_id>(R.next(1 << LogN))});
    }
    size_t N = Batch.size();
    for (size_t I = 0; I < N; ++I)
      Batch.push_back({Batch[I].second, Batch[I].first});
    try {
      sym_graph Next = IsDelete ? G.delete_edges(Batch) : G.insert_edges(Batch);
      for (auto [U, V] : Batch) {
        if (!IsDelete)
          Ref[U].insert(V);
        else if (auto It = Ref.find(U); It != Ref.end())
          It->second.erase(V);
      }
      G = std::move(Next);
      ++Survived;
      Check(G, Ref, "graph-chaos survivor");
    } catch (const std::bad_alloc &) {
      ++Died;
      Check(G, Ref, "graph after a failed batch");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  EXPECT_GT(Survived, 0u);
  EXPECT_GT(Died, 0u);
  EXPECT_GT(fail::fires("alloc.node"), 0u);
  EXPECT_GT(fail::fires("leaf.seal"), 0u)
      << "no edge-set merge wide enough to seal a chunk";
}

//===----------------------------------------------------------------------===//
// Serving chaos: the hardened failure paths under injected faults.
//===----------------------------------------------------------------------===//

using u64_set = pam_set<uint64_t>;
using u64_pipeline = serving::ingest_pipeline<u64_set, uint64_t>;

u64_pipeline::apply_fn unionApply() {
  return [](const u64_set &Cur, std::vector<uint64_t> Batch) {
    return u64_set::map_union(Cur, u64_set(Batch));
  };
}

/// "serving.queue_full" forces every submit flavor down its reject path
/// regardless of real queue depth, and Rejected counts each one.
TEST_F(ChaosLeakTest, QueueFullFailpointForcesRejection) {
  {
    serving::version_chain<u64_set> Chain(u64_set{});
    u64_pipeline Pipe(Chain, unionApply());
    {
      fail::scoped_arm Arm("serving.queue_full", "always");
      EXPECT_FALSE(Pipe.submit(1));
      EXPECT_FALSE(Pipe.try_submit(2));
      EXPECT_FALSE(Pipe.submit_for(3, std::chrono::milliseconds(50)));
      auto St = Pipe.stats();
      EXPECT_EQ(St.Rejected, 3u);
      EXPECT_EQ(St.Submitted, 0u);
    }
    // Disarmed: the same calls go through.
    EXPECT_TRUE(Pipe.submit(1));
    Pipe.flush();
    EXPECT_EQ(Chain.acquire().size(), 1u);
    Pipe.stop();
    Chain.reclaim();
  }
}

/// "serving.slow_apply" wedges the writer; an open-loop producer then
/// drives the queue into its overload policy, proving backpressure
/// engages (and releases) under a glacial apply.
TEST_F(ChaosLeakTest, SlowApplyEngagesBackpressure) {
  {
    fail::scoped_arm Arm("serving.slow_apply", "always/arg=50");
    serving::version_chain<u64_set> Chain(u64_set{});
    u64_pipeline::options O;
    O.QueueCapacity = 2;
    O.BatchWindow = 1;
    O.Policy = serving::overload_policy::RejectNewest;
    u64_pipeline Pipe(Chain, unionApply(), O);
    // Far more submits than capacity while each apply dwells 50ms: the
    // queue must fill and rejections must be counted.
    uint64_t Accepted = 0, Refused = 0;
    for (uint64_t I = 0; I < 64; ++I)
      (Pipe.submit(I) ? Accepted : Refused) += 1;
    auto St = Pipe.stats();
    EXPECT_GT(Refused, 0u) << "queue never filled under a wedged writer";
    EXPECT_EQ(St.Rejected, Refused);
    EXPECT_EQ(St.Submitted, Accepted);
    Pipe.flush();
    // Only after the drain is the writer guaranteed to have run (on a
    // one-core box it may not be scheduled until the submit loop ends).
    EXPECT_GT(fail::fires("serving.slow_apply"), 0u);
    EXPECT_EQ(Chain.acquire().size(), Accepted);
    Pipe.stop();
    Chain.reclaim();
  }
}

/// "serving.slow_reader" stretches the pinned window so the stall watchdog
/// sees a live stalled reader; the count drops back to zero once the
/// reader finishes.
TEST_F(ChaosLeakTest, SlowReaderTripsStallWatchdog) {
  {
    serving::version_chain<u64_set> Chain(
        u64_set::from_sorted(std::vector<uint64_t>{0, 1, 2}));
    fail::scoped_arm Arm("serving.slow_reader", "always/arg=200000");
    std::atomic<bool> ReaderDone{false};
    std::thread Reader([&] {
      u64_set S = Chain.acquire(); // Dwells 200ms inside the pin.
      EXPECT_EQ(S.size(), 3u);
      ReaderDone.store(true, std::memory_order_release);
    });
    // Poll with a 1ms threshold until the dwelling pin trips the watchdog.
    bool Tripped = false;
    while (!ReaderDone.load(std::memory_order_acquire)) {
      if (Chain.epochs().stalled_readers(1'000'000) >= 1) {
        Tripped = true;
        break;
      }
      std::this_thread::yield();
    }
    Reader.join();
    EXPECT_TRUE(Tripped) << "a 200ms pin never tripped a 1ms threshold";
    EXPECT_EQ(Chain.epochs().stalled_readers(1'000'000), 0u)
        << "watchdog still reports a stall after the reader unpinned";
    EXPECT_GE(fail::fires("serving.slow_reader"), 1u);
  }
}

} // namespace
