//===- trace.cpp - Layer spans recorded around the benchmark's calls -------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/trace.h"

#include <cstdio>
#include <mutex>

#include "perfbench/src/common.h"

namespace perfbench {

const char *layer_name(layer L) {
  static const char *const Names[kNumLayers] = {
      "bench", "api",      "core",    "encoding",
      "alloc", "parallel", "serving", "graph"};
  return Names[static_cast<size_t>(L)];
}

namespace {

/// Events kept per thread for the Perfetto file.
constexpr size_t kLaneEventCap = size_t(1) << 13;

struct event {
  const char *Name;
  layer Layer;
  uint64_t Id, Parent, T0, Dur;
};

struct frame {
  uint64_t Id;
  uint64_t Parent;
  const char *Name;
  layer Layer;
  uint64_t T0;
  uint64_t ChildNs;
};

/// One thread's spans. Lanes are registered once and never freed, so the
/// writer can read them after their threads have exited. The owning
/// thread appends under Mu; readers take the same mutex.
struct lane {
  std::mutex Mu;
  int Tid = 0;
  std::vector<frame> Stack;
  std::vector<event> Events;
  uint64_t Dropped = 0;
  std::array<uint64_t, kNumLayers> SelfNs{};
};

struct registry_t {
  std::mutex Mu;
  std::vector<lane *> Lanes;
  std::atomic<uint64_t> NextId{1};
};

registry_t &registry() {
  static registry_t *R = new registry_t;
  return *R;
}

lane &my_lane() {
  thread_local lane *L = [] {
    lane *N = new lane;
    registry_t &R = registry();
    std::lock_guard<std::mutex> G(R.Mu);
    N->Tid = static_cast<int>(R.Lanes.size());
    R.Lanes.push_back(N);
    return N;
  }();
  return *L;
}

std::vector<lane *> all_lanes() {
  registry_t &R = registry();
  std::lock_guard<std::mutex> G(R.Mu);
  return R.Lanes;
}

} // namespace

namespace trace {

std::atomic<bool> &enabled_flag() {
  static std::atomic<bool> On{false};
  return On;
}

std::array<uint64_t, kNumLayers> self_ns() {
  std::array<uint64_t, kNumLayers> Sum{};
  for (lane *L : all_lanes()) {
    std::lock_guard<std::mutex> G(L->Mu);
    for (size_t I = 0; I < kNumLayers; ++I)
      Sum[I] += L->SelfNs[I];
  }
  return Sum;
}

bool write_perfetto(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
                  "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
                  "\"tid\": 0, \"args\": {\"name\": \"perfbench\"}}");
  uint64_t Dropped = 0;
  for (lane *L : all_lanes()) {
    std::lock_guard<std::mutex> G(L->Mu);
    Dropped += L->Dropped;
    std::fprintf(F,
                 ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, "
                 "\"tid\": %d, \"args\": {\"name\": \"lane %d\"}}",
                 L->Tid, L->Tid);
    for (const event &E : L->Events)
      std::fprintf(F,
                   ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 0, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                   E.Name, layer_name(E.Layer), L->Tid, E.T0 / 1e3,
                   E.Dur / 1e3, static_cast<unsigned long long>(E.Id),
                   static_cast<unsigned long long>(E.Parent));
  }
  std::fprintf(F, "\n], \"otherData\": {\"dropped_events\": %llu}}\n",
               static_cast<unsigned long long>(Dropped));
  return std::fclose(F) == 0;
}

} // namespace trace

span::span(layer L, const char *Name, uint64_t Parent) {
  if (!trace::enabled())
    return;
  lane &Ln = my_lane();
  Id = registry().NextId.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> G(Ln.Mu);
  if (!Parent && !Ln.Stack.empty())
    Parent = Ln.Stack.back().Id;
  Ln.Stack.push_back(frame{Id, Parent, Name, L, now_ns(), 0});
}

span::~span() {
  if (!Id)
    return;
  uint64_t T1 = now_ns();
  lane &Ln = my_lane();
  std::lock_guard<std::mutex> G(Ln.Mu);
  frame F = Ln.Stack.back();
  Ln.Stack.pop_back();
  uint64_t Dur = T1 - F.T0;
  Ln.SelfNs[static_cast<size_t>(F.Layer)] +=
      Dur > F.ChildNs ? Dur - F.ChildNs : 0;
  if (!Ln.Stack.empty())
    Ln.Stack.back().ChildNs += Dur;
  if (Ln.Events.size() < kLaneEventCap)
    Ln.Events.push_back(event{F.Name, F.Layer, F.Id, F.Parent, F.T0, Dur});
  else
    ++Ln.Dropped;
}

} // namespace perfbench
