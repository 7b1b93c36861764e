//===- main.cpp - perfbench entry point ------------------------------------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for a fixed time and writes its raw result document:
//
//   perfbench --workload set_algebra|range_query|graph_stream --seed N
//             --seconds S --trace 0|1 --out result.json
//             [--trace-out trace.json]
//
// The scheduler runs min(4, hardware threads) workers.
//
// perfbench/run.py builds this binary and is the benchmark's front door.
//
//===----------------------------------------------------------------------===//

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/trace.h"
#include "src/core/allocator.h"
#include "src/parallel/scheduler.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr, "perfbench: %s\n", Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  options Opt;
  for (int I = 1; I + 1 < argc; I += 2) {
    const char *Flag = argv[I];
    const char *Val = argv[I + 1];
    if (!std::strcmp(Flag, "--workload"))
      Opt.Workload = Val;
    else if (!std::strcmp(Flag, "--seed"))
      Opt.Seed = std::strtoull(Val, nullptr, 10);
    else if (!std::strcmp(Flag, "--seconds"))
      Opt.Seconds = std::strtod(Val, nullptr);
    else if (!std::strcmp(Flag, "--trace"))
      Opt.Trace = std::atoi(Val) != 0;
    else if (!std::strcmp(Flag, "--out"))
      Opt.Out = Val;
    else if (!std::strcmp(Flag, "--trace-out"))
      Opt.TraceOut = Val;
    else
      return usage("unknown flag");
  }
  if (Opt.Out.empty() || Opt.Seconds <= 0)
    return usage("need --out and --seconds > 0");

  int (*Run)(const options &, result &) = nullptr;
  if (Opt.Workload == "set_algebra")
    Run = run_set_algebra;
  else if (Opt.Workload == "range_query")
    Run = run_range_query;
  else if (Opt.Workload == "graph_stream")
    Run = run_graph_stream;
  else
    return usage("unknown --workload");

  // The pool reads its size once, when the main thread first touches it.
  unsigned Workers =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  setenv("CPAM_NUM_THREADS", std::to_string(Workers).c_str(), 1);
  result Res;
  Res.config("seed", static_cast<double>(Opt.Seed));
  Res.config("seconds", Opt.Seconds);
  Res.config("trace", Opt.Trace);
  Res.config("workers", cpam::par::num_workers());
  Res.config("hardware_threads", std::thread::hardware_concurrency());
  Res.config("l3_bytes", static_cast<double>(l3_bytes()));
  Res.config("pool_alloc", cpam::pool_enabled());
  Res.config_str("workload", Opt.Workload);
  Res.config_str("build_type", PERFBENCH_BUILD_TYPE);

  int Rc = Run(Opt, Res);
  if (Rc != 0)
    return Rc;
  if (!Res.write(Opt.Out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Opt.Out.c_str());
    return 1;
  }
  if (Opt.Trace && !Opt.TraceOut.empty() &&
      !trace::write_perfetto(Opt.TraceOut)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 Opt.TraceOut.c_str());
    return 1;
  }
  return 0;
}
