//===- trace.h - Layer spans recorded around the benchmark's calls ---------===//
//
// Part of the CPAM reproduction of PaC-trees (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around each call it makes into one of the
/// library's layers (src/api, core, encoding, alloc, parallel, serving,
/// graph) plus its own `bench` rounds. A span is a no-op unless tracing is
/// on, which only traced rounds of a `--trace 1` run switch on.
///
/// Self time: each thread keeps a stack of open spans; a closing span adds
/// its duration minus that of its same-thread children to its layer's
/// total. Totals are exact for every span; the event list kept for the
/// Perfetto file is capped per thread (kLaneEventCap), so a long run keeps
/// its first events and counts the rest as dropped.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class layer : uint8_t {
  bench,
  api,
  core,
  encoding,
  alloc,
  parallel,
  serving,
  graph,
  count
};
inline constexpr size_t kNumLayers = static_cast<size_t>(layer::count);

const char *layer_name(layer L);

namespace trace {

/// True while spans record. Relaxed: a span straddling a toggle is either
/// recorded whole or not at all, never half-timed.
std::atomic<bool> &enabled_flag();
inline bool enabled() {
  return enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool On) {
  enabled_flag().store(On, std::memory_order_relaxed);
}

/// Sum of self time per layer over every thread, in nanoseconds.
std::array<uint64_t, kNumLayers> self_ns();

/// Writes every kept event as Chrome trace-event JSON (Perfetto loads it).
/// Returns false if \p Path cannot be opened.
bool write_perfetto(const std::string &Path);

} // namespace trace

/// RAII span: [construction, destruction) on the calling thread, charged
/// to \p L. \p Name must be a string literal. \p Parent links a span to
/// one opened on another thread (0: the enclosing span on this thread).
class span {
public:
  span(layer L, const char *Name, uint64_t Parent = 0);
  ~span();
  span(const span &) = delete;
  span &operator=(const span &) = delete;

  /// Identifier of this span (0 when tracing was off at construction).
  uint64_t id() const { return Id; }

private:
  uint64_t Id = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
