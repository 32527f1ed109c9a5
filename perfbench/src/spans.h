#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span recorder for the traced benchmark run. Spans are opened
// and closed by the benchmark's own code around every call into a layer
// (scheduler run, op, engine call, device command, setup and recovery
// phases); nesting follows the call stack, so a layer's self time is its
// span minus the spans of the calls it made. Recording never touches the
// simulation: it reads the host clock and the virtual times the caller
// already has.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "db/io_context.h"

namespace perfbench {

using durassd::SimTime;

enum class SpanKind : uint8_t {
  kSimRun,
  kOp,
  kDbBegin,
  kDbGet,
  kDbPut,
  kDbDelete,
  kDbScan,
  kDbCount,
  kDbCommit,
  kKvGet,
  kKvPut,
  kKvCommit,
  kDevWrite,
  kDevRead,
  kDevFlush,
  kDevBarrier,
  kSetupDeviceCtor,
  kSetupEngineOpen,
  kSetupLoad,
  kRecoverPowerCut,
  kRecoverPowerOn,
  kRecoverEngineOpen,
  kNumKinds,
};

constexpr size_t kNumSpanKinds = static_cast<size_t>(SpanKind::kNumKinds);

/// Dotted layer name of a span kind ("db.get", "host.dev.write", ...).
const char* SpanName(SpanKind kind);

/// Per-kind totals over the spans closed since the last TakeAggregates().
struct SpanAgg {
  uint64_t calls = 0;
  int64_t self_ns = 0;       ///< Host time minus child spans.
  int64_t total_ns = 0;      ///< Host time including child spans.
  uint64_t sectors = 0;      ///< Device spans: sectors moved.
  std::vector<SimTime> sim_ns;  ///< Virtual duration of every span.
};
using SpanAggs = std::array<SpanAgg, kNumSpanKinds>;

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span nested in the innermost open one; `vt` is its virtual
  /// issue time.
  void Begin(SpanKind kind, SimTime vt);
  /// Closes the innermost open span at virtual time `vt_done`.
  void End(SimTime vt_done, uint64_t sectors = 0);

  /// Op id stamped on spans opened from now on (0 = outside any op).
  void set_op(uint64_t op) { op_ = op; }
  /// With false, only top-level spans are kept for the trace file; nested
  /// ones are still aggregated.
  void set_keep_nested(bool keep) { keep_nested_ = keep; }

  /// Returns the aggregates and starts new ones; call with no span open.
  SpanAggs TakeAggregates();

  size_t stored_spans() const { return spans_.size(); }
  size_t dropped_spans() const { return dropped_; }

  /// Writes every stored span as Chrome trace-event JSON (opens in
  /// Perfetto and chrome://tracing). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Frame {
    SpanKind kind;
    int64_t start_ns;
    SimTime vt_issue;
    int64_t child_ns;
    int32_t stored;  ///< Index into spans_, or -1.
  };
  struct Span {
    SpanKind kind;
    int32_t parent;  ///< Index into spans_, or -1.
    uint64_t op;
    int64_t start_ns;
    int64_t end_ns;
    SimTime vt_issue;
    SimTime vt_done;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  SpanAggs agg_;
  uint64_t op_ = 0;
  bool keep_nested_ = true;
  size_t dropped_ = 0;
};

/// The recorder of the traced run; null in untraced runs, where every
/// span site below costs one branch.
extern SpanRecorder* g_spans;

/// Span over an engine call: virtual issue and done times come from the
/// caller's IoContext at open and close.
class ScopedSpan {
 public:
  ScopedSpan(SpanKind kind, const durassd::IoContext& io) : io_(io) {
    if (g_spans != nullptr) g_spans->Begin(kind, io.now);
  }
  ~ScopedSpan() {
    if (g_spans != nullptr) g_spans->End(io_.now);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const durassd::IoContext& io_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
