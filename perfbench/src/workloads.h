#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

/// Everything one repetition measured: set-up, the measured phase, the
/// end-of-run power cut with recovery, and the verification after it.
/// Every field except the host-time ones and the spans is a pure function
/// of (workload, seed).
struct RepResult {
  // Host time.
  double setup_s = 0;
  double measure_s = 0;
  double recover_s = 0;

  // Measured phase.
  uint64_t attempted = 0;
  uint64_t failed = 0;       ///< Ops whose engine/device call failed.
  uint64_t wrong_reads = 0;  ///< Reads that disagreed with the shadow model.
  SimTime makespan = 0;      ///< Virtual duration of the measured phase.
  std::vector<SimTime> read_ns;   ///< Virtual latency of each read op.
  std::vector<SimTime> write_ns;  ///< Virtual latency of each write op.
  uint64_t user_bytes = 0;   ///< Logical bytes of acknowledged writes.
  uint64_t nand_bytes = 0;   ///< NAND bytes programmed on every device.

  // Recovery.
  SimTime sim_recover_ns = 0;  ///< Virtual power-on + engine reopen time.
  uint64_t lost_writes = 0;    ///< Acknowledged writes missing afterwards.

  /// Per-layer values from the layers' own stats accessors (deltas over
  /// the measured phase; dump/replay counts over the recovery), by name.
  std::map<std::string, double> layer;
  /// Workload self-checks that failed (empty when the workload still
  /// exercises the layers it was chosen for).
  std::vector<std::string> check_failures;
  /// Workload sizes and settings, recorded with the output.
  std::map<std::string, double> sizes;

  // Traced repetitions only.
  SpanAggs setup_spans;
  SpanAggs run_spans;
  SpanAggs recover_spans;
};

/// True for a workload this benchmark defines.
bool IsWorkload(const std::string& name);

/// Runs one repetition of `workload`. With `traced`, g_spans must point at
/// a recorder and every device is wrapped in a TracedDevice.
RepResult RunRep(const std::string& workload, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
