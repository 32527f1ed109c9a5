#ifndef DURASSD_HOST_BLOCK_DEVICE_H_
#define DURASSD_HOST_BLOCK_DEVICE_H_

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace durassd {

/// Host-visible block storage interface. Sector addressing is in logical
/// pages of `sector_size()` bytes (4KB by default — the paper's recommended
/// unit of I/O). All calls carry the caller's virtual issue time and report
/// the virtual completion time, so N logical clients can share one device
/// and contend realistically.
///
/// Two ways to drive the device:
///  - Synchronous `Write`/`Read`/`Flush`: issue one command and wait for it.
///    These are thin wrappers over the asynchronous path below and behave
///    exactly as they always have.
///  - Asynchronous `Submit` + `Poll`/`Await`: keep many commands in flight
///    so the device can overlap bus transfer, firmware processing, and NAND
///    programs across channels — the queue-depth behaviour the paper's
///    throughput claims depend on (Sec. 3.3). A per-device queue-depth
///    limit (`set_queue_depth_limit`) models the host's submission window:
///    when the limit is reached, Submit stalls (in virtual time) until a
///    slot frees.
///
/// In the simulator every command's effects and completion time are computed
/// at submission (virtual time makes this sound); the completion only
/// becomes *observable* through Poll once its `done` instant is reached, or
/// through Await, which waits for it.
///
/// Threading (DESIGN.md §13): a device belongs to one simulation stack and
/// is driven by that stack's single thread, so it takes no latch. A power
/// cut that trips inside Execute re-enters AbortInFlight on that thread.
class BlockDevice {
 public:
  struct Result {
    Status status;
    SimTime done = 0;  ///< Virtual completion time of the command.
  };

  /// One queued command. `data` (writes) must stay alive for the duration
  /// of the Submit call; `out` (reads) must stay alive until the command's
  /// completion is consumed.
  struct Command {
    enum class Op : uint8_t { kWrite, kRead, kFlush, kBarrier };
    Op op = Op::kFlush;
    Lpn lpn = 0;
    uint32_t nsec = 0;          ///< Sector count (reads).
    Slice data;                 ///< Payload (writes).
    std::string* out = nullptr; ///< Destination (reads); may be null.

    static Command MakeWrite(Lpn lpn, Slice data) {
      Command c;
      c.op = Op::kWrite;
      c.lpn = lpn;
      c.data = data;
      return c;
    }
    static Command MakeRead(Lpn lpn, uint32_t nsec, std::string* out) {
      Command c;
      c.op = Op::kRead;
      c.lpn = lpn;
      c.nsec = nsec;
      c.out = out;
      return c;
    }
    static Command MakeFlush() { return Command{}; }
    static Command MakeBarrier() {
      Command c;
      c.op = Op::kBarrier;
      return c;
    }
  };

  struct Completion {
    CmdId id = kInvalidCmdId;
    Status status;
    SimTime submit = 0;  ///< Service entry time (>= issue time if stalled).
    SimTime done = 0;    ///< Virtual completion time.
  };

  virtual ~BlockDevice() = default;

  virtual uint32_t sector_size() const = 0;
  virtual uint64_t num_sectors() const = 0;

  // --- Asynchronous submit/complete path ---

  /// Submits `cmd` at virtual time `now`. If the number of commands in
  /// flight has reached `queue_depth_limit()`, submission itself blocks in
  /// virtual time until a slot frees; `*submit_time` (when non-null)
  /// receives the actual service entry time. Returns the command id.
  CmdId Submit(SimTime now, const Command& cmd, SimTime* submit_time = nullptr);

  /// Removes and returns all completions with done <= now, ordered by
  /// completion time (ties broken by submission order).
  std::vector<Completion> Poll(SimTime now);

  /// Waits (in virtual time) for command `id` and consumes its completion.
  Completion Await(CmdId id);

  /// Peeks at an unconsumed completion record; null if `id` is unknown or
  /// already consumed. A power cut rewrites in-flight records in place
  /// (status becomes DeviceOffline), so peeked times stay truthful.
  const Completion* Find(CmdId id) const;

  /// Earliest completion time among unconsumed completions, or kMaxSimTime.
  SimTime EarliestPendingDone() const;

  size_t pending_completions() const {
    return pending_.size();
  }

  /// Host submission-window size. 0 (the default) means unlimited, which
  /// preserves the behaviour of purely synchronous callers exactly.
  void set_queue_depth_limit(uint32_t depth) {
    qd_limit_ = depth;
  }
  uint32_t queue_depth_limit() const { return qd_limit_; }

  /// Submissions that stalled on the queue-depth limit, and the total
  /// virtual time spent stalled.
  uint64_t submit_stalls() const { return submit_stalls_; }
  SimTime submit_stall_time() const { return submit_stall_time_; }

  // --- Synchronous wrappers (Submit + Await) ---

  /// Writes `data` (a multiple of sector_size) starting at `lpn`. With a
  /// durable cache the command is atomic and durable once acknowledged
  /// (Sec. 3.2); on volatile devices it is neither until a Flush.
  Result Write(SimTime now, Lpn lpn, Slice data);

  /// Reads `nsec` sectors into `out` (may be nullptr for timing-only runs);
  /// `out` is resized to nsec * sector_size. Never-written sectors read as
  /// zeros.
  Result Read(SimTime now, Lpn lpn, uint32_t nsec, std::string* out);

  /// FLUSH CACHE: returns once all previously acknowledged writes are on
  /// stable media (and device metadata is persisted). Generated by fsync
  /// when write barriers are enabled (Fig. 2).
  Result Flush(SimTime now);

  /// BARRIER: seals the current write epoch (Won et al., "Barrier Enabled
  /// IO Stack"). The device guarantees that after a power cut the surviving
  /// writes form an epoch-consistent cut — every write of a surviving epoch's
  /// predecessors survives too. Unlike Flush this neither drains the cache
  /// nor waits on media; it is an ordering point, not a durability point.
  /// Only meaningful when supports_barrier(); other devices treat it as
  /// Flush (see each Execute).
  Result Barrier(SimTime now);

  /// Simulated power failure at virtual time `t`. Volatile caches lose
  /// unflushed data; an in-flight media write leaves a torn sector; DuraSSD
  /// dumps its durable cache to the dump area on capacitor power.
  virtual void PowerCut(SimTime t) = 0;

  /// Re-powers the device, running its recovery (Sec. 3.4.2). Returns the
  /// virtual recovery duration. The device clock restarts at zero.
  virtual SimTime PowerOn() = 0;

  /// True when an acknowledged write can never be observed torn.
  virtual bool supports_atomic_write() const = 0;
  /// True when acknowledged writes survive power failure without Flush.
  virtual bool has_durable_cache() const = 0;
  /// True when submission order is a durability-order guarantee: after a
  /// power cut, the surviving write stream is a prefix of the submitted
  /// write stream (the paper's ordered NCQ, Sec. 3.3). Implies
  /// has_durable_cache() in practice — ordering without durability of the
  /// acknowledged prefix would guarantee nothing.
  virtual bool ordered_writes() const { return false; }
  /// True when the device implements the BARRIER command natively: epochs
  /// sealed by Barrier() persist in order across power cuts. File systems
  /// fall back to a full fsync on devices without it.
  virtual bool supports_barrier() const { return false; }

  virtual uint64_t capacity_bytes() const {
    return num_sectors() * sector_size();
  }

  /// False between PowerCut and PowerOn.
  virtual bool powered() const { return true; }
  /// True while the device runs degraded: an SSD (or a tier's flash) in
  /// sticky read-only mode, or a mirror that lost a member.
  virtual bool degraded() const { return false; }

  /// Arms a power cut at virtual time `t`: the first command issued at
  /// now >= t — or whose completion would land past t — first executes
  /// PowerCut(t) and then fails with DeviceOffline instead of being
  /// acknowledged. This is how the crash harness cuts power mid-engine-call
  /// (including mid-recovery): the cut takes effect *inside* the engine's
  /// sequence of device operations rather than between host-visible steps.
  /// One-shot; a manual PowerCut() disarms it. A composed device (array,
  /// tier) guards its own commands and cascades PowerCut to its members,
  /// which are not armed themselves.
  void SchedulePowerCut(SimTime t) {
    scheduled_cut_ = t;
    cut_armed_ = true;
  }
  void CancelScheduledPowerCut() { cut_armed_ = false; }
  bool scheduled_cut_armed() const { return cut_armed_; }
  /// Armed cuts that have fired.
  uint64_t scheduled_cuts_tripped() const { return scheduled_cuts_tripped_; }

 protected:
  /// Due at issue: fires an armed cut whose instant has arrived by `now`.
  /// Returns true when it tripped (the caller must fail with DeviceOffline).
  bool TripCutDueAt(SimTime now) {
    return cut_armed_ && now >= scheduled_cut_ && TripScheduledCut();
  }
  /// Causality guard: a command that would only COMPLETE after the armed
  /// instant must not be acknowledged — the power died mid-command. Fires
  /// the cut (PowerCut's rollback reverts the effects the command already
  /// applied with post-cut timestamps) and returns true, in which case the
  /// caller must fail with DeviceOffline. Without this, a flush spanning
  /// the cut instant would be acknowledged and then silently undone.
  bool TripCutBeforeCompletion(SimTime done) {
    return cut_armed_ && done > scheduled_cut_ && TripScheduledCut();
  }
  /// The armed (or last fired) cut instant.
  SimTime scheduled_cut() const { return scheduled_cut_; }

  /// Executes one command at time `t` (which already reflects any
  /// submission stall) and returns its status + completion time. Implemented
  /// by each device; this is where all timing and state modelling lives.
  virtual Result Execute(SimTime t, const Command& cmd) = 0;

  /// Devices call this from PowerCut(t): unconsumed completions with
  /// done > t are rewritten to fail with DeviceOffline at the cut instant,
  /// and the in-flight accounting window is cleared — power loss kills the
  /// queue.
  void AbortInFlight(SimTime t);

  /// Optional histogram receiving the in-flight command count observed at
  /// each submission (the `ssd.qd` metric).
  void set_qd_histogram(Histogram* h) { h_qd_ = h; }

 private:
  uint32_t qd_limit_ = 0;  ///< 0 = unlimited.
  CmdId next_cmd_id_ = 1;
  /// Completion times of in-flight commands (queue-depth accounting only;
  /// records are independent of the pending_ list so consuming a completion
  /// early does not free its queue slot before its completion time).
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      inflight_done_;
  /// Unconsumed completion records, in submission order.
  std::vector<Completion> pending_;
  uint64_t submit_stalls_ = 0;
  SimTime submit_stall_time_ = 0;
  Histogram* h_qd_ = nullptr;
  bool cut_armed_ = false;
  SimTime scheduled_cut_ = 0;
  uint64_t scheduled_cuts_tripped_ = 0;

  /// Disarms, counts the trip and runs PowerCut(scheduled_cut_).
  bool TripScheduledCut();
};

}  // namespace durassd

#endif  // DURASSD_HOST_BLOCK_DEVICE_H_
