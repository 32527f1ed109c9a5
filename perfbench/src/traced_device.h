#ifndef PERFBENCH_TRACED_DEVICE_H_
#define PERFBENCH_TRACED_DEVICE_H_

// Forwarding BlockDevice placed between SimFileSystem and SsdDevice in the
// traced run, the same way ArrayDevice forwards to its members: every
// command is submitted to the inner device at the time it reached this
// one and awaited there, so the inner device sees the identical command
// stream and the simulation is unchanged. Each command becomes a
// host.dev.* span whose self time is the wall time spent in the device.

#include "host/block_device.h"
#include "spans.h"
#include "ssd/ssd_device.h"

namespace perfbench {

class TracedDevice : public durassd::BlockDevice {
 public:
  explicit TracedDevice(durassd::SsdDevice* inner) : inner_(inner) {}

  uint32_t sector_size() const override { return inner_->sector_size(); }
  uint64_t num_sectors() const override { return inner_->num_sectors(); }
  void PowerCut(SimTime t) override {
    inner_->PowerCut(t);
    AbortInFlight(t);
  }
  SimTime PowerOn() override { return inner_->PowerOn(); }
  bool supports_atomic_write() const override {
    return inner_->supports_atomic_write();
  }
  bool has_durable_cache() const override {
    return inner_->has_durable_cache();
  }
  bool ordered_writes() const override { return inner_->ordered_writes(); }
  bool supports_barrier() const override {
    return inner_->supports_barrier();
  }

 protected:
  Result Execute(SimTime t, const Command& cmd) override {
    SpanKind kind = SpanKind::kDevFlush;
    uint64_t sectors = 0;
    switch (cmd.op) {
      case Command::Op::kWrite:
        kind = SpanKind::kDevWrite;
        sectors = cmd.data.size() / inner_->sector_size();
        break;
      case Command::Op::kRead:
        kind = SpanKind::kDevRead;
        sectors = cmd.nsec;
        break;
      case Command::Op::kFlush:
        break;
      case Command::Op::kBarrier:
        kind = SpanKind::kDevBarrier;
        break;
    }
    g_spans->Begin(kind, t);
    const Completion c = inner_->Await(inner_->Submit(t, cmd));
    g_spans->End(c.done, sectors);
    return {c.status, c.done};
  }

 private:
  durassd::SsdDevice* inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_DEVICE_H_
