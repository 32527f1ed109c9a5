#include "host/block_device.h"

#include <algorithm>

namespace durassd {

CmdId BlockDevice::Submit(SimTime now, const Command& cmd,
                          SimTime* submit_time) {
  SimTime t = now;
  while (!inflight_done_.empty() && inflight_done_.top() <= t) {
    inflight_done_.pop();
  }
  if (qd_limit_ > 0) {
    while (inflight_done_.size() >= qd_limit_) {
      const SimTime freed = inflight_done_.top();
      inflight_done_.pop();
      if (freed > t) {
        submit_stalls_++;
        submit_stall_time_ += freed - t;
        t = freed;
      }
    }
  }
  if (h_qd_ != nullptr) {
    h_qd_->Record(static_cast<int64_t>(inflight_done_.size()) + 1);
  }
  const Result r = Execute(t, cmd);
  const CmdId id = next_cmd_id_++;
  inflight_done_.push(r.done);
  pending_.push_back(Completion{id, r.status, t, r.done});
  if (submit_time != nullptr) *submit_time = t;
  return id;
}

std::vector<BlockDevice::Completion> BlockDevice::Poll(SimTime now) {
  std::vector<Completion> out;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->done <= now) {
      out.push_back(std::move(*it));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Completion& a, const Completion& b) {
                     return a.done < b.done;
                   });
  return out;
}

BlockDevice::Completion BlockDevice::Await(CmdId id) {
  // Callers typically await the most recent submission; search from the back.
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    if (it->id == id) {
      Completion c = std::move(*it);
      pending_.erase(std::next(it).base());
      return c;
    }
  }
  Completion missing;
  missing.id = id;
  missing.status = Status::InvalidArgument("unknown or consumed command id");
  return missing;
}

const BlockDevice::Completion* BlockDevice::Find(CmdId id) const {
  for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
    if (it->id == id) return &*it;
  }
  return nullptr;
}

SimTime BlockDevice::EarliestPendingDone() const {
  SimTime earliest = kMaxSimTime;
  for (const Completion& c : pending_) {
    earliest = std::min(earliest, c.done);
  }
  return earliest;
}

void BlockDevice::AbortInFlight(SimTime t) {
  for (Completion& c : pending_) {
    if (c.done > t) {
      c.status = Status::DeviceOffline();
      c.done = t;
    }
  }
  while (!inflight_done_.empty()) inflight_done_.pop();
}

bool BlockDevice::TripScheduledCut() {
  cut_armed_ = false;
  ++scheduled_cuts_tripped_;
  PowerCut(scheduled_cut_);
  return true;
}

BlockDevice::Result BlockDevice::Write(SimTime now, Lpn lpn, Slice data) {
  const CmdId id = Submit(now, Command::MakeWrite(lpn, data));
  const Completion c = Await(id);
  return {c.status, c.done};
}

BlockDevice::Result BlockDevice::Read(SimTime now, Lpn lpn, uint32_t nsec,
                                      std::string* out) {
  const CmdId id = Submit(now, Command::MakeRead(lpn, nsec, out));
  const Completion c = Await(id);
  return {c.status, c.done};
}

BlockDevice::Result BlockDevice::Flush(SimTime now) {
  const CmdId id = Submit(now, Command::MakeFlush());
  const Completion c = Await(id);
  return {c.status, c.done};
}

BlockDevice::Result BlockDevice::Barrier(SimTime now) {
  const CmdId id = Submit(now, Command::MakeBarrier());
  const Completion c = Await(id);
  return {c.status, c.done};
}

}  // namespace durassd
