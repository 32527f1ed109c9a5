#include "ssd/hdd_device.h"

#include <algorithm>
#include <cassert>

namespace durassd {

HddDevice::HddDevice(Config config)
    : cfg_(std::move(config)), bus_(1), arm_(1) {
  torn_.assign(cfg_.num_sectors, false);
}

SimTime HddDevice::ServiceTime(uint32_t nsec, bool is_write,
                               uint32_t q) const {
  const double gain =
      is_write ? cfg_.write_elevator_gain : cfg_.read_elevator_gain;
  const uint32_t window =
      is_write ? cfg_.write_elevator_window : cfg_.read_elevator_window;
  const double factor =
      1.0 + gain * static_cast<double>(std::min(q, window)) / window;
  const double positioning = static_cast<double>(cfg_.avg_seek) +
                             static_cast<double>(cfg_.half_rotation);
  const double transfer = static_cast<double>(nsec) * cfg_.sector_size /
                          cfg_.transfer_bytes_per_ns;
  return static_cast<SimTime>(positioning / factor + transfer) +
         cfg_.fixed_overhead;
}

uint32_t HddDevice::QueueDepth(SimTime t) {
  while (!outstanding_.empty() && outstanding_.top() <= t) {
    outstanding_.pop();
  }
  return static_cast<uint32_t>(outstanding_.size()) + 1;
}

void HddDevice::CommitToMedia(Lpn lpn, Slice data) {
  if (!cfg_.store_data) return;
  const uint32_t nsec = static_cast<uint32_t>(data.size() / cfg_.sector_size);
  for (uint32_t i = 0; i < nsec; ++i) {
    media_[lpn + i].assign(
        data.data() + static_cast<size_t>(i) * cfg_.sector_size,
        cfg_.sector_size);
    torn_[lpn + i] = false;
  }
}

SimTime HddDevice::DestageToMedia(SimTime t, Lpn lpn, Slice data,
                                  SimTime* start_out) {
  const uint32_t nsec =
      std::max<uint32_t>(1, static_cast<uint32_t>(data.size() / cfg_.sector_size));
  const SimTime service = ServiceTime(nsec, /*is_write=*/true, QueueDepth(t));
  const ResourceTimeline::Grant g = arm_.Acquire(t, service);
  outstanding_.push(g.done);
  inflight_.push_back({lpn, nsec, g.start, g.done, data.ToString()});
  if (inflight_.size() > 2048) {
    std::erase_if(inflight_, [this](const InFlight& w) {
      return w.done <= max_time_seen_;
    });
  }
  CommitToMedia(lpn, data);
  *start_out = g.start;
  return g.done;
}

BlockDevice::Result HddDevice::Execute(SimTime t, const Command& cmd) {
  if (TripCutDueAt(t)) {
    return {Status::DeviceOffline("scheduled power cut"), scheduled_cut()};
  }
  Result r;
  switch (cmd.op) {
    case Command::Op::kWrite:
      r = DoWrite(t, cmd.lpn, cmd.data);
      break;
    case Command::Op::kRead:
      r = DoRead(t, cmd.lpn, cmd.nsec, cmd.out);
      break;
    case Command::Op::kFlush:
    case Command::Op::kBarrier:
      // No barrier support on disk: ordering requires the full drain.
      r = DoFlush(t);
      break;
  }
  // Causality guard: PowerCut's shear/clear rollback reverts the effects
  // the dispatch above already applied.
  if (r.status.ok() && TripCutBeforeCompletion(r.done)) {
    return {Status::DeviceOffline("scheduled power cut"), scheduled_cut()};
  }
  return r;
}

BlockDevice::Result HddDevice::DoWrite(SimTime now, Lpn lpn, Slice data) {
  if (!powered_) return {Status::DeviceOffline(), now};
  if (data.empty() || data.size() % cfg_.sector_size != 0) {
    return {Status::InvalidArgument("write size not sector-aligned"), now};
  }
  const uint32_t nsec = static_cast<uint32_t>(data.size() / cfg_.sector_size);
  if (lpn + nsec > cfg_.num_sectors) {
    return {Status::InvalidArgument("write beyond device capacity"), now};
  }
  max_time_seen_ = std::max(max_time_seen_, now);

  const SimTime bus_time =
      static_cast<SimTime>(data.size() / cfg_.bus_bytes_per_ns) +
      cfg_.bus_cmd_overhead;
  const ResourceTimeline::Grant bus = bus_.Acquire(now, bus_time);

  if (!cfg_.cache_enabled) {
    SimTime start = 0;
    const SimTime done = DestageToMedia(bus.done, lpn, data, &start);
    max_time_seen_ = std::max(max_time_seen_, done);
    return {Status::OK(), done};
  }

  // Track-cache path: ack once transferred; destage asynchronously. Frames
  // bound the dirty backlog.
  SimTime t = bus.done;
  while (!outstanding_.empty() && outstanding_.top() <= t) outstanding_.pop();
  while (outstanding_.size() + nsec > cfg_.write_cache_sectors &&
         !outstanding_.empty()) {
    t = std::max(t, outstanding_.top());
    outstanding_.pop();
  }
  const SimTime ack = t;
  SimTime start = 0;
  const SimTime media_done = DestageToMedia(ack, lpn, data, &start);
  if (cfg_.store_data) {
    for (uint32_t i = 0; i < nsec; ++i) {
      CachedWrite& cw = cache_[lpn + i];
      cw.data.assign(data.data() + static_cast<size_t>(i) * cfg_.sector_size,
                     cfg_.sector_size);
      cw.ack = ack;
      cw.media_start = start;
      cw.media_done = media_done;
    }
  }
  max_time_seen_ = std::max(max_time_seen_, ack);
  return {Status::OK(), ack};
}

BlockDevice::Result HddDevice::DoRead(SimTime now, Lpn lpn, uint32_t nsec,
                                      std::string* out) {
  if (!powered_) return {Status::DeviceOffline(), now};
  if (nsec == 0 || lpn + nsec > cfg_.num_sectors) {
    return {Status::InvalidArgument("read beyond device capacity"), now};
  }
  max_time_seen_ = std::max(max_time_seen_, now);

  const SimTime service = ServiceTime(nsec, /*is_write=*/false,
                                      QueueDepth(now));
  const ResourceTimeline::Grant g = arm_.Acquire(now, service);
  outstanding_.push(g.done);
  const SimTime bus_time =
      static_cast<SimTime>(static_cast<double>(nsec) * cfg_.sector_size /
                           cfg_.bus_bytes_per_ns) +
      cfg_.bus_cmd_overhead;
  const ResourceTimeline::Grant bus = bus_.Acquire(g.done, bus_time);

  if (out != nullptr) {
    out->clear();
    for (uint32_t i = 0; i < nsec; ++i) {
      auto cit = cache_.find(lpn + i);
      if (cit != cache_.end()) {
        out->append(cit->second.data);
        continue;
      }
      auto mit = media_.find(lpn + i);
      if (mit != media_.end()) {
        out->append(mit->second);
      } else {
        out->append(cfg_.sector_size, '\0');
      }
    }
  }
  max_time_seen_ = std::max(max_time_seen_, bus.done);
  return {Status::OK(), bus.done};
}

BlockDevice::Result HddDevice::DoFlush(SimTime now) {
  if (!powered_) return {Status::DeviceOffline(), now};
  max_time_seen_ = std::max(max_time_seen_, now);
  // Flushes serialize in the drive's firmware.
  const SimTime start = std::max(now, last_flush_done_);
  SimTime done = start + cfg_.bus_cmd_overhead;
  while (!outstanding_.empty()) {
    done = std::max(done, outstanding_.top());
    outstanding_.pop();
  }
  last_flush_done_ = done;
  if (done > start) {
    (void)bus_.Acquire(start, done - start);  // Flush stalls the link.
  }
  max_time_seen_ = std::max(max_time_seen_, done);
  return {Status::OK(), done};
}

void HddDevice::PowerCut(SimTime t) {
  CancelScheduledPowerCut();
  if (!powered_) return;
  powered_ = false;

  // Writes whose media pass had not finished: roll back or shear.
  for (const InFlight& w : inflight_) {
    if (w.done <= t) continue;
    if (!cfg_.store_data) continue;
    // The media pass had not finished: the command is sheared. First half
    // of the leading sector made it; the rest of the command did not.
    // (Commands that had not even started are treated the same —
    // deliberately pessimistic for a volatile in-place device.)
    for (uint32_t i = 0; i < w.nsec; ++i) {
      auto mit = media_.find(w.lpn + i);
      if (mit == media_.end()) continue;
      std::string& bytes = mit->second;
      if (i == 0) {
        for (size_t b = bytes.size() / 2; b < bytes.size(); ++b) {
          bytes[b] = '\0';
        }
      } else {
        // Later sectors of the command had not been written at all; they
        // read back as stale/empty.
        bytes.assign(cfg_.sector_size, '\0');
      }
      torn_[w.lpn + i] = true;
    }
  }
  inflight_.clear();

  // Unflushed cache contents are gone; anything only in the track cache
  // (media write incomplete) was handled above.
  cache_.clear();
  while (!outstanding_.empty()) outstanding_.pop();
  bus_.Reset();
  arm_.Reset();
  max_time_seen_ = 0;
  last_flush_done_ = 0;  // The clock restarts at zero after PowerOn.
  AbortInFlight(t);
}

SimTime HddDevice::PowerOn() {
  if (powered_) return 0;
  powered_ = true;
  return 2 * kMillisecond;  // Spin-up is seconds on real disks; irrelevant.
}

}  // namespace durassd
