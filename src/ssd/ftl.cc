#include "ssd/ftl.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace durassd {

namespace {
/// A host program first runs GC on its plane once the plane's free-block
/// list is down to this many blocks.
constexpr size_t kGcFreeBlockThreshold = 2;
}  // namespace

Ftl::Ftl(FlashArray* flash, Options options)
    : flash_(flash), opts_(options) {
  if (opts_.metrics != nullptr) {
    h_program_ns_ = opts_.metrics->GetHistogram("ftl.program_ns");
    h_gc_relocation_ns_ = opts_.metrics->GetHistogram("ftl.gc_relocation_ns");
    c_ecc_retries_ = opts_.metrics->Counter("ftl.ecc_retries");
    c_gc_runs_ = opts_.metrics->Counter("ftl.gc_runs");
    c_degraded_entries_ = opts_.metrics->Counter("ftl.degraded_entries");
  }
  const FlashGeometry& g = flash_->geometry();
  assert(g.page_size % opts_.sector_size == 0);
  sectors_per_page_ = g.page_size / opts_.sector_size;
  assert(sectors_per_page_ >= 1 && sectors_per_page_ <= 4);
  assert(opts_.dump_blocks_per_plane + opts_.log_blocks_per_plane <
         g.blocks_per_plane);

  first_dump_block_ = g.blocks_per_plane - opts_.dump_blocks_per_plane;
  first_log_block_ = first_dump_block_ - opts_.log_blocks_per_plane;
  log_pages_total_ = static_cast<uint64_t>(opts_.log_blocks_per_plane) *
                     g.total_planes() * g.pages_per_block;
  dump_ppns_.reserve(static_cast<size_t>(opts_.dump_blocks_per_plane) *
                     g.total_planes() * g.pages_per_block);
  for (uint32_t plane = 0; plane < g.total_planes(); ++plane) {
    for (uint32_t b = first_dump_block_; b < g.blocks_per_plane; ++b) {
      for (uint32_t p = 0; p < g.pages_per_block; ++p) {
        dump_ppns_.push_back(g.MakePpn(plane, b, p));
      }
    }
  }

  const uint64_t reserved_bytes =
      (static_cast<uint64_t>(dump_ppns_.size()) + log_pages_total_) *
      g.page_size;
  const double usable = (static_cast<double>(g.total_bytes()) -
                         static_cast<double>(reserved_bytes)) *
                        (1.0 - opts_.over_provision);
  logical_sectors_ =
      usable <= 0 ? 0 : static_cast<uint64_t>(usable) / opts_.sector_size;

  reverse_.assign(g.total_pages() * sectors_per_page_, kInvalidLpn);
  delta_by_block_.resize(static_cast<size_t>(g.total_planes()) *
                         g.blocks_per_plane);
  planes_.resize(g.total_planes());
  for (auto& plane : planes_) {
    plane.free_blocks.reserve(first_log_block_);
    // LIFO: push in reverse so block 0 is allocated first (determinism).
    for (uint32_t b = first_log_block_; b-- > 0;) {
      plane.free_blocks.push_back(b);
    }
  }
}

StatusOr<Ppn> Ftl::AllocatePage(SimTime now, uint32_t plane_idx, bool for_gc) {
  const FlashGeometry& g = flash_->geometry();
  PlaneAlloc& plane = planes_[plane_idx];

  if (!for_gc && plane.free_blocks.size() <= kGcFreeBlockThreshold &&
      plane.active_block != ~0u) {
    DURASSD_RETURN_IF_ERROR(RunGc(now, plane_idx));
  }

  if (plane.active_block == ~0u || plane.next_page >= g.pages_per_block) {
    // A block can go bad while parked on the free list (e.g. a failed dump
    // erase); skip those.
    while (!plane.free_blocks.empty() &&
           flash_->is_bad_block(plane_idx, plane.free_blocks.back())) {
      plane.free_blocks.pop_back();
    }
    if (plane.free_blocks.empty()) {
      return Status::OutOfSpace("plane has no erased blocks");
    }
    plane.active_block = plane.free_blocks.back();
    plane.free_blocks.pop_back();
    plane.next_page = 0;
  }
  const Ppn ppn = g.MakePpn(plane_idx, plane.active_block, plane.next_page);
  plane.next_page++;
  return ppn;
}

StatusOr<Ppn> Ftl::AllocateAndProgram(SimTime now, uint32_t plane_idx,
                                      bool for_gc, Slice data, SimTime* done,
                                      SimTime* start) {
  const FlashGeometry& g = flash_->geometry();
  for (uint32_t attempt = 0; attempt <= opts_.program_retry_limit; ++attempt) {
    StatusOr<Ppn> ppn_or = AllocatePage(now, plane_idx, for_gc);
    if (!ppn_or.ok()) return ppn_or;
    const Ppn ppn = *ppn_or;
    Status st = flash_->ProgramPage(now, ppn, data, done, start);
    if (st.ok()) return ppn;
    if (!st.IsIoError()) return st;
    // The die reported program failure. Close the block, queue it for
    // retirement (its live pages move out in DrainRetirements), and retry
    // on a fresh one.
    stats_.program_retries++;
    QueueRetirement(plane_idx, g.BlockOf(ppn));
  }
  return Status::IoError("program retries exhausted");
}

Status Ftl::ReadPageChecked(SimTime now, Ppn ppn, std::string* page,
                            SimTime* done) {
  uint32_t raw = 0;
  SimTime t = flash_->ReadPage(now, ppn, page, &raw);
  for (uint32_t retry = 0;
       raw > opts_.ecc_correctable_bits && retry < opts_.read_retry_limit;
       ++retry) {
    // Read-retry: re-sense with shifted thresholds; each attempt rolls a
    // fresh raw error count and costs a full page read.
    stats_.read_retries++;
    if (c_ecc_retries_ != nullptr) ++*c_ecc_retries_;
    t = flash_->ReadPage(t, ppn, page, &raw);
  }
  if (done != nullptr) *done = t;
  if (raw > opts_.ecc_correctable_bits) {
    stats_.uncorrectable_reads++;
    if (page != nullptr) flash_->fault_injector().CorruptPage(page, raw);
    return Status::Corruption("uncorrectable NAND read");
  }
  stats_.ecc_corrected += raw;
  return Status::OK();
}

bool Ftl::IsRetirePending(uint32_t plane, uint32_t block) const {
  return retire_pending_set_.count(RetireKey(plane, block)) != 0;
}

void Ftl::QueueRetirement(uint32_t plane_idx, uint32_t block) {
  PlaneAlloc& plane = planes_[plane_idx];
  if (plane.active_block == block) {
    plane.active_block = ~0u;
    plane.next_page = 0;
  }
  std::erase(plane.free_blocks, block);
  if (flash_->is_bad_block(plane_idx, block)) return;
  if (IsRetirePending(plane_idx, block)) return;
  retire_pending_.emplace_back(plane_idx, block);
  retire_pending_set_.insert(RetireKey(plane_idx, block));
}

void Ftl::DrainRetirements(SimTime now) {
  // Worklist, not recursion: a program failure during relocation queues
  // another block and this loop picks it up.
  while (!retire_pending_.empty()) {
    const auto [plane, block] = retire_pending_.back();
    retire_pending_.pop_back();
    retire_pending_set_.erase(RetireKey(plane, block));
    Status st = RelocateLiveSectors(now, plane, block);
    if (!st.ok()) {
      // Could not move the live data out. Leave the block pending: it is
      // excluded from allocation and GC, and its pages stay readable.
      retire_pending_.emplace_back(plane, block);
      retire_pending_set_.insert(RetireKey(plane, block));
      if (st.IsOutOfSpace()) {
        // No healthy destination exists for the live data, and none will
        // appear — the device can no longer guarantee writes.
        EnterDegraded(now, plane,
                      "retirement relocation failed: " + st.message());
      }
      return;
    }
    flash_->RetireBlock(plane, block);
  }
}

void Ftl::EnterDegraded(SimTime now, uint32_t plane, std::string reason) {
  if (degraded_) return;
  degraded_ = true;
  degraded_reason_ = std::move(reason);
  if (c_degraded_entries_ != nullptr) ++*c_degraded_entries_;
  if (tracer_ != nullptr) {
    tracer_->Record(now, TraceEventType::kDegraded, plane,
                    flash_->stats().bad_blocks);
  }
}

void Ftl::KillSlot(uint64_t packed) {
  const Ppn ppn = PpnOf(packed);
  const uint32_t slot = SlotOf(packed);
  reverse_[ppn * sectors_per_page_ + slot] = kInvalidLpn;
  // The physical page dies when its last live sector dies.
  bool any_live = false;
  for (uint32_t s = 0; s < sectors_per_page_; ++s) {
    if (reverse_[ppn * sectors_per_page_ + s] != kInvalidLpn) {
      any_live = true;
      break;
    }
  }
  if (!any_live) flash_->MarkInvalid(ppn);
}

void Ftl::RecordDelta(Lpn lpn, SimTime issue, SimTime start, SimTime done) {
  auto it = delta_.find(lpn);
  if (it == delta_.end()) {
    auto mit = map_.find(lpn);
    const uint64_t old_packed = mit == map_.end() ? kUnmapped : mit->second;
    delta_.emplace(lpn, DeltaRec{old_packed, issue, start, done});
    if (old_packed != kUnmapped) {
      delta_by_block_[BlockIdOf(old_packed)].push_back(lpn);
    }
  } else {
    it->second.last_issue = issue;
    it->second.last_start = start;
    it->second.last_done = done;
  }
}

Status Ftl::ValidateSectors(const std::vector<SectorWrite>& sectors) {
  if (sectors.empty() || sectors.size() > sectors_per_page_) {
    return Status::InvalidArgument("bad sector count for one program");
  }
  if (degraded_) {
    stats_.degraded_rejects++;
    return Status::ResourceExhausted("device is read-only: " +
                                     degraded_reason_);
  }
  const bool have_data = sectors[0].data != nullptr;
  for (const SectorWrite& s : sectors) {
    if (s.lpn >= logical_sectors_) {
      return Status::InvalidArgument("lpn beyond logical capacity");
    }
    if (have_data &&
        (s.data == nullptr || s.data->size() != opts_.sector_size)) {
      return Status::InvalidArgument("sector data size mismatch");
    }
  }
  return Status::OK();
}

uint32_t Ftl::PickPlane(SimTime now, uint32_t group) {
  if (opts_.idle_aware_allocation) {
    return flash_->NextIdlePlane(now, group);
  }
  // Legacy blind round-robin; group > 1 aligns down to the group boundary.
  const uint32_t plane_idx = (rr_plane_ / group) * group;
  rr_plane_ = (plane_idx + group) % static_cast<uint32_t>(planes_.size());
  return plane_idx;
}

namespace {
/// Concatenates a batch's sector payloads into one physical-page image
/// (live sectors first, rest stays erased). Empty in timing-only mode.
std::string AssemblePage(const std::vector<Ftl::SectorWrite>& sectors,
                         uint32_t page_size) {
  std::string page_data;
  if (sectors[0].data != nullptr) {
    page_data.reserve(page_size);
    for (const Ftl::SectorWrite& s : sectors) {
      page_data.append(*s.data);
    }
  }
  return page_data;
}
}  // namespace

Status Ftl::ProgramSectors(SimTime now,
                           const std::vector<SectorWrite>& sectors,
                           SimTime* start, SimTime* done) {
  DURASSD_RETURN_IF_ERROR(ValidateSectors(sectors));

  const uint32_t plane_idx = PickPlane(now);
  const std::string page_data =
      AssemblePage(sectors, flash_->geometry().page_size);

  SimTime prog_done = 0;
  SimTime prog_start = now;
  StatusOr<Ppn> ppn_or =
      AllocateAndProgram(now, plane_idx, /*for_gc=*/false, page_data,
                         &prog_done, &prog_start);
  if (!ppn_or.ok()) {
    const Status& st = ppn_or.status();
    if (st.IsOutOfSpace()) {
      // Spare exhaustion: no erased block exists and GC found nothing to
      // reclaim — a permanent condition, so enter read-only degraded mode.
      // (A plain IoError — program retries exhausted — stays transient:
      // the failed block is already queued for retirement and a host retry
      // lands on fresh flash.) Existing data is intact and readable.
      EnterDegraded(now, plane_idx, st.message());
      stats_.degraded_rejects++;
      return Status::ResourceExhausted("device is read-only: " +
                                       st.message());
    }
    return st;
  }
  const Ppn ppn = *ppn_or;
  stats_.host_programs++;
  if (h_program_ns_ != nullptr) h_program_ns_->Record(prog_done - now);
  // prog_start is the true cell-program start reported by the flash layer —
  // after the channel transfer and any wait for a busy plane — which is
  // what the torn-write model keys on.

  for (uint32_t slot = 0; slot < sectors.size(); ++slot) {
    const Lpn lpn = sectors[slot].lpn;
    RecordDelta(lpn, now, prog_start, prog_done);
    auto it = map_.find(lpn);
    if (it != map_.end()) KillSlot(it->second);
    map_[lpn] = Pack(ppn, slot);
    reverse_[ppn * sectors_per_page_ + slot] = lpn;
  }

  // Blocks that failed a program during this call get their live data
  // moved out and are taken out of service.
  DrainRetirements(now);

  *start = prog_start;
  *done = prog_done;
  return Status::OK();
}

Status Ftl::ProgramSectorsMultiPlane(SimTime now,
                                     const std::vector<SectorWrite>& a,
                                     const std::vector<SectorWrite>& b,
                                     SimTime* start, SimTime* done) {
  DURASSD_RETURN_IF_ERROR(ValidateSectors(a));
  DURASSD_RETURN_IF_ERROR(ValidateSectors(b));
  const FlashGeometry& g = flash_->geometry();
  if (g.planes_per_chip < 2) {
    return Status::InvalidArgument("geometry has no sibling planes");
  }

  const uint32_t plane0 = PickPlane(now, g.planes_per_chip);
  const uint32_t plane1 = plane0 + 1;
  const std::string data0 = AssemblePage(a, g.page_size);
  const std::string data1 = AssemblePage(b, g.page_size);

  // Allocate both pages up front. If the sibling allocation fails, the
  // first plane's page was reserved but never programmed — roll its
  // allocation cursor back so the FTL and flash in-order cursors agree.
  StatusOr<Ppn> p0_or = AllocatePage(now, plane0, /*for_gc=*/false);
  if (!p0_or.ok()) {
    const Status& st = p0_or.status();
    if (st.IsOutOfSpace()) {
      EnterDegraded(now, plane0, st.message());
      stats_.degraded_rejects++;
      return Status::ResourceExhausted("device is read-only: " +
                                       st.message());
    }
    return st;
  }
  StatusOr<Ppn> p1_or = AllocatePage(now, plane1, /*for_gc=*/false);
  if (!p1_or.ok()) {
    planes_[plane0].next_page--;
    const Status& st = p1_or.status();
    if (st.IsOutOfSpace()) {
      EnterDegraded(now, plane1, st.message());
      stats_.degraded_rejects++;
      return Status::ResourceExhausted("device is read-only: " +
                                       st.message());
    }
    return st;
  }

  Ppn ppn0 = *p0_or;
  Ppn ppn1 = *p1_or;
  bool failed[2] = {false, false};
  SimTime mp_start = now;
  SimTime mp_done = now;
  Status st = flash_->ProgramPagesMultiPlane(now, ppn0, ppn1, data0, data1,
                                             &mp_done, &mp_start, failed);
  SimTime start0 = mp_start, done0 = mp_done;
  SimTime start1 = mp_start, done1 = mp_done;
  if (!st.ok()) {
    if (!st.IsIoError()) return st;
    // The die reported program failure on one (or both) pages. Queue the
    // failed block(s) for retirement and re-drive each failed page as a
    // single-plane program on its own plane; the sibling that succeeded
    // keeps its data.
    if (failed[0]) {
      stats_.program_retries++;
      QueueRetirement(plane0, g.BlockOf(ppn0));
    }
    if (failed[1]) {
      stats_.program_retries++;
      QueueRetirement(plane1, g.BlockOf(ppn1));
    }
    Status redrive = Status::OK();
    if (failed[0]) {
      StatusOr<Ppn> re = AllocateAndProgram(mp_done, plane0, /*for_gc=*/false,
                                            data0, &done0, &start0);
      if (re.ok()) {
        ppn0 = *re;
      } else {
        redrive = re.status();
      }
    }
    if (redrive.ok() && failed[1]) {
      StatusOr<Ppn> re = AllocateAndProgram(mp_done, plane1, /*for_gc=*/false,
                                            data1, &done1, &start1);
      if (re.ok()) {
        ppn1 = *re;
      } else {
        redrive = re.status();
      }
    }
    if (!redrive.ok()) {
      // One page could not be placed anywhere. No mapping was updated, so
      // the caller may re-issue both batches; orphan any page that did
      // program so GC reclaims it.
      if (!failed[0] || ppn0 != *p0_or) flash_->MarkInvalid(ppn0);
      if (!failed[1]) flash_->MarkInvalid(ppn1);
      if (redrive.IsOutOfSpace()) {
        EnterDegraded(now, failed[0] ? plane0 : plane1, redrive.message());
        stats_.degraded_rejects++;
        return Status::ResourceExhausted("device is read-only: " +
                                         redrive.message());
      }
      return redrive;
    }
  }

  stats_.host_programs += 2;
  if (h_program_ns_ != nullptr) {
    h_program_ns_->Record(done0 - now);
    h_program_ns_->Record(done1 - now);
  }

  const std::vector<SectorWrite>* batches[2] = {&a, &b};
  const Ppn ppns[2] = {ppn0, ppn1};
  const SimTime starts[2] = {start0, start1};
  const SimTime dones[2] = {done0, done1};
  for (int i = 0; i < 2; ++i) {
    const std::vector<SectorWrite>& sectors = *batches[i];
    for (uint32_t slot = 0; slot < sectors.size(); ++slot) {
      const Lpn lpn = sectors[slot].lpn;
      RecordDelta(lpn, now, starts[i], dones[i]);
      auto it = map_.find(lpn);
      if (it != map_.end()) KillSlot(it->second);
      map_[lpn] = Pack(ppns[i], slot);
      reverse_[ppns[i] * sectors_per_page_ + slot] = lpn;
    }
  }

  DrainRetirements(now);

  *start = std::min(start0, start1);
  *done = std::max(done0, done1);
  return Status::OK();
}

Status Ftl::ReadSector(SimTime now, Lpn lpn, std::string* out, SimTime* done,
                       bool* torn) {
  if (torn != nullptr) *torn = false;
  auto it = map_.find(lpn);
  if (it == map_.end()) {
    if (out != nullptr) out->assign(opts_.sector_size, '\0');
    if (done != nullptr) *done = now;  // Map lookup only; no media access.
    return Status::OK();
  }
  const Ppn ppn = PpnOf(it->second);
  const uint32_t slot = SlotOf(it->second);

  std::string page;
  const Status st = ReadPageChecked(now, ppn, out ? &page : nullptr, done);
  if (out != nullptr) {
    // Even on an uncorrectable read the (corrupted) bytes are handed back,
    // so host-level checksums observe the damage instead of a silent zero.
    out->assign(page, static_cast<size_t>(slot) * opts_.sector_size,
                opts_.sector_size);
    out->resize(opts_.sector_size, '\0');
  }
  if (torn != nullptr) *torn = flash_->IsTorn(ppn);
  return st;
}

Status Ftl::RunGc(SimTime now, uint32_t plane_idx) {
  PlaneAlloc& plane = planes_[plane_idx];
  stats_.gc_runs++;
  if (c_gc_runs_ != nullptr) ++*c_gc_runs_;
  if (tracer_ != nullptr) {
    tracer_->Record(now, TraceEventType::kGcStart, plane_idx);
  }

  // Greedy victim: fewest valid pages among full (non-active, non-free,
  // non-dump, non-log) blocks; erase count breaks ties (mild wear leveling).
  uint32_t victim = ~0u;
  uint32_t best_valid = std::numeric_limits<uint32_t>::max();
  uint32_t best_wear = std::numeric_limits<uint32_t>::max();
  for (uint32_t b = 0; b < first_log_block_; ++b) {
    if (b == plane.active_block) continue;
    if (flash_->is_bad_block(plane_idx, b)) continue;
    if (IsRetirePending(plane_idx, b)) continue;
    if (std::find(plane.free_blocks.begin(), plane.free_blocks.end(), b) !=
        plane.free_blocks.end()) {
      continue;
    }
    const uint32_t valid = flash_->valid_pages_in_block(plane_idx, b);
    const uint32_t wear = flash_->erase_count(plane_idx, b);
    if (valid < best_valid || (valid == best_valid && wear < best_wear)) {
      victim = b;
      best_valid = valid;
      best_wear = wear;
    }
  }
  if (victim == ~0u) {
    return Status::OutOfSpace("gc found no victim block");
  }

  DURASSD_RETURN_IF_ERROR(RelocateLiveSectors(now, plane_idx, victim));
  if (h_gc_relocation_ns_ != nullptr) {
    h_gc_relocation_ns_->Record(std::max<SimTime>(0, last_relocation_done_ -
                                                         now));
  }

  SimTime erase_done = 0;
  const Status erase_st =
      flash_->EraseBlock(now, plane_idx, victim, &erase_done);
  if (erase_st.ok()) {
    stats_.gc_erases++;
    plane.free_blocks.push_back(victim);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(erase_st.ok() ? erase_done : last_relocation_done_,
                    TraceEventType::kGcEnd, plane_idx,
                    last_relocation_moved_);
  }
  // An erase failure grew a bad block: nothing was reclaimed, but the live
  // data already moved out, so GC itself still succeeded.
  return Status::OK();
}

Status Ftl::RelocateLiveSectors(SimTime now, uint32_t plane_idx,
                                uint32_t block) {
  const FlashGeometry& g = flash_->geometry();
  last_relocation_done_ = now;
  last_relocation_moved_ = 0;

  // Read every page that holds a live sector (all reads issue before any
  // program) and note where each live sector sits in them.
  struct LiveSector {
    Lpn lpn;
    uint32_t page;
    uint32_t slot;
  };
  std::vector<LiveSector> live;
  std::vector<std::string> pages(g.pages_per_block);
  for (uint32_t p = 0; p < g.pages_per_block; ++p) {
    const Ppn ppn = g.MakePpn(plane_idx, block, p);
    bool read_done = false;
    for (uint32_t s = 0; s < sectors_per_page_; ++s) {
      const Lpn lpn = reverse_[ppn * sectors_per_page_ + s];
      if (lpn == kInvalidLpn) continue;
      if (!read_done) {
        // An uncorrectable read here is not fatal to the move: the bytes
        // (with their damage) still travel, and host checksums catch it.
        Status read_st = ReadPageChecked(now, ppn, &pages[p], nullptr);
        (void)read_st;
        stats_.gc_reads++;
        read_done = true;
      }
      live.push_back({lpn, p, s});
    }
  }

  // Re-pair live sectors per program, copying each one straight from its
  // source page into the reused destination page buffer.
  std::string page_data;
  for (size_t i = 0; i < live.size(); i += sectors_per_page_) {
    page_data.clear();
    const size_t count = std::min<size_t>(sectors_per_page_, live.size() - i);
    for (size_t j = 0; j < count; ++j) {
      const std::string& src = pages[live[i + j].page];
      if (!src.empty()) {
        page_data.append(src,
                         static_cast<size_t>(live[i + j].slot) *
                             opts_.sector_size,
                         opts_.sector_size);
      }
    }
    SimTime done = 0;
    StatusOr<Ppn> dst_or =
        AllocateAndProgram(now, plane_idx, /*for_gc=*/true, page_data, &done);
    if (!dst_or.ok()) return dst_or.status();
    const Ppn dst = *dst_or;
    stats_.gc_programs++;
    last_relocation_done_ = std::max(last_relocation_done_, done);
    last_relocation_moved_ += count;
    for (size_t j = 0; j < count; ++j) {
      const Lpn lpn = live[i + j].lpn;
      // Old slot dies; mapping follows the data. Delta is untouched: a GC
      // move does not change what the host wrote, only where it lives, and
      // rollback targets are handled below.
      auto it = map_.find(lpn);
      assert(it != map_.end());
      KillSlot(it->second);
      it->second = Pack(dst, static_cast<uint32_t>(j));
      reverse_[dst * sectors_per_page_ + j] = lpn;
    }
  }

  ForcePersistDeltaIn(plane_idx, block);
  return Status::OK();
}

void Ftl::ForcePersistDeltaIn(uint32_t plane_idx, uint32_t block) {
  const FlashGeometry& g = flash_->geometry();
  const uint64_t id = g.MakePpn(plane_idx, block, 0) / g.pages_per_block;
  // Rollback targets living in the block are about to be erased (or
  // retired) for good: a real controller journals the mapping before
  // erasing, so these entries are effectively persisted now and can no
  // longer roll back. The list may name LPNs whose entry has gone or now
  // points elsewhere; only entries still targeting this block drop.
  std::vector<Lpn>& lpns = delta_by_block_[id];
  for (const Lpn lpn : lpns) {
    auto it = delta_.find(lpn);
    if (it == delta_.end() || it->second.old_packed == kUnmapped ||
        BlockIdOf(it->second.old_packed) != id) {
      continue;
    }
    stats_.forced_persists++;
    delta_.erase(it);
  }
  lpns.clear();
}

void Ftl::ClearDelta() {
  // Stale LPNs in lists no live entry points to survive; they are harmless
  // and go when their block is next reclaimed.
  for (const auto& [lpn, rec] : delta_) {
    if (rec.old_packed != kUnmapped) {
      delta_by_block_[BlockIdOf(rec.old_packed)].clear();
    }
  }
  delta_.clear();
}

void Ftl::PersistMapping() { ClearDelta(); }

std::vector<Lpn> Ftl::DirtyMappingLpns() const {
  std::vector<Lpn> out;
  out.reserve(delta_.size());
  for (const auto& [lpn, rec] : delta_) out.push_back(lpn);
  return out;
}

void Ftl::PowerCutRollback(SimTime t, PowerCutExposure exposure) {
  for (auto& [lpn, rec] : delta_) {
    const SimTime kept_from = exposure == PowerCutExposure::kIssued
                                  ? rec.last_issue
                                  : rec.last_start;
    if (exposure != PowerCutExposure::kNone && kept_from <= t) {
      // The mapping journal had already recorded this entry when the
      // program was issued: the (possibly torn) new page stays visible.
      continue;
    }
    // Lost write: revert to the persisted mapping.
    auto it = map_.find(lpn);
    if (it != map_.end()) {
      KillSlot(it->second);
      if (rec.old_packed == kUnmapped) {
        map_.erase(it);
      } else {
        const Ppn old_ppn = PpnOf(rec.old_packed);
        const uint32_t old_slot = SlotOf(rec.old_packed);
        it->second = rec.old_packed;
        reverse_[old_ppn * sectors_per_page_ + old_slot] = lpn;
        if (flash_->page_state(old_ppn) == PageState::kInvalid) {
          flash_->RevalidatePage(old_ppn);
        }
      }
    }
  }
  ClearDelta();
}

Ppn Ftl::DumpAreaPpn(uint32_t index) const {
  assert(index < dump_ppns_.size());
  return dump_ppns_[index];
}

Status Ftl::ProgramDumpPage(uint32_t index, Slice data) {
  if (index >= dump_ppns_.size()) {
    return Status::OutOfSpace("dump area exhausted");
  }
  SimTime done = 0;
  // Timing is irrelevant on capacitor power; issue at the end of time seen.
  return flash_->ProgramPage(0, dump_ppns_[index], data, &done);
}

Status Ftl::ReadDumpPage(uint32_t index, std::string* out) {
  if (index >= dump_ppns_.size()) {
    return Status::InvalidArgument("dump page index out of range");
  }
  return ReadPageChecked(0, dump_ppns_[index], out, nullptr);
}

SimTime Ftl::EraseDumpArea(SimTime now) {
  const FlashGeometry& g = flash_->geometry();
  SimTime done = now;
  for (uint32_t plane = 0; plane < g.total_planes(); ++plane) {
    for (uint32_t b = first_dump_block_; b < g.blocks_per_plane; ++b) {
      if (flash_->is_bad_block(plane, b)) continue;
      if (flash_->next_program_page(plane, b) == 0) {
        continue;  // Already clean.
      }
      SimTime erase_done = 0;
      const Status st = flash_->EraseBlock(now, plane, b, &erase_done);
      if (!st.ok()) {
        // Grown bad dump block: drop its pages from the dump sequence so
        // future dumps skip it. Capacity shrinks; correctness holds.
        std::erase_if(dump_ppns_, [&](Ppn p) {
          return g.PlaneOf(p) == plane && g.BlockOf(p) == b;
        });
        continue;
      }
      done = std::max(done, erase_done);
    }
  }
  return done;
}

Status Ftl::PrepareLogBlock(SimTime now, uint32_t plane, uint32_t block) {
  if (flash_->next_program_page(plane, block) == 0) {
    return Status::OK();  // Still erased from the previous lap.
  }
  // FIFO log cleaning: by the time the head wraps back, most sectors in
  // the oldest row have been superseded; the few survivors move into the
  // main area through the regular relocation path (for_gc allocations, so
  // this cannot recurse into GC).
  DURASSD_RETURN_IF_ERROR(RelocateLiveSectors(now, plane, block));
  stats_.log_reclaims++;
  SimTime erase_done = 0;
  const Status st = flash_->EraseBlock(now, plane, block, &erase_done);
  // An erase failure grew a bad block; the append cursor skips it.
  (void)st;
  return Status::OK();
}

StatusOr<Ppn> Ftl::AppendLogPage(SimTime now, Slice data, SimTime* start,
                                 SimTime* done) {
  if (log_pages_total_ == 0) {
    return Status::InvalidArgument("no log region reserved");
  }
  if (degraded_) {
    stats_.degraded_rejects++;
    return Status::ResourceExhausted("device is read-only: " +
                                     degraded_reason_);
  }
  const FlashGeometry& g = flash_->geometry();
  const uint32_t planes = g.total_planes();
  for (uint64_t attempt = 0; attempt < log_pages_total_; ++attempt) {
    const uint64_t idx = log_head_ % log_pages_total_;
    const uint32_t plane = static_cast<uint32_t>(idx % planes);
    const uint64_t off = idx / planes;
    const uint32_t block =
        first_log_block_ + static_cast<uint32_t>(off / g.pages_per_block);
    const uint32_t page = static_cast<uint32_t>(off % g.pages_per_block);
    if (flash_->is_bad_block(plane, block)) {
      log_head_++;
      continue;
    }
    if (page == 0) {
      // Entering a block: reclaim it if the previous lap wrote it.
      DURASSD_RETURN_IF_ERROR(PrepareLogBlock(now, plane, block));
      if (flash_->is_bad_block(plane, block)) {
        log_head_++;
        continue;
      }
    }
    const Ppn ppn = g.MakePpn(plane, block, page);
    const Status st = flash_->ProgramPage(now, ppn, data, done, start);
    log_head_++;  // The page is consumed whether or not the program stuck.
    if (st.ok()) {
      stats_.host_programs++;
      stats_.log_appends++;
      if (h_program_ns_ != nullptr) h_program_ns_->Record(*done - now);
      return ppn;
    }
    if (!st.IsIoError()) return st;
    // Program-status failure: the garbage page stays behind (recovery's
    // checksums reject it) and the append retries on the next page.
    stats_.program_retries++;
  }
  return Status::IoError("log region has no programmable page");
}

void Ftl::MapLogSector(Lpn lpn, Ppn ppn, uint32_t slot, SimTime issue,
                       SimTime start, SimTime done) {
  RecordDelta(lpn, issue, start, done);
  auto it = map_.find(lpn);
  if (it != map_.end()) KillSlot(it->second);
  map_[lpn] = Pack(ppn, slot);
  reverse_[ppn * sectors_per_page_ + slot] = lpn;
}

bool Ftl::IsMappedTo(Lpn lpn, Ppn ppn, uint32_t slot) const {
  auto it = map_.find(lpn);
  return it != map_.end() && it->second == Pack(ppn, slot);
}

bool Ftl::UnmapIfPointsTo(Lpn lpn, Ppn ppn, uint32_t slot) {
  auto it = map_.find(lpn);
  if (it == map_.end() || it->second != Pack(ppn, slot)) return false;
  KillSlot(it->second);
  map_.erase(it);
  delta_.erase(lpn);
  return true;
}

Status Ftl::ReadPhysicalPage(SimTime now, Ppn ppn, std::string* out,
                             SimTime* done) {
  return ReadPageChecked(now, ppn, out, done);
}

}  // namespace durassd
