#ifndef DURASSD_SSD_FTL_H_
#define DURASSD_SSD_FTL_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "flash/flash_array.h"

namespace durassd {

/// Page-mapping flash translation layer with 4KB mapping granularity over
/// 8KB NAND pages (Sec. 3.1.2): two logical sectors share one physical page.
/// Owns logical->physical mapping, page allocation (striped round-robin
/// across planes for parallelism), greedy garbage collection, the reserved
/// dump area, and the mapping-persistence crash model:
///
///   - RAM mapping is authoritative during normal operation.
///   - A "delta" tracks entries modified since the last persistence point.
///   - On a volatile device, power loss rolls the delta back (lost writes),
///     optionally keeping entries whose NAND program had already begun —
///     which is how commodity SSDs expose torn writes (FAST'13).
///   - On DuraSSD the delta is dumped on capacitor power and merged at
///     reboot, so nothing rolls back.
class Ftl {
 public:
  struct Options {
    uint32_t sector_size = 4 * kKiB;
    double over_provision = 0.07;
    uint32_t dump_blocks_per_plane = 2;
    // --- ECC / fault handling (only exercised when faults are injected) ---
    /// Raw bit errors per page the ECC corrects in one shot.
    uint32_t ecc_correctable_bits = 8;
    /// Re-reads attempted when the raw error count exceeds the ECC budget
    /// (real controllers retry with shifted read voltages).
    uint32_t read_retry_limit = 4;
    /// Fresh pages tried when a program reports failure before giving up.
    uint32_t program_retry_limit = 3;
    /// Pick the least-busy plane (plane busy_until + channel occupancy,
    /// via FlashArray::NextIdlePlane) for each host program instead of
    /// blind round-robin. false = legacy round-robin (A/B baseline).
    bool idle_aware_allocation = false;
    /// Owner's metrics registry; the FTL registers its own metrics under
    /// the "ftl." prefix. May be null (no metrics collected).
    MetricsRegistry* metrics = nullptr;
    /// Blocks per plane reserved as the sequential log region, carved out
    /// directly below the dump area. 0 = no log region (legacy layout,
    /// bit-identical allocation behavior).
    uint32_t log_blocks_per_plane = 0;
  };

  struct SectorWrite {
    Lpn lpn;
    const std::string* data;  ///< nullptr in timing-only mode.
  };

  struct Stats {
    uint64_t host_programs = 0;
    uint64_t gc_runs = 0;
    uint64_t gc_reads = 0;
    uint64_t gc_programs = 0;
    uint64_t gc_erases = 0;
    uint64_t forced_persists = 0;  ///< Delta entries force-persisted by GC.
    uint64_t ecc_corrected = 0;       ///< Raw bit errors corrected by ECC.
    uint64_t read_retries = 0;        ///< Re-reads past the ECC budget.
    uint64_t uncorrectable_reads = 0; ///< Reads lost despite retries.
    uint64_t program_retries = 0;     ///< Programs retried on a fresh page.
    uint64_t degraded_rejects = 0;    ///< Host programs rejected while
                                      ///< degraded.
    uint64_t log_appends = 0;         ///< Pages appended to the log region.
    uint64_t log_reclaims = 0;        ///< Log blocks reclaimed (live data
                                      ///< relocated + erased) on wrap.
  };

  Ftl(FlashArray* flash, Options options);

  Ftl(const Ftl&) = delete;
  Ftl& operator=(const Ftl&) = delete;

  uint32_t sector_size() const { return opts_.sector_size; }
  uint32_t sectors_per_page() const { return sectors_per_page_; }
  uint64_t logical_sectors() const { return logical_sectors_; }

  /// Programs 1..sectors_per_page() logical sectors into one NAND page
  /// (pairing two 4KB sectors per 8KB program when possible). Reports the
  /// program's start and completion times. Runs GC first if the target
  /// plane is low on free blocks.
  Status ProgramSectors(SimTime now, const std::vector<SectorWrite>& sectors,
                        SimTime* start, SimTime* done);

  /// Programs two pages with one multi-plane command on the two sibling
  /// planes of the least-busy chip (Sec. 2.3 chip-level interleaving): both
  /// transfers serialize on the channel, then both planes program
  /// concurrently. `a` and `b` each follow ProgramSectors' contract. On an
  /// injected program failure the failed page is transparently re-driven as
  /// a single-plane program; mapping updates happen only once every sector
  /// has landed, so a hard failure leaves the mapping untouched. `start` /
  /// `done` receive the union program window. Requires a geometry with at
  /// least two planes per chip.
  Status ProgramSectorsMultiPlane(SimTime now,
                                  const std::vector<SectorWrite>& a,
                                  const std::vector<SectorWrite>& b,
                                  SimTime* start, SimTime* done);

  /// Reads one logical sector. Unmapped sectors read as zeros with zero
  /// media cost beyond the firmware's map lookup. `done`, if non-null,
  /// receives the virtual completion time (including any ECC read-retries).
  /// `torn`, if non-null, reports whether the backing physical page was
  /// shorn by a power cut. Returns kCorruption when raw bit errors exceed
  /// the ECC budget after all retries; `out` then holds the corrupted bytes
  /// so the host's checksums can see the damage.
  Status ReadSector(SimTime now, Lpn lpn, std::string* out,
                    SimTime* done = nullptr, bool* torn = nullptr);

  bool IsMapped(Lpn lpn) const { return map_.count(lpn) != 0; }

  // --- Log region (log-structured destage, ROADMAP item 2) ---
  /// Total pages in the reserved log region (0 = no log region).
  uint64_t log_pages_total() const { return log_pages_total_; }
  /// Appends one physical page at the log head cursor, which advances
  /// strictly sequentially through the log region, striped one page per
  /// plane per row. Wrapping into a previously written block first
  /// relocates its still-live sectors into the main area and erases it
  /// (FIFO log cleaning). A failed program skips that page and tries the
  /// next one. Leaves the mapping untouched — the caller maps data pages
  /// with MapLogSector; header pages are never mapped.
  StatusOr<Ppn> AppendLogPage(SimTime now, Slice data, SimTime* start,
                              SimTime* done);
  /// Points `lpn` at (ppn, slot) of a freshly appended log data page:
  /// kills the superseded slot, updates the map, and records the delta
  /// exactly like ProgramSectors — so power-cut rollback treats a sector
  /// destaged through the log identically to one destaged in place.
  void MapLogSector(Lpn lpn, Ppn ppn, uint32_t slot, SimTime issue,
                    SimTime start, SimTime done);
  /// True iff `lpn` currently maps exactly to (ppn, slot). Recovery uses
  /// this to skip log-directory entries superseded by later writes,
  /// relocations, or rollback.
  bool IsMappedTo(Lpn lpn, Ppn ppn, uint32_t slot) const;
  /// Unmaps `lpn` iff it still points at (ppn, slot) — checksum-validated
  /// torn-segment truncation on recovery. Returns true when unmapped.
  bool UnmapIfPointsTo(Lpn lpn, Ppn ppn, uint32_t slot);
  /// Reads a raw physical page through the ECC model (log segment
  /// validation on recovery). Same contract as the internal checked read:
  /// kCorruption with the damaged bytes in `out` when uncorrectable.
  Status ReadPhysicalPage(SimTime now, Ppn ppn, std::string* out,
                          SimTime* done);

  // --- Mapping persistence / crash model ---
  size_t dirty_mapping_entries() const { return delta_.size(); }
  /// Marks everything persisted (called when a FLUSH CACHE completes, or
  /// after a successful durable-cache dump replay).
  void PersistMapping();
  /// Which unpersisted mapping entries survive a power cut at `t`.
  enum class PowerCutExposure {
    /// Every delta entry rolls back to its persisted value (lost writes).
    kNone,
    /// Entries whose program was *issued* by `t` keep the new mapping: the
    /// durable-cache model, where capacitor power runs every issued NAND
    /// operation to completion (Sec. 3.4.1).
    kIssued,
    /// Entries whose cell program had *started* by `t` keep the new
    /// (possibly torn) mapping: the commodity-SSD model that exposes torn
    /// writes (FAST'13). Programs issued but not yet started by `t` roll
    /// back, matching FlashArray::PowerCut returning those pages to kFree.
    kStarted,
  };
  /// Power cut at `t`: entries in the delta roll back to their persisted
  /// value except those `exposure` keeps.
  void PowerCutRollback(SimTime t, PowerCutExposure exposure);
  /// LPNs with unpersisted mapping entries (dump sizing on DuraSSD).
  std::vector<Lpn> DirtyMappingLpns() const;

  // --- Dump area (Sec. 3.4.1): reserved clean blocks, one dump page per
  // cached sector, always erased during normal operation. A dump block
  // whose erase fails is dropped from the sequence (grown bad block), so
  // the page count can shrink over the device's life. ---
  uint32_t dump_area_pages() const {
    return static_cast<uint32_t>(dump_ppns_.size());
  }
  Ppn DumpAreaPpn(uint32_t index) const;
  /// Programs `data` into the index-th dump page, bypassing the mapping.
  /// Used on capacitor power, so the caller ignores timing.
  Status ProgramDumpPage(uint32_t index, Slice data);
  /// Reads the index-th dump page through ECC. Returns InvalidArgument for
  /// an out-of-range index and kCorruption for an uncorrectable read (the
  /// corrupted bytes are still placed in `out` for the caller's checksums).
  Status ReadDumpPage(uint32_t index, std::string* out);
  /// Erases all dump blocks; returns completion time. Blocks whose erase
  /// fails become grown bad blocks and leave the dump sequence.
  SimTime EraseDumpArea(SimTime now);

  const Stats& stats() const { return stats_; }
  FlashArray* flash() { return flash_; }

  // --- Degraded (read-only) mode ---
  /// True once the FTL has run out of healthy blocks (spare exhaustion or a
  /// retirement relocation that could not complete). Sticky: the physical
  /// condition does not heal, so the flag survives power cycles. Host
  /// programs are rejected with kResourceExhausted; reads keep working.
  bool degraded() const { return degraded_; }
  const std::string& degraded_reason() const { return degraded_reason_; }

  /// Attaches (or detaches, with nullptr) an event tracer for GC events.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Free blocks currently available in the given plane (test hook).
  size_t free_blocks_in_plane(uint32_t plane) const {
    return planes_[plane].free_blocks.size();
  }

 private:
  static constexpr uint64_t kUnmapped = ~0ull;

  struct PlaneAlloc {
    std::vector<uint32_t> free_blocks;   ///< Erased blocks (LIFO).
    uint32_t active_block = ~0u;
    uint32_t next_page = 0;
  };
  struct DeltaRec {
    uint64_t old_packed;  ///< Persisted value (kUnmapped if none).
    SimTime last_issue;   ///< Issue time of the most recent program.
    SimTime last_start;   ///< True cell-program start (after channel wait).
    SimTime last_done;
  };

  static uint64_t Pack(Ppn ppn, uint32_t slot) { return ppn * 4 + slot; }
  static Ppn PpnOf(uint64_t packed) { return packed / 4; }
  static uint32_t SlotOf(uint64_t packed) {
    return static_cast<uint32_t>(packed % 4);
  }
  /// Global block id (plane * blocks_per_plane + block) of a packed slot.
  uint64_t BlockIdOf(uint64_t packed) const {
    return PpnOf(packed) / flash_->geometry().pages_per_block;
  }

  /// Returns the next erased physical page on the round-robin plane,
  /// running GC when the plane is short on free blocks. `for_gc` allocs
  /// skip the GC trigger (they consume the reserved headroom).
  StatusOr<Ppn> AllocatePage(SimTime now, uint32_t plane, bool for_gc);
  /// AllocatePage + ProgramPage with transparent retry: a program that
  /// reports failure closes the block, queues it for retirement, and tries
  /// again on a fresh page (up to program_retry_limit times).
  StatusOr<Ppn> AllocateAndProgram(SimTime now, uint32_t plane, bool for_gc,
                                   Slice data, SimTime* done,
                                   SimTime* start = nullptr);
  /// Plane chooser for host programs: idle-aware (least-busy plane with
  /// round-robin tie-break) or legacy blind round-robin per Options.
  /// `group` > 1 returns the first plane of an aligned group (multi-plane).
  uint32_t PickPlane(SimTime now, uint32_t group = 1);
  /// Validates one ProgramSectors batch (count, lpn range, data sizes) and
  /// rejects when degraded.
  Status ValidateSectors(const std::vector<SectorWrite>& sectors);
  /// Reads a full physical page through the ECC model: up to
  /// read_retry_limit re-reads while the raw error count exceeds
  /// ecc_correctable_bits, then kCorruption (with the bit flips
  /// materialized into `page`) if still over budget.
  Status ReadPageChecked(SimTime now, Ppn ppn, std::string* page,
                         SimTime* done);
  Status RunGc(SimTime now, uint32_t plane);
  /// Moves every live sector out of the block (shared by GC and block
  /// retirement), then force-persists delta entries whose rollback target
  /// lives inside it.
  Status RelocateLiveSectors(SimTime now, uint32_t plane, uint32_t block);
  /// Drops the delta entries whose rollback target lives in the block.
  /// Visits only that block's delta_by_block_ list.
  void ForcePersistDeltaIn(uint32_t plane, uint32_t block);
  /// Empties delta_ and the delta_by_block_ lists of its entries, in time
  /// proportional to the delta rather than to the device.
  void ClearDelta();
  /// Marks a block for retirement after a program failure. Actual
  /// retirement (relocation + RetireBlock) happens in DrainRetirements so
  /// a failure during relocation cannot recurse.
  void QueueRetirement(uint32_t plane, uint32_t block);
  void DrainRetirements(SimTime now);
  bool IsRetirePending(uint32_t plane, uint32_t block) const;
  void KillSlot(uint64_t packed);
  void RecordDelta(Lpn lpn, SimTime issue, SimTime start, SimTime done);
  /// Flips the sticky degraded flag (idempotent) and emits the trace event
  /// and metrics counter for the transition.
  void EnterDegraded(SimTime now, uint32_t plane, std::string reason);
  bool IsDumpBlock(uint32_t block) const {
    return block >= first_dump_block_;
  }
  bool IsLogBlock(uint32_t block) const {
    return block >= first_log_block_ && block < first_dump_block_;
  }
  /// Makes a log block writable again before the wrapping head re-enters
  /// it: still-live sectors relocate into the main area (FIFO cleaning),
  /// then the block is erased. An erase failure grows a bad block the
  /// append cursor skips.
  Status PrepareLogBlock(SimTime now, uint32_t plane, uint32_t block);

  FlashArray* flash_;
  Options opts_;
  uint32_t sectors_per_page_;
  uint64_t logical_sectors_;
  uint32_t first_dump_block_;
  /// Log region: blocks [first_log_block_, first_dump_block_) of every
  /// plane. first_log_block_ == first_dump_block_ when no log region is
  /// reserved (legacy layout).
  uint32_t first_log_block_;
  /// Pages in the log region; 0 disables AppendLogPage.
  uint64_t log_pages_total_ = 0;
  /// Global append cursor (page index into the striped log layout: plane =
  /// idx % planes, then pages in block order within the plane). Wraps.
  uint64_t log_head_ = 0;
  /// Dump pages in program order; shrinks when a dump block goes bad.
  std::vector<Ppn> dump_ppns_;
  static uint64_t RetireKey(uint32_t plane, uint32_t block) {
    return (static_cast<uint64_t>(plane) << 32) | block;
  }

  /// Blocks awaiting retirement after a program failure. The vector is the
  /// ordered worklist; the set mirrors it for O(1) IsRetirePending (which
  /// runs once per program retry and per GC victim candidate).
  std::vector<std::pair<uint32_t, uint32_t>> retire_pending_;
  std::unordered_set<uint64_t> retire_pending_set_;

  std::unordered_map<Lpn, uint64_t> map_;
  /// Reverse map: which LPN lives in each (ppn, slot); kInvalidLpn = dead.
  /// Flat-indexed as ppn * sectors_per_page_ + slot.
  std::vector<Lpn> reverse_;
  std::unordered_map<Lpn, DeltaRec> delta_;
  /// Delta LPNs indexed by the global block of their old_packed, appended
  /// when an entry is created. A list may hold stale LPNs (the entry was
  /// dropped, or re-recorded with another target), so readers re-check
  /// each one against delta_.
  std::vector<std::vector<Lpn>> delta_by_block_;
  std::vector<PlaneAlloc> planes_;
  uint32_t rr_plane_ = 0;
  Stats stats_;

  bool degraded_ = false;
  std::string degraded_reason_;

  Tracer* tracer_ = nullptr;
  /// Registered metrics (null when no registry was supplied).
  Histogram* h_program_ns_ = nullptr;
  Histogram* h_gc_relocation_ns_ = nullptr;
  MetricCounter* c_ecc_retries_ = nullptr;
  MetricCounter* c_gc_runs_ = nullptr;
  MetricCounter* c_degraded_entries_ = nullptr;
  /// Completion time / sector count of the latest RelocateLiveSectors,
  /// consumed by RunGc for the gc_relocation_ns sample.
  SimTime last_relocation_done_ = 0;
  uint64_t last_relocation_moved_ = 0;
};

}  // namespace durassd

#endif  // DURASSD_SSD_FTL_H_
