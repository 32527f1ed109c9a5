#ifndef DURASSD_SSD_SSD_DEVICE_H_
#define DURASSD_SSD_SSD_DEVICE_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/resource.h"
#include "common/status.h"
#include "common/trace.h"
#include "common/types.h"
#include "flash/flash_array.h"
#include "host/block_device.h"
#include "ssd/destage_scheduler.h"
#include "ssd/ftl.h"
#include "ssd/ssd_config.h"

namespace durassd {

/// The simulated SSD: DRAM device cache, atomic writer, flusher, NCQ,
/// power-off detection and recovery manager over a NAND FlashArray + FTL
/// (Fig. 3 of the paper). One class models both DuraSSD (durable_cache on)
/// and commodity volatile-cache SSDs; the HDD lives in HddDevice.
///
/// Semantics implemented:
///  - Atomic writer (Sec. 3.2): a write command is atomic from the moment
///    it is acknowledged. Commands not fully transferred when power fails
///    are discarded whole; acknowledged ones are replayed from the dump
///    area on reboot (durable cache) or rolled back (volatile cache).
///  - Flusher (Sec. 3.1.1): destage is scheduled the moment data lands in
///    the cache, striped round-robin across planes for parallelism, with
///    two 4KB sectors paired per 8KB NAND program.
///  - FLUSH CACHE (Sec. 3.3): drains outstanding destages and persists the
///    mapping journal; cost grows with dirty state (Fig. 2).
///  - Recovery manager (Sec. 3.4): on power failure the durable cache and
///    dirty mapping entries are dumped to reserved clean blocks within the
///    capacitor budget; on reboot the dump is replayed idempotently.
class SsdDevice : public BlockDevice, private DestageScheduler::Sink {
 public:
  struct Stats {
    uint64_t host_writes = 0;        ///< Write commands.
    uint64_t host_written_sectors = 0;
    uint64_t host_reads = 0;
    uint64_t host_read_sectors = 0;
    uint64_t cache_read_hits = 0;    ///< Sectors served from the cache.
    uint64_t cache_read_misses = 0;  ///< Sectors that went to the FTL
                                     ///< (host_read_sectors = hits+misses).
    uint64_t cache_full_hits = 0;    ///< Read commands fully cache-served.
    uint64_t cache_partial_hits = 0; ///< Read commands with a sector mix.
    uint64_t flushes = 0;
    uint64_t write_stalls = 0;       ///< Writes that waited for a frame.
    SimTime write_stall_time = 0;
    uint64_t dumped_pages = 0;       ///< Pages saved on capacitor power.
    uint64_t replayed_pages = 0;     ///< Pages replayed at reboot.
    uint64_t dropped_incomplete = 0; ///< Un-acked commands discarded whole.
    uint64_t capacitor_overruns = 0; ///< Dump exceeded the budget (bug).
    uint64_t reads_stalled_by_flush = 0;  ///< Reads behind FLUSH CACHE.
    uint64_t degraded_write_rejects = 0;  ///< Writes refused in degraded
                                          ///< (read-only) mode.
    uint64_t ordered_ack_clamps = 0;      ///< Ordered-NCQ ack monotonization.
    uint64_t ordering_violations = 0;     ///< Ordered mode: a power cut kept
                                          ///< a write submitted after a lost
                                          ///< one (must stay 0).
    uint64_t destage_absorbed = 0;   ///< Rewrites absorbed by a pending,
                                     ///< not-yet-issued destage (no second
                                     ///< NAND program).
    uint64_t destage_batches = 0;    ///< Scheduler drain rounds issued.
    uint64_t barriers = 0;           ///< BARRIER commands (epochs sealed).
    uint64_t epoch_ack_clamps = 0;   ///< Acks raised to the sealed-epoch
                                     ///< floor (epoch-monotone ack order).
    uint64_t epoch_ordering_violations = 0;  ///< A power cut kept a write
                                             ///< from a newer epoch while
                                             ///< losing one from an older
                                             ///< epoch (must stay 0).
    // --- Log-structured destage (destage_mode == kLogStructured) ---
    uint64_t log_segments = 0;         ///< Segments appended to the log.
    uint64_t log_segment_sectors = 0;  ///< Sectors destaged via segments.
    uint64_t log_replayed_segments = 0;  ///< Segments validated clean on
                                         ///< recovery.
    uint64_t log_torn_segments = 0;    ///< Segments with a lost header or a
                                       ///< failed sector checksum.
    uint64_t log_recovered_sectors = 0;  ///< Sectors checksum-validated OK.
    uint64_t log_dropped_sectors = 0;  ///< Torn sectors truncated (unmapped)
                                       ///< by recovery validation.
  };

  /// Device-level view of NAND fault handling, aggregated from the FTL
  /// (ECC policy) and the flash array (media failures). All zero when no
  /// faults are injected.
  struct FaultStats {
    uint64_t ecc_corrected = 0;       ///< Raw bit errors corrected by ECC.
    uint64_t read_retries = 0;        ///< Page re-reads past the ECC budget.
    uint64_t uncorrectable_reads = 0; ///< Reads lost despite retries.
    uint64_t program_fails = 0;       ///< NAND program-status failures.
    uint64_t erase_fails = 0;         ///< NAND erase-status failures.
    uint64_t retired_blocks = 0;      ///< Grown bad blocks out of service.
  };

  explicit SsdDevice(SsdConfig config);
  ~SsdDevice() override = default;

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  // --- BlockDevice ---
  uint32_t sector_size() const override { return cfg_.sector_size; }
  uint64_t num_sectors() const override { return ftl_.logical_sectors(); }
  void PowerCut(SimTime t) override;
  SimTime PowerOn() override;
  bool supports_atomic_write() const override { return cfg_.durable_cache; }
  bool has_durable_cache() const override { return cfg_.durable_cache; }
  /// Ordered NCQ (Sec. 3.3): with a durable cache and cfg_.ordered_queue,
  /// acknowledgement order equals submission order, so a power cut can only
  /// lose a *suffix* of the submitted write stream. PowerCut checks the
  /// invariant (stats().ordering_violations).
  bool ordered_writes() const override {
    return cfg_.durable_cache && cfg_.ordered_queue && cfg_.cache_enabled;
  }
  /// Barrier-enabled (Won et al.): a BARRIER seals the current epoch; the
  /// epoch ack clamp then keeps every later write's acknowledgement at or
  /// after the sealed epoch's last ack. Since a durable cache survives by
  /// ack <= cut, a power cut always recovers an epoch-consistent prefix —
  /// intra-epoch reordering allowed, cross-epoch never. Requires the
  /// durable cache: "durably framed" means acked into capacitor-protected
  /// frames, which volatile caches cannot provide.
  bool supports_barrier() const override {
    return cfg_.durable_cache && cfg_.cache_enabled;
  }

  /// Clean shutdown: FLUSH CACHE then power down without the emergency flag.
  Status Shutdown(SimTime now);

  /// True once the FTL has entered sticky read-only degraded mode (spare
  /// exhaustion / failed retirement relocation). Writes fail with
  /// kResourceExhausted; reads keep working across power cycles.
  bool degraded() const override { return ftl_.degraded(); }

  bool powered() const override { return powered_; }
  const SsdConfig& config() const { return cfg_; }
  const Stats& stats() const { return stats_; }
  const Ftl& ftl() const { return ftl_; }
  const FlashArray& flash() const { return flash_; }
  FaultStats fault_stats() const {
    return {ftl_.stats().ecc_corrected,       ftl_.stats().read_retries,
            ftl_.stats().uncorrectable_reads, flash_.stats().program_fails,
            flash_.stats().erase_fails,       flash_.stats().bad_blocks};
  }
  /// Live fault-injection scripting hook (tests).
  FaultInjector& fault_injector() { return flash_.fault_injector(); }

  /// Per-layer latency attribution (NCQ wait, bus, firmware, frame stalls,
  /// destage, flush drain) plus the FTL's own metrics.
  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Attaches an event tracer (device + FTL events). Pass nullptr to
  /// detach. Recording never advances virtual time.
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    ftl_.set_tracer(tracer);
  }
  Tracer* tracer() const { return tracer_; }

  /// Host-level write amplification: NAND bytes programmed / host bytes
  /// written (GC included). The endurance argument of Sec. 1 & 6.
  double WriteAmplification() const;

  /// Log-structured destage active? Requires the lazy scheduler and the
  /// durable cache: acked-but-pending sectors stay durable via the
  /// capacitor dump while they wait to fill a whole segment.
  bool UseLogDestage() const {
    return UseScheduler() && cfg_.durable_cache &&
           cfg_.destage_mode == SsdConfig::DestageMode::kLogStructured &&
           ftl_.log_pages_total() > 0;
  }
  /// Data pages per log segment (the header page is extra).
  uint32_t SegmentDataPages() const { return log_segment_pages_; }
  uint32_t SegmentSectors() const {
    return log_segment_pages_ * ftl_.sectors_per_page();
  }

 protected:
  Result Execute(SimTime t, const Command& cmd) override;

 private:
  struct CacheEntry {
    std::string data;          ///< Sector bytes; empty in timing-only mode.
    SimTime ack = 0;           ///< Command acknowledged (atomicity point).
    uint64_t seq = 0;          ///< Submission sequence of the owning command.
    uint64_t epoch = 0;        ///< Barrier epoch the owning command joined.
    SimTime program_issue = 0;  ///< NAND program issued (kNeverProgrammed
                                ///< until then); dump/rollback hinge on it.
    SimTime program_start = 0;
    SimTime program_done = 0;  ///< kNeverProgrammed until destage scheduled.
    // One-deep history for the coalescing rollback corner case: if the
    // overwriting command turns out incomplete at a power cut, the
    // previously acknowledged version is restored.
    bool has_prev = false;
    std::string prev_data;
    SimTime prev_ack = 0;
    uint64_t prev_seq = 0;
    uint64_t prev_epoch = 0;
  };

  static constexpr SimTime kNeverProgrammed =
      std::numeric_limits<SimTime>::max();

  /// Grows dump_blocks_per_plane so the reserved dump area can cover every
  /// write-buffer frame when the lazy scheduler is enabled (acknowledged-
  /// but-unissued sectors all need a dump page at a power cut).
  static SsdConfig SizeDumpArea(SsdConfig cfg);
  /// Single-command executors (the pre-async Write/Read/Flush bodies),
  /// dispatched from Execute.
  Result DoWrite(SimTime now, Lpn lpn, Slice data);
  Result DoRead(SimTime now, Lpn lpn, uint32_t nsec, std::string* out);
  Result DoFlush(SimTime now);
  Result DoBarrier(SimTime now);

  SimTime BusTime(uint32_t nsec, bool is_write) const;
  SimTime FwTime(uint32_t nsec, bool is_write) const;
  /// Lazy destage scheduling active (destage_batch_pages > 1)? When false
  /// the device takes the legacy eager path: one destage per host command,
  /// issued synchronously at acknowledgement (the A/B baseline).
  bool UseScheduler() const {
    return cfg_.cache_enabled && cfg_.destage_batch_pages > 1;
  }
  /// Drains pending scheduler sectors into sequential log segments at time
  /// t: full segments only, plus a final short segment when
  /// `include_partial`. Sectors a failed append could not program are
  /// re-queued.
  Status DrainLogSegments(SimTime t, bool include_partial);
  /// Builds and appends one segment (header page: LPN map + per-sector
  /// CRC32C, then data pages) from `taken`, mapping each data sector and
  /// recording its program window.
  Status AppendLogSegment(SimTime t, const std::vector<Lpn>& taken);
  /// Recovery pass over the log directory (newest segment first): reads
  /// each segment header, validates every still-mapped sector's bytes
  /// against the header's CRC32C, and truncates (unmaps) torn sectors. A
  /// segment whose header is gone — torn tail, or pages freed by the
  /// power-cut rollback — is counted torn and its rolled-back sectors are
  /// simply skipped. Returns the virtual time the scan+validation cost.
  SimTime RecoverCache();
  /// Blocks until a write-buffer frame is free; returns the (possibly
  /// delayed) time at which the frame was obtained. In lazy mode, frames
  /// are held by both in-flight programs (outstanding_) and pending
  /// scheduler sectors; pressure first converts pending into programs.
  SimTime AcquireFrame(SimTime t);
  /// Destages `group` (1..sectors_per_page sectors) at time t, updating the
  /// cache entries' program windows.
  Status DestageGroup(SimTime t, const std::vector<Lpn>& group);
  // --- DestageScheduler::Sink ---
  /// Never issue a sector's program before its command's ack (crash
  /// semantics rely on issue >= ack; see the definition).
  SimTime ClampToAcks(SimTime t, const std::vector<Lpn>& group) const;
  Status DestagePage(SimTime t, const std::vector<Lpn>& group) override;
  Status DestagePagePair(SimTime t, const std::vector<Lpn>& a,
                         const std::vector<Lpn>& b) override;
  /// Idle-threshold drain: pending sectors older than destage_idle_ns are
  /// destaged when the next host command arrives (the device used its own
  /// idle time). Called on DoWrite/DoRead/DoFlush entry.
  void MaybeIdleDrain(SimTime now);
  /// Records the program window for a destaged group and releases its
  /// frames at program completion.
  void FinishDestage(const std::vector<Lpn>& group, SimTime issue,
                     SimTime start, SimTime done);
  void InsertCacheEntry(Lpn lpn, Slice sector, SimTime ack, uint64_t seq,
                        uint64_t epoch);
  void EvictCleanIfNeeded();
  /// Mapping-journal persistence cost for `entries` dirty mapping entries.
  SimTime MappingPersistCost(size_t entries) const;
  /// Writes `to_dump` (the acknowledged sectors not yet safe on NAND, in
  /// cache order, collected by PowerCut's single pass over the cache) and
  /// the dirty mapping entries to the dump area.
  void DumpOnCapacitor(
      SimTime t, const std::vector<std::pair<Lpn, const std::string*>>& to_dump);
  SimTime ReplayDump();
  /// Removes the cache entries a failed write command inserted (restoring
  /// the one-deep history), so un-destaged data from a rejected command
  /// cannot be dumped or served later.
  void RollbackCommandEntries(Lpn lpn, uint32_t nsec, SimTime ack);

  SsdConfig cfg_;
  /// Declared before ftl_ (construction order): the FTL registers its own
  /// metrics into this registry.
  MetricsRegistry metrics_;
  FlashArray flash_;
  Ftl ftl_;

  ResourceTimeline bus_;   ///< Half-duplex host link (SATA).
  ResourceTimeline fw_;    ///< Firmware command pipeline.
  ResourceTimeline ncq_;   ///< Command-queue slots.

  std::unordered_map<Lpn, CacheEntry> cache_;
  std::deque<Lpn> cache_fifo_;
  /// Completion times of scheduled destages (frame accounting).
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      outstanding_;
  /// An unpaired 4KB sector awaiting a partner for an 8KB program (legacy
  /// eager mode only; the scheduler pairs at drain time instead).
  bool has_pending_half_ = false;
  Lpn pending_half_lpn_ = kInvalidLpn;
  /// Lazy destage scheduler (UseScheduler(); no-op in legacy eager mode).
  DestageScheduler scheduler_;

  /// One appended log segment: where its header and data pages landed.
  /// The simulator keeps this directory in controller RAM as the scan
  /// index; recovery still reads and checksums the on-media header, so a
  /// torn or reused segment is detected by content, not bookkeeping.
  struct LogSegmentRec {
    uint64_t seq = 0;
    Ppn header_ppn = 0;
    std::vector<Ppn> data_ppns;
    uint32_t sectors = 0;
  };
  /// Segments not yet known-persistent (cleared by clean shutdown and
  /// after recovery validation), newest at the back. Bounded by one full
  /// lap of the log region — anything older has been overwritten.
  std::deque<LogSegmentRec> log_dir_;
  uint64_t log_seq_ = 0;
  /// Resolved segment size (data pages; 0 when log mode is off).
  uint32_t log_segment_pages_ = 0;

  bool powered_ = true;
  bool emergency_shutdown_ = false;
  SimTime max_time_seen_ = 0;
  /// Ordered NCQ: acknowledgement time of the last write command, used to
  /// clamp acks monotone in submission order (see ordered_writes()).
  SimTime last_ordered_ack_ = 0;
  /// Submission sequence number of write commands (ordering invariant).
  uint64_t write_seq_ = 0;
  /// Barrier epochs. Zero until the first BARRIER arrives, so the epoch
  /// machinery is inert (bit-for-bit identical timing) on hosts that never
  /// submit barriers. A BARRIER seals epoch N by raising the ack floor to
  /// the sealed epoch's last ack and bumping cur_epoch_; later writes clamp
  /// their ack to the floor, making acks epoch-monotone.
  uint64_t cur_epoch_ = 0;
  SimTime epoch_floor_ack_ = 0;  ///< Max ack of all sealed epochs.
  SimTime epoch_max_ack_ = 0;    ///< Max ack within the open epoch.
  uint64_t epoch_writes_ = 0;    ///< Write commands in the open epoch.
  SimTime last_flush_start_ = -1;
  SimTime last_flush_done_ = -1;
  /// Recent FLUSH CACHE service windows (reads arriving inside one wait).
  std::deque<std::pair<SimTime, SimTime>> flush_windows_;
  /// Logical dump contents in timing-only mode (store_data == false).
  std::vector<Lpn> dump_lpns_timing_only_;
  uint32_t dump_pages_used_ = 0;

  Stats stats_;

  Tracer* tracer_ = nullptr;
  /// Registered per-layer latency histograms (always non-null).
  Histogram* h_ncq_wait_ns_;
  Histogram* h_bus_ns_;
  Histogram* h_fw_ns_;
  Histogram* h_frame_stall_ns_;
  Histogram* h_destage_ns_;
  Histogram* h_flush_drain_ns_;
  MetricCounter* c_degraded_rejects_;
  MetricCounter* c_destage_absorbed_;  ///< "ssd.destage_absorbed" counter.
  MetricCounter* c_barriers_;          ///< "ssd.barriers" counter.
  MetricCounter* c_cache_read_sectors_;  ///< "ssd.cache_read_sectors" (hits).
  MetricCounter* c_cache_read_misses_;   ///< "ssd.cache_read_misses".
  MetricCounter* c_log_segments_;        ///< "ssd.log_segments" counter.
  Histogram* h_epoch_size_;  ///< Writes per sealed epoch ("ssd.epoch_size").
  Histogram* h_qd_;  ///< In-flight depth at each submission ("ssd.qd").
};

}  // namespace durassd

#endif  // DURASSD_SSD_SSD_DEVICE_H_
