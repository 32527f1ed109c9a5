#ifndef DURASSD_DB_STRIPED_WAL_H_
#define DURASSD_DB_STRIPED_WAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/io_context.h"
#include "db/wal.h"
#include "host/sim_file.h"

namespace durassd {

/// Striped group commit: N independent WAL segments, each its own Wal over
/// its own file, so each stripe's fsyncs proceed independently. A global
/// commit sequence number (CSN) totally orders commits across stripes; the
/// *watermark* is the largest CSN W such that every commit with CSN <= W is
/// durable on its stripe. Only commits at or below the watermark may be
/// acknowledged upstream: a commit above it can still be lost to a power cut
/// (its CSN predecessor on another stripe may not be durable yet), and
/// recovery discards everything past the first CSN gap to keep the
/// acknowledged history prefix-consistent.
///
/// Group commit per stripe: the underlying Wal's sync window lets commits
/// ride an in-flight flush instead of issuing their own (the leader pays
/// the fsync, the followers ride — Wal::Stats group accounting applies per
/// stripe).
///
/// Thread safety: none. Like the rest of a simulation stack (DESIGN.md §13)
/// a StripedWal and the file system under it are driven by one thread.
class StripedWal {
 public:
  struct Options {
    uint32_t stripes = 4;
    /// Per-stripe framing/durability options. `metrics` is ignored (forced
    /// null): stripes share no registry.
    Wal::Options wal;
    /// Stripe files are named "<base>.<i>".
    std::string base_name = "swal";
  };

  struct CommitTicket {
    uint64_t csn = 0;
    /// Virtual instant the commit's covering fsync completed.
    SimTime durable_at = 0;
  };

  /// One durable commit group reassembled by Recover, in CSN order.
  struct RecoveredCommit {
    uint64_t csn = 0;
    uint32_t stripe = 0;
    std::vector<WalRecord> records;
  };

  struct Stats {
    uint64_t commits = 0;        ///< Durable commits (Commit returns).
    uint64_t appends = 0;        ///< Append calls (incl. Commit's).
    uint64_t stripe_syncs = 0;   ///< Device syncs paid by some leader.
    uint64_t group_rides = 0;    ///< Commits that rode a stripe's window.
  };

  /// Opens (or reopens, after a crash) the stripe files under `fs`.
  StripedWal(SimFileSystem* fs, Options options);

  StripedWal(const StripedWal&) = delete;
  StripedWal& operator=(const StripedWal&) = delete;

  uint32_t stripes() const { return static_cast<uint32_t>(stripes_.size()); }

  /// Appends `records` plus a commit marker to `stripe` (mod stripes) and
  /// writes them out to the stripe file WITHOUT waiting for durability —
  /// the state of a commit whose fsync is still in flight. Returns the
  /// allocated CSN. `records` must not contain kCommit markers.
  StatusOr<uint64_t> Append(IoContext& io, uint32_t stripe,
                            const std::vector<WalRecord>& records);

  /// Makes everything appended to `stripe` durable (the leader fsync; may
  /// resolve as a ride of the stripe's in-flight sync window) and advances
  /// the watermark over the stripe's newly durable CSNs.
  Status SyncStripe(IoContext& io, uint32_t stripe);

  /// Append + SyncStripe: the group-commit path. On return the commit is
  /// durable on its stripe; it is *acknowledgeable* only once
  /// watermark() >= ticket.csn.
  StatusOr<CommitTicket> Commit(IoContext& io, uint32_t stripe,
                                const std::vector<WalRecord>& records);

  /// Largest CSN with every predecessor durable.
  uint64_t watermark() const { return watermark_; }
  /// Last allocated CSN (>= watermark).
  uint64_t last_csn() const { return next_csn_; }

  /// Largest byte offset of `stripe` covered by a completed fsync.
  Lsn stripe_durable_lsn(uint32_t stripe) const;

  /// Post-crash: reads every stripe's durable prefix, reassembles commit
  /// groups, merges them in CSN order, and discards everything at and past
  /// the first CSN gap (a gap means a lower-CSN commit on another stripe
  /// was lost — commits above it were never acknowledgeable). Discarded
  /// suffixes are physically truncated from their stripes and CSN
  /// numbering resumes at the watermark: reissued CSNs can only resolve to
  /// new commits, and the watermark never wedges behind dead numbers.
  /// Rebuilds the watermark and positions every stripe for further
  /// appends. Call on a freshly constructed StripedWal over the surviving
  /// files.
  Status Recover(IoContext& io, std::vector<RecoveredCommit>* out);

  Stats stats() const;

 private:
  struct Stripe {
    SimFile* file = nullptr;
    std::unique_ptr<Wal> wal;
    /// CSNs appended (written out) but not yet covered by a sync, in
    /// append order. A sync drains the whole queue: the stripe log is a
    /// prefix log, so a sync covers every earlier append.
    std::deque<uint64_t> undurable;
    Lsn durable_lsn = 0;
    uint64_t commits = 0;
    uint64_t appends = 0;
    uint64_t syncs = 0;
    uint64_t rides = 0;
  };

  /// Marks `csn` durable and advances the watermark over any now-contiguous
  /// prefix.
  void MarkDurable(uint64_t csn);

  SimFileSystem* fs_;
  Options opts_;
  std::vector<std::unique_ptr<Stripe>> stripes_;

  uint64_t next_csn_ = 0;
  uint64_t watermark_ = 0;
  /// Durable CSNs above the watermark (the out-of-order frontier).
  std::set<uint64_t> durable_above_;
};

}  // namespace durassd

#endif  // DURASSD_DB_STRIPED_WAL_H_
