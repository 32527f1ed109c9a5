#include "db/striped_wal.h"

#include <algorithm>
#include <cassert>

namespace durassd {

StripedWal::StripedWal(SimFileSystem* fs, Options options)
    : fs_(fs), opts_(std::move(options)) {
  const uint32_t n = std::max<uint32_t>(opts_.stripes, 1);
  Wal::Options wal_opts = opts_.wal;
  wal_opts.metrics = nullptr;  // Stripes share no registry.
  stripes_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    auto st = std::make_unique<Stripe>();
    st->file = fs_->Open(opts_.base_name + "." + std::to_string(i));
    st->wal = std::make_unique<Wal>(st->file, wal_opts);
    stripes_.push_back(std::move(st));
  }
}

StatusOr<uint64_t> StripedWal::Append(IoContext& io, uint32_t stripe,
                                      const std::vector<WalRecord>& records) {
  Stripe& st = *stripes_[stripe % stripes_.size()];
  const uint64_t csn = ++next_csn_;
  for (const WalRecord& r : records) {
    assert(r.type != WalRecordType::kCommit);
    st.wal->Append(r);
  }
  WalRecord marker;
  marker.type = WalRecordType::kCommit;
  marker.txn = csn;
  st.wal->Append(marker);
  st.appends++;
  // Write out (no fsync): the state of a commit whose flush is in flight.
  DURASSD_RETURN_IF_ERROR(st.wal->WriteOut(io));
  st.undurable.push_back(csn);
  return csn;
}

Status StripedWal::SyncStripe(IoContext& io, uint32_t stripe) {
  Stripe& st = *stripes_[stripe % stripes_.size()];
  const Lsn target = st.wal->next_lsn();
  const Wal::Stats before = st.wal->stats();
  DURASSD_RETURN_IF_ERROR(st.wal->SyncTo(io, target));
  const Wal::Stats& after = st.wal->stats();
  st.syncs += after.syncs - before.syncs;
  st.rides += after.group_rides - before.group_rides;
  st.durable_lsn = std::max(st.durable_lsn, target);
  // The stripe log is a prefix log: this sync covers every earlier append.
  while (!st.undurable.empty()) {
    MarkDurable(st.undurable.front());
    st.undurable.pop_front();
  }
  return Status::OK();
}

StatusOr<StripedWal::CommitTicket> StripedWal::Commit(
    IoContext& io, uint32_t stripe, const std::vector<WalRecord>& records) {
  StatusOr<uint64_t> csn_or = Append(io, stripe, records);
  if (!csn_or.ok()) return csn_or.status();
  DURASSD_RETURN_IF_ERROR(SyncStripe(io, stripe));
  stripes_[stripe % stripes_.size()]->commits++;
  CommitTicket t;
  t.csn = *csn_or;
  t.durable_at = io.now;
  return t;
}

void StripedWal::MarkDurable(uint64_t csn) {
  if (csn != watermark_ + 1) {
    durable_above_.insert(csn);
    return;
  }
  watermark_ = csn;
  // Drain any now-contiguous out-of-order frontier.
  auto it = durable_above_.begin();
  while (it != durable_above_.end() && *it == watermark_ + 1) {
    watermark_ = *it;
    it = durable_above_.erase(it);
  }
}

Lsn StripedWal::stripe_durable_lsn(uint32_t stripe) const {
  const Stripe& st = *stripes_[stripe % stripes_.size()];
  return st.durable_lsn;
}

Status StripedWal::Recover(IoContext& io, std::vector<RecoveredCommit>* out) {
  out->clear();

  // Parsed per-stripe state: commit groups (with the byte offset of each
  // group's first frame) and where the well-formed prefix ends.
  struct ParsedCommit {
    RecoveredCommit commit;
    Lsn start_lsn = 0;
  };
  std::vector<std::vector<ParsedCommit>> parsed(stripes_.size());
  std::vector<Lsn> trailing_start(stripes_.size(), 0);
  std::vector<Lsn> end_lsn(stripes_.size(), 0);

  for (uint32_t i = 0; i < stripes_.size(); ++i) {
    Stripe& st = *stripes_[i];
    std::vector<WalRecord> records;
    DURASSD_RETURN_IF_ERROR(st.wal->ReadFrom(io, 0, st.wal->generation(),
                                             &records, &end_lsn[i]));
    std::vector<WalRecord> batch;
    Lsn batch_start = end_lsn[i];
    bool in_batch = false;
    for (WalRecord& r : records) {
      if (!in_batch) {
        batch_start = r.lsn;
        in_batch = true;
      }
      if (r.type == WalRecordType::kCommit) {
        ParsedCommit pc;
        pc.commit.csn = r.txn;
        pc.commit.stripe = i;
        pc.commit.records = std::move(batch);
        pc.start_lsn = batch_start;
        parsed[i].push_back(std::move(pc));
        batch.clear();
        in_batch = false;
      } else {
        batch.push_back(std::move(r));
      }
    }
    // A trailing batch without its marker is a commit whose marker frame
    // never survived: dead from the first record on.
    trailing_start[i] = in_batch ? batch_start : end_lsn[i];
  }

  // Merge by CSN and keep only the contiguous prefix: a gap means a
  // lower-CSN commit on another stripe was lost, and nothing at or above
  // the gap was ever acknowledgeable.
  std::vector<const ParsedCommit*> all;
  uint64_t max_seen = 0;
  for (const auto& stripe_commits : parsed) {
    for (const ParsedCommit& pc : stripe_commits) {
      all.push_back(&pc);
      max_seen = std::max(max_seen, pc.commit.csn);
    }
  }
  std::sort(all.begin(), all.end(),
            [](const ParsedCommit* a, const ParsedCommit* b) {
              return a->commit.csn < b->commit.csn;
            });
  uint64_t wm = 0;
  for (const ParsedCommit* pc : all) {
    if (pc->commit.csn != wm + 1) break;
    wm = pc->commit.csn;
    out->push_back(pc->commit);
  }

  // Truncate every stripe's dead suffix (commits past the gap and the
  // trailing unmarked batch). Without this, a later commit could close the
  // CSN gap by accident and resurrect a commit that recovery already
  // discarded. Note: truncating to a mid-sector offset re-exposes the
  // synced-sector rewrite hazard on torn-write devices (Wal pads only on
  // sync); the paper's durable-cache device is immune.
  for (uint32_t i = 0; i < stripes_.size(); ++i) {
    Stripe& st = *stripes_[i];
    Lsn keep_end = trailing_start[i];
    for (const ParsedCommit& pc : parsed[i]) {
      if (pc.commit.csn > wm) {
        keep_end = std::min(keep_end, pc.start_lsn);
        break;  // Per-stripe CSNs are append-ordered; the rest is dead too.
      }
    }
    if (keep_end < end_lsn[i]) {
      DURASSD_RETURN_IF_ERROR(st.wal->TruncateTail(keep_end));
    }
    st.wal->ResumeAt(keep_end, st.wal->generation());
    st.durable_lsn = keep_end;
    st.undurable.clear();
  }

  durable_above_.clear();
  watermark_ = wm;
  // Resume numbering at the watermark. CSNs past the gap are dead and will
  // never become durable, so skipping them would wedge the watermark
  // forever; reusing them is safe exactly because their bytes were
  // truncated above — a reissued CSN can only ever resolve to the new
  // commit, never the discarded one.
  next_csn_ = wm;
  return Status::OK();
}

StripedWal::Stats StripedWal::stats() const {
  Stats total;
  for (const auto& sp : stripes_) {
    total.commits += sp->commits;
    total.appends += sp->appends;
    total.stripe_syncs += sp->syncs;
    total.group_rides += sp->rides;
  }
  return total;
}

}  // namespace durassd
