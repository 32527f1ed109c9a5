// Striped group commit under power cuts: a 60-instant sweep asserting that
// (a) every commit acknowledgeable at the cut — CSN at or below the
// watermark — is recovered intact, and (b) the recovered watermark never
// runs ahead of any stripe's durable prefix (recovery discards everything
// at and past the first CSN gap).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/io_context.h"
#include "db/striped_wal.h"
#include "host/sim_file.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint32_t kStripes = 4;

WalRecord Put(TxnId txn, const std::string& key, const std::string& value) {
  WalRecord r;
  r.type = WalRecordType::kPut;
  r.txn = txn;
  r.tree = 1;
  r.key = key;
  r.value = value;
  return r;
}

std::vector<WalRecord> CommitPayload(uint64_t i) {
  return {Put(i, "key-" + std::to_string(i), "value-" + std::to_string(i)),
          Put(i, "key2-" + std::to_string(i), std::string(100, 'x'))};
}

struct AckedCommit {
  uint64_t csn;
  uint32_t stripe;
  SimTime acked_at;  ///< Instant the watermark reached this CSN.
};

/// Runs `max_commits` round-robin striped commits on a fresh stack,
/// stopping at the first commit issued at or after `stop_issuing_at`
/// (0 = run everything). Fills `acked` in watermark-ack order.
void RunCommitHistory(SimFileSystem* fs, uint64_t max_commits,
                      SimTime stop_issuing_at,
                      std::vector<AckedCommit>* acked, SimTime* end) {
  StripedWal::Options opts;
  opts.stripes = kStripes;
  StripedWal swal(fs, opts);
  acked->clear();
  IoContext io;
  uint64_t prev_wm = 0;
  for (uint64_t i = 1; i <= max_commits; ++i) {
    if (stop_issuing_at != 0 && io.now >= stop_issuing_at) break;
    const uint32_t stripe = static_cast<uint32_t>(i % kStripes);
    auto t = swal.Commit(io, stripe, CommitPayload(i));
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    // Single-threaded: the watermark advances exactly to this CSN.
    const uint64_t wm = swal.watermark();
    EXPECT_EQ(wm, t->csn);
    for (uint64_t c = prev_wm + 1; c <= wm; ++c) {
      acked->push_back({c, stripe, io.now});
    }
    prev_wm = wm;
  }
  *end = io.now;
}

class StripedWalCutSweep : public ::testing::TestWithParam<int> {};

// 60 cut points spread across the run (fractions 1/61 .. 60/61, off-grid).
INSTANTIATE_TEST_SUITE_P(CutPoints, StripedWalCutSweep,
                         ::testing::Range(1, 61));

TEST_P(StripedWalCutSweep, AckedCommitsSurviveAndWatermarkNeverRunsAhead) {
  SsdConfig config = SsdConfig::Tiny(true);  // Durable cache (DuraSSD).
  config.geometry.blocks_per_plane = 128;

  // Probe pass: learn the full run's duration.
  SimTime total = 0;
  {
    SsdDevice dev(config);
    SimFileSystem fs(&dev, SimFileSystem::Options{});
    std::vector<AckedCommit> ignored;
    RunCommitHistory(&fs, 64, 0, &ignored, &total);
  }
  ASSERT_GT(total, 0);
  const SimTime cut = total * GetParam() / 61 + GetParam();  // Off-grid.

  // Real pass: same deterministic history, stop issuing at the cut.
  SsdDevice dev(config);
  SimFileSystem fs(&dev, SimFileSystem::Options{});
  SimTime end = 0;
  std::vector<AckedCommit> acked;
  RunCommitHistory(&fs, 64, cut, &acked, &end);

  // The last commit issued before the cut may have completed past it;
  // power can only be cut at the execution frontier.
  dev.PowerCut(std::max(cut, end));
  dev.PowerOn();

  // Recover on a fresh StripedWal over the surviving files.
  StripedWal::Options opts;
  opts.stripes = kStripes;
  StripedWal recovered(&fs, opts);
  IoContext rio;
  std::vector<StripedWal::RecoveredCommit> commits;
  ASSERT_TRUE(recovered.Recover(rio, &commits).ok());

  // Recovered commits are a contiguous CSN prefix == the watermark.
  for (size_t i = 0; i < commits.size(); ++i) {
    EXPECT_EQ(commits[i].csn, i + 1);
  }
  EXPECT_EQ(recovered.watermark(), commits.size());

  // (a) Every commit acknowledged (watermark-covered) before the cut
  // survived with its exact payload.
  for (const AckedCommit& a : acked) {
    if (a.acked_at > cut) continue;
    ASSERT_LE(a.csn, commits.size())
        << "acked csn " << a.csn << " lost at cut " << cut;
    const StripedWal::RecoveredCommit& rc = commits[a.csn - 1];
    const std::vector<WalRecord> want = CommitPayload(a.csn);
    ASSERT_EQ(rc.records.size(), want.size()) << "csn " << a.csn;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(rc.records[i].key, want[i].key) << "csn " << a.csn;
      EXPECT_EQ(rc.records[i].value, want[i].value) << "csn " << a.csn;
    }
  }

  // The recovered log accepts new commits and numbering resumes right
  // after the recovered prefix.
  auto t = recovered.Commit(rio, 0, CommitPayload(999));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->csn, commits.size() + 1);
  EXPECT_EQ(recovered.watermark(), t->csn);
}

/// The live watermark never runs ahead of the weakest stripe's durable
/// prefix: a commit appended (written out) but not yet synced on stripe 1
/// pins the watermark even while later CSNs on stripe 0 become durable.
TEST(StripedWalTest, WatermarkHoldsBehindWeakestStripe) {
  SsdConfig config = SsdConfig::Tiny(true);
  config.geometry.blocks_per_plane = 128;
  SsdDevice dev(config);
  SimFileSystem fs(&dev, SimFileSystem::Options{});

  StripedWal::Options opts;
  opts.stripes = 2;
  StripedWal swal(&fs, opts);
  IoContext io;

  auto c1 = swal.Commit(io, 0, CommitPayload(1));  // csn 1: durable.
  ASSERT_TRUE(c1.ok());
  auto c2 = swal.Append(io, 1, CommitPayload(2));  // csn 2: sync in flight.
  ASSERT_TRUE(c2.ok());
  auto c3 = swal.Commit(io, 0, CommitPayload(3));  // csn 3: durable.
  ASSERT_TRUE(c3.ok());
  EXPECT_EQ(c1->csn, 1u);
  EXPECT_EQ(*c2, 2u);
  EXPECT_EQ(c3->csn, 3u);
  // csn 2 not durable => the watermark holds at 1 despite csn 3 durable:
  // neither 2 nor 3 is acknowledgeable yet.
  EXPECT_EQ(swal.watermark(), 1u);
  EXPECT_EQ(swal.last_csn(), 3u);

  // Stripe 1's leader sync lands: the watermark drains through the gap.
  ASSERT_TRUE(swal.SyncStripe(io, 1).ok());
  EXPECT_EQ(swal.watermark(), 3u);
}

/// Manufactures a real CSN gap across reboots: stripe 1's segment is lost
/// wholesale while a later CSN on stripe 0 is fully durable. Recovery must
/// discard the stranded higher CSN, physically truncate it, and resume
/// numbering at the watermark so the reissued CSN resolves only to the new
/// commit — never resurrecting the discarded one.
TEST(StripedWalTest, GapDiscardsEverythingPastIt) {
  SsdConfig config = SsdConfig::Tiny(true);
  config.geometry.blocks_per_plane = 128;
  SsdDevice dev(config);
  SimFileSystem fs(&dev, SimFileSystem::Options{});

  StripedWal::Options opts;
  opts.stripes = 2;
  {
    StripedWal swal(&fs, opts);
    IoContext io;
    ASSERT_TRUE(swal.Commit(io, 0, CommitPayload(1)).ok());  // csn 1.
    ASSERT_TRUE(swal.Commit(io, 1, CommitPayload(2)).ok());  // csn 2.
    ASSERT_TRUE(swal.Commit(io, 0, CommitPayload(3)).ok());  // csn 3.
    EXPECT_EQ(swal.watermark(), 3u);
  }
  // Stripe 1 dies: its segment (holding csn 2) is gone.
  ASSERT_TRUE(fs.Remove("swal.1").ok());

  StripedWal recovered(&fs, opts);
  IoContext rio;
  std::vector<StripedWal::RecoveredCommit> commits;
  ASSERT_TRUE(recovered.Recover(rio, &commits).ok());
  // Only csn 1 survives; csn 3 is durable on stripe 0 but stranded past
  // the gap left by csn 2 — discarded, and the watermark holds at 1.
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].csn, 1u);
  EXPECT_EQ(recovered.watermark(), 1u);

  // Numbering resumes at the watermark; the dead csn-3 bytes were
  // truncated from stripe 0, so the reissued CSN 2 is unambiguous.
  auto t = recovered.Commit(rio, 1, CommitPayload(777));
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->csn, 2u);
  EXPECT_EQ(recovered.watermark(), 2u);

  // A further reboot sees {1, new 2} and nothing else: the discarded csn 3
  // was not resurrected when the numeric gap closed.
  StripedWal again(&fs, opts);
  IoContext rio2;
  std::vector<StripedWal::RecoveredCommit> commits2;
  ASSERT_TRUE(again.Recover(rio2, &commits2).ok());
  ASSERT_EQ(commits2.size(), 2u);
  EXPECT_EQ(commits2[0].csn, 1u);
  EXPECT_EQ(commits2[1].csn, 2u);
  const std::vector<WalRecord> want = CommitPayload(777);
  ASSERT_EQ(commits2[1].records.size(), want.size());
  EXPECT_EQ(commits2[1].records[0].key, want[0].key);
  EXPECT_EQ(commits2[1].records[0].value, want[0].value);
  EXPECT_EQ(again.watermark(), 2u);
}

}  // namespace
}  // namespace durassd
