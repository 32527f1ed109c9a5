#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "flash/flash_array.h"
#include "ssd/ftl.h"

namespace durassd {
namespace {

class FtlTest : public ::testing::Test {
 protected:
  FtlTest()
      : flash_(FlashArray::Options{FlashGeometry::Tiny(), true}),
        ftl_(&flash_, Ftl::Options{4 * kKiB, 0.25, 2}) {}

  std::string SectorData(char fill) const { return std::string(4 * kKiB, fill); }

  Status WriteOne(SimTime now, Lpn lpn, const std::string& data,
                  SimTime* done = nullptr) {
    SimTime start = 0;
    SimTime d = 0;
    std::vector<Ftl::SectorWrite> w{{lpn, &data}};
    Status s = ftl_.ProgramSectors(now, w, &start, &d);
    if (done != nullptr) *done = d;
    return s;
  }

  /// Issues `writes` one-sector writes round-robin over the 20 LPNs from
  /// `first` (300 writes run GC on every plane); returns the completion
  /// time of the last one. As 20 is a multiple of the 4 planes, each LPN
  /// always lands on the same plane.
  SimTime Churn(SimTime t, Lpn first, int writes) {
    for (int i = 0; i < writes; ++i) {
      SimTime done = 0;
      EXPECT_TRUE(WriteOne(t, first + i % 20, SectorData('z'), &done).ok());
      t = done;
    }
    return t;
  }

  bool IsDirty(Lpn lpn) const {
    const std::vector<Lpn> dirty = ftl_.DirtyMappingLpns();
    return std::find(dirty.begin(), dirty.end(), lpn) != dirty.end();
  }

  FlashArray flash_;
  Ftl ftl_;
};

TEST_F(FtlTest, UnmappedSectorReadsZerosInstantly) {
  std::string out;
  SimTime done = 0;
  ASSERT_TRUE(ftl_.ReadSector(123, 5, &out, &done).ok());
  EXPECT_EQ(done, 123);  // No media access for unmapped sectors.
  EXPECT_EQ(out, std::string(4 * kKiB, '\0'));
  EXPECT_FALSE(ftl_.IsMapped(5));
}

TEST_F(FtlTest, WriteReadRoundTrip) {
  const std::string data = SectorData('a');
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 7, data, &done).ok());
  EXPECT_TRUE(ftl_.IsMapped(7));

  std::string out;
  ftl_.ReadSector(done, 7, &out);
  EXPECT_EQ(out, data);
}

TEST_F(FtlTest, PairsTwoSectorsIntoOneProgram) {
  const std::string a = SectorData('a');
  const std::string b = SectorData('b');
  SimTime start = 0, done = 0;
  std::vector<Ftl::SectorWrite> w{{10, &a}, {11, &b}};
  ASSERT_TRUE(ftl_.ProgramSectors(0, w, &start, &done).ok());
  EXPECT_EQ(flash_.stats().programs, 1u);  // One 8KB program for both.

  std::string out;
  ftl_.ReadSector(done, 10, &out);
  EXPECT_EQ(out, a);
  ftl_.ReadSector(done, 11, &out);
  EXPECT_EQ(out, b);
}

TEST_F(FtlTest, OverwriteSupersedesOldVersion) {
  ASSERT_TRUE(WriteOne(0, 3, SectorData('1')).ok());
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(kMillisecond, 3, SectorData('2'), &done).ok());
  std::string out;
  ftl_.ReadSector(done, 3, &out);
  EXPECT_EQ(out, SectorData('2'));
}

TEST_F(FtlTest, RejectsLpnBeyondCapacity) {
  SimTime start = 0, done = 0;
  const std::string d = SectorData('x');
  std::vector<Ftl::SectorWrite> w{{ftl_.logical_sectors(), &d}};
  EXPECT_FALSE(ftl_.ProgramSectors(0, w, &start, &done).ok());
}

TEST_F(FtlTest, RejectsOversizedGroup) {
  const std::string d = SectorData('x');
  std::vector<Ftl::SectorWrite> w{{0, &d}, {1, &d}, {2, &d}};
  SimTime start = 0, done = 0;
  EXPECT_FALSE(ftl_.ProgramSectors(0, w, &start, &done).ok());
}

TEST_F(FtlTest, GarbageCollectionReclaimsSpaceUnderOverwrites) {
  // Working set far below logical capacity, overwritten many times: the FTL
  // must GC and never run out of space.
  const uint64_t hot = 16;
  SimTime t = 0;
  for (int round = 0; round < 200; ++round) {
    for (uint64_t l = 0; l < hot; ++l) {
      SimTime done = 0;
      ASSERT_TRUE(WriteOne(t, l, SectorData('A' + (round % 26)), &done).ok())
          << "round " << round << " lpn " << l;
      t = done;
    }
  }
  EXPECT_GT(ftl_.stats().gc_runs, 0u);
  EXPECT_GT(ftl_.stats().gc_erases, 0u);

  // All hot sectors still readable with the latest content.
  for (uint64_t l = 0; l < hot; ++l) {
    std::string out;
    ftl_.ReadSector(t, l, &out);
    EXPECT_EQ(out, SectorData('A' + (199 % 26)));
  }
}

TEST_F(FtlTest, GcPreservesEveryLiveSector) {
  // Fill a large fraction of logical space with distinct contents, then
  // overwrite half; verify everything after GC activity.
  const uint64_t n = ftl_.logical_sectors() / 2;
  SimTime t = 0;
  for (uint64_t l = 0; l < n; ++l) {
    SimTime done = 0;
    ASSERT_TRUE(WriteOne(t, l, SectorData('a' + l % 26), &done).ok());
    t = done;
  }
  for (uint64_t l = 0; l < n; l += 2) {
    SimTime done = 0;
    ASSERT_TRUE(WriteOne(t, l, SectorData('A' + l % 26), &done).ok());
    t = done;
  }
  for (uint64_t l = 0; l < n; ++l) {
    std::string out;
    ftl_.ReadSector(t, l, &out);
    EXPECT_EQ(out[0], l % 2 == 0 ? 'A' + static_cast<char>(l % 26)
                                 : 'a' + static_cast<char>(l % 26))
        << "lpn " << l;
  }
}

// --------------------------- Mapping persistence --------------------------

TEST_F(FtlTest, RollbackRevertsUnpersistedWrites) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 1, SectorData('o'), &done).ok());
  ftl_.PersistMapping();  // 'o' is now stable.

  ASSERT_TRUE(WriteOne(done, 1, SectorData('n'), &done).ok());
  EXPECT_EQ(ftl_.dirty_mapping_entries(), 1u);

  ftl_.PowerCutRollback(done + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 1, &out);
  EXPECT_EQ(out, SectorData('o'));  // Lost write: old data visible.
  EXPECT_EQ(ftl_.dirty_mapping_entries(), 0u);
}

TEST_F(FtlTest, RollbackUnmapsNeverPersistedSector) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 9, SectorData('x'), &done).ok());
  ftl_.PowerCutRollback(done + kSecond, Ftl::PowerCutExposure::kNone);
  EXPECT_FALSE(ftl_.IsMapped(9));
  std::string out;
  ftl_.ReadSector(0, 9, &out);
  EXPECT_EQ(out, SectorData('\0'));
}

TEST_F(FtlTest, ExposeStartedKeepsInFlightMapping) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 4, SectorData('t'), &done).ok());
  // Cut in the middle of the program with the expose flag (the commodity-SSD
  // anomaly): the mapping keeps pointing at the torn page.
  flash_.PowerCut(done - 10);
  ftl_.PowerCutRollback(done - 10, Ftl::PowerCutExposure::kStarted);

  EXPECT_TRUE(ftl_.IsMapped(4));
  std::string out;
  bool torn = false;
  ftl_.ReadSector(0, 4, &out, nullptr, &torn);
  EXPECT_TRUE(torn);
  // First half new, second half shorn.
  EXPECT_EQ(out.substr(0, 2 * kKiB), std::string(2 * kKiB, 't'));
  EXPECT_EQ(out.substr(2 * kKiB), std::string(2 * kKiB, '\0'));
}

TEST_F(FtlTest, RollbackAfterOverwriteRestoresPersistedVersion) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 2, SectorData('p'), &done).ok());
  ftl_.PersistMapping();
  // Two unpersisted overwrites.
  ASSERT_TRUE(WriteOne(done, 2, SectorData('q'), &done).ok());
  ASSERT_TRUE(WriteOne(done, 2, SectorData('r'), &done).ok());

  ftl_.PowerCutRollback(done + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 2, &out);
  EXPECT_EQ(out, SectorData('p'));
}

TEST_F(FtlTest, GcForcesPersistenceOfReclaimedRollbackTargets) {
  // Persist a version, then churn enough to force the old physical page
  // through GC. Rollback must NOT resurrect a mapping into an erased block.
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 0, SectorData('v'), &done).ok());  // Plane 0, blk 0.
  ftl_.PersistMapping();
  ASSERT_TRUE(WriteOne(done, 0, SectorData('w'), &done).ok());

  const SimTime t = Churn(done, 1, 300);
  ASSERT_GT(flash_.erase_count(0, 0), 0u);  // The block holding 'v' is gone.
  EXPECT_GE(ftl_.stats().forced_persists, 1u);
  EXPECT_FALSE(IsDirty(0));

  ftl_.PowerCutRollback(t + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 0, &out);
  EXPECT_EQ(out, SectorData('w'));
}

TEST_F(FtlTest, GcLeavesRollbackTargetsOutsideTheVictim) {
  // Fill block 0 of every plane with cold data (lpn l lands on plane l % 4)
  // and persist it. Overwriting lpn 0 leaves seven live pages in plane 0's
  // block 0, more than any hot block holds, so GC never picks it.
  SimTime t = 0;
  for (Lpn l = 0; l < 32; ++l) {
    ASSERT_TRUE(WriteOne(t, l, SectorData('c'), &t).ok());
  }
  ftl_.PersistMapping();
  ASSERT_TRUE(WriteOne(t, 0, SectorData('n'), &t).ok());

  t = Churn(t, 100, 300);
  ASSERT_GT(ftl_.stats().gc_erases, 0u);
  ASSERT_EQ(flash_.erase_count(0, 0), 0u);
  EXPECT_EQ(ftl_.stats().forced_persists, 0u);
  EXPECT_TRUE(IsDirty(0));

  ftl_.PowerCutRollback(t + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 0, &out);
  EXPECT_EQ(out, SectorData('c'));  // Lost write: persisted version back.
  EXPECT_FALSE(ftl_.IsMapped(100));  // Never persisted.
}

TEST_F(FtlTest, GcAfterPersistMappingForcesNothing) {
  // Write k lands on plane k % 4. 'v' goes to plane 0's block 0 and 'w' to
  // plane 1's block 0; cold data fills both blocks, then plane 0's cold
  // lpns are rewritten so that only plane 0's block 0 is all dead.
  SimTime t = 0;
  ASSERT_TRUE(WriteOne(t, 0, SectorData('v'), &t).ok());
  ftl_.PersistMapping();
  ASSERT_TRUE(WriteOne(t, 0, SectorData('w'), &t).ok());
  for (Lpn l = 1; l <= 30; ++l) {
    ASSERT_TRUE(WriteOne(t, l, SectorData('c'), &t).ok());
  }
  for (Lpn l = 3; l <= 27; l += 4) {
    ASSERT_TRUE(WriteOne(t, l, SectorData('d'), &t).ok());
  }
  ftl_.PersistMapping();  // 'w' is stable; no entry targets 'v' any more.
  // A fresh entry for the same LPN, whose rollback target is 'w'.
  ASSERT_TRUE(WriteOne(t, 0, SectorData('x'), &t).ok());

  t = Churn(t, 100, 300);
  ASSERT_GT(flash_.erase_count(0, 0), 0u);
  ASSERT_EQ(flash_.erase_count(1, 0), 0u);
  EXPECT_EQ(ftl_.stats().forced_persists, 0u);
  EXPECT_TRUE(IsDirty(0));

  ftl_.PowerCutRollback(t + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 0, &out);
  EXPECT_EQ(out, SectorData('w'));
}

TEST_F(FtlTest, GcAfterPowerCutRollbackForcesNothing) {
  SimTime done = 0;
  ASSERT_TRUE(WriteOne(0, 0, SectorData('v'), &done).ok());  // Plane 0, blk 0.
  ftl_.PersistMapping();
  ASSERT_TRUE(WriteOne(done, 0, SectorData('w'), &done).ok());
  // A durable-cache cut after the program issued keeps 'w' and empties the
  // delta.
  ftl_.PowerCutRollback(done, Ftl::PowerCutExposure::kIssued);
  EXPECT_EQ(ftl_.dirty_mapping_entries(), 0u);

  const SimTime t = Churn(done, 1, 300);
  ASSERT_GT(flash_.erase_count(0, 0), 0u);
  EXPECT_EQ(ftl_.stats().forced_persists, 0u);

  ftl_.PowerCutRollback(t + kSecond, Ftl::PowerCutExposure::kNone);
  std::string out;
  ftl_.ReadSector(0, 0, &out);
  EXPECT_EQ(out, SectorData('w'));
}

TEST_F(FtlTest, ForcedPersistCountsEachDeltaEntryOnce) {
  // lpns 0, 4, ..., 28 all have their persisted version in plane 0's
  // block 0. Each is then rewritten three times while still dirty.
  SimTime t = 0;
  for (Lpn l = 0; l < 32; ++l) {
    ASSERT_TRUE(WriteOne(t, l, SectorData('c'), &t).ok());
  }
  ftl_.PersistMapping();
  for (int round = 0; round < 3; ++round) {
    for (Lpn l = 0; l < 32; l += 4) {
      ASSERT_TRUE(WriteOne(t, l, SectorData('a' + round), &t).ok());
    }
  }

  t = Churn(t, 100, 300);
  ASSERT_GT(flash_.erase_count(0, 0), 0u);
  EXPECT_EQ(ftl_.stats().forced_persists, 8u);
  for (Lpn l = 0; l < 32; l += 4) EXPECT_FALSE(IsDirty(l)) << "lpn " << l;

  // Later GC runs find nothing left to force.
  Churn(t, 100, 300);
  EXPECT_EQ(ftl_.stats().forced_persists, 8u);
}

// --------------------------- Dump area ------------------------------------

TEST_F(FtlTest, DumpAreaProgramsAndReadsBack) {
  std::string payload = "dump-entry";
  ASSERT_TRUE(ftl_.ProgramDumpPage(0, payload).ok());
  std::string back;
  ASSERT_TRUE(ftl_.ReadDumpPage(0, &back).ok());
  EXPECT_EQ(back.substr(0, payload.size()), payload);

  const SimTime erased = ftl_.EraseDumpArea(0);
  EXPECT_GT(erased, 0);
  EXPECT_TRUE(ftl_.ProgramDumpPage(0, payload).ok());  // Usable again.
}

TEST_F(FtlTest, DumpAreaIsOutsideNormalAllocation) {
  // Writing the whole logical space must never touch dump blocks.
  SimTime t = 0;
  for (uint64_t l = 0; l < ftl_.logical_sectors(); ++l) {
    SimTime done = 0;
    ASSERT_TRUE(WriteOne(t, l, SectorData('d'), &done).ok());
    t = done;
  }
  ASSERT_TRUE(ftl_.ProgramDumpPage(0, "still-clean").ok());
}

TEST_F(FtlTest, DumpAreaExhaustionReported) {
  EXPECT_TRUE(
      ftl_.ProgramDumpPage(ftl_.dump_area_pages(), "x").IsOutOfSpace());
}

}  // namespace
}  // namespace durassd
