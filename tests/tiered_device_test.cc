#include "tier/tiered_device.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/crash_harness.h"
#include "ssd/ssd_config.h"

namespace durassd {
namespace {

constexpr uint32_t kSs = 4 * kKiB;

std::string SectorData(char fill) { return std::string(kSs, fill); }

/// A small tier for unit tests: ~192 flash cache slots (Tiny geometry)
/// over a 1024-sector (4 MiB) HDD capacity tier.
TieredConfig SmallTier(bool store_data = true) {
  TieredConfig tc;
  tc.flash = SsdConfig::Tiny(/*durable=*/true);
  tc.flash.store_data = store_data;
  tc.capacity_is_hdd = true;
  tc.capacity_hdd.num_sectors = 1024;
  tc.capacity_hdd.write_cache_sectors = 64;
  tc.flash_pct = 25.0;
  tc.destage_batch = 16;
  tc.destage_idle_ns = 500 * kMicrosecond;
  tc.destage_idle_min = 4;
  tc.free_reserve_slots = 8;
  tc.evict_batch = 8;
  return tc;
}

TEST(TieredDevice, ReportsTierProperties) {
  auto tier = MakeTieredDevice(SmallTier());
  EXPECT_EQ(tier->num_sectors(), 1024u);  // Host sees the capacity tier.
  EXPECT_TRUE(tier->supports_atomic_write());
  EXPECT_TRUE(tier->has_durable_cache());
  EXPECT_TRUE(tier->ordered_writes());
  EXPECT_FALSE(tier->supports_barrier());
  EXPECT_GT(tier->cache_slots(), 100u);
  EXPECT_LT(tier->cache_slots(), tier->num_sectors());
  EXPECT_GE(tier->map_ring_pages(), 8u);
}

TEST(TieredDevice, WriteReadRoundTripThroughFlash) {
  auto tier = MakeTieredDevice(SmallTier());
  const auto w = tier->Write(0, 7, SectorData('a'));
  ASSERT_TRUE(w.status.ok());
  std::string out;
  const auto r = tier->Read(w.done, 7, 1, &out);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(out, SectorData('a'));
  EXPECT_EQ(tier->stats().tier_read_hits, 1u);
  EXPECT_EQ(tier->stats().tier_read_misses, 0u);
}

TEST(TieredDevice, UnwrittenSectorsReadZerosFromCapacity) {
  auto tier = MakeTieredDevice(SmallTier());
  std::string out;
  ASSERT_TRUE(tier->Read(0, 500, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('\0'));
  EXPECT_EQ(tier->stats().tier_read_misses, 1u);
}

TEST(TieredDevice, MultiSectorReadMixesHitAndMissRuns) {
  auto tier = MakeTieredDevice(SmallTier());
  SimTime t = 0;
  t = tier->Write(t, 10, SectorData('x')).done;
  t = tier->Write(t, 12, SectorData('y')).done;
  // Sectors 10..13: 10 and 12 are cached, 11 and 13 come from capacity.
  std::string out;
  const auto r = tier->Read(t, 10, 4, &out);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(out.substr(0, kSs), SectorData('x'));
  EXPECT_EQ(out.substr(kSs, kSs), SectorData('\0'));
  EXPECT_EQ(out.substr(2 * kSs, kSs), SectorData('y'));
  EXPECT_EQ(out.substr(3 * kSs, kSs), SectorData('\0'));
  EXPECT_EQ(tier->stats().tier_read_hits, 2u);
  EXPECT_EQ(tier->stats().tier_read_misses, 2u);
}

TEST(TieredDevice, ReadMissAdmitsAndSecondReadHits) {
  auto tier = MakeTieredDevice(SmallTier());
  // Plant data directly on the capacity member (a cold sector).
  auto& cap = tier->capacity_tier();
  SimTime t = cap.Write(0, 42, SectorData('c')).done;
  t = cap.Flush(t).done;

  std::string out;
  const auto r1 = tier->Read(t, 42, 1, &out);
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(out, SectorData('c'));
  EXPECT_EQ(tier->stats().tier_read_misses, 1u);
  EXPECT_EQ(tier->stats().admitted_sectors, 1u);

  const auto r2 = tier->Read(r1.done + kMicrosecond, 42, 1, &out);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(out, SectorData('c'));
  EXPECT_EQ(tier->stats().tier_read_hits, 1u);
  // Flash serves the admitted copy much faster than the disk fetched it.
  EXPECT_LT(r2.done - (r1.done + kMicrosecond), (r1.done - t) / 4);
}

TEST(TieredDevice, GroupDestageCoalescesSortedVictimsIntoOneRun) {
  TieredConfig tc = SmallTier();
  tc.destage_batch = 64;  // No batch trigger below: idle drains instead.
  auto tier = MakeTieredDevice(tc);
  // Dirty 32 contiguous sectors in SHUFFLED order — the LBA-sorted
  // multi-victim round must still reach the disk as one sequential run.
  SimTime t = 0;
  for (int i = 0; i < 32; ++i) {
    const Lpn l = 100 + ((i * 13) % 32);
    const auto w = tier->Write(t, l, SectorData(static_cast<char>('A' + i)));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  ASSERT_EQ(tier->stats().destage_batches, 0u);
  ASSERT_EQ(tier->dirty_slots(), 32u);

  // Go idle past the threshold; the next command entry fires the round.
  const auto r = tier->Read(t + 3 * kMillisecond, 100, 1, nullptr);
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(tier->stats().destage_batches, 1u);
  EXPECT_EQ(tier->stats().destage_sectors, 32u);
  EXPECT_LE(tier->stats().destage_runs, 2u);  // Coalesced, not per-page.
  EXPECT_EQ(tier->dirty_slots(), 0u);
}

TEST(TieredDevice, ShutdownDestagesEverythingToCapacity) {
  auto tier = MakeTieredDevice(SmallTier());
  SimTime t = 0;
  for (Lpn l = 0; l < 24; ++l) {
    const auto w = tier->Write(
        t, l, SectorData(static_cast<char>('a' + static_cast<int>(l))));
    ASSERT_TRUE(w.status.ok());
    t = w.done;
  }
  ASSERT_TRUE(tier->Shutdown(t).ok());
  EXPECT_EQ(tier->dirty_slots(), 0u);
  // The capacity member alone holds every byte (the tier is powered off).
  auto& cap = tier->capacity_tier();
  SimTime tr = cap.PowerOn() + 1;
  for (Lpn l = 0; l < 24; ++l) {
    std::string out;
    const auto r = cap.Read(tr, l, 1, &out);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(out, SectorData(static_cast<char>('a' + static_cast<int>(l))))
        << "lpn " << l;
    tr = r.done;
  }
}

TEST(TieredDevice, EvictionKeepsDirectoryConsistentBeyondCacheSize) {
  auto tier = MakeTieredDevice(SmallTier());
  const uint64_t slots = tier->cache_slots();
  const uint64_t span = slots * 2;  // Twice the cache: forces eviction.
  ASSERT_LE(span, tier->num_sectors());
  SimTime t = 0;
  for (Lpn l = 0; l < span; ++l) {
    const auto w =
        tier->Write(t, l, SectorData(static_cast<char>('a' + (l % 26))));
    ASSERT_TRUE(w.status.ok()) << "lpn " << l;
    t = w.done;
  }
  EXPECT_GT(tier->stats().destage_sectors, 0u);
  EXPECT_GT(tier->stats().evictions, 0u);
  for (Lpn l = 0; l < span; l += 7) {
    std::string out;
    const auto r = tier->Read(t, l, 1, &out);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(out, SectorData(static_cast<char>('a' + (l % 26)))) << l;
    t = r.done;
  }
}

// ---------------------------------------------------------------------------
// Admission bypass (the scan-resistance property)
// ---------------------------------------------------------------------------

TEST(TieredDevice, SequentialScanBypassesAdmissionAndPreservesHitRatio) {
  TieredConfig tc = SmallTier();
  tc.seq_run_sectors = 64;
  auto tier = MakeTieredDevice(tc);

  // Hot set: write (and thereby cache) sectors 0..31, then warm-up reads.
  SimTime t = 0;
  for (Lpn l = 0; l < 32; ++l) {
    t = tier->Write(t, l, SectorData('h')).done;
  }
  for (Lpn l = 0; l < 32; ++l) {
    const auto r = tier->Read(t, l, 1, nullptr);
    ASSERT_TRUE(r.status.ok());
    t = r.done;
  }
  ASSERT_EQ(tier->stats().tier_read_misses, 0u);
  const uint64_t admitted_before = tier->stats().admitted_sectors;

  // A backup-style scan: 64-sector sequential commands over a cold range.
  // Each command's run is already >= seq_run_sectors, so nothing from the
  // scan may be admitted (and nothing hot may be evicted for it).
  for (Lpn l = 256; l < 768; l += 64) {
    const auto r = tier->Read(t, l, 64, nullptr);
    ASSERT_TRUE(r.status.ok());
    t = r.done;
  }
  EXPECT_EQ(tier->stats().admitted_sectors, admitted_before);
  EXPECT_EQ(tier->stats().bypassed_sectors, 512u);

  // The hot set is untouched: re-reads still hit, 100%.
  const uint64_t misses_before = tier->stats().tier_read_misses;
  for (Lpn l = 0; l < 32; ++l) {
    const auto r = tier->Read(t, l, 1, nullptr);
    ASSERT_TRUE(r.status.ok());
    t = r.done;
  }
  EXPECT_EQ(tier->stats().tier_read_misses, misses_before);
}

TEST(TieredDevice, AdmitAllPolicyLetsScansIntoTheCache) {
  // The control arm of the property above: with kAll the identical scan
  // IS admitted (this is what would flush the hot set on a bigger scan).
  TieredConfig tc = SmallTier();
  tc.admission = TieredConfig::Admission::kAll;
  auto tier = MakeTieredDevice(tc);
  SimTime t = 0;
  for (Lpn l = 256; l < 384; l += 64) {
    const auto r = tier->Read(t, l, 64, nullptr);
    ASSERT_TRUE(r.status.ok());
    t = r.done;
  }
  EXPECT_GT(tier->stats().admitted_sectors, 0u);
  EXPECT_EQ(tier->stats().bypassed_sectors, 0u);
}

// ---------------------------------------------------------------------------
// Crash safety
// ---------------------------------------------------------------------------

TEST(TieredDevice, SixtyInstantPowerCutSweepLosesNoAckedSector) {
  int warm_recoveries = 0;
  for (int inst = 0; inst < 60; ++inst) {
    SCOPED_TRACE("instant " + std::to_string(inst));
    auto tier = MakeTieredDevice(SmallTier());

    // Oracle: the tier is atomic + ordered, so a sector must read back its
    // last ACKED value — or a NEWER un-acked overwrite whose journal page
    // happened to become durable before the cut. Never anything older.
    std::map<Lpn, std::string> acked;
    std::map<Lpn, std::vector<std::string>> maybe;
    SimTime t = 0;
    auto put = [&](Lpn l, char tag) {
      const std::string d(kSs, tag);
      const auto w = tier->Write(t, l, d);
      if (w.status.ok()) {
        acked[l] = d;
        maybe[l].clear();
        t = w.done;
      } else {
        maybe[l].push_back(d);
      }
    };

    for (Lpn l = 0; l < 12; ++l) {
      put(l, static_cast<char>('a' + static_cast<int>(l)));
    }
    ASSERT_TRUE(tier->powered());

    const SimTime cut = t + (inst + 1) * 150 * kMicrosecond;
    tier->SchedulePowerCut(cut);
    // Hammer overwrites + fresh sectors until the cut trips; mix in reads
    // so admission and destage state are live when power dies.
    for (int i = 0; i < 400 && tier->powered(); ++i) {
      t += 60 * kMicrosecond;
      put(static_cast<Lpn>(i % 40), static_cast<char>('A' + i % 26));
      if (i % 7 == 0 && tier->powered()) {
        const auto r =
            tier->Read(t, static_cast<Lpn>(200 + i % 16), 1, nullptr);
        if (r.status.ok()) t = r.done;
      }
    }
    if (tier->powered()) {
      tier->CancelScheduledPowerCut();
      tier->PowerCut(std::max(cut, t));
    } else {
      EXPECT_GT(tier->scheduled_cuts_tripped(), 0u);
    }

    tier->PowerOn();
    if (tier->stats().recovered_entries > 0) warm_recoveries++;

    SimTime tr = 1;
    for (const auto& [l, d] : acked) {
      std::string out;
      const auto r = tier->Read(tr, l, 1, &out);
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      bool legal = out == d;
      for (const std::string& m : maybe[l]) {
        if (out == m) legal = true;
      }
      ASSERT_TRUE(legal) << "lpn " << l << ": got '" << out[0]
                         << "', acked '" << d[0] << "'";
      tr = r.done;
    }
  }
  // The warm-directory claim: recovery must actually rebuild entries in
  // (nearly) every instant of the sweep, not just survive.
  EXPECT_GT(warm_recoveries, 50);
}

TEST(TieredDevice, WarmRecoveryRewarmsFasterThanColdStart) {
  // A/B: identical stacks and workload; only warm_recovery differs.
  struct Probe {
    uint64_t misses;
    SimTime duration;
  };
  auto run = [](TieredDevice& tier) {
    SimTime t = 0;
    for (Lpn l = 0; l < 48; ++l) {
      t = tier.Write(t, l, SectorData(static_cast<char>('a' + l % 26))).done;
    }
    tier.PowerCut(t + 1);
    tier.PowerOn();
    // Rewarm probe: re-read the hot set and count misses.
    const uint64_t misses0 = tier.stats().tier_read_misses;
    SimTime tr = tier.last_recovery_duration() + 1;
    const SimTime probe_start = tr;
    for (Lpn l = 0; l < 48; ++l) {
      std::string out;
      const auto r = tier.Read(tr, l, 1, &out);
      EXPECT_TRUE(r.status.ok());
      EXPECT_EQ(out, SectorData(static_cast<char>('a' + l % 26))) << l;
      tr = r.done;
    }
    return Probe{tier.stats().tier_read_misses - misses0, tr - probe_start};
  };

  TieredConfig cold_cfg = SmallTier();
  cold_cfg.warm_recovery = false;
  auto warm = MakeTieredDevice(SmallTier());
  auto cold = MakeTieredDevice(cold_cfg);
  const Probe w = run(*warm);
  const Probe c = run(*cold);

  EXPECT_EQ(w.misses, 0u);   // Warm: the directory survived the cut.
  EXPECT_EQ(c.misses, 48u);  // Cold: every hot sector re-fetched from disk.
  EXPECT_EQ(warm->stats().cold_resets, 0u);
  EXPECT_EQ(cold->stats().cold_resets, 1u);
  EXPECT_GT(warm->stats().recovered_entries, 0u);
  // The cold rewarm pays disk fetches: an order of magnitude slower.
  EXPECT_LT(w.duration * 10, c.duration);
}

TEST(TieredDevice, MapRingWrapsThroughCheckpointsAndStillRecovers) {
  TieredConfig tc = SmallTier();
  tc.map_pages = 8;  // Tiny ring: wraps and checkpoints constantly.
  auto tier = MakeTieredDevice(tc);
  constexpr int kIters = 2500;
  constexpr Lpn kKeys = 64;
  SimTime t = 0;
  for (int i = 0; i < kIters; ++i) {
    const Lpn l = static_cast<Lpn>(i) % kKeys;
    const auto w =
        tier->Write(t, l, SectorData(static_cast<char>('a' + i % 26)));
    ASSERT_TRUE(w.status.ok()) << "iter " << i;
    t = w.done;
  }
  EXPECT_GE(tier->stats().map_checkpoints, 3u);

  tier->PowerCut(t + 1);
  tier->PowerOn();
  SimTime tr = 1;
  for (Lpn l = 0; l < kKeys; ++l) {
    // Last value written to l: the largest i < kIters with i % kKeys == l.
    const int last = static_cast<int>(
        l < kIters % kKeys ? (kIters / kKeys) * kKeys + l
                           : (kIters / kKeys - 1) * kKeys + l);
    std::string out;
    const auto r = tier->Read(tr, l, 1, &out);
    ASSERT_TRUE(r.status.ok());
    EXPECT_EQ(out, SectorData(static_cast<char>('a' + last % 26))) << l;
    tr = r.done;
  }
}

TEST(TieredDevice, TimingOnlyModeMatchesStoreDataTiming) {
  // The sim_ring_ journal mirror must make timing-only runs (benches)
  // behave identically to real-bytes runs — including across a power cut.
  auto real = MakeTieredDevice(SmallTier(/*store_data=*/true));
  auto sim = MakeTieredDevice(SmallTier(/*store_data=*/false));
  SimTime tr = 0, ts = 0;
  for (int i = 0; i < 200; ++i) {
    const Lpn l = static_cast<Lpn>((i * 37) % 300);
    if (i % 3 == 2) {
      const auto a = real->Read(tr, l, 1, nullptr);
      const auto b = sim->Read(ts, l, 1, nullptr);
      ASSERT_TRUE(a.status.ok());
      ASSERT_TRUE(b.status.ok());
      ASSERT_EQ(a.done, b.done) << "read " << i;
      tr = a.done;
      ts = b.done;
    } else {
      const auto a = real->Write(tr, l, SectorData('w'));
      const auto b = sim->Write(ts, l, SectorData('w'));
      ASSERT_TRUE(a.status.ok());
      ASSERT_TRUE(b.status.ok());
      ASSERT_EQ(a.done, b.done) << "write " << i;
      tr = a.done;
      ts = b.done;
    }
  }
  real->PowerCut(tr + 5);
  sim->PowerCut(ts + 5);
  // The flash member's own PowerOn replay charge differs between modes
  // (pre-existing SsdDevice behavior), which skews absolute clocks — and
  // with them the HDD's rotational phase. So post-cut the claim is
  // FUNCTIONAL parity: the mirror recovered the identical directory, and
  // the recovered cache classifies every subsequent access identically.
  tr = real->PowerOn();
  ts = sim->PowerOn();
  EXPECT_EQ(real->stats().recovered_entries, sim->stats().recovered_entries);
  EXPECT_EQ(real->stats().recovered_dirty, sim->stats().recovered_dirty);
  for (int i = 0; i < 50; ++i) {
    const Lpn l = static_cast<Lpn>((i * 29) % 300);
    const auto a = i % 2 ? real->Write(tr, l, SectorData('z'))
                         : real->Read(tr, l, 1, nullptr);
    const auto b = i % 2 ? sim->Write(ts, l, SectorData('z'))
                         : sim->Read(ts, l, 1, nullptr);
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    tr = a.done;
    ts = b.done;
  }
  EXPECT_EQ(real->stats().tier_read_hits, sim->stats().tier_read_hits);
  EXPECT_EQ(real->stats().tier_read_misses, sim->stats().tier_read_misses);
  EXPECT_EQ(real->stats().admitted_sectors, sim->stats().admitted_sectors);
  EXPECT_EQ(real->dirty_slots(), sim->dirty_slots());
}

// ---------------------------------------------------------------------------
// Torture repro round-trip (the copy-pasteable repro line)
// ---------------------------------------------------------------------------

TEST(TieredDevice, HarnessOptionsTieredKnobsRoundTrip) {
  CrashHarness::Options o;
  o.engine = CrashHarness::Engine::kKvStore;
  o.tiered = true;
  o.tier_flash_pct = 17.5;
  o.tier_admission = 0;
  o.tier_destage_batch = 9;
  o.tier_warm = false;
  o.seed = 4242;
  o.cut_fraction = 0.37;
  const CrashHarness::Options p =
      CrashHarness::Options::FromString(o.ToString());
  EXPECT_EQ(p.engine, o.engine);
  EXPECT_EQ(p.tiered, o.tiered);
  EXPECT_DOUBLE_EQ(p.tier_flash_pct, o.tier_flash_pct);
  EXPECT_EQ(p.tier_admission, o.tier_admission);
  EXPECT_EQ(p.tier_destage_batch, o.tier_destage_batch);
  EXPECT_EQ(p.tier_warm, o.tier_warm);
  EXPECT_EQ(p.seed, o.seed);
  EXPECT_DOUBLE_EQ(p.cut_fraction, o.cut_fraction);
  // Full-line stability: parsing the reprinted line changes nothing.
  EXPECT_EQ(p.ToString(), o.ToString());
}

}  // namespace
}  // namespace durassd
