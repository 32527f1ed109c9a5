#include <gtest/gtest.h>

#include <string>

#include "ssd/hdd_device.h"

namespace durassd {
namespace {

HddDevice::Config SmallHdd(bool cache_on = true) {
  HddDevice::Config c;
  c.num_sectors = 4096;
  c.cache_enabled = cache_on;
  c.write_cache_sectors = 64;
  return c;
}

std::string SectorData(char fill) { return std::string(4 * kKiB, fill); }

TEST(HddDeviceTest, WriteReadRoundTrip) {
  HddDevice hdd(SmallHdd());
  const auto w = hdd.Write(0, 9, SectorData('h'));
  ASSERT_TRUE(w.status.ok());
  std::string out;
  ASSERT_TRUE(hdd.Read(w.done, 9, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('h'));
}

TEST(HddDeviceTest, UnwrittenReadsZeros) {
  HddDevice hdd(SmallHdd());
  std::string out;
  ASSERT_TRUE(hdd.Read(0, 100, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('\0'));
}

TEST(HddDeviceTest, CachedWriteAcksFasterThanUncached) {
  HddDevice cached(SmallHdd(true));
  HddDevice raw(SmallHdd(false));
  const SimTime t1 = cached.Write(0, 0, SectorData('x')).done;
  const SimTime t2 = raw.Write(0, 0, SectorData('x')).done;
  // Cache ack at bus speed; uncached pays seek + rotation (ms).
  EXPECT_LT(t1 * 10, t2);
  EXPECT_GT(t2, 3 * kMillisecond);
}

TEST(HddDeviceTest, QueueDepthImprovesServiceTime) {
  // Back-to-back requests at high queue depth are served faster per op
  // (elevator scheduling) than isolated ones.
  HddDevice hdd(SmallHdd(false));
  SimTime isolated_start = 0;
  const SimTime isolated = hdd.Write(isolated_start, 0, SectorData('a')).done;

  HddDevice busy(SmallHdd(false));
  SimTime done_first = 0, done_last = 0;
  for (int i = 0; i < 64; ++i) {
    const auto w = busy.Write(0, i, SectorData('b'));  // All arrive at once.
    if (i == 0) done_first = w.done;
    done_last = w.done;
  }
  const SimTime avg = done_last / 64;
  EXPECT_LT(avg, isolated);
  (void)done_first;
}

TEST(HddDeviceTest, FlushDrainsCache) {
  HddDevice hdd(SmallHdd(true));
  const auto w = hdd.Write(0, 5, SectorData('f'));
  const auto f = hdd.Flush(w.done);
  ASSERT_TRUE(f.status.ok());
  EXPECT_GT(f.done, w.done);  // Waited for the media pass.
}

TEST(HddDeviceTest, PowerCutLosesInFlightWrites) {
  HddDevice hdd(SmallHdd(true));
  const auto w = hdd.Write(0, 5, SectorData('L'));
  // Cut right after the ack: destage to platter is still in flight.
  hdd.PowerCut(w.done + 1);
  hdd.PowerOn();
  std::string out;
  ASSERT_TRUE(hdd.Read(0, 5, 1, &out).status.ok());
  EXPECT_NE(out, SectorData('L'));  // Lost or sheared — never intact.
}

TEST(HddDeviceTest, PowerCutAfterFlushKeepsData) {
  HddDevice hdd(SmallHdd(true));
  const auto w = hdd.Write(0, 5, SectorData('K'));
  const auto f = hdd.Flush(w.done);
  hdd.PowerCut(f.done + 1);
  hdd.PowerOn();
  std::string out;
  ASSERT_TRUE(hdd.Read(0, 5, 1, &out).status.ok());
  EXPECT_EQ(out, SectorData('K'));
}

TEST(HddDeviceTest, PowerCutMidWriteShearsSector) {
  HddDevice hdd(SmallHdd(false));  // Write-through.
  auto w1 = hdd.Write(0, 3, SectorData('O'));
  auto w2 = hdd.Write(w1.done, 3, SectorData('N'));
  hdd.PowerCut(w2.done - 100 * kMicrosecond);  // Mid media pass.
  hdd.PowerOn();
  std::string out;
  ASSERT_TRUE(hdd.Read(0, 3, 1, &out).status.ok());
  EXPECT_NE(out, SectorData('O'));
  EXPECT_NE(out, SectorData('N'));  // Torn.
}

TEST(HddDeviceTest, ReportsNoAtomicityOrDurableCache) {
  HddDevice hdd(SmallHdd());
  EXPECT_FALSE(hdd.supports_atomic_write());
  EXPECT_FALSE(hdd.has_durable_cache());
}

TEST(HddDeviceTest, OfflineRejectsOps) {
  HddDevice hdd(SmallHdd());
  hdd.PowerCut(0);
  EXPECT_TRUE(hdd.Write(0, 0, SectorData('x')).status.IsDeviceOffline());
  EXPECT_TRUE(hdd.Read(0, 0, 1, nullptr).status.IsDeviceOffline());
  hdd.PowerOn();
  EXPECT_TRUE(hdd.Write(0, 0, SectorData('x')).status.ok());
}

TEST(HddDeviceTest, RejectsOutOfRange) {
  HddDevice hdd(SmallHdd());
  EXPECT_FALSE(hdd.Write(0, 4096, SectorData('x')).status.ok());
  EXPECT_FALSE(hdd.Read(0, 4095, 2, nullptr).status.ok());
}

TEST(HddDeviceTest, ScheduledCutTripsOnSubmissionAtOrPastInstant) {
  HddDevice hdd(SmallHdd());
  hdd.SchedulePowerCut(10 * kMillisecond);
  ASSERT_TRUE(hdd.scheduled_cut_armed());
  const auto w = hdd.Write(10 * kMillisecond, 0, SectorData('x'));
  EXPECT_TRUE(w.status.IsDeviceOffline());
  EXPECT_EQ(w.done, 10 * kMillisecond);  // Completion snaps to the cut.
  EXPECT_FALSE(hdd.powered());
  EXPECT_FALSE(hdd.scheduled_cut_armed());
  EXPECT_EQ(hdd.scheduled_cuts_tripped(), 1u);
}

TEST(HddDeviceTest, ScheduledCutGuardsCompletionCausality) {
  // An uncached write submitted BEFORE the instant whose media completion
  // lands PAST it must not be acknowledged — the same causality guard
  // BlockDevice::TripCutBeforeCompletion applies (a media pass costs ms, so an
  // instant shortly after submission always lands mid-command).
  HddDevice hdd(SmallHdd(false));
  hdd.SchedulePowerCut(100 * kMicrosecond);
  const auto w = hdd.Write(0, 3, SectorData('G'));
  EXPECT_TRUE(w.status.IsDeviceOffline());
  EXPECT_EQ(w.done, 100 * kMicrosecond);
  EXPECT_FALSE(hdd.powered());
  // The torn/lost shear of the reverted command is the device's normal
  // power-cut behavior: never the full new value.
  hdd.PowerOn();
  std::string out;
  ASSERT_TRUE(hdd.Read(0, 3, 1, &out).status.ok());
  EXPECT_NE(out, SectorData('G'));
}

TEST(HddDeviceTest, ScheduledCutSparesCacheAckedWrite) {
  // A cached write acks at bus speed, long before the armed instant: the
  // ack stands (the data may still die with the volatile cache — that is
  // the honest volatile-cache contract, not a causality violation).
  HddDevice hdd(SmallHdd(true));
  hdd.SchedulePowerCut(50 * kMillisecond);
  const auto w = hdd.Write(0, 7, SectorData('c'));
  EXPECT_TRUE(w.status.ok());
  EXPECT_LT(w.done, 50 * kMillisecond);
  EXPECT_TRUE(hdd.powered());
}

TEST(HddDeviceTest, CancelScheduledCutDisarms) {
  HddDevice hdd(SmallHdd());
  hdd.SchedulePowerCut(1 * kMicrosecond);
  hdd.CancelScheduledPowerCut();
  EXPECT_FALSE(hdd.scheduled_cut_armed());
  const auto w = hdd.Write(5 * kMillisecond, 0, SectorData('y'));
  EXPECT_TRUE(w.status.ok());
  EXPECT_TRUE(hdd.powered());
  EXPECT_EQ(hdd.scheduled_cuts_tripped(), 0u);
}

}  // namespace
}  // namespace durassd
