// The scheduled power cut is one BlockDevice mechanism; every device that
// takes part in a crash-harness stack must honor the same contract. The
// array and tier guard their own commands and cascade the cut to their
// members.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "array/array_device.h"
#include "ssd/hdd_device.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "tier/tiered_device.h"

namespace durassd {

// The device factories sit in a named namespace: ctest names each typed
// test after its type, and "(anonymous namespace)" would put spaces in it.
namespace scheduled_cut {

struct Ssd {
  static std::unique_ptr<BlockDevice> Make() {
    return std::make_unique<SsdDevice>(SsdConfig::Tiny());
  }
};
struct Hdd {
  static std::unique_ptr<BlockDevice> Make() {
    HddDevice::Config c;
    c.num_sectors = 4096;
    c.write_cache_sectors = 64;  // Cached: a write acks at bus speed.
    return std::make_unique<HddDevice>(c);
  }
};
struct OneMemberArray {
  static std::unique_ptr<BlockDevice> Make() {
    return MakeMirroredArray(SsdConfig::Tiny(), 1, ArrayConfig{});
  }
};
struct Tier {
  static std::unique_ptr<BlockDevice> Make() {
    TieredConfig tc;
    tc.flash = SsdConfig::Tiny();
    tc.capacity_hdd.num_sectors = 1024;
    tc.capacity_hdd.write_cache_sectors = 64;
    tc.flash_pct = 25.0;
    return MakeTieredDevice(tc);
  }
};

}  // namespace scheduled_cut

namespace {

constexpr SimTime kCut = 10 * kMillisecond;

std::string SectorData(char fill) { return std::string(4 * kKiB, fill); }

template <typename T>
class ScheduledCutTest : public ::testing::Test {};

using Devices =
    ::testing::Types<scheduled_cut::Ssd, scheduled_cut::Hdd,
                     scheduled_cut::OneMemberArray, scheduled_cut::Tier>;
TYPED_TEST_SUITE(ScheduledCutTest, Devices);

TYPED_TEST(ScheduledCutTest, TripsOnFirstCommandAtOrAfterInstant) {
  auto dev = TypeParam::Make();
  dev->SchedulePowerCut(kCut);
  ASSERT_TRUE(dev->scheduled_cut_armed());

  // Completes well before the instant: acknowledged, cut still armed.
  const auto early = dev->Write(0, 3, SectorData('e'));
  ASSERT_TRUE(early.status.ok()) << early.status.ToString();
  ASSERT_LE(early.done, kCut);
  EXPECT_TRUE(dev->scheduled_cut_armed());
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 0u);

  // The cut fires at issue, before the device looks at the command: even a
  // malformed one (not sector-aligned) fails DeviceOffline.
  const auto w = dev->Write(kCut, 5, std::string(1, 'x'));
  EXPECT_TRUE(w.status.IsDeviceOffline()) << w.status.ToString();
  EXPECT_EQ(w.done, kCut);
  EXPECT_FALSE(dev->powered());
  EXPECT_FALSE(dev->scheduled_cut_armed());
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 1u);
}

TYPED_TEST(ScheduledCutTest, CompletionPastInstantIsNeverAcked) {
  auto dev = TypeParam::Make();
  // Issued before the instant, but no write completes within 1 us.
  dev->SchedulePowerCut(1 * kMicrosecond);
  const CmdId id =
      dev->Submit(0, BlockDevice::Command::MakeWrite(9, SectorData('G')));
  const BlockDevice::Completion c = dev->Await(id);
  EXPECT_TRUE(c.status.IsDeviceOffline()) << c.status.ToString();
  EXPECT_FALSE(dev->powered());
  EXPECT_FALSE(dev->scheduled_cut_armed());
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 1u);

  // The unacknowledged write did not survive the cut.
  dev->PowerOn();
  std::string out;
  ASSERT_TRUE(dev->Read(0, 9, 1, &out).status.ok());
  EXPECT_NE(out, SectorData('G'));
}

TYPED_TEST(ScheduledCutTest, CancelDisarms) {
  auto dev = TypeParam::Make();
  dev->SchedulePowerCut(1 * kMicrosecond);
  dev->CancelScheduledPowerCut();
  EXPECT_FALSE(dev->scheduled_cut_armed());
  EXPECT_TRUE(dev->Write(kCut, 5, SectorData('y')).status.ok());
  EXPECT_TRUE(dev->powered());
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 0u);
}

TYPED_TEST(ScheduledCutTest, ManualPowerCutDisarms) {
  auto dev = TypeParam::Make();
  dev->SchedulePowerCut(kCut);
  dev->PowerCut(0);
  EXPECT_FALSE(dev->scheduled_cut_armed());
  dev->PowerOn();
  EXPECT_TRUE(dev->Write(kCut, 5, SectorData('z')).status.ok());
  EXPECT_TRUE(dev->powered());
  EXPECT_EQ(dev->scheduled_cuts_tripped(), 0u);
}

}  // namespace
}  // namespace durassd
