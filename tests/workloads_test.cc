#include <gtest/gtest.h>


#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "sim/client_scheduler.h"
#include "sim/stack.h"
#include "ssd/device_factory.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "workloads/fiosim.h"
#include "workloads/keys.h"
#include "workloads/linkbench.h"
#include "workloads/tpcc.h"
#include "workloads/ycsb.h"

namespace durassd {
namespace {

// --------------------------- keys -----------------------------------------

TEST(KeysTest, BigEndianOrderMatchesNumericOrder) {
  EXPECT_LT(KeyU64(1), KeyU64(2));
  EXPECT_LT(KeyU64(255), KeyU64(256));
  EXPECT_LT(KeyU64(0xFFFF), KeyU64(0x10000));
  EXPECT_LT(KeyU64U32(5, 9), KeyU64U32(6, 0));
  EXPECT_LT(KeyU64U32U64(1, 2, 3), KeyU64U32U64(1, 2, 4));
  EXPECT_LT(KeyU64U32U64(1, 2, 0xFFFFFFFFFFull), KeyU64U32U64(1, 3, 0));
}

// --------------------------- ClientScheduler ------------------------------

TEST(ClientSchedulerTest, RunsExactOpCount) {
  uint64_t count = 0;
  const auto fn = [&](uint32_t, SimTime now) {
    count++;
    return now + kMillisecond;
  };
  const auto r = ClientScheduler::Run(4, 100, 0, fn);
  EXPECT_EQ(r.ops, 100u);
  EXPECT_EQ(count, 100u);
  // 100 ops over 4 clients at 1ms each => makespan 25ms.
  EXPECT_EQ(r.makespan, 25 * kMillisecond);
  EXPECT_NEAR(r.OpsPerSecond(), 4000.0, 1.0);
}

TEST(ClientSchedulerTest, ResumesEarliestClientFirst) {
  std::vector<uint32_t> order;
  const auto fn = [&](uint32_t client, SimTime now) {
    order.push_back(client);
    // Client 0 is slow, others fast: after the first round, client 0
    // should appear less often.
    return now + (client == 0 ? 10 * kMillisecond : kMillisecond);
  };
  ClientScheduler::Run(2, 12, 0, fn);
  int c0 = 0;
  for (uint32_t c : order) c0 += (c == 0);
  EXPECT_LT(c0, 4);
}

TEST(ClientSchedulerTest, HonorsStartTime) {
  SimTime first = -1;
  const auto fn = [&](uint32_t, SimTime now) {
    if (first < 0) first = now;
    return now + kMillisecond;
  };
  const auto r = ClientScheduler::Run(1, 5, 7 * kSecond, fn);
  EXPECT_EQ(first, 7 * kSecond);
  EXPECT_EQ(r.makespan, 5 * kMillisecond);  // Start excluded.
}

// --------------------------- fiosim ---------------------------------------

TEST(FioSimTest, FsyncFrequencyMonotonicallyImprovesIops) {
  double prev = 0;
  for (uint32_t every : {1u, 16u, 0u}) {
    auto dev = MakeDevice(DeviceModel::kDuraSsd, true, false);
    FioJob job;
    job.ops = 2000;
    job.fsync_every = every;
    const double iops = RunFio(dev.get(), job).iops;
    EXPECT_GT(iops, prev);
    prev = iops;
  }
}

TEST(FioSimTest, NoBarrierBeatsBarrierAtFsync1) {
  auto dev1 = MakeDevice(DeviceModel::kDuraSsd, true, false);
  auto dev2 = MakeDevice(DeviceModel::kDuraSsd, true, false);
  FioJob job;
  job.ops = 2000;
  job.fsync_every = 1;
  job.write_barriers = true;
  const double with_barrier = RunFio(dev1.get(), job).iops;
  job.write_barriers = false;
  const double without = RunFio(dev2.get(), job).iops;
  EXPECT_GT(without, with_barrier * 10);  // Table 1's headline effect.
}

TEST(FioSimTest, ReadsScaleWithThreads) {
  auto dev1 = MakeDevice(DeviceModel::kDuraSsd, true, false);
  auto dev128 = MakeDevice(DeviceModel::kDuraSsd, true, false);
  FioJob job;
  job.mode = FioJob::Mode::kRandRead;
  job.ops = 5000;
  job.threads = 1;
  const double single = RunFio(dev1.get(), job).iops;
  job.threads = 128;
  const double many = RunFio(dev128.get(), job).iops;
  EXPECT_GT(many, single * 3);
}

TEST(FioSimTest, SmallerPagesGiveHigherReadIops) {
  double prev = 0;
  for (uint32_t block : {16u * kKiB, 8u * kKiB, 4u * kKiB}) {
    auto dev = MakeDevice(DeviceModel::kDuraSsd, true, false);
    FioJob job;
    job.mode = FioJob::Mode::kRandRead;
    job.block_bytes = block;
    job.threads = 128;
    job.ops = 5000;
    const double iops = RunFio(dev.get(), job).iops;
    EXPECT_GT(iops, prev);  // Table 2's page-size effect.
    prev = iops;
  }
}

// --------------------------- LinkBench ------------------------------------

/// A DuraSSD with the tiny geometry (256 blocks per plane) running `engine`.
StackSpec TinySpec(StackSpec::Engine engine) {
  StackSpec spec;
  spec.ssd.geometry = FlashGeometry::Tiny();
  spec.ssd.geometry.blocks_per_plane = 256;
  spec.ssd.geometry.pages_per_block = 32;
  spec.engine = engine;
  return spec;
}

StackSpec DbSpec(bool barriers, bool dwb) {
  StackSpec spec = TinySpec(StackSpec::Engine::kDatabase);
  spec.fs.write_barriers = barriers;
  spec.db.pool_bytes = 2 * kMiB;
  spec.db.double_write = dwb;
  return spec;
}

StackSpec KvSpec(uint32_t batch_size) {
  StackSpec spec = TinySpec(StackSpec::Engine::kKvStore);
  spec.kv.batch_size = batch_size;
  return spec;
}

TEST(LinkBenchTest, LoadsAndRunsAllOpTypes) {
  Stack f(DbSpec(false, false));
  ASSERT_TRUE(f.Open().ok());
  LinkBench::Config lc;
  lc.num_nodes = 2000;
  lc.clients = 8;
  lc.requests = 3000;
  LinkBench bench(f.db(), lc);
  ASSERT_TRUE(bench.Load(f.io).ok());
  auto result = bench.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ops, 3000u);
  EXPECT_GT(result->tps, 0);
  // All ten operation types exercised at this request count.
  EXPECT_EQ(result->latencies.size(),
            static_cast<size_t>(LinkOp::kNumOps));
  uint64_t total = 0;
  for (const auto& [op, hist] : result->latencies) total += hist.count();
  EXPECT_EQ(total, 3000u);
  EXPECT_EQ(result->failed_ops, 0u);
}

TEST(LinkBenchTest, BarriersOffIsFaster) {
  double tps[2];
  for (int barriers = 0; barriers < 2; ++barriers) {
    Stack f(DbSpec(barriers == 1, true));
    ASSERT_TRUE(f.Open().ok());
    LinkBench::Config lc;
    lc.num_nodes = 2000;
    lc.clients = 16;
    lc.requests = 2000;
    LinkBench bench(f.db(), lc);
    ASSERT_TRUE(bench.Load(f.io).ok());
    tps[barriers] = (*bench.Run()).tps;
  }
  EXPECT_GT(tps[0], tps[1]);  // OFF faster than ON.
}

TEST(LinkBenchTest, OpNamesAndMixAreComplete) {
  for (int i = 0; i < static_cast<int>(LinkOp::kNumOps); ++i) {
    EXPECT_STRNE(LinkOpName(static_cast<LinkOp>(i)), "?");
  }
  EXPECT_FALSE(LinkOpIsWrite(LinkOp::kGetLinkList));
  EXPECT_TRUE(LinkOpIsWrite(LinkOp::kAddLink));
}

// --------------------------- YCSB -----------------------------------------

TEST(YcsbTest, RunsAgainstKvStore) {
  Stack s(KvSpec(10));
  ASSERT_TRUE(s.Open().ok());

  Ycsb::Config yc;
  yc.records = 2000;
  yc.operations = 3000;
  Ycsb bench(s.kv(), yc);
  ASSERT_TRUE(bench.Load(s.io).ok());
  auto result = bench.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->ops_per_sec, 0);
  EXPECT_GT(result->read_latency.count(), 0u);
  EXPECT_GT(result->update_latency.count(), 0u);
  EXPECT_EQ(result->read_latency.count() + result->update_latency.count(),
            3000u);
  EXPECT_EQ(result->failed_ops, 0u);
}

TEST(YcsbTest, CountsFailedOpsButNotMissingKeys) {
  Stack s(KvSpec(1));  // Every update commits, so every update fails below.
  ASSERT_TRUE(s.Open().ok());

  // Nothing loaded: every read is NotFound, which is not a failure.
  Ycsb::Config reads;
  reads.records = 500;
  reads.operations = 200;
  reads.update_fraction = 0.0;
  auto miss = Ycsb(s.kv(), reads).Run();
  ASSERT_TRUE(miss.ok());
  EXPECT_EQ(miss->read_latency.count(), 200u);
  EXPECT_EQ(miss->failed_ops, 0u);

  // Device off: every update fails, and so do reads of the committed file.
  Ycsb::Config mixed = reads;
  mixed.update_fraction = 0.5;
  Ycsb bench(s.kv(), mixed);
  ASSERT_TRUE(bench.Load(s.io).ok());
  s.dev()->PowerCut(s.io.now);
  auto failed = bench.Run();
  ASSERT_TRUE(failed.ok());
  EXPECT_GT(failed->update_latency.count(), 0u);
  EXPECT_GT(failed->failed_ops, failed->update_latency.count());
  EXPECT_LE(failed->failed_ops, 200u);
}

TEST(YcsbTest, LargerBatchIsFaster) {
  double ops[2];
  int i = 0;
  for (uint32_t batch : {1u, 50u}) {
    Stack s(KvSpec(batch));
    ASSERT_TRUE(s.Open().ok());
    Ycsb::Config yc;
    yc.records = 1000;
    yc.operations = 1500;
    yc.update_fraction = 1.0;
    Ycsb bench(s.kv(), yc);
    ASSERT_TRUE(bench.Load(s.io).ok());
    ops[i++] = (*bench.Run()).ops_per_sec;
  }
  EXPECT_GT(ops[1], ops[0] * 3);  // Table 5's effect.
}

// --------------------------- TPC-C -----------------------------------------

TEST(TpccTest, LoadsAndRunsAllTransactionTypes) {
  Stack f(DbSpec(false, false));
  ASSERT_TRUE(f.Open().ok());
  Tpcc::Config tc;
  tc.warehouses = 2;
  tc.items = 500;
  tc.customers_per_district = 30;
  tc.clients = 8;
  tc.transactions = 2000;
  Tpcc bench(f.db(), tc);
  ASSERT_TRUE(bench.Load(f.io).ok());
  auto result = bench.Run();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->tpmc, 0);
  // ~45% of 2000 transactions are NewOrders.
  EXPECT_NEAR(static_cast<double>(result->new_orders), 900.0, 150.0);
  EXPECT_GT(result->new_order_latency.count(), 0u);
  EXPECT_EQ(result->failed_ops, 0u);
}

TEST(TpccTest, BarrierOffBeatsBarrierOn) {
  double tpmc[2];
  for (int barriers = 0; barriers < 2; ++barriers) {
    Stack f(DbSpec(barriers == 1, false));
    ASSERT_TRUE(f.Open().ok());
    Tpcc::Config tc;
    tc.warehouses = 2;
    tc.items = 500;
    tc.customers_per_district = 30;
    tc.clients = 8;
    tc.transactions = 1000;
    Tpcc bench(f.db(), tc);
    ASSERT_TRUE(bench.Load(f.io).ok());
    tpmc[barriers] = (*bench.Run()).tpmc;
  }
  EXPECT_GT(tpmc[0], tpmc[1] * 2);  // Table 4's effect.
}

}  // namespace
}  // namespace durassd
