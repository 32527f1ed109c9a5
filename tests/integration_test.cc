// Full-stack integration tests: realistic workloads over the full stack
// (engine -> file system -> device -> FTL -> NAND) with power failures
// injected at adversarial moments, verifying the end-to-end ACID claims of
// the paper across the configuration matrix.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "sim/stack.h"
#include "workloads/keys.h"

namespace durassd {
namespace {

StackSpec DbSpec(bool durable, bool barriers, bool dwb) {
  StackSpec spec;
  spec.ssd = durable ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
  spec.ssd.geometry = FlashGeometry::Tiny();
  spec.ssd.geometry.blocks_per_plane = 256;
  spec.ssd.geometry.pages_per_block = 32;
  spec.ssd.capacitor_budget_bytes = 16 * kMiB;
  spec.fs.write_barriers = barriers;
  spec.engine = StackSpec::Engine::kDatabase;
  spec.db.pool_bytes = 2 * kMiB;
  spec.db.double_write = dwb;
  spec.db.checkpoint_log_bytes = 2 * kMiB;  // Frequent checkpoints.
  return spec;
}

/// Runs a random workload tracking the committed state; crashes at a
/// random virtual time between operation boundaries; verifies recovery.
void RandomCrashRound(Stack& s, Random& rng,
                      std::map<std::string, std::string>& model, uint32_t tree,
                      int ops, bool verify_all) {
  // Work phase.
  SimTime last_commit_time = s.io.now;
  std::map<std::string, std::string> pending = model;
  for (int i = 0; i < ops; ++i) {
    auto txn = s.db()->Begin(s.io);
    ASSERT_TRUE(txn.ok());
    const std::string key = "k" + std::to_string(rng.Uniform(150));
    if (rng.Bernoulli(0.8)) {
      const std::string value = "v" + std::to_string(rng.Next() % 100000);
      ASSERT_TRUE(s.db()->Put(s.io, *txn, tree, key, value).ok());
      pending[key] = value;
    } else {
      Status st = s.db()->Delete(s.io, *txn, tree, key);
      ASSERT_TRUE(st.ok() || st.IsNotFound());
      pending.erase(key);
    }
    ASSERT_TRUE(s.db()->Commit(s.io, *txn).ok());
    model = pending;
    last_commit_time = s.io.now;
  }

  // Crash slightly after the last commit completed (all acked).
  s.Crash(last_commit_time + rng.Uniform(100));
  ASSERT_TRUE(s.Open().ok()) << "recovery failed";

  if (verify_all) {
    auto tid = s.db()->GetTreeId("t");
    ASSERT_TRUE(tid.ok());
    for (const auto& [k, v] : model) {
      std::string got;
      ASSERT_TRUE(s.db()->Get(s.io, *tid, k, &got).ok()) << k;
      EXPECT_EQ(got, v) << k;
    }
    // And nothing extra: spot-check absent keys.
    for (int i = 0; i < 20; ++i) {
      const std::string k = "k" + std::to_string(rng.Uniform(150));
      std::string got;
      const Status st = s.db()->Get(s.io, *tid, k, &got);
      if (model.count(k) == 0) {
        EXPECT_TRUE(st.IsNotFound()) << k;
      }
    }
  }
}

class EndToEndCrashTest
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    DuraSsdConfigs, EndToEndCrashTest,
    ::testing::Values(std::make_tuple(true, true),    // barriers, dwb
                      std::make_tuple(true, false),   // barriers only
                      std::make_tuple(false, true),   // dwb only
                      std::make_tuple(false, false)));  // OFF/OFF

TEST_P(EndToEndCrashTest, RepeatedRandomCrashesOnDuraSsd) {
  const auto [barriers, dwb] = GetParam();
  Stack s(DbSpec(/*durable=*/true, barriers, dwb));
  Random rng(/*seed=*/barriers * 2 + dwb);
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db()->CreateTree(s.io, "t");
  ASSERT_TRUE(tree.ok());

  std::map<std::string, std::string> model;
  for (int round = 0; round < 6; ++round) {
    auto tid = s.db()->GetTreeId("t");
    ASSERT_TRUE(tid.ok());
    RandomCrashRound(s, rng, model, *tid, 80, /*verify_all=*/true);
  }
}

TEST(EndToEndCrashTest, VolatileWithBarriersAlsoSafe) {
  Stack s(DbSpec(/*durable=*/false, /*barriers=*/true, /*dwb=*/true));
  Random rng(9);
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db()->CreateTree(s.io, "t");
  ASSERT_TRUE(tree.ok());
  std::map<std::string, std::string> model;
  for (int round = 0; round < 4; ++round) {
    auto tid = s.db()->GetTreeId("t");
    RandomCrashRound(s, rng, model, *tid, 60, /*verify_all=*/true);
  }
}

TEST(EndToEndCrashTest, MidTransactionCrashPreservesAtomicity) {
  Stack s(DbSpec(true, false, false));
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db()->CreateTree(s.io, "t");
  for (int i = 0; i < 30; ++i) {
    auto txn = s.db()->Begin(s.io);
    ASSERT_TRUE(
        s.db()->Put(s.io, *txn, *tree, "base" + std::to_string(i), "x").ok());
    ASSERT_TRUE(s.db()->Commit(s.io, *txn).ok());
  }
  // Open transaction with several ops, never committed.
  auto txn = s.db()->Begin(s.io);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s.db()->Put(s.io, *txn, *tree, "base" + std::to_string(i),
                            "CLOBBERED").ok());
    ASSERT_TRUE(
        s.db()->Put(s.io, *txn, *tree, "new" + std::to_string(i), "y").ok());
  }
  s.Crash(s.io.now + 1);
  ASSERT_TRUE(s.Open().ok());
  auto tid = s.db()->GetTreeId("t");
  for (int i = 0; i < 30; ++i) {
    std::string v;
    ASSERT_TRUE(
        s.db()->Get(s.io, *tid, "base" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, "x") << i;  // Loser txn fully undone.
  }
  std::string v;
  EXPECT_TRUE(s.db()->Get(s.io, *tid, "new0", &v).IsNotFound());
}

TEST(EndToEndCrashTest, CrashDuringCheckpointIsRecoverable) {
  StackSpec spec = DbSpec(true, true, true);
  spec.db.checkpoint_log_bytes = 64 * kKiB;  // Checkpoint very often.
  Stack s(spec);
  Random rng(23);
  ASSERT_TRUE(s.Open().ok());
  auto tree = s.db()->CreateTree(s.io, "t");
  std::map<std::string, std::string> model;
  // Many small rounds; with the tiny checkpoint interval, several crashes
  // land near or inside checkpoint activity.
  for (int round = 0; round < 8; ++round) {
    auto tid = s.db()->GetTreeId("t");
    RandomCrashRound(s, rng, model, *tid, 40, /*verify_all=*/true);
  }
  (void)tree;
}

// --------------------------- KvStore end-to-end ---------------------------

TEST(EndToEndCrashTest, KvStoreRandomCrashRounds) {
  StackSpec spec;
  spec.ssd.geometry = FlashGeometry::Tiny();
  spec.ssd.geometry.blocks_per_plane = 256;
  spec.ssd.geometry.pages_per_block = 32;
  spec.fs.write_barriers = false;
  spec.engine = StackSpec::Engine::kKvStore;
  spec.kv.batch_size = 1;  // Every update committed.
  Stack s(spec);

  Random rng(31);
  std::map<std::string, std::string> committed;
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(s.Open().ok());
    // Recovered state must match the committed model.
    for (const auto& [k, v] : committed) {
      std::string got;
      ASSERT_TRUE(s.kv()->Get(s.io, k, &got).ok())
          << "round " << round << " key " << k;
      EXPECT_EQ(got, v);
    }
    for (int i = 0; i < 60; ++i) {
      const std::string k = "doc" + std::to_string(rng.Uniform(40));
      const std::string v = "v" + std::to_string(rng.Next() % 9999);
      ASSERT_TRUE(s.kv()->Put(s.io, k, v).ok());
      committed[k] = v;
    }
    s.Crash(s.io.now + rng.Uniform(1000));
  }
}

}  // namespace
}  // namespace durassd
