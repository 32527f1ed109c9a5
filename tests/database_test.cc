#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "sim/stack.h"

namespace durassd {
namespace {

/// The database tests' stack: a small SSD, its file system and minibase.
StackSpec DbSpec(bool durable_cache = true, bool write_barriers = true,
                 bool double_write = true, uint32_t page_size = 4 * kKiB) {
  StackSpec spec;
  SsdConfig& dc = spec.ssd;
  dc = durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 192;
  dc.geometry.pages_per_block = 32;   // ~192 MiB raw.
  dc.write_buffer_sectors = 256;
  dc.cache_capacity_sectors = 1024;
  dc.capacitor_budget_bytes = 16 * kMiB;
  spec.fs.write_barriers = write_barriers;
  spec.engine = StackSpec::Engine::kDatabase;
  spec.db.page_size = page_size;
  spec.db.pool_bytes = 2 * kMiB;
  spec.db.double_write = double_write;
  spec.db.checkpoint_log_bytes = 8 * kMiB;
  return spec;
}

// Convenience single-op transaction.
Status PutTxn(Stack& h, uint32_t tree, const std::string& k,
              const std::string& v) {
  auto txn = h.db()->Begin(h.io);
  if (!txn.ok()) return txn.status();
  Status s = h.db()->Put(h.io, *txn, tree, k, v);
  if (!s.ok()) return s;
  return h.db()->Commit(h.io, *txn);
}

// ---------------------------------------------------------------------------
// Basic engine behaviour
// ---------------------------------------------------------------------------

TEST(DatabaseTest, CreatePutGetCommit) {
  Stack h(DbSpec());
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(PutTxn(h, *tree, "alpha", "1").ok());

  std::string v;
  ASSERT_TRUE(h.db()->Get(h.io, *tree, "alpha", &v).ok());
  EXPECT_EQ(v, "1");
  EXPECT_EQ(h.db()->stats().txns_committed, 1u);
}

TEST(DatabaseTest, GetTreeIdByName) {
  Stack h(DbSpec());
  ASSERT_TRUE(h.Open().ok());
  auto t1 = h.db()->CreateTree(h.io, "nodes");
  auto t2 = h.db()->CreateTree(h.io, "links");
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(*h.db()->GetTreeId("nodes"), *t1);
  EXPECT_EQ(*h.db()->GetTreeId("links"), *t2);
  EXPECT_TRUE(h.db()->GetTreeId("absent").status().IsNotFound());
  EXPECT_FALSE(h.db()->CreateTree(h.io, "nodes").ok());  // Duplicate.
}

TEST(DatabaseTest, MultiOpTransactionAtomicViaAbort) {
  Stack h(DbSpec());
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  ASSERT_TRUE(PutTxn(h, *tree, "stable", "before").ok());

  auto txn = h.db()->Begin(h.io);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(h.db()->Put(h.io, *txn, *tree, "stable", "changed").ok());
  ASSERT_TRUE(h.db()->Put(h.io, *txn, *tree, "fresh", "x").ok());
  ASSERT_TRUE(h.db()->Delete(h.io, *txn, *tree, "stable").ok());
  ASSERT_TRUE(h.db()->Abort(h.io, *txn).ok());

  std::string v;
  ASSERT_TRUE(h.db()->Get(h.io, *tree, "stable", &v).ok());
  EXPECT_EQ(v, "before");
  EXPECT_TRUE(h.db()->Get(h.io, *tree, "fresh", &v).IsNotFound());
}

TEST(DatabaseTest, SingleActiveTransactionEnforced) {
  Stack h(DbSpec());
  ASSERT_TRUE(h.Open().ok());
  auto t1 = h.db()->Begin(h.io);
  ASSERT_TRUE(t1.ok());
  EXPECT_FALSE(h.db()->Begin(h.io).ok());
  ASSERT_TRUE(h.db()->Commit(h.io, *t1).ok());
  EXPECT_TRUE(h.db()->Begin(h.io).ok());
}

TEST(DatabaseTest, ScanAndCount) {
  Stack h(DbSpec());
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  for (int i = 0; i < 50; ++i) {
    char key[8];
    snprintf(key, sizeof(key), "%03d", i);
    ASSERT_TRUE(PutTxn(h, *tree, key, "v").ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(h.db()->Scan(h.io, *tree, "010", 5, &out).ok());
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].first, "010");
  uint64_t n = 0;
  ASSERT_TRUE(h.db()->CountRange(h.io, *tree, "000", "025", 1000, &n).ok());
  EXPECT_EQ(n, 25u);
}

TEST(DatabaseTest, EvictionUnderTinyPoolStillCorrect) {
  Stack h(DbSpec());
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  const std::string value(200, 'x');
  const int n = 12000;  // ~2.5 MiB of rows: exceeds the 2 MiB pool.
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(PutTxn(h, *tree, "key" + std::to_string(i), value).ok());
  }
  EXPECT_GT(h.db()->pool_stats().evictions, 0u);
  for (int i = 0; i < n; i += 131) {
    std::string v;
    ASSERT_TRUE(h.db()->Get(h.io, *tree, "key" + std::to_string(i), &v).ok())
        << i;
    EXPECT_EQ(v, value);
  }
  EXPECT_GT(h.db()->pool_stats().misses, 0u);
}

TEST(DatabaseTest, CheckpointAndReopenCleanly) {
  Stack h(DbSpec());
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(PutTxn(h, *tree, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(h.db()->Checkpoint(h.io).ok());
  h.Crash(h.io.now);  // Even a crash right after checkpoint must be clean.
  ASSERT_TRUE(h.Open().ok());
  auto tid = h.db()->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (int i = 0; i < 100; ++i) {
    std::string v;
    ASSERT_TRUE(h.db()->Get(h.io, *tid, "k" + std::to_string(i), &v).ok());
  }
}

// ---------------------------------------------------------------------------
// Crash recovery: committed data must survive (durable configurations)
// ---------------------------------------------------------------------------

struct CrashParam {
  CrashParam(bool durable, bool barriers, bool dwb, uint32_t page)
      : durable_cache(durable),
        write_barriers(barriers),
        double_write(dwb),
        page_size(page) {}

  bool durable_cache;
  bool write_barriers;
  bool double_write;
  // The pad byte is a named, zeroed member: gtest prints this parameter as
  // its raw bytes in each test's name, so an uninitialised pad byte made the
  // test names differ from run to run.
  uint8_t reserved = 0;
  uint32_t page_size;
};

class CrashRecoveryTest : public ::testing::TestWithParam<CrashParam> {};

// The configurations in which the stack promises durability: either the
// device has a durable cache (DuraSSD — barriers may be off!) or barriers
// are on so fsync reaches stable media.
INSTANTIATE_TEST_SUITE_P(
    DurableConfigs, CrashRecoveryTest,
    ::testing::Values(
        CrashParam{true, true, true, 4096},    // DuraSSD, default MySQL.
        CrashParam{true, true, false, 4096},   // DuraSSD, no double-write.
        CrashParam{true, false, true, 4096},   // DuraSSD, nobarrier.
        CrashParam{true, false, false, 4096},  // DuraSSD OFF/OFF (the paper's
                                               // headline config).
        CrashParam{true, false, false, 8192},
        CrashParam{true, false, false, 16384},
        CrashParam{false, true, true, 4096}));  // Volatile SSD, barriers+dwb.

TEST_P(CrashRecoveryTest, CommittedTransactionsSurviveCrash) {
  const CrashParam p = GetParam();
  Stack h(DbSpec(p.durable_cache, p.write_barriers, p.double_write,
                 p.page_size));
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  ASSERT_TRUE(tree.ok());

  std::map<std::string, std::string> committed;
  Random rng(42);
  for (int i = 0; i < 400; ++i) {
    const std::string k = "key" + std::to_string(rng.Uniform(200));
    const std::string v = "val" + std::to_string(i);
    ASSERT_TRUE(PutTxn(h, *tree, k, v).ok());
    committed[k] = v;
  }

  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok()) << "recovery failed";
  auto tid = h.db()->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (const auto& [k, v] : committed) {
    std::string got;
    ASSERT_TRUE(h.db()->Get(h.io, *tid, k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
}

TEST_P(CrashRecoveryTest, LoserTransactionRolledBack) {
  const CrashParam p = GetParam();
  Stack h(DbSpec(p.durable_cache, p.write_barriers, p.double_write,
                 p.page_size));
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  ASSERT_TRUE(PutTxn(h, *tree, "acct", "100").ok());

  // Uncommitted multi-op transaction in flight at the crash.
  auto txn = h.db()->Begin(h.io);
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(h.db()->Put(h.io, *txn, *tree, "acct", "0").ok());
  ASSERT_TRUE(h.db()->Put(h.io, *txn, *tree, "loser", "x").ok());

  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok());
  auto tid = h.db()->GetTreeId("t");
  std::string v;
  ASSERT_TRUE(h.db()->Get(h.io, *tid, "acct", &v).ok());
  EXPECT_EQ(v, "100");  // Atomicity: the uncommitted update vanished.
  EXPECT_TRUE(h.db()->Get(h.io, *tid, "loser", &v).IsNotFound());
}

TEST_P(CrashRecoveryTest, RepeatedCrashesConverge) {
  const CrashParam p = GetParam();
  Stack h(DbSpec(p.durable_cache, p.write_barriers, p.double_write,
                 p.page_size));
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  ASSERT_TRUE(tree.ok());
  std::map<std::string, std::string> committed;

  for (int round = 0; round < 5; ++round) {
    auto tid = h.db()->GetTreeId("t");
    ASSERT_TRUE(tid.ok());
    for (int i = 0; i < 60; ++i) {
      const std::string k = "r" + std::to_string(round) + "k" +
                            std::to_string(i % 20);
      const std::string v = "v" + std::to_string(round * 100 + i);
      ASSERT_TRUE(PutTxn(h, *tid, k, v).ok());
      committed[k] = v;
    }
    h.Crash(h.io.now);
    ASSERT_TRUE(h.Open().ok()) << "round " << round;
  }

  auto tid = h.db()->GetTreeId("t");
  for (const auto& [k, v] : committed) {
    std::string got;
    ASSERT_TRUE(h.db()->Get(h.io, *tid, k, &got).ok()) << k;
    EXPECT_EQ(got, v) << k;
  }
}

// ---------------------------------------------------------------------------
// The paper's negative results: what goes wrong WITHOUT a durable cache
// ---------------------------------------------------------------------------

TEST(CrashSemanticsTest, VolatileNoBarrierLosesCommittedData) {
  // Barriers off on a volatile-cache SSD: fsync never flushes, so committed
  // transactions can evaporate — the reason OFF/OFF is unsafe without
  // DuraSSD (Sec. 2.2).
  Stack h(DbSpec(/*durable_cache=*/false, /*write_barriers=*/false,
                 /*double_write=*/true, 4096));
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(PutTxn(h, *tree, "k" + std::to_string(i), "v").ok());
  }
  h.Crash(h.io.now);

  // Recovery may succeed (an empty-looking database) or fail; either way,
  // committed data must be missing — that is the data-loss anomaly.
  bool lost = false;
  if (h.Open().ok()) {
    auto tid = h.db()->GetTreeId("t");
    if (!tid.ok()) {
      lost = true;
    } else {
      for (int i = 0; i < 50 && !lost; ++i) {
        std::string v;
        if (!h.db()->Get(h.io, *tid, "k" + std::to_string(i), &v).ok()) {
          lost = true;
        }
      }
    }
  } else {
    lost = true;
  }
  EXPECT_TRUE(lost);
}

TEST(CrashSemanticsTest, DuraSsdNoBarrierKeepsCommittedData) {
  // The same nobarrier configuration on DuraSSD is safe — the paper's core
  // claim (Sec. 2.2).
  Stack h(DbSpec(/*durable_cache=*/true, /*write_barriers=*/false,
                 /*double_write=*/false, 4096));
  ASSERT_TRUE(h.Open().ok());
  auto tree = h.db()->CreateTree(h.io, "t");
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(PutTxn(h, *tree, "k" + std::to_string(i), "v").ok());
  }
  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok());
  auto tid = h.db()->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (int i = 0; i < 50; ++i) {
    std::string v;
    EXPECT_TRUE(h.db()->Get(h.io, *tid, "k" + std::to_string(i), &v).ok())
        << i;
  }
}

}  // namespace
}  // namespace durassd
