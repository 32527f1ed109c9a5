#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "sim/stack.h"

namespace durassd {
namespace {

StackSpec KvSpec(bool durable_cache, bool write_barriers,
                 uint32_t batch_size) {
  StackSpec spec;
  SsdConfig& dc = spec.ssd;
  dc = durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
  dc.geometry = FlashGeometry::Tiny();
  dc.geometry.blocks_per_plane = 256;
  dc.geometry.pages_per_block = 32;  // ~256 MiB raw.
  dc.write_buffer_sectors = 256;
  dc.cache_capacity_sectors = 1024;
  dc.capacitor_budget_bytes = 16 * kMiB;
  spec.fs.write_barriers = write_barriers;
  spec.engine = StackSpec::Engine::kKvStore;
  spec.kv.batch_size = batch_size;
  return spec;
}

// Walks the chunk stream at the front of a file holding exactly one commit
// ([total_len u32][crc u32][type u8][body] back to back, then padding) and
// returns the offset of the last chunk of `type` (1 = doc, 2 = node) whose
// first body byte is `first_body_byte` (pass -1 to accept any).
uint64_t LastChunkOffset(SimFile* file, IoContext& io, uint8_t type,
                         int first_body_byte) {
  std::string raw;
  EXPECT_TRUE(file->Read(io.now, 0, file->size(), &raw).status.ok());
  uint64_t found = UINT64_MAX;
  uint64_t off = 0;
  while (off + 10 <= raw.size()) {
    Slice in(raw.data() + off, 4);
    uint32_t total = 0;
    GetFixed32(&in, &total);
    if (total < 10 || off + total > raw.size()) break;
    const auto chunk_type = static_cast<uint8_t>(raw[off + 8]);
    const auto body0 = static_cast<uint8_t>(raw[off + 9]);
    if (chunk_type == type &&
        (first_body_byte < 0 || body0 == first_body_byte)) {
      found = off;
    }
    off += total;
  }
  return found;
}

// Flips one byte of a file by rewriting its whole sector through SimFile.
void FlipByte(SimFile* file, IoContext& io, uint64_t off) {
  constexpr uint64_t kSector = 4 * kKiB;  // The device's sector size.
  const uint64_t sector_off = off / kSector * kSector;
  std::string sector;
  ASSERT_TRUE(file->Read(io.now, sector_off, kSector, &sector).status.ok());
  sector[off - sector_off] ^= 0x40;
  ASSERT_TRUE(file->Write(io.now, sector_off, sector).status.ok());
}

// A damaged node or doc chunk read into a cold node cache must surface as
// Corruption, never as a wrong value or a crash.
TEST(KvStoreTest, ColdCacheNeverServesDamagedChunk) {
  for (const bool damage_node : {true, false}) {
    SCOPED_TRACE(damage_node ? "node chunk" : "doc chunk");
    Stack h(KvSpec(true, true, 100000));
    ASSERT_TRUE(h.Open().ok());
    std::map<std::string, std::string> model;
    std::string last_key;
    for (int i = 0; i < 1500; ++i) {
      last_key = "k" + std::to_string(i * 7919 % 1500);
      model[last_key] = "value-" + std::to_string(i);
      ASSERT_TRUE(h.kv()->Put(h.io, last_key, model[last_key]).ok());
    }
    ASSERT_TRUE(h.kv()->Commit(h.io).ok());
    h.Close();

    // The last leaf and doc chunks appended are the ones Get(last_key)
    // reaches; the root above them is interior, so only it gets cached by
    // the reopen's root probe.
    SimFile* file = h.fs()->Open(Stack::kKvFile);
    const uint64_t chunk =
        damage_node ? LastChunkOffset(file, h.io, 2, /*leaf=*/1)
                    : LastChunkOffset(file, h.io, 1, -1);
    ASSERT_NE(chunk, UINT64_MAX);
    FlipByte(file, h.io, chunk + 12);

    ASSERT_TRUE(h.Open().ok());
    EXPECT_EQ(h.kv()->committed_seq(), 1500u);
    std::string got;
    EXPECT_TRUE(h.kv()->Get(h.io, last_key, &got).IsCorruption());
    for (const auto& [k, v] : model) {
      got.clear();
      const Status s = h.kv()->Get(h.io, k, &got);
      ASSERT_TRUE(s.ok() || s.IsCorruption()) << k << ": " << s.ToString();
      if (s.ok()) {
        EXPECT_EQ(got, v) << k;
      }
    }
  }
}

TEST(KvStoreTest, PutGetRoundTrip) {
  Stack h(KvSpec(true, true, 1));
  ASSERT_TRUE(h.Open().ok());
  ASSERT_TRUE(h.kv()->Put(h.io, "doc1", "{\"a\":1}").ok());
  std::string v;
  ASSERT_TRUE(h.kv()->Get(h.io, "doc1", &v).ok());
  EXPECT_EQ(v, "{\"a\":1}");
  EXPECT_EQ(h.kv()->doc_count(), 1u);
}

TEST(KvStoreTest, GetMissingNotFound) {
  Stack h(KvSpec(true, true, 1));
  ASSERT_TRUE(h.Open().ok());
  std::string v;
  EXPECT_TRUE(h.kv()->Get(h.io, "nope", &v).IsNotFound());
}

TEST(KvStoreTest, UpdateReplacesDocument) {
  Stack h(KvSpec(true, true, 1));
  ASSERT_TRUE(h.Open().ok());
  ASSERT_TRUE(h.kv()->Put(h.io, "k", "v1").ok());
  ASSERT_TRUE(h.kv()->Put(h.io, "k", "v2").ok());
  std::string v;
  ASSERT_TRUE(h.kv()->Get(h.io, "k", &v).ok());
  EXPECT_EQ(v, "v2");
  EXPECT_EQ(h.kv()->doc_count(), 1u);
}

TEST(KvStoreTest, DeleteRemoves) {
  Stack h(KvSpec(true, true, 1));
  ASSERT_TRUE(h.Open().ok());
  ASSERT_TRUE(h.kv()->Put(h.io, "k", "v").ok());
  ASSERT_TRUE(h.kv()->Delete(h.io, "k").ok());
  std::string v;
  EXPECT_TRUE(h.kv()->Get(h.io, "k", &v).IsNotFound());
  EXPECT_EQ(h.kv()->doc_count(), 0u);
  EXPECT_TRUE(h.kv()->Delete(h.io, "k").IsNotFound());
}

TEST(KvStoreTest, ManyDocsSplitTree) {
  Stack h(KvSpec(true, true, 100));
  ASSERT_TRUE(h.Open().ok());
  const std::string value(1024, 'd');  // YCSB-sized documents.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        h.kv()->Put(h.io, "user" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(h.kv()->Commit(h.io).ok());
  EXPECT_EQ(h.kv()->doc_count(), 2000u);
  for (int i = 0; i < 2000; i += 37) {
    std::string v;
    ASSERT_TRUE(h.kv()->Get(h.io, "user" + std::to_string(i), &v).ok())
        << i;
    EXPECT_EQ(v.size(), value.size());
  }
}

TEST(KvStoreTest, RandomizedMatchesModel) {
  Stack h(KvSpec(true, true, 10));
  ASSERT_TRUE(h.Open().ok());
  Random rng(23);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 4000; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(300));
    if (rng.Bernoulli(0.7)) {
      const std::string value = "v" + std::to_string(rng.Next() % 10000);
      ASSERT_TRUE(h.kv()->Put(h.io, key, value).ok());
      model[key] = value;
    } else {
      const Status s = h.kv()->Delete(h.io, key);
      if (model.erase(key) > 0) {
        EXPECT_TRUE(s.ok());
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
  }
  EXPECT_EQ(h.kv()->doc_count(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(h.kv()->Get(h.io, k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
}

TEST(KvStoreTest, BatchSizeControlsFsyncFrequency) {
  Stack h1(KvSpec(true, true, 1));
  Stack h100(KvSpec(true, true, 100));
  ASSERT_TRUE(h1.Open().ok());
  ASSERT_TRUE(h100.Open().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(h1.kv()->Put(h1.io, "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(
        h100.kv()->Put(h100.io, "k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(h1.kv()->stats().commits, 200u);
  EXPECT_EQ(h100.kv()->stats().commits, 2u);
  // Fewer fsyncs => dramatically less virtual time (Table 5's effect).
  EXPECT_LT(h100.io.now * 5, h1.io.now);
}

TEST(KvStoreTest, CommittedBatchesSurviveCrash) {
  Stack h(KvSpec(true, true, 10));
  ASSERT_TRUE(h.Open().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.kv()->Put(h.io, "k" + std::to_string(i), "v").ok());
  }
  // 100 puts at batch 10 => all committed.
  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok());
  EXPECT_EQ(h.kv()->doc_count(), 100u);
  for (int i = 0; i < 100; ++i) {
    std::string v;
    ASSERT_TRUE(h.kv()->Get(h.io, "k" + std::to_string(i), &v).ok())
        << i;
  }
}

TEST(KvStoreTest, UncommittedTailLostOnCrash) {
  Stack h(KvSpec(true, true, 100));
  ASSERT_TRUE(h.Open().ok());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(h.kv()->Put(h.io, "k" + std::to_string(i), "v").ok());
  }
  // 150 puts at batch 100: one commit at 100; 50 in the tail.
  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok());
  EXPECT_EQ(h.kv()->doc_count(), 100u);
  std::string v;
  EXPECT_TRUE(h.kv()->Get(h.io, "k99", &v).ok());
  EXPECT_TRUE(h.kv()->Get(h.io, "k100", &v).IsNotFound());
}

TEST(KvStoreTest, VolatileNoBarrierLosesCommittedBatches) {
  // The Couchbase version of the paper's warning: barriers off on a
  // volatile device, commits evaporate.
  Stack h(KvSpec(false, false, 1));
  ASSERT_TRUE(h.Open().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(h.kv()->Put(h.io, "k" + std::to_string(i), "v").ok());
  }
  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok());
  EXPECT_LT(h.kv()->doc_count(), 30u);
}

TEST(KvStoreTest, DuraSsdNoBarrierKeepsCommittedBatches) {
  Stack h(KvSpec(true, false, 1));
  ASSERT_TRUE(h.Open().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(h.kv()->Put(h.io, "k" + std::to_string(i), "v").ok());
  }
  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok());
  EXPECT_EQ(h.kv()->doc_count(), 30u);
}

TEST(KvStoreTest, CompactionShrinksFileAndPreservesData) {
  Stack h(KvSpec(true, true, 50));
  ASSERT_TRUE(h.Open().ok());
  const std::string value(512, 'c');
  // Overwrite a small key set many times: mostly garbage.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(h.kv()
                      ->Put(h.io, "k" + std::to_string(i),
                            value + std::to_string(round))
                      .ok());
    }
  }
  ASSERT_TRUE(h.kv()->Commit(h.io).ok());
  const uint64_t before = h.kv()->file_bytes();
  ASSERT_TRUE(h.kv()->Compact(h.io).ok());
  EXPECT_LT(h.kv()->file_bytes(), before / 4);
  for (int i = 0; i < 50; ++i) {
    std::string v;
    ASSERT_TRUE(h.kv()->Get(h.io, "k" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, value + "19");
  }
  EXPECT_EQ(h.kv()->stats().compactions, 1u);
}

TEST(KvStoreTest, CrashAfterCompactionRecovers) {
  Stack h(KvSpec(true, true, 10));
  ASSERT_TRUE(h.Open().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.kv()->Put(h.io, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(h.kv()->Compact(h.io).ok());
  h.Crash(h.io.now);
  ASSERT_TRUE(h.Open().ok());
  EXPECT_EQ(h.kv()->doc_count(), 100u);
}

TEST(KvStoreTest, EachUpdateRewritesRootToLeafPath) {
  // Sec. 4.3.3: an update appends the doc plus every node on the path.
  Stack h(KvSpec(true, true, 1000000));  // Never auto-commit.
  ASSERT_TRUE(h.Open().ok());
  const std::string value(1024, 'p');
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(
        h.kv()->Put(h.io, "doc" + std::to_string(i), value).ok());
  }
  const uint64_t nodes_before = h.kv()->stats().node_appends;
  ASSERT_TRUE(h.kv()->Put(h.io, "doc0", value).ok());
  const uint64_t path_nodes = h.kv()->stats().node_appends - nodes_before;
  EXPECT_GE(path_nodes, 2u);  // Root + leaf at least.
  EXPECT_LE(path_nodes, 5u);
}

}  // namespace
}  // namespace durassd
