#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/coding.h"
#include "common/random.h"
#include "db/io_context.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

class KvHarness {
 public:
  KvHarness(bool durable_cache, bool write_barriers, uint32_t batch_size) {
    SsdConfig dc =
        durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
    dc.geometry = FlashGeometry::Tiny();
    dc.geometry.blocks_per_plane = 256;
    dc.geometry.pages_per_block = 32;  // ~256 MiB raw.
    dc.write_buffer_sectors = 256;
    dc.cache_capacity_sectors = 1024;
    dc.capacitor_budget_bytes = 16 * kMiB;
    device_ = std::make_unique<SsdDevice>(dc);
    SimFileSystem::Options fso;
    fso.write_barriers = write_barriers;
    fs_ = std::make_unique<SimFileSystem>(device_.get(), fso);
    batch_size_ = batch_size;
  }

  Status OpenStore() {
    KvStore::Options o;
    o.batch_size = batch_size_;
    auto s = KvStore::Open(io_, fs_.get(), "bucket.couch", o);
    if (!s.ok()) return s.status();
    store_ = std::move(*s);
    return Status::OK();
  }

  void Crash() {
    store_.reset();
    device_->PowerCut(io_.now);
    device_->PowerOn();
    io_.now = 0;
  }

  /// Closes the store without a power cut (the device keeps everything).
  void Close() { store_.reset(); }

  KvStore* store() { return store_.get(); }
  SimFileSystem* fs() { return fs_.get(); }
  IoContext& io() { return io_; }

 private:
  std::unique_ptr<SsdDevice> device_;
  std::unique_ptr<SimFileSystem> fs_;
  std::unique_ptr<KvStore> store_;
  uint32_t batch_size_;
  IoContext io_;
};

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
    KvHarness h(true, true, 100000);
    ASSERT_TRUE(h.OpenStore().ok());
    std::map<std::string, std::string> model;
    std::string last_key;
    for (int i = 0; i < 1500; ++i) {
      last_key = "k" + std::to_string(i * 7919 % 1500);
      model[last_key] = "value-" + std::to_string(i);
      ASSERT_TRUE(h.store()->Put(h.io(), last_key, model[last_key]).ok());
    }
    ASSERT_TRUE(h.store()->Commit(h.io()).ok());
    h.Close();

    // The last leaf and doc chunks appended are the ones Get(last_key)
    // reaches; the root above them is interior, so only it gets cached by
    // the reopen's root probe.
    SimFile* file = h.fs()->Open("bucket.couch");
    const uint64_t chunk =
        damage_node ? LastChunkOffset(file, h.io(), 2, /*leaf=*/1)
                    : LastChunkOffset(file, h.io(), 1, -1);
    ASSERT_NE(chunk, UINT64_MAX);
    FlipByte(file, h.io(), chunk + 12);

    ASSERT_TRUE(h.OpenStore().ok());
    EXPECT_EQ(h.store()->committed_seq(), 1500u);
    std::string got;
    EXPECT_TRUE(h.store()->Get(h.io(), last_key, &got).IsCorruption());
    for (const auto& [k, v] : model) {
      got.clear();
      const Status s = h.store()->Get(h.io(), k, &got);
      ASSERT_TRUE(s.ok() || s.IsCorruption()) << k << ": " << s.ToString();
      if (s.ok()) {
        EXPECT_EQ(got, v) << k;
      }
    }
  }
}

TEST(KvStoreTest, PutGetRoundTrip) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "doc1", "{\"a\":1}").ok());
  std::string v;
  ASSERT_TRUE(h.store()->Get(h.io(), "doc1", &v).ok());
  EXPECT_EQ(v, "{\"a\":1}");
  EXPECT_EQ(h.store()->doc_count(), 1u);
}

TEST(KvStoreTest, GetMissingNotFound) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  std::string v;
  EXPECT_TRUE(h.store()->Get(h.io(), "nope", &v).IsNotFound());
}

TEST(KvStoreTest, UpdateReplacesDocument) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "k", "v1").ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "k", "v2").ok());
  std::string v;
  ASSERT_TRUE(h.store()->Get(h.io(), "k", &v).ok());
  EXPECT_EQ(v, "v2");
  EXPECT_EQ(h.store()->doc_count(), 1u);
}

TEST(KvStoreTest, DeleteRemoves) {
  KvHarness h(true, true, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  ASSERT_TRUE(h.store()->Put(h.io(), "k", "v").ok());
  ASSERT_TRUE(h.store()->Delete(h.io(), "k").ok());
  std::string v;
  EXPECT_TRUE(h.store()->Get(h.io(), "k", &v).IsNotFound());
  EXPECT_EQ(h.store()->doc_count(), 0u);
  EXPECT_TRUE(h.store()->Delete(h.io(), "k").IsNotFound());
}

TEST(KvStoreTest, ManyDocsSplitTree) {
  KvHarness h(true, true, 100);
  ASSERT_TRUE(h.OpenStore().ok());
  const std::string value(1024, 'd');  // YCSB-sized documents.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        h.store()->Put(h.io(), "user" + std::to_string(i), value).ok());
  }
  ASSERT_TRUE(h.store()->Commit(h.io()).ok());
  EXPECT_EQ(h.store()->doc_count(), 2000u);
  for (int i = 0; i < 2000; i += 37) {
    std::string v;
    ASSERT_TRUE(h.store()->Get(h.io(), "user" + std::to_string(i), &v).ok())
        << i;
    EXPECT_EQ(v.size(), value.size());
  }
}

TEST(KvStoreTest, RandomizedMatchesModel) {
  KvHarness h(true, true, 10);
  ASSERT_TRUE(h.OpenStore().ok());
  Random rng(23);
  std::map<std::string, std::string> model;
  for (int op = 0; op < 4000; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(300));
    if (rng.Bernoulli(0.7)) {
      const std::string value = "v" + std::to_string(rng.Next() % 10000);
      ASSERT_TRUE(h.store()->Put(h.io(), key, value).ok());
      model[key] = value;
    } else {
      const Status s = h.store()->Delete(h.io(), key);
      if (model.erase(key) > 0) {
        EXPECT_TRUE(s.ok());
      } else {
        EXPECT_TRUE(s.IsNotFound());
      }
    }
  }
  EXPECT_EQ(h.store()->doc_count(), model.size());
  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(h.store()->Get(h.io(), k, &got).ok()) << k;
    EXPECT_EQ(got, v);
  }
}

TEST(KvStoreTest, BatchSizeControlsFsyncFrequency) {
  KvHarness h1(true, true, 1);
  KvHarness h100(true, true, 100);
  ASSERT_TRUE(h1.OpenStore().ok());
  ASSERT_TRUE(h100.OpenStore().ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(h1.store()->Put(h1.io(), "k" + std::to_string(i), "v").ok());
    ASSERT_TRUE(
        h100.store()->Put(h100.io(), "k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(h1.store()->stats().commits, 200u);
  EXPECT_EQ(h100.store()->stats().commits, 2u);
  // Fewer fsyncs => dramatically less virtual time (Table 5's effect).
  EXPECT_LT(h100.io().now * 5, h1.io().now);
}

TEST(KvStoreTest, CommittedBatchesSurviveCrash) {
  KvHarness h(true, true, 10);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  // 100 puts at batch 10 => all committed.
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_EQ(h.store()->doc_count(), 100u);
  for (int i = 0; i < 100; ++i) {
    std::string v;
    ASSERT_TRUE(h.store()->Get(h.io(), "k" + std::to_string(i), &v).ok())
        << i;
  }
}

TEST(KvStoreTest, UncommittedTailLostOnCrash) {
  KvHarness h(true, true, 100);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  // 150 puts at batch 100: one commit at 100; 50 in the tail.
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_EQ(h.store()->doc_count(), 100u);
  std::string v;
  EXPECT_TRUE(h.store()->Get(h.io(), "k99", &v).ok());
  EXPECT_TRUE(h.store()->Get(h.io(), "k100", &v).IsNotFound());
}

TEST(KvStoreTest, VolatileNoBarrierLosesCommittedBatches) {
  // The Couchbase version of the paper's warning: barriers off on a
  // volatile device, commits evaporate.
  KvHarness h(false, false, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_LT(h.store()->doc_count(), 30u);
}

TEST(KvStoreTest, DuraSsdNoBarrierKeepsCommittedBatches) {
  KvHarness h(true, false, 1);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_EQ(h.store()->doc_count(), 30u);
}

TEST(KvStoreTest, CompactionShrinksFileAndPreservesData) {
  KvHarness h(true, true, 50);
  ASSERT_TRUE(h.OpenStore().ok());
  const std::string value(512, 'c');
  // Overwrite a small key set many times: mostly garbage.
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(h.store()
                      ->Put(h.io(), "k" + std::to_string(i),
                            value + std::to_string(round))
                      .ok());
    }
  }
  ASSERT_TRUE(h.store()->Commit(h.io()).ok());
  const uint64_t before = h.store()->file_bytes();
  ASSERT_TRUE(h.store()->Compact(h.io()).ok());
  EXPECT_LT(h.store()->file_bytes(), before / 4);
  for (int i = 0; i < 50; ++i) {
    std::string v;
    ASSERT_TRUE(h.store()->Get(h.io(), "k" + std::to_string(i), &v).ok());
    EXPECT_EQ(v, value + "19");
  }
  EXPECT_EQ(h.store()->stats().compactions, 1u);
}

TEST(KvStoreTest, CrashAfterCompactionRecovers) {
  KvHarness h(true, true, 10);
  ASSERT_TRUE(h.OpenStore().ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(h.store()->Put(h.io(), "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(h.store()->Compact(h.io()).ok());
  h.Crash();
  ASSERT_TRUE(h.OpenStore().ok());
  EXPECT_EQ(h.store()->doc_count(), 100u);
}

TEST(KvStoreTest, EachUpdateRewritesRootToLeafPath) {
  // Sec. 4.3.3: an update appends the doc plus every node on the path.
  KvHarness h(true, true, 1000000);  // Never auto-commit.
  ASSERT_TRUE(h.OpenStore().ok());
  const std::string value(1024, 'p');
  for (int i = 0; i < 1500; ++i) {
    ASSERT_TRUE(
        h.store()->Put(h.io(), "doc" + std::to_string(i), value).ok());
  }
  const uint64_t nodes_before = h.store()->stats().node_appends;
  ASSERT_TRUE(h.store()->Put(h.io(), "doc0", value).ok());
  const uint64_t path_nodes = h.store()->stats().node_appends - nodes_before;
  EXPECT_GE(path_nodes, 2u);  // Root + leaf at least.
  EXPECT_LE(path_nodes, 5u);
}

}  // namespace
}  // namespace durassd
