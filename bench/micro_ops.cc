// google-benchmark microbenchmarks for the hot paths of the library itself
// (wall-clock cost of the simulator, not virtual-time results): device
// read/write dispatch, FTL programs and GC, B+-tree operations, CRC,
// histogram.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/random.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/wal.h"
#include "flash/flash_array.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ftl.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

// The dispatched CRC (SSE4.2 when the CPU has it) and the table fallback.
template <uint32_t (*kCrc)(const void*, size_t, uint32_t)>
void BM_Crc(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(kCrc(data.data(), data.size(), 0));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
void BM_Crc32c(benchmark::State& state) { BM_Crc<Crc32c>(state); }
void BM_Crc32cPortable(benchmark::State& state) {
  BM_Crc<Crc32cPortable>(state);
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(4096);
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(1024)->Arg(4096);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Random rng(1);
  for (auto _ : state) {
    h.Record(static_cast<SimTime>(rng.Uniform(100 * kMillisecond)));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_ZipfianNext(benchmark::State& state) {
  Random rng(2);
  ZipfianGenerator zipf(1000000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.NextScrambled(rng));
  }
}
BENCHMARK(BM_ZipfianNext);

void BM_SsdCachedWrite(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = false;
  SsdDevice dev(cfg);
  const std::string data(4096, 'w');
  Random rng(3);
  SimTime t = 0;
  for (auto _ : state) {
    const auto r = dev.Write(t, rng.Uniform(dev.num_sectors()), data);
    t = r.done;
  }
}
BENCHMARK(BM_SsdCachedWrite);

void BM_SsdRead(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = false;
  SsdDevice dev(cfg);
  const std::string data(4096, 'r');
  SimTime t = 0;
  for (Lpn l = 0; l < 4096; ++l) t = dev.Write(t, l, data).done;
  Random rng(4);
  for (auto _ : state) {
    const auto r = dev.Read(t, rng.Uniform(4096), 1, nullptr);
    t = r.done;
  }
}
BENCHMARK(BM_SsdRead);

// Steady-state random overwrites of a small hot set straight into the FTL,
// with GC running, while the unpersisted mapping delta holds
// state.range(0) further entries (sectors written once since the last
// PersistMapping, as on a durable-cache device that never sees FLUSH
// CACHE). Their rollback target is "unmapped", so GC never forces them out
// and the delta stays at range(0) plus the dirty part of the hot set. The
// per-write cost should not depend on range(0).
void BM_FtlOverwriteGc(benchmark::State& state) {
  constexpr Lpn kHot = 512;
  FlashGeometry g;
  g.channels = 4;
  g.packages_per_channel = 1;
  g.chips_per_package = 1;
  g.planes_per_chip = 2;
  g.blocks_per_plane = 256;
  g.pages_per_block = 64;
  FlashArray flash(FlashArray::Options{g, /*store_data=*/false});
  Ftl ftl(&flash, Ftl::Options{});
  const Lpn parked = static_cast<Lpn>(state.range(0));

  SimTime t = 0;
  SimTime start = 0;
  auto write = [&](const std::vector<Ftl::SectorWrite>& w) {
    if (!ftl.ProgramSectors(t, w, &start, &t).ok()) std::abort();
  };
  for (Lpn l = 0; l < kHot; ++l) write({{l, nullptr}});
  ftl.PersistMapping();
  for (Lpn l = kHot; l < kHot + parked; l += 2) {
    write({{l, nullptr}, {l + 1, nullptr}});
  }
  Random rng(9);
  // Run until GC has cycled through the device before timing.
  for (uint64_t i = 0; i < g.total_pages(); ++i) {
    write({{rng.Uniform(kHot), nullptr}});
  }
  const uint64_t gc_before = ftl.stats().gc_runs;

  for (auto _ : state) write({{rng.Uniform(kHot), nullptr}});

  state.counters["delta"] =
      static_cast<double>(ftl.dirty_mapping_entries());
  state.counters["gc_per_op"] =
      static_cast<double>(ftl.stats().gc_runs - gc_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_FtlOverwriteGc)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(65536)
    ->Iterations(200000);

class BTreeFixture : public benchmark::Fixture {
 public:
  class Bump : public PageAllocator {
   public:
    StatusOr<PageId> AllocatePage(IoContext&) override { return next_++; }
    PageId next_ = 1;
  };

  void SetUp(const benchmark::State&) override {
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.store_data = true;
    dev = std::make_unique<SsdDevice>(cfg);
    fs = std::make_unique<SimFileSystem>(dev.get(), SimFileSystem::Options{});
    wal = std::make_unique<Wal>(fs->Open("wal"), Wal::Options{});
    pool = std::make_unique<BufferPool>(
        fs->Open("data"), wal.get(), nullptr,
        BufferPool::Options{64 * kMiB, 4096, false, 0});
    MutationCtx m{0, 0, nullptr};
    auto root = BTree::Create(io, pool.get(), &alloc, m);
    tree = std::make_unique<BTree>(pool.get(), &alloc, *root);
    Random rng(5);
    for (int i = 0; i < 100000; ++i) {
      tree->Put(io, m, "key" + std::to_string(i), "value-payload-000");
    }
  }
  void TearDown(const benchmark::State&) override {
    tree.reset();
    pool.reset();
    wal.reset();
    fs.reset();
    dev.reset();
  }

  IoContext io;
  Bump alloc;
  std::unique_ptr<SsdDevice> dev;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<BTree> tree;
};

BENCHMARK_F(BTreeFixture, Get)(benchmark::State& state) {
  Random rng(6);
  std::string v;
  for (auto _ : state) {
    tree->Get(io, "key" + std::to_string(rng.Uniform(100000)), &v);
  }
}

BENCHMARK_F(BTreeFixture, Put)(benchmark::State& state) {
  Random rng(7);
  MutationCtx m{0, 0, nullptr};
  for (auto _ : state) {
    tree->Put(io, m, "key" + std::to_string(rng.Uniform(100000)),
              "value-payload-001");
  }
}

void BM_KvStorePut(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = true;
  SsdDevice dev(cfg);
  SimFileSystem fs(&dev, SimFileSystem::Options{});
  IoContext io;
  KvStore::Options ko;
  ko.batch_size = 100;
  auto store = KvStore::Open(io, &fs, "b.couch", ko);
  const std::string value(1024, 'v');
  Random rng(8);
  for (auto _ : state) {
    (*store)->Put(io, "user" + std::to_string(rng.Uniform(100000)), value);
  }
}
BENCHMARK(BM_KvStorePut);

// Zipfian point reads of 1 KB documents over a committed 20k-document store:
// the tree walk through the node cache plus the document read and its CRC.
void BM_KvStoreGet(benchmark::State& state) {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = true;
  SsdDevice dev(cfg);
  SimFileSystem fs(&dev, SimFileSystem::Options{});
  IoContext io;
  KvStore::Options ko;
  ko.batch_size = 100;
  auto store = KvStore::Open(io, &fs, "b.couch", ko);
  constexpr uint64_t kDocs = 20000;
  const std::string value(1024, 'v');
  for (uint64_t i = 0; i < kDocs; ++i) {
    (*store)->Put(io, "user" + std::to_string(i), value);
  }
  (*store)->Commit(io);
  ZipfianGenerator zipf(kDocs, 0.99);
  Random rng(9);
  std::string out;
  for (auto _ : state) {
    (*store)->Get(io, "user" + std::to_string(zipf.NextScrambled(rng)), &out);
  }
}
BENCHMARK(BM_KvStoreGet);

}  // namespace
}  // namespace durassd

// Custom main instead of BENCHMARK_MAIN(): translate the repo-wide bench
// flags (--json <path>, --quick) into google-benchmark's own flags so
// run_benches.sh can drive every binary with the same command line.
// google-benchmark already emits machine-readable JSON; no BenchJson here.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag;
  std::string fmt_flag = "--benchmark_out_format=json";
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[i + 1];
      ++i;
    } else if (strncmp(argv[i], "--json=", 7) == 0) {
      out_flag = std::string("--benchmark_out=") + (argv[i] + 7);
    } else if (strcmp(argv[i], "--quick") == 0) {
      // Wall-clock microbenchmarks are already short; nothing to trim.
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
