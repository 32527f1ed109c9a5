// Ablation (DESIGN.md §13): host-parallelism sweep over disjoint
// simulation stacks. Four independent engine shards (each a full
// device -> file system -> WAL -> buffer pool -> B+-tree stack) run the
// same deterministic upsert workload, each as one ThreadPool job that runs
// ClientScheduler::Run to completion; the sweep varies only the number of
// HOST threads in the pool. Virtual-time results (ops, makespan) are
// bit-identical across the sweep — a shard never touches another shard's
// stack — while wall-clock throughput (sim_ops_per_wall_second) is the
// thing host parallelism is allowed to change. Wall-clock is only emitted
// in full runs: under --quick (CI) the workload is too small for stable
// timing, and the regression guard would flap on scheduler noise. Any
// failed Put fails the run.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "db/btree.h"
#include "db/buffer_pool.h"
#include "db/wal.h"
#include "host/sim_file.h"
#include "sim/client_scheduler.h"
#include "sim/thread_pool.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

class BumpAllocator : public PageAllocator {
 public:
  StatusOr<PageId> AllocatePage(IoContext& io) override {
    (void)io;
    return next_++;
  }

 private:
  PageId next_ = 1;
};

/// One engine shard: a private full stack driven by its shard's clients.
struct EngineShard {
  std::unique_ptr<SsdDevice> dev;
  std::unique_ptr<SimFileSystem> fs;
  std::unique_ptr<Wal> wal;
  std::unique_ptr<BufferPool> pool;
  BumpAllocator alloc;
  std::unique_ptr<BTree> tree;
  uint64_t op_seq = 0;
  uint64_t failed_ops = 0;

  explicit EngineShard(uint32_t seed) {
    SsdConfig cfg = SsdConfig::DuraSsd();
    cfg.geometry = FlashGeometry::Tiny();
    cfg.geometry.blocks_per_plane = 128;
    cfg.geometry.pages_per_block = 32;
    dev = std::make_unique<SsdDevice>(cfg);
    fs = std::make_unique<SimFileSystem>(dev.get(), SimFileSystem::Options{});
    wal = std::make_unique<Wal>(fs->Open("wal"), Wal::Options{});
    BufferPool::Options popts;
    popts.pool_bytes = 2 * kMiB;
    popts.page_size = 4 * kKiB;
    pool = std::make_unique<BufferPool>(fs->Open("data"), wal.get(), nullptr,
                                        popts);
    IoContext io;
    MutationCtx m{kInvalidLsn, 0, nullptr};
    auto root = BTree::Create(io, pool.get(), &alloc, m);
    tree = std::make_unique<BTree>(pool.get(), &alloc, *root);
    op_seq = seed * 1000003ull;
  }

  /// One client op: an upsert over a 4K-key space (real page churn), with
  /// a 5us host-CPU floor so buffer-cache hits still consume virtual time.
  SimTime Op(SimTime now) {
    IoContext io;
    io.now = now;
    MutationCtx m{kInvalidLsn, 0, nullptr};
    const uint64_t k = op_seq++ % 4096;
    std::string key = "key-" + std::to_string(k);
    std::string value = "v" + std::to_string(op_seq) + std::string(90, 'x');
    if (!tree->Put(io, m, key, value).ok()) failed_ops++;
    const SimTime floor = now + 5 * kMicrosecond;
    return io.now > floor ? io.now : floor;
  }
};

struct SweepPoint {
  uint64_t sim_ops = 0;
  uint64_t failed_ops = 0;
  SimTime makespan = 0;
  double wall_seconds = 0;
};

SweepPoint RunOnce(uint32_t threads, uint64_t ops_per_shard) {
  constexpr uint32_t kShards = 4;
  std::vector<std::unique_ptr<EngineShard>> engines;
  std::vector<ClientScheduler::RunResult> results(kShards);
  std::vector<std::function<void()>> thunks;
  for (uint32_t s = 0; s < kShards; ++s) {
    engines.push_back(std::make_unique<EngineShard>(s + 1));
    EngineShard* e = engines.back().get();
    ClientScheduler::RunResult* r = &results[s];
    thunks.push_back([e, r, ops_per_shard] {
      *r = ClientScheduler::Run(/*num_clients=*/4, ops_per_shard,
                                /*start_time=*/0,
                                [e](uint32_t client, SimTime now) {
                                  (void)client;
                                  return e->Op(now);
                                });
    });
  }
  ThreadPool pool(threads);
  const auto t0 = std::chrono::steady_clock::now();
  pool.RunBatch(thunks);
  const auto t1 = std::chrono::steady_clock::now();

  SweepPoint p;
  for (uint32_t s = 0; s < kShards; ++s) {
    p.sim_ops += results[s].ops;
    p.makespan = std::max(p.makespan, results[s].makespan);
    p.failed_ops += engines[s]->failed_ops;
  }
  p.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  return p;
}

/// Returns false if any thread count diverged from the 1-thread results or
/// any operation failed.
bool RunSweep(uint64_t ops_per_shard, bool quick, BenchJson* json) {
  printf("Ablation: host threads vs wall-clock throughput (disjoint stacks)\n");
  printf("  4 engine shards x %llu ops; virtual-time results must be\n",
         static_cast<unsigned long long>(ops_per_shard));
  printf("  identical across the sweep (shards share no state)\n");
  printf("  %-8s %12s %14s %14s %10s\n", "threads", "sim_ops",
         "makespan_ms", "wall_ms", "speedup");

  double base_wall = 0;
  SweepPoint first;
  bool ok = true;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    const SweepPoint p = RunOnce(threads, ops_per_shard);
    if (p.failed_ops != 0) {
      ok = false;
      fprintf(stderr, "FAILED OPS: threads=%u had %llu failed Puts\n",
              threads, static_cast<unsigned long long>(p.failed_ops));
    }
    if (threads == 1) {
      base_wall = p.wall_seconds;
      first = p;
    } else if (p.sim_ops != first.sim_ops || p.makespan != first.makespan) {
      ok = false;
      fprintf(stderr,
              "DETERMINISM VIOLATION: threads=%u diverged "
              "(ops %llu vs %llu, makespan %lld vs %lld)\n",
              threads, static_cast<unsigned long long>(p.sim_ops),
              static_cast<unsigned long long>(first.sim_ops),
              static_cast<long long>(p.makespan),
              static_cast<long long>(first.makespan));
    }
    const double speedup =
        p.wall_seconds > 0 ? base_wall / p.wall_seconds : 0.0;
    printf("  %-8u %12llu %14.2f %14.1f %9.2fx\n", threads,
           static_cast<unsigned long long>(p.sim_ops),
           static_cast<double>(p.makespan) / kMillisecond,
           p.wall_seconds * 1e3, speedup);

    if (json->enabled()) {
      BenchResult row{"threads=" + std::to_string(threads)};
      row.Param("host_threads", static_cast<uint64_t>(threads))
          .Param("shards", static_cast<uint64_t>(4))
          .Param("ops_per_shard", ops_per_shard)
          // Virtual-time throughput: deterministic, safe to guard per-row.
          .Throughput(static_cast<double>(p.sim_ops) /
                          (static_cast<double>(p.makespan) / kSecond),
                      "sim_ops_per_sim_second")
          .Value("sim_makespan_ns", static_cast<uint64_t>(p.makespan));
      if (!quick) {
        // Wall-clock scaling: guarded (higher is better), full runs only —
        // quick-mode workloads are too small for stable wall timing.
        row.Value("sim_ops_per_wall_second",
                  p.wall_seconds > 0
                      ? static_cast<double>(p.sim_ops) / p.wall_seconds
                      : 0.0);
      }
      json->Add(std::move(row));
    }
  }
  return ok;
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t ops_per_shard = 30000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      ops_per_shard = 4000;
    }
  }
  durassd::BenchJson json("ablation_host_parallelism",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("ops_per_shard", ops_per_shard);
  const bool ok = durassd::RunSweep(ops_per_shard, quick, &json);
  const bool written = json.WriteFile();
  return ok && written ? 0 : 1;
}
