// Reproduces Figure 6: LinkBench buffer miss ratio (a) and TPS (b) as the
// buffer pool grows, per page size, under the OFF/OFF configuration.
// The paper sweeps 2..10 GB against a 100GB database; this harness sweeps
// the same pool:DB fractions (2%..10%) at simulator scale.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "sim/stack.h"
#include "workloads/linkbench.h"

namespace durassd {
namespace {

constexpr uint32_t kPageSizes[] = {16 * kKiB, 8 * kKiB, 4 * kKiB};

struct Point {
  double miss_pct;
  double tps;
};

BenchJson* g_json = nullptr;

Point RunConfig(uint32_t page_size, uint64_t pool_bytes, uint64_t nodes,
                uint64_t requests) {
  StackSpec spec = StackSpec::DbBenchRig();
  spec.fs.write_barriers = false;
  spec.db.double_write = false;
  spec.db.page_size = page_size;
  spec.db.pool_bytes = pool_bytes;
  Stack rig(spec);
  if (!rig.Open().ok()) abort();

  LinkBench::Config lc;
  lc.num_nodes = nodes;
  lc.clients = 128;
  lc.requests = requests;
  LinkBench bench(rig.db(), lc);
  if (!bench.Load(rig.io).ok()) abort();
  auto result = bench.Run();
  if (!result.ok()) abort();
  if (g_json != nullptr) g_json->CountFailedOps(result->failed_ops);
  if (g_json != nullptr && g_json->enabled()) {
    BenchResult row("page=" + std::to_string(page_size / kKiB) +
                    "KB/pool_bytes=" + std::to_string(pool_bytes));
    row.Param("page_size", static_cast<uint64_t>(page_size))
        .Param("pool_bytes", pool_bytes)
        .Throughput(result->tps, "txn/s")
        .Value("buffer_miss_pct", 100.0 * result->buffer_miss_ratio)
        .Metrics(rig.db()->metrics());
    g_json->Add(std::move(row));
  }
  return {100.0 * result->buffer_miss_ratio, result->tps};
}

void RunFigure(uint64_t nodes, uint64_t requests) {
  // Pool sweep: 2%..10% of the approximate on-disk size, mirroring the
  // paper's 2..10 GB against 100 GB.
  const uint64_t db_bytes = nodes * 700;  // ~700B/node incl. links+overhead.
  std::vector<uint64_t> pools;
  std::vector<int> pct{2, 4, 6, 8, 10};
  for (int p : pct) pools.push_back(db_bytes * p / 100);

  printf("Figure 6a: buffer miss ratio (%%), OFF/OFF\n");
  printf("  %-10s", "pool");
  for (int p : pct) printf(" %7d%%", p);
  printf("\n");
  std::vector<std::vector<Point>> grid(3);
  for (size_t s = 0; s < 3; ++s) {
    for (uint64_t pool : pools) {
      grid[s].push_back(RunConfig(kPageSizes[s], pool, nodes, requests));
    }
  }
  const char* labels[] = {"16KB", "8KB", "4KB"};
  for (size_t s = 0; s < 3; ++s) {
    printf("  %-10s", labels[s]);
    for (const Point& pt : grid[s]) printf(" %8.2f", pt.miss_pct);
    printf("\n");
  }
  printf("Figure 6b: TPS, OFF/OFF\n");
  for (size_t s = 0; s < 3; ++s) {
    printf("  %-10s", labels[s]);
    for (const Point& pt : grid[s]) printf(" %8.0f", pt.tps);
    printf("\n");
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t nodes = 120000;
  uint64_t requests = 40000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      nodes = 50000;
      requests = 15000;
    }
  }
  durassd::BenchJson json("fig6_buffer_sweep",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("nodes", nodes).Config("requests", requests);
  durassd::g_json = &json;
  durassd::RunFigure(nodes, requests);
  return json.Finish();
}
