// Reproduces Figure 5: LinkBench transaction throughput under the four
// write-barrier / double-write-buffer configurations {ON/ON, ON/OFF,
// OFF/ON, OFF/OFF} x page sizes {16KB, 8KB, 4KB}, 128 clients.
//
// Scale note: the paper runs a 100GB database against a 10GB buffer pool on
// real hardware; this harness keeps the same DB:pool ratio (~10:1) at
// simulator scale. Absolute TPS differs; the configuration ordering and
// gain factors are the reproduction target.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "sim/stack.h"
#include "workloads/linkbench.h"

namespace durassd {
namespace {

struct BarrierDwb {
  bool barriers;
  bool dwb;
  const char* label;
};
constexpr BarrierDwb kConfigs[] = {
    {true, true, "ON / ON"},
    {true, false, "ON / OFF"},
    {false, true, "OFF / ON"},
    {false, false, "OFF / OFF"},
};
constexpr uint32_t kPageSizes[] = {16 * kKiB, 8 * kKiB, 4 * kKiB};

bool g_stats = false;
BenchJson* g_json = nullptr;

double RunConfig(const char* label, bool barriers, bool dwb,
                 uint32_t page_size, uint64_t nodes, uint64_t requests) {
  StackSpec spec = StackSpec::DbBenchRig();
  spec.fs.write_barriers = barriers;
  spec.db.double_write = dwb;
  spec.db.page_size = page_size;
  // DB:pool ~ 10:1, like the paper's 100GB DB against a 10GB pool.
  spec.db.pool_bytes = nodes / 14 * kKiB;
  Stack rig(spec);
  if (!rig.Open().ok()) abort();

  LinkBench::Config lc;
  lc.num_nodes = nodes;
  lc.clients = 128;
  lc.requests = requests;
  LinkBench bench(rig.db(), lc);
  if (!bench.Load(rig.io).ok()) {
    fprintf(stderr, "load failed\n");
    abort();
  }
  auto result = bench.Run();
  if (!result.ok()) abort();
  if (g_json != nullptr) g_json->CountFailedOps(result->failed_ops);
  if (g_stats) {
    const auto& ps = rig.db()->pool_stats();
    const auto& ws = rig.db()->wal_stats();
    fprintf(stderr,
            "  [%uKB bar=%d dwb=%d] tps=%.0f miss=%.1f%% evict=%llu "
            "dirty_evict=%llu rbw=%llu wal_syncs=%llu rides=%llu "
            "data_flush=%llu log_flush=%llu stalls=%llu\n",
            page_size / 1024, barriers, dwb, result->tps,
            100.0 * ps.MissRatio(),
            (unsigned long long)ps.evictions,
            (unsigned long long)ps.dirty_evictions,
            (unsigned long long)ps.reads_blocked_by_writes,
            (unsigned long long)ws.syncs, (unsigned long long)ws.group_rides,
            (unsigned long long)rig.ssd()->stats().flushes,
            (unsigned long long)rig.log_ssd()->stats().flushes,
            (unsigned long long)rig.ssd()->stats().write_stalls);
    fprintf(stderr, "    lat(ms): getnode=%.2f getlinks=%.2f updnode=%.2f "
            "addlink=%.2f\n",
            result->latencies[LinkOp::kGetNode].Mean() / 1e6,
            result->latencies[LinkOp::kGetLinkList].Mean() / 1e6,
            result->latencies[LinkOp::kUpdateNode].Mean() / 1e6,
            result->latencies[LinkOp::kAddLink].Mean() / 1e6);
  }
  if (g_json != nullptr && g_json->enabled()) {
    BenchResult row(std::string(label) + "/page=" +
                    std::to_string(page_size / kKiB) + "KB");
    row.Param("write_barriers", barriers)
        .Param("double_write", dwb)
        .Param("page_size", static_cast<uint64_t>(page_size))
        .Throughput(result->tps, "txn/s")
        .LatencyNs(result->latencies[LinkOp::kAddLink])
        .Metrics(rig.db()->metrics())
        .Device(*rig.ssd());
    g_json->Add(std::move(row));
  }
  return result->tps;
}

void RunFigure(uint64_t nodes, uint64_t requests) {
  printf("Figure 5: LinkBench TPS (write-barrier / double-write-buffer)\n");
  printf("  %-12s %10s %10s %10s\n", "config", "16KB", "8KB", "4KB");
  for (const BarrierDwb& c : kConfigs) {
    printf("  %-12s", c.label);
    for (uint32_t ps : kPageSizes) {
      printf(" %10.0f",
             RunConfig(c.label, c.barriers, c.dwb, ps, nodes, requests));
      fflush(stdout);
    }
    printf("\n");
  }
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t nodes = 100000;
  uint64_t requests = 60000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      nodes = 40000;
      requests = 20000;
    }
    if (strcmp(argv[i], "--stats") == 0) durassd::g_stats = true;
  }
  durassd::BenchJson json("fig5_linkbench",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("nodes", nodes).Config("requests", requests)
      .Config("clients", uint64_t{128});
  durassd::g_json = &json;
  durassd::RunFigure(nodes, requests);
  return json.Finish();
}
