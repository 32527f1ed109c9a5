// Ablation: mirrored two-device array — what whole-device failover costs
// the host, and what an online rebuild costs the foreground workload.
//
// Three measurements:
//   - Failover read latency: 4KB random reads against a healthy mirror,
//     then the read primary is killed mid-run. The first read after the
//     kill pays the discovery + redirect penalty; steady-state reads after
//     it run from the survivor. Reported: healthy p99, the discovery
//     read's latency, and the post-failover p99 (`failover_read_p99_us`,
//     regression-guarded).
//   - Rebuild interference: foreground 4KB random writes while the
//     rate-limited rebuild copies onto a hot spare, swept over the rebuild
//     pacing interval. Reported per interval: foreground IOPS, rebuild
//     copy rate, and `rebuild_foreground_floor` = foreground IOPS during
//     rebuild / foreground IOPS with no rebuild running (higher is
//     better, regression-guarded at the gentlest pacing).
//
// A failed read, write or rebuild start would truncate a sample, so it
// fails the run (exit 1) after the JSON is written.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "array/array_device.h"
#include "bench/bench_json.h"
#include "common/histogram.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

constexpr uint32_t kSectorBytes = 4 * kKiB;

SsdConfig MemberConfig() {
  SsdConfig cfg = SsdConfig::DuraSsd();
  cfg.store_data = false;  // Timing-only: keeps big sweeps cheap.
  return cfg;
}

uint64_t Rng(uint64_t* state) {
  *state ^= *state << 13;
  *state ^= *state >> 7;
  *state ^= *state << 17;
  return *state;
}

struct FailoverResult {
  bool ok = true;  ///< False if any read failed (the sample is truncated).
  Histogram healthy;
  Histogram failed_over;
  SimTime discovery_latency = 0;
};

FailoverResult RunFailoverReads(uint64_t ops) {
  ArrayConfig ac;
  auto arr = MakeMirroredArray(MemberConfig(), 2, ac);
  const uint64_t span = 64 * kMiB / kSectorBytes;
  constexpr uint64_t kSeedStride = 8;
  uint64_t rng = 42;
  const std::string sector(kSectorBytes, 'w');
  SimTime t = 0;
  // Seed the working set on both replicas; every read targets a seeded LPN,
  // so none is served as a never-written sector.
  for (uint64_t i = 0; i < span; i += kSeedStride) {
    t = arr->Write(t, i, sector).done;
  }
  const auto seeded_lpn = [&] {
    return Rng(&rng) % (span / kSeedStride) * kSeedStride;
  };

  FailoverResult res;
  std::string out;
  for (uint64_t i = 0; i < ops; ++i) {
    const Lpn lpn = seeded_lpn();
    const auto r = arr->Read(t, lpn, 1, &out);
    if (!r.status.ok()) {
      std::fprintf(stderr, "healthy read: %s\n", r.status.ToString().c_str());
      res.ok = false;
      break;
    }
    res.healthy.Record(r.done - t);
    t = r.done;
  }

  // Kill the read primary; the very next read discovers the death, retries
  // on the survivor, and every read after that is a plain redirect.
  arr->fault_injector().KillMemberAt(0, t + 1);
  {
    const Lpn lpn = seeded_lpn();
    const auto r = arr->Read(t + 2, lpn, 1, &out);
    if (r.status.ok()) {
      res.discovery_latency = r.done - (t + 2);
    } else {
      std::fprintf(stderr, "discovery read: %s\n",
                   r.status.ToString().c_str());
      res.ok = false;
    }
    t = r.done;
  }
  for (uint64_t i = 0; i < ops; ++i) {
    const Lpn lpn = seeded_lpn();
    const auto r = arr->Read(t, lpn, 1, &out);
    if (!r.status.ok()) {
      std::fprintf(stderr, "failed-over read: %s\n",
                   r.status.ToString().c_str());
      res.ok = false;
      break;
    }
    res.failed_over.Record(r.done - t);
    t = r.done;
  }
  return res;
}

struct RebuildResult {
  bool ok = true;  ///< False if the rebuild or any write failed.
  double foreground_iops = 0;
  double rebuild_mb_per_sec = 0;
  uint64_t copied_sectors = 0;
};

/// Foreground 4KB random writes for `ops` commands on a degraded mirror;
/// when `interval_ns` is nonzero a rebuild onto a hot spare runs
/// concurrently (pumped by the foreground commands themselves).
RebuildResult RunRebuildWindow(uint64_t ops, SimTime interval_ns) {
  ArrayConfig ac;
  ac.rebuild_batch_sectors = 64;
  ac.rebuild_interval_ns = interval_ns == 0 ? kMillisecond : interval_ns;
  auto arr = MakeMirroredArray(MemberConfig(), 2, ac);
  const uint64_t span = 64 * kMiB / kSectorBytes;
  uint64_t rng = 7;
  const std::string sector(kSectorBytes, 'w');

  // Degrade: kill member 0 (tripped by one write), then optionally start
  // the rebuild onto a fresh spare.
  arr->fault_injector().KillMemberAt(0, 1);
  SimTime t = arr->Write(2, 0, sector).done;
  if (interval_ns != 0) {
    const Status s = arr->StartRebuild(t, 0);
    if (!s.ok()) {
      std::fprintf(stderr, "StartRebuild: %s\n", s.ToString().c_str());
      RebuildResult failed;
      failed.ok = false;
      return failed;
    }
  }

  RebuildResult res;
  const SimTime start = t;
  const uint64_t copied0 = arr->stats().rebuild_copied_sectors;
  for (uint64_t i = 0; i < ops; ++i) {
    const Lpn lpn = Rng(&rng) % span;
    const auto w = arr->Write(t, lpn, sector);
    if (!w.status.ok()) {
      std::fprintf(stderr, "foreground write: %s\n",
                   w.status.ToString().c_str());
      res.ok = false;
      break;
    }
    t = w.done;
  }
  const SimTime window = t - start;
  res.copied_sectors = arr->stats().rebuild_copied_sectors - copied0;
  if (window > 0) {
    res.foreground_iops =
        static_cast<double>(ops) * kSecond / static_cast<double>(window);
    res.rebuild_mb_per_sec = static_cast<double>(res.copied_sectors) *
                             kSectorBytes / kMiB * kSecond /
                             static_cast<double>(window);
  }
  return res;
}

double Us(SimTime ns) { return static_cast<double>(ns) / 1000.0; }

/// Returns false if any read failed.
bool RunFailoverBench(uint64_t ops, BenchJson* json) {
  printf("Mirrored-pair failover: 4KB random read latency\n");
  const FailoverResult r = RunFailoverReads(ops);
  const double healthy_p99 = Us(r.healthy.Percentile(99));
  const double failover_p99 = Us(r.failed_over.Percentile(99));
  printf("  %-22s %10.1f us\n", "healthy p99", healthy_p99);
  printf("  %-22s %10.1f us\n", "discovery read", Us(r.discovery_latency));
  printf("  %-22s %10.1f us\n", "post-failover p99", failover_p99);
  if (json->enabled()) {
    BenchResult row("mirror2/randread_failover");
    row.Param("mirrors", static_cast<uint64_t>(2))
        .Param("ops", ops)
        .LatencyNs(r.failed_over)
        .Value("healthy_read_p99_us", healthy_p99)
        .Value("failover_discovery_us", Us(r.discovery_latency))
        .Value("failover_read_p99_us", failover_p99);
    json->Add(std::move(row));
  }
  return r.ok;
}

/// Returns false if any rebuild window failed.
bool RunRebuildBench(uint64_t ops, BenchJson* json) {
  printf("\nOnline rebuild interference: 4KB random write IOPS while the\n"
         "spare copies, vs the rebuild pacing interval\n");
  const RebuildResult base = RunRebuildWindow(ops, 0);
  bool ok = base.ok;
  printf("  %-14s %12.0f IOPS (no rebuild)\n", "degraded", base.foreground_iops);
  printf("  %-14s %12s %14s %10s\n", "interval", "fg IOPS", "rebuild MB/s",
         "floor");
  constexpr SimTime kIntervals[] = {50 * kMicrosecond, 200 * kMicrosecond,
                                    1 * kMillisecond};
  for (const SimTime interval : kIntervals) {
    const RebuildResult r = RunRebuildWindow(ops, interval);
    ok = ok && r.ok;
    const double floor = base.foreground_iops > 0
                             ? r.foreground_iops / base.foreground_iops
                             : 0;
    printf("  %10lld us %12.0f %14.1f %10.3f\n",
           static_cast<long long>(interval / 1000), r.foreground_iops,
           r.rebuild_mb_per_sec, floor);
    if (json->enabled()) {
      BenchResult row("mirror2/rebuild_interval=" +
                      std::to_string(interval / kMicrosecond) + "us");
      row.Param("rebuild_interval_us",
                static_cast<uint64_t>(interval / kMicrosecond))
          .Param("ops", ops)
          .Throughput(r.foreground_iops, "iops")
          .Value("rebuild_mb_per_sec", r.rebuild_mb_per_sec)
          .Value("rebuild_copied_sectors", r.copied_sectors);
      // Guard the floor only at the gentlest pacing: that is the knee the
      // scheduler promises (aggressive pacing legitimately trades
      // foreground throughput for copy rate).
      if (interval == 1 * kMillisecond) {
        row.Value("rebuild_foreground_floor", floor);
      }
      json->Add(std::move(row));
    }
  }
  return ok;
}

}  // namespace
}  // namespace durassd

int main(int argc, char** argv) {
  uint64_t read_ops = 20000;
  uint64_t write_ops = 8000;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--quick") == 0) {
      quick = true;
      read_ops = 4000;
      write_ops = 2000;
    }
  }
  durassd::BenchJson json("ablation_array_failover",
                          durassd::BenchJson::PathFromArgs(argc, argv), quick);
  json.Config("read_ops", read_ops);
  json.Config("write_ops", write_ops);
  const bool reads_ok = durassd::RunFailoverBench(read_ops, &json);
  const bool rebuild_ok = durassd::RunRebuildBench(write_ops, &json);
  const bool written = json.WriteFile();
  return reads_ok && rebuild_ok && written ? 0 : 1;
}
