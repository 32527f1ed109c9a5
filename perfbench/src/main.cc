// perfbench: the repository benchmark program. One run of one workload
// repeats set-up -> measured phase -> power cut + recovery -> verification
// until --seconds have passed, and reports the median host time of each
// phase. The simulation is deterministic, so every repetition must give
// the same virtual-time results; a digest over them is printed and
// checked. With --trace 1 untraced and traced repetitions alternate, and
// the per-layer metrics come from the traced ones.
//
//   perfbench --workload <linkbench|ycsb_kv|device_randrw> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is non-zero on a wrong read, a lost acknowledged write, a
// failed workload self-check or a digest mismatch between repetitions.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
          "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
          why);
  exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = strtoull(v.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = strtod(v.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = v == "1";
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == v.c_str())) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !IsWorkload(a.workload)) Usage("unknown workload");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

/// Exact nearest-rank percentile of a sorted sample; `beyond` receives the
/// number of samples above the returned rank.
double Percentile(const std::vector<SimTime>& sorted, double p,
                  uint64_t* beyond) {
  if (sorted.empty()) {
    *beyond = 0;
    return 0;
  }
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  *beyond = sorted.size() - rank;
  return static_cast<double>(sorted[rank - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

struct Metric {
  double value;
  const char* unit;
};
using Metrics = std::map<std::string, Metric>;

/// Virtual-time end-to-end metrics of one repetition (identical across
/// repetitions of one seed). Percentiles with fewer than ten samples
/// beyond them are reported as a self-check failure.
void VirtualMetrics(RepResult& r, Metrics* m, std::vector<std::string>* bad,
                    std::map<std::string, double>* counts) {
  std::sort(r.read_ns.begin(), r.read_ns.end());
  std::sort(r.write_ns.begin(), r.write_ns.end());
  const double makespan_s = static_cast<double>(r.makespan) / 1e9;
  (*m)["sim_ops_per_s"] = {
      makespan_s > 0 ? static_cast<double>(r.attempted) / makespan_s : 0,
      "ops/sim_s"};
  const struct {
    const char* kind;
    const std::vector<SimTime>* v;
  } kinds[] = {{"read", &r.read_ns}, {"write", &r.write_ns}};
  for (const auto& k : kinds) {
    (*counts)[std::string("sim_") + k.kind + "_samples"] =
        static_cast<double>(k.v->size());
    for (const auto& [p, tag] : {std::pair<double, const char*>{50, "p50"},
                                 {99, "p99"},
                                 {99.9, "p999"}}) {
      uint64_t beyond = 0;
      const double ns = Percentile(*k.v, p, &beyond);
      const std::string name = std::string("sim_") + k.kind + "_" + tag + "_us";
      (*m)[name] = {ns / 1000.0, "sim_us"};
      if (beyond < 10) {
        bad->push_back(name + ": only " + std::to_string(beyond) +
                       " samples beyond it");
      }
    }
  }
  (*m)["user_write_amp"] = {
      r.user_bytes == 0 ? 0
                        : static_cast<double>(r.nand_bytes) /
                              static_cast<double>(r.user_bytes),
      "B/B"};
  (*m)["sim_recover_ms"] = {static_cast<double>(r.sim_recover_ns) / 1e6,
                            "sim_ms"};
}

/// FNV-1a over every virtual-time metric and per-layer count, printed with
/// all their digits: equal digests mean an identical simulation.
std::string Digest(const Metrics& virt, const RepResult& r,
                   const std::map<std::string, double>& counts) {
  std::string text;
  char line[160];
  const auto add = [&](const std::string& name, double v) {
    snprintf(line, sizeof(line), "%s=%.17g\n", name.c_str(), v);
    text += line;
  };
  for (const auto& [name, m] : virt) add(name, m.value);
  for (const auto& [name, v] : r.layer) add(name, v);
  for (const auto& [name, v] : counts) add(name, v);
  add("attempted", static_cast<double>(r.attempted));
  add("failed", static_cast<double>(r.failed));
  add("wrong_reads", static_cast<double>(r.wrong_reads));
  add("lost_writes", static_cast<double>(r.lost_writes));
  add("makespan_ns", static_cast<double>(r.makespan));
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  snprintf(line, sizeof(line), "%016llx", static_cast<unsigned long long>(h));
  return line;
}

constexpr SpanKind kDevKinds[] = {SpanKind::kDevWrite, SpanKind::kDevRead,
                                   SpanKind::kDevFlush, SpanKind::kDevBarrier};

/// Per-layer metrics: span-derived ones from a traced repetition, the rest
/// from the layers' stats accessors.
Metrics LayerMetrics(const RepResult& r) {
  Metrics m;
  const auto agg = [](const SpanAggs& a, SpanKind k) -> const SpanAgg& {
    return a[static_cast<size_t>(k)];
  };
  const auto mean_self = [](const SpanAgg& a) {
    return a.calls == 0 ? 0.0
                        : static_cast<double>(a.self_ns) /
                              static_cast<double>(a.calls);
  };
  const auto sim_pct = [](const SpanAgg& a, double p) {
    std::vector<SimTime> v = a.sim_ns;
    std::sort(v.begin(), v.end());
    uint64_t beyond = 0;
    return Percentile(v, p, &beyond);
  };
  const SpanAgg& run = agg(r.run_spans, SpanKind::kSimRun);
  m["sim.sched.self_ns_per_op"] = {
      r.attempted == 0 ? 0
                       : static_cast<double>(run.self_ns) /
                             static_cast<double>(r.attempted),
      "ns/op"};
  m["op.self_ns_mean"] = {mean_self(agg(r.run_spans, SpanKind::kOp)), "ns"};
  for (SpanKind k : {SpanKind::kDbBegin, SpanKind::kDbGet, SpanKind::kDbPut,
                     SpanKind::kDbDelete, SpanKind::kDbScan,
                     SpanKind::kDbCount, SpanKind::kDbCommit,
                     SpanKind::kKvGet, SpanKind::kKvPut, SpanKind::kKvCommit}) {
    const SpanAgg& a = agg(r.run_spans, k);
    const std::string n = SpanName(k);
    m[n + ".calls"] = {static_cast<double>(a.calls), "count"};
    m[n + ".self_ns_mean"] = {mean_self(a), "ns"};
    m[n + ".sim_ns_p99"] = {sim_pct(a, 99), "sim_ns"};
  }
  for (SpanKind k : kDevKinds) {
    const SpanAgg& a = agg(r.run_spans, k);
    const std::string n = SpanName(k);
    m[n + ".calls"] = {static_cast<double>(a.calls), "count"};
    m[n + ".sectors"] = {static_cast<double>(a.sectors), "count"};
    m[n + ".self_ns_mean"] = {mean_self(a), "ns"};
    m[n + ".sim_ns_p50"] = {sim_pct(a, 50), "sim_ns"};
    m[n + ".sim_ns_p99"] = {sim_pct(a, 99), "sim_ns"};
  }
  for (SpanKind k : {SpanKind::kSetupDeviceCtor, SpanKind::kSetupEngineOpen,
                     SpanKind::kSetupLoad}) {
    m[std::string(SpanName(k)) + ".self_ns"] = {
        static_cast<double>(agg(r.setup_spans, k).self_ns), "ns"};
  }
  for (SpanKind k : {SpanKind::kRecoverPowerCut, SpanKind::kRecoverPowerOn,
                     SpanKind::kRecoverEngineOpen}) {
    m[std::string(SpanName(k)) + ".self_ns"] = {
        static_cast<double>(agg(r.recover_spans, k).self_ns), "ns"};
  }
  // Device time inside the set-up and recovery phases, so that each
  // phase's parts add up to its end-to-end time.
  const auto dev_self = [&](const SpanAggs& a) {
    int64_t ns = 0;
    for (SpanKind k : kDevKinds) ns += agg(a, k).self_ns;
    return static_cast<double>(ns);
  };
  m["setup.dev.self_ns"] = {dev_self(r.setup_spans), "ns"};
  m["recover.dev.self_ns"] = {dev_self(r.recover_spans), "ns"};

  struct Stat {
    const char* name;
    const char* unit;
  };
  static constexpr Stat kStats[] = {
      {"db.pool.miss_ratio", "ratio"},
      {"db.pool.evictions", "count"},
      {"db.pool.dirty_evictions", "count"},
      {"db.pool.reads_blocked_by_writes", "count"},
      {"db.wal.commits_per_sync", "ratio"},
      {"db.wal.bytes_per_commit", "B"},
      {"db.checkpoints", "count"},
      {"kv.node_appends_per_put", "ratio"},
      {"kv.bytes_per_put", "B"},
      {"kv.commits_per_sync_group", "ratio"},
      {"host.fs.flush_cmds", "count"},
      {"host.fs.batched_sync_ratio", "ratio"},
      {"host.bytes_per_user_byte", "B/B"},
      {"ssd.cache_hit_ratio", "ratio"},
      {"ssd.write_stall_ns", "sim_ns"},
      {"ssd.destage_absorbed", "count"},
      {"ssd.destage_batches", "count"},
      {"ssd.write_amplification", "B/B"},
      {"ssd.dumped_pages", "count"},
      {"ssd.replayed_pages", "count"},
      {"ssd.ncq_wait_ns.p99", "sim_ns"},
      {"ssd.bus_ns.p99", "sim_ns"},
      {"ssd.fw_ns.p99", "sim_ns"},
      {"ssd.frame_stall_ns.p99", "sim_ns"},
      {"ssd.destage_ns.p99", "sim_ns"},
      {"ssd.flush_drain_ns.p99", "sim_ns"},
      {"ftl.gc_runs", "count"},
      {"ftl.gc_erases", "count"},
      {"ftl.gc_programs_per_host_program", "ratio"},
      {"ftl.program_ns.p99", "sim_ns"},
      {"ftl.gc_relocation_ns.p99", "sim_ns"},
      {"flash.reads", "count"},
      {"flash.programs", "count"},
      {"flash.erases", "count"},
      {"flash.multi_plane_ratio", "ratio"},
  };
  for (const Stat& s : kStats) {
    const auto it = r.layer.find(s.name);
    m[s.name] = {it == r.layer.end() ? 0.0 : it->second, s.unit};
  }
  return m;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    printf("%.17g", v);
  } else {
    printf("null");
  }
}

int Run(const Args& args) {
  const char* executor = getenv("DURASSD_EXECUTOR");
  if (executor != nullptr && strcmp(executor, "sharded") == 0) {
    fprintf(stderr,
            "perfbench: refusing to run with DURASSD_EXECUTOR=sharded; the "
            "benchmark is defined on the serial executor\n");
    return 2;
  }

  const auto t0 = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // Repetition 0 warms the process up (heap growth, first page touches):
  // its virtual-time results are checked like every other repetition's,
  // but its host times are left out. Untraced runs then repeat at least
  // three times so each host-time metric is a median; traced runs
  // alternate traced and untraced repetitions.
  const int min_reps = args.trace ? 3 : 4;

  std::vector<double> setup_s, host_ops, recover_s, traced_host_ops;
  std::vector<Metrics> traced_layers;
  std::vector<std::string> failures;
  Metrics virt;
  std::string digest;
  std::map<std::string, double> sizes;
  uint64_t attempted = 0, failed = 0, wrong = 0, lost = 0;
  bool trace_written = false;

  for (int rep = 0; rep < min_reps || elapsed() < args.seconds; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    std::unique_ptr<SpanRecorder> recorder;
    if (traced) {
      recorder = std::make_unique<SpanRecorder>();
      g_spans = recorder.get();
    }
    RepResult r = RunRep(args.workload, args.seed, traced);
    g_spans = nullptr;

    Metrics rep_virt;
    std::map<std::string, double> counts;
    std::vector<std::string> bad = r.check_failures;
    VirtualMetrics(r, &rep_virt, &bad, &counts);
    const std::string d = Digest(rep_virt, r, counts);
    const double ops_per_s = static_cast<double>(r.attempted) / r.measure_s;
    printf("rep %d %s: setup %.3f s, measured %.3f s (%.0f ops/s), recover "
           "%.3f s, digest %s\n",
           rep, traced ? "traced" : "untraced", r.setup_s, r.measure_s,
           ops_per_s, r.recover_s, d.c_str());
    if (rep == 0) {
      virt = rep_virt;
      digest = d;
      sizes = r.sizes;
      failures = bad;
    } else if (d != digest) {
      failures.push_back("virtual-time digest of " +
                         std::string(traced ? "traced" : "untraced") +
                         " repetition " + std::to_string(rep) + " (" + d +
                         ") differs from repetition 0 (" + digest + ")");
    }
    attempted += r.attempted;
    failed += r.failed;
    wrong += r.wrong_reads;
    lost += r.lost_writes;
    if (traced) {
      traced_host_ops.push_back(ops_per_s);
      traced_layers.push_back(LayerMetrics(r));
      if (!trace_written && !args.trace_out.empty()) {
        if (!recorder->WriteChromeTrace(args.trace_out)) {
          failures.push_back("cannot write trace " + args.trace_out);
        }
        printf("trace: %zu spans (%zu not kept) written to %s\n",
               recorder->stored_spans(), recorder->dropped_spans(),
               args.trace_out.c_str());
        trace_written = true;
      }
    } else if (rep > 0) {
      setup_s.push_back(r.setup_s);
      host_ops.push_back(ops_per_s);
      recover_s.push_back(r.recover_s);
    }
  }
  if (wrong > 0) failures.push_back(std::to_string(wrong) + " wrong reads");
  if (lost > 0) {
    failures.push_back(std::to_string(lost) +
                       " acknowledged writes lost after the power cut");
  }

  printf("env {\"workload\":\"%s\",\"seed\":%llu,\"build_type\":\"%s\","
         "\"compiler\":\"%s\",\"nproc\":%ld,\"executor\":\"serial\","
         "\"reps\":%zu,\"traced_reps\":%zu,\"sizes\":{",
         args.workload.c_str(), static_cast<unsigned long long>(args.seed),
         PERFBENCH_BUILD_TYPE, __VERSION__, sysconf(_SC_NPROCESSORS_ONLN),
         host_ops.size(), traced_host_ops.size());
  bool first = true;
  for (const auto& [k, v] : sizes) {
    printf("%s\"%s\":", first ? "" : ",", k.c_str());
    PrintJsonNumber(v);
    first = false;
  }
  printf("}}\n");
  printf("digest %s\n", digest.c_str());
  for (const std::string& f : failures) printf("FAILED: %s\n", f.c_str());

  Metrics out;
  if (args.trace) {
    // Each per-layer value is the median over the traced repetitions;
    // the virtual-time ones are identical in every repetition.
    for (const auto& [name, m] : traced_layers[0]) {
      std::vector<double> vals;
      for (const Metrics& l : traced_layers) vals.push_back(l.at(name).value);
      out[name] = {Median(vals), m.unit};
    }
    out["trace.overhead_ratio"] = {
        Median(traced_host_ops) / Median(host_ops), "ratio"};
  } else {
    out = virt;
    out["setup_s"] = {Median(setup_s), "s"};
    out["host_ops_per_s"] = {Median(host_ops), "ops/s"};
    out["recover_s"] = {Median(recover_s), "s"};
    out["peak_rss_mb"] = {PeakRssMb(), "MB"};
  }
  for (const auto& [name, m] : out) {
    printf("metric %-40s %.6g %s\n", name.c_str(), m.value, m.unit);
  }

  const bool correct = failures.empty();
  printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
         correct ? "true" : "false", static_cast<unsigned long long>(attempted),
         static_cast<unsigned long long>(failed));
  first = true;
  for (const auto& [name, m] : out) {
    printf("%s\"%s\":{\"value\":", first ? "" : ",", name.c_str());
    PrintJsonNumber(m.value);
    printf(",\"unit\":\"%s\"}", m.unit);
    first = false;
  }
  printf("}}\n");
  fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
