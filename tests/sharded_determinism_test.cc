// Determinism regression for host parallelism: disjoint simulation stacks
// run side by side on a ThreadPool must produce bit-identical results to
// the same stacks run one after another on the calling thread. Each shard
// runs a full mirrored-array crash-torture scenario (CrashHarness with
// member kill + online rebuild) from inside its client loop, so the
// heavyweight work really lands on whichever pool worker runs the shard —
// and the composite of every shard's Report, schedule log, and scheduler
// result must match the inline run for {1, 2, 4, 8} pool threads.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/client_scheduler.h"
#include "sim/crash_harness.h"
#include "sim/thread_pool.h"

namespace durassd {
namespace {

/// Deterministic pseudo-random service time for (client, now).
SimTime Service(uint32_t client, SimTime now, uint64_t salt) {
  uint64_t h = now ^ (client * 0x9E3779B97F4A7C15ull) ^ salt;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDull;
  h ^= h >> 33;
  return 1 + (h % (2 * kMicrosecond));
}

std::string Format(const CrashHarness::Report& r) {
  std::string s = "ok=" + std::to_string(r.ok) +
                  " cuts=" + std::to_string(r.cuts) +
                  " attempts=" + std::to_string(r.recovery_attempts) +
                  " recovered=" + std::to_string(r.recovered) +
                  " in_flight=" + std::to_string(r.commit_in_flight) +
                  " acked=" + std::to_string(r.commits_acked) +
                  " snapshot=" + std::to_string(r.snapshot_matched) +
                  " degraded=" + std::to_string(r.degraded);
  for (const std::string& v : r.violations) s += " V[" + v + "]";
  return s;
}

CrashHarness::Options TortureOptions(uint32_t shard) {
  CrashHarness::Options o;
  o.engine = shard % 2 == 0 ? CrashHarness::Engine::kDatabase
                            : CrashHarness::Engine::kKvStore;
  o.seed = 7000 + shard;
  o.ops = 60;
  o.keyspace = 48;
  o.cut_fraction = 0.35 + 0.1 * shard;
  o.array_mirrors = 2;
  o.array_kill_fraction = 0.45;
  o.array_rebuild = true;
  return o;
}

constexpr uint32_t kShards = 4;

struct ShardOutput {
  ClientScheduler::RunResult result;
  std::string report;
  std::string log;
};

/// Runs shard `s` to completion on the calling thread.
ShardOutput RunShard(uint32_t s) {
  ShardOutput out;
  out.result = ClientScheduler::Run(
      /*num_clients=*/2, /*total_ops=*/40, /*start_time=*/0,
      [s, &out](uint32_t client, SimTime now) {
        // The torture scenario runs exactly once, inside the shard's first
        // operation, on whichever thread runs the shard.
        if (out.report.empty()) {
          out.report = Format(CrashHarness::Run(TortureOptions(s)));
        }
        const SimTime done = now + Service(client, now, 11 + s);
        out.log += std::to_string(client) + "@" + std::to_string(now) + ";";
        return done;
      });
  return out;
}

std::string Composite(const std::vector<ShardOutput>& outs) {
  std::string composite;
  for (uint32_t s = 0; s < kShards; ++s) {
    composite += "[shard " + std::to_string(s) +
                 " ops=" + std::to_string(outs[s].result.ops) +
                 " makespan=" + std::to_string(outs[s].result.makespan) +
                 " " + outs[s].report + "]" + outs[s].log + "\n";
  }
  return composite;
}

/// Every shard in turn on the calling thread, no pool.
std::string RunInline() {
  std::vector<ShardOutput> outs;
  for (uint32_t s = 0; s < kShards; ++s) outs.push_back(RunShard(s));
  return Composite(outs);
}

/// One RunBatch thunk per shard on a pool of `threads` workers.
std::string RunOnPool(uint32_t threads) {
  std::vector<ShardOutput> outs(kShards);
  std::vector<std::function<void()>> thunks;
  for (uint32_t s = 0; s < kShards; ++s) {
    thunks.push_back([s, &outs] { outs[s] = RunShard(s); });
  }
  ThreadPool pool(threads);
  pool.RunBatch(thunks);
  return Composite(outs);
}

TEST(ShardedDeterminismTest, MirroredArrayTortureIdenticalAcrossThreads) {
  const std::string golden = RunInline();
  ASSERT_NE(golden.find("recovered=1"), std::string::npos) << golden;
  ASSERT_EQ(golden.find("V["), std::string::npos) << golden;
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(golden, RunOnPool(threads)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace durassd
