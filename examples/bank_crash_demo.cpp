// OLTP crash demo: a tiny bank ledger on minibase, run in the paper's best
// configuration (no write barriers, no double-write buffer) on two devices:
//   1. DuraSSD — every committed transfer survives a power cut;
//   2. a commodity volatile-cache SSD — committed transfers evaporate.
//
// This is the paper's Section 2 argument made executable: the OFF/OFF
// configuration is an order of magnitude faster, and only the durable
// cache makes it safe.
#include <cstdio>
#include <string>

#include "sim/stack.h"
#include "workloads/keys.h"

using namespace durassd;

namespace {

struct Outcome {
  double seconds = 0;
  int committed = 0;
  int survived = 0;
  bool recovered = false;
};

Outcome RunScenario(bool durable_cache) {
  StackSpec spec;
  spec.ssd = durable_cache ? SsdConfig::DuraSsd() : SsdConfig::SsdA();
  spec.ssd.geometry = FlashGeometry::Tiny();
  spec.ssd.geometry.blocks_per_plane = 128;
  spec.ssd.geometry.pages_per_block = 32;
  spec.fs.write_barriers = false;  // The DuraSSD deployment mode.
  spec.engine = StackSpec::Engine::kDatabase;
  spec.db.pool_bytes = 2 * kMiB;
  spec.db.double_write = false;
  Stack s(spec);
  if (!s.Open().ok()) return {};
  Database* db = s.db();
  IoContext& io = s.io;

  auto accounts = db->CreateTree(io, "accounts");
  Outcome out;

  // 200 committed transfers between 20 accounts.
  for (int i = 0; i < 200; ++i) {
    auto txn = db->Begin(io);
    const uint64_t from = i % 20;
    const uint64_t to = (i + 7) % 20;
    db->Put(io, *txn, *accounts, KeyU64(from), "balance-" + std::to_string(i));
    db->Put(io, *txn, *accounts, KeyU64(to), "balance-" + std::to_string(i));
    if (db->Commit(io, *txn).ok()) out.committed++;
  }
  out.seconds = static_cast<double>(io.now) / kSecond;

  // Power failure, host and device together, then reboot and count what
  // survived.
  s.Crash(io.now);
  if (!s.Open().ok()) {
    return out;  // recovered stays false.
  }
  out.recovered = true;
  auto tid = s.db()->GetTreeId("accounts");
  if (tid.ok()) {
    for (uint64_t a = 0; a < 20; ++a) {
      std::string v;
      if (s.db()->Get(io, *tid, KeyU64(a), &v).ok()) out.survived++;
    }
  }
  return out;
}

}  // namespace

int main() {
  printf("Bank ledger, OFF/OFF configuration (no barriers, no double-write)\n");
  printf("%-24s %10s %10s %12s %10s\n", "device", "commits", "time(s)",
         "recovered", "accounts");
  for (bool durable : {true, false}) {
    const Outcome o = RunScenario(durable);
    printf("%-24s %10d %10.3f %12s %7d/20\n",
           durable ? "DuraSSD (durable cache)" : "SSD-A (volatile cache)",
           o.committed, o.seconds, o.recovered ? "yes" : "NO",
           o.survived);
  }
  printf("\nThe volatile device acknowledged the same commits, then lost "
         "them:\nfsync never flushed its cache. The durable cache keeps the "
         "same speed\nwithout the loss — the paper's core claim.\n");
  return 0;
}
