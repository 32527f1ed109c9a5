// Graceful degradation: FTL spare-block exhaustion flips the device into a
// sticky read-only mode (Status::ResourceExhausted on writes); engines abort
// their in-flight transaction cleanly, keep serving reads, and a reboot of
// the degraded device still recovers a consistent (read-only) state.
#include <gtest/gtest.h>

#include <string>

#include "common/trace.h"
#include "sim/stack.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"

namespace durassd {
namespace {

// Drives the device into degraded mode from the outside: scripts every
// upcoming NAND program to fail, then issues host writes to two scratch
// LPNs (two distinct pages, so single-sector commands pair up and destage)
// until block retirement has consumed every spare block and the FTL gives
// up. The scratch writes that fail are rolled back by the device, so any
// engine files living on lower LPNs are untouched.
// The helper (and the degradation trips below) need every scratch write to
// reach NAND synchronously; the lazy destage scheduler would absorb the
// alternating rewrites in the durable cache and never program at all, so
// these tests pin the legacy eager destage path.
SsdConfig EagerDestage(SsdConfig cfg) {
  cfg.destage_batch_pages = 1;
  return cfg;
}

void ExhaustSpares(SsdDevice& dev, IoContext& io) {
  for (uint64_t i = 0; i < (1u << 14); ++i) {
    dev.fault_injector().FailProgramAfter(i);
  }
  const std::string sector(dev.sector_size(), 'x');
  const Lpn a = dev.num_sectors() - 1;
  const Lpn b = dev.num_sectors() - 2;
  for (int i = 0; i < (1 << 12) && !dev.degraded(); ++i) {
    auto r = dev.Write(io.now, (i % 2) ? a : b, sector);
    io.AdvanceTo(r.done);
    if (r.status.IsResourceExhausted()) break;
  }
  ASSERT_TRUE(dev.degraded()) << "spare exhaustion did not trip";
  // Return the media to health: degradation is an FTL state now, and the
  // leftover scripted failures must not sabotage the capacitor dump at a
  // later power cut.
  dev.fault_injector().ClearScripts();
}

// --------------------------- Device level ---------------------------------

TEST(DegradedDeviceTest, SpareExhaustionEntersStickyReadOnly) {
  SsdDevice dev(EagerDestage(SsdConfig::Tiny(true)));
  Tracer tracer;
  dev.set_tracer(&tracer);
  IoContext io;

  // Some data makes it to stable media before the spares run out.
  const std::string before(dev.sector_size(), 'd');
  ASSERT_TRUE(dev.Write(io.now, 0, before).status.ok());
  ASSERT_TRUE(dev.Write(io.now, 1, std::string(dev.sector_size(), 'e'))
                  .status.ok());
  io.AdvanceTo(dev.Flush(io.now).done);

  ExhaustSpares(dev, io);

  // Writes are refused with the dedicated (permanent) status code.
  const std::string payload(dev.sector_size(), 'z');
  auto w = dev.Write(io.now, 2, payload);
  EXPECT_TRUE(w.status.IsResourceExhausted()) << w.status.ToString();
  EXPECT_GE(dev.stats().degraded_write_rejects, 1u);
  auto f = dev.Flush(io.now);
  EXPECT_TRUE(f.status.ok()) << "flush of already-durable data must work";

  // Reads of previously flushed data keep working.
  std::string got;
  auto r = dev.Read(io.now, 0, 1, &got);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(got, before);

  // The transition was observable: metrics counter + trace event.
  EXPECT_GE(dev.metrics().counters().at("ftl.degraded_entries"), 1u);
  EXPECT_GE(dev.metrics().counters().at("ssd.degraded_rejects"), 1u);
  bool saw_degraded_event = false;
  for (const TraceEvent& e : tracer.Events()) {
    saw_degraded_event |= (e.type == TraceEventType::kDegraded);
  }
  EXPECT_TRUE(saw_degraded_event);

  // Sticky: a power cycle does not resurrect write service, but the data
  // survives it.
  dev.PowerCut(io.now + 1);
  dev.PowerOn();
  io.now = 0;
  EXPECT_TRUE(dev.degraded());
  EXPECT_TRUE(dev.Write(io.now, 2, payload).status.IsResourceExhausted());
  got.clear();
  ASSERT_TRUE(dev.Read(io.now, 0, 1, &got).status.ok());
  EXPECT_EQ(got, before);
}

TEST(DegradedDeviceTest, AsyncSubmitPollAwaitSurfaceDegradedErrors) {
  // Degradation must be visible through the async command path too: a
  // rejected write's ResourceExhausted status has to surface on completion
  // (Poll and Await agree), not get swallowed inside the queue, and
  // interleaved reads must still complete fine.
  SsdDevice dev(EagerDestage(SsdConfig::Tiny(true)));
  IoContext io;
  const std::string before(dev.sector_size(), 'd');
  ASSERT_TRUE(dev.Write(io.now, 0, before).status.ok());
  io.AdvanceTo(dev.Flush(io.now).done);

  ExhaustSpares(dev, io);

  // A degraded write submitted asynchronously: Await surfaces the error.
  const std::string payload(dev.sector_size(), 'z');
  const CmdId w1 =
      dev.Submit(io.now, BlockDevice::Command::MakeWrite(2, Slice(payload)));
  const auto cw1 = dev.Await(w1);
  EXPECT_TRUE(cw1.status.IsResourceExhausted()) << cw1.status.ToString();

  // A batch of in-flight commands — two doomed writes around a good read —
  // all complete through Poll with their own statuses.
  std::string got;
  const CmdId w2 =
      dev.Submit(io.now, BlockDevice::Command::MakeWrite(3, Slice(payload)));
  const CmdId r1 =
      dev.Submit(io.now, BlockDevice::Command::MakeRead(0, 1, &got));
  const CmdId w3 =
      dev.Submit(io.now, BlockDevice::Command::MakeWrite(4, Slice(payload)));
  int seen = 0;
  bool read_ok = false;
  int write_rejects = 0;
  for (SimTime t = io.now; seen < 3; t += 10 * kMicrosecond) {
    for (const auto& c : dev.Poll(t)) {
      ++seen;
      if (c.id == r1) {
        read_ok = c.status.ok();
      } else {
        EXPECT_TRUE(c.id == w2 || c.id == w3);
        if (c.status.IsResourceExhausted()) ++write_rejects;
      }
    }
    ASSERT_LT(t, io.now + kSecond) << "async completions never drained";
  }
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(write_rejects, 2);
  EXPECT_EQ(got, before);

  // Find() peeks at the unconsumed record with the same terminal status.
  const CmdId w4 =
      dev.Submit(io.now, BlockDevice::Command::MakeWrite(5, Slice(payload)));
  ASSERT_NE(dev.Find(w4), nullptr);
  EXPECT_TRUE(dev.Find(w4)->status.IsResourceExhausted());
  EXPECT_TRUE(dev.Await(w4).status.IsResourceExhausted());
}

// --------------------------- Database -------------------------------------

/// A small eager-destage DuraSSD, barriers on, running `engine`.
StackSpec EngineSpec(StackSpec::Engine engine) {
  StackSpec spec;
  spec.ssd.geometry = FlashGeometry::Tiny();
  spec.ssd.geometry.blocks_per_plane = 64;
  spec.ssd.geometry.pages_per_block = 32;
  spec.ssd.capacitor_budget_bytes = 16 * kMiB;
  spec.ssd = EagerDestage(spec.ssd);
  spec.engine = engine;
  spec.db.pool_bytes = 2 * kMiB;
  spec.db.double_write = true;
  spec.db.checkpoint_log_bytes = 2 * kMiB;
  spec.kv.batch_size = 4;
  return spec;
}

TEST(DegradedDatabaseTest, AbortsInFlightTxnKeepsServingReadsAndReboots) {
  Stack s(EngineSpec(StackSpec::Engine::kDatabase));
  Tracer tracer;
  s.ssd()->set_tracer(&tracer);
  ASSERT_TRUE(s.Open().ok());
  s.db()->set_tracer(&tracer);
  auto tree = s.db()->CreateTree(s.io, "t");
  ASSERT_TRUE(tree.ok());

  // Committed history that must survive everything below.
  for (int i = 0; i < 20; ++i) {
    auto txn = s.db()->Begin(s.io);
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(s.db()->Put(s.io, *txn, *tree, "k" + std::to_string(i),
                            "v" + std::to_string(i))
                    .ok());
    ASSERT_TRUE(s.db()->Commit(s.io, *txn).ok());
  }
  // Persist the mapping + home pages so the later capacitor dump and the
  // reboot recovery have nothing dirty left to write.
  ASSERT_TRUE(s.db()->Checkpoint(s.io).ok());

  ExhaustSpares(*s.ssd(), s.io);

  // The next transaction dies at commit (the WAL fsync hits the degraded
  // device); the database must abort it cleanly and flip read-only.
  auto txn = s.db()->Begin(s.io);
  ASSERT_TRUE(txn.ok());
  Status put = s.db()->Put(s.io, *txn, *tree, "doomed", "never");
  Status commit =
      put.ok() ? s.db()->Commit(s.io, *txn) : put;
  ASSERT_TRUE(commit.IsResourceExhausted()) << commit.ToString();
  EXPECT_TRUE(s.db()->read_only());
  EXPECT_EQ(s.db()->stats().degraded_aborts, 1u);
  EXPECT_GE(s.db()->metrics().counters().at("db.degraded_aborts"), 1u);

  // The aborted mutation is invisible; committed data keeps serving.
  std::string got;
  EXPECT_TRUE(s.db()->Get(s.io, *tree, "doomed", &got).IsNotFound());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        s.db()->Get(s.io, *tree, "k" + std::to_string(i), &got).ok())
        << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }

  // Every mutating entry point is refused with the same status.
  EXPECT_TRUE(s.db()->Begin(s.io).status().IsResourceExhausted());
  EXPECT_TRUE(s.db()->Checkpoint(s.io).IsResourceExhausted());
  EXPECT_TRUE(s.db()->CreateTree(s.io, "u").status().IsResourceExhausted());

  // The abort showed up in the trace.
  bool saw_abort = false;
  for (const TraceEvent& e : tracer.Events()) {
    saw_abort |= (e.type == TraceEventType::kTxnAbort);
  }
  EXPECT_TRUE(saw_abort);

  // Reboot the degraded device: recovery must still produce a consistent
  // database — read-only, with all committed data intact.
  s.Crash(s.io.now + 1);
  ASSERT_TRUE(s.ssd()->degraded());
  ASSERT_TRUE(s.Open().ok()) << "recovery of a degraded device must succeed";
  EXPECT_TRUE(s.db()->read_only());
  auto tid = s.db()->GetTreeId("t");
  ASSERT_TRUE(tid.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        s.db()->Get(s.io, *tid, "k" + std::to_string(i), &got).ok())
        << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
  EXPECT_TRUE(s.db()->Get(s.io, *tid, "doomed", &got).IsNotFound());
}

// --------------------------- KvStore ---------------------------------------

TEST(DegradedKvStoreTest, RollsBackInFlightBatchAndStaysReadable) {
  Stack s(EngineSpec(StackSpec::Engine::kKvStore));
  Tracer tracer;
  s.ssd()->set_tracer(&tracer);
  ASSERT_TRUE(s.Open().ok());
  KvStore* kv = s.kv();
  IoContext& io = s.io;
  kv->set_tracer(&tracer);

  // Two full committed batches.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        kv->Put(io, "k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_EQ(kv->stats().commits, 2u);
  ASSERT_EQ(kv->doc_count(), 8u);

  ExhaustSpares(*s.ssd(), io);

  // Three puts buffer in the tail; the fourth fills the batch, triggers the
  // header write, hits the degraded device, and the whole batch rolls back.
  ASSERT_TRUE(kv->Put(io, "t0", "x").ok());
  ASSERT_TRUE(kv->Put(io, "t1", "x").ok());
  ASSERT_TRUE(kv->Put(io, "t2", "x").ok());
  Status st = kv->Put(io, "t3", "x");
  ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
  EXPECT_TRUE(kv->read_only());
  EXPECT_EQ(kv->stats().degraded_aborts, 1u);
  EXPECT_GE(kv->metrics().counters().at("kv.degraded_aborts"), 1u);

  // State rolled back to the last durable header: the committed eight docs,
  // none of the in-flight batch.
  EXPECT_EQ(kv->doc_count(), 8u);
  std::string got;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(kv->Get(io, "k" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(kv->Get(io, "t" + std::to_string(i), &got).IsNotFound()) << i;
  }

  // Further mutations are refused; reads keep working.
  EXPECT_TRUE(kv->Put(io, "more", "x").IsResourceExhausted());
  EXPECT_TRUE(kv->Delete(io, "k0").IsResourceExhausted());
  ASSERT_TRUE(kv->Get(io, "k0", &got).ok());

  bool saw_abort = false;
  for (const TraceEvent& e : tracer.Events()) {
    saw_abort |= (e.type == TraceEventType::kTxnAbort);
  }
  EXPECT_TRUE(saw_abort);

  // Reboot: the store recovers to the same committed state.
  s.Crash(io.now + 1);
  ASSERT_TRUE(s.ssd()->degraded());
  const Status reopened = s.Open();
  ASSERT_TRUE(reopened.ok())
      << "recovery of a degraded device must succeed: "
      << reopened.ToString();
  kv = s.kv();
  EXPECT_EQ(kv->doc_count(), 8u);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(kv->Get(io, "k" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ(got, "v" + std::to_string(i));
  }
}

}  // namespace
}  // namespace durassd
