#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "common/random.h"
#include "db/database.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "sim/client_scheduler.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "traced_device.h"
#include "workloads/keys.h"

namespace perfbench {
namespace {

using durassd::BlockDevice;
using durassd::ClientScheduler;
using durassd::Database;
using durassd::FlashArray;
using durassd::Ftl;
using durassd::Histogram;
using durassd::IoContext;
using durassd::KeyU64;
using durassd::KeyU64U32U64;
using durassd::KvStore;
using durassd::Random;
using durassd::SimFile;
using durassd::SimFileSystem;
using durassd::SsdConfig;
using durassd::SsdDevice;
using durassd::Status;
using durassd::TxnId;
using durassd::ZipfianGenerator;
using durassd::kKiB;
using durassd::kMiB;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& what, const Status& s) {
  fprintf(stderr, "perfbench: %s: %s\n", what.c_str(), s.ToString().c_str());
  exit(1);
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// A value of `len` bytes whose first 16 carry `tag` in hex, so every
/// acknowledged write is distinguishable from the one it replaced.
std::string TaggedValue(size_t len, char fill, uint64_t tag) {
  std::string v(len, fill);
  char hex[17];
  snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(tag));
  memcpy(v.data(), hex, std::min<size_t>(16, len));
  return v;
}

/// What one op did, as the generator saw it.
struct OpOutcome {
  bool is_write = false;
  bool failed = false;  ///< An engine or device call returned an error.
  bool wrong = false;   ///< A read disagreed with the shadow model.
  uint64_t user_bytes = 0;  ///< Logical bytes of an acknowledged write.
};

/// Device-side stats the measured phase takes deltas of.
struct DevSnap {
  SsdDevice::Stats ssd;
  Ftl::Stats ftl;
  FlashArray::Stats flash;
  SimFileSystem::Stats fs;
};

/// Per-workload parts of a repetition. The shared runner (RunRep) owns
/// the phases, timing, spans and device-level accounting; a workload
/// builds its stack, loads it, runs one op against the shadow model, and
/// verifies the recovered state.
class Workload {
 public:
  Workload(uint64_t seed, bool traced) : seed_(seed), traced_(traced) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Constructs the devices and their file systems.
  virtual void BuildDevices() = 0;
  /// Opens the engine: creates it at set-up, recovers it after the cut.
  virtual Status OpenEngine(IoContext& io) = 0;
  /// Drops the engine object as a crashed host process would.
  virtual void CloseEngine() = 0;
  /// Load and preconditioning, ending with GC or checkpoints active.
  virtual Status Load(IoContext& io) = 0;
  virtual uint32_t clients() const = 0;
  virtual uint64_t ops() const = 0;
  /// Runs one op of `client` starting at io.now; advances io.now.
  virtual OpOutcome RunOp(uint32_t client, IoContext& io) = 0;
  /// Compares the recovered state with the shadow model of acknowledged
  /// writes; counts every mismatch in `*lost`.
  virtual Status Verify(IoContext& io, uint64_t* lost) = 0;
  /// Engine stats snapshot at the start of the measured phase.
  virtual void SnapshotEngine() {}
  /// Engine per-layer deltas, the workload's self-checks and its sizes.
  virtual void FinishMeasure(RepResult* r) = 0;
  /// Runs on after the measured phase until the state the power cut hits
  /// carries a fixed amount of recovery work, so that recovery time
  /// measures the same volume on every seed. Ops are checked like measured
  /// ones; their outcomes are added to `*tail`.
  virtual void Tail(IoContext& io, OpOutcome* tail) = 0;

  size_t num_devices() const { return devs_.size(); }
  SsdDevice* device(size_t i) { return devs_[i].get(); }
  SimFileSystem* fs(size_t i) { return fss_[i].get(); }

 protected:
  void AddDevice(const SsdConfig& cfg, const SimFileSystem::Options& fso) {
    devs_.push_back(std::make_unique<SsdDevice>(cfg));
    BlockDevice* dev = devs_.back().get();
    if (traced_) {
      traced_devs_.push_back(
          std::make_unique<TracedDevice>(devs_.back().get()));
      dev = traced_devs_.back().get();
    }
    // The file system talks to the decorator in traced runs.
    fss_.push_back(std::make_unique<SimFileSystem>(dev, fso));
  }

  const uint64_t seed_;
  const bool traced_;

 private:
  std::vector<std::unique_ptr<SsdDevice>> devs_;
  std::vector<std::unique_ptr<TracedDevice>> traced_devs_;
  std::vector<std::unique_ptr<SimFileSystem>> fss_;
};

// ---------------------------------------------------------------------------
// linkbench: minibase on a data and a log DuraSSD, barriers off,
// double-write off, 4 KB pages; the LinkBench mix, DB ~10x the pool.
// ---------------------------------------------------------------------------

enum class LinkOp {
  kGetNode,
  kCountLink,
  kGetLinkList,
  kMultigetLink,
  kAddNode,
  kDeleteNode,
  kUpdateNode,
  kAddLink,
  kDeleteLink,
  kUpdateLink,
};

// Facebook's LinkBench mix as in src/workloads/linkbench.cc: 69.5% reads.
struct LinkMix {
  LinkOp op;
  double percent;
};
constexpr LinkMix kLinkMix[] = {
    {LinkOp::kGetNode, 12.9},    {LinkOp::kCountLink, 4.9},
    {LinkOp::kGetLinkList, 51.2}, {LinkOp::kMultigetLink, 0.5},
    {LinkOp::kAddNode, 2.6},     {LinkOp::kDeleteNode, 1.0},
    {LinkOp::kUpdateNode, 7.4},  {LinkOp::kAddLink, 9.0},
    {LinkOp::kDeleteLink, 3.0},  {LinkOp::kUpdateLink, 7.5},
};

class LinkbenchWorkload : public Workload {
 public:
  static constexpr uint64_t kNodes = 80000;
  static constexpr uint32_t kAvgLinks = 4;
  static constexpr uint32_t kNodePayload = 120;
  static constexpr uint32_t kLinkPayload = 96;
  static constexpr uint32_t kLinkTypes = 3;
  static constexpr uint32_t kClients = 128;
  static constexpr uint64_t kOps = 40000;
  static constexpr uint64_t kPoolBytes = 10 * kMiB;
  static constexpr uint64_t kCheckpointLogBytes = 8 * kMiB;
  static constexpr uint64_t kTailLogBytes = kCheckpointLogBytes - 128 * kKiB;

  LinkbenchWorkload(uint64_t seed, bool traced)
      : Workload(seed, traced), zipf_(kNodes, 0.9), max_node_(kNodes) {
    for (uint32_t c = 0; c < kClients; ++c) {
      rngs_.emplace_back(seed * 1000003 + c + 1);
    }
  }

  void BuildDevices() override {
    SsdConfig dc = SsdConfig::DuraSsd();
    dc.store_data = true;
    SimFileSystem::Options fso;
    fso.write_barriers = false;
    AddDevice(dc, fso);  // data
    AddDevice(dc, fso);  // log
  }

  Status OpenEngine(IoContext& io) override {
    Database::Options o;
    o.page_size = 4 * kKiB;
    o.pool_bytes = kPoolBytes;
    o.double_write = false;
    o.checkpoint_log_bytes = kCheckpointLogBytes;
    auto db = Database::Open(io, fs(0), fs(1), o);
    if (!db.ok()) return db.status();
    db_ = std::move(*db);
    if (!loaded_) return Status::OK();
    auto nodes = db_->GetTreeId("lb_node");
    if (!nodes.ok()) return nodes.status();
    auto links = db_->GetTreeId("lb_link");
    if (!links.ok()) return links.status();
    if (*nodes != node_tree_ || *links != link_tree_) {
      return Status::Corruption("tree ids changed across recovery");
    }
    return Status::OK();
  }

  void CloseEngine() override { db_.reset(); }

  Status Load(IoContext& io) override {
    auto nodes = db_->CreateTree(io, "lb_node");
    if (!nodes.ok()) return nodes.status();
    node_tree_ = *nodes;
    auto links = db_->CreateTree(io, "lb_link");
    if (!links.ok()) return links.status();
    link_tree_ = *links;
    Random rng(seed_);
    constexpr uint64_t kBatch = 256;
    uint64_t in_batch = 0;
    TxnId txn = 0;
    std::vector<std::pair<std::string, std::string>> pending_nodes;
    std::vector<std::pair<std::string, std::string>> pending_links;
    for (uint64_t id = 0; id < kNodes; ++id) {
      if (in_batch == 0) {
        auto t = db_->Begin(io);
        if (!t.ok()) return t.status();
        txn = *t;
      }
      std::string key = KeyU64(id);
      std::string value = TaggedValue(kNodePayload, 'n', ++tag_);
      DURASSD_RETURN_IF_ERROR(db_->Put(io, txn, node_tree_, key, value));
      pending_nodes.emplace_back(std::move(key), std::move(value));
      const uint64_t nlinks = rng.Uniform(2 * kAvgLinks + 1);
      for (uint64_t l = 0; l < nlinks; ++l) {
        const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        std::string lkey = KeyU64U32U64(id, type, rng.Uniform(kNodes));
        std::string lval = TaggedValue(kLinkPayload, 'l', ++tag_);
        DURASSD_RETURN_IF_ERROR(db_->Put(io, txn, link_tree_, lkey, lval));
        pending_links.emplace_back(std::move(lkey), std::move(lval));
      }
      if (++in_batch == kBatch || id + 1 == kNodes) {
        DURASSD_RETURN_IF_ERROR(db_->Commit(io, txn));
        for (auto& [k, v] : pending_nodes) nodes_[k] = std::move(v);
        for (auto& [k, v] : pending_links) links_[k] = std::move(v);
        pending_nodes.clear();
        pending_links.clear();
        in_batch = 0;
      }
    }
    DURASSD_RETURN_IF_ERROR(db_->Checkpoint(io));
    loaded_ = true;
    return Status::OK();
  }

  uint32_t clients() const override { return kClients; }
  uint64_t ops() const override { return kOps; }

  OpOutcome RunOp(uint32_t client, IoContext& io) override {
    Random& rng = rngs_[client];
    OpOutcome o;
    switch (PickOp(rng)) {
      case LinkOp::kGetNode:
        GetAndCheck(io, node_tree_, nodes_, KeyU64(PickNode(rng)), &o);
        break;
      case LinkOp::kCountLink: {
        const uint64_t id = PickNode(rng);
        const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        const std::string lo = KeyU64U32U64(id, type, 0);
        const std::string hi = KeyU64U32U64(id, type + 1, 0);
        constexpr size_t kCap = 10000;
        uint64_t count = 0;
        Status s;
        {
          ScopedSpan span(SpanKind::kDbCount, io);
          s = db_->CountRange(io, link_tree_, lo, hi, kCap, &count);
        }
        if (!s.ok()) {
          o.failed = true;
          break;
        }
        const auto first = links_.lower_bound(lo);
        const auto last = links_.lower_bound(hi);
        const uint64_t want = std::min<uint64_t>(
            kCap, static_cast<uint64_t>(std::distance(first, last)));
        o.wrong = count != want;
        break;
      }
      case LinkOp::kGetLinkList: {
        const uint64_t id = PickNode(rng);
        const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        const std::string lo = KeyU64U32U64(id, type, 0);
        constexpr size_t kLimit = 10;
        std::vector<std::pair<std::string, std::string>> rows;
        Status s;
        {
          ScopedSpan span(SpanKind::kDbScan, io);
          s = db_->Scan(io, link_tree_, lo, kLimit, &rows);
        }
        if (!s.ok()) {
          o.failed = true;
          break;
        }
        auto it = links_.lower_bound(lo);
        size_t n = 0;
        for (; it != links_.end() && n < kLimit; ++it, ++n) {
          if (n >= rows.size() || rows[n].first != it->first ||
              rows[n].second != it->second) {
            o.wrong = true;
            break;
          }
        }
        if (n != rows.size()) o.wrong = true;
        break;
      }
      case LinkOp::kMultigetLink: {
        const uint64_t id = PickNode(rng);
        const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        for (int i = 0; i < 3 && !o.failed; ++i) {
          GetAndCheck(io, link_tree_, links_,
                      KeyU64U32U64(id, type, rng.Uniform(kNodes)), &o);
        }
        break;
      }
      case LinkOp::kAddNode:
        Write(io, node_tree_, KeyU64(max_node_++),
              TaggedValue(kNodePayload, 'N', ++tag_), &o);
        break;
      case LinkOp::kDeleteNode:
        Write(io, node_tree_, KeyU64(PickNode(rng)), std::nullopt, &o);
        break;
      case LinkOp::kUpdateNode:
        Write(io, node_tree_, KeyU64(PickNode(rng)),
              TaggedValue(kNodePayload, 'U', ++tag_), &o);
        break;
      case LinkOp::kAddLink: {
        const uint64_t id = PickNode(rng);
        const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        Write(io, link_tree_, KeyU64U32U64(id, type, rng.Uniform(max_node_)),
              TaggedValue(kLinkPayload, 'L', ++tag_), &o);
        break;
      }
      case LinkOp::kDeleteLink: {
        const uint64_t id = PickNode(rng);
        const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        Write(io, link_tree_, KeyU64U32U64(id, type, rng.Uniform(kNodes)),
              std::nullopt, &o);
        break;
      }
      case LinkOp::kUpdateLink: {
        const uint64_t id = PickNode(rng);
        const uint32_t type = static_cast<uint32_t>(rng.Uniform(kLinkTypes));
        Write(io, link_tree_, KeyU64U32U64(id, type, rng.Uniform(kNodes)),
              TaggedValue(kLinkPayload, 'M', ++tag_), &o);
        break;
      }
    }
    return o;
  }

  Status Verify(IoContext& io, uint64_t* lost) override {
    DURASSD_RETURN_IF_ERROR(VerifyTree(io, node_tree_, nodes_, lost));
    return VerifyTree(io, link_tree_, links_, lost);
  }

  void SnapshotEngine() override {
    db0_ = db_->stats();
    pool0_ = db_->pool_stats();
    wal0_ = db_->wal_stats();
  }

  void FinishMeasure(RepResult* r) override {
    const Database::Stats& d = db_->stats();
    const auto p = db_->pool_stats();
    const auto& w = db_->wal_stats();
    const double hits = static_cast<double>(p.hits - pool0_.hits);
    const double misses = static_cast<double>(p.misses - pool0_.misses);
    const double commits =
        static_cast<double>(d.txns_committed - db0_.txns_committed);
    const double checkpoints =
        static_cast<double>(d.checkpoints - db0_.checkpoints);
    r->layer["db.pool.miss_ratio"] = Ratio(misses, hits + misses);
    r->layer["db.pool.evictions"] =
        static_cast<double>(p.evictions - pool0_.evictions);
    r->layer["db.pool.dirty_evictions"] =
        static_cast<double>(p.dirty_evictions - pool0_.dirty_evictions);
    r->layer["db.pool.reads_blocked_by_writes"] = static_cast<double>(
        p.reads_blocked_by_writes - pool0_.reads_blocked_by_writes);
    r->layer["db.wal.commits_per_sync"] =
        Ratio(commits, static_cast<double>(w.syncs - wal0_.syncs));
    r->layer["db.wal.bytes_per_commit"] = Ratio(
        static_cast<double>(w.bytes_written - wal0_.bytes_written), commits);
    r->layer["db.checkpoints"] = checkpoints;
    if (misses == 0) {
      r->check_failures.push_back("linkbench: no buffer-pool misses");
    }
    if (checkpoints < 1) {
      r->check_failures.push_back("linkbench: no checkpoint ran");
    }
    const double db_bytes =
        static_cast<double>(fs(0)->allocated_sectors()) * 4 * kKiB;
    r->sizes["clients"] = kClients;
    r->sizes["ops"] = kOps;
    r->sizes["nodes"] = kNodes;
    r->sizes["pool_mb"] = static_cast<double>(kPoolBytes) / kMiB;
    r->sizes["data_fs_mb"] = db_bytes / kMiB;
    r->sizes["data_fs_per_pool"] = db_bytes / kPoolBytes;
    r->sizes["checkpoint_log_mb"] =
        static_cast<double>(kCheckpointLogBytes) / kMiB;
    r->sizes["recovery_log_mb"] = static_cast<double>(kTailLogBytes) / kMiB;
  }

  void Tail(IoContext& io, OpOutcome* tail) override {
    // Client 0 continues the mix alone until the engine's next checkpoint
    // and then until kTailLogBytes of WAL follow it: recovery replays that
    // much log, with the pool's normal dirty evictions in between.
    const uint64_t checkpoints = db_->stats().checkpoints;
    uint64_t wal_at_checkpoint = 0;
    bool after = false;
    for (;;) {
      const OpOutcome o = RunOp(0, io);
      tail->failed |= o.failed;
      tail->wrong |= o.wrong;
      const uint64_t wal = db_->wal_stats().bytes_written;
      if (!after && db_->stats().checkpoints > checkpoints) {
        after = true;
        wal_at_checkpoint = wal;
      }
      if (o.failed || (after && wal - wal_at_checkpoint >= kTailLogBytes)) {
        return;
      }
    }
  }


 private:
  using Model = std::map<std::string, std::string>;

  static LinkOp PickOp(Random& rng) {
    double roll = rng.NextDouble() * 100.0;
    for (const LinkMix& e : kLinkMix) {
      if (roll < e.percent) return e.op;
      roll -= e.percent;
    }
    return LinkOp::kGetLinkList;
  }
  uint64_t PickNode(Random& rng) const { return zipf_.NextScrambled(rng); }

  void GetAndCheck(IoContext& io, uint32_t tree, const Model& model,
                   const std::string& key, OpOutcome* o) {
    std::string value;
    Status s;
    {
      ScopedSpan span(SpanKind::kDbGet, io);
      s = db_->Get(io, tree, key, &value);
    }
    const auto it = model.find(key);
    if (s.ok()) {
      o->wrong |= it == model.end() || it->second != value;
    } else if (s.IsNotFound()) {
      o->wrong |= it != model.end();
    } else {
      o->failed = true;
    }
  }

  /// One write transaction: an upsert, or a delete when `value` is empty.
  /// The shadow model changes only once Commit acknowledges.
  void Write(IoContext& io, uint32_t tree, const std::string& key,
             const std::optional<std::string>& value, OpOutcome* o) {
    o->is_write = true;
    TxnId txn = 0;
    {
      ScopedSpan span(SpanKind::kDbBegin, io);
      auto t = db_->Begin(io);
      if (!t.ok()) {
        o->failed = true;
        return;
      }
      txn = *t;
    }
    Status s;
    if (value.has_value()) {
      ScopedSpan span(SpanKind::kDbPut, io);
      s = db_->Put(io, txn, tree, key, *value);
    } else {
      ScopedSpan span(SpanKind::kDbDelete, io);
      s = db_->Delete(io, txn, tree, key);
      if (s.IsNotFound()) s = Status::OK();
    }
    if (s.ok()) {
      ScopedSpan span(SpanKind::kDbCommit, io);
      s = db_->Commit(io, txn);
    } else {
      (void)db_->Abort(io, txn);
    }
    if (!s.ok()) {
      o->failed = true;
      return;
    }
    Model& model = tree == node_tree_ ? nodes_ : links_;
    if (value.has_value()) {
      model[key] = *value;
      o->user_bytes = key.size() + value->size();
    } else {
      model.erase(key);
      o->user_bytes = key.size();
    }
  }

  /// Scans `tree` in key order and counts every difference from `model`.
  /// A scan that stops ascending (a cycle in the leaf chain) counts the
  /// model keys not yet reached as lost and ends the check.
  Status VerifyTree(IoContext& io, uint32_t tree, const Model& model,
                    uint64_t* lost) {
    constexpr size_t kChunk = 4096;
    std::vector<std::pair<std::string, std::string>> rows;
    std::string start;
    std::string last;
    bool any = false;
    auto it = model.begin();
    for (;;) {
      rows.clear();
      DURASSD_RETURN_IF_ERROR(db_->Scan(io, tree, start, kChunk, &rows));
      for (const auto& [k, v] : rows) {
        if (any && k <= last) {
          *lost += static_cast<uint64_t>(std::distance(it, model.end())) + 1;
          return Status::OK();
        }
        last = k;
        any = true;
        // Model keys before k were lost; k itself must be in the model
        // (a key it lacks was resurrected) with the acknowledged value.
        while (it != model.end() && it->first < k) {
          (*lost)++;
          ++it;
        }
        if (it == model.end() || it->first != k) {
          (*lost)++;
        } else {
          if (it->second != v) (*lost)++;
          ++it;
        }
      }
      if (rows.size() < kChunk) break;
      start = last + '\0';
    }
    *lost += static_cast<uint64_t>(std::distance(it, model.end()));
    return Status::OK();
  }

  ZipfianGenerator zipf_;
  std::vector<Random> rngs_;
  std::unique_ptr<Database> db_;
  uint32_t node_tree_ = 0;
  uint32_t link_tree_ = 0;
  uint64_t max_node_;
  uint64_t tag_ = 0;
  bool loaded_ = false;
  Model nodes_;
  Model links_;
  Database::Stats db0_;
  durassd::BufferPool::Stats pool0_;
  durassd::Wal::Stats wal0_;
};

// ---------------------------------------------------------------------------
// ycsb_kv: KvStore, YCSB-A, one client, one commit per update, barriers on.
// ---------------------------------------------------------------------------

class YcsbKvWorkload : public Workload {
 public:
  static constexpr uint64_t kRecords = 20000;
  static constexpr uint32_t kValueSize = 1024;
  static constexpr uint64_t kOps = 24000;
  static constexpr double kUpdateFraction = 0.5;
  static constexpr uint64_t kLoadBatch = 64;

  YcsbKvWorkload(uint64_t seed, bool traced)
      : Workload(seed, traced), zipf_(kRecords, 0.99), rng_(seed * 29 + 1) {}

  void BuildDevices() override {
    SsdConfig dc = SsdConfig::DuraSsd();
    dc.store_data = true;
    SimFileSystem::Options fso;
    fso.write_barriers = true;
    AddDevice(dc, fso);
  }

  Status OpenEngine(IoContext& io) override {
    KvStore::Options o;
    // The generator commits after every update itself (batch size 1), so
    // each commit is a span of its own; the store never commits on its own.
    o.batch_size = UINT32_MAX;
    o.auto_compact = false;
    auto kv = KvStore::Open(io, fs(0), "bucket.couch", o);
    if (!kv.ok()) return kv.status();
    kv_ = std::move(*kv);
    return Status::OK();
  }

  void CloseEngine() override { kv_.reset(); }

  Status Load(IoContext& io) override {
    for (uint64_t i = 0; i < kRecords; ++i) {
      std::string value = TaggedValue(kValueSize, 'y', ++tag_);
      DURASSD_RETURN_IF_ERROR(kv_->Put(io, Key(i), value));
      model_[Key(i)] = std::move(value);
      if ((i + 1) % kLoadBatch == 0 || i + 1 == kRecords) {
        DURASSD_RETURN_IF_ERROR(kv_->Commit(io));
      }
    }
    return Status::OK();
  }

  uint32_t clients() const override { return 1; }
  uint64_t ops() const override { return kOps; }

  OpOutcome RunOp(uint32_t /*client*/, IoContext& io) override {
    OpOutcome o;
    const std::string key = Key(zipf_.NextScrambled(rng_));
    if (rng_.NextDouble() < kUpdateFraction) {
      o.is_write = true;
      std::string value = TaggedValue(kValueSize, 'u', ++tag_);
      Status s;
      {
        ScopedSpan span(SpanKind::kKvPut, io);
        s = kv_->Put(io, key, value);
      }
      if (s.ok()) {
        ScopedSpan span(SpanKind::kKvCommit, io);
        s = kv_->Commit(io);
      }
      if (!s.ok()) {
        o.failed = true;
        return o;
      }
      o.user_bytes = key.size() + value.size();
      model_[key] = std::move(value);
    } else {
      std::string value;
      Status s;
      {
        ScopedSpan span(SpanKind::kKvGet, io);
        s = kv_->Get(io, key, &value);
      }
      if (!s.ok()) {
        o.failed = true;
        return o;
      }
      o.wrong = model_.at(key) != value;
    }
    return o;
  }

  Status Verify(IoContext& io, uint64_t* lost) override {
    for (const auto& [k, v] : model_) {
      std::string value;
      const Status s = kv_->Get(io, k, &value);
      if (s.IsNotFound() || (s.ok() && value != v)) {
        (*lost)++;
      } else if (!s.ok()) {
        return s;
      }
    }
    if (kv_->doc_count() != model_.size()) (*lost)++;
    return Status::OK();
  }

  void SnapshotEngine() override {
    kv0_ = kv_->stats();
    file0_ = kv_->file_bytes();
    flushes0_ = device(0)->stats().flushes;
  }

  void FinishMeasure(RepResult* r) override {
    const KvStore::Stats& k = kv_->stats();
    const double puts = static_cast<double>(k.puts - kv0_.puts);
    const uint64_t commits = k.commits - kv0_.commits;
    const uint64_t groups = k.sync_groups - kv0_.sync_groups;
    r->layer["kv.node_appends_per_put"] =
        Ratio(static_cast<double>(k.node_appends - kv0_.node_appends), puts);
    r->layer["kv.bytes_per_put"] =
        Ratio(static_cast<double>(kv_->file_bytes() - file0_), puts);
    r->layer["kv.commits_per_sync_group"] =
        Ratio(static_cast<double>(commits), static_cast<double>(groups));
    const uint64_t flushes = device(0)->stats().flushes - flushes0_;
    if (flushes < groups || groups == 0) {
      r->check_failures.push_back(
          "ycsb_kv: " + std::to_string(flushes) + " device flushes for " +
          std::to_string(groups) + " commits that rode no other sync");
    }
    r->sizes["clients"] = 1;
    r->sizes["ops"] = kOps;
    r->sizes["records"] = kRecords;
    r->sizes["live_data_mb"] =
        static_cast<double>(kRecords * kValueSize) / kMiB;
    r->sizes["device_cache_mb"] =
        static_cast<double>(SsdConfig::DuraSsd().cache_capacity_sectors) *
        4 * kKiB / kMiB;
  }

  // Recovery reads back from the last commit header, the same work on every
  // seed, so the cut follows the measured phase directly.
  void Tail(IoContext& /*io*/, OpOutcome* /*tail*/) override {}

 private:
  static std::string Key(uint64_t id) { return "user" + std::to_string(id); }

  ZipfianGenerator zipf_;
  Random rng_;
  std::unique_ptr<KvStore> kv_;
  std::map<std::string, std::string> model_;
  uint64_t tag_ = 0;
  KvStore::Stats kv0_;
  uint64_t file0_ = 0;
  uint64_t flushes0_ = 0;
};

// ---------------------------------------------------------------------------
// device_randrw: a raw DuraSSD (one preallocated file, no engine), 4 KB
// random writes each followed by fsync, mixed with 4 KB random reads.
// ---------------------------------------------------------------------------

class DeviceRandrwWorkload : public Workload {
 public:
  static constexpr uint32_t kClients = 4;
  static constexpr uint64_t kOps = 48000;
  static constexpr double kReadFraction = 0.25;
  /// Write amplification over the second half of the measured phase must
  /// stay within this share of that over the whole phase (the
  /// user_write_amp bound in BENCHMARK.json).
  static constexpr double kWaLevelBound = 0.1;
  static constexpr double kWorkingSetShare = 0.9;
  static constexpr uint32_t kPage = 4 * kKiB;

  DeviceRandrwWorkload(uint64_t seed, bool traced) : Workload(seed, traced) {
    for (uint32_t c = 0; c < kClients; ++c) {
      rngs_.emplace_back(seed * 7919 + c + 1);
    }
  }

  static SsdConfig Config() {
    SsdConfig c = SsdConfig::DuraSsd();
    c.store_data = true;
    // 8 planes x 48 blocks x 32 pages x 8 KB = 96 MB raw; the caches
    // shrink with it so reads reach NAND and GC runs within seconds.
    c.geometry.channels = 4;
    c.geometry.packages_per_channel = 1;
    c.geometry.chips_per_package = 1;
    c.geometry.planes_per_chip = 2;
    c.geometry.blocks_per_plane = 48;
    c.geometry.pages_per_block = 32;
    c.write_buffer_sectors = 512;
    c.cache_capacity_sectors = 2048;
    c.capacitor_budget_bytes = 16 * kMiB;
    return c;
  }

  void BuildDevices() override {
    SimFileSystem::Options fso;
    fso.write_barriers = false;
    AddDevice(Config(), fso);
  }

  Status OpenEngine(IoContext& /*io*/) override {
    if (file_ != nullptr) return Status::OK();  // The file outlives a cut.
    const uint64_t sectors = device(0)->num_sectors();
    const uint64_t chunk = fs(0)->options().chunk_sectors;
    const uint64_t usable = sectors - fs(0)->options().journal_area_sectors;
    pages_ = static_cast<uint64_t>(static_cast<double>(sectors) *
                                   kWorkingSetShare);
    pages_ = std::min(pages_, usable / chunk * chunk);
    file_ = fs(0)->Open("randrw.dat");
    DURASSD_RETURN_IF_ERROR(file_->Allocate(pages_ * kPage));
    version_.assign(pages_, 0);
    return Status::OK();
  }

  void CloseEngine() override {}

  Status Load(IoContext& io) override {
    // Sequential fill in 256 KB writes, then random overwrites of half the
    // working set so that GC is running when the measured phase starts.
    constexpr uint64_t kFillPages = 64;
    std::string buf;
    for (uint64_t p = 0; p < pages_; p += kFillPages) {
      const uint64_t n = std::min(kFillPages, pages_ - p);
      buf.resize(n * kPage);
      for (uint64_t i = 0; i < n; ++i) {
        FillPage(p + i, version_[p + i] + 1, &buf[i * kPage]);
      }
      const auto r = file_->Write(io.now, p * kPage, buf);
      if (!r.status.ok()) return r.status;
      io.AdvanceTo(r.done);
      for (uint64_t i = 0; i < n; ++i) version_[p + i]++;
    }
    Random rng(seed_);
    for (uint64_t i = 0; i < pages_ / 2; ++i) {
      const uint64_t p = rng.Uniform(pages_);
      FillPage(p, version_[p] + 1, page_buf_);
      const auto r =
          file_->Write(io.now, p * kPage, durassd::Slice(page_buf_, kPage));
      if (!r.status.ok()) return r.status;
      io.AdvanceTo(r.done);
      version_[p]++;
    }
    return Status::OK();
  }

  uint32_t clients() const override { return kClients; }
  uint64_t ops() const override { return kOps; }

  OpOutcome RunOp(uint32_t client, IoContext& io) override {
    Random& rng = rngs_[client];
    OpOutcome o;
    const uint64_t p = rng.Uniform(pages_);
    if (rng.NextDouble() < kReadFraction) {
      std::string out;
      const auto r = file_->Read(io.now, p * kPage, kPage, &out);
      io.AdvanceTo(r.done);
      if (!r.status.ok()) {
        o.failed = true;
        return o;
      }
      FillPage(p, version_[p], page_buf_);
      o.wrong =
          out.size() != kPage || memcmp(out.data(), page_buf_, kPage) != 0;
      return o;
    }
    o.is_write = true;
    FillPage(p, version_[p] + 1, page_buf_);
    auto r = file_->Write(io.now, p * kPage, durassd::Slice(page_buf_, kPage));
    io.AdvanceTo(r.done);
    if (r.status.ok()) {
      r = file_->Sync(io.now);
      io.AdvanceTo(r.done);
    }
    if (!r.status.ok()) {
      o.failed = true;
      return o;
    }
    version_[p]++;
    o.user_bytes = kPage;
    return o;
  }

  Status Verify(IoContext& io, uint64_t* lost) override {
    constexpr uint64_t kChunkPages = 256;
    std::string out;
    for (uint64_t p = 0; p < pages_; p += kChunkPages) {
      const uint64_t n = std::min(kChunkPages, pages_ - p);
      const auto r = file_->Read(io.now, p * kPage, n * kPage, &out);
      if (!r.status.ok()) return r.status;
      io.AdvanceTo(r.done);
      for (uint64_t i = 0; i < n; ++i) {
        FillPage(p + i, version_[p + i], page_buf_);
        if (memcmp(out.data() + i * kPage, page_buf_, kPage) != 0) (*lost)++;
      }
    }
    return Status::OK();
  }

  void FinishMeasure(RepResult* r) override {
    if (r->layer["ftl.gc_runs"] <= 0) {
      r->check_failures.push_back("device_randrw: no GC in measured phase");
    }
    const double wa_whole = Ratio(static_cast<double>(r->nand_bytes),
                                  static_cast<double>(r->user_bytes));
    const double wa_second_half = r->layer["user_write_amp.second_half"];
    if (wa_whole <= 0 ||
        std::abs(wa_second_half - wa_whole) > kWaLevelBound * wa_whole) {
      char msg[160];
      snprintf(msg, sizeof(msg),
               "device_randrw: WA not level (second half %.4f, whole %.4f)",
               wa_second_half, wa_whole);
      r->check_failures.push_back(msg);
    }
    const SsdConfig c = Config();
    const double logical = static_cast<double>(device(0)->num_sectors());
    r->sizes["clients"] = kClients;
    r->sizes["ops"] = kOps;
    r->sizes["raw_mb"] = static_cast<double>(c.geometry.total_bytes()) / kMiB;
    r->sizes["logical_mb"] = logical * kPage / kMiB;
    r->sizes["working_set_mb"] = static_cast<double>(pages_) * kPage / kMiB;
    r->sizes["working_set_per_logical"] =
        static_cast<double>(pages_) / logical;
    r->sizes["device_cache_mb"] =
        static_cast<double>(c.cache_capacity_sectors) * kPage / kMiB;
    r->sizes["recovery_burst_writes"] = c.write_buffer_sectors;
  }

  void Tail(IoContext& io, OpOutcome* tail) override {
    // One write-buffer's worth of 4 KB writes submitted at once: the cut
    // at their last acknowledgement leaves the durable cache full of
    // undestaged sectors, which the capacitor dumps and PowerOn replays.
    // A FLUSH CACHE first destages whatever the measured phase left dirty,
    // so the dump holds the burst alone and recovery does the same work on
    // every seed.
    const auto f = fs(0)->device()->Flush(io.now);
    if (!f.status.ok()) {
      tail->failed = true;
      return;
    }
    io.AdvanceTo(f.done);
    const uint32_t burst = Config().write_buffer_sectors;
    Random rng(seed_ * 104729 + 1);
    std::vector<std::pair<uint64_t, durassd::CmdId>> ids;
    std::set<uint64_t> pages;  // Distinct, so each carries version + 1.
    while (pages.size() < burst) {
      const uint64_t p = rng.Uniform(pages_);
      if (!pages.insert(p).second) continue;
      FillPage(p, version_[p] + 1, page_buf_);
      ids.emplace_back(p, file_->SubmitWrite(io.now, p * kPage,
                                             durassd::Slice(page_buf_, kPage)));
    }
    SimTime last = io.now;
    for (const auto& [p, id] : ids) {
      const SimFile::Completion c = file_->Await(id);
      if (!c.status.ok()) {
        tail->failed = true;
        continue;
      }
      version_[p]++;
      last = std::max(last, c.done);
    }
    io.AdvanceTo(last);
  }


 private:
  /// Page contents are a function of (page, version): a lost or stale
  /// write reads back different bytes.
  static void FillPage(uint64_t page, uint64_t version, char* out) {
    memcpy(out, &page, 8);
    memcpy(out + 8, &version, 8);
    memset(out + 16, static_cast<int>((page * 31 + version) & 0xFF),
           kPage - 16);
  }

  std::vector<Random> rngs_;
  SimFile* file_ = nullptr;
  uint64_t pages_ = 0;
  std::vector<uint64_t> version_;  ///< Acknowledged version of each page.
  char page_buf_[kPage];
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       bool traced) {
  if (name == "linkbench") {
    return std::make_unique<LinkbenchWorkload>(seed, traced);
  }
  if (name == "ycsb_kv") return std::make_unique<YcsbKvWorkload>(seed, traced);
  if (name == "device_randrw") {
    return std::make_unique<DeviceRandrwWorkload>(seed, traced);
  }
  return nullptr;
}

DevSnap Snap(Workload& w, size_t i) {
  return {w.device(i)->stats(), w.device(i)->ftl().stats(),
          w.device(i)->flash().stats(), w.fs(i)->stats()};
}

uint64_t NandBytes(Workload& w) {
  uint64_t bytes = 0;
  for (size_t i = 0; i < w.num_devices(); ++i) {
    bytes += w.device(i)->flash().stats().programs *
             w.device(i)->config().geometry.page_size;
  }
  return bytes;
}

/// Device, FTL, flash and file-system deltas over the measured phase,
/// summed over every device, plus the p99 of the device registries'
/// latency histograms (reset at the start of the phase).
void DeviceLayer(Workload& w, const std::vector<DevSnap>& before,
                 const RepResult& r, std::map<std::string, double>* out) {
  double host_sectors = 0, read_sectors = 0, cache_hits = 0, stall_ns = 0;
  double absorbed = 0, batches = 0, nand = 0, gc_runs = 0, gc_erases = 0;
  double gc_programs = 0, host_programs = 0, reads = 0, programs = 0;
  double erases = 0, mp = 0, flush_cmds = 0, syncs = 0, batched = 0;
  double host_bytes = 0, flushes = 0, host_writes = 0;
  std::map<std::string, Histogram> hist;
  for (size_t i = 0; i < w.num_devices(); ++i) {
    const DevSnap a = Snap(w, i);
    const DevSnap& b = before[i];
    const double page = w.device(i)->config().geometry.page_size;
    const double sector = w.device(i)->sector_size();
    host_sectors += a.ssd.host_written_sectors - b.ssd.host_written_sectors;
    host_bytes += (a.ssd.host_written_sectors - b.ssd.host_written_sectors) *
                  sector;
    host_writes += a.ssd.host_writes - b.ssd.host_writes;
    read_sectors += a.ssd.host_read_sectors - b.ssd.host_read_sectors;
    cache_hits += a.ssd.cache_read_hits - b.ssd.cache_read_hits;
    stall_ns += a.ssd.write_stall_time - b.ssd.write_stall_time;
    absorbed += a.ssd.destage_absorbed - b.ssd.destage_absorbed;
    batches += a.ssd.destage_batches - b.ssd.destage_batches;
    flushes += a.ssd.flushes - b.ssd.flushes;
    nand += (a.flash.programs - b.flash.programs) * page;
    gc_runs += a.ftl.gc_runs - b.ftl.gc_runs;
    gc_erases += a.ftl.gc_erases - b.ftl.gc_erases;
    gc_programs += a.ftl.gc_programs - b.ftl.gc_programs;
    host_programs += a.ftl.host_programs - b.ftl.host_programs;
    reads += a.flash.reads - b.flash.reads;
    programs += a.flash.programs - b.flash.programs;
    erases += a.flash.erases - b.flash.erases;
    mp += a.flash.multi_plane_programs - b.flash.multi_plane_programs;
    flush_cmds += a.fs.flush_cmds - b.fs.flush_cmds;
    syncs += a.fs.syncs - b.fs.syncs;
    batched += a.fs.batched_syncs - b.fs.batched_syncs;
    for (const auto& [name, h] : w.device(i)->metrics().histograms()) {
      hist[name].Merge(h);
    }
  }
  auto& m = *out;
  m["host.fs.flush_cmds"] = flush_cmds;
  m["host.fs.batched_sync_ratio"] = Ratio(batched, syncs);
  m["host.bytes_per_user_byte"] =
      Ratio(host_bytes, static_cast<double>(r.user_bytes));
  m["ssd.host_writes"] = host_writes;
  m["ssd.host_written_sectors"] = host_sectors;
  m["ssd.host_read_sectors"] = read_sectors;
  m["ssd.flushes"] = flushes;
  m["ssd.cache_hit_ratio"] = Ratio(cache_hits, read_sectors);
  m["ssd.write_stall_ns"] = stall_ns;
  m["ssd.destage_absorbed"] = absorbed;
  m["ssd.destage_batches"] = batches;
  m["ssd.write_amplification"] = Ratio(nand, host_bytes);
  for (const char* name :
       {"ssd.ncq_wait_ns", "ssd.bus_ns", "ssd.fw_ns", "ssd.frame_stall_ns",
        "ssd.destage_ns", "ssd.flush_drain_ns", "ftl.program_ns",
        "ftl.gc_relocation_ns"}) {
    m[std::string(name) + ".p99"] =
        static_cast<double>(hist[name].Percentile(99));
  }
  m["ftl.gc_runs"] = gc_runs;
  m["ftl.gc_erases"] = gc_erases;
  m["ftl.gc_programs_per_host_program"] = Ratio(gc_programs, host_programs);
  m["flash.reads"] = reads;
  m["flash.programs"] = programs;
  m["flash.erases"] = erases;
  m["flash.multi_plane_ratio"] = Ratio(2 * mp, programs);
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return MakeWorkload(name, 0, false) != nullptr;
}

RepResult RunRep(const std::string& workload, uint64_t seed, bool traced) {
  std::unique_ptr<Workload> w = MakeWorkload(workload, seed, traced);
  RepResult r;
  IoContext io;

  // --- Set-up: device construction, engine open, load/preconditioning.
  if (g_spans != nullptr) g_spans->set_keep_nested(false);
  const auto t_setup = Clock::now();
  {
    ScopedSpan span(SpanKind::kSetupDeviceCtor, io);
    w->BuildDevices();
  }
  Status s;
  {
    ScopedSpan span(SpanKind::kSetupEngineOpen, io);
    s = w->OpenEngine(io);
  }
  if (!s.ok()) Die("engine open", s);
  {
    ScopedSpan span(SpanKind::kSetupLoad, io);
    s = w->Load(io);
  }
  if (!s.ok()) Die("load", s);
  r.setup_s = Seconds(t_setup, Clock::now());
  if (g_spans != nullptr) r.setup_spans = g_spans->TakeAggregates();

  // --- Measured phase.
  std::vector<DevSnap> before;
  for (size_t i = 0; i < w->num_devices(); ++i) {
    w->device(i)->metrics().Reset();
    before.push_back(Snap(*w, i));
  }
  w->SnapshotEngine();
  const uint64_t nand0 = NandBytes(*w);
  uint64_t nand_mid = 0;
  uint64_t user_mid = 0;
  const uint64_t ops = w->ops();
  const SimTime start = io.now;
  SimTime last_ack = start;
  uint64_t seq = 0;
  r.read_ns.reserve(ops);
  r.write_ns.reserve(ops);
  const auto fn = [&](uint32_t client, SimTime now) {
    ++seq;
    if (g_spans != nullptr) {
      g_spans->set_op(seq);
      g_spans->Begin(SpanKind::kOp, now);
    }
    IoContext op_io{now};
    const OpOutcome o = w->RunOp(client, op_io);
    if (g_spans != nullptr) g_spans->End(op_io.now);
    r.attempted++;
    if (o.failed) r.failed++;
    if (o.wrong) r.wrong_reads++;
    r.user_bytes += o.user_bytes;
    (o.is_write ? r.write_ns : r.read_ns).push_back(op_io.now - now);
    if (seq == ops / 2) {
      nand_mid = NandBytes(*w);
      user_mid = r.user_bytes;
    }
    last_ack = std::max(last_ack, op_io.now);
    return op_io.now;
  };
  if (g_spans != nullptr) g_spans->set_keep_nested(true);
  const auto t_run = Clock::now();
  ClientScheduler::RunResult run;
  {
    if (g_spans != nullptr) g_spans->Begin(SpanKind::kSimRun, start);
    run = ClientScheduler::Run(w->clients(), ops, start, fn);
    if (g_spans != nullptr) g_spans->End(start + run.makespan);
  }
  r.measure_s = Seconds(t_run, Clock::now());
  if (g_spans != nullptr) {
    g_spans->set_op(0);
    g_spans->set_keep_nested(false);
  }
  r.makespan = run.makespan;
  r.nand_bytes = NandBytes(*w) - nand0;
  r.layer["user_write_amp.second_half"] =
      Ratio(static_cast<double>(NandBytes(*w) - nand_mid),
            static_cast<double>(r.user_bytes - user_mid));
  DeviceLayer(*w, before, r, &r.layer);
  w->FinishMeasure(&r);
  if (g_spans != nullptr) r.run_spans = g_spans->TakeAggregates();

  // --- Power cut at the last acknowledgement, power on, engine reopen.
  io.now = last_ack;
  OpOutcome tail;
  w->Tail(io, &tail);
  if (tail.failed) r.failed++;
  if (tail.wrong) r.wrong_reads++;
  last_ack = std::max(last_ack, io.now);
  if (g_spans != nullptr) (void)g_spans->TakeAggregates();
  w->CloseEngine();
  uint64_t dumped0 = 0, replayed0 = 0;
  for (size_t i = 0; i < w->num_devices(); ++i) {
    dumped0 += w->device(i)->stats().dumped_pages;
    replayed0 += w->device(i)->stats().replayed_pages;
  }
  const auto t_rec = Clock::now();
  {
    ScopedSpan span(SpanKind::kRecoverPowerCut, io);
    for (size_t i = 0; i < w->num_devices(); ++i) {
      w->fs(i)->device()->PowerCut(last_ack);
    }
  }
  io.now = 0;
  {
    ScopedSpan span(SpanKind::kRecoverPowerOn, io);
    SimTime ready = 0;
    for (size_t i = 0; i < w->num_devices(); ++i) {
      ready = std::max(ready, w->fs(i)->device()->PowerOn());
    }
    io.now = ready;
  }
  {
    ScopedSpan span(SpanKind::kRecoverEngineOpen, io);
    s = w->OpenEngine(io);
  }
  r.recover_s = Seconds(t_rec, Clock::now());
  if (!s.ok()) Die("engine reopen after power cut", s);
  r.sim_recover_ns = io.now;
  uint64_t dumped = 0, replayed = 0;
  for (size_t i = 0; i < w->num_devices(); ++i) {
    dumped += w->device(i)->stats().dumped_pages;
    replayed += w->device(i)->stats().replayed_pages;
  }
  r.layer["ssd.dumped_pages"] = static_cast<double>(dumped - dumped0);
  r.layer["ssd.replayed_pages"] = static_cast<double>(replayed - replayed0);
  if (g_spans != nullptr) r.recover_spans = g_spans->TakeAggregates();

  // --- Every acknowledged write must read back.
  s = w->Verify(io, &r.lost_writes);
  if (!s.ok()) Die("verification reads", s);
  return r;
}

}  // namespace perfbench
