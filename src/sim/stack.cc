#include "sim/stack.h"

#include <utility>

namespace durassd {

StackSpec StackSpec::DbBenchRig() {
  StackSpec spec;
  spec.ssd.geometry.blocks_per_plane = 96;
  spec.separate_log = true;
  spec.engine = Engine::kDatabase;
  spec.db.pool_bytes = 16 * kMiB;
  spec.db.checkpoint_log_bytes = 8 * kMiB;
  return spec;
}

Stack::Stack(StackSpec spec) : spec_(std::move(spec)) {
  switch (spec_.composition) {
    case StackSpec::Composition::kRaw: {
      auto d = std::make_unique<SsdDevice>(spec_.ssd);
      raw_ = d.get();
      dev_ = std::move(d);
      break;
    }
    case StackSpec::Composition::kMirrored: {
      auto a = MakeMirroredArray(spec_.ssd, spec_.mirrors, spec_.array);
      array_ = a.get();
      dev_ = std::move(a);
      break;
    }
    case StackSpec::Composition::kTiered: {
      auto t = MakeTieredDevice(spec_.tiered);
      tier_ = t.get();
      dev_ = std::move(t);
      break;
    }
  }
  fs_ = std::make_unique<SimFileSystem>(dev_.get(), spec_.fs);
  if (spec_.separate_log) {
    log_ssd_ = std::make_unique<SsdDevice>(spec_.ssd);
    log_fs_ = std::make_unique<SimFileSystem>(log_ssd_.get(), spec_.fs);
  }
}

SsdDevice* Stack::ssd() {
  if (array_ != nullptr) return &array_->member(0);
  if (tier_ != nullptr) return &tier_->flash_tier();
  return raw_;
}

Status Stack::Open() {
  Close();
  switch (spec_.engine) {
    case StackSpec::Engine::kNone:
      break;
    case StackSpec::Engine::kDatabase: {
      SimFileSystem* log = log_fs_ != nullptr ? log_fs_.get() : fs_.get();
      auto d = Database::Open(io, fs_.get(), log, spec_.db);
      if (!d.ok()) return d.status();
      db_ = std::move(*d);
      break;
    }
    case StackSpec::Engine::kKvStore: {
      auto k = KvStore::Open(io, fs_.get(), kKvFile, spec_.kv);
      if (!k.ok()) return k.status();
      kv_ = std::move(*k);
      break;
    }
  }
  return Status::OK();
}

void Stack::Close() {
  db_.reset();
  kv_.reset();
}

void Stack::Crash(SimTime at) {
  Close();
  if (dev_->powered()) dev_->PowerCut(at);
  if (log_ssd_ != nullptr) log_ssd_->PowerCut(at);
  dev_->PowerOn();
  if (log_ssd_ != nullptr) log_ssd_->PowerOn();
  io.now = 0;
}

}  // namespace durassd
