#ifndef DURASSD_SIM_STACK_H_
#define DURASSD_SIM_STACK_H_

#include <cstdint>
#include <memory>

#include "array/array_device.h"
#include "common/status.h"
#include "common/types.h"
#include "db/database.h"
#include "db/io_context.h"
#include "host/sim_file.h"
#include "kv/kvstore.h"
#include "ssd/ssd_config.h"
#include "ssd/ssd_device.h"
#include "tier/tiered_device.h"

namespace durassd {

/// What one simulation stack is built from: the device, file-system and
/// engine configs that already exist, plus three choices — how the device
/// is composed, whether the log gets a device of its own, and which engine
/// runs on top. Every result in the paper comes from this family of stacks
/// (Tables 1–5, Figs. 5–6).
struct StackSpec {
  enum class Composition {
    kRaw,       ///< One SsdDevice built from `ssd`.
    kMirrored,  ///< ArrayDevice of `mirrors` members, each built from `ssd`.
    kTiered,    ///< TieredDevice built from `tiered` (flash over capacity).
  };
  enum class Engine { kNone, kDatabase, kKvStore };

  Composition composition = Composition::kRaw;
  SsdConfig ssd = SsdConfig::DuraSsd();
  uint32_t mirrors = 2;  ///< kMirrored only.
  ArrayConfig array;     ///< kMirrored only.
  TieredConfig tiered;   ///< kTiered only.
  /// The paper's two-device rig (Sec. 4.2): the database log lives on a
  /// second raw SsdDevice built from `ssd`, with its own file system.
  bool separate_log = false;
  SimFileSystem::Options fs;  ///< Both file systems.
  Engine engine = Engine::kNone;
  Database::Options db;  ///< Engine::kDatabase.
  KvStore::Options kv;   ///< Engine::kKvStore; the store file is kKvFile.

  /// The database benches' rig (Figs. 5–6, Tables 3–4): the DuraSSD preset
  /// with 96 blocks per plane for data and again for the log, barriers on,
  /// and a minibase with double-write, a 16 MiB pool and an 8 MiB
  /// checkpoint interval (a few checkpoints per run).
  static StackSpec DbBenchRig();
};

/// One self-contained simulation stack: the IoContext, the device(s), the
/// file system(s) and the engine, driven by one thread (DESIGN.md §13).
/// The engine is host RAM: Crash() destroys it and Open() recovers a new
/// one from whatever the devices kept. Power events and scheduled cuts go
/// through dev(), the BlockDevice the file system is mounted on.
class Stack {
 public:
  static constexpr const char* kKvFile = "kv.couch";

  explicit Stack(StackSpec spec);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Drops any open engine, then opens (recovering) the spec's engine at
  /// io.now. A no-op for Engine::kNone.
  Status Open();
  /// Drops the engine without touching the devices (a host-only restart).
  void Close();
  /// Power failure at virtual time `at`, host and devices together: drops
  /// the engine, cuts power on every device still powered (an armed cut
  /// that already tripped has done it), powers them back on — running the
  /// devices' recovery — and restarts the virtual clock at zero.
  void Crash(SimTime at);

  IoContext io;

  /// The device the file system is mounted on.
  BlockDevice* dev() { return dev_.get(); }
  /// The SSD whose completions the host observes: the raw device, the
  /// mirror's read primary (member 0) or the tier's flash.
  SsdDevice* ssd();
  ArrayDevice* array() { return array_; }  ///< Null unless kMirrored.
  SsdDevice* log_ssd() { return log_ssd_.get(); }  ///< Null unless
                                                   ///< separate_log.
  SimFileSystem* fs() { return fs_.get(); }
  Database* db() { return db_.get(); }  ///< Null unless open.
  KvStore* kv() { return kv_.get(); }   ///< Null unless open.

 private:
  StackSpec spec_;
  std::unique_ptr<BlockDevice> dev_;
  SsdDevice* raw_ = nullptr;
  ArrayDevice* array_ = nullptr;
  TieredDevice* tier_ = nullptr;
  std::unique_ptr<SsdDevice> log_ssd_;
  std::unique_ptr<SimFileSystem> fs_;
  std::unique_ptr<SimFileSystem> log_fs_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<KvStore> kv_;
};

}  // namespace durassd

#endif  // DURASSD_SIM_STACK_H_
