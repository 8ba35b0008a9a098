// Checkpointing for the durable SDI engine, plus the wiring helper that
// assembles a fully durable engine (WAL + checkpoints + recovery).
//
// A checkpoint is one self-contained, checksummed image of the engine —
// every live subscription (id + normalized box), the routing plan (fence
// dimension and fences) and version, the id allocator,
// and the WAL LSN the image covers — written
// through the PagedFile shadow-paging path ClusterFileStore established:
// the blob goes into a *fresh* page run, is synced, and only then does the
// one-block directory pointer flip to it (header write + sync); the old
// image's run is freed afterwards. A crash at any point leaves either the
// old or the new checkpoint intact, never a torn one — and the blob
// checksum rejects a torn run even if a stale header survives.
//
// The Checkpointer drives the lifecycle: capture a fuzzy image from the
// engine (epoch-pinned, per-shard locks only — matching never stalls),
// write it, then truncate the WAL up to the image's LSN. Scheduling is by
// acknowledged-mutation count; the triggering mutator only submits the
// job to a private background worker (exec::ThreadPool) and returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/durability.h"
#include "api/status.h"
#include "api/types.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "sdi/subscription_engine.h"
#include "storage/paged_store.h"
#include "storage/sim_disk.h"

namespace accl::durability {

class WriteAheadLog;

/// Page size of the checkpoint file.
constexpr uint32_t kCheckpointPageBytes = 4096;

/// Checkpointable image of a SubscriptionEngine (see
/// SubscriptionEngine::CaptureDurableImage for capture semantics).
struct EngineImage {
  Lsn lsn = kNoLsn;  ///< WAL applied low-water the image covers
  SubscriptionId next_id = 0;
  uint64_t routing_version = 0;
  Dim nd = 0;
  std::vector<float> fences;            ///< kRange interior fences (or empty)
  uint32_t dim = 0;                     ///< dimension the fences cut
  std::vector<SubscriptionId> ids;      ///< live subscriptions
  std::vector<float> coords;            ///< ids.size() * 2 * nd floats
};

/// Shadow-paged single-image store over a PagedFile.
class CheckpointStore {
 public:
  /// Wraps a page file (fresh or reopened). A reopened file's live
  /// checkpoint run is re-marked allocated so later writes cannot clobber
  /// it; a corrupt directory pointer degrades to "no checkpoint".
  static std::unique_ptr<CheckpointStore> Open(std::unique_ptr<PagedFile> file,
                                               SimDisk* disk = nullptr);

  /// Writes `image` shadow-paged (fresh run -> sync -> directory flip ->
  /// sync -> free old run). On failure the previous checkpoint remains
  /// intact and readable.
  bool Write(const EngineImage& image);

  /// Loads the current checkpoint. False when none was ever written or the
  /// stored blob fails validation (checksum, geometry).
  bool Read(EngineImage* out);

  bool has_checkpoint() const { return have_dir_; }
  uint64_t writes() const { return writes_; }

 private:
  CheckpointStore(std::unique_ptr<PagedFile> file, SimDisk* disk);

  std::unique_ptr<PagedFile> file_;
  SimDisk* disk_;
  bool have_dir_ = false;
  uint64_t writes_ = 0;
};

/// Schedules and runs checkpoints against one engine + WAL + store.
class Checkpointer {
 public:
  /// None of the pointers are owned; all must outlive the checkpointer.
  /// Schedules a checkpoint every options.checkpoint_every_mutations
  /// acknowledged mutations (0 = only explicit CheckpointNow calls), on a
  /// private background worker when options.background_checkpoints, else
  /// inline on the triggering mutator.
  Checkpointer(SubscriptionEngine* engine, WriteAheadLog* wal,
               CheckpointStore* store, const DurabilityOptions& options);
  /// Joins any in-flight background checkpoint.
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Capture + write + WAL-truncate, serialized against other checkpoint
  /// runs. Returns false when the image write or the truncation failed
  /// (the previous checkpoint stays valid either way).
  bool CheckpointNow();

  /// Mutation-count trigger, called by the engine after acknowledged
  /// mutations. Never blocks on the checkpoint itself in background mode.
  void OnMutations(uint64_t n);

  /// Registers this checkpointer's metrics (write/failure counters, the
  /// capture+write+truncate duration histogram, last-image gauges) into
  /// `reg` under the accl_ckpt_* names. The checkpointer owns the
  /// metrics and detaches them in its destructor — a DurableEngine
  /// destroys the checkpointer before the engine (and its registry), so
  /// the registry must never be left pointing at dead metrics.
  void AttachMetrics(obs::MetricsRegistry* reg);

 private:
  SubscriptionEngine* engine_;
  WriteAheadLog* wal_;
  CheckpointStore* store_;
  const uint64_t every_mutations_;

  std::mutex run_mu_;  ///< serializes CheckpointNow bodies
  std::atomic<uint64_t> mutations_since_{0};
  std::atomic<bool> inflight_{false};

  /// Checkpoint telemetry, read through the registry AttachMetrics
  /// exposes it on.
  obs::Counter writes_;
  obs::Counter failures_;
  obs::Histogram duration_us_;  ///< capture + write + truncate, per run
  obs::Gauge last_subscriptions_;
  obs::Gauge last_lsn_;
  obs::Gauge last_write_us_;
  obs::MetricsRegistry* attached_reg_ = nullptr;

  /// Private single worker so background checkpoints never contend with
  /// the engine's match pool; destroyed first (declared last) so the
  /// destructor's join happens while every other member is still alive.
  std::unique_ptr<exec::ThreadPool> pool_;
};

/// A fully wired durable engine. Teardown order matters: the checkpointer
/// must die first (it joins its background job and detaches its metrics
/// from the engine's registry), then the engine, then the stores, then the
/// WAL's flusher. Reverse member order gives exactly that at scope end,
/// but move-assignment (`de = DurableEngine()`) destroys the old members
/// in DECLARATION order — wal and engine before checkpointer — so the
/// destructor and move-assign spell the order out explicitly.
struct DurableEngine {
  std::unique_ptr<WriteAheadLog> wal;
  std::unique_ptr<CheckpointStore> checkpoints;
  std::unique_ptr<SubscriptionEngine> engine;
  std::unique_ptr<Checkpointer> checkpointer;
  RecoveryStats recovery;

  DurableEngine() = default;
  DurableEngine(DurableEngine&&) = default;
  DurableEngine& operator=(DurableEngine&& other) noexcept;
  ~DurableEngine() { Teardown(); }

 private:
  /// Resets checkpointer -> engine -> checkpoints -> wal.
  void Teardown();
};

/// The wiring every durable engine shares (OpenDurable and
/// LogShipper::Promote): attaches `out->wal` to `out->engine` and gives
/// them a checkpointer over `out->checkpoints` scheduled by `options`.
/// The wal, checkpoint store and engine must already be set.
void WireDurableEngine(const DurabilityOptions& options, DurableEngine* out);

/// Opens `path` as a checkpoint page file, creating it (with
/// kCheckpointPageBytes pages) only when it does not exist. An existing
/// file that fails Open's validation returns nullptr — it may hold the only
/// copy of durable state, and PagedFile::Create truncates, so "corrupt"
/// must surface as an error, never as a silently fresh file.
std::unique_ptr<PagedFile> OpenOrCreatePagedFile(const std::string& path);

/// Opens (or creates) the WAL segment chain rooted at `wal_path` (the
/// base of the `<wal_path>.<seq:08>` files) and the checkpoint file,
/// recovers the engine from them, and wires the mutation hooks and the
/// checkpointer. `disk` (optional, not owned) is charged for WAL and
/// checkpoint I/O and drives fault injection. Returns false with `*status`
/// filled on failure. Implemented in durability/recovery.cc.
bool OpenDurable(AttributeSchema schema, EngineOptions engine_options,
                 const DurabilityOptions& durability_options,
                 const std::string& wal_path,
                 const std::string& checkpoint_path, SimDisk* disk,
                 DurableEngine* out, Status* status = nullptr);

}  // namespace accl::durability
