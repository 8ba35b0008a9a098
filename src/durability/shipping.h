// Log shipping: a warm follower engine fed from a primary's durable files.
//
// The replication model is shared-storage log shipping. A LogShipper never
// talks to the primary process — it reads the primary's on-disk artifacts
// (the WAL segment chain and the checkpoint file, durability/segment.h and
// durability/checkpoint.h) and maintains three things of its own:
//
//   1. A *mirror* of the source WAL under a replica base path: every valid
//      frame is copied byte-verbatim into a mirror segment with the same
//      sequence number and base LSN, so the mirror is itself a well-formed
//      segment chain that WriteAheadLog::Open accepts. Generation stamps
//      survive the copy unchanged — a foreign frame the source segment
//      would reject is rejected out of the mirror too.
//   2. A *replica checkpoint*: whenever the source checkpoint image is
//      newer than the replica's, the image (not its bytes — it is re-read,
//      validated and re-written shadow-paged) is copied across. When the
//      source has truncated records the follower never saw (the replication
//      cursor fell behind the oldest live segment), the follower re-bases
//      itself from that image instead of the log — a checkpoint catch-up.
//      The same path bootstraps a fresh follower against an old primary.
//   3. A warm follower SubscriptionEngine, replaying shipped records
//      through ApplyReplicated behind a replication cursor. The follower is
//      read-only (EngineRole::kFollower): Match serves, mutations refuse.
//
// Failover: Promote() runs one final ship pass against the dead primary's
// files (shared storage: after a primary crash the surviving bytes are the
// acknowledged prefix, which is exactly what the pass ships), then opens
// the mirror chain as a writable WriteAheadLog, flips the warm engine to
// EngineRole::kPrimary, and wires durability hooks and a checkpointer into
// a DurableEngine. No replay, no index rebuild — the engine that was
// following is the engine that serves.
//
// Every mirror-side file operation (segment create, frame-batch write,
// unlink, checkpoint write) consults the shared SimDisk, so a crash-point
// matrix over io_ops() lands faults inside shipping as well; a failed pass
// surfaces as Status::IOError with the mirror still consistent (fully
// shipped segments stay shipped, the failed one is retried next pass).
//
// Thread model: ShipOnce / Promote are serialized by the caller
// (one replication driver thread). The follower engine's Match is safe to
// call concurrently from any thread, as on a primary.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "api/durability.h"
#include "api/status.h"
#include "api/types.h"
#include "durability/checkpoint.h"
#include "durability/segment.h"
#include "obs/metrics.h"
#include "sdi/subscription_engine.h"
#include "storage/sim_disk.h"

namespace accl::durability {

class LogShipper {
 public:
  struct Options {
    /// Source (primary) artifacts: WAL segment-chain base + checkpoint file.
    std::string source_wal_base;
    std::string source_checkpoint_path;
    /// Replica artifacts the shipper owns: mirror chain base + checkpoint.
    std::string replica_wal_base;
    std::string replica_checkpoint_path;
    /// Optional, not owned: consulted/charged for every mirror-side file
    /// operation. Sharing the primary's disk puts shipping inside the same
    /// crash-point op space.
    SimDisk* disk = nullptr;
  };

  /// Builds a fresh follower: any previous replica chain is discarded and
  /// the engine starts empty with the cursor at 0 — the first ship pass
  /// bootstraps it from the source checkpoint and/or log. Returns nullptr
  /// with `*status` filled when the replica checkpoint file cannot be
  /// opened or the engine cannot be built.
  static std::unique_ptr<LogShipper> Create(AttributeSchema schema,
                                            EngineOptions engine_options,
                                            Options options,
                                            Status* status = nullptr);

  ~LogShipper();
  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  /// One incremental replication pass: copy the source checkpoint if newer
  /// (re-basing the follower when the log has a gap behind the cursor),
  /// mirror every new valid frame byte-verbatim, apply records past the
  /// cursor to the follower, and GC mirror segments the source truncated.
  /// kIOError (retryable; mirror consistent) on a failed file operation.
  Status ShipOnce();

  /// Final catch-up + failover: ship the source's surviving prefix, open
  /// the mirror as a writable WAL, flip the engine to kPrimary, and wire a
  /// checkpointer. On success `*out` owns everything (the shipper is left
  /// empty and must be discarded); on failure the follower is intact and
  /// Promote may be retried.
  Status Promote(const DurabilityOptions& durability_options,
                 DurableEngine* out);

  /// The follower (nullptr after a successful Promote). Read-only until
  /// promoted: Match serves, Subscribe/Unsubscribe refuse.
  SubscriptionEngine* engine() const { return engine_.get(); }

  /// Registers the shipper's metrics (ship-pass/record/byte counters, the
  /// per-pass duration histogram, cursor/lag gauges) into `reg` under the
  /// accl_repl_* names. Create() attaches them to the follower engine's
  /// registry automatically; the shipper detaches in its destructor and
  /// on a successful Promote (the promoted engine — and its registry —
  /// outlives the discarded shipper).
  void AttachMetrics(obs::MetricsRegistry* reg);

 private:
  LogShipper(AttributeSchema schema, EngineOptions engine_options,
             Options options);

  /// Mirror-side bookkeeping for one segment: the open mirror file plus
  /// how far (bytes, LSN) the verbatim copy has progressed.
  struct Mirror {
    std::unique_ptr<WalSegment> seg;
    uint64_t tail = kSegmentPreambleBytes;  ///< next copy offset
    Lsn last_lsn = kNoLsn;                  ///< highest LSN copied, or kNoLsn
  };

  /// Copies the source checkpoint image to the replica store when newer;
  /// re-bases the follower from it when `need_rebase`.
  Status SyncCheckpoint(bool need_rebase);
  /// Ships one source segment's new valid frames into its mirror. `*stop`
  /// asks the pass to stop walking further segments (torn creation, broken
  /// continuity) without it being an error.
  Status ShipSegment(const SegmentFileInfo& info, bool* stop);
  /// Unlinks mirror segments below `oldest_live_seq` that the replica
  /// checkpoint covers.
  Status GcMirror(uint64_t oldest_live_seq);

  AttributeSchema schema_;
  EngineOptions engine_options_;
  Options options_;

  std::unique_ptr<SubscriptionEngine> engine_;
  std::unique_ptr<CheckpointStore> replica_ckpts_;
  std::map<uint64_t, Mirror> mirror_;  ///< by seq; contiguous keys
  Lsn cursor_lsn_ = 0;        ///< highest LSN applied to the follower
  Lsn replica_ckpt_lsn_ = 0;  ///< LSN of the image in the replica store
  Lsn mirror_max_lsn_ = 0;    ///< highest LSN ever copied; continuity guard
  RecoveryStats apply_stats_;

  /// Replication telemetry on obs primitives: one driver thread writes,
  /// the attached registry reads atomically from anywhere.
  obs::Counter ship_passes_;
  obs::Counter records_applied_;
  obs::Counter bytes_shipped_;
  obs::Counter segments_mirrored_;
  obs::Counter mirror_unlinked_;
  obs::Counter checkpoint_catchups_;
  obs::Counter ship_errors_;
  obs::Histogram ship_pass_us_;  ///< duration of each ShipOnce pass
  obs::Gauge cursor_lsn_gauge_;
  obs::Gauge source_durable_lsn_gauge_;
  obs::Gauge lag_records_gauge_;
  obs::MetricsRegistry* attached_reg_ = nullptr;

  /// Withdraws the accl_repl_* names from attached_reg_ (if any).
  void DetachMetrics();
};

}  // namespace accl::durability
