// Shared types of the durability subsystem (src/durability/): log sequence
// numbers, configuration, and the counter structs the WAL, log shipper and
// recovery path expose. The checkpointer's counters are registry metrics
// only (accl_ckpt_*, Checkpointer::AttachMetrics).
//
// They live in api/ — not durability/ — because the engine layer (sdi/)
// references LSNs and durability metrics in its public surface without
// depending on the WAL implementation, mirroring how api/metrics.h serves
// the index layer.
#pragma once

#include <cstdint>

namespace accl {

/// Log sequence number: position of a record in the write-ahead log.
/// Monotone per log, assigned at append, never reused — truncation advances
/// the log's start but LSNs keep counting. 0 is "no LSN".
using Lsn = uint64_t;
inline constexpr Lsn kNoLsn = 0;

/// Configuration for a durable engine (durability::OpenDurable). The page
/// size of the WAL segment and checkpoint files is a constant
/// (durability::kWalPageBytes, kCheckpointPageBytes), and a truncated WAL
/// segment is always unlinked.
struct DurabilityOptions {
  /// Group commit: mutators enqueue records and one flusher thread batches
  /// them into a single append+sync, so concurrent Subscribe calls share a
  /// sync. false = the flusher syncs one record at a time (the naive
  /// durable engine; exists for the bench comparison and for tests that
  /// need one I/O op per record).
  bool group_commit = true;

  /// The WAL rotates to a fresh segment file once the tail segment's frame
  /// bytes exceed this (soft limit: a batch is never split across
  /// segments). Checkpoint truncation then drops whole covered segments in
  /// O(1) unlinks, so the log's on-disk footprint stays bounded.
  uint64_t wal_segment_bytes = 1 << 20;

  /// A background checkpoint is scheduled every this many acknowledged
  /// mutations. 0 = checkpoint only on explicit CheckpointNow().
  uint64_t checkpoint_every_mutations = 0;

  /// Run scheduled checkpoints on a background worker thread (the engine's
  /// mutators only trigger, never wait). false = the triggering mutator
  /// runs the checkpoint inline (deterministic; used by tests).
  bool background_checkpoints = true;
};

/// Write-ahead-log counters (WriteAheadLog::stats).
struct WalStats {
  uint64_t records_appended = 0;
  uint64_t flush_batches = 0;  ///< append+sync operations the flusher ran
  uint64_t bytes_appended = 0;
  uint64_t truncations = 0;
  Lsn durable_lsn = 0;
  Lsn applied_low_water = 0;
  // ---- Segment lifecycle (rotation + truncation GC) ----
  uint64_t live_segments = 0;      ///< segment files currently in the chain
  uint64_t tail_segment_seq = 0;   ///< generation stamp of the append tail
  uint64_t segments_rotated = 0;   ///< rotations the flusher performed
  uint64_t segments_unlinked = 0;  ///< truncated segments removed from disk
  /// Group-commit batching factor: acknowledged records per sync. 1.0 in
  /// per-record-flush mode; > 1 whenever concurrent mutators shared a sync.
  double records_per_flush() const {
    return flush_batches == 0
               ? 0.0
               : static_cast<double>(records_appended) /
                     static_cast<double>(flush_batches);
  }
};

/// Log-shipping / warm-standby counters (durability::LogShipper::stats).
struct ReplicationStats {
  Lsn cursor_lsn = 0;          ///< highest LSN applied on the follower
  Lsn source_durable_lsn = 0;  ///< highest LSN seen in the source log at the
                               ///< last completed ship pass
  /// Replication lag at the last completed pass:
  /// source_durable_lsn - cursor_lsn (records the follower still owes).
  uint64_t lag_records = 0;
  uint64_t ship_passes = 0;        ///< completed ShipOnce calls
  uint64_t records_applied = 0;    ///< records replayed into the follower
  uint64_t bytes_shipped = 0;      ///< frame bytes copied into the mirror
  uint64_t segments_mirrored = 0;  ///< mirror segment files created
  uint64_t mirror_segments_unlinked = 0;  ///< mirror GC following the source
  /// Ship passes that re-based the follower from the source's checkpoint
  /// because the log records behind the cursor were already truncated away.
  uint64_t checkpoint_catchups = 0;
  uint64_t ship_errors = 0;  ///< failed ShipOnce calls (I/O; retryable)
  bool promoted = false;
};

/// What SubscriptionEngine::Recover did (diagnostics + tests).
struct RecoveryStats {
  bool checkpoint_loaded = false;
  uint64_t checkpoint_subscriptions = 0;
  Lsn checkpoint_lsn = 0;
  uint64_t wal_records_applied = 0;
  /// Records skipped by idempotent replay: their LSN is covered by the
  /// checkpoint, or their subscription id is already live (a fuzzy
  /// checkpoint captured the effect of a record past its own LSN).
  uint64_t wal_records_skipped = 0;
  double replay_ms = 0.0;
};

}  // namespace accl
