// Shared types of the durability subsystem (src/durability/): log sequence
// numbers, configuration, and what a recovery did. The WAL, checkpointer
// and log shipper counters are registry metrics only (accl_wal_*,
// accl_ckpt_*, accl_repl_*; each component's AttachMetrics).
//
// They live in api/ — not durability/ — because the engine layer (sdi/)
// references LSNs and recovery results in its public surface without
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
