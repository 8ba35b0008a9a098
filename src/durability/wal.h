// Write-ahead log for the SDI subscription database, rotated across
// bounded segment files (durability/segment.h).
//
// Every mutation (Subscribe / SubscribeBatch / Unsubscribe) is encoded as
// one length+checksum-framed record and appended to the tail segment
// *before* it is applied to the engine; a caller's mutation is
// acknowledged only once its record is on disk. Recovery replays the
// surviving record sequence on top of the newest checkpoint
// (durability/checkpoint.h, sdi recovery factory), so acknowledged
// mutations survive a crash and an un-acknowledged tail is at worst
// absent — never torn: the per-record checksum makes a partial tail
// detectable, and replay stops at the first invalid frame.
//
// Frame format: [u32 len][u32 crc][u64 lsn][u64 gen][payload]
// (kFrameHeaderBytes = 24). `gen` is the generation stamp — the sequence
// number of the segment the frame was written into, also folded into
// `crc`. Decoding rejects a frame whose stamp differs from its segment's
// preamble, so bytes a segment's own appends did not write can never
// replay, even when their length, checksum and LSN continuity would all
// pass. The LSN and stamp live in the header — not the payload — so
// Append hashes the payload entirely outside the log mutex and the
// flusher finishes the checksum in O(1) when it places the frame.
//
// Segmentation: the log is a chain of `<base>.<seq:08>` files. The
// flusher rotates to a freshly created segment once the tail exceeds
// Options::segment_bytes (a batch is never split across segments) and
// records per-segment (first_lsn, last_lsn, tail offset) watermarks as it
// writes; Truncate(up_to) therefore unlinks every fully-covered sealed
// segment in O(1) instead of scanning frames, and the log's on-disk
// footprint stays bounded. ValidPrefixWalk spans segment boundaries: LSNs
// must stay contiguous across a rotation, and an empty just-rotated tail
// is a valid (empty) continuation.
//
// Group commit: mutators never touch the files. Append() encodes the
// record, assigns its LSN under the log mutex, enqueues it, and returns;
// the caller then blocks in WaitDurable() on its commit LSN. One flusher
// thread drains the queue — the whole queue per iteration in group-commit
// mode, one record at a time in per-record mode — writes the batch with a
// single StreamWrite and one Sync (fflush+fsync), and advances the
// durable LSN, waking every caller whose record the batch covered.
//
// Fault injection: an optional SimDisk is consulted (NextOpFails) once
// per flush batch, once per segment-file lifecycle operation (create,
// preamble write, unlink), and charged Seek/Transfer for the
// simulated cost. An injected failure breaks the log permanently
// (broken()): the failed record was never written, every waiter past the
// durable LSN gets `false`, and later appends fail fast — exactly the
// "crash at this I/O op" the recovery and failover matrix tests drive.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "api/durability.h"
#include "api/span.h"
#include "api/status.h"
#include "api/types.h"
#include "durability/segment.h"
#include "obs/metrics.h"
#include "storage/sim_disk.h"

namespace accl::durability {

class WriteAheadLog {
 public:
  struct Options {
    bool group_commit = true;
    SimDisk* disk = nullptr;  ///< optional; not owned, not thread-safe
    /// Rotate once the tail segment's frame bytes exceed this (soft: a
    /// flush batch is never split across segments).
    uint64_t segment_bytes = 1 << 20;

    /// The log settings of a durable engine's options.
    static Options For(const DurabilityOptions& d, SimDisk* disk) {
      Options o;
      o.group_commit = d.group_commit;
      o.disk = disk;
      o.segment_bytes = d.wal_segment_bytes;
      return o;
    }
  };

  /// Opens the segment chain at `base_path` (creating segment 1 when none
  /// exists): walks the valid frame prefix across segments, records the
  /// per-segment watermarks, positions the append tail after the last
  /// valid frame, and continues LSNs past the highest one found. Files
  /// with torn preambles or broken chain order are garbage-collected.
  /// Returns nullptr when the chain cannot be opened or a read failed on
  /// backed bytes (the tail position would be unknowable).
  static std::unique_ptr<WriteAheadLog> Open(const std::string& base_path,
                                             Options options);

  /// Stops the flusher after draining already-enqueued records (clean
  /// shutdown; a simulated crash breaks the log first, which drops them).
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // ---- Appending (any thread) ----

  /// Enqueue one mutation record; returns its LSN (kNoLsn when the log is
  /// broken). `coords` is the subscription's 2*nd normalized limits.
  Lsn AppendSubscribe(ObjectId id, Dim nd, const float* coords);
  /// One record covering `count` subscriptions with contiguous ids
  /// starting at `first_id`; `coords` holds count*2*nd floats.
  Lsn AppendSubscribeBatch(ObjectId first_id, uint32_t count, Dim nd,
                           const float* coords);
  Lsn AppendUnsubscribe(ObjectId id);

  /// Blocks until every record up to `lsn` is on disk. False when the log
  /// broke before reaching it — the caller's record may not be durable and
  /// the mutation must not be acknowledged.
  bool WaitDurable(Lsn lsn);

  // ---- Apply tracking (checkpoint low-water) ----

  /// Marks `lsn`'s mutation as applied to the engine. Called by mutators
  /// after WaitDurable + apply; the low-water mark below is what makes a
  /// fuzzy checkpoint's LSN safe to truncate to.
  void MarkApplied(Lsn lsn);

  /// Highest L such that every record with lsn <= L has been applied. A
  /// checkpoint scan started after reading this value is guaranteed to
  /// contain the effect of every record it covers.
  Lsn applied_low_water() const;

  Lsn durable_lsn() const;
  /// Highest LSN ever allocated (or scanned at Open).
  Lsn max_lsn() const;
  /// Continues LSN allocation (and the applied low-water) past `lsn`;
  /// recovery calls this with the checkpoint LSN so records logged after a
  /// fully-truncated log reopens always sort after the checkpoint.
  void ReserveLsnsThrough(Lsn lsn);

  /// True once an I/O failure broke the log (permanent until reopen).
  bool broken() const;

  // ---- Recovery & truncation ----

  /// Scans the valid record prefix in LSN order, invoking `fn` for every
  /// record with lsn > `after`. Whole segments below the cursor are
  /// skipped by watermark without decoding a frame. Stops cleanly at the
  /// first invalid frame (torn tail). Returns false only on a read I/O
  /// failure — the scan may then have missed durable records and recovery
  /// must not proceed as if the log simply ended.
  bool Replay(Lsn after, const std::function<void(const WalRecord&)>& fn);

  /// Drops every sealed segment whose records all have lsn <= `up_to` —
  /// an O(1) unlink per segment, no frame scan; the tail segment always
  /// stays. Requires
  /// up_to <= applied_low_water() (truncating past an unapplied record
  /// would lose it: kFailedPrecondition) and refuses on a broken log; a
  /// failed lifecycle op surfaces as kIOError with the chain still
  /// consistent (already-dropped segments stay dropped — replay of a
  /// partially truncated chain is idempotent).
  Status Truncate(Lsn up_to);

  /// Registers this log's metrics (counters, segment gauges, the
  /// enqueue->durable commit-latency histogram and the records-per-sync
  /// histogram) into `reg` under the accl_wal_* names. The log owns the
  /// metrics; it must outlive the registry or be detached.
  void AttachMetrics(obs::MetricsRegistry* reg);

 private:
  WriteAheadLog(std::string base_path, Options options);

  struct Pending {
    Lsn lsn;
    uint64_t enqueue_ns;    ///< steady-clock stamp for the commit-latency
                            ///< histogram (enqueue -> durable)
    uint64_t payload_hash;  ///< Fnv1aBytes over the payload; the flusher
                            ///< folds LSN + generation in O(1) at placement
    std::vector<uint8_t> payload;
  };

  /// One live chain entry, owned by io_mu_: the segment plus the
  /// (lsn, offset) watermarks the flusher records as it writes. They are
  /// what makes Truncate O(1) and Replay's segment skip exact.
  struct LiveSeg {
    std::unique_ptr<WalSegment> seg;
    Lsn first_lsn = kNoLsn;
    Lsn last_lsn = kNoLsn;
    uint64_t tail = kSegmentPreambleBytes;  ///< next frame offset
  };

  Lsn Append(WalRecordType type, ObjectId first_id, uint32_t count, Dim nd,
             const float* coords);
  void FlusherLoop();
  /// Frames + writes one batch into the tail segment (rotating first when
  /// the tail is full) and syncs it. Runs on the flusher; takes io_mu_.
  bool WriteBatch(const std::vector<Pending>& items);
  /// Creates a fresh tail segment and appends it to the chain. Caller
  /// holds io_mu_.
  bool RotateLocked(Lsn base_lsn);
  /// The one valid-prefix walk Open/Replay share — spans segment
  /// boundaries: decodes frames from segment `start_index` on, stops at
  /// the first invalid frame (bad length/checksum, stale generation) or
  /// LSN discontinuity. `visit` receives each record and its segment
  /// index. `*end_index`/`*end_off` locate the position just past the
  /// last valid frame. Returns false on a read I/O failure. Caller holds
  /// io_mu_ (or no flusher is running yet).
  bool ValidPrefixWalk(
      size_t start_index,
      const std::function<void(const WalRecord&, size_t)>& visit,
      size_t* end_index, uint64_t* end_off, bool* io_error);
  void UpdateSegmentGauges();  ///< caller holds io_mu_

  std::string base_path_;
  Options options_;

  /// Serializes every segment-file access and all chain mutations: the
  /// flusher's writes and rotations, Replay's scans, Truncate's GC.
  std::mutex io_mu_;
  std::deque<LiveSeg> segments_;  ///< guarded by io_mu_; back = tail
  uint64_t next_seq_ = 1;         ///< guarded by io_mu_

  mutable std::mutex mu_;  ///< queue, LSN allocation, durable/applied state
  std::condition_variable flush_cv_;    ///< flusher: work available / stop
  std::condition_variable durable_cv_;  ///< waiters: durable advanced / broke
  std::queue<Pending> pending_;
  uint64_t pending_bytes_ = 0;
  Lsn next_lsn_ = 1;
  Lsn durable_lsn_ = 0;
  bool broken_ = false;
  bool stop_ = false;

  /// Applied low-water: every lsn <= applied_upto_ is applied;
  /// out-of-order completions park in the heap until contiguous.
  Lsn applied_upto_ = 0;
  std::priority_queue<Lsn, std::vector<Lsn>, std::greater<Lsn>> applied_ooo_;

  /// Lifetime counters, latency histograms and segment gauges, read
  /// through the registry AttachMetrics exposes them on. None need io_mu_
  /// or mu_.
  obs::Counter records_appended_;
  obs::Counter flush_batches_;
  obs::Counter bytes_appended_;
  obs::Counter truncations_;
  /// Latency from Append's enqueue to the flusher advancing the durable
  /// LSN past the record (microseconds) — the group-commit ack path.
  obs::Histogram commit_latency_us_;
  /// Records covered per fsync (group-commit batch size).
  obs::Histogram records_per_sync_;
  obs::Gauge live_segments_;
  obs::Gauge tail_seq_;
  obs::Gauge durable_lsn_gauge_;
  obs::Counter segments_rotated_;
  obs::Counter segments_unlinked_;

  std::thread flusher_;
};

}  // namespace accl::durability
