// Epoch-based reclamation for read-mostly shared state.
//
// The sharded SDI engine publishes its routing metadata as immutable
// snapshots behind a single atomic pointer; readers must be able to use a
// snapshot without locks, and publishers must know when the last reader of
// a superseded snapshot is gone before tearing anything down. This is the
// classic epoch-based-reclamation contract of modern concurrent indexes
// (the Bw-tree line of work): readers *pin* the current epoch for the
// duration of one operation, writers *retire* obsolete state under the
// epoch at which it became unreachable, and retired state is reclaimed
// only once every active reader has advanced past that epoch.
//
// Design, deliberately small:
//   - A global epoch counter (monotone, starts at 1; slot value 0 means
//     "not pinned").
//   - Reader slots: cache-line-padded atomics grouped in fixed-size blocks.
//     A thread pins by CAS-claiming any quiescent slot and writing the
//     current epoch into it; no registration, no thread_locals tied to the
//     manager's lifetime, so short-lived managers (tests construct and
//     destroy engines freely) and foreign threads (any caller of Match, or
//     a thread_pool worker draining a fan-out) all work unchanged. A
//     thread-local ordinal seeds the slot probe so steady-state readers
//     keep hitting their own slot. The block list grows under a mutex when
//     every slot is momentarily claimed (rare: it means more concurrent
//     pins than slots) and is only freed at manager destruction, so the
//     lock-free slot scan never races reclamation of the slots themselves.
//   - A deferred retire list of (epoch, deleter) pairs, reclaimed when the
//     minimum pinned epoch has advanced past them (TryReclaim), or
//     synchronously after a grace period (Synchronize).
//
// Memory-ordering contract (this is what makes the engine's migration
// protocol sound): all epoch loads/stores and the publisher's snapshot
// pointer swap use seq_cst. If Synchronize()'s scan does NOT observe a
// reader's pin, that pin happened after the scan in the seq_cst total
// order — hence after the pointer swap that preceded the epoch bump — so
// the unobserved reader is guaranteed to load the *new* snapshot.
// Synchronize therefore returns only when every thread still using the old
// snapshot has unpinned.
//
// The thread_pool integration is by convention, not coupling: a fan-out
// caller (MatchBatch's execute phase) pins once and keeps the guard alive
// across ParallelForDynamic, so the pool workers executing its tasks are
// covered by the caller's pin and never touch the epoch machinery
// themselves. Size `min_slots` from ThreadPool::concurrency() times the
// expected number of concurrent callers; the block list grows on demand
// anyway.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace accl::exec {

/// Aggregate counters for observability (relaxed; monotone). A thin
/// snapshot read of the manager's obs metrics (kept for API
/// compatibility — the same numbers surface through a MetricsRegistry
/// the manager is attached to).
struct EpochManagerStats {
  uint64_t epoch = 0;            ///< current global epoch
  uint64_t pins = 0;             ///< lifetime Pin() calls
  uint64_t synchronizes = 0;     ///< lifetime Synchronize() calls
  uint64_t retired = 0;          ///< lifetime Retire() calls
  uint64_t reclaimed = 0;        ///< retired entries whose deleter has run
  uint64_t retired_pending = 0;  ///< retired entries awaiting reclamation
  /// Grace-period wait telemetry: how long Synchronize() calls blocked
  /// waiting for pre-bump readers to drain. Derived from a log-bucketed
  /// lifetime histogram (obs::Histogram, microsecond resolution), so the
  /// percentiles are quantized to <= 12.5% relative error; the max is
  /// exact to the microsecond.
  uint64_t grace_waits = 0;       ///< Synchronize() calls measured
  double grace_wait_p50_ms = 0.0;
  double grace_wait_p99_ms = 0.0;
  double grace_wait_max_ms = 0.0;  ///< lifetime maximum
};

class EpochManager {
 public:
  /// `min_slots` sizes the initial slot block(s); the slot pool grows on
  /// demand, so this is a contention hint, not a limit.
  explicit EpochManager(size_t min_slots = 0);

  /// Runs every pending deleter unconditionally. No reader may be pinned.
  ~EpochManager();

  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  /// RAII epoch pin. Movable so Pin() can return it; releasing twice is a
  /// no-op. A default-constructed Guard is released.
  class Guard {
   public:
    Guard() = default;
    Guard(Guard&& o) noexcept : slot_(o.slot_), epoch_(o.epoch_) {
      o.slot_ = nullptr;
    }
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        slot_ = o.slot_;
        epoch_ = o.epoch_;
        o.slot_ = nullptr;
      }
      return *this;
    }
    ~Guard() { Release(); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

    /// The epoch this guard is pinned at (0 when released).
    uint64_t epoch() const { return slot_ != nullptr ? epoch_ : 0; }
    bool pinned() const { return slot_ != nullptr; }

    /// Unpins early (before scope exit) to shorten the grace period the
    /// next Synchronize must wait for.
    void Release() {
      if (slot_ != nullptr) {
        slot_->store(0, std::memory_order_seq_cst);
        slot_ = nullptr;
      }
    }

   private:
    friend class EpochManager;
    Guard(std::atomic<uint64_t>* slot, uint64_t epoch)
        : slot_(slot), epoch_(epoch) {}
    std::atomic<uint64_t>* slot_ = nullptr;
    uint64_t epoch_ = 0;
  };

  /// Pins the calling thread to the current epoch. Lock-free on the steady
  /// path (one CAS on the thread's cached slot); falls back to probing and,
  /// if every slot is claimed, growing the slot pool. Reentrant: a thread
  /// may hold several guards (each occupies its own slot).
  Guard Pin();

  uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_seq_cst);
  }

  /// Registers `deleter` to run once every reader pinned at or before the
  /// current epoch has unpinned. Called by publishers after unlinking
  /// state; the deleter runs on whichever thread later drives TryReclaim
  /// or Synchronize (never concurrently with another deleter).
  void Retire(std::function<void()> deleter);

  /// Runs the deleters whose retire epoch is strictly below every pinned
  /// reader's epoch. Returns how many ran. Non-blocking.
  size_t TryReclaim();

  /// Grace period: advances the epoch and blocks (yielding) until no
  /// reader remains pinned at a pre-advance epoch, then reclaims
  /// everything retired before the call. On return, every Pin() that was
  /// live when Synchronize started has been released — and any pin the
  /// scan did not wait for began after the caller's preceding publications
  /// (see the memory-ordering contract above).
  void Synchronize();

  EpochManagerStats stats() const;

  /// Registers this manager's metrics (pins/synchronizes/retired/
  /// reclaimed counters, grace-wait histogram) into `reg` under the
  /// accl_epoch_* names. The manager owns the metrics; it must outlive
  /// the registry or be detached.
  void AttachMetrics(obs::MetricsRegistry* reg);

  /// The grace-wait histogram (microseconds), for direct inspection.
  const obs::Histogram& grace_wait_histogram() const {
    return grace_wait_us_;
  }

 private:
  // One reader slot per cache line; 0 = quiescent, else the pinned epoch.
  struct alignas(64) Slot {
    std::atomic<uint64_t> epoch{0};
  };
  struct SlotBlock {
    static constexpr size_t kSlots = 32;
    Slot slots[kSlots];
    std::atomic<SlotBlock*> next{nullptr};
  };

  /// Minimum epoch over pinned slots; ~0ull when nobody is pinned.
  uint64_t MinActiveEpoch() const;
  /// Appends one block to the slot list (called with no locks held).
  SlotBlock* Grow();
  size_t ReclaimUpTo(uint64_t min_active);

  std::atomic<uint64_t> global_epoch_{1};
  SlotBlock head_;  ///< first block inline: zero-allocation fast path
  std::mutex grow_mu_;

  struct Retired {
    uint64_t epoch;
    std::function<void()> deleter;
  };
  mutable std::mutex retire_mu_;
  std::vector<Retired> retired_;  ///< epoch-ordered (Retire stamps monotonically)

  /// Lifetime counters and the grace-wait latency histogram
  /// (microseconds): obs primitives so AttachMetrics can expose them on a
  /// registry while stats() keeps serving thin snapshot reads.
  obs::Counter pins_;
  obs::Counter synchronizes_;
  obs::Counter retired_count_;
  obs::Counter reclaimed_count_;
  obs::Histogram grace_wait_us_;
};

}  // namespace accl::exec
