// Epoch-based reclamation for read-mostly shared state.
//
// The sharded SDI engine publishes its routing metadata as immutable
// snapshots behind a single atomic pointer; readers must be able to use a
// snapshot without locks, and publishers must know when the last reader of
// a superseded snapshot is gone before tearing anything down. This is the
// classic epoch-based-reclamation contract of modern concurrent indexes
// (the Bw-tree line of work): readers *pin* the current epoch for the
// duration of one operation, writers *retire* obsolete state once it is
// unreachable, and a grace period reclaims it only after every reader
// pinned before the grace period began has unpinned.
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
//   - A deferred retire list of deleters. Synchronize takes the list
//     before it advances the epoch and runs that batch after the grace
//     period; an entry retired during the wait waits for the next one.
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
    Guard(Guard&& o) noexcept : slot_(o.slot_) { o.slot_ = nullptr; }
    Guard& operator=(Guard&& o) noexcept {
      if (this != &o) {
        Release();
        slot_ = o.slot_;
        o.slot_ = nullptr;
      }
      return *this;
    }
    ~Guard() { Release(); }

    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

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
    explicit Guard(std::atomic<uint64_t>* slot) : slot_(slot) {}
    std::atomic<uint64_t>* slot_ = nullptr;
  };

  /// Pins the calling thread to the current epoch. Lock-free on the steady
  /// path (one CAS on the thread's cached slot); falls back to probing and,
  /// if every slot is claimed, growing the slot pool. Reentrant: a thread
  /// may hold several guards (each occupies its own slot).
  Guard Pin();

  /// Registers `deleter` to run at the end of the first Synchronize that
  /// starts after this call: every reader pinned when the caller unlinked
  /// the state has unpinned by then. Called by publishers after unlinking
  /// state; the deleter runs on the thread that drives that Synchronize
  /// (or in the destructor). Deleters taken by concurrent Synchronize
  /// calls may run concurrently.
  void Retire(std::function<void()> deleter);

  /// Grace period: takes the retire list, advances the epoch, blocks
  /// (yielding) until no reader remains pinned at a pre-advance epoch, then
  /// runs the taken deleters. On return, every Pin() that was live when
  /// Synchronize started has been released — and any pin the scan did not
  /// wait for began after the caller's preceding publications (see the
  /// memory-ordering contract above).
  void Synchronize();

  /// Registers this manager's metrics (pins/synchronizes/retired/
  /// reclaimed counters, grace-wait histogram) into `reg` under the
  /// accl_epoch_* names — the only place they are read. The manager owns
  /// the metrics; it must outlive the registry or be detached.
  void AttachMetrics(obs::MetricsRegistry* reg);

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

  /// Appends one block to the slot list (called with no locks held).
  SlotBlock* Grow();

  std::atomic<uint64_t> global_epoch_{1};
  SlotBlock head_;  ///< first block inline: zero-allocation fast path
  std::mutex grow_mu_;

  std::mutex retire_mu_;
  std::vector<std::function<void()>> retired_;  ///< in Retire order

  /// Lifetime counters and the grace-wait latency histogram
  /// (microseconds), read through the registry AttachMetrics exposes
  /// them on.
  obs::Counter pins_;
  obs::Counter synchronizes_;
  obs::Counter retired_count_;
  obs::Counter reclaimed_count_;
  obs::Histogram grace_wait_us_;
};

}  // namespace accl::exec
