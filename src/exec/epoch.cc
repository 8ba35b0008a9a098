#include "exec/epoch.h"

#include <cmath>
#include <thread>

#include "obs/trace.h"
#include "util/timer.h"

namespace accl::exec {

namespace {

/// Process-wide dense thread ordinal, assigned on first use. Only a probe
/// seed (steady-state readers land on "their" slot immediately), never a
/// correctness input, so sharing it across managers is fine.
size_t ThreadOrdinal() {
  static std::atomic<size_t> counter{0};
  thread_local const size_t ordinal =
      counter.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace

EpochManager::EpochManager(size_t min_slots) {
  SlotBlock* tail = &head_;
  for (size_t have = SlotBlock::kSlots; have < min_slots;
       have += SlotBlock::kSlots) {
    auto* b = new SlotBlock();
    tail->next.store(b, std::memory_order_release);
    tail = b;
  }
}

EpochManager::~EpochManager() {
  // No reader may be pinned here (the owner is being destroyed), so every
  // pending deleter is safe to run.
  for (std::function<void()>& deleter : retired_) deleter();
  reclaimed_count_.Add(retired_.size());
  SlotBlock* b = head_.next.load(std::memory_order_acquire);
  while (b != nullptr) {
    SlotBlock* next = b->next.load(std::memory_order_acquire);
    delete b;
    b = next;
  }
}

EpochManager::Guard EpochManager::Pin() {
  pins_.Add();
  const size_t start = ThreadOrdinal() % SlotBlock::kSlots;
  for (;;) {
    for (SlotBlock* b = &head_; b != nullptr;
         b = b->next.load(std::memory_order_acquire)) {
      for (size_t i = 0; i < SlotBlock::kSlots; ++i) {
        Slot& s = b->slots[(start + i) % SlotBlock::kSlots];
        uint64_t expected = 0;
        // Epoch loaded immediately before the claim: if the publisher bumps
        // in between, the slot just advertises a slightly stale (smaller)
        // epoch and Synchronize waits for us conservatively.
        const uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
        if (s.epoch.compare_exchange_strong(expected, e,
                                            std::memory_order_seq_cst)) {
          return Guard(&s.epoch);
        }
      }
    }
    Grow();  // every slot momentarily claimed: add capacity and retry
  }
}

EpochManager::SlotBlock* EpochManager::Grow() {
  std::lock_guard<std::mutex> lk(grow_mu_);
  SlotBlock* tail = &head_;
  for (SlotBlock* n = tail->next.load(std::memory_order_acquire); n != nullptr;
       n = tail->next.load(std::memory_order_acquire)) {
    tail = n;
  }
  auto* b = new SlotBlock();
  tail->next.store(b, std::memory_order_release);
  return b;
}

void EpochManager::Retire(std::function<void()> deleter) {
  std::lock_guard<std::mutex> lk(retire_mu_);
  retired_.push_back(std::move(deleter));
  retired_count_.Add();
}

void EpochManager::Synchronize() {
  ACCL_TRACE_SPAN("epoch_grace_wait");
  synchronizes_.Add();
  // Every entry taken here was unlinked before its Retire call, hence
  // before the bump below: the readers the grace period waits for are the
  // only ones that can still hold it. An entry retired after the take
  // waits for the next grace period.
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lk(retire_mu_);
    batch.swap(retired_);
  }
  const uint64_t next =
      global_epoch_.fetch_add(1, std::memory_order_seq_cst) + 1;
  // Wait for every reader still pinned at a pre-bump epoch. Readers never
  // block on the caller (pins cover pure read work), so this terminates.
  WallTimer wait_timer;
  for (;;) {
    bool busy = false;
    for (const SlotBlock* b = &head_; b != nullptr && !busy;
         b = b->next.load(std::memory_order_acquire)) {
      for (const Slot& s : b->slots) {
        const uint64_t e = s.epoch.load(std::memory_order_seq_cst);
        if (e != 0 && e < next) {
          busy = true;
          break;
        }
      }
    }
    if (!busy) break;
    std::this_thread::yield();
  }
  // Record how long the grace period blocked this publisher — the price a
  // rebalance pays for each snapshot it retires.
  grace_wait_us_.Record(static_cast<uint64_t>(
      std::llround(wait_timer.ElapsedMs() * 1000.0)));
  for (std::function<void()>& deleter : batch) deleter();
  reclaimed_count_.Add(batch.size());
}

void EpochManager::AttachMetrics(obs::MetricsRegistry* reg) {
  reg->Attach("accl_epoch_pins_total", &pins_, "lifetime epoch pins");
  reg->Attach("accl_epoch_synchronizes_total", &synchronizes_,
              "grace periods driven (Synchronize)");
  reg->Attach("accl_epoch_retired_total", &retired_count_,
              "deleters deferred through the retire list");
  reg->Attach("accl_epoch_reclaimed_total", &reclaimed_count_,
              "deferred deleters that have run");
  reg->Attach("accl_epoch_grace_wait_us", &grace_wait_us_,
              "grace-period wait per Synchronize (microseconds)");
}

}  // namespace accl::exec
