// Unit tests for the epoch-based reclamation subsystem (exec/epoch.h):
// pin/unpin slot protocol, deferred retire lists, grace-period
// Synchronize, slot-pool growth under more concurrent pins than slots,
// and the accl_epoch_* counters the engine's registry surfaces.
#include "exec/epoch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "tests/test_util.h"

namespace accl::exec {
namespace {

/// One of `em`'s accl_epoch_* metrics, read through a local registry.
obs::MetricValue EpochMetric(EpochManager& em, const std::string& name) {
  obs::MetricsRegistry reg;
  em.AttachMetrics(&reg);
  return testutil::MetricOf(reg, name);
}

/// Runs Synchronize on a second thread and asserts it stays blocked (and
/// `freed` stays false) for a while; the caller then unpins, and Join()
/// waits for the grace period to end.
class BlockedSynchronize {
 public:
  BlockedSynchronize(EpochManager* em, const std::atomic<bool>* freed)
      : thread_([this, em] {
          em->Synchronize();
          done_.store(true);
        }) {
    // Give the synchronizer ample opportunity to (incorrectly) finish.
    for (int i = 0; i < 100; ++i) {
      std::this_thread::yield();
      EXPECT_FALSE(done_.load());
      EXPECT_FALSE(freed->load());
    }
  }
  void Join() {
    thread_.join();
    EXPECT_TRUE(done_.load());
  }

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

TEST(Epoch, PinOccupiesASlotUntilReleased) {
  EpochManager em;
  {
    EpochManager::Guard g = em.Pin();
    EXPECT_TRUE(g.pinned());
  }
  EXPECT_EQ(EpochMetric(em, "accl_epoch_pins_total").counter, 1u);
}

TEST(Epoch, GuardMoveTransfersThePin) {
  EpochManager em;
  EpochManager::Guard a = em.Pin();
  EpochManager::Guard b = std::move(a);
  EXPECT_FALSE(a.pinned());  // NOLINT(bugprone-use-after-move): tested
  EXPECT_TRUE(b.pinned());
  b.Release();
  EXPECT_FALSE(b.pinned());
  b.Release();  // double release is a no-op
}

TEST(Epoch, ReentrantPinsOccupyDistinctSlots) {
  EpochManager em;
  EpochManager::Guard a = em.Pin();
  EpochManager::Guard b = em.Pin();  // same thread, second slot
  EXPECT_TRUE(a.pinned());
  EXPECT_TRUE(b.pinned());
  a.Release();
  // b still pins its own slot: an entry retired now must outlive it.
  std::atomic<bool> freed{false};
  em.Retire([&] { freed.store(true); });
  BlockedSynchronize sync(&em, &freed);
  b.Release();
  sync.Join();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, DeleterWaitsForAReaderPinnedBeforeItsRetire) {
  EpochManager em;
  EpochManager::Guard g = em.Pin();
  std::vector<int> order;
  std::atomic<bool> freed{false};
  em.Retire([&] { order.push_back(1); });
  em.Retire([&] {
    order.push_back(2);
    freed.store(true);
  });
  BlockedSynchronize sync(&em, &freed);
  EXPECT_EQ(EpochMetric(em, "accl_epoch_retired_total").counter, 2u);
  EXPECT_EQ(EpochMetric(em, "accl_epoch_reclaimed_total").counter, 0u);
  g.Release();
  sync.Join();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // Retire order
  EXPECT_EQ(EpochMetric(em, "accl_epoch_reclaimed_total").counter, 2u);
}

TEST(Epoch, SynchronizeReclaimsAndRecordsItsWait) {
  EpochManager em;
  bool freed = false;
  em.Retire([&] { freed = true; });
  em.Synchronize();
  EXPECT_TRUE(freed);
  EXPECT_EQ(EpochMetric(em, "accl_epoch_synchronizes_total").counter, 1u);
  EXPECT_EQ(EpochMetric(em, "accl_epoch_grace_wait_us").hist.count, 1u);
}

TEST(Epoch, SynchronizeWaitsForOldEpochReaders) {
  EpochManager em;
  const std::atomic<bool> never{false};
  EpochManager::Guard reader = em.Pin();
  // The synchronizer must not return while the old-epoch reader is pinned.
  BlockedSynchronize sync(&em, &never);
  reader.Release();
  sync.Join();
}

TEST(Epoch, NewEpochReadersDoNotBlockSynchronize) {
  // A reader that pins AFTER the bump must not extend the grace period:
  // pin a post-bump reader from inside the wait loop by racing Synchronize
  // against a pin-release treadmill. If Synchronize waited for new-epoch
  // readers it would livelock here.
  EpochManager em;
  std::atomic<bool> stop{false};
  std::thread treadmill([&] {
    while (!stop.load()) {
      EpochManager::Guard g = em.Pin();
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 50; ++i) em.Synchronize();
  stop.store(true);
  treadmill.join();
  EXPECT_EQ(EpochMetric(em, "accl_epoch_synchronizes_total").counter, 50u);
}

TEST(Epoch, SlotPoolGrowsBeyondOneBlock) {
  // More simultaneous pins than one block holds (32): every pin must still
  // succeed, a grace period must wait for all of them, and releasing them
  // all must let it reclaim.
  EpochManager em;
  std::vector<EpochManager::Guard> guards;
  for (int i = 0; i < 100; ++i) guards.push_back(em.Pin());
  std::atomic<bool> freed{false};
  em.Retire([&] { freed.store(true); });
  BlockedSynchronize sync(&em, &freed);
  guards.clear();
  sync.Join();
  EXPECT_TRUE(freed.load());
}

TEST(Epoch, ConcurrentPinnersNeverLoseASlot) {
  EpochManager em(4);  // deliberately undersized: force the grow path
  constexpr int kThreads = 16;
  constexpr int kItersPerThread = 2000;
  std::atomic<uint64_t> pinned_total{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; ++i) {
        EpochManager::Guard g = em.Pin();
        EXPECT_TRUE(g.pinned());
        pinned_total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(pinned_total.load(), uint64_t{kThreads} * kItersPerThread);
  EXPECT_EQ(EpochMetric(em, "accl_epoch_pins_total").counter,
            uint64_t{kThreads} * kItersPerThread);
}

TEST(Epoch, ConcurrentRetireAndSynchronizeReclaimEverything) {
  EpochManager em;
  constexpr int kRetirers = 4;
  constexpr int kPerThread = 500;
  std::atomic<int> freed{0};
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kRetirers; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          em.Retire([&] { freed.fetch_add(1, std::memory_order_relaxed); });
          if (i % 64 == 0) em.Synchronize();
        }
      });
    }
    std::thread reader([&] {
      for (int i = 0; i < 200; ++i) {
        EpochManager::Guard g = em.Pin();
        std::this_thread::yield();
      }
    });
    for (auto& t : threads) t.join();
    reader.join();
  }
  em.Synchronize();
  EXPECT_EQ(freed.load(), kRetirers * kPerThread);
  EXPECT_EQ(EpochMetric(em, "accl_epoch_reclaimed_total").counter,
            uint64_t{kRetirers} * kPerThread);
}

TEST(Epoch, DestructorRunsPendingDeleters) {
  bool freed = false;
  {
    EpochManager em;
    em.Retire([&] { freed = true; });
    // No Synchronize: the destructor must not leak the entry.
  }
  EXPECT_TRUE(freed);
}

}  // namespace
}  // namespace accl::exec
