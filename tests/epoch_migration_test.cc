// Mid-migration exactness of the epoch-published routing model — the
// acceptance gate for the snapshot/double-residency protocol, and a
// primary ThreadSanitizer target.
//
// The old contract only promised exact match sets for calls *starting
// after* a rebalance returned; a match racing a migration could route with
// pre-move fences and transiently miss (or, naively fixed, double-report)
// mid-flight subscriptions. Under the snapshot model every MatchBatch must
// be byte-identical to the serial brute-force oracle over the live
// subscription set at EVERY instant of a rebalance:
//
//   - DigestExactDuringContinuousRebalance: a fixed subscription set,
//     matcher threads continuously asserting batch results equal the
//     precomputed oracle while a rebalancer thread hammers RebalanceOnce
//     and wholesale SetRangeBoundaries swaps. Any stale-fence miss or
//     un-deduplicated double-residency copy fails the byte comparison.
//   - UnsubscribeDuringMigrationBoundsResults: with concurrent
//     Unsubscribe the exact set is racy by nature, so results are bounded:
//     superset of the oracle over never-removed subscriptions, subset of
//     the oracle over all, duplicate-free — then exact equality once
//     quiesced.
//   - The AutoMove* cases drive moves an auto-trigger hands to the
//     background migrator: a single caller's batches stay exact while the
//     move is in flight (routed under the transitional union snapshot),
//     the engine can be destroyed mid-move, and the explicit calls wait
//     for the move.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

constexpr Dim kNd = 4;

AttributeSchema UnitSchema() {
  AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

SubscriptionEngine MakeRangeEngine(uint32_t shards, uint32_t threads) {
  EngineOptions o;
  o.index.reorg_period = 25;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = shards;
  o.match_threads = threads;
  o.sharding = ShardingPolicy::kRange;
  return SubscriptionEngine(UnitSchema(), o);
}

/// Values boundary moves land on; boxes snap onto them so migrations
/// constantly re-home subscriptions that sit exactly on fences.
const std::vector<float>& SnapValues() {
  static const std::vector<float> snap = {0.2f,        0.25f, 1.0f / 3.0f,
                                          0.4f,        0.5f,  0.6f,
                                          2.0f / 3.0f, 0.75f, 0.8f};
  return snap;
}

Box FuzzBox(Rng& rng) {
  Box b = testutil::RandomBox(rng, kNd, 0.5f);
  if (rng.NextBool(0.35)) {
    const float fence = SnapValues()[rng.NextBelow(SnapValues().size())];
    switch (rng.NextBelow(3)) {
      case 0:
        b.set(0, fence, fence);
        break;
      case 1:
        b.set(0, std::min(b.lo(0), fence), fence);
        break;
      default:
        b.set(0, fence, std::max(b.hi(0), fence));
        break;
    }
  }
  return b;
}

std::vector<float> RandomBounds(Rng& rng, size_t n_bounds) {
  std::vector<float> b(n_bounds);
  for (size_t i = 0; i < n_bounds; ++i) {
    const float cell = 0.9f / static_cast<float>(n_bounds + 1);
    b[i] = 0.05f + cell * (static_cast<float>(i + 1) +
                           0.8f * (rng.NextFloat() - 0.5f));
  }
  return b;
}

std::vector<ObjectId> Oracle(
    const std::vector<std::pair<SubscriptionId, Box>>& subs, const Box& ev) {
  Query q(ev, Relation::kIntersects);
  std::vector<ObjectId> out;
  for (const auto& [id, box] : subs) {
    if (q.Matches(box.view())) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(EpochMigration, DigestExactDuringContinuousRebalance) {
  SubscriptionEngine engine = MakeRangeEngine(5, 3);

  // Fixed subscription set: the oracle is invariant, so EVERY batch —
  // including those overlapping a migration — must reproduce it exactly.
  Rng rng(4242);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 500; ++i) {
    const Box b = FuzzBox(rng);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }
  std::vector<Event> probes;
  std::vector<std::vector<ObjectId>> expected;
  for (int e = 0; e < 12; ++e) {
    const Box b = FuzzBox(rng);
    probes.push_back(Event::Range(b));
    expected.push_back(Oracle(subs, b));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> moves_seen{0};
  std::thread rebalancer([&] {
    Rng rr(99);
    while (!stop.load(std::memory_order_relaxed)) {
      if (rr.NextBool(0.3)) {
        engine.SetRangeBoundaries(RandomBounds(rr, engine.shard_count() - 2));
        moves_seen.fetch_add(1, std::memory_order_relaxed);
      } else if (engine.RebalanceOnce()) {
        moves_seen.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  constexpr int kMatchers = 2;
  constexpr int kBatchesPerMatcher = 60;
  std::vector<std::thread> matchers;
  for (int t = 0; t < kMatchers; ++t) {
    matchers.emplace_back([&] {
      MatchBatchResult res;
      uint64_t last_version = 0;
      for (int i = 0; i < kBatchesPerMatcher; ++i) {
        engine.MatchBatch(Span<const Event>(probes.data(), probes.size()),
                          &res);
        // Snapshot versions are monotone per caller: a later batch can
        // never have routed with an older table.
        EXPECT_GE(res.routing_version, last_version);
        last_version = res.routing_version;
        for (size_t e = 0; e < probes.size(); ++e) {
          // Byte-identical to the serial oracle *during* migration — no
          // misses from stale fences, no duplicates from double residency.
          ASSERT_EQ(res.matches[e], expected[e])
              << "batch " << i << " probe " << e << " (routing_version "
              << res.routing_version << ")";
        }
      }
    });
  }
  for (auto& t : matchers) t.join();
  stop.store(true, std::memory_order_relaxed);
  rebalancer.join();

  // The run must actually have migrated under the matchers' feet.
  EXPECT_GT(moves_seen.load(), 0u);
  EXPECT_GT(engine.rebalance_stats().boundary_moves, 0u);

  // Epoch hygiene: after quiescing, retired snapshots are reclaimable and
  // the grace-period machinery ran once per publish.
  engine.SynchronizeEpochs();
  const obs::MetricsRegistry& reg = engine.metrics();
  using testutil::MetricOf;
  EXPECT_EQ(MetricOf(reg, "accl_epoch_reclaimed_total").counter,
            MetricOf(reg, "accl_epoch_retired_total").counter);
  const uint64_t synchronizes =
      MetricOf(reg, "accl_epoch_synchronizes_total").counter;
  EXPECT_GT(synchronizes, 0u);
  EXPECT_GT(MetricOf(reg, "accl_epoch_pins_total").counter, 0u);
  // Grace-wait telemetry is populated: every Synchronize measured its
  // wait, and the percentiles are ordered sanely.
  const obs::HistogramSnapshot grace =
      MetricOf(reg, "accl_epoch_grace_wait_us").hist;
  EXPECT_EQ(grace.count, synchronizes);
  EXPECT_GE(grace.p99, grace.p50);
  EXPECT_GE(static_cast<double>(grace.max), grace.p99);

  // Residency bookkeeping survived: every subscription owned exactly once.
  size_t resident = 0;
  for (const auto& info : engine.GetShardInfos()) {
    resident += info.subscriptions;
  }
  EXPECT_EQ(resident, subs.size());
  EXPECT_EQ(engine.subscription_count(), subs.size());
}

TEST(EpochMigration, UnsubscribeDuringMigrationBoundsResults) {
  SubscriptionEngine engine = MakeRangeEngine(4, 2);

  Rng rng(777);
  std::vector<std::pair<SubscriptionId, Box>> keepers, victims;
  for (int i = 0; i < 400; ++i) {
    const Box b = FuzzBox(rng);
    const SubscriptionId id = engine.SubscribeBox(b);
    if (i % 2 == 0) {
      keepers.emplace_back(id, b);
    } else {
      victims.emplace_back(id, b);
    }
  }
  std::vector<std::pair<SubscriptionId, Box>> all = keepers;
  all.insert(all.end(), victims.begin(), victims.end());

  std::vector<Event> probes;
  std::vector<std::vector<ObjectId>> lower;  // oracle over keepers
  std::vector<std::vector<ObjectId>> upper;  // oracle over everything
  for (int e = 0; e < 10; ++e) {
    const Box b = FuzzBox(rng);
    probes.push_back(Event::Range(b));
    lower.push_back(Oracle(keepers, b));
    upper.push_back(Oracle(all, b));
  }

  std::atomic<bool> stop{false};
  std::thread rebalancer([&] {
    Rng rr(31);
    while (!stop.load(std::memory_order_relaxed)) {
      if (rr.NextBool(0.25)) {
        engine.SetRangeBoundaries(RandomBounds(rr, engine.shard_count() - 2));
      } else {
        engine.RebalanceOnce();
      }
    }
  });
  std::thread unsubscriber([&] {
    for (const auto& [id, box] : victims) {
      EXPECT_TRUE(engine.Unsubscribe(id));
    }
  });

  MatchBatchResult res;
  for (int i = 0; i < 40; ++i) {
    engine.MatchBatch(Span<const Event>(probes.data(), probes.size()), &res);
    for (size_t e = 0; e < probes.size(); ++e) {
      const std::vector<ObjectId>& got = res.matches[e];
      // Duplicate-free (sorted by contract): double residency never leaks
      // the same subscription twice, even racing its own unsubscribe.
      ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end())
          << "duplicate id in batch " << i << " probe " << e;
      // Every never-removed match present; nothing outside the full set.
      ASSERT_TRUE(std::includes(got.begin(), got.end(), lower[e].begin(),
                                lower[e].end()))
          << "missing keeper match in batch " << i << " probe " << e;
      ASSERT_TRUE(std::includes(upper[e].begin(), upper[e].end(), got.begin(),
                                got.end()))
          << "phantom id in batch " << i << " probe " << e;
    }
  }
  unsubscriber.join();
  stop.store(true, std::memory_order_relaxed);
  rebalancer.join();

  // Quiesced: exactly the keepers remain, and matching agrees byte-for-byte.
  EXPECT_EQ(engine.subscription_count(), keepers.size());
  engine.MatchBatch(Span<const Event>(probes.data(), probes.size()), &res);
  for (size_t e = 0; e < probes.size(); ++e) {
    EXPECT_EQ(res.matches[e], lower[e]) << "probe " << e;
  }
  size_t resident = 0;
  for (const auto& info : engine.GetShardInfos()) {
    resident += info.subscriptions;
  }
  EXPECT_EQ(resident, keepers.size());
}

TEST(EpochMigration, MatchSingleEventExactDuringRebalance) {
  // The non-batched Match path pins and dedups too; drive it through the
  // same continuous-rebalance gauntlet.
  SubscriptionEngine engine = MakeRangeEngine(4, 0);
  Rng rng(1234);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 300; ++i) {
    const Box b = FuzzBox(rng);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }
  std::vector<Box> probe_boxes;
  std::vector<std::vector<ObjectId>> expected;
  for (int e = 0; e < 8; ++e) {
    probe_boxes.push_back(FuzzBox(rng));
    expected.push_back(Oracle(subs, probe_boxes.back()));
  }

  std::atomic<bool> stop{false};
  std::thread rebalancer([&] {
    Rng rr(5);
    while (!stop.load(std::memory_order_relaxed)) {
      if (rr.NextBool(0.3)) {
        engine.SetRangeBoundaries(RandomBounds(rr, engine.shard_count() - 2));
      } else {
        engine.RebalanceOnce();
      }
    }
  });
  for (int i = 0; i < 80; ++i) {
    for (size_t e = 0; e < probe_boxes.size(); ++e) {
      std::vector<SubscriptionId> out;
      engine.Match(Event::Range(probe_boxes[e]), &out);
      // kRange Match output is sorted + deduplicated by contract.
      ASSERT_EQ(out, expected[e]) << "iteration " << i << " probe " << e;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  rebalancer.join();
}

// ---------------------------------------------------------------------------
// Moves handed to the background migrator
// ---------------------------------------------------------------------------

/// Narrow (width `w` at a random position) on dimensions `d0` and `d1`,
/// full range elsewhere.
Box NarrowOn(Rng& rng, Dim d0, Dim d1, float w) {
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) b.set(d, 0.0f, 1.0f);
  for (const Dim d : {d0, d1}) {
    const float lo = (1.0f - w) * rng.NextFloat();
    b.set(d, lo, lo + w);
  }
  return b;
}

/// An adaptive kRange engine fenced on dimension 0. Its subscriptions are
/// narrow on dimensions 0 and 1, so they live in range slices under either
/// fence dimension; its events are narrow on dimension 1 only, so routed
/// on dimension 0 they visit every slice and the advisor switches to
/// dimension 1 within a few windows. That move carries most subscriptions
/// from one range slice to another, and an event's new-plan route misses
/// most movers' sources: only the union route keeps it exact while the
/// migrator is still inserting.
std::unique_ptr<SubscriptionEngine> MakeAutoMoveEngine(uint32_t threads) {
  EngineOptions o;
  o.index.reorg_period = 25;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = 5;
  o.match_threads = threads;
  o.sharding = ShardingPolicy::kRange;
  o.adaptive.enabled = true;
  o.adaptive.sample_window = 128;
  return std::make_unique<SubscriptionEngine>(UnitSchema(), o);
}

constexpr int kAutoMoveSubs = 40000;

std::vector<Event> NarrowBatch(Rng& rng, size_t n) {
  std::vector<Event> evs;
  for (size_t e = 0; e < n; ++e) {
    evs.push_back(Event::Range(NarrowOn(rng, 1, 1, 0.01f)));
  }
  return evs;
}

constexpr uint32_t kTargetDim = 1;

uint64_t Counter(const SubscriptionEngine& engine, const char* name) {
  return engine.metrics().GetCounter(name)->Value();
}

/// Subscribes kAutoMoveSubs boxes narrow on dimensions 0 and 1 in one
/// batch.
std::vector<std::pair<SubscriptionId, Box>> SubscribeNarrow(
    SubscriptionEngine* engine, Rng& rng) {
  std::vector<Box> boxes;
  for (int i = 0; i < kAutoMoveSubs; ++i) {
    boxes.push_back(NarrowOn(rng, 0, 1, 0.02f));
  }
  std::vector<SubscriptionId> ids;
  engine->SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (size_t i = 0; i < ids.size(); ++i) subs.emplace_back(ids[i], boxes[i]);
  return subs;
}

/// Matches batches until one triggers the switch to kTargetDim (whose
/// move is then in flight), checking each batch against the oracle. The
/// batches are small so the check after the triggering one ends well
/// before the migrator does.
void RunUntilSwitch(SubscriptionEngine* engine, Rng& rng,
                    const std::vector<std::pair<SubscriptionId, Box>>& subs) {
  for (int round = 0;
       round < 320 && engine->routing_dimension() != kTargetDim; ++round) {
    const std::vector<Event> evs = NarrowBatch(rng, 4);
    MatchBatchResult res;
    engine->MatchBatch(Span<const Event>(evs.data(), evs.size()), &res);
    for (size_t e = 0; e < evs.size(); ++e) {
      ASSERT_EQ(res.matches[e], Oracle(subs, evs[e].box)) << "round " << round;
    }
  }
  ASSERT_EQ(engine->routing_dimension(), kTargetDim)
      << "the advisor never switched";
}

TEST(EpochMigration, AutoMoveSingleCallerExactUnderTransitionalSnapshot) {
  std::unique_ptr<SubscriptionEngine> engine = MakeAutoMoveEngine(2);
  Rng rng(606);
  std::vector<std::pair<SubscriptionId, Box>> subs =
      SubscribeNarrow(engine.get(), rng);
  // The move stops before its final publish until released, so the first
  // kHeldRounds batches route under the transitional snapshot however the
  // scheduler runs the migrator. Their 4 * kHeldRounds events stay below
  // one sample_window, so no further decision waits on the held move.
  constexpr int kHeldRounds = 16;
  engine->HoldMovesForTesting(true);
  RunUntilSwitch(engine.get(), rng, subs);

  // The switch's call returned as soon as the transitional snapshot was
  // published; the migrator is moving ~all subscriptions now. Keep going
  // from the same thread with churn between batches: every batch must
  // equal the oracle over the exact live set, held and then racing the
  // migrator's publish, grace wait and erases.
  const uint64_t transitional0 =
      Counter(*engine, "accl_pipeline_transition_events_total");
  size_t next_victim = 0;
  for (int round = 0; round < 48; ++round) {
    if (round == kHeldRounds) engine->HoldMovesForTesting(false);
    const std::vector<Event> evs = NarrowBatch(rng, 4);
    MatchBatchResult res;
    engine->MatchBatch(Span<const Event>(evs.data(), evs.size()), &res);
    for (size_t e = 0; e < evs.size(); ++e) {
      ASSERT_EQ(res.matches[e], Oracle(subs, evs[e].box))
          << "round " << round << " event " << e << " (routing_version "
          << res.routing_version << ")";
    }
    for (int c = 0; c < 4; ++c) {
      ASSERT_TRUE(engine->Unsubscribe(subs[next_victim].first));
      subs[next_victim] = subs.back();
      subs.pop_back();
      next_victim = (next_victim + 7919) % subs.size();
      const Box b = NarrowOn(rng, 0, 1, 0.02f);
      subs.emplace_back(engine->SubscribeBox(b), b);
    }
  }
  // At least one batch routed under the transitional snapshot, paying
  // extra visits for the union of the old and new plans.
  EXPECT_GT(Counter(*engine, "accl_pipeline_transition_events_total"),
            transitional0);
  EXPECT_GT(Counter(*engine, "accl_pipeline_transition_extra_visits_total"),
            0u);

  // Quiesced: one copy per subscription, counted where the plan homes it.
  engine->SynchronizeEpochs();
  size_t resident = 0, counted = 0;
  for (size_t s = 0; s < engine->shard_count(); ++s) {
    resident += engine->shard_index(s).size();
  }
  for (const auto& info : engine->GetShardInfos()) {
    counted += info.subscriptions;
  }
  EXPECT_EQ(resident, subs.size());
  EXPECT_EQ(counted, subs.size());
  EXPECT_EQ(engine->subscription_count(), subs.size());
}

TEST(EpochMigration, AutoMoveInFlightAtDestructionIsClean) {
  for (uint64_t seed : {11ull, 12ull, 13ull}) {
    std::unique_ptr<SubscriptionEngine> engine = MakeAutoMoveEngine(0);
    Rng rng(seed);
    const std::vector<std::pair<SubscriptionId, Box>> subs =
        SubscribeNarrow(engine.get(), rng);
    RunUntilSwitch(engine.get(), rng, subs);
    // The move is (almost certainly) still in flight: the destructor must
    // wait for it before tearing down the shards it writes.
    engine.reset();
  }
}

TEST(EpochMigration, AutoMoveExplicitCallsWaitForTheMove) {
  {
    std::unique_ptr<SubscriptionEngine> engine = MakeAutoMoveEngine(0);
    Rng rng(707);
    const std::vector<std::pair<SubscriptionId, Box>> subs =
        SubscribeNarrow(engine.get(), rng);
    RunUntilSwitch(engine.get(), rng, subs);
    // Mid-move capture: waits for the move, so no double-resident copy is
    // in the shards it scans, and the image holds each live id once.
    durability::EngineImage img;
    engine->CaptureDurableImage(&img);
    ASSERT_EQ(img.ids.size(), subs.size());
    EXPECT_EQ(img.ids.size(), engine->subscription_count());
    std::unordered_set<SubscriptionId> seen(img.ids.begin(), img.ids.end());
    EXPECT_EQ(seen.size(), img.ids.size());
    for (const auto& [id, box] : subs) EXPECT_EQ(seen.count(id), 1u);
  }
  {
    std::unique_ptr<SubscriptionEngine> engine = MakeAutoMoveEngine(0);
    Rng rng(708);
    const std::vector<std::pair<SubscriptionId, Box>> subs =
        SubscribeNarrow(engine.get(), rng);
    RunUntilSwitch(engine.get(), rng, subs);
    // Mid-move forced rebalance: waits for the auto move, runs its own to
    // completion, and returns with one copy per subscription.
    engine->RebalanceOnce();
    size_t resident = 0;
    for (size_t s = 0; s < engine->shard_count(); ++s) {
      resident += engine->shard_index(s).size();
    }
    EXPECT_EQ(resident, subs.size());
    // A capture after the migrations holds each live id exactly once.
    durability::EngineImage img;
    engine->CaptureDurableImage(&img);
    const std::unordered_set<SubscriptionId> unique(img.ids.begin(),
                                                    img.ids.end());
    EXPECT_EQ(unique.size(), img.ids.size());
    EXPECT_EQ(img.ids.size(), engine->subscription_count());
    // No move is in flight, so the next batch routes under a final
    // snapshot (a move it triggers itself starts after its routing).
    const uint64_t transitional =
        Counter(*engine, "accl_pipeline_transition_events_total");
    const std::vector<Event> evs = NarrowBatch(rng, 8);
    MatchBatchResult res;
    engine->MatchBatch(Span<const Event>(evs.data(), evs.size()), &res);
    EXPECT_EQ(Counter(*engine, "accl_pipeline_transition_events_total"),
              transitional);
    for (size_t e = 0; e < evs.size(); ++e) {
      EXPECT_EQ(res.matches[e], Oracle(subs, evs[e].box));
    }
  }
}

}  // namespace
}  // namespace accl
