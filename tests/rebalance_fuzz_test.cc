// Deterministic parity-fuzz harness for the range-routed engine.
//
// A seeded operation log interleaving Subscribe / SubscribeBatch /
// Unsubscribe / MatchBatch / forced RebalanceOnce / SetRangeBoundaries /
// fence-dimension switches (SetRoutingDimension) / overflow-split toggles
// (SetOverflowSplit, ClearOverflowSplit) / epoch-drain points
// (SynchronizeEpochs — forcing retired routing snapshots through the
// grace period at arbitrary log positions) is replayed through sharded
// kRange engines (several shard counts, thread counts, auto-rebalance and
// split-capacity settings, one with the adaptive advisor live) and through
// the serial single-index engine; every batch's match sets — and an FNV
// digest over the exact (event, id) assignment (util/digest.h, the oracle
// migration_parity_test pins too) — must be identical. Boundary moves,
// dimension switches, split migrations, and advisor-driven adaptations
// interleave with the match stream mid-log, so any routing table /
// residency disagreement shows up as a digest divergence. Failures print
// the reproducing seed.
//
// Scheduler-adversarial companions hammer RebalanceOnce +
// SetRangeBoundaries (and, in the dimension-flip variant, continuous
// SetRoutingDimension / SetOverflowSplit over a STATIC subscription
// population, where every mid-migration batch must already be
// oracle-exact) from dedicated threads while matchers run. Primary TSan
// targets for the migration locking.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/digest.h"
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

struct EngineConfig {
  uint32_t shards;
  uint32_t threads;
  ShardingPolicy policy;
  uint32_t rebalance_period;  // 0 = manual only
  uint32_t split_capacity = 0;  // adaptive.overflow_split_shards
  bool adaptive = false;        // advisor live mid-log
};

SubscriptionEngine MakeEngine(const EngineConfig& cfg) {
  EngineOptions o;
  o.index.reorg_period = 25;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = cfg.shards;
  o.match_threads = cfg.threads;
  o.sharding = cfg.policy;
  o.rebalance_period = cfg.rebalance_period;
  o.adaptive.overflow_split_shards = cfg.split_capacity;
  if (cfg.adaptive) {
    // Advisor decisions only have to be deterministic per engine config;
    // parity with the serial oracle must hold whatever it decides.
    o.adaptive.enabled = true;
    o.adaptive.sample_window = 96;
  }
  return SubscriptionEngine(UnitSchema(), o);
}

// One record per operation, pre-generated so every engine replays the
// exact same log.
struct Op {
  enum Kind {
    kSubscribe,
    kSubscribeBatch,
    kUnsubscribe,
    kMatchBatch,
    kForceRebalance,
    kSetBoundaries,
    kEpochDrain,
    kSwitchDim,     // SetRoutingDimension mid-log
    kSplitToggle,   // SetOverflowSplit / ClearOverflowSplit mid-log
  } kind;
  Box box;                    // kSubscribe
  std::vector<Box> boxes;     // kSubscribeBatch
  size_t victim_index;        // kUnsubscribe: index into the live list
  std::vector<Event> events;  // kMatchBatch
  uint64_t bounds_seed;       // kSetBoundaries / kSplitToggle fence seed
  uint32_t dim;               // kSwitchDim / kSplitToggle target dimension
};

/// Fence values every engine config under test can start with — boxes are
/// snapped onto them so exact-on-boundary geometry is exercised, not just
/// generic interiors.
const std::vector<float>& SnapValues() {
  static const std::vector<float> snap = {0.2f,        0.25f, 1.0f / 3.0f,
                                          0.4f,        0.5f,  0.6f,
                                          2.0f / 3.0f, 0.75f, 0.8f};
  return snap;
}

Box FuzzBox(Rng& rng) {
  Box b = testutil::RandomBox(rng, kNd, 0.5f);
  const std::vector<float>& snap = SnapValues();
  if (rng.NextBool(0.35)) {
    const float fence = snap[rng.NextBelow(snap.size())];
    switch (rng.NextBelow(3)) {
      case 0:
        b.set(0, fence, fence);  // degenerate, on the fence
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

std::vector<Op> MakeOpLog(uint64_t seed, size_t n_ops) {
  Rng rng(seed);
  std::vector<Op> log;
  size_t live = 0;
  for (size_t i = 0; i < n_ops; ++i) {
    const double roll = rng.NextDouble();
    Op op;
    if (live == 0 || roll < 0.40) {
      op.kind = Op::kSubscribe;
      op.box = FuzzBox(rng);
      ++live;
    } else if (roll < 0.50) {
      op.kind = Op::kSubscribeBatch;
      const size_t nb = 1 + rng.NextBelow(24);
      for (size_t j = 0; j < nb; ++j) op.boxes.push_back(FuzzBox(rng));
      live += nb;
    } else if (roll < 0.68) {
      op.kind = Op::kUnsubscribe;
      op.victim_index = rng.NextBelow(live);
      --live;
    } else if (roll < 0.94) {
      op.kind = Op::kMatchBatch;
      const size_t ne = 1 + rng.NextBelow(12);
      for (size_t e = 0; e < ne; ++e) {
        if (rng.NextBool(0.5)) {
          std::vector<float> pt(kNd);
          for (auto& x : pt) x = rng.NextFloat();
          if (rng.NextBool(0.25)) {
            pt[0] = SnapValues()[rng.NextBelow(SnapValues().size())];
          }
          op.events.push_back(Event::Point(std::move(pt)));
        } else {
          op.events.push_back(Event::Range(FuzzBox(rng)));
        }
      }
    } else if (roll < 0.955) {
      op.kind = Op::kForceRebalance;
    } else if (roll < 0.965) {
      // Epoch-drain point: retired snapshots must be reclaimable at any
      // log position without disturbing parity.
      op.kind = Op::kEpochDrain;
    } else if (roll < 0.98) {
      op.kind = Op::kSetBoundaries;
      op.bounds_seed = rng.NextU64();
    } else if (roll < 0.99) {
      op.kind = Op::kSwitchDim;
      op.dim = static_cast<uint32_t>(rng.NextBelow(kNd));
    } else {
      op.kind = Op::kSplitToggle;
      op.bounds_seed = rng.NextU64();
      op.dim = static_cast<uint32_t>(rng.NextBelow(kNd));
    }
    log.push_back(std::move(op));
  }
  return log;
}

/// A strictly ascending boundary array for `engine`, derived from the op's
/// seed: engine-shape-dependent (each K needs its own array size) but
/// deterministic per (seed, K). Serial/broadcast engines ignore the call.
std::vector<float> BoundsFromSeed(uint64_t seed, size_t n_bounds) {
  Rng rng(seed);
  std::vector<float> b(n_bounds);
  // Partition [0.05, 0.95] into n_bounds strictly increasing fences with
  // jittered uniform spacing — ascending by construction.
  for (size_t i = 0; i < n_bounds; ++i) {
    const float cell = 0.9f / static_cast<float>(n_bounds + 1);
    b[i] = 0.05f + cell * (static_cast<float>(i + 1) +
                           0.8f * (rng.NextFloat() - 0.5f));
  }
  return b;
}

struct ReplayResult {
  std::vector<std::vector<ObjectId>> matches;  ///< one per batch event
  uint64_t digest = kFnvOffsetBasis;
};

ReplayResult Replay(SubscriptionEngine& engine, const std::vector<Op>& log) {
  std::vector<SubscriptionId> live;
  std::vector<Box> live_boxes;  // parallel to `live`
  ReplayResult r;
  uint64_t event_counter = 0;
  for (size_t step = 0; step < log.size(); ++step) {
    const Op& op = log[step];
    switch (op.kind) {
      case Op::kSubscribe:
        live.push_back(engine.SubscribeBox(op.box));
        live_boxes.push_back(op.box);
        break;
      case Op::kSubscribeBatch: {
        std::vector<SubscriptionId> ids;
        engine.SubscribeBatch(
            Span<const Box>(op.boxes.data(), op.boxes.size()), &ids);
        live.insert(live.end(), ids.begin(), ids.end());
        live_boxes.insert(live_boxes.end(), op.boxes.begin(), op.boxes.end());
        break;
      }
      case Op::kUnsubscribe: {
        const size_t v = op.victim_index;
        EXPECT_TRUE(engine.Unsubscribe(live[v]));
        live[v] = live.back();
        live.pop_back();
        live_boxes[v] = live_boxes.back();
        live_boxes.pop_back();
        break;
      }
      case Op::kMatchBatch: {
        MatchBatchResult res;
        engine.MatchBatch(
            Span<const Event>(op.events.data(), op.events.size()), &res);
        for (auto& m : res.matches) {
          r.digest = Fnv1a(r.digest, event_counter++);
          for (const ObjectId id : m) r.digest = Fnv1a(r.digest, id);
          r.matches.push_back(std::move(m));
        }
        break;
      }
      case Op::kForceRebalance:
        engine.RebalanceOnce();  // no-op (false) on non-range engines
        break;
      case Op::kEpochDrain:
        engine.SynchronizeEpochs();
        break;
      case Op::kSetBoundaries:
        // Size the array from the live boundary count, not shard_count():
        // engines with overflow-split capacity have more physical shards
        // than range slices.
        if (engine.range_routed() &&
            !engine.GetRangeBoundaries().empty()) {
          EXPECT_TRUE(engine.SetRangeBoundaries(BoundsFromSeed(
              op.bounds_seed, engine.GetRangeBoundaries().size())));
        }
        break;
      case Op::kSwitchDim:
        if (engine.range_routed()) {
          EXPECT_TRUE(engine.SetRoutingDimension(op.dim));
        }
        break;
      case Op::kSplitToggle:
        if (engine.range_routed() && engine.overflow_split_capacity() > 0) {
          if (op.bounds_seed % 3 == 0) {
            EXPECT_TRUE(engine.ClearOverflowSplit());
          } else {
            EXPECT_TRUE(engine.SetOverflowSplit(
                op.dim,
                BoundsFromSeed(op.bounds_seed,
                               engine.overflow_split_capacity() - 1)));
          }
        }
        break;
    }
    // The planner's resident histogram is the live set, exactly, after
    // every step: moves, switches and splits leave it unchanged.
    if (const adapt::QueryPatternTracker* t = engine.pattern_tracker()) {
      const adapt::PatternSnapshot p = t->Snapshot();
      if (p.subscriptions != live.size() ||
          !(p.sub_dims == testutil::ResidentHistogram(live_boxes, kNd))) {
        ADD_FAILURE() << "resident histogram diverged at step " << step;
        return r;
      }
    }
  }
  return r;
}

TEST(RebalanceFuzz, ShardedReplayMatchesSerialReplayAcrossSeeds) {
  const EngineConfig configs[] = {
      {2, 0, ShardingPolicy::kRange, 0},
      {4, 0, ShardingPolicy::kRange, 0},
      {4, 3, ShardingPolicy::kRange, 0},
      {4, 0, ShardingPolicy::kRange, 32},  // auto-rebalance mid-log
      {6, 3, ShardingPolicy::kRange, 48},
      {4, 2, ShardingPolicy::kHashId, 0},  // broadcast cross-check
      {4, 0, ShardingPolicy::kRange, 0, 2},   // split toggles live
      {5, 3, ShardingPolicy::kRange, 40, 3},  // splits + auto-rebalance
      {5, 2, ShardingPolicy::kRange, 0, 2, true},  // advisor adapts mid-log
  };
  for (const uint64_t seed : {11ull, 2026ull, 777ull, 31415ull}) {
    const std::vector<Op> log = MakeOpLog(seed, 600);
    SubscriptionEngine serial =
        MakeEngine({1, 0, ShardingPolicy::kHashId, 0});
    const ReplayResult expected = Replay(serial, log);
    for (const EngineConfig& cfg : configs) {
      SubscriptionEngine engine = MakeEngine(cfg);
      const ReplayResult got = Replay(engine, log);
      ASSERT_EQ(got.matches.size(), expected.matches.size())
          << "REPRO: seed=" << seed << " shards=" << cfg.shards
          << " threads=" << cfg.threads
          << " rebalance_period=" << cfg.rebalance_period;
      for (size_t i = 0; i < got.matches.size(); ++i) {
        ASSERT_EQ(got.matches[i], expected.matches[i])
            << "REPRO: seed=" << seed << " batch event " << i
            << " shards=" << cfg.shards << " threads=" << cfg.threads
            << " rebalance_period=" << cfg.rebalance_period;
      }
      ASSERT_EQ(got.digest, expected.digest)
          << "REPRO: seed=" << seed << " shards=" << cfg.shards
          << " threads=" << cfg.threads
          << " rebalance_period=" << cfg.rebalance_period;
      EXPECT_EQ(engine.subscription_count(), serial.subscription_count());
    }
  }
}

TEST(RebalanceFuzz, ReplayIsRepeatable) {
  const std::vector<Op> log = MakeOpLog(99, 500);
  SubscriptionEngine a = MakeEngine({5, 3, ShardingPolicy::kRange, 40});
  SubscriptionEngine b = MakeEngine({5, 3, ShardingPolicy::kRange, 40});
  const ReplayResult ra = Replay(a, log);
  const ReplayResult rb = Replay(b, log);
  EXPECT_EQ(ra.matches, rb.matches);
  EXPECT_EQ(ra.digest, rb.digest);
  EXPECT_EQ(a.GetRangeBoundaries(), b.GetRangeBoundaries());
  EXPECT_EQ(a.rebalance_stats().boundary_moves,
            b.rebalance_stats().boundary_moves);
  EXPECT_EQ(a.rebalance_stats().subscriptions_migrated,
            b.rebalance_stats().subscriptions_migrated);
}

TEST(RebalanceFuzz, FuzzedLogsActuallyExerciseTheRebalancer) {
  // Guard against the harness fuzzing nothing: over the seeds used above,
  // kRange engines must see forced moves, migrations, and overflow
  // residency — otherwise the parity assertions are vacuous.
  const std::vector<Op> log = MakeOpLog(2026, 600);
  SubscriptionEngine engine = MakeEngine({4, 0, ShardingPolicy::kRange, 32});
  Replay(engine, log);
  EXPECT_GT(engine.rebalance_stats().boundary_moves, 0u);
  EXPECT_GT(engine.rebalance_stats().subscriptions_migrated, 0u);
  size_t resident = 0;
  for (const auto& info : engine.GetShardInfos()) {
    resident += info.subscriptions;
  }
  EXPECT_EQ(resident, engine.subscription_count());
  // Epoch hygiene: every boundary move published (and retired) a routing
  // snapshot; after a final drain nothing may be left pending.
  EXPECT_GT(engine.routing_version(), 1u);
  engine.SynchronizeEpochs();
  const uint64_t retired =
      testutil::MetricOf(engine.metrics(), "accl_epoch_retired_total").counter;
  EXPECT_EQ(
      testutil::MetricOf(engine.metrics(), "accl_epoch_reclaimed_total").counter,
      retired);
  EXPECT_EQ(retired, engine.routing_version() - 1);
}

TEST(RebalanceFuzz, ConcurrentRebalanceKeepsEngineConsistent) {
  SubscriptionEngine engine = MakeEngine({5, 3, ShardingPolicy::kRange, 0});
  Rng seed_rng(123);
  const uint64_t seed_a = seed_rng.NextU64();
  const uint64_t seed_b = seed_rng.NextU64();
  const uint64_t seed_m = seed_rng.NextU64();
  const uint64_t seed_r = seed_rng.NextU64();

  // Thread A: subscribes 400 (singles + batches) and keeps everything.
  std::vector<std::pair<SubscriptionId, Box>> kept_a, kept_b;
  std::thread ta([&] {
    Rng rng(seed_a);
    for (int i = 0; i < 200; ++i) {
      Box b = FuzzBox(rng);
      kept_a.emplace_back(engine.SubscribeBox(b), b);
    }
    std::vector<Box> boxes;
    for (int i = 0; i < 200; ++i) boxes.push_back(FuzzBox(rng));
    std::vector<SubscriptionId> ids;
    engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
    for (size_t i = 0; i < ids.size(); ++i) {
      kept_a.emplace_back(ids[i], boxes[i]);
    }
  });
  // Thread B: subscribes 400, then unsubscribes its even-indexed half.
  std::thread tb([&] {
    Rng rng(seed_b);
    std::vector<std::pair<SubscriptionId, Box>> mine;
    for (int i = 0; i < 400; ++i) {
      Box b = FuzzBox(rng);
      mine.emplace_back(engine.SubscribeBox(b), b);
    }
    for (size_t i = 0; i < mine.size(); ++i) {
      if (i % 2 == 0) {
        EXPECT_TRUE(engine.Unsubscribe(mine[i].first));
      } else {
        kept_b.push_back(mine[i]);
      }
    }
  });
  // Thread C: matches while writers and the rebalancer run (results are
  // transiently incomplete by contract; only crash/race freedom and the
  // final oracle below are asserted).
  std::thread tc([&] {
    Rng rng(seed_m);
    for (int i = 0; i < 25; ++i) {
      std::vector<Event> evs;
      for (int e = 0; e < 8; ++e) evs.push_back(Event::Range(FuzzBox(rng)));
      MatchBatchResult res;
      engine.MatchBatch(Span<const Event>(evs.data(), evs.size()), &res);
    }
  });
  // Thread D: hammers boundary moves and wholesale table swaps.
  std::thread td([&] {
    Rng rng(seed_r);
    for (int i = 0; i < 40; ++i) {
      if (i % 3 == 0) {
        engine.SetRangeBoundaries(BoundsFromSeed(rng.NextU64(), 3));
      } else {
        engine.RebalanceOnce();
      }
    }
  });
  ta.join();
  tb.join();
  tc.join();
  td.join();

  ASSERT_EQ(engine.subscription_count(), 400u + 200u);
  const auto infos = engine.GetShardInfos();
  size_t total = 0;
  for (const auto& info : infos) total += info.subscriptions;
  EXPECT_EQ(total, 600u);

  // Oracle check: a quiesced MatchBatch must agree exactly with brute
  // force over the surviving (id, box) pairs — migrations lost nothing,
  // duplicated nothing, and the final routing table finds everything.
  std::vector<std::pair<SubscriptionId, Box>> survivors = kept_a;
  survivors.insert(survivors.end(), kept_b.begin(), kept_b.end());
  Rng rng(321);
  std::vector<Event> probes;
  for (int e = 0; e < 24; ++e) probes.push_back(Event::Range(FuzzBox(rng)));
  MatchBatchResult res;
  engine.MatchBatch(Span<const Event>(probes.data(), probes.size()), &res);
  for (size_t e = 0; e < probes.size(); ++e) {
    Query q(probes[e].box, Relation::kIntersects);
    std::vector<ObjectId> expect;
    for (const auto& [id, box] : survivors) {
      if (q.Matches(box.view())) expect.push_back(id);
    }
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(res.matches[e], expect) << "probe " << e;
  }
}

TEST(RebalanceFuzz, ConcurrentDimensionFlipsKeepMatchingExact) {
  // The strongest mid-migration guarantee the adaptive subsystem makes:
  // with a STATIC subscription population, every MatchBatch result must be
  // brute-force exact even while a dedicated thread continuously flips the
  // fence dimension and toggles the overflow split underneath the
  // matchers. A reader on the old snapshot finds migrating subscriptions
  // at their source, one on the new snapshot at their destination, and the
  // ObjectId dedup pass removes double-resident duplicates — so there is
  // no instant at which a result may differ from the oracle. Primary TSan
  // target for the dimension-switch locking.
  EngineOptions o;
  o.index.reorg_period = 25;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = 5;
  o.match_threads = 3;
  o.sharding = ShardingPolicy::kRange;
  o.adaptive.overflow_split_shards = 2;
  SubscriptionEngine engine(UnitSchema(), o);

  Rng rng(4242);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 500; ++i) {
    Box b = FuzzBox(rng);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }

  std::vector<Event> probes;
  for (int e = 0; e < 12; ++e) probes.push_back(Event::Range(FuzzBox(rng)));
  std::vector<std::vector<ObjectId>> expected(probes.size());
  for (size_t e = 0; e < probes.size(); ++e) {
    Query q(probes[e].box, Relation::kIntersects);
    for (const auto& [id, box] : subs) {
      if (q.Matches(box.view())) expected[e].push_back(id);
    }
    std::sort(expected[e].begin(), expected[e].end());
  }

  std::atomic<bool> stop{false};
  std::thread flipper([&] {
    Rng frng(rng.NextU64());
    for (int i = 0; i < 48; ++i) {
      switch (i % 4) {
        case 0:
        case 1:
          EXPECT_TRUE(engine.SetRoutingDimension(
              static_cast<uint32_t>(frng.NextBelow(kNd))));
          break;
        case 2:
          EXPECT_TRUE(engine.SetOverflowSplit(
              static_cast<uint32_t>(frng.NextBelow(kNd)),
              BoundsFromSeed(frng.NextU64(), 1)));
          break;
        default:
          EXPECT_TRUE(engine.ClearOverflowSplit());
          break;
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> matchers;
  for (int t = 0; t < 2; ++t) {
    matchers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        MatchBatchResult res;
        engine.MatchBatch(
            Span<const Event>(probes.data(), probes.size()), &res);
        ASSERT_EQ(res.matches.size(), probes.size());
        for (size_t e = 0; e < probes.size(); ++e) {
          ASSERT_EQ(res.matches[e], expected[e])
              << "mid-flip divergence at probe " << e;
        }
      }
    });
  }
  flipper.join();
  for (std::thread& m : matchers) m.join();

  // Quiesced bookkeeping: nobody lost or duplicated a resident, and every
  // retired snapshot drains.
  size_t resident = 0;
  for (const auto& info : engine.GetShardInfos()) {
    resident += info.subscriptions;
  }
  EXPECT_EQ(resident, subs.size());
  engine.SynchronizeEpochs();
  EXPECT_EQ(
      testutil::MetricOf(engine.metrics(), "accl_epoch_reclaimed_total").counter,
      testutil::MetricOf(engine.metrics(), "accl_epoch_retired_total").counter);
}

}  // namespace
}  // namespace accl
