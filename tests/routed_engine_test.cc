// Range-routed dispatch parity: a kRange engine must return byte-identical
// (ObjectId-sorted) match sets to the serial single-index engine and to the
// broadcast sharded engine, for every boundary placement — including
// subscriptions straddling a boundary, degenerate (point) boxes, and boxes
// whose endpoints sit exactly on a boundary — while visiting strictly fewer
// shards than broadcast on selective workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

constexpr Dim kNd = 5;

AttributeSchema UnitSchema() {
  AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

EngineOptions Opts(uint32_t shards, uint32_t threads,
                   ShardingPolicy policy = ShardingPolicy::kHashId,
                   std::vector<float> boundaries = {}) {
  EngineOptions o;
  o.index.reorg_period = 40;
  o.index.min_observation = 8;
  o.shards = shards;
  o.match_threads = threads;
  o.sharding = policy;
  o.range_boundaries = std::move(boundaries);
  return o;
}

/// The engine's slice rule, replicated for oracle checks: first fence
/// strictly greater than x.
uint32_t SliceOf(const std::vector<float>& bounds, float x) {
  return static_cast<uint32_t>(
      std::upper_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}

uint32_t ExpectedShard(const std::vector<float>& bounds, uint32_t k,
                       const Box& box) {
  const uint32_t a = SliceOf(bounds, box.lo(0));
  const uint32_t b = SliceOf(bounds, box.hi(0));
  return a == b ? a : k - 1;
}

/// A box whose dimension-0 endpoints are adversarial against `snap`
/// values (boundary fences): with some probability lo and/or hi are set
/// exactly on a fence, made degenerate, or made to straddle a fence.
Box AdversarialBox(Rng& rng, const std::vector<float>& snap) {
  Box b = testutil::RandomBox(rng, kNd, 0.5f);
  if (!snap.empty() && rng.NextBool(0.5)) {
    const float fence = snap[rng.NextBelow(snap.size())];
    switch (rng.NextBelow(4)) {
      case 0:  // point box exactly on the fence
        b.set(0, fence, fence);
        break;
      case 1:  // ends exactly on the fence
        b.set(0, std::min(b.lo(0), fence), fence);
        break;
      case 2:  // starts exactly on the fence
        b.set(0, fence, std::max(b.hi(0), fence));
        break;
      case 3:  // straddles the fence
        b.set(0, fence * 0.5f, fence + (1.0f - fence) * 0.5f);
        break;
    }
  } else if (rng.NextBool(0.15)) {
    const float x = rng.NextFloat();
    b.set(0, x, x);  // degenerate dimension-0 interval off the fences
  }
  return b;
}

std::vector<Event> MakeEvents(Rng& rng, size_t n,
                              const std::vector<float>& snap) {
  std::vector<Event> evs;
  evs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.4)) {
      std::vector<float> pt(kNd);
      for (auto& x : pt) x = rng.NextFloat();
      if (!snap.empty() && rng.NextBool(0.3)) {
        pt[0] = snap[rng.NextBelow(snap.size())];  // point exactly on fence
      }
      evs.push_back(Event::Point(std::move(pt)));
    } else {
      evs.push_back(Event::Range(AdversarialBox(rng, snap)));
    }
  }
  return evs;
}

/// Seeded subscribe/unsubscribe/match workload; returns all match sets.
std::vector<std::vector<ObjectId>> DriveWorkload(
    SubscriptionEngine& engine, MatchPolicy policy, uint64_t seed,
    const std::vector<float>& snap) {
  Rng rng(seed);
  std::vector<SubscriptionId> live;
  std::vector<std::vector<ObjectId>> all_matches;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 200; ++i) {
      const SubscriptionId id = engine.SubscribeBox(AdversarialBox(rng, snap));
      EXPECT_NE(id, kInvalidObject);
      live.push_back(id);
    }
    for (int i = 0; i < 30 && live.size() > 1; ++i) {
      const size_t victim = rng.NextBelow(live.size());
      EXPECT_TRUE(engine.Unsubscribe(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
    std::vector<Event> events = MakeEvents(rng, 24, snap);
    MatchBatchResult res;
    engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res,
                      policy);
    for (auto& m : res.matches) all_matches.push_back(std::move(m));
  }
  return all_matches;
}

TEST(RoutedEngine, ParityAcrossBoundaryPlacementsVsSerialAndBroadcast) {
  // Snap values cover every fence any config under test uses, so the
  // workload deliberately stresses exact-on-boundary endpoints of them all.
  const std::vector<float> snap = {0.2f, 0.25f, 1.0f / 3.0f, 0.5f,
                                   2.0f / 3.0f, 0.75f, 0.9f};
  struct Config {
    uint32_t shards, threads;
    std::vector<float> bounds;  // empty = uniform
  };
  const Config configs[] = {
      {3, 0, {}},                    // 2 slices at 0.5 + overflow
      {4, 2, {}},                    // 3 uniform slices + overflow
      {4, 0, {0.2f, 0.9f}},          // lopsided fences
      {5, 4, {0.25f, 0.5f, 0.75f}},  // 4 slices, fences on snap points
      {8, 4, {}},                    // many slices
      {2, 0, {}},                    // degenerate: 1 slice + overflow
  };
  for (const MatchPolicy policy :
       {MatchPolicy::kIntersecting, MatchPolicy::kCovering}) {
    SubscriptionEngine serial(UnitSchema(), Opts(1, 0));
    const auto expected = DriveWorkload(serial, policy, 4242, snap);
    SubscriptionEngine broadcast(UnitSchema(), Opts(4, 2));
    EXPECT_EQ(DriveWorkload(broadcast, policy, 4242, snap), expected);
    for (const Config& cfg : configs) {
      SubscriptionEngine routed(
          UnitSchema(),
          Opts(cfg.shards, cfg.threads, ShardingPolicy::kRange, cfg.bounds));
      ASSERT_TRUE(routed.range_routed());
      const auto got = DriveWorkload(routed, policy, 4242, snap);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], expected[i])
            << "batch event " << i << " shards=" << cfg.shards
            << " threads=" << cfg.threads << " bounds=" << cfg.bounds.size();
      }
    }
  }
}

TEST(RoutedEngine, SubscriptionPlacementFollowsTheSliceRule) {
  const std::vector<float> bounds = {0.25f, 0.5f, 0.75f};
  SubscriptionEngine engine(
      UnitSchema(), Opts(5, 0, ShardingPolicy::kRange, bounds));
  EXPECT_EQ(engine.GetRangeBoundaries(), bounds);
  Rng rng(9);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 400; ++i) {
    const Box b = AdversarialBox(rng, bounds);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }
  size_t straddlers = 0;
  for (const auto& [id, box] : subs) {
    const uint32_t want = ExpectedShard(bounds, 5, box);
    EXPECT_EQ(engine.ShardOf(id), want) << box.ToString();
    straddlers += want == 4 ? 1 : 0;
  }
  // The adversarial generator must actually produce boundary straddlers,
  // or this test and the parity suite prove nothing about the overflow
  // shard.
  EXPECT_GT(straddlers, 20u);
  const auto infos = engine.GetShardInfos();
  size_t total = 0;
  for (const auto& info : infos) total += info.subscriptions;
  EXPECT_EQ(total, subs.size());
}

TEST(RoutedEngine, RoutesStrictlyFewerShardVisitsThanBroadcast) {
  // Selective events (small dim-0 extent) against K=8: broadcast pays
  // ne * K shard visits; the router should pay far less — at most
  // (slice span + overflow) per event.
  const uint32_t kShards = 8;
  SubscriptionEngine routed(UnitSchema(),
                            Opts(kShards, 0, ShardingPolicy::kRange));
  SubscriptionEngine broadcast(UnitSchema(), Opts(kShards, 0));
  Rng rng(31);
  std::vector<Box> boxes;
  for (int i = 0; i < 2000; ++i) {
    Box b = testutil::RandomBox(rng, kNd, 0.5f);
    const float lo = 0.9f * rng.NextFloat();
    b.set(0, lo, lo + 0.05f * rng.NextFloat());  // selective in dim 0
    boxes.push_back(b);
  }
  std::vector<SubscriptionId> ids_r, ids_b;
  routed.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids_r);
  broadcast.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()),
                           &ids_b);
  EXPECT_EQ(ids_r, ids_b);

  std::vector<Event> events;
  Rng erng(32);
  for (int i = 0; i < 256; ++i) {
    Box b = testutil::RandomBox(erng, kNd, 0.8f);
    const float lo = 0.9f * erng.NextFloat();
    b.set(0, lo, lo + 0.05f * erng.NextFloat());
    events.push_back(Event::Range(std::move(b)));
  }
  MatchBatchResult res_r, res_b;
  routed.MatchBatch(Span<const Event>(events.data(), events.size()), &res_r);
  broadcast.MatchBatch(Span<const Event>(events.data(), events.size()),
                       &res_b);
  EXPECT_EQ(res_r.matches, res_b.matches);

  const uint64_t broadcast_visits = res_b.TotalShardVisits();
  const uint64_t routed_visits = res_r.TotalShardVisits();
  EXPECT_EQ(broadcast_visits, events.size() * kShards);
  EXPECT_LT(routed_visits, broadcast_visits);
  // Selective dim-0 events span at most 2 slices, plus the overflow shard.
  EXPECT_LE(routed_visits, events.size() * 3);
  for (size_t s = 0; s < res_r.per_shard.size(); ++s) {
    // A shard executes exactly the events routed to it, no more.
    EXPECT_EQ(res_r.per_shard[s].executions,
              res_r.per_shard[s].events_routed);
  }
  // Lifetime routed counters mirror the per-batch metrics.
  uint64_t lifetime = 0;
  for (const auto& info : routed.GetShardInfos()) {
    lifetime += info.routed_events;
  }
  EXPECT_EQ(lifetime, routed_visits);
}

TEST(RoutedEngine, SingleEventMatchUsesRoutingAndAgreesWithBatch) {
  SubscriptionEngine a(UnitSchema(), Opts(6, 0, ShardingPolicy::kRange));
  SubscriptionEngine b(UnitSchema(), Opts(6, 0, ShardingPolicy::kRange));
  Rng rng(77);
  const std::vector<float> snap = a.GetRangeBoundaries();
  for (int i = 0; i < 600; ++i) {
    const Box box = AdversarialBox(rng, snap);
    a.SubscribeBox(box);
    b.SubscribeBox(box);
  }
  std::vector<Event> events = MakeEvents(rng, 16, snap);
  MatchBatchResult res;
  a.MatchBatch(Span<const Event>(events.data(), events.size()), &res);
  uint64_t routed_before = 0;
  for (const auto& info : b.GetShardInfos()) routed_before += info.routed_events;
  EXPECT_EQ(routed_before, 0u);
  for (size_t e = 0; e < events.size(); ++e) {
    std::vector<SubscriptionId> single;
    b.Match(events[e], &single);
    EXPECT_EQ(testutil::Sorted(std::move(single)), res.matches[e]);
  }
  // The single-event path routes too: 16 events over 5 slices + overflow
  // cannot have broadcast (which would be 16 * 6 visits).
  uint64_t routed_after = 0;
  for (const auto& info : b.GetShardInfos()) routed_after += info.routed_events;
  EXPECT_LT(routed_after, events.size() * b.shard_count());
}

TEST(RoutedEngine, SetRangeBoundariesMigratesEverySubscriptionExactly) {
  SubscriptionEngine engine(UnitSchema(),
                            Opts(5, 2, ShardingPolicy::kRange));
  Rng rng(55);
  const std::vector<float> old_bounds = engine.GetRangeBoundaries();
  std::vector<Box> boxes;
  for (int i = 0; i < 800; ++i) boxes.push_back(AdversarialBox(rng, old_bounds));
  std::vector<SubscriptionId> ids;
  engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);

  std::vector<Event> events = MakeEvents(rng, 32, old_bounds);
  MatchBatchResult before;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &before);

  // Reject malformed tables outright.
  EXPECT_FALSE(engine.SetRangeBoundaries({0.5f, 0.5f, 0.6f}));  // not strict
  EXPECT_FALSE(engine.SetRangeBoundaries({0.5f}));              // wrong size

  const std::vector<float> new_bounds = {0.15f, 0.4f, 0.45f};
  const uint64_t version0 = engine.routing_version();
  ASSERT_TRUE(engine.SetRangeBoundaries(new_bounds));
  EXPECT_GT(engine.routing_version(), version0);
  EXPECT_EQ(engine.GetRangeBoundaries(), new_bounds);

  // Every subscription must now live exactly where the new table routes it
  // (including overflow drains and new straddlers).
  size_t moved = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint32_t want = ExpectedShard(new_bounds, 5, boxes[i]);
    ASSERT_EQ(engine.ShardOf(ids[i]), want) << boxes[i].ToString();
    moved += want != ExpectedShard(old_bounds, 5, boxes[i]) ? 1 : 0;
  }
  EXPECT_GT(moved, 50u);  // the new table is genuinely different
  EXPECT_EQ(engine.rebalance_stats().subscriptions_migrated, moved);

  // Match sets are boundary-invariant.
  MatchBatchResult after;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &after);
  EXPECT_EQ(after.matches, before.matches);
  size_t total = 0;
  for (const auto& info : engine.GetShardInfos()) total += info.subscriptions;
  EXPECT_EQ(total, ids.size());
}

TEST(RoutedEngine, RebalanceOnceShedsTheHotShard) {
  // All subscriptions crowd the first slice of a K=4 engine (fences at
  // 1/3, 2/3): shard 0 holds everything until a boundary move sheds half.
  SubscriptionEngine engine(UnitSchema(),
                            Opts(4, 0, ShardingPolicy::kRange));
  Rng rng(71);
  std::vector<Box> boxes;
  for (int i = 0; i < 500; ++i) {
    Box b = testutil::RandomBox(rng, kNd, 0.6f);
    const float lo = 0.25f * rng.NextFloat();
    b.set(0, lo, std::min(lo + 0.05f * rng.NextFloat(), 0.3f));
    boxes.push_back(b);
  }
  std::vector<SubscriptionId> ids;
  engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
  auto infos = engine.GetShardInfos();
  ASSERT_EQ(infos[0].subscriptions, ids.size());  // all in slice 0

  std::vector<Event> events = MakeEvents(rng, 32, engine.GetRangeBoundaries());
  MatchBatchResult before;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &before);

  ASSERT_TRUE(engine.RebalanceOnce());
  EXPECT_EQ(engine.rebalance_stats().boundary_moves, 1u);
  EXPECT_GT(engine.rebalance_stats().subscriptions_migrated, 0u);
  // The shared fence moved into the crowd (below 1/3).
  EXPECT_LT(engine.GetRangeBoundaries()[0], 1.0f / 3.0f);

  infos = engine.GetShardInfos();
  // Roughly half the residents shed to the neighbor; nothing was lost.
  EXPECT_LT(infos[0].subscriptions, ids.size());
  EXPECT_GT(infos[1].subscriptions, 0u);
  size_t total = 0;
  for (const auto& info : infos) total += info.subscriptions;
  EXPECT_EQ(total, ids.size());
  // Consistency with the owner map after migration.
  for (const SubscriptionId id : ids) {
    EXPECT_LT(engine.ShardOf(id), engine.shard_count());
  }

  // Match sets are rebalance-invariant.
  MatchBatchResult after;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &after);
  EXPECT_EQ(after.matches, before.matches);

  // A second forced pass may move the fence again, but repeated passes
  // reach a fixed point instead of oscillating forever.
  for (int i = 0; i < 12 && engine.RebalanceOnce(); ++i) {
  }
  EXPECT_FALSE(engine.RebalanceOnce());
}

TEST(RoutedEngine, AutoRebalanceTriggersUnderSkewAndKeepsParity) {
  EngineOptions opts = Opts(4, 0, ShardingPolicy::kRange);
  opts.rebalance_period = 64;
  SubscriptionEngine routed(UnitSchema(), opts);
  SubscriptionEngine serial(UnitSchema(), Opts(1, 0));

  Rng rng(13);
  std::vector<Box> boxes;
  for (int i = 0; i < 1500; ++i) {
    Box b = testutil::RandomBox(rng, kNd, 0.7f);
    const float lo = 0.2f * rng.NextFloat();  // all mass in slice 0
    b.set(0, lo, std::min(lo + 0.08f * rng.NextFloat(), 0.32f));
    boxes.push_back(b);
  }
  std::vector<SubscriptionId> r_ids, s_ids;
  routed.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &r_ids);
  serial.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &s_ids);
  EXPECT_EQ(r_ids, s_ids);

  Rng erng(14);
  for (int round = 0; round < 8; ++round) {
    std::vector<Event> events;
    for (int e = 0; e < 48; ++e) {
      Box b = testutil::RandomBox(erng, kNd, 0.9f);
      const float lo = 0.25f * erng.NextFloat();  // events hit the hot slice
      b.set(0, lo, std::min(lo + 0.1f * erng.NextFloat(), 0.35f));
      events.push_back(Event::Range(std::move(b)));
    }
    MatchBatchResult got, want;
    routed.MatchBatch(Span<const Event>(events.data(), events.size()), &got);
    serial.MatchBatch(Span<const Event>(events.data(), events.size()), &want);
    ASSERT_EQ(got.matches, want.matches) << "round " << round;
  }
  // The skew is extreme enough that the auto trigger must have fired.
  EXPECT_GE(routed.rebalance_stats().boundary_moves, 1u);
}

TEST(RoutedEngine, BruteForceOracleOnBoundaryGeometry) {
  // Hand-picked geometry around one fence of a K=3 engine (single fence at
  // 0.5): point subs on the fence, subs ending/starting exactly there,
  // straddlers, plus events with the same pathologies, verified against a
  // brute-force oracle for both policies.
  SubscriptionEngine engine(UnitSchema(),
                            Opts(3, 0, ShardingPolicy::kRange));
  ASSERT_EQ(engine.GetRangeBoundaries(), std::vector<float>{0.5f});
  Rng rng(3);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  const auto add = [&](float lo0, float hi0) {
    Box b = testutil::RandomBox(rng, kNd, 0.8f);
    b.set(0, lo0, hi0);
    subs.emplace_back(engine.SubscribeBox(b), b);
  };
  add(0.5f, 0.5f);    // point sub on the fence
  add(0.3f, 0.5f);    // ends exactly on the fence -> straddler (0.5 is right)
  add(0.5f, 0.7f);    // starts exactly on the fence -> right slice
  add(0.2f, 0.8f);    // fat straddler
  add(0.0f, 0.4999f); // left slice
  add(0.5001f, 1.0f); // right slice
  add(0.0f, 1.0f);    // full-domain
  for (int i = 0; i < 100; ++i) {
    Box b = AdversarialBox(rng, {0.5f});
    subs.emplace_back(engine.SubscribeBox(b), b);
  }

  std::vector<Event> events;
  events.push_back(Event::Point(std::vector<float>(kNd, 0.5f)));
  {
    Box b = Box::FullDomain(kNd);
    b.set(0, 0.5f, 0.5f);
    events.push_back(Event::Range(std::move(b)));  // sliver on the fence
  }
  {
    Box b = Box::FullDomain(kNd);
    b.set(0, 0.0f, 0.5f);
    events.push_back(Event::Range(std::move(b)));  // ends on the fence
  }
  {
    Box b = Box::FullDomain(kNd);
    b.set(0, 0.5f, 1.0f);
    events.push_back(Event::Range(std::move(b)));  // starts on the fence
  }
  for (auto& e : MakeEvents(rng, 40, {0.5f})) events.push_back(std::move(e));

  for (const MatchPolicy policy :
       {MatchPolicy::kIntersecting, MatchPolicy::kCovering}) {
    MatchBatchResult res;
    engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res,
                      policy);
    for (size_t e = 0; e < events.size(); ++e) {
      const Relation rel =
          events[e].is_point || policy == MatchPolicy::kCovering
              ? Relation::kEncloses
              : Relation::kIntersects;
      Query q(events[e].box, rel);
      std::vector<ObjectId> expect;
      for (const auto& [id, box] : subs) {
        if (q.Matches(box.view())) expect.push_back(id);
      }
      std::sort(expect.begin(), expect.end());
      EXPECT_EQ(res.matches[e], expect)
          << "event " << e << " policy " << static_cast<int>(policy);
    }
  }
}

TEST(RoutedEngine, OverflowPressureObservability) {
  // K=3, single fence at 0.5: deterministic residency makes the gauges
  // exactly checkable. Straddlers live in the overflow shard (shard 2).
  SubscriptionEngine engine(UnitSchema(),
                            Opts(3, 0, ShardingPolicy::kRange));
  Rng rng(9);
  size_t straddlers = 0;
  for (int i = 0; i < 120; ++i) {
    Box b = testutil::RandomBox(rng, kNd, 0.4f);
    if (i % 3 == 0) {
      b.set(0, 0.4f, 0.6f);  // straddles the fence
      ++straddlers;
    } else if (i % 3 == 1) {
      b.set(0, 0.1f, 0.2f);  // left slice
    } else {
      b.set(0, 0.7f, 0.8f);  // right slice
    }
    engine.SubscribeBox(b);
  }

  // The overflow shard's resident count is the straddler population.
  const auto infos = engine.GetShardInfos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[2].subscriptions, straddlers);
  EXPECT_EQ(infos[0].subscriptions + infos[1].subscriptions,
            120u - straddlers);

  // MatchBatch names the overflow shard's entry, whose resident gauge is
  // the straddler population, alongside the routing snapshot version it
  // ran under.
  std::vector<Event> events = MakeEvents(rng, 8, {0.5f});
  MatchBatchResult res;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res);
  ASSERT_EQ(res.per_shard.size(), 3u);
  ASSERT_EQ(res.overflow_shard, 2u);
  EXPECT_EQ(res.per_shard[2].resident_subscriptions, straddlers);
  EXPECT_EQ(res.per_shard[0].resident_subscriptions +
                res.per_shard[1].resident_subscriptions,
            120u - straddlers);
  EXPECT_EQ(res.routing_version, engine.routing_version());

}

#if GTEST_HAS_DEATH_TEST
TEST(RoutedEngineDeathTest, EventMissingTheFenceDimensionIsRefused) {
  // The fence dimension (4) lies beyond the 2-d event's box: routing would
  // read past it. The pipeline entry Match and MatchBatch share refuses the
  // event before anything reads it.
  SubscriptionEngine engine(UnitSchema(), Opts(4, 0, ShardingPolicy::kRange));
  ASSERT_TRUE(engine.SetRoutingDimension(4));
  engine.SubscribeBox(Box::FullDomain(kNd));
  const Event short_event = Event::Range(Box::FullDomain(2));
  std::vector<SubscriptionId> out;
  EXPECT_DEATH(engine.Match(short_event, &out),
               "box.dims\\(\\) == schema_.dims\\(\\)");
  MatchBatchResult res;
  EXPECT_DEATH(engine.MatchBatch(Span<const Event>(&short_event, 1), &res),
               "box.dims\\(\\) == schema_.dims\\(\\)");
}
#endif

}  // namespace
}  // namespace accl
