// Migration parity: a scripted routing-change sequence on a range-routed
// engine with adaptive routing must produce exactly the pinned digest.
// Every routing change re-inserts its moved subscriptions through
// BulkInsert, so a placement that differs from sequential Insert in any
// object shows up here: in the destination shard's cluster structure, and
// through it in the per-shard verified counts and cluster counts, even when
// the match answers stay right. The digest was first recorded before
// BulkInsert became a batched placement pass; it was re-recorded when
// RebalanceOnce became a PlanFences re-plan, which places different fences
// (replaying the earlier fence sequence as explicit SetRangeBoundaries
// calls still gives the earlier digest, 0xae054231bf713611). It was
// re-recorded again when the overflow split was removed: the script lost
// its two split steps, and this script run against the engine that still
// had the split gives the same digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sdi/subscription_engine.h"
#include "util/digest.h"
#include "util/rng.h"

namespace accl {
namespace {

constexpr Dim kNd = 6;

AttributeSchema UnitSchema() {
  AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

// Narrow on one or two dimensions, moderate elsewhere: shards then grow
// real cluster hierarchies and each fence dimension routes differently.
Box Subscription(Rng& rng) {
  Box b(kNd);
  const Dim narrow = static_cast<Dim>(rng.NextBelow(kNd));
  for (Dim d = 0; d < kNd; ++d) {
    const float w = d == narrow ? 0.03f : 0.1f + 0.8f * rng.NextFloat();
    const float lo = (1.0f - w) * rng.NextFloat();
    b.set(d, lo, lo + w);
  }
  return b;
}

Event RangeEvent(Rng& rng) {
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) {
    const float w = 0.05f + 0.2f * rng.NextFloat();
    const float lo = (1.0f - w) * rng.NextFloat();
    b.set(d, lo, lo + w);
  }
  return Event::Range(std::move(b));
}

class MigrationDigest {
 public:
  void Add(uint64_t x) { h_ = Fnv1a(h_, x); }
  uint64_t value() const { return h_; }

  void AddShards(const SubscriptionEngine& engine) {
    for (const auto& info : engine.GetShardInfos()) {
      Add(info.subscriptions);
      Add(info.clusters);
      Add(info.routed_events);
    }
  }

  void AddBatch(const MatchBatchResult& res) {
    for (const auto& m : res.matches) {
      Add(m.size());
      for (const ObjectId id : m) Add(id);
    }
    for (const ShardMetrics& sm : res.per_shard) {
      Add(sm.totals.objects_verified);
      Add(sm.events_routed);
    }
  }

 private:
  uint64_t h_ = kFnvOffsetBasis;
};

TEST(MigrationParity, ScriptedRoutingChangesUnderChurn) {
  EngineOptions o;
  o.shards = 6;
  o.sharding = ShardingPolicy::kRange;
  o.match_threads = 0;  // one thread: shard executions in a fixed order
  o.default_policy = MatchPolicy::kIntersecting;
  o.adaptive.enabled = true;
  o.adaptive.sample_window = 512;
  o.index.reorg_period = 25;
  o.index.min_observation = 4.0;
  o.index.stats_halving_period = 0;
  SubscriptionEngine engine(UnitSchema(), o);
  const size_t interior = engine.GetRangeBoundaries().size();
  ASSERT_GE(interior, 2u);

  Rng rng(2024);
  MigrationDigest h;
  std::vector<SubscriptionId> live;
  auto subscribe = [&](size_t n) {
    std::vector<Box> boxes;
    for (size_t i = 0; i < n; ++i) boxes.push_back(Subscription(rng));
    std::vector<SubscriptionId> ids;
    engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
    live.insert(live.end(), ids.begin(), ids.end());
  };
  auto churn = [&](size_t n) {
    for (size_t i = 0; i < n && !live.empty(); ++i) {
      const size_t k = static_cast<size_t>(rng.NextBelow(live.size()));
      h.Add(engine.Unsubscribe(live[k]) ? 1 : 0);
      live[k] = live.back();
      live.pop_back();
    }
    subscribe(n);
  };
  auto match = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      std::vector<Event> evs;
      for (int e = 0; e < 48; ++e) evs.push_back(RangeEvent(rng));
      MatchBatchResult res;
      engine.MatchBatch(Span<const Event>(evs.data(), evs.size()), &res);
      h.AddBatch(res);
    }
  };
  auto bounds = [&](float lo, float hi) {
    std::vector<float> b(interior);
    for (size_t i = 0; i < interior; ++i) {
      b[i] = lo + (hi - lo) * static_cast<float>(i + 1) /
                      static_cast<float>(interior + 1);
    }
    return b;
  };

  subscribe(4000);
  match(6);  // shards reorganize into multi-cluster indexes
  h.AddShards(engine);

  h.Add(engine.SetRoutingDimension(2) ? 1 : 0);
  h.AddShards(engine);
  churn(300);
  match(4);

  h.Add(engine.SetRangeBoundaries(bounds(0.1f, 0.7f)) ? 1 : 0);
  h.AddShards(engine);
  match(4);

  churn(300);
  match(4);

  for (int i = 0; i < 3; ++i) {
    h.Add(engine.RebalanceOnce() ? 1 : 0);
    h.AddShards(engine);
    churn(100);
    match(2);
  }

  h.Add(engine.SetRoutingDimension(0) ? 1 : 0);
  h.AddShards(engine);
  match(4);
  h.Add(engine.SetRangeBoundaries(bounds(0.2f, 0.9f)) ? 1 : 0);
  h.AddShards(engine);
  churn(200);
  match(6);
  h.AddShards(engine);

  const auto rs = engine.rebalance_stats();
  const AdaptiveRoutingStats as = engine.adaptive_stats();
  EXPECT_GE(as.dimension_switches, 2u);
  EXPECT_GT(rs.subscriptions_migrated, 4000u);
  h.Add(rs.subscriptions_migrated);
  h.Add(rs.boundary_moves);
  h.Add(engine.routing_dimension());
  EXPECT_EQ(h.value(), 0xde4508e562b8441full) << std::hex << h.value();
}

}  // namespace
}  // namespace accl
