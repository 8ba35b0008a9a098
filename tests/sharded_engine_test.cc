// Sharded matching parity: MatchBatch over K shards / N threads must return
// byte-identical (ObjectId-sorted) match sets to the serial single-index
// engine, for every partitioning policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

constexpr Dim kNd = 5;

AttributeSchema UnitSchema(Dim nd = kNd) {
  AttributeSchema s;
  for (Dim d = 0; d < nd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

EngineOptions Opts(uint32_t shards, uint32_t threads,
                   ShardingPolicy policy = ShardingPolicy::kHashId) {
  EngineOptions o;
  o.index.reorg_period = 40;
  o.index.min_observation = 8;
  o.shards = shards;
  o.match_threads = threads;
  o.sharding = policy;
  return o;
}

std::vector<Event> MakeEvents(Rng& rng, size_t n) {
  std::vector<Event> evs;
  evs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextBool(0.5)) {
      std::vector<float> pt(kNd);
      for (auto& x : pt) x = rng.NextFloat();
      evs.push_back(Event::Point(std::move(pt)));
    } else {
      evs.push_back(Event::Range(testutil::RandomBox(rng, kNd, 0.4f)));
    }
  }
  return evs;
}

/// Drives the same seeded subscribe/unsubscribe/match-batch sequence
/// through `engine` and returns every batch's matches, flattened.
std::vector<std::vector<ObjectId>> DriveWorkload(SubscriptionEngine& engine,
                                                 MatchPolicy policy,
                                                 uint64_t seed) {
  Rng rng(seed);
  std::vector<SubscriptionId> live;
  std::vector<std::vector<ObjectId>> all_matches;
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 250; ++i) {
      const SubscriptionId id =
          engine.SubscribeBox(testutil::RandomBox(rng, kNd, 0.6f));
      EXPECT_NE(id, kInvalidObject);
      live.push_back(id);
    }
    for (int i = 0; i < 40 && live.size() > 1; ++i) {
      const size_t victim = rng.NextBelow(live.size());
      EXPECT_TRUE(engine.Unsubscribe(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
    std::vector<Event> events = MakeEvents(rng, 32);
    MatchBatchResult res;
    engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res,
                      policy);
    for (auto& m : res.matches) all_matches.push_back(std::move(m));
  }
  return all_matches;
}

TEST(ShardedEngine, MatchBatchParityAcrossShardAndThreadConfigs) {
  for (const MatchPolicy policy :
       {MatchPolicy::kIntersecting, MatchPolicy::kCovering}) {
    SubscriptionEngine serial(UnitSchema(), Opts(1, 0));
    const auto expected = DriveWorkload(serial, policy, 99);
    const struct {
      uint32_t shards, threads;
      ShardingPolicy pol;
    } configs[] = {
        {4, 0, ShardingPolicy::kHashId},
        {4, 4, ShardingPolicy::kHashId},
        {3, 2, ShardingPolicy::kRange},
        {8, 8, ShardingPolicy::kHashId},
    };
    for (const auto& cfg : configs) {
      SubscriptionEngine sharded(UnitSchema(),
                                 Opts(cfg.shards, cfg.threads, cfg.pol));
      const auto got = DriveWorkload(sharded, policy, 99);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], expected[i])
            << "batch event " << i << " shards=" << cfg.shards
            << " threads=" << cfg.threads;
      }
    }
  }
}

TEST(ShardedEngine, MatchBatchIsDeterministicAcrossRuns) {
  SubscriptionEngine a(UnitSchema(), Opts(4, 4));
  SubscriptionEngine b(UnitSchema(), Opts(4, 4));
  const auto ra = DriveWorkload(a, MatchPolicy::kIntersecting, 7);
  const auto rb = DriveWorkload(b, MatchPolicy::kIntersecting, 7);
  EXPECT_EQ(ra, rb);
}

TEST(ShardedEngine, PerShardMetricsAggregateToTotal) {
  SubscriptionEngine engine(UnitSchema(), Opts(4, 4));
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    engine.SubscribeBox(testutil::RandomBox(rng, kNd, 0.5f));
  }
  std::vector<Event> events = MakeEvents(rng, 64);
  MatchBatchResult res;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res);
  ASSERT_EQ(res.per_shard.size(), 4u);
  uint64_t verified = 0, results = 0;
  for (const ShardMetrics& sm : res.per_shard) {
    EXPECT_EQ(sm.executions, events.size());  // every shard sees every event
    verified += sm.totals.objects_verified;
    results += sm.totals.result_count;
  }
  EXPECT_EQ(res.total.objects_verified, verified);
  EXPECT_EQ(res.total.result_count, results);
  uint64_t merged = 0;
  for (const auto& m : res.matches) merged += m.size();
  EXPECT_EQ(merged, results);
  // Every shard indexes its slice: subscription counts add up.
  const auto infos = engine.GetShardInfos();
  size_t subs = 0;
  for (const auto& info : infos) subs += info.subscriptions;
  EXPECT_EQ(subs, engine.subscription_count());
  EXPECT_EQ(subs, 1000u);
  EXPECT_EQ(engine.ShardOf(12345u), engine.shard_count());  // unknown id
}

TEST(ShardedEngine, SingleEventMatchAgreesWithBatch) {
  SubscriptionEngine engine(UnitSchema(), Opts(4, 0));
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    engine.SubscribeBox(testutil::RandomBox(rng, kNd, 0.5f));
  }
  std::vector<Event> events = MakeEvents(rng, 8);
  // Two identical engines: Match and MatchBatch mutate adaptation state, so
  // parity needs fresh state for each path.
  SubscriptionEngine engine2(UnitSchema(), Opts(4, 0));
  Rng rng2(17);
  for (int i = 0; i < 500; ++i) {
    engine2.SubscribeBox(testutil::RandomBox(rng2, kNd, 0.5f));
  }
  MatchBatchResult res;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res);
  for (size_t e = 0; e < events.size(); ++e) {
    std::vector<SubscriptionId> single;
    engine2.Match(events[e], &single);
    EXPECT_EQ(testutil::Sorted(std::move(single)), res.matches[e]);
  }
  EXPECT_EQ(
      engine.metrics().GetCounter("accl_pipeline_events_total")->Value(),
      events.size());
}

TEST(ShardedEngine, MatchIsAOneEventBatch) {
  // Match runs the batch pipeline for one event: its output is byte-for-
  // byte the one-event MatchBatch answer (ObjectId-sorted under a broadcast
  // policy too — no sort here), appended after whatever `out` held, and
  // counted by the same pipeline metrics. Two identically driven engines,
  // because matching adapts each shard's clustering and with it the
  // verified counts.
  const auto build = [] {
    auto engine =
        std::make_unique<SubscriptionEngine>(UnitSchema(), Opts(4, 4));
    Rng rng(23);
    for (int i = 0; i < 800; ++i) {
      engine->SubscribeBox(testutil::RandomBox(rng, kNd, 0.6f));
    }
    return engine;
  };
  auto single = build();
  auto batch = build();
  const obs::Counter* events =
      single->metrics().GetCounter("accl_pipeline_events_total");
  const obs::Counter* verified =
      single->metrics().GetCounter("accl_pipeline_objects_verified_total");
  Rng rng(29);
  const std::vector<Event> evs = MakeEvents(rng, 64);
  const std::vector<SubscriptionId> prefix = {987654u, 3u};
  size_t multi = 0;
  for (const Event& ev : evs) {
    MatchBatchResult res;
    batch->MatchBatch(Span<const Event>(&ev, 1), &res,
                      MatchPolicy::kIntersecting);
    std::vector<SubscriptionId> out = prefix;
    const uint64_t events0 = events->Value();
    const uint64_t verified0 = verified->Value();
    single->Match(ev, &out, MatchPolicy::kIntersecting);
    ASSERT_GE(out.size(), prefix.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), out.begin()));
    EXPECT_EQ(std::vector<SubscriptionId>(out.begin() + prefix.size(),
                                          out.end()),
              res.matches[0]);
    EXPECT_EQ(events->Value(), events0 + 1);
    EXPECT_EQ(verified->Value(), verified0 + res.total.objects_verified);
    if (res.matches[0].size() > 1) ++multi;
  }
  EXPECT_GT(multi, evs.size() / 2);  // order is actually exercised
}

TEST(ShardedEngine, SubscribeBatchEquivalentToLoopSubscribeForAllPolicies) {
  // Two engines per policy, same config: one subscribes with a loop, one
  // with SubscribeBatch. Ids, shard placement, per-shard populations,
  // match sets, and routing metrics must all be indistinguishable.
  const struct {
    ShardingPolicy policy;
    uint32_t shards;
  } cases[] = {
      {ShardingPolicy::kHashId, 4},
      {ShardingPolicy::kRange, 3},  // the smallest rebalanceable shape
      {ShardingPolicy::kRange, 4},
      {ShardingPolicy::kRange, 2},  // degenerate: one slice + overflow
  };
  for (const auto& c : cases) {
    SubscriptionEngine loop_engine(UnitSchema(), Opts(c.shards, 2, c.policy));
    SubscriptionEngine batch_engine(UnitSchema(),
                                    Opts(c.shards, 2, c.policy));
    Rng rng(101);
    std::vector<Box> boxes;
    for (int i = 0; i < 700; ++i) {
      boxes.push_back(testutil::RandomBox(rng, kNd, 0.6f));
    }
    std::vector<SubscriptionId> loop_ids, batch_ids;
    for (const Box& b : boxes) loop_ids.push_back(loop_engine.SubscribeBox(b));
    batch_engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()),
                                &batch_ids);
    ASSERT_EQ(batch_ids, loop_ids)
        << "policy " << static_cast<int>(c.policy);
    for (const SubscriptionId id : loop_ids) {
      EXPECT_EQ(batch_engine.ShardOf(id), loop_engine.ShardOf(id))
          << "id " << id << " policy " << static_cast<int>(c.policy);
    }
    const auto loop_infos = loop_engine.GetShardInfos();
    const auto batch_infos = batch_engine.GetShardInfos();
    ASSERT_EQ(loop_infos.size(), batch_infos.size());
    for (size_t s = 0; s < loop_infos.size(); ++s) {
      EXPECT_EQ(batch_infos[s].subscriptions, loop_infos[s].subscriptions);
    }
    EXPECT_EQ(batch_engine.subscription_count(),
              loop_engine.subscription_count());

    // Both engines see identical events; match sets and per-shard metrics
    // (executions, events routed, verification totals) must agree.
    std::vector<Event> events = MakeEvents(rng, 48);
    MatchBatchResult loop_res, batch_res;
    loop_engine.MatchBatch(Span<const Event>(events.data(), events.size()),
                           &loop_res, MatchPolicy::kIntersecting);
    batch_engine.MatchBatch(Span<const Event>(events.data(), events.size()),
                            &batch_res, MatchPolicy::kIntersecting);
    EXPECT_EQ(batch_res.matches, loop_res.matches);
    ASSERT_EQ(batch_res.per_shard.size(), loop_res.per_shard.size());
    for (size_t s = 0; s < loop_res.per_shard.size(); ++s) {
      EXPECT_EQ(batch_res.per_shard[s].executions,
                loop_res.per_shard[s].executions);
      EXPECT_EQ(batch_res.per_shard[s].events_routed,
                loop_res.per_shard[s].events_routed);
      EXPECT_EQ(batch_res.per_shard[s].totals.objects_verified,
                loop_res.per_shard[s].totals.objects_verified);
      EXPECT_EQ(batch_res.per_shard[s].totals.result_count,
                loop_res.per_shard[s].totals.result_count);
    }
    EXPECT_EQ(batch_res.TotalShardVisits(), loop_res.TotalShardVisits());
  }
}

TEST(ShardedEngine, SubscribeBatchInterleavesWithLoopSubscribeAndUnsubscribe) {
  // Mixed lifecycle: batches, singles, and unsubscribes interleaved must
  // replay identically on serial and sharded engines (ids included).
  const auto drive = [](SubscriptionEngine& engine) {
    Rng rng(202);
    std::vector<SubscriptionId> live;
    std::vector<std::vector<ObjectId>> matches;
    for (int round = 0; round < 8; ++round) {
      std::vector<Box> boxes;
      for (int i = 0; i < 60; ++i) {
        boxes.push_back(testutil::RandomBox(rng, kNd, 0.6f));
      }
      std::vector<SubscriptionId> ids;
      engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()),
                            &ids);
      live.insert(live.end(), ids.begin(), ids.end());
      for (int i = 0; i < 20; ++i) {
        live.push_back(engine.SubscribeBox(testutil::RandomBox(rng, kNd)));
      }
      for (int i = 0; i < 25 && live.size() > 1; ++i) {
        const size_t victim = rng.NextBelow(live.size());
        EXPECT_TRUE(engine.Unsubscribe(live[victim]));
        live[victim] = live.back();
        live.pop_back();
      }
      std::vector<Event> events = MakeEvents(rng, 16);
      MatchBatchResult res;
      engine.MatchBatch(Span<const Event>(events.data(), events.size()),
                        &res, MatchPolicy::kCovering);
      for (auto& m : res.matches) matches.push_back(std::move(m));
    }
    return matches;
  };
  SubscriptionEngine serial(UnitSchema(), Opts(1, 0));
  const auto expected = drive(serial);
  for (const ShardingPolicy policy :
       {ShardingPolicy::kHashId, ShardingPolicy::kRange}) {
    SubscriptionEngine sharded(UnitSchema(), Opts(5, 3, policy));
    EXPECT_EQ(drive(sharded), expected)
        << "policy " << static_cast<int>(policy);
  }
}

TEST(ShardedEngine, EmptySubscribeBatchIsANoOp) {
  SubscriptionEngine engine(UnitSchema(), Opts(4, 0));
  std::vector<SubscriptionId> ids{123};  // must be cleared, not appended to
  engine.SubscribeBatch(Span<const Box>(), &ids);
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(engine.subscription_count(), 0u);
  const SubscriptionId next = engine.SubscribeBox(Box::FullDomain(kNd));
  EXPECT_EQ(next, 0u);  // no ids were burned
}

}  // namespace
}  // namespace accl
