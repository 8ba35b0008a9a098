// MatchBatch pipeline parity and plumbing:
//
//   - The streamed MatchSink overload, the materialized MatchBatchResult
//     overload, and a brute-force oracle must agree byte-for-byte for every
//     thread count {0, 1, 2, 4, 8}, both sharding policies (broadcast
//     kHashId and range-routed kRange), and both match policies — how the
//     execute and finalize phases are spread across threads must be
//     invisible in the output.
//   - The overflow gauge is explicitly absent (kNoOverflowShard sentinel)
//     under broadcast policies and populated under kRange; the per-shard
//     resident_subscriptions gauge is populated under every policy.
//   - MatchBatchResult reuse across batches is capacity-preserving: the
//     per-event vectors' storage survives Clear() and is reused in place.
//   - Steady-state batches are allocation-quiet: after warm-up, pooled
//     pipeline scratch and a reused result keep every MatchBatch call at
//     or under kMaxAllocsPerBatch heap allocations for every thread count.
//   - An adversarial run: streamed and materialized batches stay
//     oracle-exact while a rebalancer thread hammers RebalanceOnce and
//     wholesale SetRangeBoundaries swaps (the TSan CI job runs this file).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "obs/alloc_hook.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

// This binary counts every global operator new, so the allocation case can
// read obs::HeapAllocsNow(). (obs_test checks the hook-free default.)
ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();

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

SubscriptionEngine MakeEngine(uint32_t shards, uint32_t threads,
                              ShardingPolicy sharding) {
  EngineOptions o;
  o.index.reorg_period = 25;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = shards;
  o.match_threads = threads;
  o.sharding = sharding;
  return SubscriptionEngine(UnitSchema(), o);
}

/// The engine's event->relation rule, replicated for the oracle.
Relation OracleRelation(const Event& ev, MatchPolicy policy) {
  return ev.is_point || policy == MatchPolicy::kCovering
             ? Relation::kEncloses
             : Relation::kIntersects;
}

std::vector<ObjectId> Oracle(
    const std::vector<std::pair<SubscriptionId, Box>>& subs, const Event& ev,
    MatchPolicy policy) {
  Query q(ev.box, OracleRelation(ev, policy));
  std::vector<ObjectId> out;
  for (const auto& [id, box] : subs) {
    if (q.Matches(box.view())) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A mixed workload: range events plus point events (point events exercise
/// the enclosure degeneration under both match policies).
std::vector<Event> MakeEvents(Rng& rng, size_t n) {
  std::vector<Event> evs;
  evs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (i % 4 == 0) {
      std::vector<float> pt(kNd);
      for (auto& x : pt) x = rng.NextFloat();
      evs.push_back(Event::Point(std::move(pt)));
    } else {
      evs.push_back(Event::Range(testutil::RandomBox(rng, kNd, 0.4f)));
    }
  }
  return evs;
}

TEST(MatchPipeline, StreamedEqualsMaterializedEqualsOracleEverywhere) {
  Rng rng(777);
  std::vector<Box> boxes;
  for (int i = 0; i < 900; ++i) {
    boxes.push_back(testutil::RandomBox(rng, kNd, 0.5f));
  }
  const std::vector<Event> events = MakeEvents(rng, 96);

  const uint32_t thread_counts[] = {0, 1, 2, 4, 8};
  const ShardingPolicy shardings[] = {ShardingPolicy::kHashId,
                                      ShardingPolicy::kRange};
  const MatchPolicy policies[] = {MatchPolicy::kIntersecting,
                                  MatchPolicy::kCovering};
  for (const ShardingPolicy sharding : shardings) {
    for (const uint32_t threads : thread_counts) {
      SubscriptionEngine engine = MakeEngine(4, threads, sharding);
      std::vector<std::pair<SubscriptionId, Box>> subs;
      for (const Box& b : boxes) subs.emplace_back(engine.SubscribeBox(b), b);

      for (const MatchPolicy policy : policies) {
        MatchBatchResult res;
        engine.MatchBatch(Span<const Event>(events.data(), events.size()),
                          &res, policy);
        VectorMatchSink sink(events.size());
        engine.MatchBatch(Span<const Event>(events.data(), events.size()),
                          &sink, policy);
        ASSERT_EQ(res.matches.size(), events.size());
        ASSERT_EQ(sink.matches().size(), events.size());
        for (size_t e = 0; e < events.size(); ++e) {
          const std::vector<ObjectId> want = Oracle(subs, events[e], policy);
          EXPECT_EQ(res.matches[e], want)
              << "materialized, threads=" << threads << " event=" << e;
          EXPECT_EQ(sink.matches()[e], want)
              << "streamed, threads=" << threads << " event=" << e;
        }
      }
    }
  }
}

TEST(MatchPipeline, OverflowGaugeAbsentForBroadcastPopulatedForRange) {
  Rng rng(778);
  std::vector<Box> boxes;
  for (int i = 0; i < 400; ++i) {
    boxes.push_back(testutil::RandomBox(rng, kNd, 0.5f));
  }
  const std::vector<Event> events = MakeEvents(rng, 32);

  for (const ShardingPolicy sharding :
       {ShardingPolicy::kHashId, ShardingPolicy::kRange}) {
    SubscriptionEngine engine = MakeEngine(4, 2, sharding);
    for (const Box& b : boxes) engine.SubscribeBox(b);
    MatchBatchResult res;
    engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res);

    // resident_subscriptions is populated under EVERY policy: the gauges
    // sum to the subscription count (each subscription owned by one shard
    // in a quiesced engine).
    uint64_t residents = 0;
    for (const ShardMetrics& sm : res.per_shard) {
      residents += sm.resident_subscriptions;
    }
    EXPECT_EQ(residents, boxes.size());

    if (sharding == ShardingPolicy::kRange) {
      // The overflow shard's entry is the last one.
      EXPECT_EQ(res.overflow_shard, res.per_shard.size() - 1);
    } else {
      // Explicitly absent, not silently zero: the sentinel says no entry
      // is an overflow shard.
      EXPECT_EQ(res.overflow_shard, MatchBatchResult::kNoOverflowShard);
    }
  }
}

TEST(MatchPipeline, ResultReuseIsCapacityPreserving) {
  Rng rng(779);
  std::vector<Box> boxes;
  for (int i = 0; i < 600; ++i) {
    boxes.push_back(testutil::RandomBox(rng, kNd, 0.5f));
  }
  const std::vector<Event> events = MakeEvents(rng, 48);
  SubscriptionEngine engine = MakeEngine(4, 2, ShardingPolicy::kHashId);
  for (const Box& b : boxes) engine.SubscribeBox(b);

  MatchBatchResult res;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res);
  const std::vector<std::vector<ObjectId>> first = res.matches;
  // Capture per-event storage pointers; the same batch re-matched into the
  // same result must reuse them in place (Clear() preserves capacity and
  // assign of an equal-size range cannot reallocate).
  std::vector<const ObjectId*> storage;
  for (const auto& m : res.matches) storage.push_back(m.data());

  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res);
  ASSERT_EQ(res.matches.size(), first.size());
  for (size_t e = 0; e < first.size(); ++e) {
    EXPECT_EQ(res.matches[e], first[e]) << e;
    if (!first[e].empty()) {
      EXPECT_EQ(res.matches[e].data(), storage[e])
          << "event " << e << " reallocated its match storage";
    }
  }
}

TEST(MatchPipeline, SteadyStateBatchesStayUnderTheAllocationBound) {
  // Once warm, a batch allocates only a constant pool-submission overhead.
  // The pre-pipeline shape re-allocated queues, scratch and merge state on
  // every call: thousands per batch.
  constexpr uint64_t kMaxAllocsPerBatch = 512;
  constexpr size_t kBatch = 256;
  ASSERT_TRUE(obs::HeapAllocHookInstalled());
  Rng rng(780);
  std::vector<Box> boxes;
  for (int i = 0; i < 4000; ++i) {
    boxes.push_back(testutil::RandomBox(rng, kNd, 0.5f));
  }
  const std::vector<Event> events = MakeEvents(rng, 4 * kBatch);

  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    SubscriptionEngine engine = MakeEngine(8, threads, ShardingPolicy::kHashId);
    std::vector<SubscriptionId> ids;
    engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
    MatchBatchResult res;
    for (int pass = 0; pass < 3; ++pass) {  // pass 0 warms up
      for (size_t off = 0; off < events.size(); off += kBatch) {
        const uint64_t before = obs::HeapAllocsNow();
        engine.MatchBatch(Span<const Event>(events.data() + off, kBatch),
                          &res);
        const uint64_t allocs = obs::HeapAllocsNow() - before;
        if (pass > 0) {
          EXPECT_LE(allocs, kMaxAllocsPerBatch)
              << "threads=" << threads << " pass=" << pass
              << " batch at event " << off;
        }
      }
    }
  }
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

TEST(MatchPipeline, StreamedStaysOracleExactDuringContinuousRebalance) {
  SubscriptionEngine engine = MakeEngine(5, 4, ShardingPolicy::kRange);
  Rng rng(4343);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 500; ++i) {
    const Box b = testutil::RandomBox(rng, kNd, 0.5f);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }
  const std::vector<Event> events = MakeEvents(rng, 24);
  std::vector<std::vector<ObjectId>> expected;
  for (const Event& ev : events) {
    expected.push_back(Oracle(subs, ev, MatchPolicy::kIntersecting));
  }

  std::atomic<bool> stop{false};
  std::thread rebalancer([&] {
    Rng rr(99);
    while (!stop.load(std::memory_order_relaxed)) {
      if (rr.NextBool(0.3)) {
        engine.SetRangeBoundaries(RandomBounds(rr, engine.shard_count() - 2));
      } else {
        engine.RebalanceOnce();
      }
    }
  });

  MatchBatchResult res;
  VectorMatchSink sink;
  for (int pass = 0; pass < 40; ++pass) {
    engine.MatchBatch(Span<const Event>(events.data(), events.size()), &res);
    sink.Reset(events.size());
    engine.MatchBatch(Span<const Event>(events.data(), events.size()), &sink);
    for (size_t e = 0; e < events.size(); ++e) {
      ASSERT_EQ(res.matches[e], expected[e])
          << "materialized diverged mid-migration, pass " << pass;
      ASSERT_EQ(sink.matches()[e], expected[e])
          << "streamed diverged mid-migration, pass " << pass;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  rebalancer.join();
  engine.SynchronizeEpochs();
}

}  // namespace
}  // namespace accl
