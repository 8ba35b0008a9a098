#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

AttributeSchema AdsSchema() {
  AttributeSchema s;
  s.AddAttribute("price", 0, 3000);
  s.AddAttribute("rooms", 0, 10);
  s.AddAttribute("baths", 0, 5);
  s.AddAttribute("distance", 0, 100);
  return s;
}

uint64_t CounterValue(const SubscriptionEngine& engine, const char* name) {
  return engine.metrics().GetCounter(name)->Value();
}

SubscriptionEngine MakeEngine() {
  EngineOptions opts;
  opts.index.reorg_period = 50;
  opts.index.min_observation = 16;
  return SubscriptionEngine(AdsSchema(), opts);
}

TEST(SdiEngine, PaperIntroductionScenario) {
  // "Notify me of all new apartments within 30 miles from Newark, with a
  // rent price between 400$ and 700$, having between 3 and 5 rooms, and 2
  // baths."
  SubscriptionEngine engine = MakeEngine();
  const SubscriptionId sub = engine.Subscribe({{"price", 400, 700},
                                               {"rooms", 3, 5},
                                               {"baths", 2, 2},
                                               {"distance", 0, 30}});
  ASSERT_NE(sub, kInvalidObject);

  // A matching offer (a point event).
  Event offer;
  ASSERT_TRUE(engine.MakePointEvent({{"price", 650},
                                     {"rooms", 4},
                                     {"baths", 2},
                                     {"distance", 12}},
                                    &offer));
  std::vector<SubscriptionId> notified;
  engine.Match(offer, &notified);
  ASSERT_EQ(notified.size(), 1u);
  EXPECT_EQ(notified[0], sub);

  // Too expensive: no notification.
  Event expensive;
  ASSERT_TRUE(engine.MakePointEvent({{"price", 800},
                                     {"rooms", 4},
                                     {"baths", 2},
                                     {"distance", 12}},
                                    &expensive));
  notified.clear();
  engine.Match(expensive, &notified);
  EXPECT_TRUE(notified.empty());
}

TEST(SdiEngine, RangeEventPolicies) {
  // Paper: "Apartments for rent in Newark: 3 to 5 rooms, 1 or 2 baths,
  // 600$-900$" — a range event.
  SubscriptionEngine engine = MakeEngine();
  const SubscriptionId overlapping = engine.Subscribe(
      {{"price", 400, 700}, {"rooms", 3, 5}});  // overlaps 600-900
  const SubscriptionId covering = engine.Subscribe(
      {{"price", 500, 1000}, {"rooms", 2, 6}});  // covers the whole event
  ASSERT_NE(overlapping, kInvalidObject);
  ASSERT_NE(covering, kInvalidObject);

  Event ad;
  ASSERT_TRUE(engine.MakeRangeEvent(
      {{"price", 600, 900}, {"rooms", 3, 5}, {"baths", 1, 2}}, &ad));

  std::vector<SubscriptionId> loose, strict;
  engine.Match(ad, &loose, MatchPolicy::kIntersecting);
  engine.Match(ad, &strict, MatchPolicy::kCovering);
  std::sort(loose.begin(), loose.end());
  EXPECT_EQ(loose, (std::vector<SubscriptionId>{overlapping, covering}));
  EXPECT_EQ(strict, std::vector<SubscriptionId>{covering});
}

TEST(SdiEngine, UnsubscribeStopsNotifications) {
  SubscriptionEngine engine = MakeEngine();
  const SubscriptionId sub = engine.Subscribe({{"rooms", 2, 8}});
  Event ev;
  ASSERT_TRUE(engine.MakePointEvent(
      {{"price", 100}, {"rooms", 5}, {"baths", 1}, {"distance", 3}}, &ev));
  std::vector<SubscriptionId> out;
  engine.Match(ev, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_TRUE(engine.Unsubscribe(sub));
  EXPECT_FALSE(engine.Unsubscribe(sub));
  out.clear();
  engine.Match(ev, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(engine.subscription_count(), 0u);
}

TEST(SdiEngine, MalformedSubscriptionRejected) {
  SubscriptionEngine engine = MakeEngine();
  EXPECT_EQ(engine.Subscribe({{"pool", 0, 1}}), kInvalidObject);
  EXPECT_EQ(engine.Subscribe({{"price", 700, 400}}), kInvalidObject);
  EXPECT_EQ(engine.subscription_count(), 0u);
}

// A normalized box the engine must refuse: dimension `d` of a valid box
// spoiled one of three ways (NaN, infinite bound, inverted interval). The
// coordinates are written raw: Box::set would refuse them in Debug builds.
Box SpoiledBox(Dim nd, Dim d, int how) {
  std::vector<float> coords(2 * static_cast<size_t>(nd));
  for (Dim i = 0; i < nd; ++i) {
    coords[2 * i] = 0.25f;
    coords[2 * i + 1] = 0.5f;
  }
  switch (how) {
    case 0:
      coords[2 * d] = std::numeric_limits<float>::quiet_NaN();
      break;
    case 1:
      coords[2 * d + 1] = std::numeric_limits<float>::infinity();
      break;
    default:
      coords[2 * d] = 0.75f;
      break;
  }
  return Box(BoxView(coords.data(), nd));
}

TEST(SdiEngine, MalformedBoxesRefusedBeforeIdAllocation) {
  // Under every policy the advisor and the router would otherwise consume
  // the box: hash sharding, range routing, and range routing with the
  // adaptive tracker sampling subscriptions.
  for (int config = 0; config < 3; ++config) {
    EngineOptions opts;
    opts.shards = 4;
    opts.sharding = config == 0 ? ShardingPolicy::kHashId
                                : ShardingPolicy::kRange;
    opts.adaptive.enabled = config == 2;
    SubscriptionEngine engine(AdsSchema(), opts);
    const Dim nd = engine.schema().dims();
    Box good(nd);
    for (Dim i = 0; i < nd; ++i) good.set(i, 0.1f, 0.9f);
    ASSERT_EQ(engine.SubscribeBox(good), 0u) << "config " << config;
    for (Dim d = 0; d < nd; ++d) {
      for (int how = 0; how < 3; ++how) {
        EXPECT_EQ(engine.SubscribeBox(SpoiledBox(nd, d, how)), kInvalidObject)
            << "config " << config << " dim " << d << " how " << how;
        // A batch holding one spoiled box is refused whole.
        std::vector<Box> batch = {good, SpoiledBox(nd, d, how), good};
        std::vector<SubscriptionId> ids = {77};
        engine.SubscribeBatch(Span<const Box>(batch.data(), batch.size()),
                              &ids);
        EXPECT_TRUE(ids.empty());
      }
    }
    // Nothing was applied, and no id was spent on a refused box: the next
    // subscription gets the id right after the first one.
    EXPECT_EQ(engine.subscription_count(), 1u);
    EXPECT_EQ(engine.SubscribeBox(good), 1u) << "config " << config;
    std::vector<Event> probe = {Event::Range(good)};
    MatchBatchResult res;
    engine.MatchBatch(Span<const Event>(probe.data(), probe.size()), &res);
    EXPECT_EQ(res.matches[0], (std::vector<ObjectId>{0, 1}));
  }
}

TEST(SdiEngine, MalformedBoxesNeverReachTheLog) {
  const std::string wal_path = testing::TempDir() + "/sdi_malformed.wal";
  const std::string ckpt_path = testing::TempDir() + "/sdi_malformed.ck";
  durability::RemoveWalFiles(wal_path);
  std::remove(ckpt_path.c_str());
  EngineOptions opts;
  opts.shards = 3;
  opts.sharding = ShardingPolicy::kRange;
  DurabilityOptions dopts;
  dopts.checkpoint_every_mutations = 0;
  dopts.background_checkpoints = false;
  durability::DurableEngine de;
  Status st;
  ASSERT_TRUE(durability::OpenDurable(AdsSchema(), opts, dopts, wal_path,
                                      ckpt_path, nullptr, &de, &st))
      << st.message();
  const Dim nd = de.engine->schema().dims();
  const auto appended = [&] {
    return testutil::MetricOf(de.engine->metrics(),
                              "accl_wal_records_appended_total")
        .counter;
  };
  const uint64_t before = appended();
  EXPECT_EQ(de.engine->SubscribeBox(SpoiledBox(nd, 1, 0)), kInvalidObject);
  std::vector<Box> batch = {SpoiledBox(nd, 0, 2)};
  std::vector<SubscriptionId> ids;
  de.engine->SubscribeBatch(Span<const Box>(batch.data(), batch.size()),
                            &ids);
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(appended(), before);
  de = durability::DurableEngine();
  durability::RemoveWalFiles(wal_path);
  std::remove(ckpt_path.c_str());
}

// Five ways to spoil dimension `d` of an event box: a NaN lower or upper
// bound, an infinite lower or upper bound, or lo > hi. Written through
// mutable_data(): Box::set would refuse them in Debug builds.
constexpr int kEventDefects = 5;
void SpoilDim(Box* b, Dim d, int how) {
  float* c = b->mutable_data();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  switch (how) {
    case 0: c[2 * d] = nan; break;
    case 1: c[2 * d + 1] = nan; break;
    case 2: c[2 * d] = -inf; break;
    case 3: c[2 * d + 1] = inf; break;
    default:
      c[2 * d] = 0.6f;
      c[2 * d + 1] = 0.4f;
      break;
  }
}

std::vector<SubscriptionId> Oracle(
    const std::vector<std::pair<SubscriptionId, Box>>& subs, const Event& ev,
    MatchPolicy policy) {
  const Relation rel = ev.is_point || policy == MatchPolicy::kCovering
                           ? Relation::kEncloses
                           : Relation::kIntersects;
  const Query q(ev.box, rel);
  std::vector<SubscriptionId> out;
  for (const auto& [id, box] : subs) {
    if (q.Matches(box.view())) out.push_back(id);
  }
  return out;  // subs are in ascending id order
}

TEST(SdiEngine, MalformedEventsMatchNothing) {
  // A hash engine, and a kRange engine whose advisor and fence re-plans
  // sample every batch's events (auto moves), each pooled and not.
  for (int config = 0; config < 4; ++config) {
    EngineOptions opts;
    opts.shards = 4;
    opts.match_threads = config % 2 == 0 ? 1 : 3;
    if (config >= 2) {
      opts.sharding = ShardingPolicy::kRange;
      opts.rebalance_period = 64;
      opts.adaptive.enabled = true;
      opts.adaptive.sample_window = 64;
    }
    SubscriptionEngine engine(AdsSchema(), opts);
    const Dim nd = engine.schema().dims();
    Rng rng(41 + config);
    // A full-domain subscription (which an inverted event used to match
    // under kIntersecting) and random ones.
    std::vector<std::pair<SubscriptionId, Box>> subs;
    Box full(nd);
    for (Dim i = 0; i < nd; ++i) full.set(i, 0.0f, 1.0f);
    subs.emplace_back(engine.SubscribeBox(full), full);
    for (int i = 0; i < 300; ++i) {
      const Box b = testutil::RandomBox(rng, nd, 0.5f);
      subs.emplace_back(engine.SubscribeBox(b), b);
    }

    // Every defect on every dimension, of range events and of point
    // events, interleaved with well-formed range and point events.
    std::vector<Event> events;
    std::vector<bool> bad;
    for (Dim d = 0; d < nd; ++d) {
      for (int how = 0; how < kEventDefects; ++how) {
        events.push_back(Event::Range(testutil::RandomBox(rng, nd, 0.6f)));
        bad.push_back(false);
        Event range = Event::Range(testutil::RandomBox(rng, nd, 0.6f));
        SpoilDim(&range.box, d, how);
        events.push_back(range);
        bad.push_back(true);
        std::vector<float> pt(nd);
        for (float& x : pt) x = rng.NextFloat();
        events.push_back(Event::Point(pt));
        bad.push_back(false);
        Event point = Event::Point(pt);
        SpoilDim(&point.box, d, how);
        events.push_back(point);
        bad.push_back(true);
      }
    }
    const Span<const Event> span(events.data(), events.size());

    MatchBatchResult res;
    VectorMatchSink sink;
    for (int pass = 0; pass < 4; ++pass) {
      for (const MatchPolicy policy :
           {MatchPolicy::kCovering, MatchPolicy::kIntersecting}) {
        const uint64_t events_before =
            CounterValue(engine, "accl_pipeline_events_total");
        engine.MatchBatch(span, &res, policy);
        sink.Reset(events.size());
        engine.MatchBatch(span, &sink, policy);
        // Malformed events still count as events of their batch.
        EXPECT_EQ(CounterValue(engine, "accl_pipeline_events_total") -
                      events_before,
                  2 * events.size());
        for (size_t e = 0; e < events.size(); ++e) {
          std::vector<SubscriptionId> one;
          engine.Match(events[e], &one, policy);
          const std::vector<SubscriptionId> expected =
              bad[e] ? std::vector<SubscriptionId>()
                     : Oracle(subs, events[e], policy);
          EXPECT_EQ(res.matches[e], expected)
              << "config " << config << " event " << e;
          EXPECT_EQ(sink.matches()[e], expected)
              << "config " << config << " event " << e;
          EXPECT_EQ(one, expected) << "config " << config << " event " << e;
          if (bad[e]) {
            EXPECT_EQ(sink.verified()[e], 0u);
          }
        }
      }
    }

    // A batch of malformed events alone visits no shard and verifies
    // nothing.
    std::vector<Event> only_bad;
    for (size_t e = 0; e < events.size(); ++e) {
      if (bad[e]) only_bad.push_back(events[e]);
    }
    engine.MatchBatch(Span<const Event>(only_bad.data(), only_bad.size()),
                      &res, MatchPolicy::kIntersecting);
    EXPECT_EQ(res.TotalShardVisits(), 0u) << "config " << config;
    EXPECT_EQ(res.total.objects_verified, 0u) << "config " << config;
    for (const auto& m : res.matches) EXPECT_TRUE(m.empty());
    if (config >= 2) {
      EXPECT_GT(engine.adaptive_stats().windows_evaluated, 0u);
    }
    engine.SynchronizeEpochs();
  }
}

TEST(SdiEngine, StatsAccumulate) {
  SubscriptionEngine engine = MakeEngine();
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    engine.Subscribe({{"price", rng.Uniform(0, 1500),
                       rng.Uniform(1500, 3000)}});
  }
  Event ev;
  ASSERT_TRUE(engine.MakePointEvent(
      {{"price", 1500}, {"rooms", 5}, {"baths", 1}, {"distance", 50}}, &ev));
  std::vector<SubscriptionId> out;
  for (int i = 0; i < 10; ++i) {
    out.clear();
    engine.Match(ev, &out);
  }
  // Every Match is one pipeline call: one event, one timed call.
  EXPECT_EQ(CounterValue(engine, "accl_pipeline_events_total"), 10u);
  EXPECT_EQ(engine.metrics().GetHistogram("accl_pipeline_batch_us")->Count(),
            10u);
  EXPECT_GT(CounterValue(engine, "accl_pipeline_matches_total"), 0u);
  EXPECT_GT(CounterValue(engine, "accl_pipeline_objects_verified_total"), 0u);
  // A window of calls is a delta between two snapshots.
  const obs::MetricsSnapshot base = engine.metrics().Snapshot();
  const auto events_since = [&] {
    return engine.metrics()
        .Snapshot()
        .DeltaSince(base)
        .Find("accl_pipeline_events_total")
        ->counter;
  };
  EXPECT_EQ(events_since(), 0u);
  out.clear();
  engine.Match(ev, &out);
  EXPECT_EQ(events_since(), 1u);
}

TEST(SdiEngine, HighVolumeStreamAdapts) {
  // Sustained event stream: the engine's index must cluster and the
  // verified fraction must drop well below 100%.
  SubscriptionEngine engine = MakeEngine();
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double p0 = rng.Uniform(0, 2800);
    const double r0 = rng.Uniform(0, 8);
    const double d0 = rng.Uniform(0, 90);
    engine.Subscribe({{"price", p0, p0 + 200},
                      {"rooms", r0, r0 + 2},
                      {"distance", d0, d0 + 10}});
  }
  std::vector<SubscriptionId> out;
  for (int i = 0; i < 2000; ++i) {
    Event ev;
    ASSERT_TRUE(engine.MakePointEvent({{"price", rng.Uniform(0, 3000)},
                                       {"rooms", rng.Uniform(0, 10)},
                                       {"baths", rng.Uniform(0, 5)},
                                       {"distance", rng.Uniform(0, 100)}},
                                      &ev));
    out.clear();
    engine.Match(ev, &out);
  }
  EXPECT_GT(engine.index().cluster_count(), 1u);
  const double verified_per_event =
      static_cast<double>(
          CounterValue(engine, "accl_pipeline_objects_verified_total")) /
      static_cast<double>(CounterValue(engine, "accl_pipeline_events_total"));
  const double verified_frac =
      verified_per_event / static_cast<double>(engine.subscription_count());
  EXPECT_LT(verified_frac, 0.6);
}

}  // namespace
}  // namespace accl
