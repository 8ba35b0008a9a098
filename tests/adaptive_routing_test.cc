// Workload-adaptive routing (src/adapt/ + the engine's adaptive surface):
// unit coverage of the tracker/analyzer/advisor layers, the engine-level
// convergence property the subsystem exists for — a workload whose
// selectivity lives on a non-default dimension must trigger an online
// fence-dimension switch that drops shard visits per event to routed
// levels — and the dense-cut regression: when EVERY dimension's fences
// would cut the subscription population, no switch can win, and the
// advisor must keep the fence dimension instead of thrashing between
// equally bad ones. Every engine assertion is paired with a brute-force oracle so an adaptation that
// loses or duplicates a subscription fails loudly, not just slowly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "adapt/routing_advisor.h"
#include "adapt/selectivity.h"
#include "geometry/query.h"
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

/// Box that is `width`-narrow on `narrow_dim` (centered at `center`) and
/// full-domain on every other dimension — selective on exactly one axis.
Box NarrowOn(Dim narrow_dim, float center, float width) {
  Box b = Box::FullDomain(kNd);
  const float lo = std::max(0.0f, center - width / 2);
  b.set(narrow_dim, lo, std::min(1.0f, lo + width));
  return b;
}

/// Box of width `width` on EVERY dimension, centers drawn uniformly — the
/// dense-cut shape: moderate extent everywhere, so any single fence set
/// cuts a large fraction of the population.
Box ModerateEverywhere(Rng& rng, float width) {
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) {
    const float lo = (1.0f - width) * rng.NextFloat();
    b.set(d, lo, lo + width);
  }
  return b;
}

std::vector<ObjectId> BruteForceMatches(
    const std::vector<std::pair<SubscriptionId, Box>>& subs,
    const Event& ev) {
  Query q(ev.box, Relation::kIntersects);
  std::vector<ObjectId> out;
  for (const auto& [id, box] : subs) {
    if (q.Matches(box.view())) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectOracleParity(SubscriptionEngine& engine,
                        const std::vector<std::pair<SubscriptionId, Box>>& subs,
                        const std::vector<Event>& probes, const char* where) {
  MatchBatchResult res;
  engine.MatchBatch(Span<const Event>(probes.data(), probes.size()), &res);
  ASSERT_EQ(res.matches.size(), probes.size()) << where;
  for (size_t e = 0; e < probes.size(); ++e) {
    EXPECT_EQ(res.matches[e], BruteForceMatches(subs, probes[e]))
        << where << ": probe " << e;
  }
}

// ---------------------------------------------------------------------------
// QueryPatternTracker
// ---------------------------------------------------------------------------

TEST(PatternTracker, BinClampingIsDeterministic) {
  EXPECT_EQ(adapt::PatternBinOf(0.0f), 0u);
  EXPECT_EQ(adapt::PatternBinOf(-3.0f), 0u);
  EXPECT_EQ(adapt::PatternBinOf(std::nanf("")), 0u);
  EXPECT_EQ(adapt::PatternBinOf(1.0f), adapt::kPatternBins - 1);
  EXPECT_EQ(adapt::PatternBinOf(42.0f), adapt::kPatternBins - 1);
  EXPECT_LT(adapt::PatternBinOf(0.999f), adapt::kPatternBins);
  // Mid-domain coordinates spread across distinct bins.
  EXPECT_NE(adapt::PatternBinOf(0.25f), adapt::PatternBinOf(0.75f));
}

// Records one event the way the match pipeline does: fold it into an
// accumulator, then merge the accumulator.
void RecordOneEvent(adapt::QueryPatternTracker* tracker, const Box& b) {
  adapt::PatternAccumulator acc;
  acc.Reset(kNd);
  acc.AddEvent(b);
  tracker->Record(acc);
}

TEST(PatternTracker, AccumulatorFoldAndSnapshotCounts) {
  adapt::QueryPatternTracker tracker(kNd);
  adapt::PatternAccumulator acc;
  acc.Reset(kNd);
  acc.AddEvent(NarrowOn(1, 0.5f, 0.1f));
  acc.AddEvent(NarrowOn(1, 0.7f, 0.1f));
  acc.AddSubscription(NarrowOn(2, 0.3f, 0.05f));
  tracker.Record(acc);
  RecordOneEvent(&tracker, NarrowOn(1, 0.2f, 0.1f));
  const Box sub = NarrowOn(2, 0.8f, 0.05f);
  tracker.AddResidents(sub.data(), 1);

  const adapt::PatternSnapshot snap = tracker.Snapshot();
  EXPECT_EQ(snap.events, 3u);
  EXPECT_EQ(snap.subscriptions, 2u);
  ASSERT_EQ(snap.event_dims.size(), static_cast<size_t>(kNd));
  // Every sample contributes exactly one lo and one hi endpoint per dim.
  for (Dim d = 0; d < kNd; ++d) {
    uint64_t lo_total = 0, hi_total = 0;
    for (size_t b = 0; b < adapt::kPatternBins; ++b) {
      lo_total += snap.event_dims[d].lo[b];
      hi_total += snap.event_dims[d].hi[b];
    }
    EXPECT_EQ(lo_total, 3u) << "dim " << static_cast<int>(d);
    EXPECT_EQ(hi_total, 3u) << "dim " << static_cast<int>(d);
  }
  // Lifetime counters survive window churn; the snapshot does not.
  EXPECT_EQ(tracker.events_observed(), 3u);
  EXPECT_EQ(tracker.subscriptions_observed(), 2u);
}

TEST(PatternTracker, ObservationsAgeOutAfterKGenerations) {
  adapt::QueryPatternTracker tracker(kNd);
  const Box sub = NarrowOn(3, 0.3f, 0.05f);
  tracker.AddResidents(sub.data(), 1);
  const std::vector<adapt::DimPattern> residents =
      tracker.Snapshot().sub_dims;
  RecordOneEvent(&tracker, NarrowOn(0, 0.5f, 0.1f));
  for (size_t w = 0; w < adapt::QueryPatternTracker::kGenerations - 1; ++w) {
    tracker.AdvanceWindow();
    EXPECT_EQ(tracker.Snapshot().events, 1u) << "window " << w;
  }
  tracker.AdvanceWindow();  // kGenerations-th rotation drops the sample
  EXPECT_EQ(tracker.Snapshot().events, 0u);
  EXPECT_EQ(tracker.events_observed(), 1u);  // lifetime counter unaffected

  RecordOneEvent(&tracker, NarrowOn(0, 0.5f, 0.1f));
  tracker.ResetWindow();  // full reset clears every generation at once
  EXPECT_EQ(tracker.Snapshot().events, 0u);

  // Residents are the live set, not a sample: neither rotation nor reset
  // ages them out; only a removal does.
  EXPECT_EQ(tracker.Snapshot().subscriptions, 1u);
  EXPECT_EQ(tracker.Snapshot().sub_dims, residents);
  tracker.RemoveResident(sub.view());
  EXPECT_EQ(tracker.Snapshot().subscriptions, 0u);
  for (const adapt::DimPattern& d : tracker.Snapshot().sub_dims) {
    EXPECT_EQ(d, adapt::DimPattern());
  }
}

// ---------------------------------------------------------------------------
// SelectivityAnalyzer
// ---------------------------------------------------------------------------

/// Snapshot with `n` samples: events and subscriptions both narrow on
/// `good_dim` (centers spread uniformly) and full-domain on the others.
adapt::PatternSnapshot DimShiftedPattern(Dim good_dim, size_t n) {
  adapt::PatternAccumulator acc;
  acc.Reset(kNd);
  for (size_t i = 0; i < n; ++i) {
    const float c = 0.05f + 0.9f * static_cast<float>(i) /
                                static_cast<float>(n ? n : 1);
    acc.AddEvent(NarrowOn(good_dim, c, 0.02f));
    acc.AddSubscription(NarrowOn(good_dim, c, 0.02f));
  }
  return acc.data();
}

TEST(SelectivityAnalyzer, NarrowDimensionScoresBest) {
  const adapt::PatternSnapshot p = DimShiftedPattern(/*good_dim=*/2, 512);
  const std::vector<DimensionEstimate> est =
      adapt::SelectivityAnalyzer::Analyze(p, /*slices=*/4);
  ASSERT_EQ(est.size(), static_cast<size_t>(kNd));
  for (Dim d = 0; d < kNd; ++d) {
    if (d == 2) continue;
    // Full-domain intervals cross every fence: near-broadcast visits and a
    // straddler fraction of ~1. The narrow dimension routes tightly.
    EXPECT_LT(est[2].score, est[d].score) << "dim " << static_cast<int>(d);
    EXPECT_GT(est[d].straddler_fraction, 0.9);
  }
  EXPECT_LT(est[2].straddler_fraction, 0.3);
  EXPECT_LT(est[2].expected_shard_visits, 2.5);
  EXPECT_GT(est[0].expected_shard_visits, 4.0);  // home + 3 fences + overflow
}

TEST(SelectivityAnalyzer, EmptySnapshotYieldsZeroEstimates) {
  adapt::PatternSnapshot p;
  p.Reset(kNd);
  const std::vector<DimensionEstimate> est =
      adapt::SelectivityAnalyzer::Analyze(p, 4);
  ASSERT_EQ(est.size(), static_cast<size_t>(kNd));
  for (const DimensionEstimate& e : est) EXPECT_EQ(e.score, 0.0);
}

TEST(SelectivityAnalyzer, PlanFencesAreStrictlyAscendingInDomain) {
  const adapt::PatternSnapshot p = DimShiftedPattern(1, 512);
  for (const size_t n_fences : {1u, 3u, 7u}) {
    const std::vector<float> f =
        adapt::SelectivityAnalyzer::PlanFences(p, 1, n_fences);
    ASSERT_EQ(f.size(), n_fences);
    for (size_t i = 0; i < f.size(); ++i) {
      EXPECT_GT(f[i], 0.0f);
      EXPECT_LT(f[i], 1.0f);
      if (i > 0) {
        EXPECT_LT(f[i - 1], f[i]);
      }
    }
  }
  // Equal-mass placement: centers are uniform over [0.05, 0.95], so the
  // median fence of a 2-slice plan sits near the middle of the domain.
  const std::vector<float> median =
      adapt::SelectivityAnalyzer::PlanFences(p, 1, 1);
  ASSERT_EQ(median.size(), 1u);
  EXPECT_NEAR(median[0], 0.5f, 0.1f);
}

TEST(SelectivityAnalyzer, DegenerateMassFallsBackToUniformFences) {
  // All interval mass in one spot: quantile placement would collapse all
  // fences onto one bin; the plan must still be strictly ascending.
  adapt::PatternAccumulator acc;
  acc.Reset(kNd);
  for (int i = 0; i < 100; ++i) {
    acc.AddEvent(NarrowOn(0, 0.5f, 0.001f));
    acc.AddSubscription(NarrowOn(0, 0.5f, 0.001f));
  }
  const std::vector<float> f =
      adapt::SelectivityAnalyzer::PlanFences(acc.data(), 0, 3);
  ASSERT_EQ(f.size(), 3u);
  for (size_t i = 1; i < f.size(); ++i) EXPECT_LT(f[i - 1], f[i]);
}

TEST(SelectivityAnalyzer, MaxLoadPricesSlicesAndOverflow) {
  // Two packs of 100 subscriptions, narrow on dimension 0 around 0.1 and
  // 0.6. Fences are on bin boundaries, so the prices are exact.
  adapt::PatternAccumulator acc;
  acc.Reset(kNd);
  for (int i = 0; i < 100; ++i) {
    acc.AddSubscription(NarrowOn(0, 0.105f, 0.01f));
    acc.AddSubscription(NarrowOn(0, 0.605f, 0.01f));
  }
  const adapt::PatternSnapshot& p = acc.data();
  using adapt::SelectivityAnalyzer;
  EXPECT_DOUBLE_EQ(SelectivityAnalyzer::MaxLoad(p, 0, {0.5f}), 100.0);
  EXPECT_DOUBLE_EQ(SelectivityAnalyzer::MaxLoad(p, 0, {0.875f}), 200.0);
  // A fence through the first pack sends it to the overflow shard.
  EXPECT_DOUBLE_EQ(SelectivityAnalyzer::MaxLoad(p, 0, {7.0f / 64.0f}), 100.0);
  EXPECT_DOUBLE_EQ(
      SelectivityAnalyzer::MaxLoad(p, 0, {7.0f / 64.0f, 0.609375f}), 200.0);
  // No fence: one slice holds everything; a NaN fence prices as the
  // domain's lower edge.
  EXPECT_DOUBLE_EQ(SelectivityAnalyzer::MaxLoad(p, 0, {}), 200.0);
  EXPECT_DOUBLE_EQ(SelectivityAnalyzer::MaxLoad(p, 0, {std::nanf("")}),
                   200.0);
  // The equal-mass plan is at least as good as either bad fence.
  const std::vector<float> plan = SelectivityAnalyzer::PlanFences(p, 0, 1);
  EXPECT_LE(SelectivityAnalyzer::MaxLoad(p, 0, plan), 100.0);
}

// ---------------------------------------------------------------------------
// AdviseRouting
// ---------------------------------------------------------------------------

constexpr uint32_t kSlices = 4;

TEST(RoutingAdvisor, EmptyWindowDecidesNothing) {
  adapt::PatternSnapshot p;
  p.Reset(kNd);
  const adapt::RoutingDecision d = adapt::AdviseRouting(p, 0, kSlices);
  EXPECT_FALSE(d.switch_dimension);
}

TEST(RoutingAdvisor, SwitchesToThePredictedBetterDimension) {
  const adapt::PatternSnapshot p = DimShiftedPattern(/*good_dim=*/3, 512);
  const adapt::RoutingDecision d = adapt::AdviseRouting(p, 0, kSlices);
  ASSERT_TRUE(d.switch_dimension);
  EXPECT_EQ(d.dim, 3u);
  ASSERT_EQ(d.fences.size(), 3u);  // kSlices - 1
  for (size_t i = 1; i < d.fences.size(); ++i) {
    EXPECT_LT(d.fences[i - 1], d.fences[i]);
  }
  EXPECT_EQ(d.estimates.size(), static_cast<size_t>(kNd));
}

TEST(RoutingAdvisor, NoSwitchWhenCurrentDimensionIsAlreadyBest) {
  const adapt::PatternSnapshot p = DimShiftedPattern(3, 512);
  const adapt::RoutingDecision d = adapt::AdviseRouting(p, 3, kSlices);
  EXPECT_FALSE(d.switch_dimension);
  EXPECT_EQ(d.estimates.size(), static_cast<size_t>(kNd));
}

// ---------------------------------------------------------------------------
// Engine: online convergence
// ---------------------------------------------------------------------------

TEST(AdaptiveEngine, AutoSwitchConvergesToSelectiveDimension) {
  // Workload selective on dimension 2 only; routing starts on dimension 0,
  // where every subscription straddles every fence — effective broadcast.
  EngineOptions o;
  o.shards = 5;
  o.sharding = ShardingPolicy::kRange;
  o.match_threads = 2;
  o.default_policy = MatchPolicy::kIntersecting;
  o.adaptive.enabled = true;
  o.adaptive.sample_window = 256;
  SubscriptionEngine engine(UnitSchema(), o);
  ASSERT_EQ(engine.routing_dimension(), 0u);

  Rng rng(7);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 600; ++i) {
    Box b = NarrowOn(2, rng.NextFloat(), 0.02f);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }

  auto make_batch = [&rng](size_t ne) {
    std::vector<Event> evs;
    for (size_t e = 0; e < ne; ++e) {
      evs.push_back(Event::Range(NarrowOn(2, rng.NextFloat(), 0.01f)));
    }
    return evs;
  };

  // Pre-switch sanity: with dim-0 fences every event pays ~shard_count
  // visits (all subscriptions straddle into the overflow shard).
  {
    const std::vector<Event> evs = make_batch(64);
    MatchBatchResult res;
    engine.MatchBatch(Span<const Event>(evs.data(), evs.size()), &res);
    EXPECT_GT(static_cast<double>(res.TotalShardVisits()) / 64.0, 4.0);
    for (size_t e = 0; e < evs.size(); ++e) {
      ASSERT_EQ(res.matches[e], BruteForceMatches(subs, evs[e])) << e;
    }
  }

  // Feed windows until the advisor acts (well beyond one sample_window).
  // Every batch, the one whose call begins the switch's move included,
  // must equal the oracle.
  for (int round = 0; round < 12 && engine.routing_dimension() != 2u;
       ++round) {
    const std::vector<Event> evs = make_batch(64);
    MatchBatchResult res;
    engine.MatchBatch(Span<const Event>(evs.data(), evs.size()), &res);
    for (size_t e = 0; e < evs.size(); ++e) {
      ASSERT_EQ(res.matches[e], BruteForceMatches(subs, evs[e]))
          << "round " << round << " event " << e;
    }
  }

  const AdaptiveRoutingStats st = engine.adaptive_stats();
  EXPECT_TRUE(st.enabled);
  EXPECT_EQ(engine.routing_dimension(), 2u);
  EXPECT_EQ(st.fence_dimension, 2u);
  EXPECT_GE(st.dimension_switches, 1u);
  EXPECT_GE(st.windows_evaluated, 1u);
  EXPECT_EQ(st.last_estimates.size(), static_cast<size_t>(kNd));
  EXPECT_GT(st.events_observed, 0u);
  EXPECT_GT(st.subscriptions_observed, 0u);

  // Post-convergence: routed visit economics and exact oracle parity. The
  // switch's move finishes on the migrator thread, and until it does
  // events route to the union of the old and new shards; wait for it so
  // the visits below measure the converged routing.
  engine.SynchronizeEpochs();
  const std::vector<Event> probes = make_batch(128);
  MatchBatchResult res;
  engine.MatchBatch(Span<const Event>(probes.data(), probes.size()), &res);
  const double visits_per_event =
      static_cast<double>(res.TotalShardVisits()) /
      static_cast<double>(probes.size());
  EXPECT_LE(visits_per_event, 2.5) << "routing did not converge";
  for (size_t e = 0; e < probes.size(); ++e) {
    ASSERT_EQ(res.matches[e], BruteForceMatches(subs, probes[e]))
        << "probe " << e;
  }
}

TEST(AdaptiveEngine, DenseCutWorkloadDoesNotThrash) {
  // Dense-cut regression: moderate extent on EVERY dimension. No candidate
  // dimension can beat the current one by 1.5x (all fences cut the same
  // population), so the advisor must keep the fence dimension window after
  // window, and every batch must still equal the oracle.
  EngineOptions o;
  o.shards = 6;
  o.sharding = ShardingPolicy::kRange;
  o.match_threads = 0;
  o.default_policy = MatchPolicy::kIntersecting;
  o.adaptive.enabled = true;
  o.adaptive.sample_window = 128;
  SubscriptionEngine engine(UnitSchema(), o);
  ASSERT_EQ(engine.shard_count(), 6u);

  Rng rng(13);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 500; ++i) {
    Box b = ModerateEverywhere(rng, 0.35f);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }

  for (int round = 0; round < 12; ++round) {
    std::vector<Event> evs;
    for (int e = 0; e < 64; ++e) {
      evs.push_back(Event::Range(ModerateEverywhere(rng, 0.1f)));
    }
    ExpectOracleParity(engine, subs, evs, "dense-cut round");
  }

  const AdaptiveRoutingStats st = engine.adaptive_stats();
  EXPECT_GE(st.windows_evaluated, 5u);  // 768 events over 128-event windows
  EXPECT_EQ(st.dimension_switches, 0u);
  EXPECT_EQ(st.fence_dimension, 0u);
  EXPECT_EQ(st.last_estimates.size(), static_cast<size_t>(kNd));
  size_t resident = 0;
  for (const auto& info : engine.GetShardInfos()) {
    resident += info.subscriptions;
  }
  EXPECT_EQ(resident, subs.size());
}

// ---------------------------------------------------------------------------
// Engine: manual controls
// ---------------------------------------------------------------------------

TEST(AdaptiveEngine, ManualDimensionSwitchKeepsMatchSetsExact) {
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kRange;
  o.match_threads = 2;
  o.default_policy = MatchPolicy::kIntersecting;
  SubscriptionEngine engine(UnitSchema(), o);

  Rng rng(21);
  std::vector<std::pair<SubscriptionId, Box>> subs;
  for (int i = 0; i < 400; ++i) {
    Box b = testutil::RandomBox(rng, kNd, 0.4f);
    subs.emplace_back(engine.SubscribeBox(b), b);
  }
  std::vector<Event> probes;
  for (int e = 0; e < 48; ++e) {
    probes.push_back(Event::Range(testutil::RandomBox(rng, kNd, 0.5f)));
  }

  EXPECT_FALSE(engine.SetRoutingDimension(kNd));  // outside the schema
  ASSERT_TRUE(engine.SetRoutingDimension(2));
  EXPECT_EQ(engine.routing_dimension(), 2u);
  EXPECT_EQ(engine.adaptive_stats().dimension_switches, 1u);
  ExpectOracleParity(engine, subs, probes, "after SetRoutingDimension");

  // Switching to the current dimension is a no-op success.
  ASSERT_TRUE(engine.SetRoutingDimension(2));
  EXPECT_EQ(engine.adaptive_stats().dimension_switches, 1u);

  // Residency bookkeeping survived the migration.
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

TEST(AdaptiveEngine, RoutingControlsNeedRangeRouting) {
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kHashId;
  SubscriptionEngine hash_engine(UnitSchema(), o);
  EXPECT_FALSE(hash_engine.SetRoutingDimension(1));
  const AdaptiveRoutingStats st = hash_engine.adaptive_stats();
  EXPECT_FALSE(st.enabled);
  EXPECT_EQ(st.fence_dimension, 0u);
}

}  // namespace
}  // namespace accl
