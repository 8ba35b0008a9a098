// The observability plane (src/obs/) and its engine wiring:
//
//   - Histogram bucket math and percentile edges: exact singleton buckets
//     below 2^kSubBits, <= 12.5% relative quantization above, p50 <= p90
//     <= p99 <= max always, max exact.
//   - Counter sharding under a thread hammer: racy-exact reads must equal
//     the exact total once the writers joined.
//   - TraceRecorder ring wraparound and Chrome trace-event JSON structure.
//   - Prometheus exposition / JSON dump structure.
//   - Metric-family coverage: a durable adaptive kRange engine's
//     DumpMetrics() must expose the pipeline, WAL, checkpoint, epoch,
//     adaptive-routing and rebalance families; a LogShipper follower adds
//     the replication family. This is the acceptance gate that keeps
//     instrumentation attached as the engine grows.
//   - Flight-recorder end-to-end: a traced 256-event MatchBatch yields
//     per-stage spans recorded across more than one worker thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/shipping.h"
#include "durability/wal.h"
#include "obs/alloc_hook.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, EmptyReportsZeros) {
  obs::Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0.0);
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(ObsHistogram, SmallValuesAreExact) {
  // Values below kSubBuckets land in singleton buckets: every percentile
  // of a single-sample histogram is that exact value.
  for (uint64_t v = 0; v < obs::Histogram::kSubBuckets; ++v) {
    obs::Histogram h;
    h.Record(v);
    EXPECT_EQ(h.Percentile(0.5), static_cast<double>(v)) << "value " << v;
    EXPECT_EQ(h.Max(), v);
  }
}

TEST(ObsHistogram, LargeValuesWithinQuantizationBound) {
  // One sample each of a spread of magnitudes: the reported p50 must be
  // within the documented 2^-kSubBits (12.5%) relative error — and never
  // above the exact recorded max, which caps the bucket midpoint.
  for (const uint64_t v :
       {uint64_t{9}, uint64_t{100}, uint64_t{4096}, uint64_t{123456789},
        uint64_t{1} << 40, (uint64_t{1} << 50) + 12345}) {
    obs::Histogram h;
    h.Record(v);
    const double p = h.Percentile(0.5);
    EXPECT_LE(p, static_cast<double>(v)) << "value " << v;
    EXPECT_GE(p, 0.875 * static_cast<double>(v)) << "value " << v;
    EXPECT_EQ(h.Max(), v);
  }
}

TEST(ObsHistogram, BucketIndexRoundTrips) {
  // Every value must fall inside [BucketLow, BucketLow + BucketWidth) of
  // its own bucket, and bucket indices must be monotone in the value.
  size_t prev_idx = 0;
  for (const uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{7}, uint64_t{8},
                           uint64_t{9}, uint64_t{15}, uint64_t{16},
                           uint64_t{1023}, uint64_t{1024}, uint64_t{1} << 33,
                           ~uint64_t{0}}) {
    const size_t idx = obs::Histogram::BucketIndex(v);
    ASSERT_LT(idx, obs::Histogram::kBuckets) << "value " << v;
    EXPECT_GE(v, obs::Histogram::BucketLow(idx)) << "value " << v;
    EXPECT_LT(v - obs::Histogram::BucketLow(idx),
              obs::Histogram::BucketWidth(idx))
        << "value " << v;
    EXPECT_GE(idx, prev_idx) << "value " << v;
    prev_idx = idx;
  }
}

TEST(ObsHistogram, PercentilesAreOrderedAndClampedToMax) {
  obs::Histogram h;
  Rng rng(99);
  uint64_t max = 0;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng.NextU64() % 1000000;
    h.Record(v);
    max = std::max(max, v);
  }
  const obs::HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 10000u);
  EXPECT_EQ(s.max, max);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
  EXPECT_LE(s.p99, static_cast<double>(s.max));
}

TEST(ObsHistogram, MergeFoldsCountsSumAndMax) {
  obs::Histogram a;
  obs::Histogram b;
  for (int i = 0; i < 100; ++i) a.Record(10);
  for (int i = 0; i < 50; ++i) b.Record(1000);
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 150u);
  EXPECT_EQ(a.Sum(), 100u * 10 + 50u * 1000);
  EXPECT_EQ(a.Max(), 1000u);
  // Two-thirds of the mass sits at 10: p50 stays small, p90 jumps.
  EXPECT_LE(a.Percentile(0.5), 10.0);
  EXPECT_GE(a.Percentile(0.9), 875.0);
}

// ---------------------------------------------------------------------------
// Counter / gauge
// ---------------------------------------------------------------------------

TEST(ObsCounter, ThreadHammerIsExactAfterJoin) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(ObsCounter, AddNAccumulates) {
  obs::Counter c;
  c.Add(5);
  c.Add();
  c.Add(37);
  EXPECT_EQ(c.Value(), 43u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge g;
  g.Set(-7);
  EXPECT_EQ(g.Value(), -7);
  g.Add(10);
  EXPECT_EQ(g.Value(), 3);
}

// ---------------------------------------------------------------------------
// Registry + exposition
// ---------------------------------------------------------------------------

TEST(ObsRegistry, GetReturnsSameMetricAndSnapshotIsSorted) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("accl_test_z_total", "ends last");
  EXPECT_EQ(reg.GetCounter("accl_test_z_total"), c);
  reg.GetGauge("accl_test_a_gauge");
  reg.GetHistogram("accl_test_m_us");
  c->Add(3);

  const obs::MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.values.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      snap.values.begin(), snap.values.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  const obs::MetricValue* v = snap.Find("accl_test_z_total");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->counter, 3u);
}

TEST(ObsRegistry, AttachedMetricsAreReadAndDetachable) {
  obs::MetricsRegistry reg;
  obs::Counter mine;
  reg.Attach("accl_test_attached_total", &mine, "externally owned");
  mine.Add(11);
  // Find points into the snapshot, so the snapshot must outlive the read.
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::MetricValue* v = snap.Find("accl_test_attached_total");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->counter, 11u);
  reg.Detach("accl_test_attached_total");
  EXPECT_EQ(reg.Snapshot().Find("accl_test_attached_total"), nullptr);
}

TEST(ObsRegistry, DeltaSinceSubtractsMonotoneQuantities) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("accl_test_total");
  obs::Gauge* g = reg.GetGauge("accl_test_level");
  obs::Histogram* h = reg.GetHistogram("accl_test_us");
  c->Add(10);
  g->Set(100);
  h->Record(5);
  const obs::MetricsSnapshot base = reg.Snapshot();
  c->Add(7);
  g->Set(42);
  h->Record(5);
  h->Record(6);
  const obs::MetricsSnapshot delta = reg.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.Find("accl_test_total")->counter, 7u);
  EXPECT_EQ(delta.Find("accl_test_level")->gauge, 42);  // gauges: current
  EXPECT_EQ(delta.Find("accl_test_us")->hist.count, 2u);
  EXPECT_EQ(delta.Find("accl_test_us")->hist.sum, 11u);
}

TEST(ObsExposition, PrometheusTextStructure) {
  obs::MetricsRegistry reg;
  reg.GetCounter("accl_test_ops_total", "ops")->Add(5);
  reg.GetGauge("accl_test_level")->Set(-3);
  reg.GetHistogram("accl_test_lat_us")->Record(100);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("# TYPE accl_test_ops_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("accl_test_ops_total 5"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE accl_test_level gauge"), std::string::npos);
  EXPECT_NE(text.find("accl_test_level -3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE accl_test_lat_us summary"), std::string::npos);
  EXPECT_NE(text.find("accl_test_lat_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
}

TEST(ObsExposition, JsonDumpIsOneObjectWithBalancedBraces) {
  obs::MetricsRegistry reg;
  reg.GetCounter("accl_test_ops_total")->Add(2);
  reg.GetHistogram("accl_test_lat_us")->Record(7);
  const std::string json = reg.JsonDump();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"accl_test_ops_total\":2"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"count\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------------

/// Tracing is process-global state: every trace test restores "disabled,
/// cleared" so suites compose in any order.
struct TraceQuiesce {
  TraceQuiesce() {
    SubscriptionEngine::SetTracing(false);
    obs::TraceRecorder::Global().Clear();
  }
  ~TraceQuiesce() {
    SubscriptionEngine::SetTracing(false);
    obs::TraceRecorder::Global().Clear();
  }
};

TEST(ObsTrace, DisabledRecordsNothing) {
  TraceQuiesce q;
  ACCL_TRACE_INSTANT("never", 1);
  { ACCL_TRACE_SPAN("never_span"); }
  EXPECT_EQ(obs::TraceRecorder::Global().EventCount(), 0u);
}

TEST(ObsTrace, RingWrapsKeepingNewestEvents) {
  TraceQuiesce q;
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  // Capacity applies to rings created after the call; run the writer on a
  // fresh thread so its ring is sized small for sure.
  rec.SetRingCapacity(64);
  rec.SetEnabled(true);
  std::thread writer([&rec] {
    for (uint32_t i = 0; i < 1000; ++i) {
      rec.Record("wrap_evt", obs::TraceRecorder::kInstant, i);
    }
  });
  writer.join();
  rec.SetEnabled(false);
  const std::string json = rec.DrainChromeJson();
  rec.SetRingCapacity(8192);
  // The ring holds the newest 64 events: the last arg (999) must be
  // present, the first (0) long overwritten. Args are decimal in the dump.
  EXPECT_NE(json.find("\"args\":{\"v\":999}"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"args\":{\"v\":0}"), std::string::npos);
}

TEST(ObsTrace, ChromeJsonStructure) {
  TraceQuiesce q;
  obs::TraceRecorder& rec = obs::TraceRecorder::Global();
  rec.SetEnabled(true);
  {
    ACCL_TRACE_SPAN_ARG("outer", 7);
    ACCL_TRACE_INSTANT("tick", 42);
  }
  rec.SetEnabled(false);
  const std::string json = rec.DrainChromeJson();
  // One JSON object, the traceEvents array, B/E/i phases, µs timestamps.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"v\":42}"), std::string::npos);
  // A span that began with tracing enabled keeps its end even when
  // tracing flips off mid-scope: B and E counts balance.
  const auto count_of = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("\"ph\":\"B\""), count_of("\"ph\":\"E\""));
}

// ---------------------------------------------------------------------------
// Alloc hook (not installed in this binary)
// ---------------------------------------------------------------------------

TEST(ObsAllocHook, UninstalledReportsZero) {
  // The test binary does not expand ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();
  // the counter must exist and read 0 rather than trap.
  EXPECT_FALSE(obs::HeapAllocHookInstalled());
  EXPECT_EQ(obs::HeapAllocsNow(), 0u);
}

// ---------------------------------------------------------------------------
// Engine wiring: family coverage + flight recording
// ---------------------------------------------------------------------------

constexpr Dim kNd = 3;

AttributeSchema UnitSchema() {
  AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

EngineOptions RangeOpts(uint32_t threads) {
  EngineOptions o;
  o.index.reorg_period = 20;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = 4;
  o.match_threads = threads;
  o.sharding = ShardingPolicy::kRange;
  o.adaptive.enabled = true;
  o.adaptive.sample_window = 64;
  return o;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void RunSomeBatches(SubscriptionEngine* engine, uint64_t seed,
                    size_t n_events) {
  Rng rng(seed);
  std::vector<Event> events;
  for (size_t i = 0; i < n_events; ++i) {
    events.push_back(Event::Range(testutil::RandomBox(rng, kNd, 0.4f)));
  }
  MatchBatchResult res;
  engine->MatchBatch(Span<const Event>(events.data(), events.size()), &res);
}

/// Every name in `families` must appear as a metric-name prefix in `text`.
void ExpectFamilies(const std::string& text,
                    const std::vector<std::string>& families,
                    const std::string& context) {
  for (const std::string& fam : families) {
    EXPECT_NE(text.find(fam), std::string::npos)
        << context << ": missing metric family " << fam << " in:\n"
        << text;
  }
}

TEST(ObsEngineCoverage, DurableAdaptiveEngineExposesAllFamilies) {
  const std::string wal_path = TempPath("obs_cov.wal");
  const std::string ckpt_path = TempPath("obs_cov.ck");
  durability::RemoveWalFiles(wal_path);
  std::remove(ckpt_path.c_str());

  DurabilityOptions dopts;
  dopts.group_commit = true;
  dopts.checkpoint_every_mutations = 0;
  dopts.background_checkpoints = false;
  durability::DurableEngine de;
  Status st;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), RangeOpts(2), dopts,
                                      wal_path, ckpt_path, nullptr, &de, &st))
      << st.message();

  Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    de.engine->SubscribeBox(testutil::RandomBox(rng, kNd, 0.5f));
  }
  RunSomeBatches(de.engine.get(), 6, 128);
  ASSERT_TRUE(de.checkpointer->CheckpointNow());
  de.engine->RebalanceOnce();
  de.engine->SynchronizeEpochs();

  const std::string text = de.engine->DumpMetrics();
  ExpectFamilies(text,
                 {"accl_pipeline_batches_total", "accl_pipeline_events_total",
                  "accl_pipeline_events_routed_total",
                  "accl_pipeline_matches_total", "accl_pipeline_batch_us",
                  "accl_wal_", "accl_ckpt_writes_total", "accl_epoch_pins",
                  "accl_epoch_grace_wait_us", "accl_adapt_windows_evaluated",
                  "accl_rebalance_boundary_moves_total",
                  "accl_rebalance_migration_us", "accl_engine_subscriptions",
                  "accl_kernel_dispatch_", "accl_process_heap_allocs"},
                 "durable adaptive engine");

  // Counters flow: the 128-event batch must be visible.
  const obs::MetricsSnapshot snap = de.engine->metrics().Snapshot();
  const obs::MetricValue* ev = snap.Find("accl_pipeline_events_total");
  ASSERT_NE(ev, nullptr);
  EXPECT_GE(ev->counter, 128u);
  const obs::MetricValue* ck = snap.Find("accl_ckpt_writes_total");
  ASSERT_NE(ck, nullptr);
  EXPECT_EQ(ck->counter, 1u);

  // The public stats structs read the same registry state.
  EXPECT_EQ(de.engine->rebalance_stats().boundary_moves,
            snap.Find("accl_rebalance_boundary_moves_total")->counter);
  EXPECT_EQ(de.engine->adaptive_stats().windows_evaluated,
            snap.Find("accl_adapt_windows_evaluated_total")->counter);

  // The JSON dump carries the same families.
  ExpectFamilies(de.engine->DumpMetricsJson(),
                 {"accl_pipeline_batches_total", "accl_wal_",
                  "accl_epoch_pins", "accl_kernel_dispatch_"},
                 "durable engine json");

  de = durability::DurableEngine();  // checkpointer detaches before engine
  durability::RemoveWalFiles(wal_path);
  std::remove(ckpt_path.c_str());
}

TEST(ObsEngineCoverage, FollowerExposesReplicationFamily) {
  const std::string wal_path = TempPath("obs_repl.wal");
  const std::string ckpt_path = TempPath("obs_repl.ck");
  const std::string rwal_path = TempPath("obs_repl.rwal");
  const std::string rckpt_path = TempPath("obs_repl.rck");
  durability::RemoveWalFiles(wal_path);
  durability::RemoveWalFiles(rwal_path);
  std::remove(ckpt_path.c_str());
  std::remove(rckpt_path.c_str());

  DurabilityOptions dopts;
  dopts.group_commit = true;
  dopts.checkpoint_every_mutations = 0;
  dopts.background_checkpoints = false;
  durability::DurableEngine primary;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), RangeOpts(0), dopts,
                                      wal_path, ckpt_path, nullptr, &primary,
                                      nullptr));
  Rng rng(7);
  for (int i = 0; i < 32; ++i) {
    primary.engine->SubscribeBox(testutil::RandomBox(rng, kNd, 0.5f));
  }

  durability::LogShipper::Options sopts;
  sopts.source_wal_base = wal_path;
  sopts.source_checkpoint_path = ckpt_path;
  sopts.replica_wal_base = rwal_path;
  sopts.replica_checkpoint_path = rckpt_path;
  std::unique_ptr<durability::LogShipper> shipper =
      durability::LogShipper::Create(UnitSchema(), RangeOpts(0), sopts,
                                     nullptr);
  ASSERT_NE(shipper, nullptr);
  ASSERT_TRUE(shipper->ShipOnce().ok());
  EXPECT_EQ(shipper->engine()->subscription_count(), 32u);

  const std::string text = shipper->engine()->DumpMetrics();
  ExpectFamilies(text,
                 {"accl_repl_ship_passes_total",
                  "accl_repl_records_applied_total", "accl_repl_cursor_lsn",
                  "accl_repl_lag_records", "accl_repl_ship_pass_us"},
                 "follower");
  const obs::MetricsSnapshot snap = shipper->engine()->metrics().Snapshot();
  const obs::MetricValue* passes = snap.Find("accl_repl_ship_passes_total");
  ASSERT_NE(passes, nullptr);
  EXPECT_GE(passes->counter, 1u);

  // Destroying the shipper detaches its metrics: the follower engine died
  // with it here, but the detach path itself must not blow up, and a
  // fresh scan of the names must find nothing if the registry survived.
  shipper.reset();

  primary = durability::DurableEngine();
  durability::RemoveWalFiles(wal_path);
  durability::RemoveWalFiles(rwal_path);
  std::remove(ckpt_path.c_str());
  std::remove(rckpt_path.c_str());
}

TEST(ObsFlightRecorder, TracedMatchBatchShowsStagesAcrossWorkers) {
  TraceQuiesce q;
  SubscriptionEngine engine(UnitSchema(), RangeOpts(4));
  Rng rng(13);
  for (int i = 0; i < 256; ++i) {
    engine.SubscribeBox(testutil::RandomBox(rng, kNd, 0.5f));
  }
  // Warm pass untraced, then trace 256-event batches: at least four, and
  // then more, up to a bound, until a pool worker's spans appear beside
  // the caller's. On a loaded host the caller can claim every shard and
  // event of a batch before any worker wakes, so a fixed number of
  // batches may all run on one thread.
  constexpr uint64_t kMaxTracedBatches = 400;
  RunSomeBatches(&engine, 21, 256);
  std::string json;
  std::set<std::string> tids;
  for (uint64_t b = 0; b < kMaxTracedBatches && (b < 4 || tids.size() < 2);
       ++b) {
    SubscriptionEngine::SetTracing(true);
    ASSERT_TRUE(SubscriptionEngine::tracing_enabled());
    RunSomeBatches(&engine, 22 + b, 256);
    SubscriptionEngine::SetTracing(false);
    json = engine.DumpTrace();
    tids.clear();
    for (size_t at = json.find("\"tid\":"); at != std::string::npos;
         at = json.find("\"tid\":", at + 1)) {
      const size_t end = json.find_first_of(",}", at + 6);
      tids.insert(json.substr(at + 6, end - at - 6));
    }
  }

  // Per-stage spans of the batch pipeline are all present.
  for (const char* span :
       {"match_batch", "route_scatter", "shard_execute", "finalize_event"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + span + "\""),
              std::string::npos)
        << "missing span " << span;
  }
  // The spans landed on more than one thread: the pool fan-out records
  // each worker's ring under its own dense tid.
  EXPECT_GE(tids.size(), 2u) << json.substr(0, 2000);
}

TEST(ObsFlightRecorder, TracingDoesNotPerturbMatchResults) {
  TraceQuiesce q;
  SubscriptionEngine engine(UnitSchema(), RangeOpts(2));
  Rng rng(31);
  for (int i = 0; i < 128; ++i) {
    engine.SubscribeBox(testutil::RandomBox(rng, kNd, 0.5f));
  }
  Rng erng(32);
  std::vector<Event> events;
  for (int i = 0; i < 128; ++i) {
    events.push_back(Event::Range(testutil::RandomBox(erng, kNd, 0.4f)));
  }
  MatchBatchResult off;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &off);
  SubscriptionEngine::SetTracing(true);
  MatchBatchResult on;
  engine.MatchBatch(Span<const Event>(events.data(), events.size()), &on);
  SubscriptionEngine::SetTracing(false);
  ASSERT_EQ(off.matches.size(), on.matches.size());
  for (size_t e = 0; e < off.matches.size(); ++e) {
    EXPECT_EQ(off.matches[e], on.matches[e]) << "event " << e;
  }
}

}  // namespace
}  // namespace accl
