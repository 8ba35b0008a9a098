// match_stream: a range-routed SubscriptionEngine (kRange shards, adaptive
// routing, periodic rebalance) fed fixed-size range-event batches by one
// caller in a closed loop, with a trickle of subscription churn before each
// batch. Subscriptions are narrow (Zipf placed) on two "hot" attributes and
// wide elsewhere; the events are narrow on one hot attribute and span the
// other's Zipf head, and which one is narrow drifts every `phase_batches`
// batches — so inside the timed window the advisor keeps switching the
// fence dimension, the rebalancer keeps moving boundaries, and both migrate
// subscriptions under the epoch protocol. Routing, the shard pipeline, epoch
// grace periods and migration do most of the work; no WAL is attached.
//
// op = one event; call = one MatchBatch.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/trace.h"
#include "sdi/subscription_engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using accl::Box;
using accl::Event;
using accl::SubscriptionEngine;

struct Sizes {
  size_t subscriptions;  ///< live set size (kept constant by the churn)
  size_t batch;          ///< events per MatchBatch call
  size_t pool_batches;   ///< distinct batches per event population
  size_t phase_batches;  ///< batches before the hot attribute drifts
  size_t churn;          ///< subscribes and unsubscribes per batch
  size_t extra_pool;     ///< distinct boxes the churn subscribes
  size_t setups;
  size_t checked_calls;  ///< calls whose answers are checked by brute force
  uint32_t sample_window;
  uint32_t rebalance_period;
};

constexpr Sizes kFull = {30000, 64, 32, 96, 4, 16384, 3, 64, 256, 4096};
constexpr Sizes kSmoke = {3000, 64, 4, 48, 4, 512, 2, 8, 256, 256};
constexpr accl::Dim kNd = 8;
constexpr accl::Dim kHot[2] = {2, 5};
constexpr size_t kZipfBins = 64;
constexpr double kZipfS = 1.1;

void SetWide(Box* b, accl::Dim d, accl::Rng& rng, float lo, float hi) {
  const float len = lo + (hi - lo) * rng.NextFloat();
  const float start = (1.0f - len) * rng.NextFloat();
  b->set(d, start, start + len);
}

/// Narrow interval inside one Zipf-chosen bin of the domain.
void SetZipf(Box* b, accl::Dim d, accl::Rng& rng,
             const accl::ZipfDistribution& zipf) {
  const float cell = 1.0f / static_cast<float>(kZipfBins);
  const float len = cell * (0.2f + 0.6f * rng.NextFloat());
  const float start = static_cast<float>(zipf.Sample(rng)) * cell +
                      (cell - len) * rng.NextFloat();
  b->set(d, start, start + len);
}

Box Subscription(accl::Rng& rng, const accl::ZipfDistribution& zipf) {
  Box b(kNd);
  for (accl::Dim d = 0; d < kNd; ++d) SetWide(&b, d, rng, 0.05f, 0.3f);
  SetZipf(&b, kHot[0], rng, zipf);
  SetZipf(&b, kHot[1], rng, zipf);
  return b;
}

struct Inputs {
  std::vector<Box> subs;   ///< the initial live set
  std::vector<Box> extra;  ///< what the churn subscribes, cyclically
  /// pool[p][j * batch + e]: event e of distinct batch j of population p.
  std::vector<Event> pool[2];
};

Inputs MakeInputs(const Sizes& sz, uint64_t seed) {
  const accl::ZipfDistribution zipf(kZipfBins, kZipfS);
  accl::Rng rng(seed * 7919 + 3);
  Inputs in;
  for (size_t i = 0; i < sz.subscriptions; ++i) in.subs.push_back(Subscription(rng, zipf));
  for (size_t i = 0; i < sz.extra_pool; ++i) in.extra.push_back(Subscription(rng, zipf));
  for (int p = 0; p < 2; ++p) {
    const size_t n = sz.pool_batches * sz.batch;
    in.pool[p].reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Box b(kNd);
      for (accl::Dim d = 0; d < kNd; ++d) SetWide(&b, d, rng, 0.0f, 0.1f);
      SetZipf(&b, kHot[p], rng, zipf);
      // Wide from the bottom of the domain, so it spans the Zipf head where
      // the fences of this attribute crowd: routed on it, the event visits
      // every range shard.
      const float lo = 0.02f * rng.NextFloat();
      b.set(kHot[1 - p], lo, lo + 0.5f + 0.4f * rng.NextFloat());
      in.pool[p].push_back(Event::Range(std::move(b)));
    }
  }
  return in;
}

/// Digest of one batch's answer: per-event set digests weighted by
/// position, so a match reported for the wrong event is caught.
uint64_t BatchDigest(const std::vector<std::vector<accl::ObjectId>>& matches,
                     size_t n) {
  uint64_t h = 0;
  for (size_t e = 0; e < n; ++e) {
    h += (2 * e + 1) * SetDigest(matches[e].data(), matches[e].size());
  }
  return h;
}

/// The engine and the stream position. Step g subscribes `churn` new
/// boxes, unsubscribes the `churn` oldest live ids (ids in `seq` are in
/// subscription order), then matches batch g. The churn is what keeps the
/// adaptive router able to act: its pattern tracker forgets subscription
/// samples after four advisor windows, and a switch clears them, so a
/// static live set would leave it blind for the rest of the run. During
/// MatchBatch g the live set is seq[(g+1)*churn, N + (g+1)*churn).
struct Stream {
  const Inputs* in = nullptr;
  const Sizes* sz = nullptr;
  std::unique_ptr<SubscriptionEngine> engine;
  std::vector<accl::SubscriptionId> seq;
  size_t g = 0;
  uint64_t refused = 0;
  double bulk_load_s = 0.0;
  accl::MatchBatchResult res;
  std::vector<accl::SubscriptionId> fresh;

  accl::Span<const Event> Batch(size_t step) const {
    const size_t p = (step / sz->phase_batches) & 1;
    const size_t j = step % sz->pool_batches;
    return accl::Span<const Event>(in->pool[p].data() + j * sz->batch, sz->batch);
  }
  const Box& BoxOf(size_t seq_index) const {
    const size_t n = in->subs.size();
    return seq_index < n ? in->subs[seq_index]
                         : in->extra[(seq_index - n) % in->extra.size()];
  }

  /// One step; returns the MatchBatch wall time in ns.
  uint64_t Step(SpanLog::Thread* spans, uint64_t parent) {
    const size_t c = sz->churn;
    const uint64_t t0 = NowNs();
    engine->SubscribeBatch(
        accl::Span<const Box>(in->extra.data() + (g * c) % in->extra.size(), c),
        &fresh);
    const uint64_t t1 = NowNs();
    if (fresh.size() != c) ++refused;
    seq.insert(seq.end(), fresh.begin(), fresh.end());
    for (size_t j = 0; j < c; ++j) {
      if (!engine->Unsubscribe(seq[g * c + j])) ++refused;
    }
    const uint64_t t2 = NowNs();
    engine->MatchBatch(Batch(g), &res);
    const uint64_t t3 = NowNs();
    if (spans != nullptr) {
      spans->Add("sdi.SubscribeBatch", t0, t1, parent, g);
      spans->Add("sdi.Unsubscribe", t1, t2, parent, g);
      spans->Add("sdi.MatchBatch", t2, t3, parent, g);
    }
    ++g;
    return t3 - t2;
  }
};

/// Creates the engine, bulk-loads the live set and streams two whole drift
/// cycles, so the timed window starts (at population A) in the periodic
/// regime it then measures.
std::unique_ptr<Stream> SetUp(const Inputs& in, const Sizes& sz,
                              SpanLog::Thread* spans, uint64_t parent) {
  accl::AttributeSchema schema;
  for (accl::Dim d = 0; d < kNd; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  accl::EngineOptions o;
  o.default_policy = accl::MatchPolicy::kIntersecting;
  o.shards = 8;
  // The caller alone runs the pipeline (no pool workers). With a pool, every
  // hand-off stalls while another tenant of the host holds a vCPU: in a slow
  // spell of the host the two-thread pipeline lost 30% where single-thread
  // work lost 15%, and no bound the benchmark may set held.
  o.match_threads = 1;
  o.sharding = accl::ShardingPolicy::kRange;
  o.rebalance_period = sz.rebalance_period;
  o.adaptive.enabled = true;
  o.adaptive.sample_window = sz.sample_window;
  o.adaptive.overflow_split_shards = 2;
  auto s = std::make_unique<Stream>();
  s->in = &in;
  s->sz = &sz;
  accl::Status st;
  s->engine = SubscriptionEngine::Create(std::move(schema), o, &st);
  if (s->engine == nullptr) {
    std::fprintf(stderr, "perfbench: engine options refused: %s\n",
                 st.message().c_str());
    return nullptr;
  }
  const uint64_t t0 = NowNs();
  s->engine->SubscribeBatch(accl::Span<const Box>(in.subs.data(), in.subs.size()),
                            &s->seq);
  const uint64_t t1 = NowNs();
  s->bulk_load_s = 1e-9 * static_cast<double>(t1 - t0);
  if (spans != nullptr) spans->Add("sdi.SubscribeBatch", t0, t1, parent, 0);
  s->seq.reserve(in.subs.size() + 200000 * sz.churn);
  while (s->g < 4 * sz.phase_batches) s->Step(spans, parent);
  return s;
}

struct Window {
  size_t first_step = 0;
  size_t calls = 0;
  double seconds = 0.0;
  std::vector<double> call_us;
  std::vector<uint64_t> digests;
  uint64_t visits = 0, verified = 0, matches = 0;
  uint64_t visits_tail = 0, events_tail = 0;
  accl::QueryMetrics total;
  uint64_t executions = 0;
  double cpu_s = 0.0;
  uint64_t allocs = 0;
};

Window RunWindow(Stream* st, double seconds, SpanLog::Thread* spans,
                 uint64_t parent) {
  const Sizes& sz = *st->sz;
  Window w;
  w.first_step = st->g;
  const size_t cap = static_cast<size_t>(20000.0 * seconds) + 1024;
  w.call_us.reserve(cap);
  w.digests.reserve(cap);
  std::vector<uint64_t> visits;
  visits.reserve(cap);
  if (spans != nullptr) spans->Reserve(3 * cap + 16);
  const double cpu0 = CpuSeconds();
  const uint64_t alloc0 = HeapAllocs();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = start;
  while (now < deadline && w.call_us.size() < cap) {
    const uint64_t ns = st->Step(spans, parent);
    now = NowNs();
    const accl::MatchBatchResult& res = st->res;
    w.call_us.push_back(1e-3 * static_cast<double>(ns));
    w.digests.push_back(BatchDigest(res.matches, sz.batch));
    visits.push_back(res.TotalShardVisits());
    w.verified += res.total.objects_verified;
    w.matches += res.total.result_count;
    w.total += res.total;
    for (const accl::ShardMetrics& s : res.per_shard) w.executions += s.executions;
  }
  w.seconds = 1e-9 * static_cast<double>(now - start);
  w.cpu_s = CpuSeconds() - cpu0;
  w.allocs = HeapAllocs() - alloc0;
  w.calls = w.call_us.size();
  for (size_t i = 0; i < visits.size(); ++i) {
    w.visits += visits[i];
    if (4 * i >= 3 * visits.size()) {
      w.visits_tail += visits[i];
      w.events_tail += sz.batch;
    }
  }
  return w;
}

}  // namespace

Result RunMatchStream(const Args& args) {
  const Sizes& sz = args.smoke ? kSmoke : kFull;
  Result r;
  const auto fail = [&r]() {
    r.correct = false;
    r.attempted = r.failed = 1;
    return r;
  };
  Progress("match_stream: generating inputs");
  const Inputs in = MakeInputs(sz, args.seed);

  Progress("match_stream: set-up and timed window");
  std::unique_ptr<Stream> st;
  Window w;
  SpanLog log;
  std::vector<double> setup_s;
  const auto timed_setup = [&]() {
    const uint64_t t0 = NowNs();
    std::unique_ptr<Stream> s = SetUp(in, sz, nullptr, 0);
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - t0));
    return s;
  };
  if (!args.trace) {
    // The window runs on the first set-up; the others, which only time
    // set-up again, run after the checks, so rss_peak_mib sees one engine.
    st = timed_setup();
    if (st == nullptr) return fail();
    w = RunWindow(st.get(), args.seconds, nullptr, 0);
    // Whole-window figures: migrations, each tens of milliseconds, come
    // every few dozen calls, so one-second slices differ by how many each
    // holds and their median moved more than the window's mean.
    r.Add("ops_per_s", static_cast<double>(w.calls * sz.batch) / w.seconds, "1/s");
    std::vector<double> lat = w.call_us;
    r.Add("call_p50_us", Percentile(&lat, 0.50), "us");
    r.Add("call_p99_us", Percentile(&lat, 0.99), "us");
    r.Add("rss_peak_mib", RssPeakMib(), "MiB");
  } else {
    // Untraced reference window first (for obs.tracing_overhead), then a
    // fresh set-up and the traced window the per-layer numbers come from.
    st = SetUp(in, sz, nullptr, 0);
    if (st == nullptr) return fail();
    const Window ref = RunWindow(st.get(), args.seconds, nullptr, 0);
    st.reset();
    SpanLog::Thread* th = log.NewThread();
    const uint64_t run = th->Open("bench.run", SpanLog::kNoParent, args.seed);
    const uint64_t setup = th->Open("bench.setup", run, 0);
    st = SetUp(in, sz, th, setup);
    if (st == nullptr) return fail();
    th->Close(setup);
    SubscriptionEngine* eng = st->engine.get();
    const accl::obs::MetricsSnapshot m0 = eng->metrics().Snapshot();
    const accl::AdaptiveRoutingStats a0 = eng->adaptive_stats();
    const SubscriptionEngine::RebalanceStats b0 = eng->rebalance_stats();
    uint64_t splits0 = 0, merges0 = 0;
    for (size_t s = 0; s < eng->shard_count(); ++s) {
      splits0 += eng->shard_index(s).reorg_stats().splits;
      merges0 += eng->shard_index(s).reorg_stats().merges;
    }
    accl::obs::TraceRecorder::Global().SetRingCapacity(1 << 15);
    SubscriptionEngine::SetTracing(true);
    const uint64_t sync_ns = NowNs();
    accl::obs::TraceRecorder::Global().Record(
        "perfbench.sync", accl::obs::TraceRecorder::kInstant, 0);
    const uint64_t window = th->Open("bench.window", run, 1);
    w = RunWindow(st.get(), args.seconds, th, window);
    th->Close(window);
    SubscriptionEngine::SetTracing(false);
    th->Close(run);
    const accl::obs::MetricsSnapshot d =
        eng->metrics().Snapshot().DeltaSince(m0);
    const accl::AdaptiveRoutingStats a1 = eng->adaptive_stats();
    const SubscriptionEngine::RebalanceStats b1 = eng->rebalance_stats();

    const double events = static_cast<double>(w.calls * sz.batch);
    const double calls = static_cast<double>(w.calls);
    const double ops = events / w.seconds;
    const double ref_ops = static_cast<double>(ref.calls * sz.batch) / ref.seconds;
    r.Add("obs.tracing_overhead", ops / ref_ops, "ratio");
    r.Add("sdi.visits_per_event", static_cast<double>(w.visits) / events, "count");
    r.Add("sdi.verified_per_event", static_cast<double>(w.verified) / events, "count");
    r.Add("sdi.matches_per_event", static_cast<double>(w.matches) / events, "count");
    r.Add("sdi.bulk_load_s", st->bulk_load_s, "s");
    const double claimed = CounterOf(d, "accl_pipeline_chunks_claimed_total");
    r.Add("exec.steal_ratio",
          claimed > 0 ? CounterOf(d, "accl_pipeline_chunks_stolen_total") / claimed : 0.0,
          "ratio");
    r.Add("exec.trylock_failures_per_call",
          CounterOf(d, "accl_pipeline_trylock_failures_total") / calls, "count");
    r.Add("exec.ready_pop_retries_per_call",
          CounterOf(d, "accl_pipeline_ready_pop_retries_total") / calls, "count");
    r.Add("exec.epoch_grace_wait_us.p99", HistOf(d, "accl_epoch_grace_wait_us").p99, "us");
    r.Add("exec.cpu_util", w.cpu_s / w.seconds, "ratio");
    r.Add("exec.heap_allocs_per_call", static_cast<double>(w.allocs) / calls, "count");
    r.Add("adapt.dimension_switches",
          static_cast<double>(a1.dimension_switches - a0.dimension_switches), "count");
    r.Add("adapt.windows_evaluated",
          static_cast<double>(a1.windows_evaluated - a0.windows_evaluated), "count");
    r.Add("adapt.boundary_moves",
          static_cast<double>(b1.boundary_moves - b0.boundary_moves), "count");
    r.Add("adapt.subscriptions_migrated",
          static_cast<double>(b1.subscriptions_migrated - b0.subscriptions_migrated),
          "count");
    r.Add("adapt.migration_us.max", static_cast<double>(HistOf(d, "accl_rebalance_migration_us").max), "us");
    r.Add("adapt.visits_per_event_tail",
          w.events_tail == 0 ? 0.0
                             : static_cast<double>(w.visits_tail) /
                                   static_cast<double>(w.events_tail),
          "count");
    // The shards are AdaptiveIndex instances: their per-execution counters.
    const double execs = static_cast<double>(std::max<uint64_t>(w.executions, 1));
    const accl::QueryMetrics& m = w.total;
    uint64_t clusters = 0, splits = 0, merges = 0;
    for (size_t s = 0; s < eng->shard_count(); ++s) {
      clusters += eng->shard_index(s).cluster_count();
      splits += eng->shard_index(s).reorg_stats().splits;
      merges += eng->shard_index(s).reorg_stats().merges;
    }
    r.Add("core.groups_explored_per_query",
          static_cast<double>(m.groups_explored) / execs, "count");
    r.Add("core.objects_verified_per_query",
          static_cast<double>(m.objects_verified) / execs, "count");
    r.Add("core.results_per_verified",
          m.objects_verified == 0 ? 0.0
                                  : static_cast<double>(m.result_count) /
                                        static_cast<double>(m.objects_verified),
          "ratio");
    r.Add("core.clusters", static_cast<double>(clusters), "count");
    r.Add("core.splits", static_cast<double>(splits - splits0), "count");
    r.Add("core.merges", static_cast<double>(merges - merges0), "count");
    r.Add("kernels.dims_checked_per_verified",
          m.objects_verified == 0 ? 0.0
                                  : static_cast<double>(m.dims_checked) /
                                        static_cast<double>(m.objects_verified),
          "count");
    r.Add("kernels.bytes_verified_per_query",
          static_cast<double>(m.bytes_verified) / execs, "B");
    r.Add("cost.model_ms_per_query", m.sim_time_ms / execs, "ms");
    for (const auto& [layer, secs] : log.LayerSelfSeconds(window)) {
      if (layer == "sdi") r.Add("sdi.self_s", secs, "s");
      if (layer == "bench") r.Add("bench.self_s", secs, "s");
    }
    const std::string path = args.data_dir + "/trace-match_stream.json";
    log.WriteChromeJson(path, eng->DumpTrace(), sync_ns);
    accl::obs::TraceRecorder::Global().Clear();
    r.MetaStr("trace_file", path);
    r.MetaNum("reference_ops_per_s", ref_ops);
    r.MetaNum("shard_executions", static_cast<double>(w.executions));
    r.MetaNum("fence_dimension_final", a1.fence_dimension);
  }

  // Correctness, outside the timed window: the answers of `checked_calls`
  // calls spread evenly over the window, each against a brute-force scan of
  // the live set it ran on (closed-interval overlap in every dimension, the
  // kIntersecting relation). The scan is split over the host's CPUs;
  // nothing else runs by then.
  Progress("match_stream: checking answers");
  const size_t n = std::min(sz.checked_calls, w.calls);
  std::vector<size_t> checked(n);
  for (size_t i = 0; i < n; ++i) checked[i] = i * w.calls / n;
  std::vector<uint64_t> event_digest(n * sz.batch, 0);
  const auto scan = [&](size_t part, size_t parts) {
    std::vector<accl::ObjectId> hits;
    for (size_t x = part; x < event_digest.size(); x += parts) {
      const size_t step = w.first_step + checked[x / sz.batch];
      const float* q = st->Batch(step)[x % sz.batch].box.data();
      const size_t lo = (step + 1) * sz.churn;
      hits.clear();
      for (size_t i = lo; i < lo + sz.subscriptions; ++i) {
        const float* b = st->BoxOf(i).data();
        accl::Dim d = 0;
        while (d < kNd && b[2 * d] <= q[2 * d + 1] && q[2 * d] <= b[2 * d + 1]) ++d;
        if (d == kNd) hits.push_back(st->seq[i]);
      }
      event_digest[x] = SetDigest(hits.data(), hits.size());
    }
  };
  {
    const size_t parts = HostCpus();
    std::vector<std::thread> pool;
    for (size_t t = 1; t < parts; ++t) pool.emplace_back(scan, t, parts);
    scan(0, parts);
    for (std::thread& t : pool) t.join();
  }
  uint64_t wrong = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t expect = 0;
    for (size_t ev = 0; ev < sz.batch; ++ev) {
      expect += (2 * ev + 1) * event_digest[i * sz.batch + ev];
    }
    if (w.digests[checked[i]] != expect) ++wrong;
  }
  r.attempted = w.calls * sz.batch;
  r.failed = wrong * sz.batch + st->refused;
  r.correct = r.failed == 0 && w.calls > 0;
  r.MetaStr("verify_backend", st->engine->shard_index(0).verify_kernel().backend);
  r.MetaNum("shards", static_cast<double>(st->engine->shard_count()));
  if (!args.trace) {
    st.reset();
    while (setup_s.size() < sz.setups) {
      if (timed_setup() == nullptr) return fail();
    }
    r.Add("setup_s", Median(setup_s), "s");
    r.MetaNum("setups", static_cast<double>(setup_s.size()));
  }
  Progress("match_stream: done");

  r.MetaNum("subscriptions", static_cast<double>(sz.subscriptions));
  r.MetaNum("churn_per_call", static_cast<double>(sz.churn));
  r.MetaNum("dims", kNd);
  r.MetaNum("batch_events", static_cast<double>(sz.batch));
  r.MetaNum("phase_batches", static_cast<double>(sz.phase_batches));
  r.MetaNum("bench_threads", 1);
  r.MetaNum("pool_workers", 0);
  r.MetaNum("warmup_batches", static_cast<double>(w.first_step));
  r.MetaNum("checked_calls", static_cast<double>(n));
  r.MetaNum("call_samples", static_cast<double>(w.call_us.size()));
  r.MetaNum("window_s", w.seconds);
  return r;
}

}  // namespace perfbench
