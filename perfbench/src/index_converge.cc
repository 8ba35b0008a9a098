// index_converge: the paper's Fig. 7 memory experiment on AdaptiveIndex
// alone. 16-d uniform extended objects, intersection queries calibrated to
// a fixed selectivity, one caller in a closed loop. The timed stream
// alternates between two query populations (selectivity A and a ten times
// less selective B) every `phase_len` queries, so reorganization keeps
// splitting and merging inside the timed window. core, kernels and cost do
// all the work; sdi, exec, adapt and durability do none.
//
// op = one query; call = one AdaptiveIndex::Execute.
#include <algorithm>
#include <memory>
#include <vector>

#include "common.h"
#include "core/adaptive_index.h"
#include "seqscan/seq_scan.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace perfbench {
namespace {

using accl::AdaptiveConfig;
using accl::AdaptiveIndex;
using accl::Query;
using accl::QueryMetrics;

struct Sizes {
  size_t objects;
  size_t pool;        ///< distinct queries per population
  size_t phase_len;   ///< queries before the stream switches population
  size_t warmup_cap;  ///< warm-up stops here even if reorganization churns
  size_t setups;      ///< set-ups per untraced run (setup_s is their median)
  size_t prefix;      ///< timed calls the exact per-query counters cover
  double sel_a;
  double sel_b;
};

constexpr Sizes kFull = {100000, 1024, 2048, 40000, 3, 4096, 5e-4, 5e-3};
constexpr Sizes kSmoke = {4000, 64, 128, 3000, 2, 256, 2e-3, 2e-2};
constexpr accl::Dim kNd = 16;

struct Inputs {
  accl::Dataset data;
  std::vector<Query> pool[2];
};

/// Builds the index, inserts every object and runs the warm-up prefix
/// (population A) until a reorganization pass changes nothing. Returns the
/// index; `insert_us` (when non-null) receives one sample per Insert.
std::unique_ptr<AdaptiveIndex> SetUp(const Inputs& in, const Sizes& sz,
                                     std::vector<double>* insert_us,
                                     SpanLog::Thread* spans, uint64_t parent,
                                     size_t* warmup_queries) {
  AdaptiveConfig cfg;
  cfg.nd = kNd;
  // Half the paper's period: reorganizing calls are then 2% of all calls,
  // so call_p99_us falls inside their distribution instead of on the edge
  // between plain and reorganizing calls, where it flipped between the two.
  cfg.reorg_period = 50;
  auto idx = std::make_unique<AdaptiveIndex>(cfg);
  for (size_t i = 0; i < in.data.size(); ++i) {
    if (insert_us == nullptr) {
      idx->Insert(in.data.ids[i], in.data.box(i));
    } else {
      const uint64_t t0 = NowNs();
      idx->Insert(in.data.ids[i], in.data.box(i));
      const uint64_t t1 = NowNs();
      insert_us->push_back(1e-3 * static_cast<double>(t1 - t0));
      if (spans != nullptr) spans->Add("core.Insert", t0, t1, parent, i);
    }
  }
  std::vector<accl::ObjectId> out;
  size_t k = 0;
  uint64_t passes = idx->reorg_stats().passes;
  while (k < sz.warmup_cap) {
    out.clear();
    const uint64_t t0 = spans != nullptr ? NowNs() : 0;
    idx->Execute(in.pool[0][k % sz.pool], &out);
    if (spans != nullptr) spans->Add("core.Execute", t0, NowNs(), parent, k);
    ++k;
    const accl::ReorgStats& rs = idx->reorg_stats();
    if (rs.passes != passes) {
      passes = rs.passes;
      if (rs.passes >= 2 && rs.last_pass_splits == 0 &&
          rs.last_pass_merges == 0) {
        break;
      }
    }
  }
  *warmup_queries = k;
  return idx;
}

struct Window {
  size_t calls = 0;
  double seconds = 0.0;
  std::vector<double> call_us;
  std::vector<uint64_t> digests;  ///< per call, SetDigest of the answer
  // Traced-only detail.
  std::vector<double> query_us;  ///< calls that ran no reorganization pass
  std::vector<double> reorg_us;  ///< calls that ran one
  QueryMetrics prefix;           ///< summed over the first `prefix` calls
  double prefix_wall_ms = 0.0;
  size_t prefix_calls = 0;
  uint64_t splits = 0, merges = 0;
  double cpu_s = 0.0;
  uint64_t allocs = 0;
};

const Query& StreamQuery(const Inputs& in, const Sizes& sz, size_t k) {
  return in.pool[(k / sz.phase_len) & 1][k % sz.pool];
}

Window RunWindow(AdaptiveIndex* idx, const Inputs& in, const Sizes& sz,
                 double seconds, bool traced, SpanLog::Thread* spans,
                 uint64_t parent) {
  Window w;
  // Sized so the loop never reallocates inside the window (the allocation
  // count is a reported metric).
  const size_t cap = static_cast<size_t>(100000.0 * seconds) + 4096;
  w.call_us.reserve(cap);
  w.digests.reserve(cap);
  if (traced) {
    w.query_us.reserve(cap);
    spans->Reserve(cap + 1024);
  }
  std::vector<accl::ObjectId> out;
  out.reserve(in.data.size());
  QueryMetrics m;
  const accl::ReorgStats rs0 = idx->reorg_stats();
  const double cpu0 = CpuSeconds();
  const uint64_t alloc0 = HeapAllocs();
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = start;
  size_t k = 0;
  while (now < deadline && w.call_us.size() < w.call_us.capacity()) {
    const Query& q = StreamQuery(in, sz, k);
    out.clear();
    const uint64_t passes = traced ? idx->reorg_stats().passes : 0;
    const uint64_t t0 = NowNs();
    idx->Execute(q, &out, traced ? &m : nullptr);
    now = NowNs();
    const double us = 1e-3 * static_cast<double>(now - t0);
    w.call_us.push_back(us);
    w.digests.push_back(SetDigest(out.data(), out.size()));
    if (traced) {
      spans->Add("core.Execute", t0, now, parent, k);
      if (idx->reorg_stats().passes != passes) {
        w.reorg_us.push_back(us);
      } else {
        w.query_us.push_back(us);
      }
      if (k < sz.prefix) {
        w.prefix += m;
        w.prefix_wall_ms += 1e-3 * us;
        ++w.prefix_calls;
      }
    }
    ++k;
  }
  w.seconds = 1e-9 * static_cast<double>(now - start);
  w.cpu_s = CpuSeconds() - cpu0;
  w.allocs = HeapAllocs() - alloc0;
  w.calls = k;
  w.splits = idx->reorg_stats().splits - rs0.splits;
  w.merges = idx->reorg_stats().merges - rs0.merges;
  return w;
}

}  // namespace

Result RunIndexConverge(const Args& args) {
  const Sizes& sz = args.smoke ? kSmoke : kFull;
  Result r;

  // Inputs and query calibration are benchmark work, done before any clock.
  Progress("index_converge: generating inputs");
  Inputs in;
  accl::UniformSpec us;
  us.nd = kNd;
  us.count = sz.objects;
  us.seed = args.seed;
  in.data = accl::GenerateUniform(us);
  const double sel[2] = {sz.sel_a, sz.sel_b};
  double achieved[2] = {0.0, 0.0};
  for (int p = 0; p < 2; ++p) {
    accl::QueryGenSpec qs;
    qs.rel = accl::Relation::kIntersects;
    qs.count = sz.pool;
    qs.seed = args.seed * 1000003ull + 17 + static_cast<uint64_t>(p);
    qs.target_selectivity = sel[p];
    accl::QueryWorkload qw = accl::GenerateCalibrated(in.data, qs);
    achieved[p] = qw.achieved_selectivity;
    in.pool[p] = std::move(qw.queries);
  }

  Progress("index_converge: set-up and timed window");
  std::unique_ptr<AdaptiveIndex> idx;
  size_t warmup = 0;
  Window w;
  SpanLog log;
  std::vector<double> setup_s;
  const auto timed_setup = [&]() {
    idx.reset();
    const uint64_t t0 = NowNs();
    idx = SetUp(in, sz, nullptr, nullptr, 0, &warmup);
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - t0));
  };
  if (!args.trace) {
    // The window runs on the first set-up; the others, which only time
    // set-up again, run after the checks, so rss_peak_mib sees one index.
    timed_setup();
    w = RunWindow(idx.get(), in, sz, args.seconds, false, nullptr, 0);
    r.Add("ops_per_s", static_cast<double>(w.calls) / w.seconds, "1/s");
    std::vector<double> lat = w.call_us;
    r.Add("call_p50_us", Percentile(&lat, 0.50), "us");
    r.Add("call_p99_us", Percentile(&lat, 0.99), "us");
    r.Add("rss_peak_mib", RssPeakMib(), "MiB");
  } else {
    // Untraced reference window first (for obs.tracing_overhead), then a
    // fresh set-up and the traced window the per-layer numbers come from.
    idx = SetUp(in, sz, nullptr, nullptr, 0, &warmup);
    const Window ref = RunWindow(idx.get(), in, sz, args.seconds, false,
                                 nullptr, 0);
    idx.reset();
    SpanLog::Thread* th = log.NewThread();
    const uint64_t run = th->Open("bench.run", SpanLog::kNoParent, args.seed);
    const uint64_t setup = th->Open("bench.setup", run, 0);
    std::vector<double> insert_us;
    insert_us.reserve(in.data.size());
    idx = SetUp(in, sz, &insert_us, th, setup, &warmup);
    th->Close(setup);
    const uint64_t window = th->Open("bench.window", run, 1);
    w = RunWindow(idx.get(), in, sz, args.seconds, true, th, window);
    th->Close(window);
    th->Close(run);

    const double ops = static_cast<double>(w.calls) / w.seconds;
    const double ref_ops = static_cast<double>(ref.calls) / ref.seconds;
    r.Add("obs.tracing_overhead", ops / ref_ops, "ratio");
    r.Add("core.query_us.p50", Percentile(&w.query_us, 0.50), "us");
    r.Add("core.query_us.p99", Percentile(&w.query_us, 0.99), "us");
    r.Add("core.reorg_call_us.p50", Percentile(&w.reorg_us, 0.50), "us");
    r.Add("core.reorg_call_us.max", Percentile(&w.reorg_us, 1.0), "us");
    const double pc = static_cast<double>(std::max<size_t>(w.prefix_calls, 1));
    const QueryMetrics& m = w.prefix;
    r.Add("core.groups_explored_per_query",
          static_cast<double>(m.groups_explored) / pc, "count");
    r.Add("core.objects_verified_per_query",
          static_cast<double>(m.objects_verified) / pc, "count");
    r.Add("core.results_per_verified",
          m.objects_verified == 0 ? 0.0
                                  : static_cast<double>(m.result_count) /
                                        static_cast<double>(m.objects_verified),
          "ratio");
    r.Add("core.clusters", static_cast<double>(idx->cluster_count()), "count");
    r.Add("core.splits", static_cast<double>(w.splits), "count");
    r.Add("core.merges", static_cast<double>(w.merges), "count");
    r.Add("core.insert_us.p50", Percentile(&insert_us, 0.50), "us");
    r.Add("kernels.dims_checked_per_verified",
          m.objects_verified == 0 ? 0.0
                                  : static_cast<double>(m.dims_checked) /
                                        static_cast<double>(m.objects_verified),
          "count");
    r.Add("kernels.bytes_verified_per_query",
          static_cast<double>(m.bytes_verified) / pc, "B");
    r.Add("cost.model_ms_per_query", m.sim_time_ms / pc, "ms");
    r.Add("cost.model_to_wall",
          w.prefix_wall_ms > 0.0 ? m.sim_time_ms / w.prefix_wall_ms : 0.0,
          "ratio");
    r.Add("exec.cpu_util", w.cpu_s / w.seconds, "ratio");
    r.Add("exec.heap_allocs_per_call",
          static_cast<double>(w.allocs) / static_cast<double>(w.calls),
          "count");
    for (const auto& [layer, secs] : log.LayerSelfSeconds(window)) {
      if (layer == "core") r.Add("core.self_s", secs, "s");
      if (layer == "bench") r.Add("bench.self_s", secs, "s");
    }
    r.MetaNum("prefix_calls", static_cast<double>(w.prefix_calls));
    r.MetaNum("query_us_samples", static_cast<double>(w.query_us.size()));
    r.MetaNum("reorg_call_samples", static_cast<double>(w.reorg_us.size()));
    r.MetaNum("insert_samples", static_cast<double>(insert_us.size()));
    r.MetaNum("reference_ops_per_s", ref_ops);
  }

  Progress("index_converge: checking answers");
  // Correctness, outside the timed window: every answer's digest against
  // Sequential Scan over the same objects (each distinct query is scanned
  // once; the data is static while the stream runs). SeqScan::Insert
  // relocates its whole store on every append, so one instance over all
  // objects loads in quadratic time; the objects are split over SeqScan
  // instances of kSlice objects instead, and because SetDigest is a sum over
  // ids, the digests of the disjoint slice answers add up to the digest of
  // the whole answer.
  constexpr size_t kSlice = 2048;
  SpanLog::Thread* vth = args.trace ? log.NewThread() : nullptr;
  std::vector<std::unique_ptr<accl::SeqScan>> scans;
  for (size_t i = 0; i < in.data.size(); ++i) {
    if (i % kSlice == 0) scans.push_back(std::make_unique<accl::SeqScan>(kNd));
    scans.back()->Insert(in.data.ids[i], in.data.box(i));
  }
  std::vector<uint64_t> oracle[2];
  std::vector<bool> have[2];
  for (int p = 0; p < 2; ++p) {
    oracle[p].assign(sz.pool, 0);
    have[p].assign(sz.pool, false);
  }
  std::vector<accl::ObjectId> out;
  uint64_t wrong = 0;
  for (size_t k = 0; k < w.calls; ++k) {
    const size_t p = (k / sz.phase_len) & 1;
    const size_t qi = k % sz.pool;
    if (!have[p][qi]) {
      const uint64_t t0 = vth != nullptr ? NowNs() : 0;
      uint64_t digest = 0;
      for (const auto& scan : scans) {
        out.clear();
        scan->Execute(in.pool[p][qi], &out);
        digest += SetDigest(out.data(), out.size());
      }
      if (vth != nullptr) {
        vth->Add("seqscan.Execute", t0, NowNs(), SpanLog::kNoParent, k);
      }
      oracle[p][qi] = digest;
      have[p][qi] = true;
    }
    if (w.digests[k] != oracle[p][qi]) ++wrong;
  }
  r.attempted = w.calls;
  r.failed = wrong;
  r.correct = wrong == 0 && w.calls > 0;
  if (!args.trace) {
    while (setup_s.size() < sz.setups) timed_setup();
    r.Add("setup_s", Median(setup_s), "s");
    r.MetaNum("setups", static_cast<double>(setup_s.size()));
  }
  Progress("index_converge: done");
  if (args.trace) {
    const std::string path = args.data_dir + "/trace-index_converge.json";
    log.WriteChromeJson(path);
    r.MetaStr("trace_file", path);
  }

  r.MetaStr("verify_backend", idx->verify_kernel().backend);
  r.MetaNum("objects", static_cast<double>(sz.objects));
  r.MetaNum("dims", kNd);
  r.MetaNum("selectivity_a", achieved[0]);
  r.MetaNum("selectivity_b", achieved[1]);
  r.MetaNum("phase_len", static_cast<double>(sz.phase_len));
  r.MetaNum("warmup_queries", static_cast<double>(warmup));
  r.MetaNum("bench_threads", 1);
  r.MetaNum("pool_workers", 0);
  r.MetaNum("call_samples", static_cast<double>(w.call_us.size()));
  r.MetaNum("window_s", w.seconds);
  return r;
}

}  // namespace perfbench
