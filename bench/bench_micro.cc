// Micro-benchmarks (google-benchmark) for the primitive operations whose
// costs parameterize the paper's cost model: per-object verification (the C
// parameter), signature checks (A), candidate statistics maintenance (part
// of B), and structure maintenance operations.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "core/adaptive_index.h"
#include "core/clustering_function.h"
#include "core/signature.h"
#include "geometry/predicates.h"
#include "kernels/backend_registry.h"
#include "rstar/rstar_tree.h"
#include "seqscan/seq_scan.h"
#include "storage/slot_array.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

Dataset MakeData(Dim nd, size_t n) {
  UniformSpec spec;
  spec.nd = nd;
  spec.count = n;
  spec.seed = 9;
  return GenerateUniform(spec);
}

void BM_PredicateIntersects(benchmark::State& state) {
  const Dim nd = static_cast<Dim>(state.range(0));
  Dataset ds = MakeData(nd, 1024);
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 64, 0.3, 1);
  size_t i = 0, j = 0;
  for (auto _ : state) {
    bool r = Satisfies(ds.box(i++ & 1023), qs[j++ & 63].box.view(),
                       Relation::kIntersects);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredicateIntersects)->Arg(16)->Arg(40);

void BM_SignatureAdmitsQuery(benchmark::State& state) {
  const Dim nd = static_cast<Dim>(state.range(0));
  Signature sig(nd);
  sig.set(0, {0.0f, 0.25f, false}, {0.25f, 0.5f, false});
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 64, 0.1, 2);
  size_t j = 0;
  for (auto _ : state) {
    bool r = sig.AdmitsQuery(qs[j++ & 63]);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignatureAdmitsQuery)->Arg(16)->Arg(40);

void BM_SignatureMatchesObject(benchmark::State& state) {
  const Dim nd = static_cast<Dim>(state.range(0));
  Signature sig(nd);
  Dataset ds = MakeData(nd, 1024);
  size_t i = 0;
  for (auto _ : state) {
    bool r = sig.MatchesObject(ds.box(i++ & 1023));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignatureMatchesObject)->Arg(16)->Arg(40);

void BM_CandidateAccountQuery(benchmark::State& state) {
  const Dim nd = static_cast<Dim>(state.range(0));
  Signature sig(nd);
  CandidateSet cs(sig, 4, 0.0);
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 64, 0.1, 3);
  size_t j = 0;
  for (auto _ : state) {
    cs.AccountQuery(qs[j++ & 63]);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["candidates"] = static_cast<double>(cs.size());
}
BENCHMARK(BM_CandidateAccountQuery)->Arg(16)->Arg(40);

void BM_CandidateAccountObject(benchmark::State& state) {
  const Dim nd = static_cast<Dim>(state.range(0));
  Signature sig(nd);
  CandidateSet cs(sig, 4, 0.0);
  Dataset ds = MakeData(nd, 1024);
  size_t i = 0;
  for (auto _ : state) {
    cs.AccountObject(ds.box(i++ & 1023), +1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CandidateAccountObject)->Arg(16)->Arg(40);

void BM_SlotArrayAppend(benchmark::State& state) {
  const Dim nd = 16;
  Dataset ds = MakeData(nd, 4096);
  for (auto _ : state) {
    SlotArray a(nd);
    for (size_t i = 0; i < 4096; ++i) a.Append(ds.ids[i], ds.box(i));
    benchmark::DoNotOptimize(a.size());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_SlotArrayAppend);

void BM_AdaptiveInsert(benchmark::State& state) {
  const Dim nd = 16;
  Dataset ds = MakeData(nd, 20000);
  for (auto _ : state) {
    AdaptiveConfig cfg;
    cfg.nd = nd;
    AdaptiveIndex idx(cfg);
    for (size_t i = 0; i < ds.size(); ++i) idx.Insert(ds.ids[i], ds.box(i));
    benchmark::DoNotOptimize(idx.size());
  }
  state.SetItemsProcessed(state.iterations() * ds.size());
}
BENCHMARK(BM_AdaptiveInsert)->Unit(benchmark::kMillisecond);

void BM_RStarInsert(benchmark::State& state) {
  const Dim nd = 16;
  Dataset ds = MakeData(nd, 5000);
  for (auto _ : state) {
    RStarConfig cfg;
    cfg.nd = nd;
    RStarTree t(cfg);
    for (size_t i = 0; i < ds.size(); ++i) t.Insert(ds.ids[i], ds.box(i));
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(state.iterations() * ds.size());
}
BENCHMARK(BM_RStarInsert)->Unit(benchmark::kMillisecond);

void BM_AdaptiveQueryConverged(benchmark::State& state) {
  const Dim nd = 16;
  Dataset ds = MakeData(nd, 50000);
  AdaptiveConfig cfg;
  cfg.nd = nd;
  AdaptiveIndex idx(cfg);
  for (size_t i = 0; i < ds.size(); ++i) idx.Insert(ds.ids[i], ds.box(i));
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 2048, 0.1, 4);
  std::vector<ObjectId> out;
  for (size_t i = 0; i < 1500; ++i) {
    out.clear();
    idx.Execute(qs[i % qs.size()], &out);
  }
  size_t j = 0;
  for (auto _ : state) {
    out.clear();
    idx.Execute(qs[j++ & 2047], &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["clusters"] = static_cast<double>(idx.cluster_count());
}
BENCHMARK(BM_AdaptiveQueryConverged)->Unit(benchmark::kMicrosecond);

void BM_SeqScanQuery(benchmark::State& state) {
  const Dim nd = 16;
  Dataset ds = MakeData(nd, 50000);
  SeqScan ss(nd);
  for (size_t i = 0; i < ds.size(); ++i) ss.Insert(ds.ids[i], ds.box(i));
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 2048, 0.1, 4);
  std::vector<ObjectId> out;
  size_t j = 0;
  for (auto _ : state) {
    out.clear();
    ss.Execute(qs[j++ & 2047], &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SeqScanQuery)->Unit(benchmark::kMicrosecond);

// Placement layer (paper Fig. 4) on its own: 4096 objects into a converged
// index, through a loop of Insert's per-object descent (bulk:0) or through
// BulkInsert in batches of n (bulk:1). Batches too small for the
// cluster-major pass (AdaptiveIndex::PlacesAsBatch) take the descent, so
// the n = 1 and 4 arms time that side of BulkInsert's choice and n = 32
// and 4096 the pass. Each iteration erases the objects again, untimed;
// placement depends only on the access probabilities, which neither
// insertion nor erasure touches.
void BM_AdaptiveBulkInsert(benchmark::State& state) {
  const Dim nd = 16;
  const size_t stride = 2 * static_cast<size_t>(nd);
  Dataset ds = MakeData(nd, 3000);
  AdaptiveConfig cfg;
  cfg.nd = nd;
  AdaptiveIndex idx(cfg);
  for (size_t i = 0; i < ds.size(); ++i) idx.Insert(ds.ids[i], ds.box(i));
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 2048, 0.3, 4);
  std::vector<ObjectId> out;
  for (size_t i = 0; i < 800; ++i) {
    out.clear();
    idx.Execute(qs[i % qs.size()], &out);
  }
  UniformSpec spec;
  spec.nd = nd;
  spec.count = 4096;
  spec.seed = 10;
  const Dataset batch = GenerateUniform(spec);
  std::vector<ObjectId> ids(batch.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = 1000000 + batch.ids[i];
  const bool bulk = state.range(0) != 0;
  const size_t n = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    if (bulk) {
      for (size_t b = 0; b < ids.size(); b += n) {
        const size_t m = std::min(n, ids.size() - b);
        idx.BulkInsert(Span<const ObjectId>(ids.data() + b, m),
                       Span<const float>(batch.coords.data() + b * stride,
                                         m * stride));
      }
    } else {
      for (size_t i = 0; i < ids.size(); ++i) idx.Insert(ids[i], batch.box(i));
    }
    benchmark::DoNotOptimize(idx.size());
    state.PauseTiming();
    idx.BulkErase(Span<const ObjectId>(ids.data(), ids.size()));
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
  state.counters["clusters"] = static_cast<double>(idx.cluster_count());
  state.counters["batch_pass"] =
      bulk && AdaptiveIndex::PlacesAsBatch(n, idx.cluster_count()) ? 1 : 0;
}
BENCHMARK(BM_AdaptiveBulkInsert)
    ->ArgNames({"bulk", "n"})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 32})
    ->Args({1, 4096})
    ->Unit(benchmark::kMicrosecond);

void BM_UniformGeneration(benchmark::State& state) {
  for (auto _ : state) {
    UniformSpec spec;
    spec.nd = 16;
    spec.count = 10000;
    spec.seed = 7;
    Dataset ds = GenerateUniform(spec);
    benchmark::DoNotOptimize(ds.size());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_UniformGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

// Per-backend verification kernel sweep (the cost model's C parameter,
// per ISA variant). One entry per registered backend is registered from
// main(), so the JSON output carries a BM_VerifyBatch/<backend>/nd<D> row
// for every kernel the host can execute, alongside the detected CPU
// features in the benchmark context. Outside the anonymous namespace so
// main() below can name it.
void RunVerifyBatch(benchmark::State& state,
                    const kernels::VerifyBackend* backend, Dim nd) {
  Dataset ds = MakeData(nd, 50000);
  SlotArray a(nd);
  for (size_t i = 0; i < ds.size(); ++i) a.Append(ds.ids[i], ds.box(i));
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 64, 0.3, 5);
  BatchQuery bq;
  std::vector<ObjectId> out;
  size_t j = 0;
  for (auto _ : state) {
    bq.Assign(qs[j++ & 63].box.view(), qs[0].rel);
    out.clear();
    uint64_t dims = 0;
    const size_t m = backend->VerifyBatch(a.coords_data(), a.ids().data(),
                                          a.size(), bq, &out, &dims);
    benchmark::DoNotOptimize(m);
    benchmark::DoNotOptimize(dims);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size()));
  state.counters["vector_width"] =
      static_cast<double>(backend->vector_width_floats());
}

}  // namespace accl

// Custom main instead of BENCHMARK_MAIN: the verify-kernel benchmarks are
// registered dynamically, one per backend the registry offers on this host.
int main(int argc, char** argv) {
  const auto& reg = accl::kernels::BackendRegistry::Instance();
  for (const accl::kernels::VerifyBackend* b : reg.All()) {
    for (accl::Dim nd : {accl::Dim(16), accl::Dim(40)}) {
      benchmark::RegisterBenchmark(
          ("BM_VerifyBatch/" + std::string(b->name()) + "/nd" +
           std::to_string(nd))
              .c_str(),
          [b, nd](benchmark::State& state) {
            accl::RunVerifyBatch(state, b, nd);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("cpu_features",
                              accl::kernels::CpuFeatureString(reg.host()));
  benchmark::AddCustomContext("verify_backend_active",
                              reg.Resolve("")->name());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
