#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "kernels/backend_registry.h"
#include "util/timer.h"

namespace accl::bench {

namespace {

// ---- BENCH_micro.json registry ----

struct RecordedResult {
  std::string scenario;
  std::string label;
  CompetitorResult result;
};

std::vector<RecordedResult>& Registry() {
  static std::vector<RecordedResult> r;
  return r;
}

std::string& CurrentLabel() {
  static std::string label;
  return label;
}

size_t WarmupPasses() {
  return EnvCount("ACCL_BENCH_WARMUP_PASSES", 1, /*scaled=*/false);
}

size_t TimedReps() {
  return EnvCount("ACCL_BENCH_REPS", 5, /*scaled=*/false);
}

void WriteBenchJson() {
  const std::vector<RecordedResult>& reg = Registry();
  if (reg.empty()) return;
  const char* path = std::getenv("ACCL_BENCH_JSON");
  if (path != nullptr && path[0] == '\0') return;  // explicitly disabled
  if (path == nullptr) path = "BENCH_micro.json";
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  const auto& registry = kernels::BackendRegistry::Instance();
  std::fprintf(f,
               "{\n  \"cpu_features\": \"%s\",\n"
               "  \"verify_backend\": \"%s\",\n"
               "  \"warmup_passes\": %zu,\n  \"timed_reps\": %zu,\n"
               "  \"experiments\": [\n",
               kernels::CpuFeatureString(registry.host()).c_str(),
               registry.Resolve("")->name(), WarmupPasses(), TimedReps());
  for (size_t i = 0; i < reg.size(); ++i) {
    const RecordedResult& rr = reg[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"label\": \"%s\", "
                 "\"competitor\": \"%s\", \"wall_ms_per_query\": %.6f, "
                 "\"sim_ms_per_query\": %.6f, \"groups_total\": %llu, "
                 "\"explored_pct\": %.4f, \"objects_pct\": %.4f, "
                 "\"avg_results\": %.2f, \"verify_backend\": \"%s\", "
                 "\"vector_width_floats\": %u}%s\n",
                 rr.scenario.c_str(), rr.label.c_str(),
                 rr.result.name.c_str(), rr.result.wall_ms_per_query,
                 rr.result.sim_ms_per_query,
                 static_cast<unsigned long long>(rr.result.groups_total),
                 rr.result.explored_pct, rr.result.objects_pct,
                 rr.result.avg_results, rr.result.verify_backend.c_str(),
                 rr.result.vector_width_floats,
                 i + 1 < reg.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

void RecordResults(StorageScenario scenario, const std::string& label,
                   const std::vector<CompetitorResult>& results) {
  if (Registry().empty()) std::atexit(WriteBenchJson);
  for (const CompetitorResult& r : results) {
    Registry().push_back(
        RecordedResult{StorageScenarioName(scenario), label, r});
  }
}

void SetExperimentLabel(const std::string& label) { CurrentLabel() = label; }

namespace {

double EnvScale() {
  const char* s = std::getenv("ACCL_SCALE");
  if (s == nullptr) return 1.0;
  const double v = std::atof(s);
  return v > 0 ? v : 1.0;
}

CompetitorResult Measure(SpatialIndex& idx, const std::vector<Query>& queries,
                         size_t first, size_t count, uint64_t db_size) {
  CompetitorResult r;
  r.name = idx.name();
  const VerifyKernelInfo vk = idx.verify_kernel();
  r.verify_backend = vk.backend;
  r.vector_width_floats = vk.vector_width_floats;

  std::vector<ObjectId> out;
  QueryMetrics m;
  auto one_pass = [&](ExperimentStats* stats) {
    for (size_t i = 0; i < count; ++i) {
      const Query& q = queries[(first + i) % queries.size()];
      out.clear();
      WallTimer t;
      idx.Execute(q, &out, &m);
      if (stats != nullptr) stats->AddQuery(m, t.ElapsedMs(), db_size);
    }
  };

  // Untimed warmup passes fault in caches/branch predictors (and, for AC,
  // absorb any residual adaptation) so the timed passes measure steady
  // state; median-of-N pass means then suppresses scheduler outliers that
  // a single mean would absorb.
  for (size_t w = 0; w < WarmupPasses(); ++w) one_pass(nullptr);

  ExperimentStats stats;
  std::vector<double> pass_means;
  const size_t reps = TimedReps();
  for (size_t rep = 0; rep < reps; ++rep) {
    ExperimentStats pass;
    one_pass(&pass);
    pass_means.push_back(pass.wall_ms.mean());
    if (rep + 1 == reps) stats = pass;  // deterministic columns: any pass
  }
  std::nth_element(pass_means.begin(),
                   pass_means.begin() + pass_means.size() / 2,
                   pass_means.end());
  r.wall_ms_per_query = pass_means[pass_means.size() / 2];
  r.sim_ms_per_query = stats.sim_ms.mean();
  r.groups_total = m.groups_total;
  r.explored_pct = stats.explored_ratio.mean() * 100.0;
  r.objects_pct = stats.verified_ratio.mean() * 100.0;
  r.avg_results = stats.result_count.mean();
  return r;
}

}  // namespace

size_t EnvCount(const char* name, size_t def, bool scaled) {
  size_t v = def;
  if (const char* s = std::getenv(name)) {
    const long long parsed = std::atoll(s);
    if (parsed > 0) v = static_cast<size_t>(parsed);
  } else if (scaled) {
    v = static_cast<size_t>(static_cast<double>(def) * EnvScale());
  }
  return v == 0 ? 1 : v;
}

StaticCompetitors BuildStatic(const Dataset& ds, const HarnessOptions& opt) {
  StaticCompetitors sc;
  if (opt.include_seqscan) {
    sc.ss = std::make_unique<SeqScan>(ds.nd, opt.scenario);
    for (size_t i = 0; i < ds.size(); ++i) sc.ss->Insert(ds.ids[i], ds.box(i));
  }
  if (opt.include_rstar) {
    RStarConfig rcfg = opt.rstar;
    rcfg.nd = ds.nd;
    rcfg.scenario = opt.scenario;
    sc.rs = std::make_unique<RStarTree>(rcfg);
    for (size_t i = 0; i < ds.size(); ++i) sc.rs->Insert(ds.ids[i], ds.box(i));
  }
  return sc;
}

std::vector<CompetitorResult> RunExperiment(const Dataset& ds,
                                            const std::vector<Query>& queries,
                                            const HarnessOptions& opt,
                                            StaticCompetitors* shared) {
  std::vector<CompetitorResult> results;
  const uint64_t n = ds.size();

  StaticCompetitors local;
  if (shared == nullptr) {
    local = BuildStatic(ds, opt);
    shared = &local;
  }
  if (shared->ss) {
    results.push_back(
        Measure(*shared->ss, queries, opt.warmup, opt.measure, n));
  }
  if (shared->rs) {
    results.push_back(
        Measure(*shared->rs, queries, opt.warmup, opt.measure, n));
  }

  {
    AdaptiveConfig acfg = opt.adaptive;
    acfg.nd = ds.nd;
    acfg.scenario = opt.scenario;
    // Single-threaded like SeqScan and the R*-tree it is compared with.
    acfg.verify_threads = 1;
    AdaptiveIndex ac(acfg);
    for (size_t i = 0; i < ds.size(); ++i) ac.Insert(ds.ids[i], ds.box(i));
    // Convergence phase: the structure adapts to the query distribution.
    std::vector<ObjectId> out;
    for (size_t i = 0; i < opt.warmup; ++i) {
      out.clear();
      ac.Execute(queries[i % queries.size()], &out);
    }
    results.push_back(Measure(ac, queries, opt.warmup, opt.measure, n));
  }

  std::string label = CurrentLabel();
  if (label.empty()) {
    static int ordinal = 0;
    label = "experiment-" + std::to_string(ordinal++);
  }
  RecordResults(opt.scenario, label, results);
  return results;
}

void PrintTableHeader(const char* x_name, bool disk) {
  std::printf("%-10s | %-4s | %12s | %12s | %8s | %7s | %7s | %9s\n", x_name,
              "idx", disk ? "sim ms/q" : "wall ms/q", "model ms/q", "groups",
              "expl.%", "objs.%", "avg.res");
  std::printf("%.*s\n", 95,
              "---------------------------------------------------------------"
              "--------------------------------");
}

void PrintResultsRow(const std::string& x_label,
                     const std::vector<CompetitorResult>& results, bool disk) {
  for (const CompetitorResult& r : results) {
    std::printf("%-10s | %-4s | %12.4f | %12.4f | %8llu | %7.2f | %7.2f | %9.1f\n",
                x_label.c_str(), r.name.c_str(),
                disk ? r.sim_ms_per_query : r.wall_ms_per_query,
                r.sim_ms_per_query,
                static_cast<unsigned long long>(r.groups_total),
                r.explored_pct, r.objects_pct, r.avg_results);
  }
}

}  // namespace accl::bench
