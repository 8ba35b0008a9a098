// Disk-based scenario with fail recovery (paper §6): signatures and
// statistics live in memory, cluster members on (simulated) disk; the index
// image — cluster signatures + member objects + a one-block directory — is
// persisted and reloaded, after which fresh statistics are gathered.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/adaptive_index.h"
#include "storage/paged_store.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

using namespace accl;

int main() {
  const Dim nd = 16;
  AdaptiveConfig cfg;
  cfg.nd = nd;
  cfg.scenario = StorageScenario::kDisk;

  // Build a catalog of 80,000 extended objects.
  UniformSpec spec;
  spec.nd = nd;
  spec.count = 80000;
  spec.seed = 31;
  Dataset ds = GenerateUniform(spec);
  AdaptiveIndex catalog(cfg);
  for (size_t i = 0; i < ds.size(); ++i) catalog.Insert(ds.ids[i], ds.box(i));
  std::printf("catalog: %zu objects, %.1f MB (disk scenario)\n",
              catalog.size(),
              static_cast<double>(ds.bytes()) / (1024.0 * 1024.0));

  // Converge the clustering under a selective workload.
  auto queries =
      GenerateQueriesWithExtent(nd, Relation::kIntersects, 2000, 0.3, 33);
  std::vector<ObjectId> out;
  for (const Query& q : queries) {
    out.clear();
    catalog.Execute(q, &out);
  }
  QueryMetrics m;
  out.clear();
  catalog.Execute(queries.front(), &out, &m);
  std::printf("converged: %zu clusters; a query now costs %llu seek(s), "
              "%.2f MB transferred, %.1f ms modeled\n",
              catalog.cluster_count(),
              static_cast<unsigned long long>(m.disk_seeks),
              static_cast<double>(m.disk_bytes) / (1024.0 * 1024.0),
              m.sim_time_ms);
  const double scan_ms =
      catalog.cost_model().ClusterTime(1.0, static_cast<double>(ds.size()));
  std::printf("equivalent Sequential Scan would cost %.1f ms per query\n",
              scan_ms);

  // Persist through the paged cluster store: each cluster in a contiguous
  // run of 16 KB pages with reserve places, plus the one-block directory
  // (paper §6). Then simulate a crash and recover from the file alone.
  const std::string path = "/tmp/accl_disk_catalog.pf";
  {
    auto store = std::make_unique<ClusterFileStore>(
        PagedFile::Create(path, 16384), nd);
    if (store == nullptr || !store->PutAll(catalog) ||
        !store->SaveDirectory()) {
      std::fprintf(stderr, "failed to save %s\n", path.c_str());
      return 1;
    }
    std::printf("checkpointed to %s: %zu clusters in %llu pages "
                "(utilization %.0f%%)\n",
                path.c_str(), store->cluster_count(),
                static_cast<unsigned long long>(store->file().pages_in_use()),
                100.0 * store->utilization());
  }  // store object destroyed: only the file survives the "crash"

  auto reopened = ClusterFileStore::Load(PagedFile::Open(path));
  if (reopened == nullptr) {
    std::fprintf(stderr, "recovery failed\n");
    return 1;
  }
  std::vector<ClusterImage> images;
  if (!reopened->GetAll(&images)) {
    std::fprintf(stderr, "recovery read failed\n");
    return 1;
  }
  auto recovered = AdaptiveIndex::FromImages(cfg, images);
  recovered->CheckInvariants();
  std::printf("recovered: %zu objects in %zu clusters "
              "(statistics restart empty, as §6 allows)\n",
              recovered->size(), recovered->cluster_count());

  // Answers are identical before/after recovery.
  std::vector<ObjectId> a, b;
  catalog.Execute(queries[1], &a);
  recovered->Execute(queries[1], &b);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::printf("spot check: %s (%zu results)\n",
              a == b ? "identical answers" : "MISMATCH", a.size());
  std::remove(path.c_str());
  return a == b ? 0 : 1;
}
