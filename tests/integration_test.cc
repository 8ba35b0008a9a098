// End-to-end mini-experiment mirroring the paper's §7 experimental process:
// load all three competitors, converge the adaptive clustering, then check
// result equality and the qualitative performance ordering.
#include <gtest/gtest.h>

#include "core/adaptive_index.h"
#include "rstar/rstar_tree.h"
#include "seqscan/seq_scan.h"
#include "storage/paged_store.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

using testutil::Load;
using testutil::RunQuery;

TEST(Integration, MiniPaperPipelineDisk) {
  const Dim nd = 16;
  UniformSpec spec;
  spec.nd = nd;
  spec.count = 20000;
  spec.seed = 1;
  Dataset ds = GenerateUniform(spec);

  // Selectivity-calibrated query workload, as in §7.1.
  QueryGenSpec qspec;
  qspec.rel = Relation::kIntersects;
  qspec.count = 1200;
  qspec.target_selectivity = 5e-3;
  qspec.seed = 3;
  QueryWorkload wl = GenerateCalibrated(ds, qspec);

  AdaptiveConfig acfg;
  acfg.nd = nd;
  acfg.scenario = StorageScenario::kDisk;
  AdaptiveIndex ac(acfg);
  SeqScan ss(nd, StorageScenario::kDisk);
  RStarConfig rcfg;
  rcfg.nd = nd;
  rcfg.scenario = StorageScenario::kDisk;
  rcfg.max_entries_override = 64;
  RStarTree rs(rcfg);
  Load(ac, ds);
  Load(ss, ds);
  Load(rs, ds);

  // Warm-up / convergence phase.
  std::vector<ObjectId> out;
  for (size_t i = 0; i + 200 < wl.queries.size(); ++i) {
    out.clear();
    ac.Execute(wl.queries[i], &out);
  }

  // Measurement phase.
  double ac_ms = 0, ss_ms = 0, rs_ms = 0;
  QueryMetrics m;
  for (size_t i = wl.queries.size() - 200; i < wl.queries.size(); ++i) {
    const Query& q = wl.queries[i];
    auto a = RunQuery(ac, q, &m);
    ac_ms += m.sim_time_ms;
    auto s = RunQuery(ss, q, &m);
    ss_ms += m.sim_time_ms;
    auto r = RunQuery(rs, q, &m);
    rs_ms += m.sim_time_ms;
    ASSERT_EQ(a, s);
    ASSERT_EQ(a, r);
  }

  // Paper's qualitative ordering on disk at 16 dimensions:
  // AC <= SS << RS.
  EXPECT_LE(ac_ms, ss_ms * 1.02);
  EXPECT_GT(rs_ms, ss_ms);
}

TEST(Integration, SaveLoadContinuesPipeline) {
  const Dim nd = 8;
  UniformSpec spec;
  spec.nd = nd;
  spec.count = 8000;
  spec.seed = 7;
  Dataset ds = GenerateUniform(spec);

  AdaptiveConfig cfg;
  cfg.nd = nd;
  AdaptiveIndex ac(cfg);
  Load(ac, ds);
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects, 800, 0.1, 9);
  std::vector<ObjectId> out;
  for (const Query& q : qs) {
    out.clear();
    ac.Execute(q, &out);
  }

  // Checkpoint through the paged cluster store, "crash", and rebuild the
  // index from the file alone (paper §6).
  const std::string path = testing::TempDir() + "/accl_integration.pf";
  {
    ClusterFileStore store(PagedFile::Create(path, 16384), nd);
    ASSERT_TRUE(store.PutAll(ac));
    ASSERT_TRUE(store.SaveDirectory());
  }
  auto store = ClusterFileStore::Load(PagedFile::Open(path));
  ASSERT_NE(store, nullptr);
  ASSERT_EQ(store->dims(), nd);
  std::vector<ClusterImage> images;
  ASSERT_TRUE(store->GetAll(&images));
  auto loaded = AdaptiveIndex::FromImages(cfg, images);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->size(), ac.size());
  EXPECT_EQ(loaded->cluster_count(), ac.cluster_count());

  // The recovered index must answer identically and keep adapting:
  // statistics restart empty, and reorganization runs on without
  // violating invariants.
  SeqScan ss(nd);
  Load(ss, ds);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(RunQuery(*loaded, qs[i]), RunQuery(ss, qs[i]));
  }
  loaded->CheckInvariants();
  for (const Query& q : GenerateQueriesWithExtent(nd, Relation::kIntersects,
                                                  300, 0.05, 11)) {
    out.clear();
    loaded->Execute(q, &out);
  }
  loaded->CheckInvariants();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(RunQuery(*loaded, qs[i]), RunQuery(ss, qs[i]));
  }
  std::remove(path.c_str());
}

TEST(Integration, MixedRelationStream) {
  // A single index instance serving all three relations plus inserts and
  // deletes interleaved — the SDI scenario's steady state.
  const Dim nd = 6;
  AdaptiveConfig cfg;
  cfg.nd = nd;
  cfg.reorg_period = 60;
  cfg.min_observation = 16;
  AdaptiveIndex ac(cfg);
  SeqScan ss(nd);

  Rng rng(13);
  ObjectId next = 0;
  std::vector<ObjectId> live;
  std::vector<ObjectId> out;
  for (int step = 0; step < 4000; ++step) {
    const double roll = rng.NextDouble();
    if (roll < 0.3 || live.empty()) {
      Box b = testutil::RandomBox(rng, nd, 0.3f);
      ac.Insert(next, b.view());
      ss.Insert(next, b.view());
      live.push_back(next++);
    } else if (roll < 0.4) {
      size_t k = rng.NextBelow(live.size());
      ASSERT_TRUE(ac.Erase(live[k]));
      ASSERT_TRUE(ss.Erase(live[k]));
      live.erase(live.begin() + k);
    } else {
      Box qb = testutil::RandomBox(rng, nd, 0.4f);
      const Relation rel = roll < 0.6   ? Relation::kIntersects
                           : roll < 0.8 ? Relation::kContainedBy
                                        : Relation::kEncloses;
      Query q(qb, rel);
      ASSERT_EQ(RunQuery(ac, q), RunQuery(ss, q)) << "step " << step;
    }
  }
  ac.CheckInvariants();
  EXPECT_EQ(ac.size(), live.size());
}

}  // namespace
}  // namespace accl
