#include <gtest/gtest.h>

#include <cstring>

#include "core/adaptive_index.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

using testutil::Load;
using testutil::RandomBox;

AdaptiveConfig ReorgConfig(Dim nd) {
  AdaptiveConfig cfg;
  cfg.nd = nd;
  cfg.reorg_period = 100;  // the paper's setting
  cfg.min_observation = 32;
  cfg.stats_halving_period = 0;
  return cfg;
}

// Runs `n` selective queries through the index.
void Drive(AdaptiveIndex& idx, Dim nd, int n, uint64_t seed,
           double extent = 0.05) {
  auto qs = GenerateQueriesWithExtent(nd, Relation::kIntersects,
                                      static_cast<size_t>(n), extent, seed);
  std::vector<ObjectId> out;
  for (const Query& q : qs) {
    out.clear();
    idx.Execute(q, &out);
  }
}

TEST(Reorganization, SelectiveQueriesTriggerSplits) {
  AdaptiveIndex idx(ReorgConfig(4));
  UniformSpec spec;
  spec.nd = 4;
  spec.count = 20000;
  spec.seed = 3;
  Load(idx, GenerateUniform(spec));

  Drive(idx, 4, 1000, 7);
  EXPECT_GT(idx.cluster_count(), 1u);
  EXPECT_GT(idx.reorg_stats().splits, 0u);
  idx.CheckInvariants();
}

TEST(Reorganization, ObjectCountPreservedAcrossReorganizations) {
  AdaptiveIndex idx(ReorgConfig(4));
  UniformSpec spec;
  spec.nd = 4;
  spec.count = 10000;
  spec.seed = 5;
  Load(idx, GenerateUniform(spec));
  Drive(idx, 4, 800, 11);
  EXPECT_EQ(idx.size(), 10000u);
  auto all = testutil::RunQuery(idx, Query::Intersection(Box::FullDomain(4)));
  EXPECT_EQ(all.size(), 10000u);
}

TEST(Reorganization, ConvergesWithinTenPassesOnStableWorkload) {
  // Paper §7.1: "the clustering process reaches a stable state (in less
  // than 10 reorganization steps)" when the query distribution is fixed.
  AdaptiveIndex idx(ReorgConfig(8));
  UniformSpec spec;
  spec.nd = 8;
  spec.count = 20000;
  spec.seed = 7;
  Load(idx, GenerateUniform(spec));

  uint64_t stable_pass = 0;
  auto qs = GenerateQueriesWithExtent(8, Relation::kIntersects, 3000, 0.1, 9);
  std::vector<ObjectId> out;
  size_t qi = 0;
  for (int pass = 1; pass <= 30; ++pass) {
    for (uint32_t i = 0; i < idx.config().reorg_period; ++i) {
      out.clear();
      idx.Execute(qs[qi++ % qs.size()], &out);
    }
    const auto& rs = idx.reorg_stats();
    // Stable: structural churn below 1% of the clusters. (Isolated single
    // splits keep trickling in as the statistics windows grow, but the
    // structure — hundreds of clusters — no longer changes materially.)
    const uint64_t churn = rs.last_pass_splits + rs.last_pass_merges;
    if (churn * 100 <= idx.cluster_count()) {
      stable_pass = rs.passes;
      break;
    }
  }
  EXPECT_GT(stable_pass, 0u) << "never reached a stable state";
  EXPECT_LE(stable_pass, 10u);
  idx.CheckInvariants();
}

TEST(Reorganization, ExpectedCostNeverWorseThanSingleCluster) {
  // The cost model only materializes candidates with positive benefit, so
  // the modeled average query time must not exceed the Sequential-Scan
  // equivalent (one cluster holding everything, p=1).
  AdaptiveIndex idx(ReorgConfig(4));
  UniformSpec spec;
  spec.nd = 4;
  spec.count = 20000;
  spec.seed = 13;
  Load(idx, GenerateUniform(spec));

  const CostModel& m = idx.cost_model();
  const double scan_cost = m.ClusterTime(1.0, 20000.0);
  Drive(idx, 4, 2000, 15);
  EXPECT_LE(idx.ExpectedQueryTimeMs(), scan_cost * 1.05);
}

TEST(Reorganization, DiskScenarioFormsFewerClusters) {
  // Paper Fig. 7 discussion: the 15 ms random-access cost makes small
  // clusters unprofitable, so far fewer clusters materialize on disk.
  UniformSpec spec;
  spec.nd = 4;
  spec.count = 30000;
  spec.seed = 17;
  Dataset ds = GenerateUniform(spec);

  AdaptiveConfig mem_cfg = ReorgConfig(4);
  AdaptiveConfig dsk_cfg = ReorgConfig(4);
  dsk_cfg.scenario = StorageScenario::kDisk;
  AdaptiveIndex mem(mem_cfg), dsk(dsk_cfg);
  Load(mem, ds);
  Load(dsk, ds);
  Drive(mem, 4, 1500, 19);
  Drive(dsk, 4, 1500, 19);
  EXPECT_LE(dsk.cluster_count(), mem.cluster_count());
}

TEST(Reorganization, MergesFollowQueryDistributionShift) {
  // Clusters built for one query pattern are merged back once the pattern
  // changes and their access probability approaches the parent's.
  AdaptiveConfig cfg = ReorgConfig(2);
  cfg.stats_halving_period = 500;  // sliding window so p estimates adapt
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = 2;
  spec.count = 20000;
  spec.seed = 23;
  Load(idx, GenerateUniform(spec));

  // Phase 1: very selective queries => many clusters.
  Drive(idx, 2, 2000, 29, 0.02);
  const size_t clusters_phase1 = idx.cluster_count();
  EXPECT_GT(clusters_phase1, 1u);

  // Phase 2: full-domain queries explore everything; separate clusters now
  // only add exploration overhead, so merges must shrink the structure.
  std::vector<ObjectId> out;
  Query all = Query::Intersection(Box::FullDomain(2));
  for (int i = 0; i < 4000; ++i) {
    out.clear();
    idx.Execute(all, &out);
  }
  EXPECT_LT(idx.cluster_count(), clusters_phase1);
  EXPECT_GT(idx.reorg_stats().merges, 0u);
  idx.CheckInvariants();
}

TEST(Reorganization, EmptyClustersAreMergedAway) {
  AdaptiveConfig cfg = ReorgConfig(2);
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = 2;
  spec.count = 5000;
  spec.seed = 31;
  Load(idx, GenerateUniform(spec));
  Drive(idx, 2, 1000, 37, 0.05);
  // Delete everything; subsequent reorganizations must clean up emptied
  // clusters.
  for (ObjectId i = 0; i < 5000; ++i) EXPECT_TRUE(idx.Erase(i));
  Drive(idx, 2, 400, 41, 0.05);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(idx.cluster_count(), 1u);
  idx.CheckInvariants();
}

TEST(Reorganization, ManualReorganizeWhenPeriodZero) {
  AdaptiveConfig cfg = ReorgConfig(2);
  cfg.reorg_period = 0;
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = 2;
  spec.count = 10000;
  spec.seed = 43;
  Load(idx, GenerateUniform(spec));
  Drive(idx, 2, 500, 47);
  EXPECT_EQ(idx.cluster_count(), 1u);  // nothing happened automatically
  idx.Reorganize();
  EXPECT_GT(idx.cluster_count(), 1u);
  idx.CheckInvariants();
}

TEST(Reorganization, InsertPrefersLowestAccessProbabilityCluster) {
  AdaptiveConfig cfg = ReorgConfig(2);
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = 2;
  spec.count = 10000;
  spec.seed = 53;
  Load(idx, GenerateUniform(spec));
  Drive(idx, 2, 1500, 59, 0.03);
  ASSERT_GT(idx.cluster_count(), 1u);

  // Fresh objects must land in the matching cluster with the LOWEST access
  // probability (paper Fig. 4): in particular never in a strictly
  // higher-probability cluster when a lower one accepts them. The root
  // accepts everything, so p(host) <= p(root) must always hold, and for
  // objects that fit an existing child it should usually be strict.
  Rng rng2(61);
  int strictly_lower = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const ObjectId oid = 900000 + static_cast<ObjectId>(trial);
    Box b = RandomBox(rng2, 2, 0.05f);
    idx.Insert(oid, b.view());
    const ClusterId host = idx.OwnerOf(oid);
    ASSERT_NE(host, kNoCluster);
    double host_p = -1.0, root_p = -1.0;
    for (const auto& ci : idx.GetClusterInfos()) {
      if (ci.id == host) host_p = ci.access_prob;
      if (ci.parent == kNoCluster) root_p = ci.access_prob;
    }
    ASSERT_GE(host_p, 0.0);
    EXPECT_LE(host_p, root_p + 1e-12) << "trial " << trial;
    if (host_p < root_p) ++strictly_lower;
  }
  EXPECT_GT(strictly_lower, 25);  // most objects find a cheaper host
  idx.CheckInvariants();
}

// ---- Decision parity -------------------------------------------------------
//
// Candidate query statistics are logged during exploration and counted at
// reorganization; these digests pin every decision that reads them (split and
// merge choices, the resulting per-query work and simulated time, and the
// final cluster signatures) to the values of the eager per-exploration
// accounting the paper describes.

class Fnv {
 public:
  template <typename T>
  void Add(const T& v) {
    const auto* b = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(T); ++i) {
      h_ = (h_ ^ b[i]) * 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

void DigestQuery(Fnv* h, const QueryMetrics& m) {
  uint64_t sim_bits;
  static_assert(sizeof(sim_bits) == sizeof(m.sim_time_ms), "");
  std::memcpy(&sim_bits, &m.sim_time_ms, sizeof(sim_bits));
  h->Add(sim_bits);
  h->Add(static_cast<uint64_t>(m.groups_explored));
  h->Add(static_cast<uint64_t>(m.objects_verified));
  h->Add(static_cast<uint64_t>(m.dims_checked));
}

void DigestState(Fnv* h, const AdaptiveIndex& idx) {
  const ReorgStats& rs = idx.reorg_stats();
  h->Add(rs.passes);
  h->Add(rs.splits);
  h->Add(rs.merges);
  h->Add(rs.last_pass_splits);
  h->Add(rs.last_pass_merges);
  for (const ClusterImage& img : idx.DumpClusters()) {
    h->Add(img.id);
    h->Add(img.parent);
    for (Dim d = 0; d < img.sig.dims(); ++d) {
      const VarInterval vs[2] = {img.sig.start_var(d), img.sig.end_var(d)};
      for (const VarInterval& v : vs) {
        h->Add(v.lo);
        h->Add(v.hi);
        h->Add(static_cast<uint8_t>(v.hi_closed));
      }
    }
    for (const ObjectId id : img.ids) h->Add(id);
  }
}

struct ParityRun {
  uint64_t digest;
  ReorgStats stats;
};

// Loads 4000 16-d uniform objects and runs `queries` intersection queries,
// calling Reorganize() by hand after every `manual_every` queries (0 = never).
ParityRun RunParity(const AdaptiveConfig& cfg, int queries, int manual_every) {
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = 16;
  spec.count = 4000;
  spec.seed = 71;
  Load(idx, GenerateUniform(spec));
  const auto qs = GenerateQueriesWithExtent(
      16, Relation::kIntersects, static_cast<size_t>(queries), 0.6, 73);
  Fnv h;
  std::vector<ObjectId> out;
  QueryMetrics m;
  for (int i = 0; i < queries; ++i) {
    out.clear();
    idx.Execute(qs[static_cast<size_t>(i)], &out, &m);
    DigestQuery(&h, m);
    if (manual_every != 0 && (i + 1) % manual_every == 0) idx.Reorganize();
  }
  DigestState(&h, idx);
  idx.CheckInvariants();
  return {h.value(), idx.reorg_stats()};
}

AdaptiveConfig ParityConfig() {
  AdaptiveConfig cfg;
  cfg.nd = 16;
  cfg.min_observation = 2.0;
  return cfg;
}

TEST(DecisionParity, FrequentHalvingReachesInexactFolds) {
  // Halving every 4 queries: after ~50 halvings the statistics carry more
  // fraction bits than a double adds exactly, so folding a count must fall
  // back to the sequential increments.
  AdaptiveConfig cfg = ParityConfig();
  cfg.reorg_period = 10;
  cfg.stats_halving_period = 4;
  const ParityRun r = RunParity(cfg, 800, 0);
  EXPECT_GT(r.stats.splits, 0u);
  EXPECT_GT(r.stats.merges, 0u);
  EXPECT_EQ(r.digest, 0xea108b331c5f9bdbull) << std::hex << r.digest;
}

TEST(DecisionParity, LogOverflowBetweenReorganizations) {
  // The root is explored by every query, so over 1500 queries between
  // passes it outgrows its exploration log several times over.
  AdaptiveConfig cfg = ParityConfig();
  cfg.reorg_period = 1500;
  cfg.stats_halving_period = 512;
  const ParityRun r = RunParity(cfg, 3000, 0);
  EXPECT_GT(r.stats.splits, 0u);
  EXPECT_EQ(r.digest, 0xedd67c69340dfac9ull) << std::hex << r.digest;
}

TEST(DecisionParity, RingWrapWithManualReorganization) {
  // No automatic passes: the per-index query ring wraps several times
  // before each manual Reorganize().
  AdaptiveConfig cfg = ParityConfig();
  cfg.reorg_period = 0;
  cfg.stats_halving_period = 300;
  const ParityRun r = RunParity(cfg, 3000, 1000);
  EXPECT_GT(r.stats.splits, 0u);
  EXPECT_EQ(r.digest, 0xe483e2179a0ea18eull) << std::hex << r.digest;
}

}  // namespace
}  // namespace accl
