#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>

#include "core/adaptive_index.h"
#include "seqscan/seq_scan.h"
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

// ---- Sliced rounds ---------------------------------------------------------
//
// A periodic round visits its cluster snapshot kReorgSliceClusters at a
// time, spread over the round's queries; these tests pin the schedule and
// check that structure, answers and the exploration ring stay consistent
// whichever query a split or merge lands on.

constexpr Dim kSliceDims = 16;

AdaptiveConfig SliceConfig(uint32_t period) {
  AdaptiveConfig cfg;
  cfg.nd = kSliceDims;
  cfg.reorg_period = period;
  cfg.min_observation = 4;
  cfg.stats_halving_period = 0;
  return cfg;
}

const Dataset& SliceDataset() {
  static const Dataset ds = [] {
    UniformSpec spec;
    spec.nd = kSliceDims;
    spec.count = 9000;
    spec.seed = 83;
    spec.max_extent = 0.4f;
    return GenerateUniform(spec);
  }();
  return ds;
}

std::vector<Query> SliceQueries(size_t n, uint64_t seed) {
  return GenerateQueriesWithExtent(kSliceDims, Relation::kIntersects, n, 0.3,
                                   seed);
}

uint64_t Changes(const AdaptiveIndex& idx) {
  return idx.reorg_stats().splits + idx.reorg_stats().merges;
}

// Runs `qs` through `idx`, which holds `ds`, checking its invariants and its
// answer against a Sequential Scan after every call; `after(i)` runs after
// call i. Returns how many calls that did not end a round split or merged.
size_t DriveChecked(AdaptiveIndex& idx, const Dataset& ds,
                    const std::vector<Query>& qs,
                    const std::function<void(size_t)>& after = nullptr) {
  SeqScan scan(ds.nd);
  Load(scan, ds);
  const uint32_t period = idx.config().reorg_period;
  size_t mid_round = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    const uint64_t before = Changes(idx);
    EXPECT_EQ(testutil::RunQuery(idx, qs[i]), testutil::RunQuery(scan, qs[i]))
        << "call " << i;
    idx.CheckInvariants();
    if (Changes(idx) != before && idx.total_queries() % period != 0) {
      ++mid_round;
    }
    if (after) after(i);
  }
  return mid_round;
}

// A converged index of more than kReorgSliceClusters clusters, restored
// with fresh statistics under `cfg`; the image is built once.
std::unique_ptr<AdaptiveIndex> FromSliceBase(const AdaptiveConfig& cfg) {
  static const std::vector<ClusterImage> images = [] {
    AdaptiveIndex idx(SliceConfig(20));
    Load(idx, SliceDataset());
    std::vector<ObjectId> out;
    for (const Query& q : SliceQueries(400, 89)) {
      out.clear();
      idx.Execute(q, &out);
    }
    return idx.DumpClusters();
  }();
  auto idx = AdaptiveIndex::FromImages(cfg, images);
  EXPECT_GT(idx->cluster_count(), AdaptiveIndex::kReorgSliceClusters);
  return idx;
}

TEST(SlicedReorganization, LargeIndexSpreadsEachRoundOverItsQueries) {
  auto idx = FromSliceBase(SliceConfig(20));
  const size_t mid_round =
      DriveChecked(*idx, SliceDataset(), SliceQueries(300, 5));
  EXPECT_GT(mid_round, 0u) << "no slice landed before a round's last call";
  EXPECT_EQ(idx->reorg_stats().passes, 300u / 20);
}

TEST(SlicedReorganization, SmallIndexChangesOnlyAtPeriodEnd) {
  // At most kReorgSliceClusters clusters: one slice, on the round's last
  // query, exactly like a one-shot pass at the period's end.
  AdaptiveIndex idx(ReorgConfig(4));
  UniformSpec spec;
  spec.nd = 4;
  spec.count = 20000;
  spec.seed = 3;
  Load(idx, GenerateUniform(spec));
  const auto qs = GenerateQueriesWithExtent(4, Relation::kIntersects, 1000,
                                            0.02, 5);
  std::vector<ObjectId> out;
  for (size_t i = 0; i < qs.size(); ++i) {
    const uint64_t before = Changes(idx);
    const size_t clusters = idx.cluster_count();
    out.clear();
    idx.Execute(qs[i], &out);
    ASSERT_LE(idx.cluster_count(), AdaptiveIndex::kReorgSliceClusters);
    if (idx.total_queries() % idx.config().reorg_period != 0) {
      EXPECT_EQ(Changes(idx), before) << "call " << i;
      EXPECT_EQ(idx.cluster_count(), clusters) << "call " << i;
    }
  }
  EXPECT_GT(Changes(idx), 0u);
  EXPECT_EQ(idx.reorg_stats().passes, 1000u / idx.config().reorg_period);
}

TEST(SlicedReorganization, PeriodOneRunsAWholeRoundPerQuery) {
  auto idx = FromSliceBase(SliceConfig(1));
  DriveChecked(*idx, SliceDataset(), SliceQueries(20, 97));
  EXPECT_EQ(idx->reorg_stats().passes, 20u);
  EXPECT_GT(Changes(*idx), 0u);
}

TEST(SlicedReorganization, HalvingMidRound) {
  // Halvings every 5 queries replay every log and clear the ring inside
  // 7-query rounds.
  AdaptiveConfig cfg = SliceConfig(7);
  cfg.stats_halving_period = 5;
  auto idx = FromSliceBase(cfg);
  DriveChecked(*idx, SliceDataset(), SliceQueries(100, 101));
  EXPECT_EQ(idx->reorg_stats().passes, 100u / 7);
  EXPECT_GT(Changes(*idx), 0u);
}

TEST(SlicedReorganization, ExplicitReorganizeMidRound) {
  // Each explicit pass ends the round it interrupts; the next query opens
  // a new one over the rest of the period.
  auto idx = FromSliceBase(SliceConfig(20));
  DriveChecked(*idx, SliceDataset(), SliceQueries(100, 103), [&](size_t i) {
    if (i == 29 || i == 72) {
      idx->Reorganize();
      idx->CheckInvariants();
    }
  });
  EXPECT_EQ(idx->reorg_stats().passes, 100u / 20 + 2);
  EXPECT_GT(Changes(*idx), 0u);
}

TEST(SlicedReorganization, LongPeriodWrapsTheRing) {
  // The ring is capped at 1024 slots, below two 600-query rounds: it fills
  // during the second round, replays every log and starts over. (A small
  // index keeps 1300 checked calls cheap.)
  AdaptiveConfig cfg = ReorgConfig(4);
  cfg.reorg_period = 600;
  cfg.min_observation = 4;
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = 4;
  spec.count = 3000;
  spec.seed = 107;
  const Dataset ds = GenerateUniform(spec);
  Load(idx, ds);
  DriveChecked(idx, ds,
               GenerateQueriesWithExtent(4, Relation::kIntersects, 1300, 0.05,
                                         109));
  EXPECT_EQ(idx.reorg_stats().passes, 2u);
  EXPECT_GT(Changes(idx), 0u);
}

TEST(SlicedReorganization, QueriesAfterFromImages) {
  // Dump in the middle of a round; the restored index starts its own.
  auto idx = FromSliceBase(SliceConfig(20));
  DriveChecked(*idx, SliceDataset(), SliceQueries(30, 111));
  ASSERT_NE(idx->total_queries() % 20, 0u);
  auto restored =
      AdaptiveIndex::FromImages(SliceConfig(20), idx->DumpClusters());
  DriveChecked(*restored, SliceDataset(), SliceQueries(60, 113));
  EXPECT_EQ(restored->reorg_stats().passes, 3u);
  EXPECT_GT(Changes(*restored), 0u);
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
