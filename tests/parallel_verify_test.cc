// AdaptiveIndex::Execute's parallel verification:
//
//   - Parity: at 1, 2, 3 and 4 verify threads, over a 16-d index with
//     periodic reorganization and statistics halving and all three
//     relations, every answer (element for element), every QueryMetrics
//     field (sim_time_ms bit for bit), the reorganization counters and the
//     final cluster images are those of the serial path.
//   - The same for the reorganization scan: at 1, 2 and 4 threads, slices
//     of at least kParallelScanClusters clusters, manual passes and
//     statistics halving decide every split and merge as the serial walk
//     does, including a merge into a parent the same slice visits later
//     and a cluster split more than once in one visit.
//   - A warmed fanned-out Execute makes no heap allocation, nor does a
//     warmed Execute that carries a fanned-out reorganization slice.
//   - verify_threads = 0 resolves to the CPUs of the affinity mask, so on
//     one CPU no worker ever starts; a SubscriptionEngine's shard indexes
//     (pinned to 1) start none however large their queries.
#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_index.h"
#include "obs/alloc_hook.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

// This binary counts every global operator new, so the allocation case can
// read obs::HeapAllocsNow().
ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK();

namespace accl {
namespace {

constexpr Dim kNd = 16;
constexpr size_t kObjects = 3 * AdaptiveIndex::kParallelVerifyObjects + 1000;

Dataset Objects(uint64_t seed) {
  UniformSpec spec;
  spec.nd = kNd;
  spec.count = kObjects;
  spec.seed = seed;
  return GenerateUniform(spec);
}

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// Queries of all three relations at extents that keep some queries above
/// kParallelVerifyObjects verified objects after the index has split.
std::vector<Query> MixedQueries(size_t per_kind) {
  struct Kind {
    Relation rel;
    double extent;
  };
  const Kind kinds[] = {{Relation::kIntersects, 0.2},
                        {Relation::kIntersects, 0.7},
                        {Relation::kContainedBy, 0.9},
                        {Relation::kEncloses, 0.02}};
  std::vector<std::vector<Query>> pools;
  for (size_t k = 0; k < std::size(kinds); ++k) {
    pools.push_back(GenerateQueriesWithExtent(kNd, kinds[k].rel, per_kind,
                                              kinds[k].extent, 91 + k));
  }
  std::vector<Query> qs;
  for (size_t i = 0; i < per_kind; ++i) {
    for (const auto& pool : pools) qs.push_back(pool[i]);
  }
  return qs;
}

void ExpectSameMetrics(const QueryMetrics& a, const QueryMetrics& b) {
  EXPECT_EQ(a.groups_explored, b.groups_explored);
  EXPECT_EQ(a.groups_total, b.groups_total);
  EXPECT_EQ(a.objects_verified, b.objects_verified);
  EXPECT_EQ(a.dims_checked, b.dims_checked);
  EXPECT_EQ(a.bytes_verified, b.bytes_verified);
  EXPECT_EQ(a.result_count, b.result_count);
  EXPECT_EQ(Bits(a.sim_time_ms), Bits(b.sim_time_ms));
  EXPECT_EQ(a.disk_seeks, b.disk_seeks);
  EXPECT_EQ(a.disk_bytes, b.disk_bytes);
}

void ExpectSameReorgStats(const ReorgStats& a, const ReorgStats& b) {
  EXPECT_EQ(a.passes, b.passes);
  EXPECT_EQ(a.splits, b.splits);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.last_pass_splits, b.last_pass_splits);
  EXPECT_EQ(a.last_pass_merges, b.last_pass_merges);
}

void ExpectSameClusters(const std::vector<ClusterImage>& a,
                        const std::vector<ClusterImage>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].parent, b[i].parent);
    EXPECT_TRUE(a[i].sig == b[i].sig) << "cluster " << a[i].id;
    EXPECT_EQ(a[i].ids, b[i].ids);
    EXPECT_EQ(a[i].coords, b[i].coords);
  }
}

// Runs the lockstep of ParallelVerifyEqualsSerial over `per_kind` queries
// of each kind; `merges` says whether the run must merge.
void VerifyLockstep(uint32_t reorg_period, uint32_t stats_halving_period,
                    size_t per_kind, bool merges) {
  AdaptiveConfig cfg;
  cfg.nd = kNd;
  cfg.min_observation = 2.0;
  cfg.reorg_period = reorg_period;
  cfg.stats_halving_period = stats_halving_period;
  const Dataset ds = Objects(83);
  const uint32_t threads[] = {1, 2, 3, 4};
  std::vector<std::unique_ptr<AdaptiveIndex>> idx;
  for (const uint32_t t : threads) {
    cfg.verify_threads = t;
    idx.push_back(std::make_unique<AdaptiveIndex>(cfg));
    testutil::Load(*idx.back(), ds);
  }

  const std::vector<Query> qs = MixedQueries(per_kind);
  std::vector<ObjectId> serial, out;
  QueryMetrics serial_m, m;
  size_t fanned = 0;
  for (size_t i = 0; i < qs.size(); ++i) {
    serial.clear();
    idx[0]->Execute(qs[i], &serial, &serial_m);
    if (serial_m.objects_verified >= AdaptiveIndex::kParallelVerifyObjects &&
        serial_m.groups_explored > 1) {
      ++fanned;
    }
    for (size_t k = 1; k < idx.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "query " << i << " ("
                                      << RelationName(qs[i].rel)
                                      << "), verify_threads " << threads[k]);
      out.clear();
      idx[k]->Execute(qs[i], &out, &m);
      ASSERT_EQ(out, serial);
      ExpectSameMetrics(m, serial_m);
      ExpectSameReorgStats(idx[k]->reorg_stats(), idx[0]->reorg_stats());
    }
  }
  // The run must have crossed the threshold on a split index, and
  // reorganized, for the comparison to mean anything.
  EXPECT_GE(fanned, qs.size() / 4);
  EXPECT_GT(idx[0]->reorg_stats().splits, 0u);
  if (merges) {
    EXPECT_GT(idx[0]->reorg_stats().merges, 0u);
  }
  EXPECT_EQ(idx[0]->verify_workers(), 0u);
  for (size_t k = 1; k < idx.size(); ++k) {
    EXPECT_EQ(idx[k]->verify_workers(), threads[k] - 1);
    ExpectSameClusters(idx[k]->DumpClusters(), idx[0]->DumpClusters());
    idx[k]->CheckInvariants();
  }
  idx[0]->CheckInvariants();
}

TEST(AdaptiveIndex, ParallelVerifyEqualsSerial) {
  // A short period: frequent rounds, halvings and merges.
  {
    SCOPED_TRACE("reorg_period 20");
    VerifyLockstep(20, 64, 100, /*merges=*/true);
  }
  // A long one: a cluster's log holds at most 255 explorations, against a
  // ring of 1,000 slots, so the log of a cluster most queries explore
  // fills between two visits, inside a fanned-out query whose run then
  // replays it before logging.
  {
    SCOPED_TRACE("reorg_period 500");
    VerifyLockstep(500, 512, 275, /*merges=*/false);
  }
}

/// What one reorganizing call did to the clusters, read from the images
/// before and after it (a recycled id carries a different signature).
struct ReorgEvents {
  /// Merged clusters whose parent has a higher id: the snapshot order
  /// visits the parent after the child, in the same pass.
  size_t merges_into_later_parent = 0;
  /// Clusters that gained two or more new children: one visit split them
  /// more than once.
  size_t multi_split_visits = 0;
};

ReorgEvents Diff(const std::vector<ClusterImage>& before,
                 const std::vector<ClusterImage>& after) {
  std::map<ClusterId, const ClusterImage*> was, is;
  for (const ClusterImage& c : before) was[c.id] = &c;
  for (const ClusterImage& c : after) is[c.id] = &c;
  const auto kept = [&](ClusterId id) {
    const auto w = was.find(id);
    const auto i = is.find(id);
    return w != was.end() && i != is.end() && w->second->sig == i->second->sig;
  };
  ReorgEvents ev;
  for (const ClusterImage& c : before) {
    if (!kept(c.id) && c.parent != kNoCluster && c.id < c.parent &&
        kept(c.parent)) {
      ++ev.merges_into_later_parent;
    }
  }
  std::map<ClusterId, size_t> fresh_children;
  for (const ClusterImage& c : after) {
    if (!kept(c.id)) ++fresh_children[c.parent];
  }
  for (const auto& [parent, n] : fresh_children) {
    if (n >= 2 && kept(parent)) ++ev.multi_split_visits;
  }
  return ev;
}

// Runs the lockstep of ParallelSliceScanEqualsSerial with one observation
// window.
void SliceLockstep(double min_observation) {
  AdaptiveConfig cfg;
  cfg.nd = kNd;
  cfg.min_observation = min_observation;
  cfg.reorg_period = 25;
  cfg.stats_halving_period = 128;
  UniformSpec spec;
  spec.nd = kNd;
  spec.count = 20000;
  spec.seed = 83;
  const Dataset ds = GenerateUniform(spec);
  const uint32_t threads[] = {1, 2, 4};
  std::vector<std::unique_ptr<AdaptiveIndex>> idx;
  for (const uint32_t t : threads) {
    cfg.verify_threads = t;
    idx.push_back(std::make_unique<AdaptiveIndex>(cfg));
    testutil::Load(*idx.back(), ds);
  }
  constexpr size_t kQueries = 800;
  constexpr size_t kManualEvery = 150;
  const auto narrow = GenerateQueriesWithExtent(kNd, Relation::kIntersects,
                                                kQueries, 0.3, 91);
  const auto wide = GenerateQueriesWithExtent(kNd, Relation::kIntersects,
                                              kQueries, 0.6, 92);
  const auto contained = GenerateQueriesWithExtent(
      kNd, Relation::kContainedBy, kQueries, 0.9, 93);

  const auto expect_lockstep = [&](const char* step) {
    for (size_t k = 1; k < idx.size(); ++k) {
      SCOPED_TRACE(testing::Message()
                   << step << ", verify_threads " << threads[k]);
      ExpectSameReorgStats(idx[k]->reorg_stats(), idx[0]->reorg_stats());
    }
  };
  std::vector<ClusterImage> images = idx[0]->DumpClusters();
  ReorgStats seen = idx[0]->reorg_stats();
  ReorgEvents events;
  const auto note_events = [&] {
    const ReorgStats& rs = idx[0]->reorg_stats();
    if (rs.splits == seen.splits && rs.merges == seen.merges) return;
    std::vector<ClusterImage> now = idx[0]->DumpClusters();
    const ReorgEvents ev = Diff(images, now);
    events.merges_into_later_parent += ev.merges_into_later_parent;
    events.multi_split_visits += ev.multi_split_visits;
    images = std::move(now);
    seen = rs;
  };

  std::vector<ObjectId> serial, out;
  QueryMetrics serial_m, m;
  size_t large_halvings = 0, large_rounds = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    const Query& q = i % 7 == 6 ? contained[i]
                     : (i / 100) % 2 ? wide[i]
                                     : narrow[i];
    const uint64_t next = idx[0]->total_queries() + 1;
    if (idx[0]->cluster_count() >= AdaptiveIndex::kParallelScanClusters) {
      if (next % cfg.stats_halving_period == 0) ++large_halvings;
      if (next % cfg.reorg_period == 0) ++large_rounds;
    }
    serial.clear();
    idx[0]->Execute(q, &serial, &serial_m);
    for (size_t k = 1; k < idx.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "query " << i << " ("
                                      << RelationName(q.rel)
                                      << "), verify_threads " << threads[k]);
      out.clear();
      idx[k]->Execute(q, &out, &m);
      ASSERT_EQ(out, serial);
      ExpectSameMetrics(m, serial_m);
    }
    expect_lockstep("after a query");
    note_events();
    if ((i + 1) % kManualEvery == 0) {
      for (const auto& x : idx) x->Reorganize();
      expect_lockstep("after Reorganize()");
      note_events();
    }
  }
  // Every case the stored scans must survive happened on an index large
  // enough to fan out its slices.
  EXPECT_GT(large_rounds, 0u);
  EXPECT_GT(large_halvings, 0u);
  EXPECT_GT(events.merges_into_later_parent, 0u);
  EXPECT_GT(events.multi_split_visits, 0u);
  EXPECT_GT(idx[0]->reorg_stats().merges, 0u);
  EXPECT_EQ(idx[0]->verify_workers(), 0u);
  for (size_t k = 1; k < idx.size(); ++k) {
    EXPECT_EQ(idx[k]->verify_workers(), threads[k] - 1);
    ExpectSameClusters(idx[k]->DumpClusters(), idx[0]->DumpClusters());
    idx[k]->CheckInvariants();
  }
  idx[0]->CheckInvariants();
}

TEST(AdaptiveIndex, ParallelSliceScanEqualsSerial) {
  // Small intersection queries split the 16-d index into several hundred
  // clusters, so each periodic round and each manual pass spans slices
  // above the fan-out threshold; wide ones, alternating every 100
  // queries, make it merge again. Statistics halve every 128 queries.
  // With a window shorter than the period nearly every cluster is
  // observable, so merges into a parent whose scan is stored are frequent;
  // with one longer than the period the clusters made in one round are
  // not observable in the next, so every pass also holds clusters whose
  // split scan must not run.
  for (const double window : {16.0, 32.0}) {
    SCOPED_TRACE(testing::Message() << "min_observation " << window);
    SliceLockstep(window);
  }
}

/// An index split into several clusters by manual reorganization, so that
/// no pass runs inside a measured query.
std::unique_ptr<AdaptiveIndex> SplitIndex(uint32_t verify_threads) {
  AdaptiveConfig cfg;
  cfg.nd = kNd;
  cfg.min_observation = 2.0;
  cfg.reorg_period = 0;
  cfg.stats_halving_period = 0;
  cfg.verify_threads = verify_threads;
  auto idx = std::make_unique<AdaptiveIndex>(cfg);
  testutil::Load(*idx, Objects(89));
  const auto qs =
      GenerateQueriesWithExtent(kNd, Relation::kIntersects, 64, 0.2, 97);
  std::vector<ObjectId> out;
  for (int round = 0; round < 3; ++round) {
    for (const Query& q : qs) {
      out.clear();
      idx->Execute(q, &out);
    }
    idx->Reorganize();
  }
  return idx;
}

TEST(AdaptiveIndex, WarmedParallelExecuteAllocatesNothing) {
  ASSERT_TRUE(obs::HeapAllocHookInstalled());
  std::unique_ptr<AdaptiveIndex> idx = SplitIndex(4);
  const Query q = GenerateQueriesWithExtent(kNd, Relation::kIntersects, 1,
                                            0.7, 101)[0];
  std::vector<ObjectId> out;
  out.reserve(kObjects);
  QueryMetrics m;
  for (int warm = 0; warm < 3; ++warm) {
    out.clear();
    idx->Execute(q, &out, &m);
  }
  ASSERT_GE(m.objects_verified, AdaptiveIndex::kParallelVerifyObjects);
  ASSERT_GT(m.groups_explored, 1u);
  ASSERT_EQ(idx->verify_workers(), 3u);
  uint64_t allocs = 0;
  for (int rep = 0; rep < 8; ++rep) {
    out.clear();
    const uint64_t before = obs::HeapAllocsNow();
    idx->Execute(q, &out, &m);
    allocs += obs::HeapAllocsNow() - before;
  }
  EXPECT_EQ(allocs, 0u);

  // A warmed call that carries a fanned-out reorganization slice: the same
  // round of queries repeats until the passes stop changing the structure,
  // and every round after a round that changed nothing, its
  // slice-carrying last query included, allocates nothing.
  AdaptiveConfig cfg = idx->config();
  cfg.reorg_period = 25;
  AdaptiveIndex sliced(cfg);
  testutil::Load(sliced, Objects(89));
  const auto round = GenerateQueriesWithExtent(kNd, Relation::kIntersects,
                                               cfg.reorg_period, 0.3, 103);
  allocs = 0;
  size_t measured = 0;
  bool was_quiet = false;
  for (int r = 0; r < 80; ++r) {
    const ReorgStats was = sliced.reorg_stats();
    uint64_t round_allocs = 0;
    for (const Query& rq : round) {
      out.clear();
      const uint64_t before = obs::HeapAllocsNow();
      sliced.Execute(rq, &out);
      round_allocs += obs::HeapAllocsNow() - before;
    }
    const bool quiet = sliced.reorg_stats().splits == was.splits &&
                       sliced.reorg_stats().merges == was.merges;
    if (quiet && was_quiet) {
      allocs += round_allocs;
      ++measured;
    }
    was_quiet = quiet;
  }
  ASSERT_GE(measured, 8u);
  ASSERT_GE(sliced.cluster_count(), AdaptiveIndex::kParallelScanClusters);
  ASSERT_EQ(sliced.verify_workers(), 3u);
  EXPECT_EQ(allocs, 0u);
}

TEST(AdaptiveIndex, AutoVerifyThreadsFollowTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  const size_t cpus = static_cast<size_t>(CPU_COUNT(&set));
  std::unique_ptr<AdaptiveIndex> idx = SplitIndex(0);
  const Query q = GenerateQueriesWithExtent(kNd, Relation::kIntersects, 1,
                                            0.7, 101)[0];
  std::vector<ObjectId> out;
  QueryMetrics m;
  idx->Execute(q, &out, &m);
  ASSERT_GE(m.objects_verified, AdaptiveIndex::kParallelVerifyObjects);
  ASSERT_GT(m.groups_explored, 1u);
  // On one CPU the auto value is the serial path: no worker ever starts.
  EXPECT_EQ(idx->verify_workers(),
            std::min(cpus, AdaptiveIndex::kMaxVerifyThreads) - 1);
}

TEST(AdaptiveIndex, EngineShardIndexesStartNoVerifyWorkers) {
  constexpr Dim kAttrs = 4;
  AttributeSchema schema;
  for (Dim d = 0; d < kAttrs; ++d) {
    schema.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  EngineOptions o;
  o.index.reorg_period = 25;
  o.index.min_observation = 8;
  o.index.verify_threads = 4;  // the engine overrides it
  o.default_policy = MatchPolicy::kIntersecting;
  SubscriptionEngine engine(schema, o);
  Rng rng(113);
  std::vector<Box> boxes;
  for (size_t i = 0; i < kObjects; ++i) {
    boxes.push_back(testutil::RandomBox(rng, kAttrs, 0.5f));
  }
  std::vector<SubscriptionId> ids;
  engine.SubscribeBatch(Span<const Box>(boxes.data(), boxes.size()), &ids);
  std::vector<Box> events;
  for (int i = 0; i < 400; ++i) {
    events.push_back(testutil::RandomBox(rng, kAttrs, i % 2 ? 0.1f : 0.9f));
  }
  std::vector<SubscriptionId> out;
  for (const Box& e : events) {
    out.clear();
    engine.Match(Event::Range(e), &out);
  }
  const AdaptiveIndex& shard = engine.shard_index(0);
  EXPECT_EQ(shard.config().verify_threads, 1u);
  EXPECT_GT(shard.cluster_count(), 1u);
  EXPECT_EQ(shard.verify_workers(), 0u);

  // The same queries on an unpinned index of the same objects do fan out.
  AdaptiveConfig cfg = shard.config();
  cfg.verify_threads = 2;
  AdaptiveIndex unpinned(cfg);
  for (size_t i = 0; i < boxes.size(); ++i) {
    unpinned.Insert(ids[i], boxes[i].view());
  }
  std::vector<ObjectId> hits;
  for (const Box& e : events) {
    hits.clear();
    unpinned.Execute(Query(e, Relation::kIntersects), &hits);
  }
  EXPECT_EQ(unpinned.verify_workers(), 1u);
}

}  // namespace
}  // namespace accl
