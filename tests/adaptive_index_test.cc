#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "core/adaptive_index.h"
#include "tests/test_util.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

using testutil::BruteForce;
using testutil::Load;
using testutil::RandomBox;
using testutil::RunQuery;

AdaptiveConfig SmallConfig(Dim nd) {
  AdaptiveConfig cfg;
  cfg.nd = nd;
  cfg.reorg_period = 50;
  cfg.min_observation = 16;
  cfg.stats_halving_period = 0;
  return cfg;
}

TEST(AdaptiveIndex, StartsWithRootClusterOnly) {
  AdaptiveIndex idx(SmallConfig(4));
  EXPECT_EQ(idx.cluster_count(), 1u);
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_STREQ(idx.name(), "AC");
  EXPECT_EQ(idx.dims(), 4u);
  idx.CheckInvariants();
}

TEST(AdaptiveIndex, InsertAndQuerySingle) {
  AdaptiveIndex idx(SmallConfig(2));
  Box b(2);
  b.set(0, 0.2f, 0.4f);
  b.set(1, 0.6f, 0.8f);
  idx.Insert(42, b.view());
  EXPECT_EQ(idx.size(), 1u);

  auto hit = RunQuery(idx, Query::Intersection(b));
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0], 42u);

  Box far(2);
  far.set(0, 0.9f, 1.0f);
  far.set(1, 0.0f, 0.1f);
  EXPECT_TRUE(RunQuery(idx, Query::Intersection(far)).empty());
}

TEST(AdaptiveIndex, EraseRemovesObject) {
  AdaptiveIndex idx(SmallConfig(2));
  Rng rng(3);
  for (ObjectId i = 0; i < 100; ++i) {
    idx.Insert(i, RandomBox(rng, 2, 0.2f).view());
  }
  EXPECT_TRUE(idx.Erase(50));
  EXPECT_FALSE(idx.Erase(50));
  EXPECT_FALSE(idx.Erase(1000));
  EXPECT_EQ(idx.size(), 99u);
  auto all = RunQuery(idx, Query::Intersection(Box::FullDomain(2)));
  EXPECT_EQ(all.size(), 99u);
  EXPECT_FALSE(std::binary_search(all.begin(), all.end(), 50u));
  idx.CheckInvariants();
}

TEST(AdaptiveIndex, QueryMetricsPopulated) {
  AdaptiveIndex idx(SmallConfig(2));
  Rng rng(5);
  for (ObjectId i = 0; i < 200; ++i) {
    idx.Insert(i, RandomBox(rng, 2, 0.1f).view());
  }
  QueryMetrics m;
  RunQuery(idx, Query::Intersection(Box::FullDomain(2)), &m);
  EXPECT_EQ(m.groups_total, idx.cluster_count());
  EXPECT_GE(m.groups_explored, 1u);
  EXPECT_EQ(m.objects_verified, 200u);
  EXPECT_EQ(m.result_count, 200u);
  EXPECT_EQ(m.bytes_verified, 200u * ObjectBytes(2));
  EXPECT_GT(m.sim_time_ms, 0.0);
  EXPECT_EQ(m.disk_seeks, 0u);  // memory scenario
}

TEST(AdaptiveIndex, DiskScenarioChargesSeeks) {
  AdaptiveConfig cfg = SmallConfig(2);
  cfg.scenario = StorageScenario::kDisk;
  AdaptiveIndex idx(cfg);
  Rng rng(7);
  for (ObjectId i = 0; i < 50; ++i) {
    idx.Insert(i, RandomBox(rng, 2, 0.2f).view());
  }
  QueryMetrics m;
  RunQuery(idx, Query::Intersection(Box::FullDomain(2)), &m);
  EXPECT_EQ(m.disk_seeks, m.groups_explored);
  EXPECT_EQ(m.disk_bytes, 50u * ObjectBytes(2));
  // 15 ms seek dominates.
  EXPECT_GE(m.sim_time_ms, 15.0);
}

TEST(AdaptiveIndex, CorrectAcrossRelationsSmall) {
  AdaptiveIndex idx(SmallConfig(3));
  UniformSpec spec;
  spec.nd = 3;
  spec.count = 500;
  spec.seed = 11;
  Dataset ds = GenerateUniform(spec);
  Load(idx, ds);
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    Box qb = RandomBox(rng, 3, 0.6f);
    for (Relation rel : {Relation::kIntersects, Relation::kContainedBy,
                         Relation::kEncloses}) {
      Query q(qb, rel);
      EXPECT_EQ(RunQuery(idx, q), BruteForce(ds, q)) << q.ToString();
    }
  }
}

TEST(AdaptiveIndex, DuplicateIdAborts) {
  AdaptiveIndex idx(SmallConfig(1));
  Box b(1);
  b.set(0, 0.1f, 0.2f);
  idx.Insert(1, b.view());
  EXPECT_DEATH(idx.Insert(1, b.view()), "ACCL_CHECK");
}

TEST(AdaptiveIndex, DimensionMismatchAborts) {
  AdaptiveIndex idx(SmallConfig(2));
  Box b(3);
  EXPECT_DEATH(idx.Insert(1, b.view()), "ACCL_CHECK");
}

TEST(AdaptiveIndex, ExpectedQueryTimeSingleClusterMatchesFormula) {
  AdaptiveConfig cfg = SmallConfig(4);
  cfg.reorg_period = 0;  // keep a single cluster
  AdaptiveIndex idx(cfg);
  Rng rng(17);
  for (ObjectId i = 0; i < 100; ++i) {
    idx.Insert(i, RandomBox(rng, 4, 0.3f).view());
  }
  const CostModel& m = idx.cost_model();
  // Root: p = (0+1)/(0+1) = 1 with no queries observed.
  EXPECT_NEAR(idx.ExpectedQueryTimeMs(), m.ClusterTime(1.0, 100.0), 1e-9);
}

TEST(AdaptiveIndex, GetClusterInfosDescribesRoot) {
  AdaptiveIndex idx(SmallConfig(2));
  Rng rng(19);
  for (ObjectId i = 0; i < 10; ++i) {
    idx.Insert(i, RandomBox(rng, 2, 0.2f).view());
  }
  auto infos = idx.GetClusterInfos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].parent, kNoCluster);
  EXPECT_EQ(infos[0].objects, 10u);
  EXPECT_EQ(infos[0].depth, 0u);
  EXPECT_GT(infos[0].candidates, 0u);
}

TEST(AdaptiveIndex, DumpAndRestoreRoundTrip) {
  AdaptiveIndex idx(SmallConfig(3));
  UniformSpec spec;
  spec.nd = 3;
  spec.count = 300;
  spec.seed = 23;
  Dataset ds = GenerateUniform(spec);
  Load(idx, ds);
  // Force some structure.
  Rng rng(29);
  for (int i = 0; i < 400; ++i) {
    std::vector<ObjectId> out;
    idx.Execute(Query::Intersection(RandomBox(rng, 3, 0.1f)), &out);
  }
  auto images = idx.DumpClusters();
  auto restored = AdaptiveIndex::FromImages(idx.config(), images);
  restored->CheckInvariants();
  EXPECT_EQ(restored->size(), idx.size());
  EXPECT_EQ(restored->cluster_count(), idx.cluster_count());
  Rng rng2(31);
  for (int i = 0; i < 30; ++i) {
    Query q = Query::Intersection(RandomBox(rng2, 3, 0.4f));
    EXPECT_EQ(RunQuery(*restored, q), RunQuery(idx, q));
  }
}

TEST(AdaptiveIndex, EraseFromChildClusterMaintainsInvariants) {
  AdaptiveConfig cfg = SmallConfig(2);
  cfg.reorg_period = 25;
  AdaptiveIndex idx(cfg);
  UniformSpec spec;
  spec.nd = 2;
  spec.count = 2000;
  spec.seed = 37;
  Dataset ds = GenerateUniform(spec);
  Load(idx, ds);
  Rng rng(41);
  for (int i = 0; i < 300; ++i) {
    std::vector<ObjectId> out;
    idx.Execute(Query::Intersection(RandomBox(rng, 2, 0.05f)), &out);
  }
  // Erase a third of the objects, whatever cluster they live in.
  for (ObjectId i = 0; i < 2000; i += 3) EXPECT_TRUE(idx.Erase(i));
  idx.CheckInvariants();
  auto all = RunQuery(idx, Query::Intersection(Box::FullDomain(2)));
  EXPECT_EQ(all.size(), idx.size());
}

// ---- BulkInsert equals sequential Insert -------------------------------

// A box of extent <= `extent` per dimension inside [lo, lo + span]^nd.
Box BoxIn(Rng& rng, Dim nd, float lo, float span, float extent) {
  Box b(nd);
  for (Dim d = 0; d < nd; ++d) {
    const float len = extent * rng.NextFloat();
    const float start = lo + (span - len) * rng.NextFloat();
    b.set(d, start, start + len);
  }
  return b;
}

void RunQueries(AdaptiveIndex& idx, Rng& rng, int n, float lo, float span) {
  std::vector<ObjectId> out;
  for (int i = 0; i < n; ++i) {
    out.clear();
    idx.Execute(Query::Intersection(BoxIn(rng, idx.dims(), lo, span, 0.1f)),
                &out);
  }
}

// Converges an index on queries in the low corner, then moves the queries
// to the high corner so the low clusters merge back: merges reparent their
// children, which leaves children that are not candidates of their parent.
// Deterministic, so two calls build identical twins.
std::unique_ptr<AdaptiveIndex> ConvergedTwin() {
  AdaptiveConfig cfg;
  cfg.nd = 6;
  cfg.reorg_period = 20;
  cfg.min_observation = 4;
  cfg.stats_halving_period = 40;
  auto idx = std::make_unique<AdaptiveIndex>(cfg);
  UniformSpec spec;
  spec.nd = 6;
  spec.count = 6000;
  spec.seed = 43;
  spec.max_extent = 0.3f;
  Load(*idx, GenerateUniform(spec));
  Rng rng(47);
  RunQueries(*idx, rng, 1200, 0.0f, 0.45f);
  RunQueries(*idx, rng, 1200, 0.5f, 0.5f);
  return idx;
}

size_t NonCandidateChildren(const AdaptiveIndex& idx) {
  const auto images = idx.DumpClusters();
  size_t count = 0;
  for (const ClusterImage& img : images) {
    if (img.parent == kNoCluster) continue;
    const Signature* parent = nullptr;
    for (const ClusterImage& p : images) {
      if (p.id == img.parent) parent = &p.sig;
    }
    if (parent == nullptr) {
      ADD_FAILURE() << "cluster " << img.id << " has no parent image";
      continue;
    }
    const CandidateSet cs(*parent, idx.config().division_factor, 0.0);
    bool candidate = false;
    for (size_t i = 0; i < cs.size() && !candidate; ++i) {
      candidate = cs.MakeSignature(*parent, i) == img.sig;
    }
    if (!candidate) ++count;
  }
  return count;
}

void ExpectSameStructure(const AdaptiveIndex& a, const AdaptiveIndex& b) {
  const auto ia = a.DumpClusters();
  const auto ib = b.DumpClusters();
  ASSERT_EQ(ia.size(), ib.size());
  for (size_t i = 0; i < ia.size(); ++i) {
    EXPECT_EQ(ia[i].id, ib[i].id);
    EXPECT_EQ(ia[i].parent, ib[i].parent);
    EXPECT_TRUE(ia[i].sig == ib[i].sig) << "cluster " << ia[i].id;
    EXPECT_EQ(ia[i].ids, ib[i].ids) << "cluster " << ia[i].id;
    EXPECT_EQ(ia[i].coords, ib[i].coords) << "cluster " << ia[i].id;
  }
}

// Objects whose starts and ends sit exactly on the variation-interval
// bounds of live signatures: on a half-open piece's upper bound (which that
// piece rejects and its neighbour accepts), on the closed last piece's
// upper bound, and on lower bounds.
std::vector<float> BoundaryObjects(const AdaptiveIndex& idx, Rng& rng,
                                   size_t n) {
  const Dim nd = idx.dims();
  const auto images = idx.DumpClusters();
  std::vector<float> coords;
  for (size_t i = 0; i < n; ++i) {
    const Signature& sig = images[rng.NextBelow(images.size())].sig;
    for (Dim d = 0; d < nd; ++d) {
      const VarInterval& sv = sig.start_var(d);
      const VarInterval& ev = sig.end_var(d);
      float lo = rng.NextBelow(2) ? sv.hi : sv.lo;
      float hi = rng.NextBelow(2) ? ev.hi : ev.lo;
      if (rng.NextBelow(4) == 0) lo = hi = 1.0f;  // the closed last piece
      if (lo > hi) std::swap(lo, hi);
      coords.push_back(lo);
      coords.push_back(hi);
    }
  }
  return coords;
}

TEST(AdaptiveBulkInsert, EqualsSequentialInsert) {
  auto bulk = ConvergedTwin();
  auto seq = ConvergedTwin();
  ASSERT_GT(bulk->reorg_stats().merges, 0u);
  ASSERT_GT(bulk->cluster_count(), 10u);
  ASSERT_GT(NonCandidateChildren(*bulk), 0u)
      << "merges left no reparented children; the test lost its point";
  ExpectSameStructure(*bulk, *seq);

  const Dim nd = bulk->dims();
  const size_t stride = 2 * static_cast<size_t>(nd);
  const size_t chunk = AdaptiveIndex::kPlacementChunk;
  Rng rng(53);
  Rng qrng_bulk(59), qrng_seq(59);
  ObjectId next_id = 100000;
  size_t batch_passes = 0, descents = 0;
  for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                         size_t{5}, size_t{15}, size_t{16}, size_t{17},
                         size_t{32}, size_t{33}, size_t{47}, size_t{48},
                         size_t{49}, chunk - 1, chunk, chunk + 1,
                         size_t{3000}}) {
    // Small batches take Insert's descent, the rest the cluster-major pass
    // (whose vector tails the sizes around multiples of 16 cover).
    ++(AdaptiveIndex::PlacesAsBatch(n, bulk->cluster_count()) ? batch_passes
                                                               : descents);
    std::vector<ObjectId> ids;
    std::vector<float> coords;
    // Two thirds random boxes (a spread of sizes and places), one third
    // boundary objects, interleaved.
    const std::vector<float> edge = BoundaryObjects(*bulk, rng, n);
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(next_id++);
      if (i % 3 == 2) {
        coords.insert(coords.end(), edge.begin() + i * stride,
                      edge.begin() + (i + 1) * stride);
      } else {
        const Box b = RandomBox(rng, nd, i % 2 ? 0.05f : 0.6f);
        coords.insert(coords.end(), b.data(), b.data() + stride);
      }
    }
    bulk->BulkInsert(Span<const ObjectId>(ids.data(), ids.size()),
                     Span<const float>(coords.data(), coords.size()));
    for (size_t i = 0; i < n; ++i) {
      seq->Insert(ids[i], BoxView(coords.data() + i * stride, nd));
    }
    ExpectSameStructure(*bulk, *seq);
    for (const ObjectId id : ids) {
      ASSERT_EQ(bulk->OwnerOf(id), seq->OwnerOf(id)) << "n=" << n;
    }
    bulk->CheckInvariants();
    seq->CheckInvariants();
    // Move the access probabilities (and so the placement ranking) on.
    RunQueries(*bulk, qrng_bulk, 60, 0.2f, 0.6f);
    RunQueries(*seq, qrng_seq, 60, 0.2f, 0.6f);
  }
  ASSERT_GT(bulk->cluster_count(), 10u);
  EXPECT_GE(batch_passes, 9u);
  EXPECT_GE(descents, 8u);
}

TEST(AdaptiveBulkInsertDeathTest, OutOfDomainObjectAbortsLikeInsert) {
  // On a converged index most clusters leave most dimensions full-domain,
  // so without the root's test they would accept an object that lies
  // outside the domain there.
  auto idx = ConvergedTwin();
  const Dim nd = idx->dims();
  const size_t stride = 2 * static_cast<size_t>(nd);
  Rng rng(61);
  std::vector<ObjectId> ids;
  std::vector<float> coords;
  for (ObjectId i = 0; i < 40; ++i) {
    ids.push_back(100000 + i);
    const Box b = RandomBox(rng, nd, 0.3f);
    coords.insert(coords.end(), b.data(), b.data() + stride);
  }
  ASSERT_TRUE(AdaptiveIndex::PlacesAsBatch(ids.size(), idx->cluster_count()));
  float* bad = coords.data() + 17 * stride;
  const auto bulk_insert = [&] {
    idx->BulkInsert(Span<const ObjectId>(ids.data(), ids.size()),
                    Span<const float>(coords.data(), coords.size()));
  };
  const char* kInsertAbort = "ACCL_CHECK failed: best != kNoCluster";
  // Object 17 ends past the domain on dimension 1: no cluster accepts it.
  const float good = bad[3];
  bad[3] = 1.5f;
  EXPECT_DEATH(idx->Insert(ids[17], BoxView(bad, nd)), kInsertAbort);
  EXPECT_DEATH(bulk_insert(), kInsertAbort);
  // A batch of one takes Insert's descent and aborts the same way.
  EXPECT_DEATH(idx->BulkInsert(Span<const ObjectId>(ids.data() + 17, 1),
                               Span<const float>(bad, stride)),
               kInsertAbort);
  // A NaN coordinate is rejected the same way.
  bad[3] = std::nanf("");
  EXPECT_DEATH(idx->Insert(ids[17], BoxView(bad, nd)), kInsertAbort);
  EXPECT_DEATH(bulk_insert(), kInsertAbort);
  // A duplicate id in the batch aborts on the id check, as Insert does.
  bad[3] = good;
  ids[30] = ids[3];
  EXPECT_DEATH(bulk_insert(), "owner_.Find\\(id\\) == nullptr");
  ids[30] = 100030;
  bulk_insert();
  idx->CheckInvariants();
}

}  // namespace
}  // namespace accl
