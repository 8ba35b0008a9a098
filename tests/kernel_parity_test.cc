// Cross-backend parity for the runtime-dispatched verify kernels.
//
// Every registered backend must be indistinguishable from the scalar
// reference on any input: byte-identical match sets (same ids, same order)
// and identical early-exit dims accounting — the dims contract on
// VerifyBackend promises logical reads, so a wider probe may never change
// the count. The fuzzer sweeps dimensionalities chosen to stress every
// chunk/tail split (below one chunk, exactly one chunk, chunk+1 float,
// unaligned tails) and batch sizes around the 64-record block boundary,
// plus degenerate point queries and boundary-touching coordinates.
//
// Also covered here: AdmitSlots parity (the SignatureTable admit sweep),
// RankAccepting parity (BulkInsert's placement seam), registry
// selection (widest supported), the ACCL_FORCE_BACKEND env pin, the
// AdaptiveConfig::verify_backend request, and ValidateOptions' rejection
// of unknown backend names.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/adaptive_index.h"
#include "kernels/backend_registry.h"
#include "sdi/subscription_engine.h"
#include "storage/slot_array.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/query_gen.h"

namespace accl {
namespace {

using kernels::BackendRegistry;
using kernels::VerifyBackend;

constexpr Relation kRelations[] = {Relation::kIntersects,
                                   Relation::kContainedBy,
                                   Relation::kEncloses};

const VerifyBackend* Scalar() {
  const VerifyBackend* s = BackendRegistry::Instance().Find("scalar");
  EXPECT_NE(s, nullptr);
  return s;
}

struct KernelResult {
  std::vector<ObjectId> matches;
  uint64_t dims = 0;
  size_t returned = 0;
};

KernelResult Run(const VerifyBackend& b, const SlotArray& a,
                 const BatchQuery& bq) {
  KernelResult r;
  r.returned = b.VerifyBatch(a.coords_data(), a.ids().data(), a.size(), bq,
                             &r.matches, &r.dims);
  return r;
}

void ExpectBackendParity(const SlotArray& a, const Box& q, Relation rel) {
  const BatchQuery bq(q.view(), rel);
  const KernelResult ref = Run(*Scalar(), a, bq);
  EXPECT_EQ(ref.returned, ref.matches.size());
  for (const VerifyBackend* b : BackendRegistry::Instance().All()) {
    const KernelResult got = Run(*b, a, bq);
    EXPECT_EQ(got.matches, ref.matches)
        << b->name() << " match set diverged, " << RelationName(rel)
        << " nd=" << a.dims() << " n=" << a.size();
    EXPECT_EQ(got.dims, ref.dims)
        << b->name() << " dims accounting diverged, " << RelationName(rel)
        << " nd=" << a.dims() << " n=" << a.size();
    EXPECT_EQ(got.returned, ref.returned) << b->name();
  }
}

TEST(KernelParity, RandomBatchesAllBackends) {
  Rng rng(101);
  // nd values stressing every chunk/tail split of the 16-float probe:
  // whole record below one chunk (nd<8), exactly one chunk (8), chunk+tail
  // (15,17), multi-chunk (16,31,33,40).
  for (Dim nd : {1u, 2u, 3u, 5u, 7u, 8u, 15u, 16u, 17u, 31u, 33u, 40u}) {
    SlotArray a(nd);
    for (ObjectId id = 0; id < 300; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.5f).view());
    }
    for (int t = 0; t < 12; ++t) {
      const Box q = testutil::RandomBox(rng, nd, 0.8f);
      for (Relation rel : kRelations) ExpectBackendParity(a, q, rel);
    }
  }
}

TEST(KernelParity, BlockBoundarySizes) {
  Rng rng(202);
  const Dim nd = 9;  // one full chunk + 2-float tail
  for (size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 130u}) {
    SlotArray a(nd);
    for (ObjectId id = 0; id < n; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.4f).view());
    }
    for (int t = 0; t < 6; ++t) {
      const Box q = testutil::RandomBox(rng, nd, 0.9f);
      for (Relation rel : kRelations) ExpectBackendParity(a, q, rel);
    }
  }
}

TEST(KernelParity, DegenerateAndBoundaryTouching) {
  Rng rng(303);
  for (Dim nd : {2u, 8u, 16u, 19u}) {
    SlotArray a(nd);
    // Random boxes plus constructions that put coordinates exactly on the
    // query faces: equality must stay "satisfied" (closed intervals) on
    // every backend — ordered-quiet SIMD compares and scalar > / < must
    // agree on ties.
    for (ObjectId id = 0; id < 150; ++id) {
      a.Append(id, testutil::RandomBox(rng, nd, 0.6f).view());
    }
    Box q(nd);
    for (Dim d = 0; d < nd; ++d) q.set(d, 0.25f, 0.75f);
    Box same = q;
    a.Append(1000, same.view());
    Box touch(nd);
    for (Dim d = 0; d < nd; ++d) touch.set(d, 0.75f, 1.0f);
    a.Append(1001, touch.view());
    for (Relation rel : kRelations) ExpectBackendParity(a, q, rel);

    // Zero-extent (point) queries — the point-enclosing case.
    for (int t = 0; t < 8; ++t) {
      Box p(nd);
      for (Dim d = 0; d < nd; ++d) {
        const float x = rng.NextFloat();
        p.set(d, x, x);
      }
      for (Relation rel : kRelations) ExpectBackendParity(a, p, rel);
    }
  }
}

// SignatureTable's admit sweep: random signature tables (dimension-major,
// padded stride, mostly full-domain entries like real signatures, refined
// entries on piece bounds or one ulp beside them, whole NaN rows like freed
// ids, stray NaN entries), probed with query bounds on and beside the same
// edges, through each relation's pair of arrays. Every backend must emit
// the scalar reference's survivors in the same ascending order, and the
// reference must equal a per-row brute force.
TEST(KernelParity, AdmitSlotsAllBackends) {
  Rng rng(404);
  const VerifyBackend* ref = Scalar();
  const float kEdges[] = {0.0f, 0.25f, 0.5f, 0.75f, 1.0f};
  const auto edge = [&] {
    const float e = kEdges[rng.NextBelow(5)];
    switch (rng.NextBelow(4)) {
      case 0:
        return std::nextafter(e, 2.0f);
      case 1:
        return std::nextafter(e, -1.0f);
      default:
        return e;
    }
  };
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 33; ++n) sizes.push_back(n);
  for (size_t n : {47u, 48u, 49u, 100u, 257u}) sizes.push_back(n);
  uint64_t admitted = 0, rejected = 0;
  for (Dim nd = 1; nd <= 40; ++nd) {
    for (size_t n : sizes) {
      const size_t stride = n + 3;
      // amin, amax, bmin, bmax as SignatureTable lays them out.
      std::vector<float> amin(nd * stride), amax(nd * stride),
          bmin(nd * stride), bmax(nd * stride);
      for (size_t s = 0; s < n; ++s) {
        const bool free_row = rng.NextBelow(8) == 0;
        for (Dim d = 0; d < nd; ++d) {
          const size_t i = d * stride + s;
          amin[i] = bmin[i] = 0.0f;
          amax[i] = bmax[i] = 1.0f;
          if (free_row) {
            amin[i] = amax[i] = bmin[i] = bmax[i] = std::nanf("");
          } else if (rng.NextBelow(6) == 0) {
            amin[i] = edge();
            amax[i] = edge();
            bmin[i] = edge();
            bmax[i] = edge();
          } else if (rng.NextBelow(200) == 0) {
            (rng.NextBelow(2) ? amin[i] : bmax[i]) = std::nanf("");
          }
        }
      }
      std::vector<float> lo(nd), hi(nd);
      for (int t = 0; t < 4; ++t) {
        for (Dim d = 0; d < nd; ++d) {
          lo[d] = edge();
          hi[d] = rng.NextBelow(3) == 0 ? lo[d] : edge();
          if (t == 3 && rng.NextBelow(50) == 0) lo[d] = std::nanf("");
        }
        for (Relation rel : kRelations) {
          // The arrays and bounds SignatureTable::CollectAdmitted passes.
          const float* le = rel == Relation::kContainedBy ? bmin.data()
                                                           : amin.data();
          const float* ge = rel == Relation::kContainedBy ? amax.data()
                                                           : bmax.data();
          const std::vector<float>& le_b = rel == Relation::kEncloses ? lo : hi;
          const std::vector<float>& ge_b = rel == Relation::kEncloses ? hi : lo;

          std::vector<uint32_t> brute;
          for (size_t s = 0; s < n; ++s) {
            bool pass = true;
            for (Dim d = 0; d < nd; ++d) {
              pass = pass && le[d * stride + s] <= le_b[d] &&
                     ge[d * stride + s] >= ge_b[d];
            }
            if (pass) brute.push_back(static_cast<uint32_t>(s));
          }
          admitted += brute.size();
          rejected += n - brute.size();

          std::vector<uint32_t> expect(n + 1, 0xFFFFFFFFu);
          expect.resize(ref->AdmitSlots(le, ge, stride, le_b.data(),
                                        ge_b.data(), nd, n, expect.data()));
          ASSERT_EQ(expect, brute)
              << "scalar reference, nd=" << nd << " n=" << n << " "
              << RelationName(rel);
          for (const VerifyBackend* b : BackendRegistry::Instance().All()) {
            std::vector<uint32_t> got(n + 1, 0xFFFFFFFFu);
            got.resize(b->AdmitSlots(le, ge, stride, le_b.data(), ge_b.data(),
                                     nd, n, got.data()));
            ASSERT_EQ(got, expect) << b->name() << " nd=" << nd << " n=" << n
                                   << " " << RelationName(rel);
          }
        }
      }
    }
  }
  // Both outcomes occur often enough to mean something.
  EXPECT_GT(admitted, 10000u);
  EXPECT_GT(rejected, 10000u);
}

TEST(KernelParity, RankAcceptingAllBackends) {
  // BulkInsert's placement op: per-object acceptance over column-major
  // chunks, min-ranked into best[]. Sizes straddle every vector width's
  // tail; values sit on the test bounds (ties must accept), one float
  // either side of them, and include NaN (never accepted).
  using ColumnRange = VerifyBackend::ColumnRange;
  Rng rng(505);
  const VerifyBackend* ref = Scalar();
  const float kEdges[] = {0.0f, 0.25f, 0.5f, 1.0f};
  for (size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 33u,
                   100u, 1023u}) {
    const size_t ncols = 6;
    const size_t col_stride = n + 5;  // padded, like BulkInsert's columns
    std::vector<float> cols(ncols * col_stride);
    for (float& x : cols) {
      switch (rng.NextBelow(4)) {
        case 0:
          x = kEdges[rng.NextBelow(4)];
          break;
        case 1:
          x = std::nextafter(kEdges[rng.NextBelow(4)],
                             rng.NextBelow(2) ? 2.0f : -1.0f);
          break;
        case 2:
          x = rng.NextBelow(50) == 0 ? std::nanf("") : -0.0f;
          break;
        default:
          x = rng.NextFloat();
      }
    }
    std::vector<uint32_t> expect(n, 0xFFFFFFFFu);
    std::vector<std::vector<uint32_t>> got(
        BackendRegistry::Instance().All().size(), expect);
    // Successive "clusters" with 0..4 tests each, ranks ascending but with
    // a few out-of-order ones so the min (not just first-wins) is checked.
    for (uint32_t r = 0; r < 40; ++r) {
      std::vector<ColumnRange> tests(r % 5);
      for (ColumnRange& t : tests) {
        t.col = static_cast<uint32_t>(rng.NextBelow(ncols));
        const float a = kEdges[rng.NextBelow(3)];
        t.lo = a;
        t.hi = rng.NextBelow(2) ? kEdges[1 + rng.NextBelow(3)]
                                : std::nextafter(a + 0.25f, 0.0f);
      }
      const uint32_t rank = r % 7 == 6 ? r / 2 : r + 10;
      ref->RankAccepting(cols.data(), col_stride, n, tests.data(),
                         tests.size(), rank, expect.data());
      size_t k = 0;
      for (const VerifyBackend* b : BackendRegistry::Instance().All()) {
        b->RankAccepting(cols.data(), col_stride, n, tests.data(),
                         tests.size(), rank, got[k].data());
        ASSERT_EQ(got[k], expect)
            << b->name() << " n=" << n << " after rank " << rank;
        ++k;
      }
    }
    // Rank 10 ran with no tests, so it accepted every object.
    for (size_t i = 0; i < n; ++i) EXPECT_LE(expect[i], 10u);
  }

  // Bounds are inclusive on both sides and a NaN never passes.
  const float col[] = {std::nanf(""), 0.5f, 1.0f, std::nextafter(1.0f, 2.0f),
                       std::nextafter(0.5f, 0.0f), 0.75f, 0.5f, 1.0f,
                       -std::nanf(""), 0.6f, 0.4f, 1.0f, 0.5f, 0.9f, 2.0f,
                       0.5f, 0.55f};
  const size_t n = sizeof(col) / sizeof(col[0]);
  const ColumnRange t{0, 0.5f, 1.0f};
  for (const VerifyBackend* b : BackendRegistry::Instance().All()) {
    std::vector<uint32_t> best(n, 0xFFFFFFFFu);
    b->RankAccepting(col, n, n, &t, 1, 7, best.data());
    for (size_t i = 0; i < n; ++i) {
      const bool in = col[i] >= 0.5f && col[i] <= 1.0f;
      EXPECT_EQ(best[i], in ? 7u : 0xFFFFFFFFu) << b->name() << " i=" << i;
    }
  }
}

TEST(KernelRegistry, ScalarAlwaysRegisteredAndWidestSelected) {
  const auto& reg = BackendRegistry::Instance();
  ASSERT_NE(reg.Find("scalar"), nullptr);
  ASSERT_FALSE(reg.All().empty());

  ::unsetenv("ACCL_FORCE_BACKEND");
  const VerifyBackend* resolved = reg.Resolve("");
  ASSERT_NE(resolved, nullptr);
  for (const VerifyBackend* b : reg.All()) {
    EXPECT_GE(resolved->vector_width_floats(), b->vector_width_floats())
        << "Resolve(\"\") must pick the widest registered backend";
  }
#if defined(ACCL_KERNEL_HAVE_AVX512)
  if (reg.host().avx512f) {
    EXPECT_STREQ(resolved->name(), "avx512");
  }
#endif
#if defined(ACCL_KERNEL_HAVE_AVX2)
  if (reg.host().avx2 && !reg.host().avx512f) {
    EXPECT_STREQ(resolved->name(), "avx2");
  }
#endif

  // Every registered backend claims support on this host (registration
  // filtered on the CPUID probe).
  for (const VerifyBackend* b : reg.All()) {
    EXPECT_TRUE(b->SupportedOnHost(reg.host())) << b->name();
  }
}

TEST(KernelRegistry, EnvPinOverridesConfigAndUnknownFallsBack) {
  const auto& reg = BackendRegistry::Instance();
  ::setenv("ACCL_FORCE_BACKEND", "scalar", 1);
  std::string note;
  const VerifyBackend* pinned = reg.Resolve("", &note);
  ASSERT_NE(pinned, nullptr);
  EXPECT_STREQ(pinned->name(), "scalar");
  EXPECT_NE(note.find("ACCL_FORCE_BACKEND"), std::string::npos);
  // Env beats an explicit config request.
  const VerifyBackend* beat = reg.Resolve("sse2");
  if (reg.Find("sse2") != nullptr) {
    ASSERT_NE(beat, nullptr);
    EXPECT_STREQ(beat->name(), "scalar");
  }

  // An unknown env name warns and falls through to normal resolution.
  ::setenv("ACCL_FORCE_BACKEND", "gpu-of-the-future", 1);
  const VerifyBackend* fallback = reg.Resolve("");
  ASSERT_NE(fallback, nullptr);
  const VerifyBackend* requested = reg.Resolve("scalar");
  ASSERT_NE(requested, nullptr);
  EXPECT_STREQ(requested->name(), "scalar");
  ::unsetenv("ACCL_FORCE_BACKEND");

  // Unknown *config* names are the caller's error: nullptr, no fallback.
  EXPECT_EQ(reg.Resolve("gpu-of-the-future"), nullptr);
}

// End-to-end: the same workload through AdaptiveIndex pinned to each
// backend must return identical answers with bit-identical metrics — the
// cost model sees the same dims_checked regardless of kernel width, so the
// clustering decisions (and thus the structure) cannot diverge by backend.
TEST(KernelParity, AdaptiveIndexPinnedBackendsAgree) {
  ::unsetenv("ACCL_FORCE_BACKEND");
  const auto& reg = BackendRegistry::Instance();
  const Dim nd = 16;
  UniformSpec spec;
  spec.nd = nd;
  spec.count = 2000;
  spec.seed = 505;
  const Dataset ds = GenerateUniform(spec);
  const std::vector<Query> queries =
      GenerateQueriesWithExtent(nd, Relation::kIntersects, 300, 0.35, 606);

  struct Outcome {
    std::vector<std::vector<ObjectId>> results;
    std::vector<QueryMetrics> metrics;
    size_t clusters;
  };
  auto run = [&](const std::string& backend) {
    AdaptiveConfig cfg;
    cfg.nd = nd;
    cfg.reorg_period = 64;
    cfg.min_observation = 16;
    cfg.verify_backend = backend;
    AdaptiveIndex idx(cfg);
    EXPECT_EQ(std::string(idx.verify_kernel().backend), backend);
    testutil::Load(idx, ds);
    // One VerifyBatch dispatch is counted per explored cluster.
    const VerifyBackend* kernel = reg.Find(backend);
    Outcome o;
    for (const Query& q : queries) {
      QueryMetrics m;
      const uint64_t dispatched = kernel->dispatch_count();
      o.results.push_back(testutil::RunQuery(idx, q, &m));
      o.metrics.push_back(m);
      EXPECT_EQ(kernel->dispatch_count() - dispatched, m.groups_explored)
          << backend;
    }
    o.clusters = idx.cluster_count();
    return o;
  };

  const Outcome ref = run("scalar");
  for (const VerifyBackend* b : reg.All()) {
    if (std::string(b->name()) == "scalar") continue;
    const Outcome got = run(b->name());
    EXPECT_EQ(got.clusters, ref.clusters) << b->name();
    ASSERT_EQ(got.results.size(), ref.results.size());
    for (size_t i = 0; i < ref.results.size(); ++i) {
      EXPECT_EQ(got.results[i], ref.results[i]) << b->name() << " q#" << i;
      EXPECT_EQ(got.metrics[i].dims_checked, ref.metrics[i].dims_checked)
          << b->name() << " q#" << i;
      EXPECT_EQ(got.metrics[i].objects_verified,
                ref.metrics[i].objects_verified)
          << b->name() << " q#" << i;
      EXPECT_EQ(got.metrics[i].sim_time_ms, ref.metrics[i].sim_time_ms)
          << b->name() << " q#" << i << " (bit-identical cost model)";
    }
  }
}

TEST(KernelRegistry, ValidateOptionsRejectsUnknownBackend) {
  AttributeSchema schema;
  schema.AddAttribute("x", 0, 100);
  schema.AddAttribute("y", 0, 100);

  EngineOptions opts;
  opts.index.verify_backend = "not-a-backend";
  const Status bad = SubscriptionEngine::ValidateOptions(schema, opts);
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.message().find("verify_backend"), std::string::npos);
  EXPECT_NE(bad.message().find("scalar"), std::string::npos)
      << "error should list the registered backends";

  opts.index.verify_backend = "scalar";
  EXPECT_TRUE(SubscriptionEngine::ValidateOptions(schema, opts).ok());
  opts.index.verify_backend.clear();
  EXPECT_TRUE(SubscriptionEngine::ValidateOptions(schema, opts).ok());
}

}  // namespace
}  // namespace accl
