// Regression tests for the SignatureTable admit filter's domain edge cases:
// degenerate query boxes (lo == hi on some or all dimensions) and boxes
// partially or entirely outside [0,1]. In every case AdaptiveIndex results
// must match SeqScan exactly, and CollectAdmitted must equal brute-force
// AdmitsQuery in ascending id order, also while ids are freed and recycled.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <vector>

#include "core/adaptive_index.h"
#include "core/signature_table.h"
#include "seqscan/seq_scan.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

constexpr Dim kNd = 5;

Box MakeBoxAll(float lo, float hi) {
  Box b(kNd);
  for (Dim d = 0; d < kNd; ++d) b.set(d, lo, hi);
  return b;
}

/// Builds an adapted index + seqscan over data touching the domain edges:
/// degenerate (point) objects, boundary-hugging boxes, interior boxes.
struct Rig {
  AdaptiveIndex idx;
  SeqScan ss;

  Rig() : idx(Config()), ss(kNd) {
    Rng rng(71);
    for (ObjectId id = 0; id < 4000; ++id) {
      Box b(kNd);
      for (Dim d = 0; d < kNd; ++d) {
        const double roll = rng.NextDouble();
        if (roll < 0.15) {
          const float x = rng.NextFloat();
          b.set(d, x, x);  // degenerate on this dimension
        } else if (roll < 0.30) {
          b.set(d, 0.0f, 0.2f * rng.NextFloat());  // pinned to the low edge
        } else if (roll < 0.45) {
          b.set(d, 1.0f - 0.2f * rng.NextFloat(), 1.0f);  // high edge
        } else {
          const float len = 0.3f * rng.NextFloat();
          const float start = (1.0f - len) * rng.NextFloat();
          b.set(d, start, start + len);
        }
      }
      idx.Insert(id, b.view());
      ss.Insert(id, b.view());
    }
    // Converge so refined signatures exist and the admit filter has real
    // rejection power before the edge-case probes run.
    std::vector<ObjectId> scratch;
    for (int i = 0; i < 600; ++i) {
      scratch.clear();
      idx.Execute(Query::Intersection(testutil::RandomBox(rng, kNd, 0.3f)),
                  &scratch);
    }
  }

  static AdaptiveConfig Config() {
    AdaptiveConfig cfg;
    cfg.nd = kNd;
    cfg.reorg_period = 50;
    cfg.min_observation = 8;
    return cfg;
  }

  void ExpectParity(const Query& q, const char* what) {
    EXPECT_EQ(testutil::RunQuery(idx, q), testutil::RunQuery(ss, q)) << what;
  }
};

TEST(DomainEdges, DegenerateQueryBoxesMatchSeqScan) {
  Rig rig;
  ASSERT_GT(rig.idx.cluster_count(), 1u);
  for (const Relation rel :
       {Relation::kIntersects, Relation::kContainedBy, Relation::kEncloses}) {
    // Fully degenerate (a point), interior and at both corners.
    rig.ExpectParity(Query(MakeBoxAll(0.5f, 0.5f), rel), "interior point");
    rig.ExpectParity(Query(MakeBoxAll(0.0f, 0.0f), rel), "origin corner");
    rig.ExpectParity(Query(MakeBoxAll(1.0f, 1.0f), rel), "far corner");
    // Degenerate on one dimension only.
    Box b = MakeBoxAll(0.2f, 0.8f);
    b.set(2, 0.5f, 0.5f);
    rig.ExpectParity(Query(b, rel), "one flat dimension");
    // Degenerate and pinned to an edge on one dimension.
    Box e = MakeBoxAll(0.1f, 0.9f);
    e.set(0, 1.0f, 1.0f);
    rig.ExpectParity(Query(e, rel), "flat at hi edge");
  }
}

TEST(DomainEdges, OutOfDomainQueryBoxesMatchSeqScan) {
  Rig rig;
  for (const Relation rel :
       {Relation::kIntersects, Relation::kContainedBy, Relation::kEncloses}) {
    rig.ExpectParity(Query(MakeBoxAll(-0.5f, -0.1f), rel), "entirely below");
    rig.ExpectParity(Query(MakeBoxAll(1.1f, 1.6f), rel), "entirely above");
    rig.ExpectParity(Query(MakeBoxAll(-0.3f, 0.4f), rel), "straddles low");
    rig.ExpectParity(Query(MakeBoxAll(0.7f, 1.3f), rel), "straddles high");
    rig.ExpectParity(Query(MakeBoxAll(-1.0f, 2.0f), rel), "covers domain");
    // Mixed: one dimension out of domain, the rest inside.
    Box m = MakeBoxAll(0.3f, 0.6f);
    m.set(1, -0.2f, 0.1f);
    rig.ExpectParity(Query(m, rel), "one dim below");
    Box h = MakeBoxAll(0.3f, 0.6f);
    h.set(4, 0.95f, 1.05f);
    rig.ExpectParity(Query(h, rel), "one dim above");
    // Out of domain *and* degenerate.
    rig.ExpectParity(Query(MakeBoxAll(1.25f, 1.25f), rel),
                     "degenerate above domain");
  }
}

/// Division-like refined signature: narrows `refined_dims` leading
/// dimensions to one 1/f-width piece chosen by the rng.
Signature RandomRefinedSignature(Rng& rng, Dim refined_dims, uint32_t f) {
  Signature sig(kNd);
  for (Dim d = 0; d < refined_dims; ++d) {
    const uint32_t ps = static_cast<uint32_t>(rng.NextBelow(f));
    const uint32_t pe = static_cast<uint32_t>(rng.NextBelow(f));
    const float w = 1.0f / static_cast<float>(f);
    VarInterval start{ps * w, (ps + 1) * w, ps + 1 == f};
    VarInterval end{pe * w, (pe + 1) * w, pe + 1 == f};
    sig.set(d, start, end);
  }
  return sig;
}

TEST(DomainEdges, CollectAdmittedEqualsBruteForceAdmitsQuery) {
  Rng rng(13);
  SignatureTable table(kNd);
  std::vector<std::pair<ClusterId, Signature>> sigs;
  for (ClusterId id = 0; id < 60; ++id) {
    Signature s = RandomRefinedSignature(
        rng, static_cast<Dim>(rng.NextBelow(kNd + 1)), 4);
    table.Add(id, s);
    sigs.emplace_back(id, std::move(s));
  }
  ASSERT_EQ(table.size(), sigs.size());

  const auto check = [&](const Query& q, const char* what) {
    std::vector<ClusterId> got;
    table.CollectAdmitted(q, &got);
    std::vector<ClusterId> expect;
    for (const auto& [id, sig] : sigs) {
      if (sig.AdmitsQuery(q)) expect.push_back(id);
    }
    EXPECT_EQ(got, expect) << what << " rel=" << static_cast<int>(q.rel);
  };

  for (const Relation rel :
       {Relation::kIntersects, Relation::kContainedBy, Relation::kEncloses}) {
    for (int i = 0; i < 200; ++i) {
      check(Query(testutil::RandomBox(rng, kNd, 0.6f), rel), "in-domain");
    }
    // Adversarial fixed probes on both paths.
    check(Query(MakeBoxAll(0.0f, 0.0f), rel), "zero corner");
    check(Query(MakeBoxAll(1.0f, 1.0f), rel), "one corner");
    check(Query(MakeBoxAll(0.25f, 0.25f), rel), "piece boundary point");
    check(Query(MakeBoxAll(-0.5f, -0.2f), rel), "below domain");
    check(Query(MakeBoxAll(1.01f, 1.5f), rel), "above domain");
    check(Query(MakeBoxAll(-0.1f, 1.1f), rel), "superset of domain");
    for (int i = 0; i < 100; ++i) {
      // Random boxes shifted partially outside the domain.
      Box b = testutil::RandomBox(rng, kNd, 0.5f);
      Box shifted(kNd);
      for (Dim d = 0; d < kNd; ++d) {
        const float off = (rng.NextFloat() - 0.5f);
        shifted.set(d, b.lo(d) + off, b.hi(d) + off);
      }
      check(Query(shifted, rel), "shifted");
    }
  }
}

// Freed rows must never be admitted, recycled ids must take their new
// signature, and the output must stay in ascending id order while the
// high-water id moves both ways. Ids are recycled last-freed-first, as
// AdaptiveIndex does.
TEST(DomainEdges, CollectAdmittedTracksRemoveAndRecycle) {
  Rng rng(29);
  SignatureTable table(kNd);
  std::map<ClusterId, Signature> live;
  std::vector<ClusterId> free_ids;
  ClusterId next_id = 0;
  const auto add = [&] {
    ClusterId id = next_id;
    if (!free_ids.empty()) {
      id = free_ids.back();
      free_ids.pop_back();
    } else {
      ++next_id;
    }
    Signature s = RandomRefinedSignature(
        rng, static_cast<Dim>(rng.NextBelow(kNd + 1)), 4);
    table.Add(id, s);
    live.insert_or_assign(id, std::move(s));
  };
  const auto remove = [&](ClusterId id) {
    table.Remove(id);
    live.erase(id);
    free_ids.push_back(id);
  };
  const auto check = [&](int step) {
    ASSERT_EQ(table.size(), live.size()) << "step " << step;
    ASSERT_EQ(table.high_water(), live.empty() ? 0 : live.rbegin()->first + 1)
        << "step " << step;
    for (const Relation rel : {Relation::kIntersects, Relation::kContainedBy,
                               Relation::kEncloses}) {
      const Query q(testutil::RandomBox(rng, kNd, 0.6f), rel);
      std::vector<ClusterId> got;
      table.CollectAdmitted(q, &got);
      std::vector<ClusterId> expect;
      for (const auto& [id, sig] : live) {
        if (sig.AdmitsQuery(q)) expect.push_back(id);
      }
      ASSERT_EQ(got, expect) << "step " << step;
    }
  };

  for (int i = 0; i < 40; ++i) add();
  int step = 0;
  check(step++);
  for (int round = 0; round < 300; ++round) {
    const uint64_t roll = rng.NextBelow(10);
    if (roll < 2 && !live.empty()) {
      remove(live.rbegin()->first);  // the top id: high water drops
    } else if (roll < 6 && !live.empty()) {
      auto it = live.begin();
      std::advance(it, rng.NextBelow(live.size()));
      remove(it->first);
    } else {
      add();
    }
    check(step++);
  }
  // Drain to empty and refill: every row freed, then reused.
  while (!live.empty()) {
    remove(live.begin()->first);
    check(step++);
  }
  for (int i = 0; i < 20; ++i) {
    add();
    check(step++);
  }
}

}  // namespace
}  // namespace accl
