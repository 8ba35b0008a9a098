#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/clustering_function.h"
#include "util/rng.h"

namespace accl {
namespace {

TEST(Piece, DividesEvenly) {
  VarInterval v{0.0f, 1.0f, true};
  VarInterval p0 = Piece(v, 0, 4);
  VarInterval p3 = Piece(v, 3, 4);
  EXPECT_FLOAT_EQ(p0.lo, 0.0f);
  EXPECT_FLOAT_EQ(p0.hi, 0.25f);
  EXPECT_FALSE(p0.hi_closed);
  EXPECT_FLOAT_EQ(p3.lo, 0.75f);
  EXPECT_FLOAT_EQ(p3.hi, 1.0f);
  EXPECT_TRUE(p3.hi_closed);
}

TEST(Piece, LastInheritsOpenness) {
  VarInterval v{0.0f, 0.25f, false};
  VarInterval last = Piece(v, 3, 4);
  EXPECT_FLOAT_EQ(last.hi, 0.25f);
  EXPECT_FALSE(last.hi_closed);
}

TEST(Piece, PaperExample3Subintervals) {
  // Dividing [0, 0.25) with f=4 gives [0,0.0625), [0.0625,0.125),
  // [0.125,0.1875), [0.1875,0.25).
  VarInterval v{0.0f, 0.25f, false};
  EXPECT_FLOAT_EQ(Piece(v, 0, 4).hi, 0.0625f);
  EXPECT_FLOAT_EQ(Piece(v, 1, 4).lo, 0.0625f);
  EXPECT_FLOAT_EQ(Piece(v, 2, 4).lo, 0.125f);
  EXPECT_FLOAT_EQ(Piece(v, 3, 4).lo, 0.1875f);
}

TEST(Piece, PartitionProperty) {
  // Pieces cover the parent without gaps/overlap: every x lands in exactly
  // one piece.
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    float lo = rng.NextFloat() * 0.8f;
    float hi = lo + 0.05f + rng.NextFloat() * 0.15f;
    VarInterval v{lo, hi, rng.NextBool(0.5)};
    for (int t = 0; t < 50; ++t) {
      float x = lo + (hi - lo) * rng.NextFloat();
      if (!v.Contains(x)) continue;
      int count = 0;
      for (uint32_t j = 0; j < 4; ++j) count += Piece(v, j, 4).Contains(x);
      EXPECT_EQ(count, 1) << "x=" << x << " v=" << v.ToString();
    }
  }
}

TEST(PieceIndex, ConsistentWithPieceContains) {
  Rng rng(11);
  for (int iter = 0; iter < 500; ++iter) {
    float lo = rng.NextFloat() * 0.9f;
    float hi = lo + 0.01f + rng.NextFloat() * 0.09f;
    VarInterval v{lo, hi, true};
    float x = lo + (hi - lo) * rng.NextFloat();
    int idx = PieceIndex(v, 4, x);
    ASSERT_GE(idx, 0);
    EXPECT_TRUE(Piece(v, idx, 4).Contains(x));
  }
}

TEST(PieceIndex, OutsideReturnsMinusOne) {
  VarInterval v{0.25f, 0.5f, false};
  EXPECT_EQ(PieceIndex(v, 4, 0.2f), -1);
  EXPECT_EQ(PieceIndex(v, 4, 0.5f), -1);  // half-open upper bound
  EXPECT_EQ(PieceIndex(v, 4, 0.6f), -1);
}

TEST(PieceIndex, BoundaryValues) {
  VarInterval v{0.0f, 1.0f, true};
  EXPECT_EQ(PieceIndex(v, 4, 0.0f), 0);
  EXPECT_EQ(PieceIndex(v, 4, 1.0f), 3);
  EXPECT_EQ(PieceIndex(v, 4, 0.25f), 1);  // boundary belongs to upper piece
  EXPECT_EQ(PieceIndex(v, 4, 0.75f), 3);
}

TEST(CandidateSet, RootCountMatchesPaper) {
  // Root signature: identical variation intervals per dim => symmetric
  // count f(f+1)/2 per dimension. f=4 => 10 per dim (paper Example 3).
  const Dim nd = 16;
  CandidateSet cs(Signature(nd), 4, 0.0);
  EXPECT_EQ(cs.size(), nd * 10u);
}

TEST(CandidateSet, BoundsFromSection6) {
  // Paper §6: between 10*Nd and 16*Nd candidates for f=4.
  for (Dim nd : {2u, 8u, 40u}) {
    CandidateSet cs(Signature(nd), 4, 0.0);
    EXPECT_GE(cs.size(), 10u * nd);
    EXPECT_LE(cs.size(), 16u * nd);
  }
}

TEST(CandidateSet, AsymmetricDimGetsFullGrid) {
  // After refining d0 to disjoint start/end variation intervals, all f^2
  // combinations are feasible on d0.
  Signature s(2);
  s.set(0, {0.0f, 0.25f, false}, {0.75f, 1.0f, true});
  CandidateSet cs(s, 4, 0.0);
  size_t d0 = 0, d1 = 0;
  for (size_t i = 0; i < cs.size(); ++i) {
    (cs.at(i).dim == 0 ? d0 : d1)++;
  }
  EXPECT_EQ(d0, 16u);
  EXPECT_EQ(d1, 10u);
}

TEST(CandidateSet, PaperExample3TenSubsignatures) {
  // sigma1 = {d1 [0,0.25):[0,0.25), d2 [0,1]:[0,1]}; dividing d1 yields the
  // 10 listed combinations (ia <= ib).
  Signature s(2);
  s.set(0, {0.0f, 0.25f, false}, {0.0f, 0.25f, false});
  CandidateSet cs(s, 4, 0.0);
  int d0_count = 0;
  for (size_t i = 0; i < cs.size(); ++i) {
    const auto& c = cs.at(i);
    if (c.dim != 0) continue;
    ++d0_count;
    EXPECT_LE(c.ia, c.ib);
    // Check the first listed subsignature appears: [0,0.0625):[0,0.0625).
    if (c.ia == 0 && c.ib == 0) {
      Signature sub = cs.MakeSignature(s, i);
      EXPECT_FLOAT_EQ(sub.start_var(0).hi, 0.0625f);
      EXPECT_FLOAT_EQ(sub.end_var(0).hi, 0.0625f);
      EXPECT_FALSE(sub.start_var(0).hi_closed);
    }
  }
  EXPECT_EQ(d0_count, 10);
}

TEST(CandidateSet, MakeSignatureRefinesOwner) {
  Signature root(4);
  CandidateSet cs(root, 4, 0.0);
  for (size_t i = 0; i < cs.size(); ++i) {
    Signature sub = cs.MakeSignature(root, i);
    EXPECT_TRUE(sub.RefinedFrom(root));
    EXPECT_FALSE(sub.IsRoot());
  }
}

TEST(CandidateSet, DegenerateDimsNotDivided) {
  Signature s(2);
  s.set(0, {0.5f, 0.5f, true}, {0.5f, 0.5f, true});  // zero width
  CandidateSet cs(s, 4, 0.0);
  for (size_t i = 0; i < cs.size(); ++i) {
    EXPECT_NE(cs.at(i).dim, 0u);
  }
}

Box RandomObjectIn(const Signature& sig, Rng& rng) {
  const Dim nd = sig.dims();
  Box obj(nd);
  for (Dim d = 0; d < nd; ++d) {
    const VarInterval& sv = sig.start_var(d);
    const VarInterval& ev = sig.end_var(d);
    for (;;) {
      float a = sv.lo + sv.width() * 0.999f * rng.NextFloat();
      float b = ev.lo + ev.width() * 0.999f * rng.NextFloat();
      if (a <= b) {
        obj.set(d, a, b);
        break;
      }
    }
  }
  return obj;
}

// Property: AccountObject(+1) increments exactly the candidates whose
// materialized signatures match the object.
TEST(CandidateSet, AccountObjectAgreesWithSignatures) {
  Rng rng(23);
  const Dim nd = 3;
  Signature sig(nd);
  sig.set(1, {0.0f, 0.5f, false}, {0.25f, 0.75f, false});
  for (int iter = 0; iter < 100; ++iter) {
    CandidateSet cs(sig, 4, 0.0);
    Box obj = RandomObjectIn(sig, rng);
    ASSERT_TRUE(sig.MatchesObject(obj.view()));
    cs.AccountObject(obj.view(), +1);
    for (size_t i = 0; i < cs.size(); ++i) {
      const Signature sub = cs.MakeSignature(sig, i);
      const double expect = sub.MatchesObject(obj.view()) ? 1.0 : 0.0;
      EXPECT_EQ(cs.at(i).n, expect)
          << "cand " << i << " obj " << obj.ToString();
    }
  }
}

TEST(CandidateSet, AccountObjectNegativeDeltaReverses) {
  Rng rng(29);
  Signature sig(4);
  CandidateSet cs(sig, 4, 0.0);
  std::vector<Box> objs;
  for (int i = 0; i < 50; ++i) objs.push_back(RandomObjectIn(sig, rng));
  for (const Box& o : objs) cs.AccountObject(o.view(), +1);
  for (const Box& o : objs) cs.AccountObject(o.view(), -1);
  for (size_t i = 0; i < cs.size(); ++i) EXPECT_EQ(cs.at(i).n, 0.0);
}

// Property: AccountQuery increments exactly the candidates whose
// materialized signatures admit the query.
class AccountQueryProperty : public ::testing::TestWithParam<Relation> {};

TEST_P(AccountQueryProperty, AgreesWithSignatureAdmission) {
  const Relation rel = GetParam();
  Rng rng(31 + static_cast<int>(rel));
  const Dim nd = 3;
  Signature sig(nd);
  sig.set(2, {0.25f, 0.75f, false}, {0.25f, 0.75f, false});
  for (int iter = 0; iter < 100; ++iter) {
    CandidateSet cs(sig, 4, 0.0);
    Box qb(nd);
    for (Dim d = 0; d < nd; ++d) {
      float a = rng.NextFloat(), b = rng.NextFloat();
      if (a > b) std::swap(a, b);
      qb.set(d, a, b);
    }
    Query q(qb, rel);
    // Contract: AccountQuery runs only when the owning cluster is explored,
    // i.e. when the owner's signature admits the query. Candidates differ
    // from the owner in exactly one dimension, so only then does the
    // single-dimension check coincide with full signature admission.
    if (!sig.AdmitsQuery(q)) continue;
    cs.AccountQuery(q);
    for (size_t i = 0; i < cs.size(); ++i) {
      const Signature sub = cs.MakeSignature(sig, i);
      const double expect = sub.AdmitsQuery(q) ? 1.0 : 0.0;
      EXPECT_EQ(cs.at(i).q, expect)
          << "cand " << i << " rel " << RelationName(rel) << " query "
          << qb.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRelations, AccountQueryProperty,
                         ::testing::Values(Relation::kIntersects,
                                           Relation::kContainedBy,
                                           Relation::kEncloses));

TEST(CandidateSet, HalveScalesStats) {
  Signature sig(2);
  CandidateSet cs(sig, 4, 10.0);
  Rng rng(41);
  Box obj = RandomObjectIn(sig, rng);
  cs.AccountObject(obj.view(), +1);
  Query q = Query::Intersection(Box::FullDomain(2));
  cs.AccountQuery(q);
  cs.Halve();
  EXPECT_DOUBLE_EQ(cs.created_weight(), 5.0);
  bool any_q = false;
  for (size_t i = 0; i < cs.size(); ++i) {
    if (cs.at(i).q > 0) {
      EXPECT_DOUBLE_EQ(cs.at(i).q, 0.5);
      any_q = true;
    }
  }
  EXPECT_TRUE(any_q);
}

TEST(CandidateSet, DivisionFactorTwo) {
  CandidateSet cs(Signature(5), 2, 0.0);
  // f=2 symmetric: 3 candidates per dim.
  EXPECT_EQ(cs.size(), 15u);
}

TEST(CandidateSet, DivisionFactorEight) {
  CandidateSet cs(Signature(2), 8, 0.0);
  // f=8 symmetric: 36 per dim.
  EXPECT_EQ(cs.size(), 72u);
}

// FoldSteps is the reference for the replay fold: k sequential += 1.0.
TEST(FoldSteps, MatchesSequentialIncrements) {
  Rng rng(91);
  for (int iter = 0; iter < 20000; ++iter) {
    // Values with long mantissas at every scale, as repeated halving of
    // counts produces them, plus exact small integers and zero.
    const int e1 = static_cast<int>(rng.NextBelow(40)) - 20;
    const int e2 = static_cast<int>(rng.NextBelow(12));
    const int e3 = static_cast<int>(rng.NextBelow(60));
    double q = 0.0;
    switch (iter % 4) {
      case 0:
        q = std::ldexp(rng.NextDouble(), e1);
        break;
      case 1:
        q = static_cast<double>(rng.NextBelow(1000));
        break;
      case 2:  // just below a power of two: the next step crosses it
        q = std::ldexp(1.0, e2) - std::ldexp(1.0, -e3);
        break;
    }
    const uint32_t k = static_cast<uint32_t>(rng.NextBelow(256));
    double expect = q;
    for (uint32_t j = 0; j < k; ++j) expect += 1.0;
    const double got = FoldSteps(q, k);
    uint64_t a, b;
    std::memcpy(&a, &expect, 8);
    std::memcpy(&b, &got, 8);
    ASSERT_EQ(a, b) << "q=" << q << " k=" << k;
  }
}

TEST(CandidateSet, LogRefusesWhenFull) {
  CandidateSet cs(Signature(2), 4, 0.0, kMinDivisibleWidth, 3);
  EXPECT_TRUE(cs.Log(0));
  EXPECT_TRUE(cs.Log(1));
  EXPECT_TRUE(cs.Log(2));
  EXPECT_FALSE(cs.Log(3));
  EXPECT_EQ(cs.log_size(), 3u);
}

// Property: logging explorations and replaying them (counted into bytes,
// folded once) leaves every candidate's q bit-identical to accounting each
// exploration as it happens, for every relation, over full-domain and
// refined asymmetric signatures, and also after more than 60 halvings, when
// adding a count at once would round differently from the sequential steps.
class ReplayProperty : public ::testing::TestWithParam<Relation> {};

TEST_P(ReplayProperty, CountThenFoldMatchesPerQueryAccounting) {
  const Relation rel = GetParam();
  Rng rng(57 + static_cast<int>(rel));
  const Dim nd = 5;
  const uint32_t f = 4;
  bool saw_inexact = false;
  for (int iter = 0; iter < 24; ++iter) {
    Signature sig(nd);
    if (iter % 2 == 1) {
      // Refine two dims with different start and end variation intervals.
      for (const Dim d : {Dim{1}, Dim{3}}) {
        const float s_lo = 0.4f * rng.NextFloat();
        const float s_hi = s_lo + 0.1f + 0.3f * rng.NextFloat();
        const float e_lo = s_lo + (s_hi - s_lo) * rng.NextFloat();
        const float e_hi = std::min(1.0f, e_lo + 0.1f + 0.4f * rng.NextFloat());
        sig.set(d, {s_lo, s_hi, false}, {e_lo, e_hi, e_hi == 1.0f});
      }
    }
    CandidateSet logged(sig, f, 0.0, kMinDivisibleWidth, 255);
    CandidateSet eager(sig, f, 0.0);
    QueryRing ring(nd, f, 256);
    // 80 rounds of counts, each after a halving: like a long-lived
    // cluster's decayed statistics, q fills its mantissa and from then on
    // adding a count at once can round differently from the steps.
    for (int round = 0; round < 80; ++round) {
      if (round > 0) {
        logged.Halve();
        eager.Halve();
      }
      std::vector<double> before(eager.size());
      for (size_t i = 0; i < eager.size(); ++i) before[i] = eager.at(i).q;
      CandidateSet counted(sig, f, 0.0);  // the exact per-candidate counts
      ring.Clear();
      const int k = 1 + static_cast<int>(
                            rng.NextBelow(round % 16 == 15 ? 255 : 12));
      for (int logged_queries = 0; logged_queries < k;) {
        Box qb(nd);
        for (Dim d = 0; d < nd; ++d) {
          float a = rng.NextFloat(), b = rng.NextFloat();
          if (a > b) std::swap(a, b);
          qb.set(d, a, b);
        }
        const Query q(qb, rel);
        if (!sig.AdmitsQuery(q)) continue;  // only explorations are logged
        ASSERT_TRUE(logged.Log(ring.Push(q)));
        eager.AccountQuery(q);
        counted.AccountQuery(q);
        ++logged_queries;
      }
      logged.Replay(ring);
      ASSERT_EQ(logged.log_size(), 0u);
      for (size_t i = 0; i < eager.size(); ++i) {
        const double want = eager.at(i).q, got = logged.at(i).q;
        uint64_t a, b;
        std::memcpy(&a, &want, 8);
        std::memcpy(&b, &got, 8);
        ASSERT_EQ(a, b) << "cand " << i << " iter " << iter << " round "
                        << round;
        if (before[i] + counted.at(i).q != want) saw_inexact = true;
      }
    }
  }
  // The fallback to sequential steps was needed somewhere.
  EXPECT_TRUE(saw_inexact);
}

INSTANTIATE_TEST_SUITE_P(AllRelations, ReplayProperty,
                         ::testing::Values(Relation::kIntersects,
                                           Relation::kContainedBy,
                                           Relation::kEncloses));

}  // namespace
}  // namespace accl
