#include <gtest/gtest.h>

#include <limits>

#include "api/schema.h"

namespace accl {
namespace {

AttributeSchema ApartmentSchema() {
  AttributeSchema s;
  s.AddAttribute("price", 0, 3000);
  s.AddAttribute("rooms", 0, 10);
  s.AddAttribute("baths", 0, 5);
  return s;
}

TEST(Schema, AddAndLookup) {
  AttributeSchema s = ApartmentSchema();
  EXPECT_EQ(s.dims(), 3u);
  EXPECT_EQ(s.DimensionOf("price"), std::optional<Dim>(0u));
  EXPECT_EQ(s.DimensionOf("baths"), std::optional<Dim>(2u));
  EXPECT_FALSE(s.DimensionOf("garage").has_value());
  EXPECT_EQ(s.NameOf(1), "rooms");
  EXPECT_EQ(s.DomainLo(0), 0.0);
  EXPECT_EQ(s.DomainHi(0), 3000.0);
}

TEST(Schema, DuplicateNameAborts) {
  AttributeSchema s;
  s.AddAttribute("x", 0, 1);
  EXPECT_DEATH(s.AddAttribute("x", 0, 2), "ACCL_CHECK");
}

TEST(Schema, InvertedDomainAborts) {
  AttributeSchema s;
  EXPECT_DEATH(s.AddAttribute("bad", 5, 5), "ACCL_CHECK");
}

TEST(Schema, NormalizeDenormalizeRoundTrip) {
  AttributeSchema s = ApartmentSchema();
  EXPECT_FLOAT_EQ(s.Normalize(0, 1500), 0.5f);
  EXPECT_FLOAT_EQ(s.Normalize(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(s.Normalize(1, 10), 1.0f);
  EXPECT_NEAR(s.Denormalize(0, s.Normalize(0, 725)), 725.0, 1e-3);
}

TEST(Schema, NormalizeClampsToDomain) {
  AttributeSchema s = ApartmentSchema();
  EXPECT_EQ(s.Normalize(0, -100), 0.0f);
  EXPECT_EQ(s.Normalize(0, 99999), 1.0f);
}

TEST(Schema, MakeBoxDefaultsUnconstrained) {
  AttributeSchema s = ApartmentSchema();
  Box b;
  ASSERT_TRUE(s.MakeBox({{"price", 400, 700}}, &b));
  EXPECT_NEAR(b.lo(0), 400.0 / 3000.0, 1e-6);
  EXPECT_NEAR(b.hi(0), 700.0 / 3000.0, 1e-6);
  // rooms & baths unconstrained.
  EXPECT_EQ(b.lo(1), 0.0f);
  EXPECT_EQ(b.hi(1), 1.0f);
  EXPECT_EQ(b.lo(2), 0.0f);
  EXPECT_EQ(b.hi(2), 1.0f);
}

TEST(Schema, MakeBoxRejectsUnknownAttribute) {
  AttributeSchema s = ApartmentSchema();
  Box b;
  EXPECT_FALSE(s.MakeBox({{"pool", 0, 1}}, &b));
}

TEST(Schema, MakeBoxRejectsDuplicateAttribute) {
  AttributeSchema s = ApartmentSchema();
  Box b;
  EXPECT_FALSE(s.MakeBox({{"rooms", 1, 2}, {"rooms", 3, 4}}, &b));
}

TEST(Schema, MakeBoxRejectsInvertedRange) {
  AttributeSchema s = ApartmentSchema();
  Box b;
  EXPECT_FALSE(s.MakeBox({{"price", 700, 400}}, &b));
}

// Non-finite bounds are refused: NaN slips past an ordering test (every
// comparison with it is false), and an infinite bound is not a value in
// the attribute's domain.
TEST(Schema, MakeBoxRejectsNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const AttributeSchema s = ApartmentSchema();
  for (const double bad : {nan, inf, -inf}) {
    Box b;
    EXPECT_FALSE(s.MakeBox({{"price", bad, 500}}, &b)) << bad;
    EXPECT_FALSE(s.MakeBox({{"price", 100, bad}}, &b)) << bad;
    EXPECT_FALSE(s.MakeBox({{"price", bad, bad}}, &b)) << bad;
  }
  Box b;
  EXPECT_TRUE(s.MakeBox({{"price", 100, 500}}, &b));
}

TEST(Schema, MakePointRejectsNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const AttributeSchema s = ApartmentSchema();
  for (const double bad : {nan, inf, -inf}) {
    std::vector<float> pt;
    EXPECT_FALSE(
        s.MakePoint({{"price", bad}, {"rooms", 4}, {"baths", 2}}, &pt))
        << bad;
    EXPECT_FALSE(
        s.MakePoint({{"price", 600}, {"rooms", 4}, {"baths", bad}}, &pt))
        << bad;
  }
  std::vector<float> pt;
  EXPECT_TRUE(s.MakePoint({{"price", 600}, {"rooms", 4}, {"baths", 2}}, &pt));
}

TEST(Schema, MakePointRequiresAllAttributes) {
  AttributeSchema s = ApartmentSchema();
  std::vector<float> pt;
  EXPECT_FALSE(s.MakePoint({{"price", 500}}, &pt));
  ASSERT_TRUE(
      s.MakePoint({{"price", 600}, {"rooms", 4}, {"baths", 2}}, &pt));
  ASSERT_EQ(pt.size(), 3u);
  EXPECT_FLOAT_EQ(pt[0], 0.2f);
  EXPECT_FLOAT_EQ(pt[1], 0.4f);
  EXPECT_FLOAT_EQ(pt[2], 0.4f);
}

TEST(Schema, MakePointRejectsDuplicates) {
  AttributeSchema s = ApartmentSchema();
  std::vector<float> pt;
  EXPECT_FALSE(
      s.MakePoint({{"price", 600}, {"price", 700}, {"rooms", 4}}, &pt));
}

TEST(Schema, DescribeUsesDomainUnits) {
  AttributeSchema s = ApartmentSchema();
  Box b;
  ASSERT_TRUE(s.MakeBox({{"price", 400, 700}, {"rooms", 3, 5}}, &b));
  const std::string d = s.Describe(b);
  EXPECT_NE(d.find("price=[400,700]"), std::string::npos) << d;
  EXPECT_NE(d.find("rooms=[3,5]"), std::string::npos) << d;
}

}  // namespace
}  // namespace accl
