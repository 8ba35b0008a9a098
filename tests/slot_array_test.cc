#include <gtest/gtest.h>

#include "storage/slot_array.h"
#include "util/rng.h"

namespace accl {
namespace {

Box MakeBox(Dim nd, float lo, float hi) {
  Box b(nd);
  for (Dim d = 0; d < nd; ++d) b.set(d, lo, hi);
  return b;
}

TEST(SlotArray, StartsEmpty) {
  SlotArray a(4);
  EXPECT_EQ(a.size(), 0u);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.live_bytes(), 0u);
  EXPECT_DOUBLE_EQ(a.utilization(), 1.0);
}

TEST(SlotArray, AppendAndRead) {
  SlotArray a(2);
  Box b1 = MakeBox(2, 0.1f, 0.2f);
  Box b2 = MakeBox(2, 0.3f, 0.4f);
  a.Append(10, b1.view());
  a.Append(20, b2.view());
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.id(0), 10u);
  EXPECT_EQ(a.id(1), 20u);
  EXPECT_EQ(Box(a.box(0)), b1);
  EXPECT_EQ(Box(a.box(1)), b2);
}

TEST(SlotArray, LiveBytesUsesPaperLayout) {
  SlotArray a(16);
  a.Append(1, MakeBox(16, 0.0f, 1.0f).view());
  EXPECT_EQ(a.live_bytes(), ObjectBytes(16));
}

TEST(SlotArray, RemoveAtSwapsLast) {
  SlotArray a(1);
  a.Append(1, MakeBox(1, 0.1f, 0.1f).view());
  a.Append(2, MakeBox(1, 0.2f, 0.2f).view());
  a.Append(3, MakeBox(1, 0.3f, 0.3f).view());
  ObjectId moved = a.RemoveAt(0);
  EXPECT_EQ(moved, 3u);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.id(0), 3u);
  EXPECT_FLOAT_EQ(a.box(0).lo(0), 0.3f);
}

TEST(SlotArray, RemoveLastReturnsInvalid) {
  SlotArray a(1);
  a.Append(1, MakeBox(1, 0.1f, 0.1f).view());
  EXPECT_EQ(a.RemoveAt(0), kInvalidObject);
  EXPECT_TRUE(a.empty());
}

TEST(SlotArray, FindLocatesId) {
  SlotArray a(1);
  for (ObjectId i = 0; i < 10; ++i) {
    a.Append(i * 7, MakeBox(1, 0.0f, 1.0f).view());
  }
  EXPECT_EQ(a.Find(21), 3u);
  EXPECT_EQ(a.Find(999), static_cast<size_t>(-1));
}

TEST(SlotArray, UtilizationBoundedByReservePolicy) {
  // With 25% reserve, steady-state utilization stays >= 1/1.25 = 0.8 right
  // after relocation, and >= 70% is the paper's guarantee.
  SlotArray a(4);
  for (ObjectId i = 0; i < 5000; ++i) {
    a.Append(i, MakeBox(4, 0.2f, 0.4f).view());
    if (a.size() > 8) {
      EXPECT_GE(a.utilization(), 0.70) << "at i=" << i;
    }
  }
}

TEST(SlotArray, RelocationsAreAmortized) {
  SlotArray a(2);
  for (ObjectId i = 0; i < 10000; ++i) {
    a.Append(i, MakeBox(2, 0.1f, 0.9f).view());
  }
  // Growth is geometric-ish via the reserve; relocations must be far fewer
  // than appends.
  EXPECT_LT(a.relocations(), 200u);
}

TEST(SlotArray, CompactRestoresReserveBound) {
  SlotArray a(2);
  for (ObjectId i = 0; i < 1000; ++i) {
    a.Append(i, MakeBox(2, 0.1f, 0.9f).view());
  }
  while (a.size() > 20) a.RemoveAt(0);
  a.Compact();
  EXPECT_GE(a.utilization(), 0.70);
}

TEST(SlotArray, ClearKeepsDims) {
  SlotArray a(3);
  a.Append(1, MakeBox(3, 0.0f, 1.0f).view());
  a.Clear();
  EXPECT_EQ(a.size(), 0u);
  EXPECT_EQ(a.dims(), 3u);
  a.Append(2, MakeBox(3, 0.5f, 0.6f).view());
  EXPECT_EQ(a.size(), 1u);
}

TEST(SlotArray, ManyRandomOpsKeepConsistency) {
  SlotArray a(2);
  Rng rng(3);
  std::vector<ObjectId> live;
  ObjectId next = 0;
  for (int op = 0; op < 5000; ++op) {
    if (live.empty() || rng.NextBool(0.6)) {
      a.Append(next, MakeBox(2, 0.1f, 0.2f).view());
      live.push_back(next++);
    } else {
      size_t k = rng.NextBelow(live.size());
      size_t slot = a.Find(live[k]);
      ASSERT_NE(slot, static_cast<size_t>(-1));
      a.RemoveAt(slot);
      live.erase(live.begin() + k);
    }
    ASSERT_EQ(a.size(), live.size());
  }
}

}  // namespace
}  // namespace accl
