// Constructor-time configuration validation (api/status.h +
// SubscriptionEngine::ValidateOptions/Create): invalid engine configs must
// surface as a descriptive Status from the validating factory — or an
// immediate, message-carrying abort from the constructor — never as a
// crash deep inside the first Subscribe/Match that happens to exercise
// the bad knob.
#include <gtest/gtest.h>

#include <string>

#include "sdi/subscription_engine.h"

namespace accl {
namespace {

AttributeSchema SchemaWithDims(Dim nd) {
  AttributeSchema s;
  for (Dim d = 0; d < nd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

TEST(EngineConfig, ValidOptionsCreateAWorkingEngine) {
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kRange;
  o.match_threads = 0;  // documented valid: caller-thread execution
  Status st;
  auto engine = SubscriptionEngine::Create(SchemaWithDims(3), o, &st);
  ASSERT_TRUE(st.ok()) << st.message();
  ASSERT_NE(engine, nullptr);
  const SubscriptionId id =
      engine->SubscribeBox(Box::FullDomain(3));
  EXPECT_NE(id, kInvalidObject);
  std::vector<SubscriptionId> out;
  engine->Match(Event::Point(std::vector<float>(3, 0.5f)), &out);
  EXPECT_EQ(out, std::vector<SubscriptionId>{id});
}

TEST(EngineConfig, CreateWithoutStatusPointerStillWorks) {
  EngineOptions o;
  o.shards = 1;
  EXPECT_NE(SubscriptionEngine::Create(SchemaWithDims(2), o), nullptr);
  o.shards = 0;
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o), nullptr);
}

TEST(EngineConfig, ZeroShardsRejected) {
  EngineOptions o;
  o.shards = 0;
  Status st;
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shards"), std::string::npos);
}

TEST(EngineConfig, RangeNeedsAtLeastTwoShards) {
  EngineOptions o;
  o.shards = 1;
  o.sharding = ShardingPolicy::kRange;
  Status st;
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("kRange"), std::string::npos);
}

TEST(EngineConfig, BoundaryArraySizeAndOrderValidated) {
  EngineOptions o;
  o.shards = 5;  // needs exactly 3 interior fences
  o.sharding = ShardingPolicy::kRange;
  Status st;

  o.range_boundaries = {0.25f, 0.5f};  // wrong size
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr);
  EXPECT_FALSE(st.ok());

  o.range_boundaries = {0.25f, 0.5f, 0.5f};  // not strictly ascending
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("ascending"), std::string::npos);

  o.range_boundaries = {0.25f, 0.5f, 0.75f};
  EXPECT_NE(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr);
  EXPECT_TRUE(st.ok());
}

TEST(EngineConfig, EmptySchemaRejected) {
  Status st;
  EXPECT_EQ(SubscriptionEngine::Create(AttributeSchema(), EngineOptions{},
                                       &st),
            nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("attribute"), std::string::npos);
}

TEST(EngineConfig, IndexKnobsValidated) {
  EngineOptions o;
  Status st;
  o.index.division_factor = 1;  // clustering function cannot divide by 1
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("division_factor"), std::string::npos);
}

TEST(EngineConfig, ValidateOptionsIsSideEffectFree) {
  EngineOptions o;
  o.shards = 3;
  o.sharding = ShardingPolicy::kRange;
  const AttributeSchema schema = SchemaWithDims(2);
  EXPECT_TRUE(SubscriptionEngine::ValidateOptions(schema, o).ok());
  o.shards = 0;
  EXPECT_FALSE(SubscriptionEngine::ValidateOptions(schema, o).ok());
}

TEST(EngineConfig, AdaptiveRoutingRequiresRangeSharding) {
  // Any adaptive knob — not just the master switch — implies a fence
  // dimension to adapt, which only kRange has.
  Status st;
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kHashId;
  o.adaptive.enabled = true;
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(3), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("kRange"), std::string::npos);

  o = EngineOptions{};
  o.shards = 4;
  o.sharding = ShardingPolicy::kHashId;
  o.adaptive.overflow_split_shards = 2;  // split capacity alone also counts
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(3), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("overflow_split_shards"), std::string::npos);
}

TEST(EngineConfig, AdaptiveSampleWindowValidated) {
  const AttributeSchema schema = SchemaWithDims(3);
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kRange;
  o.adaptive.enabled = true;
  ASSERT_TRUE(SubscriptionEngine::ValidateOptions(schema, o).ok());

  o.adaptive.sample_window = 0;  // would evaluate routing on every event
  Status st = SubscriptionEngine::ValidateOptions(schema, o);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sample_window"), std::string::npos);
  o.adaptive.sample_window = 4096;
  EXPECT_TRUE(SubscriptionEngine::ValidateOptions(schema, o).ok());
}

TEST(EngineConfig, DisabledAdaptiveIgnoresWindowKnobs) {
  // The window knob only matters when the advisor runs; a bogus value with
  // enabled=false must not block engine creation.
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kRange;
  o.adaptive.enabled = false;
  o.adaptive.sample_window = 0;
  EXPECT_TRUE(
      SubscriptionEngine::ValidateOptions(SchemaWithDims(3), o).ok());
}

#if GTEST_HAS_DEATH_TEST
TEST(EngineConfigDeathTest, ConstructorAbortsWithDiagnosticOnBadConfig) {
  EngineOptions o;
  o.shards = 1;
  o.sharding = ShardingPolicy::kRange;
  EXPECT_DEATH(SubscriptionEngine(SchemaWithDims(2), o),
               "invalid configuration");
}
#endif

}  // namespace
}  // namespace accl
