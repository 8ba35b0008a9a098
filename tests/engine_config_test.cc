// Constructor-time configuration validation (api/status.h +
// SubscriptionEngine::ValidateOptions/Create): invalid engine configs must
// surface as a descriptive Status from the validating factory — or an
// immediate, message-carrying abort from the constructor — never as a
// crash deep inside the first Subscribe/Match that happens to exercise
// the bad knob.
#include <gtest/gtest.h>

#include <cmath>
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

  o = EngineOptions{};
  o.index.max_clusters = 0;
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
}

TEST(EngineConfig, SwitchThresholdValidatedForPeriodicReplans) {
  // With the advisor off, periodic fence re-plans still gate on
  // adaptive.switch_threshold, so it is checked whenever moves are
  // automatic.
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kRange;
  o.rebalance_period = 64;
  Status st;
  for (const double bad : {0.0, 1.0, std::nan("")}) {
    o.adaptive.switch_threshold = bad;
    EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(2), o, &st), nullptr)
        << bad;
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("switch_threshold"), std::string::npos);
  }
  o.rebalance_period = 0;  // no automatic moves: the knob is unused
  EXPECT_TRUE(SubscriptionEngine::ValidateOptions(SchemaWithDims(2), o).ok());
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

TEST(EngineConfig, AdaptiveDimensionsMustNameSchemaDimensions) {
  Status st;
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kRange;
  o.adaptive.fence_dim = 3;  // schema has dims 0..2
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(3), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("fence_dim"), std::string::npos);

  o.adaptive.fence_dim = 2;  // valid, even with the advisor off
  EXPECT_NE(SubscriptionEngine::Create(SchemaWithDims(3), o, &st), nullptr);
  EXPECT_TRUE(st.ok());

  o.adaptive.split_dim = 5;
  EXPECT_EQ(SubscriptionEngine::Create(SchemaWithDims(3), o, &st), nullptr);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("split_dim"), std::string::npos);
}

TEST(EngineConfig, AdaptiveWindowAndThresholdKnobsValidated) {
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

  // A switch threshold <= 1 lets estimation noise flip the fence
  // dimension every window; NaN must not sneak through a < comparison.
  for (const double bad : {1.0, 0.5, std::nan("")}) {
    o.adaptive.switch_threshold = bad;
    st = SubscriptionEngine::ValidateOptions(schema, o);
    EXPECT_FALSE(st.ok()) << bad;
    EXPECT_NE(st.message().find("switch_threshold"), std::string::npos);
  }
  o.adaptive.switch_threshold = 1.5;

  for (const double bad : {0.0, -0.25, 1.5, std::nan("")}) {
    o.adaptive.split_straddler_threshold = bad;
    EXPECT_FALSE(SubscriptionEngine::ValidateOptions(schema, o).ok()) << bad;
  }
  o.adaptive.split_straddler_threshold = 0.25;

  o.adaptive.split_patience = 0;
  st = SubscriptionEngine::ValidateOptions(schema, o);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("split_patience"), std::string::npos);
  o.adaptive.split_patience = 2;
  EXPECT_TRUE(SubscriptionEngine::ValidateOptions(schema, o).ok());
}

TEST(EngineConfig, DisabledAdaptiveIgnoresWindowKnobs) {
  // The window/threshold knobs only matter when the advisor runs; bogus
  // values with enabled=false must not block engine creation.
  EngineOptions o;
  o.shards = 4;
  o.sharding = ShardingPolicy::kRange;
  o.adaptive.enabled = false;
  o.adaptive.sample_window = 0;
  o.adaptive.switch_threshold = 0.0;
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
