// Crash recovery tests for the durable SDI engine.
//
// The centerpiece is the crash-point matrix: a deterministic mutation
// script (singles, batches, unsubscribes, checkpoints) is driven through a
// durable engine with SimDisk::FailAfter armed at EVERY logical I/O op
// index the fault-free run performs — WAL flushes, checkpoint blob writes,
// directory flips, WAL truncations. After each injected crash the files
// are reopened and the engine recovered; its match sets must be
// digest-equal to a brute-force oracle over exactly the mutations the
// crashed run acknowledged. The un-acknowledged tail may be absent (it is,
// by construction: a failed flush never wrote the record), but never
// corrupt and never resurrected.
//
// The clean-restart case runs under both commit modes and adds concurrent
// subscribers, so a group-commit (or per-record) ack taken from several
// threads at once must survive the restart too. The mutation-count case
// lets the checkpointer schedule itself (checkpoint_every_mutations)
// under two concurrent writers, inline and on its background worker.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "durability/checkpoint.h"
#include "durability/shipping.h"
#include "durability/wal.h"
#include "geometry/query.h"
#include "sdi/subscription_engine.h"
#include "storage/paged_store.h"
#include "tests/test_util.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace accl {
namespace {

constexpr Dim kNd = 3;

AttributeSchema UnitSchema() {
  AttributeSchema s;
  for (Dim d = 0; d < kNd; ++d) {
    s.AddAttribute("a" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

EngineOptions Opts() {
  EngineOptions o;
  o.index.reorg_period = 20;
  o.index.min_observation = 8;
  o.default_policy = MatchPolicy::kIntersecting;
  o.shards = 4;
  o.match_threads = 0;
  o.sharding = ShardingPolicy::kRange;
  return o;
}

DurabilityOptions DurOpts(bool group_commit = true) {
  DurabilityOptions d;
  d.group_commit = group_commit;
  d.checkpoint_every_mutations = 0;  // the script checkpoints explicitly
  d.background_checkpoints = false;  // deterministic op counts
  // Tiny segments so the script's flushes rotate the WAL many times and
  // its checkpoints actually drop segments: the crash-point matrix then
  // lands faults inside rotation and segment GC, not just inside flushes
  // and checkpoint writes.
  d.wal_segment_bytes = 256;
  return d;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct Paths {
  std::string wal;
  std::string ckpt;
  explicit Paths(const std::string& tag)
      : wal(TempPath("durrec_" + tag + ".wal")),
        ckpt(TempPath("durrec_" + tag + ".ck")) {}
  void Remove() const {
    durability::RemoveWalFiles(wal);  // the whole segment chain
    std::remove(ckpt.c_str());
  }
};

/// Drives the deterministic mutation script against `de`, recording every
/// ACKNOWLEDGED mutation's net effect in `*acked`. Mutations refused by a
/// broken WAL simply drop out — that is the acknowledged-prefix contract
/// the oracle checks.
void DriveScript(durability::DurableEngine& de,
                 std::map<SubscriptionId, Box>* acked) {
  Rng rng(2026);
  SubscriptionEngine& e = *de.engine;
  const auto subscribe_one = [&](const Box& b) {
    const SubscriptionId id = e.SubscribeBox(b);
    if (id != kInvalidObject) (*acked)[id] = b;
  };
  const auto unsubscribe_some = [&](size_t n) {
    for (size_t i = 0; i < n && !acked->empty(); ++i) {
      const SubscriptionId victim = acked->begin()->first;
      if (e.Unsubscribe(victim)) acked->erase(victim);
    }
  };
  for (int phase = 0; phase < 3; ++phase) {
    for (int i = 0; i < 8; ++i) {
      subscribe_one(testutil::RandomBox(rng, kNd, 0.5f));
    }
    std::vector<Box> batch;
    for (int i = 0; i < 6; ++i) {
      batch.push_back(testutil::RandomBox(rng, kNd, 0.5f));
    }
    std::vector<SubscriptionId> ids;
    e.SubscribeBatch(Span<const Box>(batch.data(), batch.size()), &ids);
    for (size_t i = 0; i < ids.size(); ++i) (*acked)[ids[i]] = batch[i];
    unsubscribe_some(4);
    de.checkpointer->CheckpointNow();  // failure is part of the matrix
  }
  for (int i = 0; i < 4; ++i) {
    subscribe_one(testutil::RandomBox(rng, kNd, 0.5f));
  }
}

/// Subscribes from several threads at once and records each
/// acknowledged subscription in `*acked`; every one must be acknowledged.
void SubscribeConcurrently(durability::DurableEngine& de,
                           std::map<SubscriptionId, Box>* acked) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 24;
  std::mutex mu;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(3000 + t);
      for (int i = 0; i < kPerWriter; ++i) {
        const Box b = testutil::RandomBox(rng, kNd, 0.5f);
        const SubscriptionId id = de.engine->SubscribeBox(b);
        if (id == kInvalidObject) {
          ADD_FAILURE() << "writer " << t << " lost subscription " << i;
          continue;
        }
        std::lock_guard<std::mutex> lk(mu);
        (*acked)[id] = b;
      }
    });
  }
  for (std::thread& w : writers) w.join();
}

std::vector<Box> Probes() {
  Rng rng(777);
  std::vector<Box> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back(testutil::RandomBox(rng, kNd, 0.6f));
  }
  return probes;
}

std::vector<SubscriptionId> Oracle(const std::map<SubscriptionId, Box>& subs,
                                   const Box& probe) {
  Query q(probe, Relation::kIntersects);
  std::vector<SubscriptionId> out;
  for (const auto& [id, box] : subs) {
    if (q.Matches(box.view())) out.push_back(id);
  }
  return out;  // map order is ascending — already sorted
}

/// The planner's resident histogram equals a brute-force histogram of
/// `acked` (checkpoint restore and WAL replay both feed it).
void ExpectResidentHistogram(const SubscriptionEngine& engine,
                             const std::map<SubscriptionId, Box>& acked,
                             const std::string& context) {
  std::vector<Box> live;
  for (const auto& [id, box] : acked) live.push_back(box);
  const adapt::PatternSnapshot p = engine.pattern_tracker()->Snapshot();
  EXPECT_EQ(p.subscriptions, acked.size()) << context;
  EXPECT_TRUE(p.sub_dims == testutil::ResidentHistogram(live, kNd))
      << context << ": resident histogram differs from the live set";
}

/// Recovers from the files and asserts exact parity with `acked`.
void ExpectRecoveredParity(const Paths& paths,
                           const std::map<SubscriptionId, Box>& acked,
                           const std::string& context) {
  durability::DurableEngine de;
  Status st;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                      paths.wal, paths.ckpt,
                                      /*disk=*/nullptr, &de, &st))
      << context << ": " << st.message();
  ASSERT_EQ(de.engine->subscription_count(), acked.size()) << context;
  for (const Box& probe : Probes()) {
    std::vector<SubscriptionId> got;
    de.engine->Match(Event::Range(probe), &got);
    ASSERT_EQ(got, Oracle(acked, probe)) << context;
  }
  ExpectResidentHistogram(*de.engine, acked, context);
}

/// One durable session (the script, then concurrent subscribers), then
/// two restarts that must reproduce exactly the acknowledged state.
void CleanRestartRoundTrip(bool group_commit) {
  const DurabilityOptions dopts = DurOpts(group_commit);
  const Paths paths(group_commit ? "clean" : "clean_per_record");
  paths.Remove();
  std::map<SubscriptionId, Box> acked;
  uint64_t fences_version = 0;
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), dopts,
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    EXPECT_FALSE(de.recovery.checkpoint_loaded);  // fresh start
    DriveScript(de, &acked);
    SubscribeConcurrently(de, &acked);
    // The script's checkpoints truncated the WAL as they went, and under
    // the tiny segment size that means real segment GC: files rotated in,
    // then unlinked once a checkpoint covered them — the on-disk footprint
    // is bounded, not just logically truncated.
    const obs::MetricsRegistry& reg = de.engine->metrics();
    using testutil::MetricOf;
    EXPECT_GT(MetricOf(reg, "accl_ckpt_writes_total").counter, 0u);
    EXPECT_GT(MetricOf(reg, "accl_wal_truncations_total").counter, 0u);
    const uint64_t rotated =
        MetricOf(reg, "accl_wal_segments_rotated_total").counter;
    EXPECT_GT(rotated, 0u);
    EXPECT_GT(MetricOf(reg, "accl_wal_segments_unlinked_total").counter, 0u);
    EXPECT_LT(MetricOf(reg, "accl_wal_live_segments").gauge,
              static_cast<int64_t>(rotated) + 1);
    fences_version = de.engine->routing_version();
    EXPECT_GT(acked.size(), 20u);  // the script really did build state
  }
  // Restart: checkpoint + WAL tail reproduce the acknowledged state.
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), dopts,
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st));
    EXPECT_TRUE(de.recovery.checkpoint_loaded);
    EXPECT_GT(de.recovery.checkpoint_subscriptions, 0u);
    EXPECT_EQ(de.engine->subscription_count(), acked.size());
    for (const Box& probe : Probes()) {
      std::vector<SubscriptionId> got;
      de.engine->Match(Event::Range(probe), &got);
      EXPECT_EQ(got, Oracle(acked, probe));
    }
    ExpectResidentHistogram(*de.engine, acked, "first restart");
    // Recovered id allocation continues past every restored id: a new
    // durable subscription gets a fresh id and survives the next restart.
    const SubscriptionId fresh =
        de.engine->SubscribeBox(Box::FullDomain(kNd));
    ASSERT_NE(fresh, kInvalidObject);
    EXPECT_GT(fresh, acked.rbegin()->first);
    acked[fresh] = Box::FullDomain(kNd);
  }
  ExpectRecoveredParity(paths, acked, "second restart");
  (void)fences_version;
  paths.Remove();
}

TEST(DurabilityRecovery, CleanRestartRestoresEverythingExactly) {
  for (const bool group_commit : {true, false}) {
    SCOPED_TRACE(group_commit ? "group commit" : "per-record sync");
    CleanRestartRoundTrip(group_commit);
  }
}

TEST(DurabilityRecovery, MutationCountTriggerCheckpointsUnderTwoWriters) {
  constexpr uint64_t kEvery = 50;
  constexpr int kPerWriter = 120;     // subscribes per writer
  constexpr int kDropPerWriter = 15;  // then unsubscribes of its own
  // 2 * (120 + 15) = 270 acknowledged mutations: five full periods of 50.
  // A run needs 50 fresh mutations, and a mutation that lands while a
  // run is starting is not counted, so a concurrent writer can cost the
  // last period at most the 20 spare mutations before the count changes.
  constexpr uint64_t kExpectedInline =
      2 * (kPerWriter + kDropPerWriter) / kEvery;
  for (const bool background : {false, true}) {
    SCOPED_TRACE(background ? "background" : "inline");
    const Paths paths(background ? "every_bg" : "every_inline");
    paths.Remove();
    DurabilityOptions dopts = DurOpts();
    dopts.checkpoint_every_mutations = kEvery;
    dopts.background_checkpoints = background;
    std::map<SubscriptionId, Box> acked;
    {
      durability::DurableEngine de;
      Status st;
      ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), dopts,
                                          paths.wal, paths.ckpt, nullptr, &de,
                                          &st))
          << st.message();
      std::mutex mu;
      std::vector<std::thread> writers;
      for (int t = 0; t < 2; ++t) {
        writers.emplace_back([&, t] {
          Rng rng(5000 + t);
          std::vector<SubscriptionId> mine;
          for (int i = 0; i < kPerWriter; ++i) {
            const Box b = testutil::RandomBox(rng, kNd, 0.5f);
            const SubscriptionId id = de.engine->SubscribeBox(b);
            if (id == kInvalidObject) {
              ADD_FAILURE() << "writer " << t << " lost subscription " << i;
              continue;
            }
            mine.push_back(id);
            std::lock_guard<std::mutex> lk(mu);
            acked[id] = b;
          }
          for (size_t i = 0; i < kDropPerWriter && i < mine.size(); ++i) {
            EXPECT_TRUE(de.engine->Unsubscribe(mine[i]));
            std::lock_guard<std::mutex> lk(mu);
            acked.erase(mine[i]);
          }
        });
      }
      for (std::thread& w : writers) w.join();
      const obs::MetricsRegistry& reg = de.engine->metrics();
      using testutil::MetricOf;
      if (background) {
        // The triggering writers never wait for the worker: give its first
        // run time to land.
        for (int i = 0;
             i < 10000 &&
             MetricOf(reg, "accl_ckpt_writes_total").counter == 0 &&
             MetricOf(reg, "accl_ckpt_failures_total").counter == 0;
             ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_GE(MetricOf(reg, "accl_ckpt_writes_total").counter, 1u);
      } else {
        EXPECT_EQ(MetricOf(reg, "accl_ckpt_writes_total").counter,
                  kExpectedInline);
      }
      EXPECT_EQ(MetricOf(reg, "accl_ckpt_failures_total").counter, 0u);
      EXPECT_EQ(acked.size(),
                static_cast<size_t>(2 * (kPerWriter - kDropPerWriter)));
    }
    ExpectRecoveredParity(paths, acked, "restart after scheduled checkpoints");
    paths.Remove();
  }
}

TEST(DurabilityRecovery, CrashPointMatrixPreservesAcknowledgedPrefix) {
  // Dry run with a counting disk: its io_ops() is the matrix size.
  uint64_t total_ops = 0;
  {
    const Paths paths("dryrun");
    paths.Remove();
    SimDisk disk = SimDisk::Paper();
    std::map<SubscriptionId, Box> acked;
    {
      durability::DurableEngine de;
      ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                          paths.wal, paths.ckpt, &disk, &de,
                                          nullptr));
      DriveScript(de, &acked);
      total_ops = disk.io_ops();
      EXPECT_EQ(disk.faults_injected(), 0u);
    }
    ExpectRecoveredParity(paths, acked, "dry run");
    paths.Remove();
  }
  ASSERT_GT(total_ops, 30u);  // flushes + checkpoints + truncations

  for (uint64_t k = 0; k < total_ops; ++k) {
    const Paths paths("k" + std::to_string(k));
    paths.Remove();
    SimDisk disk = SimDisk::Paper();
    disk.FailAfter(k);
    std::map<SubscriptionId, Box> acked;
    {
      durability::DurableEngine de;
      ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                          paths.wal, paths.ckpt, &disk, &de,
                                          nullptr));
      DriveScript(de, &acked);
      EXPECT_GT(disk.faults_injected(), 0u) << "crash point " << k;
    }  // "crash": tear everything down with the fault still armed
    ExpectRecoveredParity(paths, acked,
                          "crash point " + std::to_string(k));
    paths.Remove();
  }
}

// ---------------------------------------------------------------------------
// The routing plan survives a restart and a failover
// ---------------------------------------------------------------------------

constexpr Dim kPlanNd = 4;

AttributeSchema PlanSchema() {
  AttributeSchema s;
  for (Dim d = 0; d < kPlanNd; ++d) {
    s.AddAttribute("p" + std::to_string(d), 0.0, 1.0);
  }
  return s;
}

/// 4 range shards plus the overflow shard.
EngineOptions PlanOpts() {
  EngineOptions o = Opts();
  o.shards = 5;
  return o;
}

/// What an engine learned about routing, and where it put everything.
struct PlanState {
  uint32_t dim = 0;
  std::vector<float> fences;
  std::vector<size_t> per_shard;

  static PlanState Of(const SubscriptionEngine& e) {
    PlanState p;
    p.dim = e.routing_dimension();
    p.fences = e.GetRangeBoundaries();
    for (const auto& info : e.GetShardInfos()) {
      p.per_shard.push_back(info.subscriptions);
    }
    return p;
  }
};

void ExpectSamePlan(const PlanState& got, const PlanState& want,
                    const std::string& context) {
  EXPECT_EQ(got.dim, want.dim) << context;
  EXPECT_EQ(got.fences, want.fences) << context;
  EXPECT_EQ(got.per_shard, want.per_shard) << context;
}

void ExpectPlanParity(SubscriptionEngine& e,
                      const std::map<SubscriptionId, Box>& acked,
                      const std::string& context) {
  ASSERT_EQ(e.subscription_count(), acked.size()) << context;
  Rng rng(4242);
  for (int i = 0; i < 16; ++i) {
    const Box probe = testutil::RandomBox(rng, kPlanNd, 0.4f);
    std::vector<SubscriptionId> got;
    e.Match(Event::Range(probe), &got);
    ASSERT_EQ(got, Oracle(acked, probe)) << context;
  }
  std::vector<Box> live;
  for (const auto& [id, box] : acked) live.push_back(box);
  EXPECT_TRUE(e.pattern_tracker()->Snapshot().sub_dims ==
              testutil::ResidentHistogram(live, kPlanNd))
      << context << ": resident histogram differs from the live set";
}

TEST(DurabilityRecovery, RestartAndFailoverKeepTheRoutingPlan) {
  const Paths paths("plan");
  const Paths replica("plan_replica");
  paths.Remove();
  replica.Remove();
  durability::LogShipper::Options so;
  so.source_wal_base = paths.wal;
  so.source_checkpoint_path = paths.ckpt;
  so.replica_wal_base = replica.wal;
  so.replica_checkpoint_path = replica.ckpt;

  std::map<SubscriptionId, Box> acked;
  PlanState before;
  std::unique_ptr<durability::LogShipper> shipper;
  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(PlanSchema(), PlanOpts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    // Narrow and skewed on dimension 3, so fences planned there differ
    // from the uniform ones; up to 0.3 wide elsewhere.
    Rng rng(16);
    for (int b = 0; b < 40; ++b) {
      std::vector<Box> batch;
      for (int i = 0; i < 100; ++i) {
        Box box = testutil::RandomBox(rng, kPlanNd, 0.3f);
        const float len = 0.05f * rng.NextFloat();
        const float u = rng.NextFloat();
        const float lo = u * u * (1.0f - len);
        box.set(3, lo, lo + len);
        batch.push_back(box);
      }
      std::vector<SubscriptionId> ids;
      de.engine->SubscribeBatch(Span<const Box>(batch.data(), batch.size()),
                                &ids);
      ASSERT_EQ(ids.size(), batch.size());
      for (size_t i = 0; i < ids.size(); ++i) acked[ids[i]] = batch[i];
    }
    ASSERT_TRUE(de.engine->SetRoutingDimension(3));
    de.engine->RebalanceOnce();
    before = PlanState::Of(*de.engine);
    ASSERT_EQ(before.dim, 3u);
    // Every shard holds someone: a plan the restore ignored would show in
    // these counts.
    for (const size_t n : before.per_shard) ASSERT_GT(n, 0u);
    ASSERT_TRUE(de.checkpointer->CheckpointNow());

    // A fresh follower: the checkpoint truncated the records it would
    // need, so its first pass re-bases from the checkpoint.
    shipper = durability::LogShipper::Create(PlanSchema(), PlanOpts(), so,
                                             &st);
    ASSERT_NE(shipper, nullptr) << st.message();
    ASSERT_TRUE(shipper->ShipOnce().ok());
    EXPECT_EQ(testutil::MetricOf(shipper->engine()->metrics(),
                                 "accl_repl_checkpoint_catchups_total")
                  .counter,
              1u);
  }  // primary gone; its files survive

  {
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(PlanSchema(), PlanOpts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    EXPECT_TRUE(de.recovery.checkpoint_loaded);
    ExpectSamePlan(PlanState::Of(*de.engine), before, "restart");
    ExpectPlanParity(*de.engine, acked, "restart");
  }

  durability::DurableEngine promoted;
  ASSERT_TRUE(shipper->Promote(DurOpts(), &promoted).ok());
  ExpectSamePlan(PlanState::Of(*promoted.engine), before, "promoted");
  ExpectPlanParity(*promoted.engine, acked, "promoted");
  promoted = durability::DurableEngine();
  shipper.reset();
  paths.Remove();
  replica.Remove();
}

/// What a checkpoint writer of an earlier engine stored after the fences.
struct FramedPlanTail {
  /// 1: nothing (the format before the routing plan's dimension was
  /// stored). 2: the fence dimension, then an overflow split's dimension
  /// (-1 = none) and its fences, as engines that had the split wrote them.
  uint32_t version = 1;
  int32_t split_dim = -1;
  std::vector<float> split_fences;
};

/// Frames `image` by hand in the on-disk layout of `tail.version` into a
/// fresh checkpoint file.
void WriteFramedCheckpoint(const std::string& path,
                           const durability::EngineImage& image,
                           const FramedPlanTail& tail) {
  ByteWriter w;
  w.PutU32(0x41434B50u);  // "ACKP"
  w.PutU32(tail.version);
  w.PutU64(image.lsn);
  w.PutU32(image.next_id);
  w.PutU64(image.routing_version);
  w.PutU32(image.nd);
  w.PutU32(static_cast<uint32_t>(image.fences.size()));
  for (const float f : image.fences) w.PutF32(f);
  if (tail.version >= 2) {
    w.PutU32(image.dim);
    w.PutU32(static_cast<uint32_t>(tail.split_dim));
    w.PutU32(static_cast<uint32_t>(tail.split_fences.size()));
    for (const float f : tail.split_fences) w.PutF32(f);
  }
  w.PutU64(image.ids.size());
  w.PutBytes(image.ids.data(), image.ids.size() * sizeof(SubscriptionId));
  w.PutBytes(image.coords.data(), image.coords.size() * sizeof(float));
  w.PutU32(FnvFold32(Fnv1aBytes(kFnvOffsetBasis, w.bytes().data(), w.size())));
  auto file = PagedFile::Create(path, durability::kCheckpointPageBytes);
  ASSERT_NE(file, nullptr);
  const uint64_t pages =
      (w.size() + file->page_bytes() - 1) / file->page_bytes();
  const uint64_t first = file->AllocateRun(pages);
  ASSERT_TRUE(file->WriteAt(first, 0, w.bytes().data(), w.size()));
  ASSERT_TRUE(file->Sync());
  ASSERT_TRUE(file->SetDirectory(first, pages, w.size()));
  ASSERT_TRUE(file->Sync());
}

TEST(DurabilityRecovery, VersionOneCheckpointRestoresFencesOnDimensionZero) {
  const Paths paths("v1");
  paths.Remove();
  durability::EngineImage image;
  image.lsn = 0;
  image.next_id = 301;
  image.routing_version = 4;
  image.nd = kNd;
  image.fences = {0.3f, 0.45f};
  std::map<SubscriptionId, Box> acked;
  Rng rng(18);
  for (SubscriptionId id = 1; id <= 300; ++id) {
    const Box b = testutil::RandomBox(rng, kNd, 0.4f);
    acked[id] = b;
    image.ids.push_back(id);
    image.coords.insert(image.coords.end(), b.data(), b.data() + 2 * kNd);
  }
  WriteFramedCheckpoint(paths.ckpt, image, FramedPlanTail{});

  // The store reads it as dimension 0.
  {
    auto store = durability::CheckpointStore::Open(PagedFile::Open(paths.ckpt));
    ASSERT_NE(store, nullptr);
    durability::EngineImage back;
    ASSERT_TRUE(store->Read(&back));
    EXPECT_EQ(back.fences, image.fences);
    EXPECT_EQ(back.dim, 0u);
    EXPECT_EQ(back.ids, image.ids);
    EXPECT_EQ(back.coords, image.coords);
  }

  // The engine restores it as one configured with those fences would
  // hold the same subscriptions: routing snapshot 1, dimension 0.
  EngineOptions configured = Opts();
  configured.range_boundaries = image.fences;
  SubscriptionEngine reference(UnitSchema(), configured);
  for (const auto& [id, box] : acked) reference.SubscribeBox(box);

  durability::DurableEngine de;
  Status st;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                      paths.wal, paths.ckpt, nullptr, &de,
                                      &st))
      << st.message();
  EXPECT_TRUE(de.recovery.checkpoint_loaded);
  EXPECT_EQ(de.engine->routing_version(), 1u);
  ExpectSamePlan(PlanState::Of(*de.engine), PlanState::Of(reference), "v1");
  for (const Box& probe : Probes()) {
    std::vector<SubscriptionId> got;
    de.engine->Match(Event::Range(probe), &got);
    EXPECT_EQ(got, Oracle(acked, probe));
  }
  ExpectResidentHistogram(*de.engine, acked, "v1");
  EXPECT_EQ(de.engine->SubscribeBox(Box::FullDomain(kNd)), 301u);
  de = durability::DurableEngine();
  paths.Remove();
}

/// A checkpoint image of 300 subscriptions on PlanSchema(), fenced on
/// dimension 2, with boxes wide enough that many straddle the fences.
durability::EngineImage PlanImage(std::map<SubscriptionId, Box>* acked) {
  durability::EngineImage image;
  image.lsn = 0;
  image.next_id = 301;
  image.routing_version = 7;
  image.nd = kPlanNd;
  image.dim = 2;
  image.fences = {0.2f, 0.45f, 0.7f};
  Rng rng(19);
  for (SubscriptionId id = 1; id <= 300; ++id) {
    const Box b = testutil::RandomBox(rng, kPlanNd, 0.4f);
    (*acked)[id] = b;
    image.ids.push_back(id);
    image.coords.insert(image.coords.end(), b.data(), b.data() + 2 * kPlanNd);
  }
  return image;
}

TEST(DurabilityRecovery, VersionTwoCheckpointRestoresItsPlanWithOrWithoutSplit) {
  // A version-2 image as an engine that still had the overflow split wrote
  // it: with the split inactive, and with one active on dimension 1.
  // Either way the fence dimension and fences come back, and the split's
  // straddlers live in the overflow shard, as in an engine configured
  // with that plan.
  const FramedPlanTail tails[] = {{2, -1, {}}, {2, 1, {0.5f}}};
  for (const FramedPlanTail& tail : tails) {
    SCOPED_TRACE(tail.split_dim < 0 ? "no split" : "active split");
    const Paths paths("v2_split");
    paths.Remove();
    std::map<SubscriptionId, Box> acked;
    const durability::EngineImage image = PlanImage(&acked);
    WriteFramedCheckpoint(paths.ckpt, image, tail);
    {
      auto store =
          durability::CheckpointStore::Open(PagedFile::Open(paths.ckpt));
      ASSERT_NE(store, nullptr);
      durability::EngineImage back;
      ASSERT_TRUE(store->Read(&back));
      EXPECT_EQ(back.dim, image.dim);
      EXPECT_EQ(back.fences, image.fences);
      EXPECT_EQ(back.ids, image.ids);
    }

    EngineOptions configured = PlanOpts();
    configured.range_boundaries = image.fences;
    SubscriptionEngine reference(PlanSchema(), configured);
    ASSERT_TRUE(reference.SetRoutingDimension(image.dim));
    for (const auto& [id, box] : acked) reference.SubscribeBox(box);
    const PlanState want = PlanState::Of(reference);
    ASSERT_GT(want.per_shard.back(), 0u);  // the overflow shard has residents

    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(PlanSchema(), PlanOpts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    EXPECT_TRUE(de.recovery.checkpoint_loaded);
    ExpectSamePlan(PlanState::Of(*de.engine), want, "v2");
    ExpectPlanParity(*de.engine, acked, "v2");
    de = durability::DurableEngine();
    paths.Remove();
  }
}

TEST(DurabilityRecovery, CheckpointFencesThatAreNotAscendingAreDropped) {
  // A checksum-valid image whose fence array has the right size but is not
  // a valid fence array (descending, or NaN) restores on the configured
  // fences, as a wrongly sized array does.
  const std::vector<std::vector<float>> bad = {{0.7f, 0.3f},
                                               {std::nanf(""), 0.5f}};
  for (const std::vector<float>& fences : bad) {
    const Paths paths("bad_fences");
    paths.Remove();
    durability::EngineImage image;
    image.lsn = 0;
    image.next_id = 201;
    image.nd = kNd;
    image.fences = fences;
    std::map<SubscriptionId, Box> acked;
    Rng rng(20);
    for (SubscriptionId id = 1; id <= 200; ++id) {
      const Box b = testutil::RandomBox(rng, kNd, 0.4f);
      acked[id] = b;
      image.ids.push_back(id);
      image.coords.insert(image.coords.end(), b.data(), b.data() + 2 * kNd);
    }
    {
      auto store = durability::CheckpointStore::Open(
          PagedFile::Create(paths.ckpt, durability::kCheckpointPageBytes));
      ASSERT_NE(store, nullptr);
      ASSERT_TRUE(store->Write(image));
    }

    const std::vector<float> configured =
        SubscriptionEngine(UnitSchema(), Opts()).GetRangeBoundaries();
    durability::DurableEngine de;
    Status st;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        paths.wal, paths.ckpt, nullptr, &de,
                                        &st))
        << st.message();
    EXPECT_TRUE(de.recovery.checkpoint_loaded);
    EXPECT_EQ(de.engine->GetRangeBoundaries(), configured);
    for (const Box& probe : Probes()) {
      std::vector<SubscriptionId> got;
      de.engine->Match(Event::Range(probe), &got);
      EXPECT_EQ(got, Oracle(acked, probe));
    }
    ExpectResidentHistogram(*de.engine, acked, "bad fences");
    de = durability::DurableEngine();
    paths.Remove();
  }
}

}  // namespace
}  // namespace accl
