// Log shipping + failover tests (durability/shipping.h).
//
// Unit coverage first: a follower tracks a live primary and serves
// read-only matches, refuses mutations, re-bases from the checkpoint when
// the primary's truncation outruns the replication cursor, GCs its mirror
// chain, and promotes warm into a writable primary whose new mutations are
// durable in the replica files.
//
// The centerpiece is the failover crash-point matrix: a primary runs a
// deterministic mutation script with a shipper interleaved, all I/O
// charged to ONE shared SimDisk — WAL flushes, rotations,
// checkpoint writes, truncation unlinks, mirror creates, mirror batch
// writes, mirror GC. The primary is then killed at EVERY FailAfter(k) over
// the fault-free run's io_ops() range (so faults land mid-rotation and
// mid-ship too), faults are disarmed (shared storage survives the crash),
// the follower is promoted, and the promoted engine's match sets must be
// digest-equal to a brute-force oracle over exactly the acknowledged
// mutations. The promoted primary must also accept and durably log a new
// subscription, verified by recovering the replica files from scratch.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "durability/checkpoint.h"
#include "durability/segment.h"
#include "durability/shipping.h"
#include "durability/wal.h"
#include "geometry/query.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace accl {
namespace {

using durability::DurableEngine;
using durability::LogShipper;

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

DurabilityOptions DurOpts() {
  DurabilityOptions d;
  d.group_commit = true;
  d.checkpoint_every_mutations = 0;  // scripts checkpoint explicitly
  d.background_checkpoints = false;
  // Tiny segments: the scripts rotate and GC for real, and the failover
  // matrix lands faults inside those lifecycle ops.
  d.wal_segment_bytes = 256;
  return d;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Primary + replica file sets for one scenario.
struct Cluster {
  std::string wal;
  std::string ckpt;
  std::string replica_wal;
  std::string replica_ckpt;
  explicit Cluster(const std::string& tag)
      : wal(TempPath("failover_" + tag + ".wal")),
        ckpt(TempPath("failover_" + tag + ".ck")),
        replica_wal(TempPath("failover_" + tag + ".rwal")),
        replica_ckpt(TempPath("failover_" + tag + ".rck")) {}
  void Remove() const {
    durability::RemoveWalFiles(wal);
    durability::RemoveWalFiles(replica_wal);
    std::remove(ckpt.c_str());
    std::remove(replica_ckpt.c_str());
  }
  LogShipper::Options ShipOpts(SimDisk* disk) const {
    LogShipper::Options o;
    o.source_wal_base = wal;
    o.source_checkpoint_path = ckpt;
    o.replica_wal_base = replica_wal;
    o.replica_checkpoint_path = replica_ckpt;
    o.disk = disk;
    return o;
  }
};

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
/// `acked`, however the engine got its subscriptions (recovery restore,
/// replay, follower apply).
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

/// Match-set parity between `engine` and the `acked` oracle, via the
/// MatchBatch read path (what a follower actually serves).
/// One of the shipper's accl_repl_* metrics, read from the follower
/// engine's registry (LogShipper::Create attaches them there).
obs::MetricValue ReplMetric(const LogShipper& shipper,
                            const std::string& name) {
  return testutil::MetricOf(shipper.engine()->metrics(), name);
}

void ExpectEngineParity(SubscriptionEngine* engine,
                        const std::map<SubscriptionId, Box>& acked,
                        const std::string& context) {
  ASSERT_EQ(engine->subscription_count(), acked.size()) << context;
  const std::vector<Box> probes = Probes();
  std::vector<Event> events;
  for (const Box& probe : probes) events.push_back(Event::Range(probe));
  MatchBatchResult result;
  engine->MatchBatch(Span<const Event>(events.data(), events.size()),
                     &result);
  ASSERT_EQ(result.matches.size(), probes.size()) << context;
  for (size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(result.matches[i], Oracle(acked, probes[i]))
        << context << ", probe " << i;
  }
  ExpectResidentHistogram(*engine, acked, context);
}

/// Recovers a durable engine from `wal`/`ckpt` files and asserts parity.
void ExpectRecoveredParity(const std::string& wal, const std::string& ckpt,
                           const std::map<SubscriptionId, Box>& acked,
                           const std::string& context) {
  DurableEngine de;
  Status st;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(), wal,
                                      ckpt, /*disk=*/nullptr, &de, &st))
      << context << ": " << st.message();
  ExpectEngineParity(de.engine.get(), acked, context);
}

void SubscribeSome(DurableEngine& de, Rng& rng, int n,
                   std::map<SubscriptionId, Box>* acked) {
  for (int i = 0; i < n; ++i) {
    const Box b = testutil::RandomBox(rng, kNd, 0.5f);
    const SubscriptionId id = de.engine->SubscribeBox(b);
    if (id != kInvalidObject) (*acked)[id] = b;
  }
}

// ---------------------------------------------------------------------------
// Shipping unit tests
// ---------------------------------------------------------------------------

TEST(LogShipping, FollowerTracksPrimaryAndServesReadOnly) {
  const Cluster c("track");
  c.Remove();
  Rng rng(11);
  std::map<SubscriptionId, Box> acked;

  DurableEngine primary;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(), c.wal,
                                      c.ckpt, nullptr, &primary, nullptr));
  SubscribeSome(primary, rng, 20, &acked);

  Status st;
  std::unique_ptr<LogShipper> shipper = LogShipper::Create(
      UnitSchema(), Opts(), c.ShipOpts(nullptr), &st);
  ASSERT_NE(shipper, nullptr) << st.message();
  ASSERT_TRUE(shipper->ShipOnce().ok());

  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_cursor_lsn").gauge,
            static_cast<int64_t>(primary.wal->durable_lsn()));
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_lag_records").gauge, 0);
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_ship_passes_total").counter, 1u);
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_records_applied_total").counter,
            20u);
  // 256-byte segments: many files.
  EXPECT_GT(ReplMetric(*shipper, "accl_repl_segments_mirrored_total").counter,
            1u);
  EXPECT_GT(ReplMetric(*shipper, "accl_repl_bytes_shipped_total").counter, 0u);
  ExpectEngineParity(shipper->engine(), acked, "after first pass");

  // Read-only: every mutation path refuses BEFORE allocating an id, so a
  // later promotion continues the primary's id space, not a forked one.
  SubscriptionEngine* follower = shipper->engine();
  EXPECT_EQ(follower->role(), SubscriptionEngine::EngineRole::kFollower);
  EXPECT_EQ(follower->SubscribeBox(Box::FullDomain(kNd)), kInvalidObject);
  std::vector<Box> batch(2, Box::FullDomain(kNd));
  std::vector<SubscriptionId> ids;
  follower->SubscribeBatch(Span<const Box>(batch.data(), batch.size()), &ids);
  EXPECT_TRUE(ids.empty());
  EXPECT_FALSE(follower->Unsubscribe(acked.begin()->first));
  EXPECT_EQ(follower->subscription_count(), acked.size());

  // Incremental: only the delta ships on the next pass.
  SubscribeSome(primary, rng, 10, &acked);
  ASSERT_TRUE(primary.engine->Unsubscribe(acked.begin()->first));
  acked.erase(acked.begin());
  ASSERT_TRUE(shipper->ShipOnce().ok());
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_ship_passes_total").counter, 2u);
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_records_applied_total").counter,
            31u);
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_cursor_lsn").gauge,
            static_cast<int64_t>(primary.wal->durable_lsn()));
  ExpectEngineParity(shipper->engine(), acked, "after second pass");
  c.Remove();
}

TEST(LogShipping, MirrorFollowsSourceTruncationAndStaysBounded) {
  const Cluster c("gc");
  c.Remove();
  Rng rng(12);
  std::map<SubscriptionId, Box> acked;

  DurableEngine primary;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(), c.wal,
                                      c.ckpt, nullptr, &primary, nullptr));
  std::unique_ptr<LogShipper> shipper =
      LogShipper::Create(UnitSchema(), Opts(), c.ShipOpts(nullptr), nullptr);
  ASSERT_NE(shipper, nullptr);

  SubscribeSome(primary, rng, 16, &acked);
  ASSERT_TRUE(shipper->ShipOnce().ok());
  ASSERT_GT(ReplMetric(*shipper, "accl_repl_segments_mirrored_total").counter,
            2u);

  // The primary checkpoints and truncates; the next pass copies the
  // covering image and unlinks the now-stale mirror segments.
  ASSERT_TRUE(primary.checkpointer->CheckpointNow());
  SubscribeSome(primary, rng, 4, &acked);
  ASSERT_TRUE(shipper->ShipOnce().ok());
  EXPECT_GT(
      ReplMetric(*shipper, "accl_repl_mirror_segments_unlinked_total").counter,
      0u);
  // The cursor never fell behind.
  EXPECT_EQ(
      ReplMetric(*shipper, "accl_repl_checkpoint_catchups_total").counter, 0u);
  EXPECT_LE(durability::ListSegmentFiles(c.replica_wal).size(),
            durability::ListSegmentFiles(c.wal).size());
  ExpectEngineParity(shipper->engine(), acked, "after mirror GC");
  c.Remove();
}

TEST(LogShipping, CheckpointCatchupWhenTruncationOutrunsCursor) {
  const Cluster c("catchup");
  c.Remove();
  Rng rng(13);
  std::map<SubscriptionId, Box> acked;

  DurableEngine primary;
  ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(), c.wal,
                                      c.ckpt, nullptr, &primary, nullptr));
  // Build state, unsubscribe some of it, checkpoint + truncate — all
  // BEFORE the follower ever ships: the oldest live record is now far past
  // a fresh cursor, so the log alone cannot bootstrap the follower. The
  // unsubscribes also prove the catch-up applies the image (which reflects
  // them), not a replay of surviving subscribe records (which would not).
  SubscribeSome(primary, rng, 16, &acked);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(primary.engine->Unsubscribe(acked.begin()->first));
    acked.erase(acked.begin());
  }
  ASSERT_TRUE(primary.checkpointer->CheckpointNow());
  SubscribeSome(primary, rng, 6, &acked);  // a live tail past the image

  std::unique_ptr<LogShipper> shipper =
      LogShipper::Create(UnitSchema(), Opts(), c.ShipOpts(nullptr), nullptr);
  ASSERT_NE(shipper, nullptr);
  ASSERT_TRUE(shipper->ShipOnce().ok());
  EXPECT_EQ(
      ReplMetric(*shipper, "accl_repl_checkpoint_catchups_total").counter, 1u);
  // Only the tail came from the log.
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_records_applied_total").counter,
            6u);
  EXPECT_EQ(ReplMetric(*shipper, "accl_repl_cursor_lsn").gauge,
            static_cast<int64_t>(primary.wal->durable_lsn()));
  ExpectEngineParity(shipper->engine(), acked, "after catch-up");
  EXPECT_EQ(shipper->engine()->role(),
            SubscriptionEngine::EngineRole::kFollower);
  c.Remove();
}

TEST(LogShipping, PromoteFlipsWarmFollowerToWritablePrimary) {
  const Cluster c("promote");
  c.Remove();
  Rng rng(14);
  std::map<SubscriptionId, Box> acked;
  SubscriptionId max_primary_id = 0;

  std::unique_ptr<LogShipper> shipper;
  SubscriptionEngine* warm = nullptr;
  {
    DurableEngine primary;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        c.wal, c.ckpt, nullptr, &primary,
                                        nullptr));
    SubscribeSome(primary, rng, 18, &acked);
    ASSERT_TRUE(primary.checkpointer->CheckpointNow());
    SubscribeSome(primary, rng, 5, &acked);
    // The follower tracks the live primary; the engine it built here is
    // the one promotion must keep (bootstrap may rebuild through a
    // checkpoint catch-up, so "warm" is captured after the last pass).
    shipper = LogShipper::Create(UnitSchema(), Opts(), c.ShipOpts(nullptr),
                                 nullptr);
    ASSERT_NE(shipper, nullptr);
    ASSERT_TRUE(shipper->ShipOnce().ok());
    // Writers subscribe concurrently while this thread ships and
    // checkpoints, so shipping reads a WAL that grows, rotates and is
    // truncated under it.
    constexpr int kWriters = 3;
    std::vector<std::map<SubscriptionId, Box>> written(kWriters);
    std::atomic<int> finished{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        Rng wrng(140 + t);
        SubscribeSome(primary, wrng, 30, &written[t]);
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    for (int pass = 1; finished.load(std::memory_order_acquire) < kWriters;
         ++pass) {
      EXPECT_TRUE(shipper->ShipOnce().ok());
      if (pass % 4 == 0) {
        EXPECT_TRUE(primary.checkpointer->CheckpointNow());
      }
    }
    for (std::thread& w : writers) w.join();
    for (const auto& w : written) {
      EXPECT_EQ(w.size(), 30u);  // every concurrent write acknowledged
      acked.insert(w.begin(), w.end());
    }
    max_primary_id = acked.rbegin()->first;
    ASSERT_TRUE(shipper->ShipOnce().ok());
    warm = shipper->engine();
  }  // primary gone; its files survive (shared storage)

  DurableEngine promoted;
  ASSERT_TRUE(shipper->Promote(DurOpts(), &promoted).ok());
  EXPECT_EQ(shipper->engine(), nullptr);
  // The shipper withdrew its accl_repl_* metrics from the registry the
  // promoted engine keeps.
  EXPECT_EQ(
      promoted.engine->metrics().Snapshot().Find("accl_repl_cursor_lsn"),
      nullptr);
  // Warm promotion: the engine that was following IS the new primary.
  EXPECT_EQ(promoted.engine.get(), warm);
  EXPECT_EQ(promoted.engine->role(),
            SubscriptionEngine::EngineRole::kPrimary);
  ExpectEngineParity(promoted.engine.get(), acked, "promoted");

  // Promoting twice is refused, not replayed.
  DurableEngine again;
  EXPECT_EQ(shipper->Promote(DurOpts(), &again).code(),
            StatusCode::kFailedPrecondition);

  // The promoted primary accepts writes, continues the id space, and logs
  // them durably into the REPLICA files.
  const Box fresh_box = Box::FullDomain(kNd);
  const SubscriptionId fresh = promoted.engine->SubscribeBox(fresh_box);
  ASSERT_NE(fresh, kInvalidObject);
  EXPECT_GT(fresh, max_primary_id);
  acked[fresh] = fresh_box;
  ASSERT_TRUE(promoted.engine->Unsubscribe(acked.begin()->first));
  acked.erase(acked.begin());
  ASSERT_TRUE(promoted.checkpointer->CheckpointNow());
  SubscribeSome(promoted, rng, 3, &acked);
  ExpectEngineParity(promoted.engine.get(), acked, "promoted + writes");
}

TEST(LogShipping, PromotedPrimaryIsDurableInTheReplicaFiles) {
  // The previous test left the promoted node's state in c("promote")'s
  // replica files — but gtest tests must not order-depend, so this one
  // rebuilds the scenario from scratch and then recovers cold.
  const Cluster c("durable");
  c.Remove();
  Rng rng(15);
  std::map<SubscriptionId, Box> acked;
  {
    DurableEngine primary;
    ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                        c.wal, c.ckpt, nullptr, &primary,
                                        nullptr));
    SubscribeSome(primary, rng, 12, &acked);
  }
  std::unique_ptr<LogShipper> shipper =
      LogShipper::Create(UnitSchema(), Opts(), c.ShipOpts(nullptr), nullptr);
  ASSERT_NE(shipper, nullptr);
  {
    DurableEngine promoted;
    ASSERT_TRUE(shipper->Promote(DurOpts(), &promoted).ok());
    SubscribeSome(promoted, rng, 4, &acked);
    ASSERT_TRUE(promoted.engine->Unsubscribe(acked.begin()->first));
    acked.erase(acked.begin());
    ASSERT_TRUE(promoted.checkpointer->CheckpointNow());
  }  // clean shutdown of the new primary
  ExpectRecoveredParity(c.replica_wal, c.replica_ckpt, acked,
                        "replica restart");
  c.Remove();
}

// ---------------------------------------------------------------------------
// Failover crash-point matrix
// ---------------------------------------------------------------------------

/// The scripted life of a primary with a shipper attached: mutations,
/// explicit checkpoints, and ship passes all charge `disk`. Ship passes may
/// fail once a fault fires — shipping is retryable, and the promotion pass
/// after the crash is what must not lose anything.
void DriveFailoverScript(DurableEngine& de, LogShipper& shipper,
                         std::map<SubscriptionId, Box>* acked) {
  Rng rng(2027);
  for (int phase = 0; phase < 2; ++phase) {
    SubscribeSome(de, rng, 6, acked);
    std::vector<Box> batch;
    for (int i = 0; i < 4; ++i) {
      batch.push_back(testutil::RandomBox(rng, kNd, 0.5f));
    }
    std::vector<SubscriptionId> ids;
    de.engine->SubscribeBatch(Span<const Box>(batch.data(), batch.size()),
                              &ids);
    for (size_t i = 0; i < ids.size(); ++i) (*acked)[ids[i]] = batch[i];
    (void)shipper.ShipOnce();  // failure is part of the matrix
    for (int i = 0; i < 3 && !acked->empty(); ++i) {
      const SubscriptionId victim = acked->begin()->first;
      if (de.engine->Unsubscribe(victim)) acked->erase(victim);
    }
    de.checkpointer->CheckpointNow();  // failure is part of the matrix
    (void)shipper.ShipOnce();
  }
  SubscribeSome(de, rng, 3, acked);
}

TEST(FailoverMatrix, PromotionPreservesTheAcknowledgedPrefix) {
  // Dry run: one shared counting disk across primary WAL + checkpoints +
  // shipping; its io_ops() is the matrix size.
  uint64_t total_ops = 0;
  {
    const Cluster c("dryrun");
    c.Remove();
    SimDisk disk = SimDisk::Paper();
    std::map<SubscriptionId, Box> acked;
    std::unique_ptr<LogShipper> shipper =
        LogShipper::Create(UnitSchema(), Opts(), c.ShipOpts(&disk), nullptr);
    ASSERT_NE(shipper, nullptr);
    {
      DurableEngine primary;
      ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                          c.wal, c.ckpt, &disk, &primary,
                                          nullptr));
      DriveFailoverScript(primary, *shipper, &acked);
      total_ops = disk.io_ops();
      EXPECT_EQ(disk.faults_injected(), 0u);
    }  // clean primary shutdown
    {
      DurableEngine promoted;
      ASSERT_TRUE(shipper->Promote(DurOpts(), &promoted).ok());
      ExpectEngineParity(promoted.engine.get(), acked, "dry-run promote");
    }
    c.Remove();
  }
  ASSERT_GT(total_ops, 40u);  // flushes + lifecycle ops + ship batches

  for (uint64_t k = 0; k < total_ops; ++k) {
    const std::string tag = "k" + std::to_string(k);
    const Cluster c(tag);
    c.Remove();
    SimDisk disk = SimDisk::Paper();
    std::map<SubscriptionId, Box> acked;
    std::unique_ptr<LogShipper> shipper;
    {
      DurableEngine primary;
      ASSERT_TRUE(durability::OpenDurable(UnitSchema(), Opts(), DurOpts(),
                                          c.wal, c.ckpt, &disk, &primary,
                                          nullptr));
      shipper = LogShipper::Create(UnitSchema(), Opts(), c.ShipOpts(&disk),
                                   nullptr);
      ASSERT_NE(shipper, nullptr);
      disk.FailAfter(k);
      DriveFailoverScript(primary, *shipper, &acked);
      EXPECT_GT(disk.faults_injected(), 0u) << "crash point " << k;
    }  // primary "crashes": destroyed with the fault still armed

    // Shared storage survives the crash; the disk itself works again.
    disk.DisarmFaults();
    {
      DurableEngine promoted;
      const Status st = shipper->Promote(DurOpts(), &promoted);
      ASSERT_TRUE(st.ok()) << "crash point " << k << ": " << st.message();
      ExpectEngineParity(promoted.engine.get(), acked,
                         "promote at crash point " + std::to_string(k));

      // The promoted primary accepts a new durable subscription...
      const Box fresh_box = Box::FullDomain(kNd);
      const SubscriptionId fresh = promoted.engine->SubscribeBox(fresh_box);
      ASSERT_NE(fresh, kInvalidObject) << "crash point " << k;
      acked[fresh] = fresh_box;
    }

    // ...that a from-scratch recovery of the replica files still has.
    ExpectRecoveredParity(c.replica_wal, c.replica_ckpt, acked,
                          "replica recovery at crash point " +
                              std::to_string(k));
    c.Remove();
  }
}

}  // namespace
}  // namespace accl
