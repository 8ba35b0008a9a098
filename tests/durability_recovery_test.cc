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
// threads at once must survive the restart too.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "geometry/query.h"
#include "sdi/subscription_engine.h"
#include "tests/test_util.h"
#include "util/rng.h"

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
    const obs::MetricsSnapshot snap = de.engine->metrics().Snapshot();
    ASSERT_NE(snap.Find("accl_ckpt_writes_total"), nullptr);
    EXPECT_GT(snap.Find("accl_ckpt_writes_total")->counter, 0u);
    const WalStats ws = de.wal->stats();
    EXPECT_GT(ws.truncations, 0u);
    EXPECT_GT(ws.segments_rotated, 0u);
    EXPECT_GT(ws.segments_unlinked, 0u);
    EXPECT_LT(ws.live_segments, ws.segments_rotated + 1);
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

}  // namespace
}  // namespace accl
