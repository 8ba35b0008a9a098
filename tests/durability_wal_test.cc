// Unit tests for the segmented write-ahead log and the shadow-paged
// checkpoint store: framing round trips, tail-corruption containment,
// segment rotation and boundary-spanning replay, truncation GC (unlink) and
// the generation-stamp regression, replay refusing checksum-valid records
// with malformed boxes, group-commit vs
// per-record flush accounting, fault injection across the file lifecycle,
// and the checkpoint store's old-image-survives-failed-write guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "durability/checkpoint.h"
#include "durability/segment.h"
#include "durability/shipping.h"
#include "durability/wal.h"
#include "storage/paged_store.h"
#include "storage/sim_disk.h"
#include "tests/test_util.h"

namespace accl {
namespace durability {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

/// WAL base path with no leftover segment files.
std::string FreshBase(const char* name) {
  const std::string base = TempPath(name);
  RemoveWalFiles(base);
  return base;
}

/// One of `wal`'s accl_wal_* metrics, read through a local registry.
obs::MetricValue WalMetric(WriteAheadLog& wal, const std::string& name) {
  obs::MetricsRegistry reg;
  wal.AttachMetrics(&reg);
  return testutil::MetricOf(reg, name);
}

std::unique_ptr<PagedFile> FreshFile(const std::string& path) {
  std::remove(path.c_str());
  return PagedFile::Create(path, 4096);
}

std::vector<float> BoxCoords(Dim nd, float seed) {
  std::vector<float> c(2 * static_cast<size_t>(nd));
  for (size_t i = 0; i < c.size(); i += 2) {
    c[i] = seed;
    c[i + 1] = seed + 0.1f;
  }
  return c;
}

std::vector<WalRecord> ReplayAll(WriteAheadLog& wal, Lsn after = kNoLsn) {
  std::vector<WalRecord> recs;
  EXPECT_TRUE(wal.Replay(after, [&](const WalRecord& r) { recs.push_back(r); }));
  return recs;
}

/// One nd=2 subscribe record on disk: 24-byte header + (1+4+4+4+16) payload.
constexpr uint64_t kSubscribe2dFrameBytes = kFrameHeaderBytes + 29;

/// Hand-frames one subscribe record — `coords.size() / (2 * nd)` boxes
/// with ids from `first_id`, a batch record when there are several — at
/// byte `off` of `segment_path`, under `lsn` and generation stamp `gen`,
/// with the checksum computed over exactly those bytes. Returns the offset
/// just past the frame.
uint64_t WriteSubscribeFrame(const std::string& segment_path, uint64_t off,
                             Lsn lsn, uint64_t gen, ObjectId first_id, Dim nd,
                             const std::vector<float>& coords) {
  const uint32_t count = static_cast<uint32_t>(coords.size() / (2 * nd));
  std::vector<uint8_t> payload;
  payload.push_back(static_cast<uint8_t>(
      count == 1 ? WalRecordType::kSubscribe : WalRecordType::kSubscribeBatch));
  const auto put32 = [&](uint32_t v) {
    const uint8_t* b = reinterpret_cast<const uint8_t*>(&v);
    payload.insert(payload.end(), b, b + 4);
  };
  put32(first_id);
  put32(count);
  put32(nd);
  const uint8_t* cb = reinterpret_cast<const uint8_t*>(coords.data());
  payload.insert(payload.end(), cb, cb + coords.size() * 4);

  uint8_t hdr[kFrameHeaderBytes];
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint32_t crc = FrameChecksum(payload.data(), payload.size(), lsn, gen);
  std::memcpy(hdr, &len, 4);
  std::memcpy(hdr + 4, &crc, 4);
  std::memcpy(hdr + 8, &lsn, 8);
  std::memcpy(hdr + 16, &gen, 8);

  auto pf = PagedFile::Open(segment_path);
  EXPECT_NE(pf, nullptr);
  if (pf == nullptr) return off;
  EXPECT_TRUE(pf->StreamWrite(off, hdr, kFrameHeaderBytes));
  EXPECT_TRUE(
      pf->StreamWrite(off + kFrameHeaderBytes, payload.data(), payload.size()));
  EXPECT_TRUE(pf->Sync());
  return off + kFrameHeaderBytes + payload.size();
}

/// Hand-writes a fully valid subscribe frame (id 666, lsn 8) at the second
/// frame slot of `segment_path`, stamped with `gen` — everything about it
/// passes framing; only the stamp decides whether it replays.
void WriteStampedFrame(const std::string& segment_path, uint64_t gen) {
  WriteSubscribeFrame(segment_path,
                      kSegmentPreambleBytes + kSubscribe2dFrameBytes,
                      /*lsn=*/8, gen, /*first_id=*/666, 2, BoxCoords(2, 0.9f));
}

/// Small-segment options: with sequential WaitDurable'd appends (one record
/// per flush batch) each segment seals after exactly two nd=2 subscribes.
WriteAheadLog::Options SmallSegments() {
  WriteAheadLog::Options o;
  o.segment_bytes = 64;
  return o;
}

/// Appends `n` nd=2 subscribes one at a time (ids `first_id`, +1, ...),
/// waiting each durable so every record is its own flush batch — segment
/// layout is then deterministic.
void AppendSerial(WriteAheadLog* wal, ObjectId first_id, int n, float seed) {
  const auto c = BoxCoords(2, seed);
  for (int i = 0; i < n; ++i) {
    const Lsn l = wal->AppendSubscribe(first_id + i, 2, c.data());
    ASSERT_TRUE(wal->WaitDurable(l));
  }
}

TEST(WriteAheadLog, AppendReplayRoundTrip) {
  const std::string base = FreshBase("wal_roundtrip.wal");
  auto wal = WriteAheadLog::Open(base, {});
  ASSERT_NE(wal, nullptr);

  const auto c1 = BoxCoords(3, 0.1f);
  const Lsn l1 = wal->AppendSubscribe(7, 3, c1.data());
  const auto cb = BoxCoords(3, 0.3f);
  std::vector<float> batch(cb);
  batch.insert(batch.end(), cb.begin(), cb.end());
  const Lsn l2 = wal->AppendSubscribeBatch(8, 2, 3, batch.data());
  const Lsn l3 = wal->AppendUnsubscribe(7);
  EXPECT_EQ(l1, 1u);
  EXPECT_EQ(l2, 2u);
  EXPECT_EQ(l3, 3u);
  ASSERT_TRUE(wal->WaitDurable(l3));
  EXPECT_EQ(wal->durable_lsn(), 3u);

  const std::vector<WalRecord> recs = ReplayAll(*wal);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].type, WalRecordType::kSubscribe);
  EXPECT_EQ(recs[0].first_id, 7u);
  EXPECT_EQ(recs[0].count, 1u);
  EXPECT_EQ(recs[0].coords, c1);
  EXPECT_EQ(recs[1].type, WalRecordType::kSubscribeBatch);
  EXPECT_EQ(recs[1].first_id, 8u);
  EXPECT_EQ(recs[1].count, 2u);
  EXPECT_EQ(recs[1].coords, batch);
  EXPECT_EQ(recs[2].type, WalRecordType::kUnsubscribe);
  EXPECT_EQ(recs[2].first_id, 7u);
  // Replay honors the `after` cursor.
  EXPECT_EQ(ReplayAll(*wal, 2).size(), 1u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, ReopenFindsTheDurablePrefixAndContinuesLsns) {
  const std::string base = FreshBase("wal_reopen.wal");
  const auto c = BoxCoords(2, 0.2f);
  {
    auto wal = WriteAheadLog::Open(base, {});
    for (int i = 0; i < 5; ++i) wal->AppendSubscribe(i, 2, c.data());
    ASSERT_TRUE(wal->WaitDurable(5));
  }
  auto wal = WriteAheadLog::Open(base, {});
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->durable_lsn(), 5u);
  EXPECT_EQ(wal->max_lsn(), 5u);
  EXPECT_EQ(ReplayAll(*wal).size(), 5u);
  // New appends continue after the scanned prefix.
  EXPECT_EQ(wal->AppendSubscribe(99, 2, c.data()), 6u);
  ASSERT_TRUE(wal->WaitDurable(6));
  EXPECT_EQ(ReplayAll(*wal).size(), 6u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, CorruptTailStopsReplayCleanly) {
  const std::string base = FreshBase("wal_corrupt.wal");
  const auto c = BoxCoords(2, 0.4f);
  {
    auto wal = WriteAheadLog::Open(base, {});
    for (int i = 0; i < 4; ++i) wal->AppendSubscribe(i, 2, c.data());
    ASSERT_TRUE(wal->WaitDurable(4));
  }
  // Scribble garbage over the last record's frame: a torn tail.
  {
    auto pf = PagedFile::Open(SegmentPath(base, 1));
    ASSERT_NE(pf, nullptr);
    const uint64_t tail = kSegmentPreambleBytes + 4 * kSubscribe2dFrameBytes;
    const uint32_t garbage[2] = {0xDEADBEEFu, 0x12345678u};
    ASSERT_TRUE(pf->StreamWrite(tail - kSubscribe2dFrameBytes + 10, garbage, 8));
    ASSERT_TRUE(pf->Sync());
  }
  auto wal = WriteAheadLog::Open(base, {});
  ASSERT_NE(wal, nullptr);
  // The valid prefix (3 records) survives; the torn record is absent, and
  // the log keeps working from there.
  EXPECT_EQ(wal->max_lsn(), 3u);
  EXPECT_EQ(ReplayAll(*wal).size(), 3u);
  EXPECT_EQ(wal->AppendSubscribe(50, 2, c.data()), 4u);
  ASSERT_TRUE(wal->WaitDurable(4));
  EXPECT_EQ(ReplayAll(*wal).size(), 4u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, RotationSealsSegmentsAndReplaySpansBoundaries) {
  const std::string base = FreshBase("wal_rotate.wal");
  auto wal = WriteAheadLog::Open(base, SmallSegments());
  ASSERT_NE(wal, nullptr);
  AppendSerial(wal.get(), 0, 9, 0.3f);

  // Two records per sealed segment.
  EXPECT_EQ(WalMetric(*wal, "accl_wal_live_segments").gauge, 5);
  EXPECT_EQ(WalMetric(*wal, "accl_wal_segments_rotated_total").counter, 4u);
  EXPECT_EQ(WalMetric(*wal, "accl_wal_tail_segment_seq").gauge, 5);

  // Replay crosses every rotation boundary in LSN order.
  std::vector<WalRecord> recs = ReplayAll(*wal);
  ASSERT_EQ(recs.size(), 9u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, static_cast<Lsn>(i + 1));
    EXPECT_EQ(recs[i].first_id, static_cast<ObjectId>(i));
  }
  // And the cursor can land mid-segment or on a boundary.
  EXPECT_EQ(ReplayAll(*wal, 4).size(), 5u);
  EXPECT_EQ(ReplayAll(*wal, 5).size(), 4u);

  // A reopen walks the same multi-segment prefix.
  wal.reset();
  wal = WriteAheadLog::Open(base, SmallSegments());
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->max_lsn(), 9u);
  EXPECT_EQ(ReplayAll(*wal).size(), 9u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, ReopenResumesInEmptyJustRotatedTail) {
  const std::string base = FreshBase("wal_emptytail.wal");
  {
    auto wal = WriteAheadLog::Open(base, SmallSegments());
    ASSERT_NE(wal, nullptr);
    AppendSerial(wal.get(), 0, 2, 0.4f);  // seals segment 1 exactly
  }
  // Simulate a crash between a rotation's seal and the first write into
  // the new segment: the chain is [full seg 1, empty seg 2] on disk.
  ASSERT_NE(WalSegment::Create(SegmentPath(base, 2), /*seq=*/2,
                               /*base_lsn=*/3, /*disk=*/nullptr),
            nullptr);
  auto wal = WriteAheadLog::Open(base, SmallSegments());
  ASSERT_NE(wal, nullptr);
  // The empty tail is a valid (empty) continuation, not corruption: the
  // prefix survives and appends resume inside segment 2.
  EXPECT_EQ(wal->max_lsn(), 2u);
  EXPECT_EQ(ReplayAll(*wal).size(), 2u);
  EXPECT_EQ(WalMetric(*wal, "accl_wal_tail_segment_seq").gauge, 2);
  AppendSerial(wal.get(), 10, 1, 0.5f);
  const std::vector<WalRecord> recs = ReplayAll(*wal);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs.back().lsn, 3u);
  EXPECT_EQ(recs.back().first_id, 10u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, TruncateDropsCoveredSegmentsDurablyAndBoundsFootprint) {
  const std::string base = FreshBase("wal_truncate.wal");
  auto wal = WriteAheadLog::Open(base, SmallSegments());
  AppendSerial(wal.get(), 0, 10, 0.5f);
  ASSERT_EQ(ListSegmentFiles(base).size(), 5u);

  // Truncation past the applied low-water is refused with the reason.
  const Status early = wal->Truncate(6);
  EXPECT_FALSE(early.ok());
  EXPECT_EQ(early.code(), StatusCode::kFailedPrecondition);
  for (Lsn l = 1; l <= 6; ++l) wal->MarkApplied(l);
  EXPECT_EQ(wal->applied_low_water(), 6u);
  ASSERT_TRUE(wal->Truncate(6).ok());

  // Segments {1,2}, {3,4}, {5,6} are fully covered and unlinked — the
  // on-disk footprint actually shrinks.
  EXPECT_EQ(WalMetric(*wal, "accl_wal_truncations_total").counter, 1u);
  EXPECT_EQ(WalMetric(*wal, "accl_wal_live_segments").gauge, 2);
  EXPECT_EQ(WalMetric(*wal, "accl_wal_segments_unlinked_total").counter, 3u);
  EXPECT_EQ(ListSegmentFiles(base).size(), 2u);

  std::vector<WalRecord> recs = ReplayAll(*wal);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs.front().lsn, 7u);
  wal.reset();
  // The truncation is durable: a reopen sees the same suffix.
  wal = WriteAheadLog::Open(base, SmallSegments());
  recs = ReplayAll(*wal);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs.front().lsn, 7u);
  EXPECT_EQ(wal->max_lsn(), 10u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, GenerationStampRejectsAForeignFramePastTheValidTail) {
  const std::string base = FreshBase("wal_gen.wal");
  auto wal = WriteAheadLog::Open(base, SmallSegments());
  // Segments: 1:{1,2} 2:{3,4} 3:{5,6} 4:{7} — lsn 7 is the only frame of a
  // freshly created segment.
  AppendSerial(wal.get(), 0, 7, 0.6f);
  EXPECT_EQ(WalMetric(*wal, "accl_wal_tail_segment_seq").gauge, 4);
  wal.reset();

  // Right after lsn 7's frame, put bytes segment 4's own appends never
  // wrote (a misdirected write, a frame copied from the segment before).
  // Make them maximally adversarial: a valid length, a checksum consistent
  // with its own bytes, and an LSN (8) that continues the live chain
  // perfectly. Only its generation stamp (3, the previous segment's)
  // betrays it.
  WriteStampedFrame(SegmentPath(base, 4), /*gen=*/3);

  // Open's tail scan and Replay must both stop at lsn 7.
  wal = WriteAheadLog::Open(base, SmallSegments());
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->max_lsn(), 7u);
  const std::vector<WalRecord> recs = ReplayAll(*wal);
  ASSERT_EQ(recs.size(), 7u);
  for (const WalRecord& r : recs) EXPECT_NE(r.first_id, 666u);
  wal.reset();

  // Control: restamp the identical frame under the segment's own
  // generation (4) and it replays — proving the stamp, and nothing else
  // about the framing, is what rejected the foreign bytes.
  WriteStampedFrame(SegmentPath(base, 4), /*gen=*/4);
  wal = WriteAheadLog::Open(base, SmallSegments());
  ASSERT_NE(wal, nullptr);
  EXPECT_EQ(wal->max_lsn(), 8u);
  EXPECT_EQ(ReplayAll(*wal).back().first_id, 666u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, ReplaySkipsSubscribeRecordsWithMalformedBoxes) {
  // Checksum-valid subscribe records whose boxes SubscribeBatch would have
  // refused: replay, by Recover and by a follower's ship pass alike, must
  // skip each whole record, count it, and still allocate its ids.
  const std::string base = FreshBase("wal_malformed.wal");
  {
    auto wal = WriteAheadLog::Open(base, {});
    ASSERT_NE(wal, nullptr);
    AppendSerial(wal.get(), 0, 1, 0.1f);  // lsn 1: id 0, well formed
  }
  const std::string seg = SegmentPath(base, 1);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> good = BoxCoords(2, 0.5f);
  std::vector<float> batch = good;  // ids 5, 6: the second box is inverted
  batch.insert(batch.end(), {0.2f, 0.3f, 0.6f, 0.4f});
  uint64_t off = kSegmentPreambleBytes + kSubscribe2dFrameBytes;
  off = WriteSubscribeFrame(seg, off, 2, 1, 1, 2, {nan, 0.5f, 0.1f, 0.2f});
  off = WriteSubscribeFrame(seg, off, 3, 1, 2, 2, {0.1f, 0.2f, 0.3f, inf});
  off = WriteSubscribeFrame(seg, off, 4, 1, 3, 2, {-inf, 0.2f, 0.3f, 0.4f});
  off = WriteSubscribeFrame(seg, off, 5, 1, 4, 2, good);
  off = WriteSubscribeFrame(seg, off, 6, 1, 5, 2, batch);

  AttributeSchema schema;
  schema.AddAttribute("a0", 0.0, 1.0);
  schema.AddAttribute("a1", 0.0, 1.0);
  const Event everything = Event::Range(Box::FullDomain(2));
  const std::vector<SubscriptionId> expected = {0, 4};

  // Recover: a fresh engine replays the whole log.
  {
    auto wal = WriteAheadLog::Open(base, {});
    ASSERT_NE(wal, nullptr);
    EXPECT_EQ(wal->max_lsn(), 6u);
    Status st;
    RecoveryStats rs;
    auto engine = SubscriptionEngine::Recover(schema, EngineOptions(), nullptr,
                                              wal.get(), &st, &rs);
    ASSERT_NE(engine, nullptr) << st.message();
    EXPECT_EQ(rs.wal_records_applied, 2u);
    EXPECT_EQ(rs.wal_records_skipped, 4u);
    EXPECT_EQ(engine->subscription_count(), 2u);
    std::vector<SubscriptionId> got;
    engine->Match(everything, &got, MatchPolicy::kIntersecting);
    EXPECT_EQ(got, expected);
    // The refused batch's ids stay allocated.
    EXPECT_EQ(engine->SubscribeBox(Box::FullDomain(2)), 7u);
  }

  // A follower's ship pass applies the same records the same way.
  LogShipper::Options so;
  so.source_wal_base = base;
  so.source_checkpoint_path = TempPath("wal_malformed_none.ck");
  so.replica_wal_base = FreshBase("wal_malformed_replica.wal");
  so.replica_checkpoint_path = TempPath("wal_malformed_replica.ck");
  std::remove(so.source_checkpoint_path.c_str());
  Status st;
  auto shipper = LogShipper::Create(schema, EngineOptions(), so, &st);
  ASSERT_NE(shipper, nullptr) << st.message();
  ASSERT_TRUE(shipper->ShipOnce().ok());
  EXPECT_EQ(testutil::MetricOf(shipper->engine()->metrics(),
                               "accl_repl_cursor_lsn")
                .gauge,
            6);
  std::vector<SubscriptionId> got;
  shipper->engine()->Match(everything, &got, MatchPolicy::kIntersecting);
  EXPECT_EQ(got, expected);
  DurableEngine promoted;
  ASSERT_TRUE(shipper->Promote(DurabilityOptions(), &promoted).ok());
  EXPECT_EQ(promoted.recovery.wal_records_applied, 2u);
  EXPECT_EQ(promoted.recovery.wal_records_skipped, 4u);
  EXPECT_EQ(promoted.engine->SubscribeBox(Box::FullDomain(2)), 7u);
  promoted = DurableEngine();
  shipper.reset();
  RemoveWalFiles(base);
  RemoveWalFiles(so.replica_wal_base);
  std::remove(so.replica_checkpoint_path.c_str());
}

TEST(WriteAheadLog, PerRecordModeSyncsEveryRecord) {
  const std::string base = FreshBase("wal_perrecord.wal");
  WriteAheadLog::Options opts;
  opts.group_commit = false;
  auto wal = WriteAheadLog::Open(base, opts);
  const auto c = BoxCoords(2, 0.6f);
  for (int i = 0; i < 8; ++i) {
    const Lsn l = wal->AppendSubscribe(i, 2, c.data());
    ASSERT_TRUE(wal->WaitDurable(l));
  }
  EXPECT_EQ(WalMetric(*wal, "accl_wal_records_appended_total").counter, 8u);
  // One sync per record, by construction.
  EXPECT_EQ(WalMetric(*wal, "accl_wal_flush_batches_total").counter, 8u);
  const obs::HistogramSnapshot per_sync =
      WalMetric(*wal, "accl_wal_records_per_sync").hist;
  EXPECT_EQ(per_sync.count, 8u);
  EXPECT_EQ(per_sync.max, 1u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, GroupCommitSharesSyncsAcrossConcurrentAppenders) {
  const std::string base = FreshBase("wal_group.wal");
  auto wal = WriteAheadLog::Open(base, {});
  const auto c = BoxCoords(2, 0.7f);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        const Lsn l = wal->AppendSubscribe(i, 2, c.data());
        ASSERT_TRUE(wal->WaitDurable(l));
      }
    });
  }
  for (auto& t : threads) t.join();
  const uint64_t appended =
      WalMetric(*wal, "accl_wal_records_appended_total").counter;
  EXPECT_EQ(appended, static_cast<uint64_t>(kThreads) * kPerThread);
  // Batching is scheduling-dependent, but can never need MORE syncs than
  // records; every record must still be durable and replayable.
  EXPECT_LE(WalMetric(*wal, "accl_wal_flush_batches_total").counter, appended);
  EXPECT_EQ(wal->durable_lsn(), appended);
  EXPECT_EQ(ReplayAll(*wal).size(), appended);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, InjectedFaultBreaksTheLogAndRefusesAcks) {
  const std::string base = FreshBase("wal_fault.wal");
  SimDisk disk = SimDisk::Paper();
  WriteAheadLog::Options opts;
  opts.disk = &disk;
  auto wal = WriteAheadLog::Open(base, opts);
  const auto c = BoxCoords(2, 0.8f);
  const Lsn ok = wal->AppendSubscribe(1, 2, c.data());
  ASSERT_TRUE(wal->WaitDurable(ok));
  disk.FailAfter(0);
  const Lsn bad = wal->AppendSubscribe(2, 2, c.data());
  EXPECT_FALSE(wal->WaitDurable(bad));  // never acknowledged
  EXPECT_TRUE(wal->broken());
  EXPECT_EQ(wal->AppendSubscribe(3, 2, c.data()), kNoLsn);  // fails fast
  // A broken log refuses truncation too: its in-memory chain can no
  // longer be trusted to match the files.
  EXPECT_EQ(wal->Truncate(1).code(), StatusCode::kFailedPrecondition);
  // The durable prefix is intact and the failed record is absent.
  disk.DisarmFaults();
  auto reopened = WriteAheadLog::Open(base, {});
  EXPECT_EQ(ReplayAll(*reopened).size(), 1u);
  wal.reset();
  reopened.reset();
  RemoveWalFiles(base);
}

TEST(WriteAheadLog, LifecycleOpsConsultAndChargeTheSimDisk) {
  const std::string base = FreshBase("wal_lifecycle.wal");
  SimDisk disk = SimDisk::Paper();
  WriteAheadLog::Options opts = SmallSegments();
  opts.disk = &disk;
  auto wal = WriteAheadLog::Open(base, opts);
  AppendSerial(wal.get(), 0, 6, 0.2f);  // segments 1:{1,2} 2:{3,4} 3:{5,6}
  EXPECT_EQ(disk.file_creates(), 2u);   // rotations to 2 and 3 (not open's 1)
  for (Lsn l = 1; l <= 4; ++l) wal->MarkApplied(l);

  // Truncation's lifecycle ops are inside the fault domain: an armed disk
  // fails the drop, the chain stays consistent, and a retry finishes.
  disk.FailAfter(0);
  EXPECT_EQ(wal->Truncate(4).code(), StatusCode::kIOError);
  disk.DisarmFaults();
  ASSERT_TRUE(wal->Truncate(4).ok());
  EXPECT_EQ(disk.file_unlinks(), 2u);  // segments 1 and 2 removed
  const uint64_t ops_before = disk.io_ops();

  // The next rotation creates segment 4 (file create + preamble write),
  // all charged I/O.
  AppendSerial(wal.get(), 10, 1, 0.3f);  // lsn 7 rotates into segment 4
  EXPECT_EQ(disk.file_creates(), 3u);
  EXPECT_GT(disk.io_ops(), ops_before);

  const std::vector<WalRecord> recs = ReplayAll(*wal);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs.front().lsn, 5u);
  wal.reset();
  RemoveWalFiles(base);
}

TEST(CheckpointStore, WriteReadRoundTripAndShadowOverwrite) {
  const std::string path = TempPath("ckpt_roundtrip.ck");
  auto store = CheckpointStore::Open(FreshFile(path));
  ASSERT_NE(store, nullptr);
  EXPECT_FALSE(store->has_checkpoint());
  EngineImage none;
  EXPECT_FALSE(store->Read(&none));

  EngineImage img;
  img.lsn = 42;
  img.next_id = 17;
  img.routing_version = 3;
  img.nd = 2;
  img.fences = {0.25f, 0.5f};
  img.ids = {1, 5, 9};
  img.coords = BoxCoords(2, 0.1f);
  auto more = BoxCoords(2, 0.2f);
  img.coords.insert(img.coords.end(), more.begin(), more.end());
  more = BoxCoords(2, 0.3f);
  img.coords.insert(img.coords.end(), more.begin(), more.end());
  ASSERT_TRUE(store->Write(img));

  EngineImage back;
  ASSERT_TRUE(store->Read(&back));
  EXPECT_EQ(back.lsn, img.lsn);
  EXPECT_EQ(back.next_id, img.next_id);
  EXPECT_EQ(back.routing_version, img.routing_version);
  EXPECT_EQ(back.fences, img.fences);
  EXPECT_EQ(back.ids, img.ids);
  EXPECT_EQ(back.coords, img.coords);

  // Shadow overwrite: the second image replaces the first...
  img.lsn = 50;
  img.ids = {1};
  img.coords = BoxCoords(2, 0.4f);
  ASSERT_TRUE(store->Write(img));
  ASSERT_TRUE(store->Read(&back));
  EXPECT_EQ(back.lsn, 50u);
  ASSERT_EQ(back.ids.size(), 1u);
  std::remove(path.c_str());
}

TEST(CheckpointStore, FailedWriteKeepsTheOldImageReadable) {
  const std::string path = TempPath("ckpt_fail.ck");
  SimDisk disk = SimDisk::Paper();
  auto store = CheckpointStore::Open(FreshFile(path), &disk);
  EngineImage img;
  img.lsn = 7;
  img.next_id = 2;
  img.nd = 2;
  img.ids = {1};
  img.coords = BoxCoords(2, 0.5f);
  ASSERT_TRUE(store->Write(img));

  // Fail the very next I/O op: the new image's blob write dies, the old
  // image must survive — on this store AND after a reopen.
  disk.FailAfter(0);
  img.lsn = 11;
  EXPECT_FALSE(store->Write(img));
  disk.DisarmFaults();
  EngineImage back;
  ASSERT_TRUE(store->Read(&back));
  EXPECT_EQ(back.lsn, 7u);

  store.reset();
  store = CheckpointStore::Open(PagedFile::Open(path));
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->Read(&back));
  EXPECT_EQ(back.lsn, 7u);
  // And the store still accepts new images afterwards.
  img.lsn = 20;
  ASSERT_TRUE(store->Write(img));
  ASSERT_TRUE(store->Read(&back));
  EXPECT_EQ(back.lsn, 20u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace durability
}  // namespace accl
