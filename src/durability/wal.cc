#include "durability/wal.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/serialize.h"

namespace accl::durability {

namespace {
uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

WriteAheadLog::WriteAheadLog(std::string base_path, Options options)
    : base_path_(std::move(base_path)), options_(options) {}

std::unique_ptr<WriteAheadLog> WriteAheadLog::Open(
    const std::string& base_path, Options options) {
  auto log = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(base_path, options));

  // The live chain is the maximal contiguous-seq suffix of files whose
  // preambles validate and agree with their names. Everything else is the
  // leftover of some interrupted lifecycle op — a torn create, a stray
  // below a truncation gap — and holds nothing durable: collect it.
  std::vector<SegmentFileInfo> infos = ListSegmentFiles(base_path);
  std::vector<std::unique_ptr<WalSegment>> opened(infos.size());
  while (!infos.empty()) {
    opened.back() = WalSegment::Open(infos.back().path);
    if (opened.back() != nullptr &&
        opened.back()->seq() == infos.back().seq) {
      break;
    }
    std::remove(infos.back().path.c_str());
    infos.pop_back();
    opened.pop_back();
  }
  size_t first_live = infos.empty() ? 0 : infos.size() - 1;
  while (first_live > 0 &&
         infos[first_live - 1].seq + 1 == infos[first_live].seq) {
    opened[first_live - 1] = WalSegment::Open(infos[first_live - 1].path);
    if (opened[first_live - 1] == nullptr ||
        opened[first_live - 1]->seq() != infos[first_live - 1].seq) {
      break;
    }
    --first_live;
  }
  for (size_t i = 0; i < first_live; ++i) {
    std::remove(infos[i].path.c_str());
  }
  for (size_t i = first_live; i < infos.size(); ++i) {
    LiveSeg ls;
    ls.seg = std::move(opened[i]);
    log->segments_.push_back(std::move(ls));
  }

  if (log->segments_.empty()) {
    // Fresh log. Open-time I/O is recovery I/O: no fault consult, no
    // simulated charge (matching the checkpoint store's open behavior).
    std::unique_ptr<WalSegment> seg =
        WalSegment::Create(SegmentPath(base_path, 1), /*seq=*/1,
                           /*base_lsn=*/1, /*disk=*/nullptr);
    if (seg == nullptr) return nullptr;
    LiveSeg ls;
    ls.seg = std::move(seg);
    log->segments_.push_back(std::move(ls));
  }

  // Find the durable tail: the end of the valid frame prefix across the
  // chain. No flusher is running yet, so the walk needs no locks.
  Lsn max_lsn = kNoLsn;
  size_t end_idx = 0;
  uint64_t end_off = kSegmentPreambleBytes;
  bool io_error = false;
  log->ValidPrefixWalk(
      0,
      [&](const WalRecord& rec, size_t idx) {
        LiveSeg& ls = log->segments_[idx];
        if (ls.first_lsn == kNoLsn) ls.first_lsn = rec.lsn;
        ls.last_lsn = rec.lsn;
        max_lsn = rec.lsn;
      },
      &end_idx, &end_off, &io_error);
  // A read failure on backed bytes means the tail position is unknowable;
  // appending there could overwrite durable records. Refuse to open.
  if (io_error) return nullptr;
  // Segments past the walk's end hold nothing reachable (frames are
  // written strictly sequentially, so a valid chain cannot resume after a
  // stop) — drop them so the append tail is the chain's last segment.
  while (log->segments_.size() > end_idx + 1) {
    std::remove(log->segments_.back().seg->path().c_str());
    log->segments_.pop_back();
  }
  log->segments_.back().tail = end_off;

  log->next_seq_ = log->segments_.back().seg->seq() + 1;
  log->durable_lsn_ = max_lsn;
  log->applied_upto_ = max_lsn;  // recovery replays (applies) the prefix
                                 // before the log is used again
  log->next_lsn_ = max_lsn + 1;
  log->UpdateSegmentGauges();
  log->flusher_ = std::thread([l = log.get()] { l->FlusherLoop(); });
  return log;
}

WriteAheadLog::~WriteAheadLog() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  flush_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
}

Lsn WriteAheadLog::Append(WalRecordType type, ObjectId first_id,
                          uint32_t count, Dim nd, const float* coords) {
  // Encode and hash the payload OUTSIDE the log mutex: a large batch
  // record must not serialize concurrent mutators. Only LSN assignment and
  // the queue push run under the lock; the flusher folds the LSN and the
  // target segment's generation into the checksum in O(1) at placement
  // (the generation is unknowable here — rotation picks the segment).
  ByteWriter payload;
  payload.PutU8(static_cast<uint8_t>(type));
  payload.PutU32(first_id);
  if (type != WalRecordType::kUnsubscribe) {
    payload.PutU32(count);
    payload.PutU32(nd);
    payload.PutBytes(coords, static_cast<size_t>(count) * 2 * nd * 4);
  }
  Pending p;
  p.enqueue_ns = NowNs();
  p.payload_hash =
      Fnv1aBytes(kFnvOffsetBasis, payload.bytes().data(), payload.size());
  p.payload.assign(payload.bytes().begin(), payload.bytes().end());

  std::unique_lock<std::mutex> lk(mu_);
  if (broken_) return kNoLsn;
  const Lsn lsn = next_lsn_++;
  p.lsn = lsn;
  pending_bytes_ += kFrameHeaderBytes + p.payload.size();
  pending_.push(std::move(p));
  lk.unlock();
  records_appended_.Add();
  flush_cv_.notify_one();
  return lsn;
}

Lsn WriteAheadLog::AppendSubscribe(ObjectId id, Dim nd, const float* coords) {
  return Append(WalRecordType::kSubscribe, id, 1, nd, coords);
}

Lsn WriteAheadLog::AppendSubscribeBatch(ObjectId first_id, uint32_t count,
                                        Dim nd, const float* coords) {
  ACCL_CHECK(count > 0);
  return Append(WalRecordType::kSubscribeBatch, first_id, count, nd, coords);
}

Lsn WriteAheadLog::AppendUnsubscribe(ObjectId id) {
  return Append(WalRecordType::kUnsubscribe, id, 1, 0, nullptr);
}

void WriteAheadLog::FlusherLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    flush_cv_.wait(
        lk, [&] { return stop_ || (!pending_.empty() && !broken_); });
    if (broken_ || pending_.empty()) {
      if (stop_) return;
      continue;
    }
    // Group commit drains the whole queue into one append+sync; per-record
    // mode takes exactly one frame, so every record pays its own sync.
    std::vector<Pending> items;
    size_t take = options_.group_commit ? pending_.size() : 1;
    items.reserve(take);
    uint64_t batch_bytes = 0;
    while (take-- > 0) {
      Pending& p = pending_.front();
      batch_bytes += kFrameHeaderBytes + p.payload.size();
      pending_bytes_ -= kFrameHeaderBytes + p.payload.size();
      items.push_back(std::move(p));
      pending_.pop();
    }
    const Lsn last = items.back().lsn;
    lk.unlock();
    const bool ok = WriteBatch(items);
    if (ok) {
      // Enqueue -> durable: the latency each covered record's WaitDurable
      // ack is bounded below by. Recorded off the queue lock.
      const uint64_t now = NowNs();
      for (const Pending& p : items) {
        commit_latency_us_.Record((now - p.enqueue_ns) / 1000);
      }
      records_per_sync_.Record(items.size());
      flush_batches_.Add();
      bytes_appended_.Add(batch_bytes);
      durable_lsn_gauge_.Set(static_cast<int64_t>(last));
    }
    lk.lock();
    if (ok) {
      durable_lsn_ = last;
    } else {
      // The failed batch was never acknowledged; everything still queued
      // can never become durable either. Break the log and wake every
      // waiter so no caller acknowledges a lost mutation.
      broken_ = true;
      while (!pending_.empty()) pending_.pop();
      pending_bytes_ = 0;
    }
    durable_cv_.notify_all();
  }
}

bool WriteAheadLog::WriteBatch(const std::vector<Pending>& items) {
  ACCL_TRACE_SPAN_ARG("wal_write_batch",
                      static_cast<uint32_t>(items.size()));
  std::lock_guard<std::mutex> lk(io_mu_);
  LiveSeg* tail = &segments_.back();
  if (tail->tail - kSegmentPreambleBytes >= options_.segment_bytes) {
    // The new segment's preamble records the first LSN it will hold.
    if (!RotateLocked(items.front().lsn)) return false;
    tail = &segments_.back();
  }
  // Frame the batch under this segment's generation stamp: O(1) checksum
  // finish per record from the pre-hashed payload.
  const uint64_t gen = tail->seg->seq();
  uint64_t total = 0;
  for (const Pending& p : items) {
    total += kFrameHeaderBytes + p.payload.size();
  }
  std::vector<uint8_t> bytes;
  bytes.reserve(total);
  for (const Pending& p : items) {
    uint8_t hdr[kFrameHeaderBytes];
    const uint32_t len = static_cast<uint32_t>(p.payload.size());
    const uint32_t crc = FrameChecksumFromHash(p.payload_hash, p.lsn, gen);
    std::memcpy(hdr, &len, 4);
    std::memcpy(hdr + 4, &crc, 4);
    std::memcpy(hdr + 8, &p.lsn, 8);
    std::memcpy(hdr + 16, &gen, 8);
    bytes.insert(bytes.end(), hdr, hdr + kFrameHeaderBytes);
    bytes.insert(bytes.end(), p.payload.begin(), p.payload.end());
  }
  if (options_.disk != nullptr && options_.disk->NextOpFails()) return false;
  if (!tail->seg->Write(tail->tail, bytes.data(), bytes.size())) return false;
  if (!tail->seg->Sync()) return false;
  if (options_.disk != nullptr) {
    options_.disk->Seek();  // the sync's head positioning
    options_.disk->Transfer(bytes.size());
  }
  // The flusher-recorded watermarks: (lsn, segment, offset). Truncate
  // drops whole segments by comparing last_lsn, Replay skips them the
  // same way — neither ever re-scans frames.
  if (tail->first_lsn == kNoLsn) tail->first_lsn = items.front().lsn;
  tail->last_lsn = items.back().lsn;
  tail->tail += bytes.size();
  return true;
}

bool WriteAheadLog::RotateLocked(Lsn base_lsn) {
  const uint64_t seq = next_seq_++;
  std::unique_ptr<WalSegment> seg = WalSegment::Create(
      SegmentPath(base_path_, seq), seq, base_lsn, options_.disk);
  if (seg == nullptr) return false;
  LiveSeg ls;
  ls.seg = std::move(seg);
  segments_.push_back(std::move(ls));
  segments_rotated_.Add();
  UpdateSegmentGauges();
  return true;
}

bool WriteAheadLog::WaitDurable(Lsn lsn) {
  if (lsn == kNoLsn) return false;  // a failed Append never becomes durable
  std::unique_lock<std::mutex> lk(mu_);
  durable_cv_.wait(lk, [&] { return durable_lsn_ >= lsn || broken_; });
  return durable_lsn_ >= lsn;
}

void WriteAheadLog::MarkApplied(Lsn lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  if (lsn <= applied_upto_) return;
  if (lsn == applied_upto_ + 1) {
    applied_upto_ = lsn;
    while (!applied_ooo_.empty() && applied_ooo_.top() == applied_upto_ + 1) {
      applied_upto_ = applied_ooo_.top();
      applied_ooo_.pop();
    }
  } else {
    applied_ooo_.push(lsn);
  }
}

Lsn WriteAheadLog::applied_low_water() const {
  std::lock_guard<std::mutex> lk(mu_);
  return applied_upto_;
}

Lsn WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return durable_lsn_;
}

Lsn WriteAheadLog::max_lsn() const {
  std::lock_guard<std::mutex> lk(mu_);
  return next_lsn_ - 1;
}

void WriteAheadLog::ReserveLsnsThrough(Lsn lsn) {
  std::lock_guard<std::mutex> lk(mu_);
  if (lsn >= next_lsn_) next_lsn_ = lsn + 1;
  if (lsn > durable_lsn_) durable_lsn_ = lsn;
  if (lsn > applied_upto_) {
    applied_upto_ = lsn;
    while (!applied_ooo_.empty() && applied_ooo_.top() <= applied_upto_ + 1) {
      if (applied_ooo_.top() == applied_upto_ + 1) {
        applied_upto_ = applied_ooo_.top();
      }
      applied_ooo_.pop();
    }
  }
}

bool WriteAheadLog::broken() const {
  std::lock_guard<std::mutex> lk(mu_);
  return broken_;
}

bool WriteAheadLog::ValidPrefixWalk(
    size_t start_index,
    const std::function<void(const WalRecord&, size_t)>& visit,
    size_t* end_index, uint64_t* end_off, bool* io_error) {
  ACCL_CHECK(start_index < segments_.size());
  *io_error = false;
  size_t idx = start_index;
  uint64_t off = kSegmentPreambleBytes;
  Lsn prev = kNoLsn;
  WalRecord rec;
  uint64_t next = 0;
  for (;;) {
    WalSegment& seg = *segments_[idx].seg;
    bool io = false;
    if (seg.DecodeFrameAt(off, &rec, &next, &io) &&
        (prev == kNoLsn || rec.lsn == prev + 1)) {
      visit(rec, idx);
      prev = rec.lsn;
      off = next;
      continue;
    }
    if (io) {
      *io_error = true;
      break;
    }
    // This segment yields no further frame: a torn/absent tail, a sealed
    // segment's end, or foreign bytes. The boundary decides which:
    // a next segment whose first frame continues the LSN chain means this
    // was a rotation seal; a final empty segment is a just-rotated tail
    // the walk ends *inside* (appends resume at its start). Anything else
    // ends the walk here.
    if (idx + 1 >= segments_.size()) break;
    bool peek_io = false;
    const bool peeked = segments_[idx + 1].seg->DecodeFrameAt(
        kSegmentPreambleBytes, &rec, &next, &peek_io);
    if (peek_io) {
      *io_error = true;
      break;
    }
    if (peeked && (prev == kNoLsn || rec.lsn == prev + 1)) {
      ++idx;
      off = kSegmentPreambleBytes;
      continue;  // the main loop re-decodes and consumes the peeked frame
    }
    if (!peeked && idx + 2 == segments_.size()) {
      // Crash between the rotation's seal and the next segment's first
      // write: the tail is the empty final segment.
      ++idx;
      off = kSegmentPreambleBytes;
    }
    break;
  }
  *end_index = idx;
  *end_off = off;
  return !*io_error;
}

bool WriteAheadLog::Replay(Lsn after,
                           const std::function<void(const WalRecord&)>& fn) {
  std::lock_guard<std::mutex> io(io_mu_);
  // Watermark skip: whole segments at or below the cursor are not even
  // decoded. (The walk re-anchors LSN continuity at the first segment it
  // actually reads.)
  size_t start = 0;
  while (start + 1 < segments_.size() &&
         segments_[start].last_lsn != kNoLsn &&
         segments_[start].last_lsn <= after) {
    ++start;
  }
  size_t end_idx = 0;
  uint64_t end_off = 0;
  bool io_error = false;
  ValidPrefixWalk(
      start,
      [&](const WalRecord& rec, size_t) {
        if (rec.lsn > after) fn(rec);
      },
      &end_idx, &end_off, &io_error);
  // A torn tail is a clean end of log; a failed read of backed bytes is
  // not — the caller must not treat the scanned prefix as complete.
  return !io_error;
}

Status WriteAheadLog::Truncate(Lsn up_to) {
  ACCL_TRACE_SPAN("wal_truncate");
  if (up_to == kNoLsn) return Status::Ok();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (up_to > applied_upto_) {
      // Truncating past an unapplied record would lose the only copy of a
      // mutation whose effect no checkpoint can contain yet.
      return Status::FailedPrecondition(
          "WAL truncate to LSN " + std::to_string(up_to) +
          " exceeds the applied low-water " + std::to_string(applied_upto_) +
          "; a record above the low-water is durable but not yet applied");
    }
    // After an I/O failure the in-memory chain may not match the files;
    // dropping segments then risks cutting into records that are still
    // the only copy. A broken log is read-only.
    if (broken_) {
      return Status::FailedPrecondition(
          "WAL is broken by an earlier I/O failure; truncation refused "
          "(the log is read-only until reopened)");
    }
  }
  std::unique_lock<std::mutex> io(io_mu_);
  // O(1) per segment: compare the flusher's last_lsn watermark, unlink the
  // file, pop it. The tail segment always stays (the chain is never empty
  // and the append position never moves).
  while (segments_.size() > 1) {
    LiveSeg& front = segments_.front();
    if (front.last_lsn == kNoLsn || front.last_lsn > up_to) break;
    const std::string path = front.seg->path();
    if (options_.disk != nullptr && options_.disk->NextOpFails()) {
      return Status::IOError(
          "injected failure dropping truncated WAL segment " + path);
    }
    if (std::remove(path.c_str()) != 0) {
      return Status::IOError("cannot unlink truncated WAL segment " + path);
    }
    if (options_.disk != nullptr) options_.disk->NoteUnlink();
    segments_unlinked_.Add();
    segments_.pop_front();
  }
  UpdateSegmentGauges();
  io.unlock();
  truncations_.Add();
  return Status::Ok();
}

void WriteAheadLog::UpdateSegmentGauges() {
  live_segments_.Set(static_cast<int64_t>(segments_.size()));
  tail_seq_.Set(static_cast<int64_t>(
      segments_.empty() ? 0 : segments_.back().seg->seq()));
}

void WriteAheadLog::AttachMetrics(obs::MetricsRegistry* reg) {
  reg->Attach("accl_wal_records_appended_total", &records_appended_,
              "records enqueued to the log");
  reg->Attach("accl_wal_flush_batches_total", &flush_batches_,
              "flusher write+sync batches (one fsync each)");
  reg->Attach("accl_wal_bytes_appended_total", &bytes_appended_,
              "framed bytes written to segments");
  reg->Attach("accl_wal_truncations_total", &truncations_,
              "successful Truncate calls");
  reg->Attach("accl_wal_commit_latency_us", &commit_latency_us_,
              "enqueue -> durable latency per record (microseconds)");
  reg->Attach("accl_wal_records_per_sync", &records_per_sync_,
              "records covered per fsync (group-commit batch size)");
  reg->Attach("accl_wal_live_segments", &live_segments_,
              "segments in the live chain");
  reg->Attach("accl_wal_tail_segment_seq", &tail_seq_,
              "sequence number of the append-tail segment");
  reg->Attach("accl_wal_durable_lsn", &durable_lsn_gauge_,
              "highest LSN known durable");
  reg->Attach("accl_wal_segments_rotated_total", &segments_rotated_,
              "tail rotations");
  reg->Attach("accl_wal_segments_unlinked_total", &segments_unlinked_,
              "truncated segments unlinked");
}

}  // namespace accl::durability
