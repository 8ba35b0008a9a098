// Log shipping implementation: mirror the source segment chain
// byte-verbatim, re-base from its checkpoint when the cursor falls behind
// the log, apply behind the replication cursor, promote on failover. See
// shipping.h for the model.
#include "durability/shipping.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "durability/wal.h"
#include "obs/trace.h"
#include "storage/paged_store.h"
#include "util/timer.h"

namespace accl::durability {
namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace

LogShipper::LogShipper(AttributeSchema schema, EngineOptions engine_options,
                       Options options)
    : schema_(std::move(schema)),
      engine_options_(std::move(engine_options)),
      options_(std::move(options)) {}

LogShipper::~LogShipper() { DetachMetrics(); }

std::unique_ptr<LogShipper> LogShipper::Create(AttributeSchema schema,
                                               EngineOptions engine_options,
                                               Options options,
                                               Status* status) {
  // A fresh shipper is a fresh follower: whatever replica artifacts a
  // previous incarnation left are superseded, and keeping them would let a
  // stale mirror chain disagree with the empty engine below.
  RemoveWalFiles(options.replica_wal_base);
  std::remove(options.replica_checkpoint_path.c_str());

  auto shipper = std::unique_ptr<LogShipper>(new LogShipper(
      std::move(schema), std::move(engine_options), std::move(options)));

  std::unique_ptr<PagedFile> ckpt_file =
      OpenOrCreatePagedFile(shipper->options_.replica_checkpoint_path);
  if (ckpt_file == nullptr) {
    if (status != nullptr) {
      *status = Status::IOError("cannot create the replica checkpoint file: " +
                                shipper->options_.replica_checkpoint_path);
    }
    return nullptr;
  }
  shipper->replica_ckpts_ =
      CheckpointStore::Open(std::move(ckpt_file), shipper->options_.disk);

  shipper->engine_ = SubscriptionEngine::Create(
      shipper->schema_, shipper->engine_options_, status);
  if (shipper->engine_ == nullptr) return nullptr;
  shipper->engine_->SetRole(SubscriptionEngine::EngineRole::kFollower);
  // Replication lag/cursor/throughput metrics surface through the
  // follower's own DumpMetrics alongside its pipeline families.
  shipper->AttachMetrics(&shipper->engine_->metrics());
  if (status != nullptr) *status = Status::Ok();
  return shipper;
}

Status LogShipper::SyncCheckpoint(bool need_rebase) {
  EngineImage image;
  bool have_image = false;
  if (FileExists(options_.source_checkpoint_path)) {
    // Re-open per pass: the primary writes through its own handle, so a
    // cached snapshot would never see a new directory flip. Source reads
    // are never charged to the disk — only replica-side writes are ours.
    std::unique_ptr<PagedFile> src_file =
        PagedFile::Open(options_.source_checkpoint_path);
    if (src_file != nullptr) {
      std::unique_ptr<CheckpointStore> src =
          CheckpointStore::Open(std::move(src_file), nullptr);
      have_image = src->Read(&image);
    }
  }

  if (have_image && image.lsn > replica_ckpt_lsn_) {
    // Image-level copy: re-validated on read, re-written shadow-paged into
    // the replica store (which consults the shared disk), never byte-cloned.
    if (!replica_ckpts_->Write(image)) {
      return Status::IOError("replica checkpoint write failed");
    }
    replica_ckpt_lsn_ = image.lsn;
  }
  if (have_image && static_cast<int64_t>(image.lsn) >
                        source_durable_lsn_gauge_.Value()) {
    source_durable_lsn_gauge_.Set(static_cast<int64_t>(image.lsn));
  }
  if (!need_rebase) return Status::Ok();

  if (replica_ckpt_lsn_ <= cursor_lsn_) {
    // The source truncated records past the cursor AND its checkpoint does
    // not cover them — the WAL's truncate precondition makes this
    // impossible for an intact source, so surface it rather than ship a
    // log with a hole.
    return Status::FailedPrecondition(
        "source log has a gap behind the replication cursor and no "
        "checkpoint covers it");
  }
  // Re-base: rebuild the follower from the (already replica-durable)
  // image. Dedup in ApplyReplicated would not help here — the image also
  // reflects unsubscribes the cursor never saw — so the engine is rebuilt,
  // not patched.
  Status st;
  std::unique_ptr<SubscriptionEngine> rebuilt = SubscriptionEngine::Recover(
      schema_, engine_options_, replica_ckpts_.get(), /*wal=*/nullptr, &st,
      &apply_stats_);
  if (rebuilt == nullptr) return st;
  rebuilt->SetRole(SubscriptionEngine::EngineRole::kFollower);
  // The replica registry dies with the engine it belongs to: withdraw the
  // shipper's metrics before the swap and re-home them on the rebuilt
  // engine, or attached_reg_ would dangle into the destroyed registry.
  DetachMetrics();
  engine_ = std::move(rebuilt);
  AttachMetrics(&engine_->metrics());
  cursor_lsn_ = replica_ckpt_lsn_;
  mirror_max_lsn_ = 0;  // pre-gap mirror content no longer constrains copies
  checkpoint_catchups_.Add(1);
  return Status::Ok();
}

Status LogShipper::ShipSegment(const SegmentFileInfo& info, bool* stop) {
  *stop = false;
  std::unique_ptr<WalSegment> src = WalSegment::Open(info.path);
  if (src == nullptr || src->seq() != info.seq) {
    // Torn creation (no valid preamble, or one that disagrees with the name):
    // the source's own reopen garbage-collects this file; nothing past it
    // is valid log.
    *stop = true;
    return Status::Ok();
  }

  auto it = mirror_.find(info.seq);
  uint64_t off =
      it != mirror_.end() ? it->second.tail : kSegmentPreambleBytes;

  // Validate + decode the new frames first; the verbatim copy below only
  // happens for frames that decoded clean and kept LSN continuity.
  std::vector<WalRecord> recs;
  std::vector<uint8_t> buf;
  uint64_t end = off;
  // Continuity is tracked locally and committed to mirror_max_lsn_ only
  // once the batch is mirror-durable: a pass that decoded frames but then
  // failed the mirror write must leave no trace, or the retry would see
  // its own aborted progress as a continuity break.
  Lsn copied_max = mirror_max_lsn_;
  for (;;) {
    WalRecord rec;
    uint64_t next = 0;
    bool io_error = false;
    if (!src->DecodeFrameAt(end, &rec, &next, &io_error)) {
      if (io_error) {
        return Status::IOError("source segment read failed: " + info.path);
      }
      break;  // clean tail (or a seal — the next segment decides)
    }
    if (copied_max != 0 && rec.lsn != copied_max + 1) {
      // A decodable frame that breaks LSN continuity is not a seal; it is
      // stale or foreign. Ship nothing from here on.
      *stop = true;
      return Status::Ok();
    }
    const size_t frame_bytes = static_cast<size_t>(next - end);
    buf.resize(buf.size() + frame_bytes);
    if (!src->Read(end, buf.data() + buf.size() - frame_bytes, frame_bytes)) {
      return Status::IOError("source segment read failed: " + info.path);
    }
    copied_max = rec.lsn;
    recs.push_back(std::move(rec));
    end = next;
  }
  if (recs.empty()) return Status::Ok();

  if (it == mirror_.end()) {
    std::unique_ptr<WalSegment> seg = WalSegment::Create(
        SegmentPath(options_.replica_wal_base, info.seq), info.seq,
        src->base_lsn(), options_.disk);
    if (seg == nullptr) {
      return Status::IOError("cannot create mirror segment for " + info.path);
    }
    Mirror m;
    m.seg = std::move(seg);
    it = mirror_.emplace(info.seq, std::move(m)).first;
    segments_mirrored_.Add(1);
  }
  Mirror& m = it->second;

  // One consult per shipped batch, mirroring the WAL flusher's policy.
  if (options_.disk != nullptr) {
    if (options_.disk->NextOpFails()) {
      return Status::IOError("injected fault on mirror segment write");
    }
    options_.disk->Seek();
    options_.disk->Transfer(buf.size());
  }
  if (!m.seg->Write(m.tail, buf.data(), buf.size()) || !m.seg->Sync()) {
    return Status::IOError("mirror segment write failed: " + m.seg->path());
  }
  m.tail = end;
  m.last_lsn = recs.back().lsn;
  mirror_max_lsn_ = copied_max;
  bytes_shipped_.Add(static_cast<uint64_t>(buf.size()));

  // Apply behind the cursor only after the bytes are mirror-durable, so a
  // promoted node's files always cover its in-memory state.
  for (const WalRecord& rec : recs) {
    if (rec.lsn <= cursor_lsn_) continue;
    engine_->ApplyReplicated(rec, &apply_stats_);
    cursor_lsn_ = rec.lsn;
    records_applied_.Add(1);
  }
  return Status::Ok();
}

Status LogShipper::GcMirror(uint64_t oldest_live_seq) {
  for (auto it = mirror_.begin(); it != mirror_.end();) {
    const Mirror& m = it->second;
    const bool covered =
        m.last_lsn == kNoLsn || m.last_lsn <= replica_ckpt_lsn_;
    if (it->first >= oldest_live_seq || !covered) {
      ++it;
      continue;
    }
    if (options_.disk != nullptr) {
      if (options_.disk->NextOpFails()) {
        return Status::IOError("injected fault on mirror segment unlink");
      }
      options_.disk->NoteUnlink();
    }
    const std::string path = m.seg->path();
    it = mirror_.erase(it);  // close the handle before unlinking
    std::remove(path.c_str());
    mirror_unlinked_.Add(1);
  }
  return Status::Ok();
}

Status LogShipper::ShipOnce() {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("shipper was already promoted");
  }
  ACCL_TRACE_SPAN("ship_once");
  WallTimer pass_timer;
  const std::vector<SegmentFileInfo> live =
      ListSegmentFiles(options_.source_wal_base);

  // Gap check: records the follower still owes start at cursor+1; the
  // oldest live segment's base LSN is the oldest record the log can still
  // serve. Anything older must come from the checkpoint.
  bool need_rebase = false;
  if (!live.empty()) {
    std::unique_ptr<WalSegment> oldest = WalSegment::Open(live.front().path);
    if (oldest != nullptr && oldest->seq() == live.front().seq) {
      need_rebase = cursor_lsn_ + 1 < oldest->base_lsn();
    }
  }
  Status st = SyncCheckpoint(need_rebase);
  if (st.ok()) {
    for (const SegmentFileInfo& info : live) {
      bool stop = false;
      st = ShipSegment(info, &stop);
      if (!st.ok() || stop) break;
    }
  }
  if (st.ok() && !live.empty()) {
    st = GcMirror(live.front().seq);
  }
  ship_pass_us_.Record(static_cast<uint64_t>(
      std::max(0.0, std::round(pass_timer.ElapsedMs() * 1000.0))));
  if (!st.ok()) {
    ship_errors_.Add(1);
    return st;
  }
  ship_passes_.Add(1);
  cursor_lsn_gauge_.Set(static_cast<int64_t>(cursor_lsn_));
  if (static_cast<int64_t>(mirror_max_lsn_) >
      source_durable_lsn_gauge_.Value()) {
    source_durable_lsn_gauge_.Set(static_cast<int64_t>(mirror_max_lsn_));
  }
  const int64_t source_lsn = source_durable_lsn_gauge_.Value();
  lag_records_gauge_.Set(source_lsn > static_cast<int64_t>(cursor_lsn_)
                             ? source_lsn - static_cast<int64_t>(cursor_lsn_)
                             : 0);
  return Status::Ok();
}

Status LogShipper::Promote(const DurabilityOptions& durability_options,
                           DurableEngine* out) {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("shipper was already promoted");
  }
  // Final catch-up against the (dead) source's files: after a crash the
  // surviving valid prefix is exactly the acknowledged prefix, so this
  // pass is what makes promotion lose nothing that was ever acked.
  Status st = ShipOnce();
  if (!st.ok()) return st;

  // Close the mirror handles, then reopen the chain as a real WAL — its
  // open-time walk re-validates every frame we shipped.
  mirror_.clear();
  std::unique_ptr<WriteAheadLog> wal = WriteAheadLog::Open(
      options_.replica_wal_base,
      WriteAheadLog::Options::For(durability_options, options_.disk));
  if (wal == nullptr) {
    return Status::IOError("cannot open the mirror chain as a WAL: " +
                           options_.replica_wal_base);
  }
  // After a checkpoint catch-up the cursor can sit past every mirrored
  // frame; new LSNs must still sort after it.
  wal->ReserveLsnsThrough(cursor_lsn_);

  *out = DurableEngine();
  out->wal = std::move(wal);
  out->checkpoints = std::move(replica_ckpts_);
  out->engine = std::move(engine_);
  out->engine->SetRole(SubscriptionEngine::EngineRole::kPrimary);
  WireDurableEngine(durability_options, out);
  out->recovery = apply_stats_;
  promoted_gauge_.Set(1);
  cursor_lsn_gauge_.Set(static_cast<int64_t>(cursor_lsn_));
  // The promoted engine (and its registry) outlives this shipper, and the
  // shipper-owned counters stop meaning anything for a primary: withdraw
  // them now rather than leaving dangling registrants behind.
  DetachMetrics();
  return Status::Ok();
}

void LogShipper::DetachMetrics() {
  if (attached_reg_ == nullptr) return;
  for (const char* name :
       {"accl_repl_ship_passes_total", "accl_repl_records_applied_total",
        "accl_repl_bytes_shipped_total", "accl_repl_segments_mirrored_total",
        "accl_repl_mirror_segments_unlinked_total",
        "accl_repl_checkpoint_catchups_total", "accl_repl_ship_errors_total",
        "accl_repl_ship_pass_us", "accl_repl_cursor_lsn",
        "accl_repl_source_durable_lsn", "accl_repl_lag_records",
        "accl_repl_promoted"}) {
    attached_reg_->Detach(name);
  }
  attached_reg_ = nullptr;
}

void LogShipper::AttachMetrics(obs::MetricsRegistry* reg) {
  attached_reg_ = reg;
  reg->Attach("accl_repl_ship_passes_total", &ship_passes_,
              "successful replication passes");
  reg->Attach("accl_repl_records_applied_total", &records_applied_,
              "records applied to the follower");
  reg->Attach("accl_repl_bytes_shipped_total", &bytes_shipped_,
              "bytes copied into the mirror chain");
  reg->Attach("accl_repl_segments_mirrored_total", &segments_mirrored_,
              "mirror segments created");
  reg->Attach("accl_repl_mirror_segments_unlinked_total", &mirror_unlinked_,
              "mirror segments garbage-collected");
  reg->Attach("accl_repl_checkpoint_catchups_total", &checkpoint_catchups_,
              "follower re-bases from the source checkpoint");
  reg->Attach("accl_repl_ship_errors_total", &ship_errors_,
              "replication passes that failed");
  reg->Attach("accl_repl_ship_pass_us", &ship_pass_us_,
              "duration of each replication pass (us)");
  reg->Attach("accl_repl_cursor_lsn", &cursor_lsn_gauge_,
              "highest LSN applied to the follower");
  reg->Attach("accl_repl_source_durable_lsn", &source_durable_lsn_gauge_,
              "highest source LSN observed");
  reg->Attach("accl_repl_lag_records", &lag_records_gauge_,
              "records the follower is behind the source");
  reg->Attach("accl_repl_promoted", &promoted_gauge_,
              "1 after a successful promotion");
}

}  // namespace accl::durability
