#include "durability/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "durability/wal.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/serialize.h"
#include "util/timer.h"

namespace accl::durability {

namespace {

constexpr uint32_t kCheckpointMagic = 0x41434B50u;  // "ACKP"
// Version 2 added the routing plan's fence dimension and overflow split
// after the fences; a version-1 image reads as dimension 0, no split.
constexpr uint32_t kCheckpointVersion = 2;

uint32_t ChecksumOf(const uint8_t* p, size_t n) {
  return FnvFold32(Fnv1aBytes(kFnvOffsetBasis, p, n));
}

}  // namespace

CheckpointStore::CheckpointStore(std::unique_ptr<PagedFile> file,
                                 SimDisk* disk)
    : file_(std::move(file)), disk_(disk) {
  ACCL_CHECK(file_ != nullptr);
}

std::unique_ptr<CheckpointStore> CheckpointStore::Open(
    std::unique_ptr<PagedFile> file, SimDisk* disk) {
  if (file == nullptr) return nullptr;
  auto store = std::unique_ptr<CheckpointStore>(
      new CheckpointStore(std::move(file), disk));
  uint64_t first = 0, pages = 0, bytes = 0;
  if (store->file_->GetDirectory(&first, &pages, &bytes)) {
    // Re-mark the live image's run so a later Write's fresh-run allocation
    // cannot land on top of it. A pointer that fails to mark (corrupt
    // geometry) degrades to "no checkpoint" — recovery then starts empty
    // and replays the whole WAL.
    store->have_dir_ = store->file_->MarkAllocated(first, pages);
  }
  return store;
}

bool CheckpointStore::Write(const EngineImage& image) {
  ByteWriter w;
  w.PutU32(kCheckpointMagic);
  w.PutU32(kCheckpointVersion);
  w.PutU64(image.lsn);
  w.PutU32(image.next_id);
  w.PutU64(image.routing_version);
  w.PutU32(image.nd);
  w.PutU32(static_cast<uint32_t>(image.fences.size()));
  for (const float f : image.fences) w.PutF32(f);
  w.PutU32(image.dim);
  w.PutU32(static_cast<uint32_t>(image.split_dim));
  w.PutU32(static_cast<uint32_t>(image.split_bounds.size()));
  for (const float f : image.split_bounds) w.PutF32(f);
  const uint64_t n = image.ids.size();
  ACCL_CHECK(image.coords.size() ==
             n * 2 * static_cast<size_t>(image.nd));
  w.PutU64(n);
  w.PutBytes(image.ids.data(), n * sizeof(SubscriptionId));
  w.PutBytes(image.coords.data(), image.coords.size() * sizeof(float));
  const uint32_t crc = ChecksumOf(w.bytes().data(), w.size());
  w.PutU32(crc);

  if (disk_ != nullptr && disk_->NextOpFails()) return false;
  uint64_t old_first = 0, old_pages = 0, old_bytes = 0;
  const bool had =
      have_dir_ && file_->GetDirectory(&old_first, &old_pages, &old_bytes);
  const uint64_t pages = std::max<uint64_t>(
      1, (w.size() + file_->page_bytes() - 1) / file_->page_bytes());
  const uint64_t first = file_->AllocateRun(pages);
  // Shadow-paging order: blob into the fresh run and synced to disk BEFORE
  // the directory pointer flips to it; the flip itself is re-synced so the
  // header referencing the new image is durable before the old run is
  // reusable.
  if (!file_->WriteAt(first, 0, w.bytes().data(), w.size()) ||
      !file_->Sync()) {
    file_->FreeRun(first, pages);
    return false;
  }
  if (disk_ != nullptr) {
    disk_->Seek();
    disk_->Transfer(w.size());
  }
  if (disk_ != nullptr && disk_->NextOpFails()) {
    file_->FreeRun(first, pages);
    return false;
  }
  if (!file_->SetDirectory(first, pages, w.size())) {
    // The durable header still references the old image; the fresh run is
    // unreferenced and safe to reuse.
    file_->FreeRun(first, pages);
    return false;
  }
  if (!file_->Sync()) {
    // The flip happened in memory but may or may not be durable: the
    // on-disk header can reference EITHER run. Free neither — both hold
    // fully-written images, so whichever header survives a crash points at
    // intact data. The stale run's pages leak until the file is recreated;
    // a bounded price on a failure path, never a torn checkpoint.
    have_dir_ = true;
    return false;
  }
  if (disk_ != nullptr) disk_->Seek();  // header flip
  if (had) file_->FreeRun(old_first, old_pages);
  have_dir_ = true;
  ++writes_;
  return true;
}

bool CheckpointStore::Read(EngineImage* out) {
  if (!have_dir_) return false;
  uint64_t first = 0, pages = 0, bytes = 0;
  if (!file_->GetDirectory(&first, &pages, &bytes)) return false;
  if (bytes < 4) return false;
  if (disk_ != nullptr && disk_->NextOpFails()) return false;
  std::vector<uint8_t> blob(bytes);
  if (!file_->ReadAt(first, 0, blob.data(), bytes)) return false;
  if (disk_ != nullptr) disk_->SequentialRead(bytes);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, blob.data() + bytes - 4, 4);
  if (ChecksumOf(blob.data(), bytes - 4) != stored_crc) return false;
  ByteReader r(blob.data(), bytes - 4);
  uint32_t magic = 0, version = 0, n_fences = 0;
  if (!r.GetU32(&magic) || magic != kCheckpointMagic) return false;
  if (!r.GetU32(&version) || version < 1 || version > kCheckpointVersion) {
    return false;
  }
  if (!r.GetU64(&out->lsn)) return false;
  if (!r.GetU32(&out->next_id)) return false;
  if (!r.GetU64(&out->routing_version)) return false;
  if (!r.GetU32(&out->nd) || out->nd == 0) return false;
  if (!r.GetU32(&n_fences) || n_fences > r.remaining() / 4) return false;
  out->fences.resize(n_fences);
  for (uint32_t i = 0; i < n_fences; ++i) {
    if (!r.GetF32(&out->fences[i])) return false;
  }
  out->dim = 0;
  out->split_dim = -1;
  out->split_bounds.clear();
  if (version >= 2) {
    uint32_t split_dim = 0, n_split = 0;
    if (!r.GetU32(&out->dim) || out->dim >= out->nd) return false;
    if (!r.GetU32(&split_dim)) return false;
    out->split_dim = static_cast<int32_t>(split_dim);
    if (out->split_dim < -1 ||
        out->split_dim >= static_cast<int32_t>(out->nd)) {
      return false;
    }
    if (!r.GetU32(&n_split) || n_split > r.remaining() / 4) return false;
    out->split_bounds.resize(n_split);
    for (uint32_t i = 0; i < n_split; ++i) {
      if (!r.GetF32(&out->split_bounds[i])) return false;
    }
  }
  uint64_t n = 0;
  if (!r.GetU64(&n)) return false;
  const size_t stride = 2 * static_cast<size_t>(out->nd);
  if (r.remaining() != n * (sizeof(SubscriptionId) + stride * 4)) {
    return false;
  }
  out->ids.resize(n);
  out->coords.resize(n * stride);
  if (n != 0) {
    if (!r.GetBytes(out->ids.data(), n * sizeof(SubscriptionId))) {
      return false;
    }
    if (!r.GetBytes(out->coords.data(), out->coords.size() * 4)) {
      return false;
    }
  }
  return r.exhausted();
}

// ------------------------------------------------------------ Checkpointer

Checkpointer::Checkpointer(SubscriptionEngine* engine, WriteAheadLog* wal,
                           CheckpointStore* store,
                           const DurabilityOptions& options)
    : engine_(engine),
      wal_(wal),
      store_(store),
      every_mutations_(options.checkpoint_every_mutations) {
  ACCL_CHECK(engine_ != nullptr && wal_ != nullptr && store_ != nullptr);
  if (options.background_checkpoints) {
    pool_ = std::make_unique<exec::ThreadPool>(1);
  }
}

Checkpointer::~Checkpointer() {
  // Drains any queued background checkpoint while engine/wal/store are
  // still alive.
  pool_.reset();
  // The engine's registry outlives this checkpointer (DurableEngine's
  // Teardown destroys the checkpointer first): withdraw our metrics so a
  // later DumpMetrics cannot read freed objects.
  if (attached_reg_ != nullptr) {
    attached_reg_->Detach("accl_ckpt_writes_total");
    attached_reg_->Detach("accl_ckpt_failures_total");
    attached_reg_->Detach("accl_ckpt_duration_us");
    attached_reg_->Detach("accl_ckpt_last_subscriptions");
    attached_reg_->Detach("accl_ckpt_last_lsn");
    attached_reg_->Detach("accl_ckpt_last_write_us");
  }
}

bool Checkpointer::CheckpointNow() {
  std::lock_guard<std::mutex> run(run_mu_);
  ACCL_TRACE_SPAN("ckpt_run");
  WallTimer t;
  EngineImage image;
  {
    ACCL_TRACE_SPAN("ckpt_capture");
    engine_->CaptureDurableImage(&image);
  }
  bool ok;
  {
    ACCL_TRACE_SPAN_ARG("ckpt_write",
                        static_cast<uint32_t>(image.ids.size()));
    ok = store_->Write(image);
  }
  if (ok) {
    // The image is durable; truncation is an optimization, but a refused or
    // failed one still counts as a checkpoint failure so callers notice the
    // log is not shrinking (the Status detail says why).
    const Status trunc = wal_->Truncate(image.lsn);
    ok = trunc.ok();
  }
  const int64_t elapsed_us =
      static_cast<int64_t>(std::llround(t.ElapsedMs() * 1000.0));
  duration_us_.Record(static_cast<uint64_t>(std::max<int64_t>(0, elapsed_us)));
  if (ok) {
    writes_.Add(1);
    last_subscriptions_.Set(static_cast<int64_t>(image.ids.size()));
    last_lsn_.Set(static_cast<int64_t>(image.lsn));
    last_write_us_.Set(elapsed_us);
  } else {
    failures_.Add(1);
  }
  return ok;
}

void Checkpointer::OnMutations(uint64_t n) {
  if (every_mutations_ == 0) return;
  if (mutations_since_.fetch_add(n, std::memory_order_relaxed) + n <
      every_mutations_) {
    return;
  }
  if (inflight_.exchange(true, std::memory_order_acquire)) return;
  mutations_since_.store(0, std::memory_order_relaxed);
  const auto job = [this] {
    CheckpointNow();
    inflight_.store(false, std::memory_order_release);
  };
  if (pool_ != nullptr) {
    pool_->Submit(job);
  } else {
    job();
  }
}

void WireDurableEngine(const DurabilityOptions& options, DurableEngine* out) {
  out->engine->AttachDurability(out->wal.get());
  out->checkpointer = std::make_unique<Checkpointer>(
      out->engine.get(), out->wal.get(), out->checkpoints.get(), options);
  out->engine->SetCheckpointer(out->checkpointer.get());
}

void DurableEngine::Teardown() {
  checkpointer.reset();  // joins its worker, detaches from engine->metrics()
  engine.reset();
  checkpoints.reset();
  wal.reset();
}

DurableEngine& DurableEngine::operator=(DurableEngine&& other) noexcept {
  if (this != &other) {
    Teardown();
    wal = std::move(other.wal);
    checkpoints = std::move(other.checkpoints);
    engine = std::move(other.engine);
    checkpointer = std::move(other.checkpointer);
    recovery = other.recovery;
  }
  return *this;
}

void Checkpointer::AttachMetrics(obs::MetricsRegistry* reg) {
  attached_reg_ = reg;
  reg->Attach("accl_ckpt_writes_total", &writes_,
              "checkpoints written successfully");
  reg->Attach("accl_ckpt_failures_total", &failures_,
              "checkpoint runs that failed (write or truncate)");
  reg->Attach("accl_ckpt_duration_us", &duration_us_,
              "checkpoint capture+write+truncate duration (us)");
  reg->Attach("accl_ckpt_last_subscriptions", &last_subscriptions_,
              "subscriptions in the last durable image");
  reg->Attach("accl_ckpt_last_lsn", &last_lsn_,
              "WAL LSN the last durable image covers");
  reg->Attach("accl_ckpt_last_write_us", &last_write_us_,
              "duration of the last successful checkpoint (us)");
}

}  // namespace accl::durability
