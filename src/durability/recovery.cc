// Crash recovery: SubscriptionEngine::Recover (checkpoint load + idempotent
// WAL-tail replay) and durability::OpenDurable (the fully wired durable
// engine: files -> WAL -> checkpoint store -> recovered engine -> hooks).
//
// Replay idempotence, which is what makes the fuzzy checkpoint sound:
//   - Records with lsn <= checkpoint LSN are gone (truncated) or skipped —
//     the image is guaranteed to contain their effect (the LSN is the WAL's
//     applied low-water, read before the image scan).
//   - A subscribe whose id is already live is skipped (dedup by id): the
//     fuzzy scan may have captured the effect of a record *past* the
//     checkpoint LSN. Ids are never reused, so id-presence is an exact
//     "already applied" test.
//   - An unsubscribe of an unknown id is a no-op — either its subscribe was
//     also past the image scan (both replay, in LSN order), or the capture
//     already saw the removal.
//   - A subscribe record with a box SubscribeBatch would refuse (NaN or
//     ±inf bound, lo > hi) is skipped whole. This engine never logs one,
//     so such a record carries a valid checksum only if another writer
//     framed it.
//
// The same rules make ApplyReplicated safe as the follower's apply path
// (durability/shipping.h): a ship pass that re-reads frames it already
// applied, or that follows a checkpoint catch-up, changes nothing.
#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "sdi/subscription_engine.h"
#include "util/check.h"
#include "util/timer.h"

namespace accl {

void SubscriptionEngine::ApplyReplicated(const durability::WalRecord& rec,
                                         RecoveryStats* rs) {
  switch (rec.type) {
    case durability::WalRecordType::kSubscribe:
    case durability::WalRecordType::kSubscribeBatch: {
      if (rec.nd != schema_.dims()) {
        ++rs->wal_records_skipped;  // foreign record; never ours
        return;
      }
      std::vector<SubscriptionId> ids;
      std::vector<float> coords;
      const size_t stride = 2 * static_cast<size_t>(rec.nd);
      bool well_formed = true;
      for (uint32_t i = 0; i < rec.count && well_formed; ++i) {
        well_formed =
            WellFormed(BoxView(rec.coords.data() + i * stride, rec.nd));
      }
      bool skipped_any = !well_formed;
      for (uint32_t i = 0; well_formed && i < rec.count; ++i) {
        const SubscriptionId id = rec.first_id + i;
        if (ShardOf(id) != shards_.size()) {
          skipped_any = true;  // fuzzy image / earlier pass already holds it
          continue;
        }
        ids.push_back(id);
        coords.insert(coords.end(), rec.coords.data() + i * stride,
                      rec.coords.data() + (i + 1) * stride);
      }
      if (!ids.empty()) {
        ApplySubscribe(Span<const SubscriptionId>(ids.data(), ids.size()),
                       coords.data());
        ++rs->wal_records_applied;
      }
      if (skipped_any || ids.empty()) ++rs->wal_records_skipped;
      // Ids past the image's allocator mark must stay allocated even when
      // every subscription in the record was deduplicated or refused.
      std::lock_guard<std::mutex> lk(meta_mu_);
      if (rec.first_id + rec.count > next_id_) {
        next_id_ = rec.first_id + rec.count;
      }
      break;
    }
    case durability::WalRecordType::kUnsubscribe:
      if (ApplyUnsubscribe(rec.first_id)) {
        ++rs->wal_records_applied;
      } else {
        ++rs->wal_records_skipped;  // capture already saw the removal
      }
      break;
  }
}

std::unique_ptr<SubscriptionEngine> SubscriptionEngine::Recover(
    AttributeSchema schema, EngineOptions options,
    durability::CheckpointStore* checkpoints, durability::WriteAheadLog* wal,
    Status* status, RecoveryStats* recovery) {
  RecoveryStats local_stats;
  RecoveryStats& rs = recovery != nullptr ? *recovery : local_stats;
  rs = RecoveryStats();

  durability::EngineImage image;
  const bool have_image =
      checkpoints != nullptr && checkpoints->Read(&image);
  if (have_image) {
    if (image.nd != schema.dims()) {
      if (status != nullptr) {
        *status = Status::InvalidArgument(
            "checkpoint dimensionality does not match the schema");
      }
      return nullptr;
    }
    rs.checkpoint_loaded = true;
    rs.checkpoint_subscriptions = image.ids.size();
    rs.checkpoint_lsn = image.lsn;
    // Restore the checkpointed fence array when it fits the configured
    // shard count; otherwise keep the configured boundaries — the restore
    // below re-routes every subscription under whatever table the engine
    // starts with, so shard-count changes across a restart are legal.
    if (options.sharding == ShardingPolicy::kRange && options.shards >= 2 &&
        image.fences.size() == static_cast<size_t>(options.shards) - 2) {
      options.range_boundaries = image.fences;
    }
  }

  std::unique_ptr<SubscriptionEngine> engine =
      Create(std::move(schema), std::move(options), status);
  if (engine == nullptr) return nullptr;

  // The fence dimension and the overflow split are not options: publish
  // them on the still-empty engine, so the restore below homes every
  // subscription by the captured plan. A split that does not fit the
  // configured split capacity is dropped, as a fence array that does not
  // fit the shard count is above. A version-1 image carries dimension 0
  // and no split, which is the configured plan: nothing is published.
  if (have_image && engine->range_routed_) {
    std::lock_guard<std::mutex> lk(engine->rebalance_mu_);
    RoutingPlan plan = engine->SnapshotUnderRebalanceLock()->plan;
    plan.dim = image.dim;
    if (image.split_dim >= 0 && engine->SplitFits(image.split_bounds)) {
      plan.split_dim = image.split_dim;
      plan.split_bounds = image.split_bounds;
    }
    if (plan.dim != 0 || plan.split_dim >= 0) {
      engine->PublishSnapshot(std::move(plan), std::nullopt);
    }
  }

  WallTimer timer;
  if (have_image) {
    engine->ApplySubscribe(
        Span<const SubscriptionId>(image.ids.data(), image.ids.size()),
        image.coords.data());
    std::lock_guard<std::mutex> lk(engine->meta_mu_);
    if (image.next_id > engine->next_id_) engine->next_id_ = image.next_id;
  }

  if (wal != nullptr) {
    // LSNs allocated after recovery must sort after everything the
    // checkpoint covers, even when the log was fully truncated (empty
    // scan): the log cannot know the checkpoint's LSN, so tell it.
    wal->ReserveLsnsThrough(image.lsn);
    SubscriptionEngine* e = engine.get();
    const bool replay_ok =
        wal->Replay(image.lsn, [&](const durability::WalRecord& rec) {
          e->ApplyReplicated(rec, &rs);
        });
    if (!replay_ok) {
      // A read I/O failure mid-scan: the prefix replayed so far may be
      // missing acknowledged records. Refusing is the only honest answer.
      if (status != nullptr) {
        *status = Status::InvalidArgument(
            "WAL replay hit a read I/O error; recovery is incomplete");
      }
      return nullptr;
    }
  }
  rs.replay_ms = timer.ElapsedMs();
  if (status != nullptr) *status = Status::Ok();
  return engine;
}

namespace durability {

std::unique_ptr<PagedFile> OpenOrCreatePagedFile(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return PagedFile::Create(path, kCheckpointPageBytes);
  }
  return PagedFile::Open(path);
}

bool OpenDurable(AttributeSchema schema, EngineOptions engine_options,
                 const DurabilityOptions& durability_options,
                 const std::string& wal_path,
                 const std::string& checkpoint_path, SimDisk* disk,
                 DurableEngine* out, Status* status) {
  *out = DurableEngine();
  out->wal = WriteAheadLog::Open(
      wal_path, WriteAheadLog::Options::For(durability_options, disk));
  if (out->wal == nullptr) {
    if (status != nullptr) {
      *status = Status::IOError(
          "cannot open the WAL segment chain at " + wal_path +
          " (file error, or a read failed on backed bytes)");
    }
    return false;
  }

  std::unique_ptr<PagedFile> ckpt_file =
      OpenOrCreatePagedFile(checkpoint_path);
  if (ckpt_file == nullptr) {
    if (status != nullptr) {
      *status = Status::InvalidArgument(
          "cannot open or create checkpoint file: " + checkpoint_path);
    }
    return false;
  }
  out->checkpoints = CheckpointStore::Open(std::move(ckpt_file), disk);

  out->engine = SubscriptionEngine::Recover(
      std::move(schema), std::move(engine_options), out->checkpoints.get(),
      out->wal.get(), status, &out->recovery);
  if (out->engine == nullptr) return false;
  WireDurableEngine(durability_options, out);
  return true;
}

}  // namespace durability
}  // namespace accl
