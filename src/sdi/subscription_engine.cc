#include "sdi/subscription_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>

#include <cmath>

#if defined(__GLIBC__)
#include <malloc.h>
#endif
#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "adapt/pattern_tracker.h"
#include "adapt/routing_advisor.h"
#include "adapt/selectivity.h"
#include "durability/checkpoint.h"
#include "durability/wal.h"
#include "exec/shard_queues.h"
#include "kernels/backend_registry.h"
#include "obs/alloc_hook.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/timer.h"

namespace accl {

namespace {

/// Slice of coordinate `x` under the interior fences: the index of the
/// first fence strictly greater than `x`. A coordinate exactly on a fence
/// therefore belongs to the slice on the fence's right, which is also what
/// makes routing exact for touching intervals: an event ending exactly on
/// a fence still routes to the right slice, whose subscriptions may start
/// exactly there.
uint32_t SliceOf(const std::vector<float>& bounds, float x) {
  return static_cast<uint32_t>(
      std::upper_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}


/// A shard's queue runs in chunks of this many queries, one shard-lock
/// hold each: small enough that concurrent callers and the migrator
/// interleave with a long queue instead of waiting out a whole batch,
/// large enough that the lock/unlock stays amortized.
constexpr size_t kMatchChunkSize = 16;

/// Movers one migration slice inserts or erases under a single shard-lock
/// hold: long enough for BulkInsert's batched placement pass, short enough
/// that a match waiting for the shard is delayed by well under a typical
/// batch.
constexpr size_t kMigrationSlice = 128;

/// Moves the migrator runs between two returns of free heap pages to the
/// OS (see MigratorLoop). On perfbench match_stream (30k subscriptions,
/// ~12k movers a move, 4-vCPU Xeon) trimming after every move cost ~1 ms
/// of call p99 and never trimming left ~2 MiB more resident; trimming
/// every 8th move avoided both.
[[maybe_unused]] constexpr uint32_t kMovesPerTrim = 8;

/// A migration slice's shard-lock hold. The shard's `migrating` flag is
/// raised before the lock is requested and lowered after it is released,
/// so a batch's first execute pass also leaves alone a shard the migrator
/// is waiting for.
class MigrationSliceLock {
 public:
  MigrationSliceLock(std::mutex& mu, std::atomic<bool>& migrating)
      : mu_(mu), migrating_(migrating) {
    migrating_.store(true, std::memory_order_relaxed);
    mu_.lock();
  }
  ~MigrationSliceLock() {
    mu_.unlock();
    migrating_.store(false, std::memory_order_relaxed);
  }
  MigrationSliceLock(const MigrationSliceLock&) = delete;
  MigrationSliceLock& operator=(const MigrationSliceLock&) = delete;

 private:
  std::mutex& mu_;
  std::atomic<bool>& migrating_;
};

/// shard_of_ flag: the id also has a copy at its in-flight move's
/// destination (which the source's moving_plan names).
constexpr uint32_t kDoubleResident = 0x80000000u;

/// Match's sink: appends the one event's sorted matches to the caller's
/// vector, keeping whatever it already held.
class AppendSink final : public MatchSink {
 public:
  explicit AppendSink(std::vector<ObjectId>* out) : out_(out) {}
  void OnEventMatches(size_t, Span<const ObjectId> matches,
                      uint64_t) override {
    out_->insert(out_->end(), matches.begin(), matches.end());
  }

 private:
  std::vector<ObjectId>* out_;
};

}  // namespace

// Reusable per-batch state of the two-phase matching pipeline. Pooled by
// the engine (AcquireScratch/ReleaseScratch) so capacity survives across
// batches — at steady state a batch of stable shape allocates nothing
// beyond the pool's fan-out submissions.
struct SubscriptionEngine::PipelineScratch {
  exec::ShardQueues queues;

  /// One shard's execute-phase output, indexed by queue position. Written
  /// by the one thread that runs the shard's queue; read by finalizers
  /// after the execute fan-out has joined.
  struct ShardOut {
    std::vector<ObjectId> ids;       ///< concatenated per-position matches
    std::vector<uint32_t> offsets;   ///< queue length + 1 entries
    std::vector<uint64_t> verified;  ///< per position
    size_t done = 0;                 ///< queue positions executed so far
    /// Query owns a heap-backed Box, so constructing one per execution
    /// was one allocation per (event, shard) visit. Copy-assigning the
    /// event box into this warm same-dimension Box reuses its storage.
    Query query;
  };
  std::vector<ShardOut> shard_out;  ///< indexed by shard

  /// Finalize gather buffers, one per event range (disjoint).
  std::vector<std::vector<ObjectId>> gather;

  /// Metrics landing zone for the sink overloads (no caller-provided
  /// result object); pooled with the rest of the scratch.
  MatchBatchResult sink_result;

  /// Off-lock fold buffer for the adaptive tracker's event sampling
  /// (pooled here so steady-state batches allocate nothing).
  adapt::PatternAccumulator pattern;

  /// Per-shard events the newest plan routes, when a transitional
  /// snapshot's union route visits more (ShardInfo::routed_events).
  std::vector<uint64_t> target_routed;
};

// A routing change past its scan (BeginMoveLocked): everything steps
// (2)-(5) of the move routine need, owned by whichever thread finishes it.
struct SubscriptionEngine::Move {
  /// Per source shard: the movers inserted at their destinations so far,
  /// in insertion order (the erase phase walks them).
  struct Source {
    uint32_t src;
    std::vector<std::pair<ObjectId, uint32_t>> moved;  // (id, dst)
  };
  /// Per destination shard: the movers' ids, their source (index into
  /// `sources`) and coordinates, in scan order.
  struct Incoming {
    std::vector<ObjectId> ids;
    std::vector<uint32_t> from;
    std::vector<float> coords;
  };
  RoutingPlan plan;  ///< the plan being installed
  std::vector<Source> sources;
  std::vector<Incoming> incoming;  ///< indexed by destination shard
  WallTimer timer;                 ///< the move's wall time, from its scan
};

// Registry-owned handles for the engine's own metrics. Everything here is
// created on (and owned by) the engine's MetricsRegistry, so the handles
// are plain pointers with the registry's lifetime; components the engine
// merely wires in (WAL, checkpointer, epoch manager, log shipper) own
// their metrics themselves and Attach() them instead.
struct SubscriptionEngine::EngineObs {
  explicit EngineObs(obs::MetricsRegistry* r)
      : batches(r->GetCounter("accl_pipeline_batches_total",
                              "pipeline runs (MatchBatch or Match calls)")),
        events(r->GetCounter("accl_pipeline_events_total",
                             "events matched through the batch pipeline")),
        events_routed(r->GetCounter(
            "accl_pipeline_events_routed_total",
            "per-shard event dispatches (one event may visit many shards)")),
        matches(r->GetCounter("accl_pipeline_matches_total",
                              "post-dedup subscription notifications")),
        objects_verified(r->GetCounter(
            "accl_pipeline_objects_verified_total",
            "subscriptions verified against events (all shard visits)")),
        batch_us(r->GetHistogram(
            "accl_pipeline_batch_us",
            "MatchBatch or Match end-to-end duration (us)")),
        boundary_moves(r->GetCounter("accl_rebalance_boundary_moves_total",
                                     "fence moves applied")),
        subs_migrated(r->GetCounter(
            "accl_rebalance_subscriptions_migrated_total",
            "subscriptions moved by the double-residency protocol")),
        migration_us(r->GetHistogram(
            "accl_rebalance_migration_us",
            "scan+insert+grace+cleanup duration per routing change (us)")),
        transition_events(r->GetCounter(
            "accl_pipeline_transition_events_total",
            "events routed under a transitional (union) snapshot")),
        transition_extra_visits(r->GetCounter(
            "accl_pipeline_transition_extra_visits_total",
            "shard visits the union route added over the newest plan's")),
        dimension_switches(r->GetCounter(
            "accl_adapt_dimension_switches_total",
            "online fence-dimension switches (advisor or manual)")),
        windows_evaluated(r->GetCounter("accl_adapt_windows_evaluated_total",
                                        "advisor windows evaluated")),
        subscriptions(r->GetGauge("accl_engine_subscriptions",
                                  "live subscriptions")),
        heap_allocs(r->GetGauge(
            "accl_process_heap_allocs",
            "lifetime heap allocations (0 unless the binary installed "
            "ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK)")),
        heap_alloc_hook(r->GetGauge(
            "accl_process_heap_alloc_hook",
            "1 when the global allocation hook is installed")) {}

  obs::Counter* batches;
  obs::Counter* events;
  obs::Counter* events_routed;
  obs::Counter* matches;
  obs::Counter* objects_verified;
  obs::Histogram* batch_us;
  obs::Counter* boundary_moves;
  obs::Counter* subs_migrated;
  obs::Histogram* migration_us;
  obs::Counter* transition_events;
  obs::Counter* transition_extra_visits;
  obs::Counter* dimension_switches;
  obs::Counter* windows_evaluated;
  obs::Gauge* subscriptions;
  obs::Gauge* heap_allocs;
  obs::Gauge* heap_alloc_hook;
};

Event Event::Point(std::vector<float> normalized_point) {
  Event e;
  e.is_point = true;
  e.box = Box::Point(normalized_point);
  return e;
}

Event Event::Range(Box normalized_box) {
  Event e;
  e.is_point = false;
  e.box = std::move(normalized_box);
  return e;
}

Status SubscriptionEngine::ValidateOptions(const AttributeSchema& schema,
                                           const EngineOptions& o) {
  if (schema.dims() == 0) {
    return Status::InvalidArgument(
        "schema must define at least one attribute");
  }
  if (o.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (o.index.division_factor < 2) {
    return Status::InvalidArgument(
        "index.division_factor must be >= 2 (the clustering function "
        "cannot divide a domain into fewer than two parts)");
  }
  if (!o.index.verify_backend.empty()) {
    // Checked against the registry directly (not Resolve) so the
    // ACCL_FORCE_BACKEND pin cannot mask a config that would abort on a
    // host without the pin.
    const auto& reg = kernels::BackendRegistry::Instance();
    if (reg.Find(o.index.verify_backend) == nullptr) {
      return Status::InvalidArgument(
          "index.verify_backend \"" + o.index.verify_backend +
          "\" is not a registered verify backend on this host (have: " +
          reg.BackendNames() + ")");
    }
  }
  if (o.sharding == ShardingPolicy::kRange) {
    if (o.shards < 2) {
      return Status::InvalidArgument(
          "ShardingPolicy::kRange needs shards >= 2 (K-1 slice shards plus "
          "the overflow shard)");
    }
    const size_t interior = static_cast<size_t>(o.shards) - 2;
    if (!o.range_boundaries.empty()) {
      if (o.range_boundaries.size() != interior) {
        return Status::InvalidArgument(
            "range_boundaries must have exactly shards-2 interior fences "
            "(or be empty for a uniform split)");
      }
      if (!FencesFit(o.range_boundaries, interior)) {
        return Status::InvalidArgument(
            "range_boundaries must be finite and strictly ascending");
      }
    }
  }
  const AdaptiveRoutingOptions& a = o.adaptive;
  if (a.enabled && o.sharding != ShardingPolicy::kRange) {
    return Status::InvalidArgument(
        "adaptive routing (adaptive.enabled) requires ShardingPolicy::kRange "
        "— other policies have no fence dimension to adapt");
  }
  if (a.enabled && a.sample_window < 1) {
    return Status::InvalidArgument(
        "adaptive.sample_window must be >= 1 (a zero window would "
        "evaluate routing on every event)");
  }
  // match_threads == 0 is documented as "caller thread does everything".
  return Status::Ok();
}

bool SubscriptionEngine::FencesFit(const std::vector<float>& fences,
                                   size_t count) {
  if (fences.size() != count) return false;
  for (size_t i = 0; i < fences.size(); ++i) {
    if (!std::isfinite(fences[i])) return false;
    if (i > 0 && !(fences[i - 1] < fences[i])) return false;
  }
  return true;
}

std::unique_ptr<SubscriptionEngine> SubscriptionEngine::Create(
    AttributeSchema schema, EngineOptions options, Status* status) {
  const Status st = ValidateOptions(schema, options);
  if (status != nullptr) *status = st;
  if (!st.ok()) return nullptr;
  return std::unique_ptr<SubscriptionEngine>(
      new SubscriptionEngine(std::move(schema), std::move(options)));
}

SubscriptionEngine::SubscriptionEngine(AttributeSchema schema,
                                       EngineOptions options)
    : schema_(std::move(schema)),
      options_(std::move(options)),
      // Slot sizing is a contention hint: the pool's fan-out runs under the
      // caller's single pin, so concurrent pins ~= concurrent callers.
      epoch_(static_cast<size_t>(options_.match_threads) + 8) {
  const Status st = ValidateOptions(schema_, options_);
  if (!st.ok()) {
    std::fprintf(stderr, "SubscriptionEngine: invalid configuration: %s\n",
                 st.message().c_str());
    std::abort();
  }
  metrics_ = std::make_unique<obs::MetricsRegistry>();
  obs_ = std::make_unique<EngineObs>(metrics_.get());
  epoch_.AttachMetrics(metrics_.get());
  options_.index.nd = schema_.dims();
  // The engine runs shards side by side (MatchBatch's pool, concurrent
  // callers); a shard's query verifies on its caller's thread alone.
  options_.index.verify_threads = 1;
  RoutingPlan plan;
  if (options_.sharding == ShardingPolicy::kRange) {
    range_routed_ = true;
    num_range_shards_ = options_.shards - 1;
    plan.dim = 0;
    if (!options_.range_boundaries.empty()) {
      plan.bounds = options_.range_boundaries;
    } else {
      for (uint32_t i = 1; i < num_range_shards_; ++i) {
        plan.bounds.push_back(
            kDomainMin + (kDomainMax - kDomainMin) * static_cast<float>(i) /
                             static_cast<float>(num_range_shards_));
      }
    }
    tracker_ = std::make_unique<adapt::QueryPatternTracker>(schema_.dims());
    auto_moves_ = options_.rebalance_period > 0 || options_.adaptive.enabled;
  }
  shards_.reserve(options_.shards);
  for (uint32_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_.index));
  }
  // The pool's fan-outs include the calling thread, so N-way matching
  // needs N-1 workers; 0 or 1 requested threads means no pool at all.
  if (options_.match_threads > 1) {
    pool_ = std::make_unique<exec::ThreadPool>(options_.match_threads - 1);
  }
  auto* snap = new RoutingSnapshot();
  snap->plan = std::move(plan);
  snap->version = 1;
  snap->shards.reserve(shards_.size());
  for (const auto& sh : shards_) snap->shards.push_back(sh.get());
  snapshot_.store(snap, std::memory_order_seq_cst);
  // Only auto-triggered moves run on the migrator; explicit calls run
  // theirs on their own thread, so engines without auto moves need none.
  if (auto_moves_) migrator_ = std::thread([this] { MigratorLoop(); });
}

SubscriptionEngine::~SubscriptionEngine() {
  if (migrator_.joinable()) {
    HoldMovesForTesting(false);
    {
      std::unique_lock<std::mutex> lk(rebalance_mu_);
      WaitForMoveLocked(lk);
      migrator_stop_ = true;
    }
    migrate_cv_.notify_one();
    migrator_.join();
  }
  pool_.reset();         // join workers before tearing down routing state
  epoch_.Synchronize();  // reclaim retired snapshots (no readers remain)
  delete snapshot_.load(std::memory_order_acquire);
}

void SubscriptionEngine::PublishSnapshot(RoutingPlan plan,
                                         std::optional<RoutingPlan> from) {
  const RoutingSnapshot* old = SnapshotUnderRebalanceLock();
  auto* next = new RoutingSnapshot();
  next->plan = std::move(plan);
  next->from = std::move(from);
  next->version = old->version + 1;
  next->shards = old->shards;
  // seq_cst swap: a reader whose pin the next grace-period scan does not
  // observe is ordered after this store and must load `next` (see the
  // epoch manager's memory-ordering contract).
  snapshot_.store(next, std::memory_order_seq_cst);
  epoch_.Retire([old] { delete old; });
}

uint32_t SubscriptionEngine::RangeShardFor(const RoutingPlan& plan,
                                           BoxView box) const {
  const Dim fd = static_cast<Dim>(plan.dim);
  const uint32_t a = SliceOf(plan.bounds, box.lo(fd));
  const uint32_t b = SliceOf(plan.bounds, box.hi(fd));
  return a == b ? a : static_cast<uint32_t>(shards_.size() - 1);
}

void SubscriptionEngine::RouteEvent(const RoutingPlan& plan, const Box& box,
                                    std::vector<uint32_t>* out) const {
  // The slice span of the event's fence-dimension interval, then the
  // overflow shard, whose id is the highest: the route list stays
  // ascending, which the pipeline's deterministic per-shard execution order
  // relies on.
  const Dim fd = static_cast<Dim>(plan.dim);
  const uint32_t a = SliceOf(plan.bounds, box.lo(fd));
  const uint32_t b = SliceOf(plan.bounds, box.hi(fd));
  for (uint32_t s = a; s <= b; ++s) out->push_back(s);
  out->push_back(static_cast<uint32_t>(shards_.size() - 1));
}

uint32_t SubscriptionEngine::ShardFor(SubscriptionId id, BoxView box,
                                      const RoutingPlan& plan) const {
  const uint32_t k = static_cast<uint32_t>(shards_.size());
  if (k == 1) return 0;
  if (range_routed_) return RangeShardFor(plan, box);
  uint64_t state = id;
  return static_cast<uint32_t>(SplitMix64(&state) % k);
}

SubscriptionId SubscriptionEngine::Subscribe(
    const std::vector<AttributeRange>& ranges) {
  Box box;
  if (!schema_.MakeBox(ranges, &box)) return kInvalidObject;
  return SubscribeBox(box);
}

bool SubscriptionEngine::WellFormed(BoxView b) {
  for (Dim d = 0; d < b.dims(); ++d) {
    const float lo = b.lo(d);
    const float hi = b.hi(d);
    if (!std::isfinite(lo) || !std::isfinite(hi) || !(lo <= hi)) return false;
  }
  return true;
}

SubscriptionId SubscriptionEngine::SubscribeBox(const Box& box) {
  std::vector<SubscriptionId> id;
  SubscribeBatch(Span<const Box>(&box, 1), &id);
  return id.empty() ? kInvalidObject : id[0];
}

void SubscriptionEngine::SubscribeBatch(Span<const Box> boxes,
                                        std::vector<SubscriptionId>* out) {
  const size_t n = boxes.size();
  out->clear();
  if (n == 0) return;
  // A follower's ids come only from the replicated log; refusing before
  // the allocation keeps the local allocator exactly at the log's heels.
  if (role() == EngineRole::kFollower) return;
  for (const Box& b : boxes) {
    ACCL_CHECK(b.dims() == schema_.dims());
    if (!WellFormed(b.view())) return;  // refused whole, before any id
  }
  SubscriptionId first;
  {
    // One id-allocation critical section for the whole batch.
    std::lock_guard<std::mutex> lk(meta_mu_);
    first = next_id_;
    next_id_ += static_cast<SubscriptionId>(n);
  }
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());
  std::vector<float> flat(n * stride);
  std::vector<SubscriptionId> ids(n);
  for (size_t i = 0; i < n; ++i) {
    std::copy(boxes[i].data(), boxes[i].data() + stride,
              flat.data() + i * stride);
    ids[i] = first + static_cast<SubscriptionId>(i);
  }
  const Span<const SubscriptionId> id_span(ids.data(), n);
  if (wal_ != nullptr) {
    // Durable path: the record must be on disk before the batch is applied
    // or acknowledged — one record (and typically one shared sync) for the
    // whole batch. On log failure `out` stays empty: none of the batch is
    // acknowledged and none is applied (the allocated ids are simply never
    // used; ids are not reused anyway).
    const Lsn lsn = wal_->AppendSubscribeBatch(
        first, static_cast<uint32_t>(n), schema_.dims(), flat.data());
    if (!wal_->WaitDurable(lsn)) return;
    ApplySubscribe(id_span, flat.data());
    wal_->MarkApplied(lsn);
  } else {
    ApplySubscribe(id_span, flat.data());
  }
  *out = std::move(ids);
  NotifyCheckpointer(n);
}

void SubscriptionEngine::ApplySubscribe(Span<const SubscriptionId> ids,
                                        const float* coords) {
  const size_t n = ids.size();
  if (n == 0) return;
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());
  const auto box_at = [&](size_t i) {
    return BoxView(coords + i * stride, schema_.dims());
  };
  // kRange holds the rebalance lock from target choice through owner-map
  // publish: a routing change (its scan and publishes run under
  // rebalance_mu_) is then serialized either entirely before this batch
  // (so we route with the new table) or after it (so its migration scan
  // sees our inserts). Matching needs no lock we hold, so it proceeds
  // throughout.
  static const RoutingPlan kNoPlan;
  std::unique_lock<std::mutex> rebalance_lk;
  const RoutingPlan* plan = &kNoPlan;
  if (range_routed_) {
    rebalance_lk = std::unique_lock<std::mutex>(rebalance_mu_);
    plan = &SnapshotUnderRebalanceLock()->plan;
  }

  // Group per target shard; each queue keeps input order, so every shard
  // receives exactly the subsequence an Insert loop would have given it
  // (and BulkInsert places a group as that loop would).
  exec::ShardQueues queues;
  queues.Build(n, shards_.size(), [&](size_t i, std::vector<uint32_t>* t) {
    t->push_back(ShardFor(ids[i], box_at(i), *plan));
  });
  std::vector<ObjectId> group_ids;
  std::vector<float> group_coords;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t nq = queues.size(s);
    if (nq == 0) continue;
    const uint32_t* items = queues.items(s);
    group_ids.clear();
    group_coords.clear();
    for (size_t j = 0; j < nq; ++j) {
      group_ids.push_back(ids[items[j]]);
      group_coords.insert(group_coords.end(), coords + items[j] * stride,
                          coords + (items[j] + 1) * stride);
    }
    {
      // One shard-lock acquisition per target shard.
      std::lock_guard<std::mutex> lk(shards_[s]->mu);
      shards_[s]->index->BulkInsert(
          Span<const ObjectId>(group_ids.data(), nq),
          Span<const float>(group_coords.data(), nq * stride));
    }
    shards_[s]->subs.fetch_add(nq, std::memory_order_relaxed);
  }
  // Residents are counted before the owner map makes any id
  // Unsubscribe-able, so the histogram never subtracts an add it has not
  // seen.
  if (tracker_ != nullptr) tracker_->AddResidents(coords, n);
  // One owner-map publish for the whole batch. The count bumps inside the
  // same critical section — once a map entry exists the id is
  // Unsubscribe-able, and its decrement must never precede our increment.
  std::lock_guard<std::mutex> lk(meta_mu_);
  SubscriptionId max_id = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const size_t nq = queues.size(s);
    const uint32_t* items = queues.items(s);
    for (size_t j = 0; j < nq; ++j) {
      shard_of_.Insert(ids[items[j]], static_cast<uint32_t>(s));
      max_id = std::max(max_id, ids[items[j]]);
    }
  }
  subscription_count_.fetch_add(n, std::memory_order_relaxed);
  if (max_id + 1 > next_id_) next_id_ = max_id + 1;
}

bool SubscriptionEngine::Unsubscribe(SubscriptionId id) {
  if (role() == EngineRole::kFollower) return false;  // read-only
  if (wal_ == nullptr) return ApplyUnsubscribe(id);
  {
    // Don't log mutations that are no-ops from this caller's view. The
    // check races concurrent unsubscribes of the same id, but a logged
    // no-op record replays as a no-op — harmless either way.
    std::lock_guard<std::mutex> lk(meta_mu_);
    if (shard_of_.Find(id) == nullptr) return false;
  }
  const Lsn lsn = wal_->AppendUnsubscribe(id);
  if (!wal_->WaitDurable(lsn)) return false;
  const bool ok = ApplyUnsubscribe(id);
  wal_->MarkApplied(lsn);
  NotifyCheckpointer(1);
  return ok;
}

bool SubscriptionEngine::ApplyUnsubscribe(SubscriptionId id) {
  // The owner's shard lock is taken before the map entry is removed, in
  // the shard-then-meta order the migration slices use, so the removal,
  // the read of the shard's moving_plan and the erase of the owner's copy
  // form one step against a move's scan (which marks the shard), its
  // double-residency flagging and its cleanup (which flips the owner). A
  // flip between the peek and the lock sends us round again with the new
  // owner.
  for (;;) {
    uint32_t s;
    {
      std::lock_guard<std::mutex> lk(meta_mu_);
      const uint32_t* owner = shard_of_.Find(id);
      if (owner == nullptr) return false;
      s = *owner & ~kDoubleResident;
    }
    std::unique_lock<std::mutex> shard_lk(shards_[s]->mu);
    bool double_resident;
    {
      std::lock_guard<std::mutex> lk(meta_mu_);
      const uint32_t* owner = shard_of_.Find(id);
      if (owner == nullptr) return false;
      if ((*owner & ~kDoubleResident) != s) continue;
      double_resident = (*owner & kDoubleResident) != 0;
      shard_of_.Erase(id);
    }
    // The map entry is gone, so no migration phase will touch this id
    // again — the copies below are exclusively ours to erase. While `s`
    // is a scan source of the in-flight move, its moving_plan names the
    // id's destination, where `subs` counts a mover from the scan on (for
    // every other resident of `s` the plan names `s` itself) and where a
    // double-resident id has its second copy. The box also leaves the
    // resident histogram here, once, whichever copies exist.
    uint32_t dst = s;
    if (range_routed_) {
      const BoxView b = shards_[s]->index->ObjectBox(id);
      ACCL_CHECK(!b.empty());
      if (shards_[s]->moving_plan != nullptr) {
        dst = RangeShardFor(*shards_[s]->moving_plan, b);
      }
      tracker_->RemoveResident(b);
    }
    const bool erased = shards_[s]->index->Erase(id);
    ACCL_CHECK(erased);
    shard_lk.unlock();
    shards_[dst]->subs.fetch_sub(1, std::memory_order_relaxed);
    if (double_resident) {
      ACCL_CHECK(dst != s);
      std::lock_guard<std::mutex> lk(shards_[dst]->mu);
      const bool dst_erased = shards_[dst]->index->Erase(id);
      ACCL_CHECK(dst_erased);
    }
    subscription_count_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }
}

size_t SubscriptionEngine::ShardOf(SubscriptionId id) const {
  std::lock_guard<std::mutex> lk(meta_mu_);
  const uint32_t* owner = shard_of_.Find(id);
  return owner == nullptr ? shards_.size() : *owner & ~kDoubleResident;
}

std::vector<SubscriptionEngine::ShardInfo> SubscriptionEngine::GetShardInfos()
    const {
  std::vector<ShardInfo> infos;
  infos.reserve(shards_.size());
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    infos.push_back(ShardInfo{sh->subs.load(std::memory_order_relaxed),
                              sh->index->cluster_count(),
                              sh->routed.load(std::memory_order_relaxed)});
  }
  return infos;
}

std::vector<float> SubscriptionEngine::GetRangeBoundaries() const {
  exec::EpochManager::Guard guard = epoch_.Pin();
  // The copy happens while pinned; the guard dies after the return value
  // is constructed.
  return snapshot_.load(std::memory_order_seq_cst)->plan.bounds;
}

uint32_t SubscriptionEngine::routing_dimension() const {
  exec::EpochManager::Guard guard = epoch_.Pin();
  return snapshot_.load(std::memory_order_seq_cst)->plan.dim;
}

uint64_t SubscriptionEngine::routing_version() const {
  exec::EpochManager::Guard guard = epoch_.Pin();
  return snapshot_.load(std::memory_order_seq_cst)->version;
}

void SubscriptionEngine::SynchronizeEpochs() {
  {
    std::unique_lock<std::mutex> lk(rebalance_mu_);
    WaitForMoveLocked(lk);
  }
  epoch_.Synchronize();
}

void SubscriptionEngine::HoldMovesForTesting(bool hold) {
  {
    std::lock_guard<std::mutex> lk(rebalance_mu_);
    moves_held_ = hold;
  }
  moves_held_cv_.notify_all();
}

void SubscriptionEngine::AttachDurability(durability::WriteAheadLog* wal) {
  wal_ = wal;
  if (wal_ != nullptr) wal_->AttachMetrics(metrics_.get());
}

void SubscriptionEngine::SetCheckpointer(durability::Checkpointer* cp) {
  checkpointer_ = cp;
  if (checkpointer_ != nullptr) checkpointer_->AttachMetrics(metrics_.get());
}

void SubscriptionEngine::RefreshGaugesForDump() const {
  obs_->subscriptions->Set(static_cast<int64_t>(
      subscription_count_.load(std::memory_order_relaxed)));
  obs_->heap_allocs->Set(static_cast<int64_t>(obs::HeapAllocsNow()));
  obs_->heap_alloc_hook->Set(obs::HeapAllocHookInstalled() ? 1 : 0);
}

std::string SubscriptionEngine::DumpMetrics() const {
  RefreshGaugesForDump();
  // The engine registry holds everything wired through this engine (its
  // own families plus attached WAL/checkpoint/epoch/replication metrics);
  // the process-default registry holds per-backend kernel dispatch
  // counters shared by every engine in the binary.
  return metrics_->PrometheusText() +
         obs::MetricsRegistry::Default().PrometheusText();
}

std::string SubscriptionEngine::DumpMetricsJson() const {
  RefreshGaugesForDump();
  obs::MetricsSnapshot snap = metrics_->Snapshot();
  obs::MetricsSnapshot proc = obs::MetricsRegistry::Default().Snapshot();
  snap.values.insert(snap.values.end(), proc.values.begin(),
                     proc.values.end());
  std::sort(snap.values.begin(), snap.values.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return obs::JsonDump(snap);
}

std::string SubscriptionEngine::DumpTrace() const {
  return obs::TraceRecorder::Global().DrainChromeJson();
}

void SubscriptionEngine::SetTracing(bool on) {
  obs::TraceRecorder::Global().SetEnabled(on);
}

bool SubscriptionEngine::tracing_enabled() {
  return obs::TraceRecorder::enabled();
}

void SubscriptionEngine::NotifyCheckpointer(uint64_t mutations) {
  if (checkpointer_ != nullptr) checkpointer_->OnMutations(mutations);
}

void SubscriptionEngine::CaptureDurableImage(
    durability::EngineImage* out) const {
  // The low-water is read BEFORE any shard scan: every record at or below
  // it was applied (MarkApplied) before this point, and each apply's shard
  // insert completed under the shard lock the scan takes below — so the
  // image provably contains the effect of every record it claims to cover.
  out->lsn = wal_ != nullptr ? wal_->applied_low_water() : kNoLsn;
  out->nd = schema_.dims();
  out->ids.clear();
  out->coords.clear();
  {
    std::lock_guard<std::mutex> lk(meta_mu_);
    out->next_id = next_id_;
  }
  // kRange: wait out an in-flight move and hold the rebalance lock so no
  // double-residency migration overlaps the scan — otherwise a
  // subscription mid-flight from a not-yet-scanned source into an
  // already-scanned destination would be invisible to both scans (and,
  // being older than the WAL tail, lost), and one in both would be
  // captured twice. Hash-sharded engines never move. So every live id
  // lives in exactly one shard during the scan. Subscribes briefly
  // serialize with the capture; matching takes no lock we hold and never
  // stalls.
  std::unique_lock<std::mutex> rebalance_lk;
  if (range_routed_) {
    rebalance_lk = std::unique_lock<std::mutex>(rebalance_mu_);
    WaitForMoveLocked(rebalance_lk);
  }
  exec::EpochManager::Guard guard = epoch_.Pin();
  const RoutingSnapshot* snap = snapshot_.load(std::memory_order_seq_cst);
  // The whole routing plan: Recover restores what fits the recovering
  // engine's configuration (routing stays exact either way, because
  // residency is always computed under the recovering engine's own
  // snapshot).
  out->fences = snap->plan.bounds;
  out->dim = snap->plan.dim;
  out->routing_version = snap->version;
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());
  for (Shard* sh : snap->shards) {
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->index->ForEachObject([&](ObjectId id, BoxView b) {
      out->ids.push_back(id);
      out->coords.insert(out->coords.end(), b.data(), b.data() + stride);
    });
  }
}

Relation SubscriptionEngine::RelationFor(const Event& event,
                                         MatchPolicy policy) {
  // Point events are enclosure queries under either policy (a point
  // intersects a subscription iff the subscription encloses it).
  return event.is_point || policy == MatchPolicy::kCovering
             ? Relation::kEncloses
             : Relation::kIntersects;
}

void SubscriptionEngine::Match(const Event& event,
                               std::vector<SubscriptionId>* out,
                               std::optional<MatchPolicy> policy) {
  AppendSink sink(out);
  MatchBatchImpl(Span<const Event>(&event, 1),
                 policy.value_or(options_.default_policy), nullptr, &sink);
}

void SubscriptionEngine::MatchBatch(Span<const Event> events,
                                    MatchBatchResult* out,
                                    std::optional<MatchPolicy> policy) {
  MatchBatchImpl(events, policy.value_or(options_.default_policy), out,
                 nullptr);
}

void SubscriptionEngine::MatchBatch(Span<const Event> events,
                                    MatchSink* sink,
                                    std::optional<MatchPolicy> policy) {
  MatchBatchImpl(events, policy.value_or(options_.default_policy), nullptr,
                 sink);
}

std::unique_ptr<SubscriptionEngine::PipelineScratch>
SubscriptionEngine::AcquireScratch() {
  {
    std::lock_guard<std::mutex> lk(scratch_pool_mu_);
    if (!scratch_pool_.empty()) {
      std::unique_ptr<PipelineScratch> s = std::move(scratch_pool_.back());
      scratch_pool_.pop_back();
      return s;
    }
  }
  return std::make_unique<PipelineScratch>();
}

void SubscriptionEngine::ReleaseScratch(std::unique_ptr<PipelineScratch> s) {
  std::lock_guard<std::mutex> lk(scratch_pool_mu_);
  scratch_pool_.push_back(std::move(s));
}

// Two-phase batch pipeline over the per-shard CSR queues.
//
//   - Route. Every event is routed once, under the one snapshot the whole
//     batch shares, into per-shard queues in ascending event order.
//   - Execute. Each shard runs its queue in queue order and writes one
//     output buffer (ids, per-position offsets, verified counts). The
//     shard lock is released every kMatchChunkSize queries, so concurrent
//     callers and the migrator interleave with a long queue. A first pass
//     skips the shards a migration slice holds (Shard::migrating), a
//     second finishes them: waiting out a slice instead raised
//     match_stream's call p99 from ~5.6k to 11-15k us. Since every shard
//     sees the batch's queries in queue order whichever thread runs it
//     and in whichever pass, the per-shard adaptation sequence — and
//     therefore every structure decision — is the serial engine's.
//   - Finalize. Each event gathers its slices through the queues' inverse
//     item->(shard, position) view, sorts them, drops double-resident
//     duplicates under kRange and emits to the result slot or MatchSink.
//
// With a pool, ParallelForDynamic spreads the shards (execute) and then
// ranges of events (finalize) across the workers and the calling thread;
// the fan-out's join orders every execute write before every finalize
// read. All transient state lives in a pooled PipelineScratch and the
// capacity-preserving MatchBatchResult, so steady-state batches allocate
// nothing beyond pool submission (gated by
// MatchPipeline.SteadyStateBatchesStayUnderTheAllocationBound).
void SubscriptionEngine::MatchBatchImpl(Span<const Event> events,
                                        MatchPolicy policy,
                                        MatchBatchResult* out,
                                        MatchSink* sink) {
  const size_t ne = events.size();
  const size_t k = shards_.size();
  // Routing and the tracker read every schema dimension of the box before
  // Execute could check it.
  for (const Event& ev : events) ACCL_CHECK(ev.box.dims() == schema_.dims());
  std::unique_ptr<PipelineScratch> scratch = AcquireScratch();
  PipelineScratch& ps = *scratch;
  MatchBatchResult* res = out != nullptr ? out : &ps.sink_result;
  res->Clear();
  if (out != nullptr) res->matches.resize(ne);
  res->per_shard.resize(k);
  if (ne == 0) {
    ReleaseScratch(std::move(scratch));
    return;
  }
  ACCL_TRACE_SPAN_ARG("match_batch", static_cast<uint32_t>(ne));
  obs_->batches->Add(1);
  obs_->events->Add(ne);
  WallTimer t;

  // Pin once for the whole execute phase; the pool workers run under this
  // pin (they finish before the fan-out returns, and the guard outlives
  // it), so they never touch the epoch machinery themselves.
  exec::EpochManager::Guard guard = epoch_.Pin();
  const RoutingSnapshot* snap = snapshot_.load(std::memory_order_seq_cst);
  res->routing_version = snap->version;

  // Per-shard work queues. Broadcast policies enqueue every event on every
  // shard; kRange asks the router which shards each event's box overlaps.
  // A transitional snapshot routes to the ascending union of both plans'
  // shards, and tallies the newest plan's share apart for the per-shard
  // counters. A malformed event (the rule SubscribeBatch applies: a NaN or
  // infinite bound, or lo > hi) visits no shard, so it matches nothing;
  // every other event visits at least one.
  const bool transitional = snap->from.has_value();
  {
    ACCL_TRACE_SPAN("route_scatter");
    if (transitional) ps.target_routed.assign(k, 0);  // only kRange moves
    ps.queues.Build(ne, k, [&](size_t e, std::vector<uint32_t>* targets) {
      const Box& box = events[e].box;
      if (!WellFormed(box.view())) return;
      if (!range_routed_) {
        for (uint32_t s = 0; s < k; ++s) targets->push_back(s);
        return;
      }
      RouteEvent(snap->plan, box, targets);
      if (!transitional) return;
      for (const uint32_t s : *targets) ++ps.target_routed[s];
      RouteEvent(*snap->from, box, targets);
      // A few shard ids: sorting in place allocates nothing.
      std::sort(targets->begin(), targets->end());
      targets->erase(std::unique(targets->begin(), targets->end()),
                     targets->end());
    });
    // overflow_shard names the overflow entry so broadcast callers see
    // "absent", never a silent zero.
    if (range_routed_) res->overflow_shard = k - 1;
  }
  uint64_t routed_total = 0;
  uint64_t target_total = 0;
  for (size_t s = 0; s < k; ++s) {
    const uint64_t visits = ps.queues.size(s);
    const uint64_t routed = transitional ? ps.target_routed[s] : visits;
    res->per_shard[s].events_routed = visits;
    res->per_shard[s].resident_subscriptions =
        snap->shards[s]->subs.load(std::memory_order_relaxed);
    snap->shards[s]->routed.fetch_add(routed, std::memory_order_relaxed);
    routed_total += visits;
    target_total += routed;
  }
  obs_->events_routed->Add(routed_total);
  if (transitional) {
    obs_->transition_events->Add(ne);
    obs_->transition_extra_visits->Add(routed_total - target_total);
  }

  // A single event (Match) stays on the calling thread: handing its few
  // shard visits to the pool would cost more than it saves.
  const size_t workers =
      pool_ != nullptr && ne > 1 ? std::min(pool_->concurrency(), ne) : 1;
  if (ps.shard_out.size() < k) ps.shard_out.resize(k);
  if (ps.gather.size() < workers) ps.gather.resize(workers);

  for (size_t s = 0; s < k; ++s) {
    PipelineScratch::ShardOut& so = ps.shard_out[s];
    so.ids.clear();
    so.offsets.resize(ps.queues.size(s) + 1);
    so.verified.resize(ps.queues.size(s));
    so.offsets[0] = 0;
    so.done = 0;
  }
  // Runs shard s's queue on from where it stopped, one chunk per
  // shard-lock hold. With `defer`, stops before a chunk while the migrator
  // holds or wants the shard.
  const auto execute = [&](size_t s, bool defer) {
    const size_t nq = ps.queues.size(s);
    const uint32_t* items = ps.queues.items(s);
    PipelineScratch::ShardOut& so = ps.shard_out[s];
    Shard& sh = *snap->shards[s];
    while (so.done < nq) {
      if (defer && sh.migrating.load(std::memory_order_relaxed)) return;
      const size_t end = std::min(so.done + kMatchChunkSize, nq);
      std::lock_guard<std::mutex> lk(sh.mu);
      ACCL_TRACE_SPAN_ARG("shard_execute", static_cast<uint32_t>(s));
      for (size_t j = so.done; j < end; ++j) {
        const Event& ev = events[items[j]];
        so.query.box = ev.box;  // copy-assign reuses the warm Box's storage
        so.query.rel = RelationFor(ev, policy);
        QueryMetrics m;
        sh.index->Execute(so.query, &so.ids, &m);
        so.offsets[j + 1] = static_cast<uint32_t>(so.ids.size());
        so.verified[j] = m.objects_verified;
        res->per_shard[s].Add(m);
      }
      so.done = end;
    }
  };
  const auto execute_pass = [&](bool defer) {
    if (workers > 1) {
      pool_->ParallelForDynamic(k, [&](size_t s) { execute(s, defer); });
    } else {
      for (size_t s = 0; s < k; ++s) execute(s, defer);
    }
  };
  // The first pass leaves alone the shards a migration slice holds (a
  // call would otherwise wait out the slice); the second finishes them.
  execute_pass(/*defer=*/true);
  for (size_t s = 0; s < k; ++s) {
    if (ps.shard_out[s].done < ps.queues.size(s)) {
      execute_pass(/*defer=*/false);
      break;
    }
  }
  // Shard reads are done. Unpinning now shortens the grace period
  // concurrent migrations wait for — and MaybeAutoMove below must not
  // run pinned (it may wait for an in-flight move's grace period).
  guard.Release();

  // Finalize events [r*ne/workers, (r+1)*ne/workers) with gather buffer r.
  const auto finalize = [&](size_t r) {
    std::vector<ObjectId>& buf = ps.gather[r];
    uint64_t matched_total = 0;
    uint64_t verified_total = 0;
    for (size_t e = r * ne / workers; e < (r + 1) * ne / workers; ++e) {
      ACCL_TRACE_SPAN_ARG("finalize_event", static_cast<uint32_t>(e));
      buf.clear();
      const size_t deg = ps.queues.item_degree(e);
      const uint32_t* vshards = ps.queues.item_shards(e);
      const uint32_t* vpos = ps.queues.item_positions(e);
      uint64_t verified = 0;
      for (size_t v = 0; v < deg; ++v) {
        const PipelineScratch::ShardOut& so = ps.shard_out[vshards[v]];
        const size_t p = vpos[v];
        buf.insert(buf.end(), so.ids.begin() + so.offsets[p],
                   so.ids.begin() + so.offsets[p + 1]);
        verified += so.verified[p];
      }
      // Same deterministic order as the serial oracle: ObjectId-sorted,
      // with the adjacent-unique pass removing double-resident duplicates
      // under kRange.
      std::sort(buf.begin(), buf.end());
      if (range_routed_) {
        buf.erase(std::unique(buf.begin(), buf.end()), buf.end());
      }
      matched_total += buf.size();
      verified_total += verified;
      if (sink == nullptr) {
        res->matches[e].assign(buf.begin(), buf.end());
      } else {
        sink->OnEventMatches(e, Span<const ObjectId>(buf.data(), buf.size()),
                             verified);
      }
    }
    obs_->matches->Add(matched_total);
    obs_->objects_verified->Add(verified_total);
  };
  if (workers > 1) {
    pool_->ParallelForDynamic(workers, finalize);
  } else {
    finalize(0);
  }

  res->AggregateShards();
  // Read after both phases: the call's full end-to-end duration.
  obs_->batch_us->Record(static_cast<uint64_t>(
      std::max(0.0, std::round(t.ElapsedMs() * 1000.0))));
  if (auto_moves_) {
    // Off-lock fold (pooled accumulator), one tracker merge per batch.
    // Malformed events (no visit) stay out of it.
    ps.pattern.Reset(schema_.dims());
    for (size_t e = 0; e < ne; ++e) {
      if (ps.queues.item_degree(e) > 0) ps.pattern.AddEvent(events[e].box);
    }
    tracker_->Record(ps.pattern);
  }
  ReleaseScratch(std::move(scratch));
  MaybeAutoMove(ne);
}

void SubscriptionEngine::MaybeAutoMove(uint64_t events) {
  if (!auto_moves_) return;
  const bool window_due =
      options_.adaptive.enabled &&
      events_since_window_.fetch_add(events, std::memory_order_relaxed) +
              events >=
          options_.adaptive.sample_window;
  const bool replan_due =
      options_.rebalance_period > 0 &&
      events_since_replan_.fetch_add(events, std::memory_order_relaxed) +
              events >=
          options_.rebalance_period;
  if (!window_due && !replan_due) return;
  // If another caller is evaluating right now there is nothing useful to
  // queue behind it. An atomic flag — not mutex try_lock, which the
  // standard allows to fail spuriously — keeps the skip deterministic for
  // deterministic call sequences. The flag covers the evaluation only, not
  // the migrator's share of a move: a single caller never skips, and its
  // decision to move waits for a move still in flight instead (before the
  // scan).
  if (move_eval_inflight_.exchange(true, std::memory_order_acquire)) return;
  {
    std::unique_lock<std::mutex> lk(rebalance_mu_);
    if (window_due) events_since_window_.store(0, std::memory_order_relaxed);
    if (replan_due) events_since_replan_.store(0, std::memory_order_relaxed);
    const adapt::PatternSnapshot pattern = tracker_->Snapshot();
    tracker_->AdvanceWindow();
    // At most one move per evaluation: a fence re-plan due in the same
    // evaluation as an advisor move waits for its next period.
    const bool moved = window_due && EvaluateAdaptiveLocked(lk, pattern);
    if (replan_due && !moved) ReplanFencesLocked(lk, pattern, /*force=*/false);
    HandOffStagedMoveLocked();
  }
  move_eval_inflight_.store(false, std::memory_order_release);
}

bool SubscriptionEngine::EvaluateAdaptiveLocked(
    std::unique_lock<std::mutex>& lk, const adapt::PatternSnapshot& pattern) {
  obs_->windows_evaluated->Add(1);
  adapt::RoutingDecision d = adapt::AdviseRouting(
      pattern, SnapshotUnderRebalanceLock()->plan.dim, num_range_shards_);
  {
    std::lock_guard<std::mutex> elk(adapt_estimates_mu_);
    last_estimates_ = std::move(d.estimates);
  }
  if (!d.switch_dimension) return false;
  // A decision was made against the newest plan, which an in-flight move
  // already counts by; only its scan needs that move to have finished.
  WaitForMoveLocked(lk);
  // Re-fence on the winning dimension; any resident anywhere may re-route
  // (straddlers become non-straddlers and vice versa).
  RoutingPlan plan;
  plan.dim = d.dim;
  plan.bounds = std::move(d.fences);
  BeginMoveLocked(std::move(plan));
  obs_->dimension_switches->Add(1);
  ACCL_TRACE_INSTANT("adapt_dimension_switch", d.dim);
  // The old events argued for this switch; they must not immediately
  // argue again.
  tracker_->ResetWindow();
  return true;
}

AdaptiveRoutingStats SubscriptionEngine::adaptive_stats() const {
  AdaptiveRoutingStats st;
  st.enabled = options_.adaptive.enabled;
  st.fence_dimension = routing_dimension();
  st.dimension_switches = obs_->dimension_switches->Value();
  st.windows_evaluated = obs_->windows_evaluated->Value();
  if (tracker_ != nullptr) {
    st.events_observed = tracker_->events_observed();
    st.subscriptions_observed = tracker_->subscriptions_observed();
  }
  {
    std::lock_guard<std::mutex> lk(adapt_estimates_mu_);
    st.last_estimates = last_estimates_;
  }
  return st;
}

SubscriptionEngine::RebalanceStats SubscriptionEngine::rebalance_stats()
    const {
  RebalanceStats st;
  st.boundary_moves = obs_->boundary_moves->Value();
  st.subscriptions_migrated = obs_->subs_migrated->Value();
  return st;
}

bool SubscriptionEngine::RebalanceOnce() {
  if (!range_routed_) return false;
  std::unique_lock<std::mutex> lk(rebalance_mu_);
  WaitForMoveLocked(lk);
  const bool moved =
      ReplanFencesLocked(lk, tracker_->Snapshot(), /*force=*/true);
  RunStagedMove(lk);
  return moved;
}

bool SubscriptionEngine::SetRangeBoundaries(const std::vector<float>& bounds) {
  if (!range_routed_ || !FencesFit(bounds, num_range_shards_ - 1)) {
    return false;
  }
  std::unique_lock<std::mutex> lk(rebalance_mu_);
  WaitForMoveLocked(lk);
  // Arbitrary table change: any shard may hold re-routed residents (the
  // overflow shard drains too). The fence dimension carries over.
  RoutingPlan plan = SnapshotUnderRebalanceLock()->plan;
  plan.bounds = bounds;
  BeginMoveLocked(std::move(plan));
  obs_->boundary_moves->Add(1);
  RunStagedMove(lk);
  return true;
}

bool SubscriptionEngine::SetRoutingDimension(uint32_t dim) {
  if (!range_routed_ || dim >= schema_.dims()) return false;
  std::unique_lock<std::mutex> lk(rebalance_mu_);
  WaitForMoveLocked(lk);
  const RoutingPlan& cur = SnapshotUnderRebalanceLock()->plan;
  if (cur.dim == dim) return true;
  RoutingPlan plan;
  plan.dim = dim;
  plan.bounds = cur.bounds;  // positions retained; the straddler SET changes
  BeginMoveLocked(std::move(plan));
  obs_->dimension_switches->Add(1);
  ACCL_TRACE_INSTANT("adapt_dimension_switch", dim);
  tracker_->ResetWindow();
  RunStagedMove(lk);
  return true;
}

bool SubscriptionEngine::ReplanFencesLocked(
    std::unique_lock<std::mutex>& lk, const adapt::PatternSnapshot& pattern,
    bool force) {
  if (num_range_shards_ < 2) return false;  // no interior fence to place
  if (pattern.events == 0 && pattern.subscriptions == 0) return false;
  const RoutingPlan& cur = SnapshotUnderRebalanceLock()->plan;
  const Dim dim = static_cast<Dim>(cur.dim);
  std::vector<float> fences = adapt::SelectivityAnalyzer::PlanFences(
      pattern, dim, num_range_shards_ - 1);
  if (fences == cur.bounds) return false;
  if (!force &&
      adapt::SelectivityAnalyzer::MaxLoad(pattern, dim, cur.bounds) <
          kRoutingSwitchThreshold *
              adapt::SelectivityAnalyzer::MaxLoad(pattern, dim, fences)) {
    return false;
  }
  // The decision was made against the newest plan, which an in-flight
  // move already counts by; only the scan needs that move to have
  // finished. An explicit dimension switch may land while we wait, and
  // these fences were planned for the old dimension.
  WaitForMoveLocked(lk);
  RoutingPlan plan = SnapshotUnderRebalanceLock()->plan;
  if (plan.dim != dim) return false;
  plan.bounds = std::move(fences);
  BeginMoveLocked(std::move(plan));
  obs_->boundary_moves->Add(1);
  return true;
}

void SubscriptionEngine::WaitForMoveLocked(
    std::unique_lock<std::mutex>& lk) const {
  move_done_cv_.wait(lk, [this] { return !move_in_flight_; });
}

void SubscriptionEngine::BeginMoveLocked(RoutingPlan plan) {
  ACCL_CHECK(!move_in_flight_);
  const uint32_t num_shards = static_cast<uint32_t>(shards_.size());
  ACCL_TRACE_SPAN_ARG("routing_migrate.scan", num_shards);
  auto m = std::make_unique<Move>();
  RoutingPlan from = SnapshotUnderRebalanceLock()->plan;
  m->plan = std::move(plan);
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());

  // Step 1 — scan: collect the residents the new plan routes elsewhere,
  // grouped by destination shard. The box views die with the scan lock, so
  // coordinates are copied out. (Between moves nobody is double-resident,
  // so every physical resident seen here is an owned, single copy.)
  // Each scanned shard is marked with the plan under the scan's lock; see
  // ApplyUnsubscribe.
  m->sources.reserve(num_shards);
  m->incoming.resize(num_shards);
  std::vector<size_t> leaving(num_shards, 0);
  for (uint32_t src = 0; src < num_shards; ++src) {
    const uint32_t k = static_cast<uint32_t>(m->sources.size());
    m->sources.push_back(Move::Source{src, {}});
    std::lock_guard<std::mutex> lk(shards_[src]->mu);
    shards_[src]->moving_plan = &m->plan;
    shards_[src]->index->ForEachObject([&](ObjectId id, BoxView b) {
      const uint32_t dst = RangeShardFor(m->plan, b);
      if (dst == src) return;
      Move::Incoming& in = m->incoming[dst];
      in.ids.push_back(id);
      in.from.push_back(k);
      in.coords.insert(in.coords.end(), b.data(), b.data() + stride);
      ++leaving[src];
    });
  }
  size_t movers = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const size_t arriving = m->incoming[s].ids.size();
    movers += arriving;
    // Re-count the movers at their new homes now, so ShardInfo is final
    // from this publish on.
    shards_[s]->subs.fetch_add(arriving, std::memory_order_relaxed);
    shards_[s]->subs.fetch_sub(leaving[s], std::memory_order_relaxed);
  }
  obs_->subs_migrated->Add(movers);

  if (movers == 0) {
    // Nothing changes home: publish the plan directly.
    for (const auto& sh : shards_) {
      std::lock_guard<std::mutex> lk(sh->mu);
      sh->moving_plan = nullptr;
    }
    PublishSnapshot(std::move(m->plan));
    obs_->migration_us->Record(static_cast<uint64_t>(
        std::max(0.0, std::round(m->timer.ElapsedMs() * 1000.0))));
    return;
  }
  // Until the movers are inserted, events must reach both homes.
  PublishSnapshot(m->plan, std::move(from));
  move_in_flight_ = true;
  staged_move_ = std::move(m);
}

void SubscriptionEngine::RunStagedMove(std::unique_lock<std::mutex>& lk) {
  std::unique_ptr<Move> m = std::move(staged_move_);
  lk.unlock();
  if (m != nullptr) FinishMove(std::move(m));
}

void SubscriptionEngine::HandOffStagedMoveLocked() {
  if (staged_move_ == nullptr) return;
  ACCL_DCHECK(migrator_.joinable());  // auto moves imply the thread
  migrate_cv_.notify_one();
}

void SubscriptionEngine::MigratorLoop() {
#if defined(__linux__)
  // SCHED_BATCH: no wake-up preemption. The matching caller wakes this
  // thread on its way out of the call that decided the move; a normal
  // thread woken there, having slept long, preempts the caller on the
  // caller's own CPU and makes that call wait for the move after all.
  const sched_param batch{};
  pthread_setschedparam(pthread_self(), SCHED_BATCH, &batch);
#endif
  [[maybe_unused]] uint32_t moves_since_trim = 0;
  std::unique_lock<std::mutex> lk(rebalance_mu_);
  for (;;) {
    migrate_cv_.wait(
        lk, [this] { return staged_move_ != nullptr || migrator_stop_; });
    if (staged_move_ == nullptr) return;  // stop, nothing staged
    RunStagedMove(lk);
#if defined(__GLIBC__)
    // A move frees about what it allocated (scan buffers, source copies,
    // relocated cluster storage), but this thread allocates from its own
    // malloc arena, whose free pages the matching threads never reuse, and
    // theirs it never reuses. Handing the free pages back keeps the
    // resident set near live data instead of both arenas' high-water
    // marks; doing it every kMovesPerTrim moves keeps the page release
    // (and its TLB shootdowns) off most matching calls.
    if (++moves_since_trim == kMovesPerTrim) {
      malloc_trim(0);
      moves_since_trim = 0;
    }
#endif
    lk.lock();
  }
}

void SubscriptionEngine::FinishMove(std::unique_ptr<Move> m) {
  ACCL_TRACE_SPAN("routing_migrate");
  const size_t stride = 2 * static_cast<size_t>(schema_.dims());

  // Step 2 — double-residency inserts: each moving subscription is copied
  // into its destination shard while the source copy stays live. Readers
  // find the source copies; a route covering both shards finds two copies,
  // which the match-side adjacent-unique pass removes. Each destination
  // takes its movers in scan order, one slice per shard-lock hold
  // (BulkInsert equals an Insert loop, so the slicing does not change
  // placement). The meta lock is held only for the owner-map work around
  // the insert: first to drop movers unsubscribed since the scan, then to
  // flag the inserted ones kDoubleResident. An id unsubscribed between the
  // two found only its source copy to erase, so its fresh destination copy
  // is erased here, still under the shard lock; its `subs` charge went to
  // the destination already (ApplyUnsubscribe's moving_plan).
  {
    ACCL_TRACE_SPAN("routing_migrate.insert");
    std::vector<ObjectId> orphans;
    for (uint32_t dst = 0; dst < shards_.size(); ++dst) {
      Move::Incoming& in = m->incoming[dst];
      for (size_t b = 0; b < in.ids.size(); b += kMigrationSlice) {
        const size_t e = std::min(in.ids.size(), b + kMigrationSlice);
        MigrationSliceLock shard_lk(shards_[dst]->mu,
                                    shards_[dst]->migrating);
        size_t kept = b;
        {
          std::lock_guard<std::mutex> meta_lk(meta_mu_);
          for (size_t i = b; i < e; ++i) {
            const uint32_t* owner = shard_of_.Find(in.ids[i]);
            if (owner == nullptr || *owner != m->sources[in.from[i]].src) {
              continue;  // unsubscribed since the scan: nothing to migrate
            }
            if (kept != i) {
              in.ids[kept] = in.ids[i];
              in.from[kept] = in.from[i];
              std::copy_n(in.coords.begin() + i * stride, stride,
                          in.coords.begin() + kept * stride);
            }
            ++kept;
          }
        }
        shards_[dst]->index->BulkInsert(
            Span<const ObjectId>(in.ids.data() + b, kept - b),
            Span<const float>(in.coords.data() + b * stride,
                              (kept - b) * stride));
        orphans.clear();
        {
          std::lock_guard<std::mutex> meta_lk(meta_mu_);
          for (size_t i = b; i < kept; ++i) {
            const ObjectId id = in.ids[i];
            uint32_t* owner = shard_of_.Find(id);
            if (owner == nullptr) {
              orphans.push_back(id);
              continue;
            }
            *owner |= kDoubleResident;
            m->sources[in.from[i]].moved.emplace_back(id, dst);
          }
        }
        const size_t erased = shards_[dst]->index->BulkErase(
            Span<const ObjectId>(orphans.data(), orphans.size()));
        ACCL_CHECK(erased == orphans.size());
      }
    }
  }

  // Steps 3 and 4 — publish the final snapshot, then wait out the grace
  // period: after it, every reader that routed with the old or the
  // transitional table has finished its shard reads, and any reader it
  // did not wait for is guaranteed to have loaded the final snapshot
  // (seq_cst publish ordering), which finds every mover at its
  // destination. The source copies below are then dead weight.
  {
    ACCL_TRACE_SPAN("routing_migrate.grace");
    {
      std::unique_lock<std::mutex> lk(rebalance_mu_);
      moves_held_cv_.wait(lk, [this] { return !moves_held_; });
      PublishSnapshot(m->plan);
    }
    epoch_.Synchronize();  // also frees the superseded snapshots
  }

  // Step 5 — deferred source cleanup: flip ownership and bulk-erase the
  // stale source copies, one slice per shard-lock hold, with the meta lock
  // held for the flips only. An id whose map entry is gone was
  // unsubscribed mid-migration (Unsubscribe erased both copies); skip it.
  // The `subs` counts moved at the scan already.
  {
    ACCL_TRACE_SPAN("routing_migrate.erase");
    std::vector<ObjectId> erase_ids;
    for (Move::Source& sp : m->sources) {
      for (size_t b = 0; b < sp.moved.size(); b += kMigrationSlice) {
        const size_t e = std::min(sp.moved.size(), b + kMigrationSlice);
        MigrationSliceLock shard_lk(shards_[sp.src]->mu,
                                    shards_[sp.src]->migrating);
        erase_ids.clear();
        {
          std::lock_guard<std::mutex> meta_lk(meta_mu_);
          for (size_t i = b; i < e; ++i) {
            const auto [id, dst] = sp.moved[i];
            uint32_t* owner = shard_of_.Find(id);
            if (owner == nullptr) continue;  // unsubscribed mid-flight
            ACCL_CHECK(*owner == (sp.src | kDoubleResident));
            *owner = dst;
            erase_ids.push_back(id);
          }
        }
        const size_t erased = shards_[sp.src]->index->BulkErase(
            Span<const ObjectId>(erase_ids.data(), erase_ids.size()));
        ACCL_CHECK(erased == erase_ids.size());
      }
    }
    for (const Move::Source& sp : m->sources) {
      std::lock_guard<std::mutex> lk(shards_[sp.src]->mu);
      shards_[sp.src]->moving_plan = nullptr;
    }
  }
  obs_->migration_us->Record(static_cast<uint64_t>(
      std::max(0.0, std::round(m->timer.ElapsedMs() * 1000.0))));
  {
    std::lock_guard<std::mutex> lk(rebalance_mu_);
    move_in_flight_ = false;
  }
  move_done_cv_.notify_all();
}

bool SubscriptionEngine::MakePointEvent(
    const std::vector<AttributeValue>& values, Event* out) const {
  std::vector<float> pt;
  if (!schema_.MakePoint(values, &pt)) return false;
  *out = Event::Point(std::move(pt));
  return true;
}

bool SubscriptionEngine::MakeRangeEvent(
    const std::vector<AttributeRange>& ranges, Event* out) const {
  Box box;
  if (!schema_.MakeBox(ranges, &box)) return false;
  *out = Event::Range(std::move(box));
  return true;
}

}  // namespace accl
