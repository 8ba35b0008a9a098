// Selective Dissemination of Information engine — the paper's motivating
// application (§1): a publish/subscribe notification system where
// subscriptions define range intervals over attributes and incoming events
// (offers) must be matched against the whole subscription database with low
// latency.
//
// The engine wraps the adaptive clustering index with an attribute schema,
// subscription lifecycle management, the two event kinds the paper
// describes (point events and range events). Running statistics live in
// the engine's metrics registry (metrics(); accl_pipeline_* families).
//
// Scale-out (sharding): the subscription database can be partitioned across
// K independent AdaptiveIndex shards (EngineOptions::shards). Each
// subscription lives in exactly one shard, chosen by the sharding policy
// (id hash or range routing); per-shard answers are merged
// deterministically (sorted by ObjectId), so the match sets are
// byte-identical to a single-shard engine's. Every match — a batch or a
// single event — runs through one two-phase pipeline (execute every shard
// queue, then finalize every event); with a thread pool, each phase fans
// out across the workers. All per-shard
// work — including Execute's statistics updates and the adaptive
// reorganization it may trigger — runs behind that shard's mutex, so the
// reorganization logic itself is untouched by concurrency.
//
// Range-routed dispatch (ShardingPolicy::kRange): shards 0..K-2 own
// contiguous slices of the *fence dimension's* domain (dimension 0 by
// default; configurable, and switched online by the adaptive subsystem —
// see below), delimited by a sorted boundary array; the last shard is the
// *overflow* shard holding every subscription whose fence-dimension
// interval straddles a boundary. An event is dispatched only to the
// shards whose slice its box overlaps (two binary searches) plus the
// overflow shard — never broadcast — and because any spatial relation the
// engine supports implies interval overlap in every dimension, the routed
// match sets stay exact.
//
// One fence planner (src/adapt/): every kRange engine keeps a
// QueryPatternTracker — an exact per-dimension histogram of its resident
// subscriptions, plus a windowed histogram of sampled events when auto
// moves are configured — and every fence it places comes from
// SelectivityAnalyzer::PlanFences over the sum of the two (the "mass"):
// RebalanceOnce, the periodic re-plan every rebalance_period events, and
// the advisor's dimension switches alike.
//
// Workload-adaptive routing (EngineOptions::adaptive): every
// sample_window events adapt::AdviseRouting compares the predicted routing
// selectivity of every candidate fence dimension and, when another
// dimension is predicted kRoutingSwitchThreshold× more selective,
// re-fences the engine on that dimension online — through the same
// epoch-snapshot + double-residency migration every routing change uses,
// so match sets stay exact throughout. A routing plan is just that: a
// fence dimension and its fences.
//
// Epoch-published routing snapshots: the fence array, the shard handle
// table and a version number live in one immutable RoutingSnapshot behind
// a single atomic pointer. Matchers pin a reclamation epoch
// (exec/epoch.h), load the snapshot, and route the entire operation
// against that one consistent table — no routing lock, no engine meta
// lock. Rebalancing migrates subscriptions with a grace-period
// *double-residency* protocol: a transitional snapshot first routes every
// event to the union of its old and new shards, moving subscriptions are
// then inserted at their destination, the final snapshot is published, the
// old epoch drains, and only then are the source copies erased — so a
// match running at any instant of a migration sees every live subscription
// at least once (and at most twice, which an adjacent-unique pass over the
// ObjectId-sorted match set removes). Match sets are therefore
// byte-identical to the serial oracle *during* a rebalance, not just after
// it returns. A move an auto-trigger starts runs on a background migrator
// thread after its scan, so the triggering call does not wait for it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/adaptive_routing.h"
#include "api/batch.h"
#include "api/durability.h"
#include "api/schema.h"
#include "api/status.h"
#include "core/adaptive_index.h"
#include "exec/epoch.h"
#include "exec/thread_pool.h"
#include "util/flat_id_map.h"

namespace accl {

namespace durability {
class WriteAheadLog;
class Checkpointer;
class CheckpointStore;
struct EngineImage;
struct WalRecord;
}  // namespace durability

namespace adapt {
class QueryPatternTracker;
struct PatternSnapshot;
}  // namespace adapt

/// Identifier handed out for registered subscriptions.
using SubscriptionId = ObjectId;

/// How range events select subscriptions.
enum class MatchPolicy : uint8_t {
  /// Notify subscriptions whose ranges intersect the event's ranges — the
  /// paper's spatial range query ("consult the set of alternative offers
  /// that are close to their wishes").
  kIntersecting = 0,
  /// Notify only subscriptions whose ranges fully cover the event's ranges
  /// (the event satisfies every constraint of the subscription) — the
  /// enclosure query; point events degenerate to point-enclosing.
  kCovering,
};

/// How subscriptions are partitioned across shards.
enum class ShardingPolicy : uint8_t {
  /// Mix the subscription id through SplitMix64 and take it mod K. Spreads
  /// load evenly regardless of the subscription distribution; events are
  /// broadcast to every shard.
  kHashId = 0,
  /// Range partitioning with routed, non-broadcast event dispatch: shards
  /// 0..K-2 own contiguous slices of the fence dimension (dimension 0
  /// unless SetRoutingDimension or the online advisor moves it), the
  /// last shard is the overflow shard for fence-straddling subscriptions.
  /// Requires K >= 2. Supports online boundary rebalancing
  /// (RebalanceOnce) and workload-adaptive routing (EngineOptions::
  /// adaptive).
  kRange,
};

/// An incoming publication.
struct Event {
  /// Point event: one value per attribute. Built via
  /// AttributeSchema::MakePoint or SubscriptionEngine::MakePointEvent.
  static Event Point(std::vector<float> normalized_point);
  /// Range event ("3 to 5 rooms, 600$-900$").
  static Event Range(Box normalized_box);

  bool is_point = true;
  Box box;  ///< degenerate for point events
};

/// Tuning for the engine; forwards the index knobs.
struct EngineOptions {
  AdaptiveConfig index;  ///< nd overwritten from the schema
  MatchPolicy default_policy = MatchPolicy::kCovering;

  /// Number of independent index shards (K >= 1). 1 keeps the classic
  /// single-index engine, bit-for-bit.
  uint32_t shards = 1;
  /// Threads for MatchBatch's execute and finalize fan-outs (the calling
  /// thread plus match_threads - 1 pool workers). 0 or 1 = the calling
  /// thread does everything (still deterministic, still correct) — zero is
  /// a documented valid value, not an error.
  uint32_t match_threads = 0;
  /// How subscriptions are assigned to shards (ignored when K == 1).
  ShardingPolicy sharding = ShardingPolicy::kHashId;

  // ---- kRange knobs (ignored by the other policies) ----
  /// Initial interior boundaries: finite, strictly ascending, size K-2
  /// (the K-1 range shards need K-2 interior fences; the implicit outer
  /// fences are ±infinity). Empty = uniform split of [0,1] into K-1
  /// slices.
  std::vector<float> range_boundaries;
  /// Events between automatic fence re-plans; 0 = re-plan only on
  /// explicit RebalanceOnce()/SetRangeBoundaries() calls. Each re-plan
  /// places the current dimension's fences with PlanFences over the mass
  /// and moves to them when the current fences' largest shard load (range
  /// slices and overflow, priced on the same mass) is at least
  /// kRoutingSwitchThreshold times the plan's. Works with the advisor on
  /// or off.
  uint32_t rebalance_period = 0;

  /// Workload-adaptive routing: online fence-dimension selection (kRange
  /// only; see api/adaptive_routing.h).
  AdaptiveRoutingOptions adaptive;
};

/// The subscription database and matcher.
///
/// Thread-safety contract (snapshot/epoch model):
///
///   - Match/MatchBatch never take the engine meta lock or any routing
///     lock. The routed read path is: pin a reclamation epoch (wait-free —
///     one CAS on a per-thread slot), load the current RoutingSnapshot
///     from one atomic pointer, route every event of the call against that
///     single consistent table, execute on the selected shards, unpin.
///     The only locks a match takes are the per-shard mutexes (required:
///     AdaptiveIndex::Execute is a logical read but a physical write — it
///     updates the adaptation statistics) and the pipeline-scratch
///     freelist's. Statistics go to lock-free registry counters. A match
///     never blocks behind a rebalance; a rebalance never blocks behind a
///     match except for the bounded grace period below.
///
///   - Subscribe/SubscribeBatch/Unsubscribe may be called concurrently
///     from any threads. kRange subscribes serialize against routing
///     publishes (rebalance lock held from routing through owner-map
///     publish) and home each subscription by the newest plan, even while
///     a move toward that plan is in flight. Unsubscribe is lock-ordered
///     so it may run concurrently with an in-flight migration and still
///     observe each subscription all-or-nothing.
///
///   - Every routing change (boundary move, dimension switch) is one move
///     routine with grace-period double residency:
///     (1) the residents the new plan routes elsewhere are scanned, and a
///     *transitional* snapshot is published that routes each event to the
///     sorted union of its old-plan and new-plan shards (new subscriptions
///     go to their new-plan home only); (2) the movers are *inserted* at
///     their destinations in bounded slices, each holding one shard lock;
///     (3) the final snapshot (new plan only) is published; (4) the epoch
///     manager waits until every reader pinned before that publish has
///     drained; (5) the stale source copies are erased in bounded slices
///     (AdaptiveIndex::BulkErase). A reader on the old or transitional
///     snapshot finds every mover at its source, a reader on the final
///     snapshot finds it at its destination, and a reader whose route
///     covers both shards finds it twice and deduplicates during the
///     ObjectId-sorted merge. Match sets are therefore exact — identical
///     to a serial oracle over the live subscription set — at every
///     instant of a migration. The rebalance lock is held for the scan and
///     the two publishes only. Retired snapshots are reclaimed through the
///     epoch manager's deferred retire list.
///
///   - Who runs a move: a MatchBatch/Match call whose auto-move
///     evaluation (advisor window or fence re-plan; at most one move per
///     evaluation) decides to move runs step (1) and hands steps (2)-(5)
///     to one engine-owned migrator thread, so the call returns without
///     waiting for the move. The thread exists only when auto moves are
///     configured (kRange with rebalance_period > 0 or adaptive.enabled).
///     At most one move is in flight: a later decision that would migrate
///     waits for it before its scan (evaluations that decide nothing never
///     wait). RebalanceOnce, SetRangeBoundaries, SetRoutingDimension,
///     CaptureDurableImage, SynchronizeEpochs and the destructor wait for
///     any in-flight move; the routing calls then run the whole move
///     routine on their own thread and return after step (5).
///
///   - Determinism: for a deterministic call sequence the results are
///     byte-identical across shard/thread/boundary configurations
///     (concurrent *callers* race for shard-lock order like any concurrent
///     writers would). Routing decisions are deterministic for a
///     deterministic single-caller sequence too: the planner's input (the
///     tracker's histograms) does not depend on how far the migrator has
///     got.
///     MatchBatchResult::routing_version is monotone per caller.
class SubscriptionEngine {
 public:
  /// Validates user-supplied configuration: shard count >= 1, kRange needs
  /// K >= 2, boundary arrays must have size K-2 and be finite and strictly
  /// ascending, adaptive routing needs kRange and a non-zero
  /// sample_window, a schema with >= 1 attribute, and index knobs the
  /// structure can actually run with (division_factor >= 2, a registered
  /// verify_backend). match_threads == 0 is valid (caller-thread
  /// execution).
  static Status ValidateOptions(const AttributeSchema& schema,
                                const EngineOptions& options);

  /// Validating factory: returns null and fills `*status` (when non-null)
  /// with the reason instead of aborting on invalid configuration.
  static std::unique_ptr<SubscriptionEngine> Create(AttributeSchema schema,
                                                    EngineOptions options,
                                                    Status* status = nullptr);

  /// Schema must be fully defined before constructing the engine. Invalid
  /// configuration aborts with the ValidateOptions message (use Create for
  /// a recoverable Status instead).
  explicit SubscriptionEngine(AttributeSchema schema,
                              EngineOptions options = {});
  ~SubscriptionEngine();

  const AttributeSchema& schema() const { return schema_; }

  /// Registers a subscription given by range predicates (unspecified
  /// attributes are unconstrained). Returns the new id, or kInvalidObject
  /// when a predicate is malformed.
  SubscriptionId Subscribe(const std::vector<AttributeRange>& ranges);

  /// Registers a pre-built normalized subscription box: a one-box
  /// SubscribeBatch. Returns kInvalidObject (allocating no id and logging
  /// nothing) for a box with a NaN or infinite bound or a dimension with
  /// lo > hi.
  SubscriptionId SubscribeBox(const Box& box);

  /// Registers boxes.size() subscriptions in one call; ids are assigned
  /// contiguously in box order and returned in `*out` (its previous
  /// contents are discarded) — observably identical to calling
  /// SubscribeBox in a loop, but the batch is grouped per target shard so
  /// each shard lock (and the id-allocation lock) is taken once instead
  /// of once per subscription. A batch holding one box SubscribeBox would
  /// refuse is refused whole: nothing is applied or logged and `*out`
  /// stays empty.
  void SubscribeBatch(Span<const Box> boxes,
                      std::vector<SubscriptionId>* out);

  /// Removes a subscription. Returns false when unknown. Safe concurrently
  /// with an in-flight migration: a double-resident subscription is erased
  /// from both homes.
  bool Unsubscribe(SubscriptionId id);

  size_t subscription_count() const {
    return subscription_count_.load(std::memory_order_relaxed);
  }

  /// Matches an event against the database; appends notified subscription
  /// ids to `*out`, keeping its previous contents. Exactly a one-event
  /// MatchBatch run on the calling thread: the appended ids are sorted
  /// ascending by ObjectId and duplicate-free under every policy,
  /// byte-identical to what MatchBatch would return for the event, and
  /// the call counts toward the same accl_pipeline_* metrics. A malformed
  /// event (see MatchBatch) appends nothing. `policy` defaults to
  /// options.default_policy.
  void Match(const Event& event, std::vector<SubscriptionId>* out,
             std::optional<MatchPolicy> policy = std::nullopt);

  /// Matches a batch of events in two phases. Execute: per-shard CSR work
  /// queues (broadcast policies enqueue every event on every shard, kRange
  /// only on the shards the router selects, under one snapshot for the
  /// whole batch) each run in queue order, spread across the pool's
  /// workers by shard. Finalize: each event's per-shard slices are
  /// gathered, sorted, deduplicated and emitted, spread across the workers
  /// by event range. `out->matches[e]`
  /// is sorted by ObjectId, duplicate-free, and byte-identical for any
  /// shard/thread/boundary configuration — including while a rebalance is
  /// in flight. Per-shard metrics land in `out->per_shard` (shard order),
  /// aggregated into `out->total`; `per_shard[s].events_routed` counts the
  /// events dispatched to shard s, every entry carries the
  /// `resident_subscriptions` gauge, and under kRange
  /// `out->overflow_shard` names the overflow shard's entry
  /// (kNoOverflowShard for broadcast policies — explicitly absent, not
  /// silently zero). `out->routing_version` records the snapshot the batch
  /// ran under. A one-event batch runs on the calling thread (fanning one
  /// event's visits out would cost more than it saves). Every event's box
  /// must have the schema's dimensionality.
  /// An event SubscribeBox would refuse as a subscription (a NaN or
  /// infinite bound, or lo > hi) visits no shard and matches nothing; it
  /// still counts as an event of the batch.
  /// Reusing one result object across batches is allocation-free at steady
  /// state (capacity-preserving Clear + engine-pooled pipeline scratch).
  /// `policy` defaults to options.default_policy.
  void MatchBatch(Span<const Event> events, MatchBatchResult* out,
                  std::optional<MatchPolicy> policy = std::nullopt);

  /// Streaming variant: instead of materializing a MatchBatchResult, each
  /// event's sorted, deduplicated match set is pushed to `sink` once every
  /// shard visit of the batch has run — in arbitrary order, and possibly
  /// concurrently from several pool workers (see the MatchSink contract in
  /// api/batch.h). Emitted spans are
  /// byte-identical to what the materializing overload would have stored
  /// at the same event index. Engine metrics are recorded identically.
  void MatchBatch(Span<const Event> events, MatchSink* sink,
                  std::optional<MatchPolicy> policy = std::nullopt);

  /// Convenience: builds a point event from attribute values. Returns
  /// false when values do not cover the schema exactly.
  bool MakePointEvent(const std::vector<AttributeValue>& values,
                      Event* out) const;

  /// Convenience: builds a range event from predicates.
  bool MakeRangeEvent(const std::vector<AttributeRange>& ranges,
                      Event* out) const;

  // ---- Shard introspection ----
  size_t shard_count() const { return shards_.size(); }

  /// The underlying index of shard `s` (diagnostics: cluster counts, reorg
  /// stats). Not synchronized — quiesce matching before deep inspection.
  const AdaptiveIndex& shard_index(size_t s) const {
    return *shards_[s]->index;
  }

  /// Back-compatible single-index accessor: shard 0's index (the only
  /// shard when K == 1).
  const AdaptiveIndex& index() const { return *shards_[0]->index; }

  /// Shard of a live subscription, or shard_count() when unknown. During a
  /// migration's double-residency window this reports the source (the
  /// destination becomes the owner when the source copy is cleaned up).
  size_t ShardOf(SubscriptionId id) const;

  /// Per-shard load snapshot.
  struct ShardInfo {
    /// Subscriptions the current plan homes here (a mover counts at its
    /// destination from the moment its move is published).
    size_t subscriptions;
    size_t clusters;
    uint64_t routed_events;  ///< lifetime events dispatched to this shard
  };
  std::vector<ShardInfo> GetShardInfos() const;

  // ---- Range routing & online rebalancing (kRange only) ----

  /// True when the engine routes events by range (ShardingPolicy::kRange).
  bool range_routed() const { return range_routed_; }

  /// Copy of the current snapshot's interior boundary array (empty for
  /// other policies). Taken under an epoch pin; lock-free.
  std::vector<float> GetRangeBoundaries() const;

  /// Version of the current routing snapshot; bumped on every publish.
  uint64_t routing_version() const;

  /// Installs `bounds` (finite, strictly ascending, size shard_count()-2)
  /// as the boundary array and migrates every subscription whose target
  /// shard changed — including draining overflow subscriptions that no
  /// longer straddle. Returns false (and changes nothing) when the engine
  /// is not range-routed or the array is malformed.
  bool SetRangeBoundaries(const std::vector<float>& bounds);

  /// One forced fence re-plan: places the current dimension's interior
  /// fences with PlanFences over the mass (resident subscriptions, plus
  /// the sampled events when auto moves are configured) and migrates every
  /// subscription whose home changed (double-residency protocol; see the
  /// class comment). Returns true only when a fence moved, so a second
  /// call with no traffic in between is a fixed point. No-op (false) for
  /// non-range engines, K < 3, or an empty mass.
  bool RebalanceOnce();

  /// Lifetime rebalancing counters: a read of
  /// accl_rebalance_boundary_moves_total and
  /// accl_rebalance_subscriptions_migrated_total (safe from any thread,
  /// racy-exact like every obs::Counter read). Dimension switches are in
  /// adaptive_stats() and the accl_adapt_* counters.
  struct RebalanceStats {
    /// Fence re-plans applied (RebalanceOnce, periodic, or
    /// SetRangeBoundaries); one per move, however many fences it shifts.
    uint64_t boundary_moves = 0;
    uint64_t subscriptions_migrated = 0;
  };
  RebalanceStats rebalance_stats() const;

  // ---- Adaptive routing (kRange only; see api/adaptive_routing.h) ----

  /// Fence dimension of the current routing snapshot (0 for non-range
  /// engines). Taken under an epoch pin; lock-free.
  uint32_t routing_dimension() const;

  /// Manually re-fences routing on `dim` (the advisor's switch, forced):
  /// the interior fence positions are retained and every resident the new
  /// dimension routes elsewhere is migrated (double-residency protocol).
  /// Returns false for non-range engines or a dimension outside the
  /// schema; returns true without a migration when `dim` is already the
  /// fence dimension.
  bool SetRoutingDimension(uint32_t dim);

  /// Point-in-time view of the adaptive subsystem (valid — with
  /// enabled=false and live routing fields — even when the advisor is
  /// off).
  AdaptiveRoutingStats adaptive_stats() const;

  /// The planner's input (diagnostics and tests): the resident and event
  /// histograms. Null for non-range engines.
  const adapt::QueryPatternTracker* pattern_tracker() const {
    return tracker_.get();
  }

  // ---- Epoch subsystem introspection ----

  /// Waits for an in-flight move to finish (see the class comment), then
  /// blocks until every match pinned before that point has drained and
  /// reclaims retired routing snapshots. Afterwards every subscription has
  /// exactly one resident copy and shard_index() reflects the final plan.
  /// Useful for tests and orderly shutdown; never required for
  /// correctness.
  void SynchronizeEpochs();

  /// Test support: while held, every move stops just before its final
  /// publish, so events keep routing under its transitional snapshot for
  /// as long as a test needs instead of racing the migrator. Whatever
  /// waits for a move in flight (explicit routing calls, captures,
  /// SynchronizeEpochs, the next auto decision) waits for the release
  /// too; the destructor releases.
  void HoldMovesForTesting(bool hold);

  // ---- Observability (src/obs/) ----

  /// The engine-scoped metrics registry. Every instrumented component
  /// wired into this engine (epoch manager, WAL, checkpointer, log
  /// shipper) registers its metrics here under the accl_* naming scheme;
  /// the engine's own pipeline/rebalance/adaptive counters are
  /// registry-owned. Match statistics are read here: per call,
  /// accl_pipeline_events_total, accl_pipeline_matches_total and
  /// accl_pipeline_objects_verified_total count events, notifications and
  /// verified subscriptions, and accl_pipeline_batch_us times the call. Components attach on wiring (AttachDurability /
  /// SetCheckpointer / LogShipper::Create), so a volatile engine's
  /// registry simply has no accl_wal_*/accl_ckpt_*/accl_repl_* entries.
  obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Prometheus text exposition of the engine registry plus the
  /// process-default registry (kernel dispatch counters, heap-alloc
  /// gauge). Refreshes the point-in-time gauges (subscriptions, heap
  /// allocs) first.
  std::string DumpMetrics() const;

  /// The same combined metric set as one JSON object keyed by metric
  /// name (counters/gauges as numbers, histograms as
  /// {"count","sum","max","p50","p90","p99"}).
  std::string DumpMetricsJson() const;

  /// Chrome trace-event JSON from the process-wide flight recorder
  /// (loadable in Perfetto / chrome://tracing). Call with tracing
  /// disabled and matchers quiesced — the join of a completed
  /// MatchBatch's pool fan-outs orders every worker's ring writes before
  /// the caller's drain.
  std::string DumpTrace() const;

  /// Toggles the process-wide flight recorder (one relaxed atomic; the
  /// disabled hot path is a single predicted branch per site).
  static void SetTracing(bool on);
  static bool tracing_enabled();

  // ---- Durability (src/durability/) ----

  /// Attaches a write-ahead log: every later Subscribe/SubscribeBatch/
  /// Unsubscribe appends its record to `wal` and is acknowledged only
  /// once the record is durable (group commit; see durability/wal.h). On
  /// log failure the mutation is refused (kInvalidObject / empty id list /
  /// false) and never applied. Call while quiesced; `wal` is not owned
  /// and must outlive every later mutation.
  void AttachDurability(durability::WriteAheadLog* wal);

  /// Registers the checkpointer notified after every acknowledged
  /// mutation (drives its every-N-mutations scheduling). Not owned.
  void SetCheckpointer(durability::Checkpointer* cp);

  durability::WriteAheadLog* wal() const { return wal_; }

  /// Captures a checkpointable image: every live subscription (id + box),
  /// the routing fences/version, the id allocator, and the WAL applied
  /// low-water the image covers. Fuzzy with respect to concurrent
  /// mutations — it runs under an epoch pin and per-shard locks, so
  /// MatchBatch never stalls; a mutation racing the capture may or may
  /// not be included, and replaying the WAL tail past image.lsn
  /// (idempotently) reconstructs the exact engine either way. For kRange
  /// the capture first waits for an in-flight move and then holds the
  /// rebalance lock, so no migration's double-residency window can hide a
  /// subscription from the scan (each id is captured exactly once).
  void CaptureDurableImage(durability::EngineImage* out) const;

  /// Crash recovery factory: loads the newest valid checkpoint from
  /// `checkpoints` (null/absent/corrupt degrades to an empty image),
  /// rebuilds the shards through the grouped BulkInsert fast path, then
  /// replays `wal`'s surviving tail idempotently — records at or below
  /// the checkpoint LSN are gone (truncated) or skipped, and a subscribe
  /// whose id is already live (a fuzzy checkpoint captured an effect past
  /// its own LSN) is deduplicated by id. Returns nullptr with `*status`
  /// filled on invalid configuration or a checkpoint/schema dimensionality
  /// mismatch. The recovered engine is not yet attached to the WAL; see
  /// durability::OpenDurable for the fully wired path.
  static std::unique_ptr<SubscriptionEngine> Recover(
      AttributeSchema schema, EngineOptions options,
      durability::CheckpointStore* checkpoints, durability::WriteAheadLog* wal,
      Status* status = nullptr, RecoveryStats* recovery = nullptr);

  // ---- Replication (durability/shipping.h) ----

  /// A follower serves read-only traffic (Match/MatchBatch) while a log
  /// shipper replays the primary's records into it; every local mutation
  /// entry point refuses before allocating an id, so follower ids can only
  /// ever come from the replicated log. Promotion flips the role back —
  /// the engine object is reused warm, nothing is rebuilt.
  enum class EngineRole : uint8_t { kPrimary, kFollower };

  EngineRole role() const { return role_.load(std::memory_order_acquire); }
  void SetRole(EngineRole role) {
    role_.store(role, std::memory_order_release);
  }

  /// Applies one replicated (or replayed) WAL record with the same
  /// idempotence rules Recover uses: subscribes deduplicate by live id,
  /// unknown unsubscribes are no-ops, and the id allocator is bumped past
  /// every id the record names. A subscribe record holding a box
  /// SubscribeBatch would refuse (a non-finite bound, or lo > hi) is
  /// skipped whole. This is the follower's apply path (the log shipper
  /// calls it in LSN order) and the body of recovery's replay. `rs` (not
  /// null) accumulates applied/skipped counts.
  void ApplyReplicated(const durability::WalRecord& rec, RecoveryStats* rs);

 private:
  /// The boxes the engine accepts, as subscriptions and as events: every
  /// bound finite and lo <= hi in every dimension. Anything else would
  /// reach fence search, signature admission and the cluster statistics
  /// (or the tracker's event histograms) as garbage.
  static bool WellFormed(BoxView b);

  /// True when `fences` has `count` entries, every one finite, in
  /// strictly ascending order: the fence arrays a routing plan accepts.
  static bool FencesFit(const std::vector<float>& fences, size_t count);

  /// The routing function's parameters: which dimension the fences cut and
  /// where they sit. Value-copied into plans by the publishers, embedded
  /// immutably in the published snapshot.
  struct RoutingPlan {
    uint32_t dim = 0;           ///< fence dimension (kRange)
    std::vector<float> bounds;  ///< sorted interior fences (kRange)
  };

  struct Shard {
    explicit Shard(const AdaptiveConfig& cfg)
        : index(std::make_unique<AdaptiveIndex>(cfg)) {}
    std::mutex mu;  ///< serializes every index access (reads mutate stats)
    std::unique_ptr<AdaptiveIndex> index;
    /// Lifetime events the newest plan routes here (relaxed;
    /// observability). A transitional snapshot's extra union visits are
    /// not counted.
    std::atomic<uint64_t> routed{0};
    /// Subscriptions the newest plan homes here (relaxed, readable without
    /// the shard lock). A move re-counts its movers at their destinations
    /// when it is published, so this never depends on how far the
    /// migrator has got.
    std::atomic<size_t> subs{0};
    /// Newest plan while this shard is a scan source of the in-flight move
    /// (guarded by mu): it names each mover's destination, which
    /// ApplyUnsubscribe needs to charge `subs` and to find a double-
    /// resident copy.
    const RoutingPlan* moving_plan = nullptr;
    /// Raised while the migrator waits for or holds `mu` for a migration
    /// slice (relaxed; a scheduling hint, never a correctness condition):
    /// MatchBatch's first execute pass skips such a shard and returns to
    /// it after the others.
    std::atomic<bool> migrating{false};
  };

  /// Immutable routing state, published whole behind `snapshot_`. Readers
  /// obtain it under an epoch pin and never see it change; superseded
  /// snapshots are retired through the epoch manager.
  struct RoutingSnapshot {
    RoutingPlan plan;  ///< the newest plan: subscribes home by it
    /// Transitional snapshots only: the plan a move is leaving. Events
    /// route to the union of both plans' shards until the move's final
    /// snapshot replaces this one.
    std::optional<RoutingPlan> from;
    uint64_t version = 0;
    std::vector<Shard*> shards;   ///< handle table (Shard storage is stable)
  };

  /// Shard choice for one subscription. `plan` is only read by kRange
  /// (callers pass the routing snapshot they routed the rest of the
  /// operation with).
  uint32_t ShardFor(SubscriptionId id, BoxView box,
                    const RoutingPlan& plan) const;
  /// kRange home of a box under `plan`: its slice's shard, or the overflow
  /// shard for a fence straddler.
  uint32_t RangeShardFor(const RoutingPlan& plan, BoxView box) const;
  /// Shards an event must visit under `plan`: the slice span of its
  /// fence-dimension interval, then the overflow shard — ascending.
  void RouteEvent(const RoutingPlan& plan, const Box& box,
                  std::vector<uint32_t>* out) const;

  /// Publisher-side snapshot access; caller holds rebalance_mu_ (the only
  /// mutator), so a plain load is race-free.
  const RoutingSnapshot* SnapshotUnderRebalanceLock() const {
    return snapshot_.load(std::memory_order_acquire);
  }
  /// Allocates and publishes a snapshot with `plan` (transitional when
  /// `from` is set), retiring the old one through the epoch manager.
  /// Caller holds rebalance_mu_.
  void PublishSnapshot(RoutingPlan plan,
                       std::optional<RoutingPlan> from = std::nullopt);

  static Relation RelationFor(const Event& event, MatchPolicy policy);

  // ---- Two-phase batch pipeline (see MatchBatchImpl in the .cc) ----

  /// Reusable, engine-pooled per-batch pipeline state: the CSR queues, the
  /// per-shard output buffers and the finalize gather buffers. Defined in
  /// the .cc; pooled so concurrent MatchBatch callers each get their own
  /// while capacity survives across batches.
  struct PipelineScratch;

  /// Shared body of the two MatchBatch overloads and Match (a one-event
  /// call with an appending sink). Exactly one of
  /// `out`/`sink` is non-null: `out` materializes per-event matches,
  /// `sink` streams them (metrics then accumulate into pooled scratch).
  void MatchBatchImpl(Span<const Event> events, MatchPolicy policy,
                      MatchBatchResult* out, MatchSink* sink);
  std::unique_ptr<PipelineScratch> AcquireScratch();
  void ReleaseScratch(std::unique_ptr<PipelineScratch> s);

  /// The one insert path, under every subscribe, recovery restore and
  /// replicated apply: homes each (id, box) pair — `coords` is
  /// ids.size()*2*nd floats — by the newest plan, lands each target
  /// shard's group with one BulkInsert behind one lock acquisition, adds
  /// the boxes to the resident histogram, publishes the owner map and
  /// bumps next_id_ past the highest id. Runs after (or instead of) the
  /// WAL round trip.
  void ApplySubscribe(Span<const SubscriptionId> ids, const float* coords);
  bool ApplyUnsubscribe(SubscriptionId id);
  void NotifyCheckpointer(uint64_t mutations);

  /// Auto-move hook, called after every match entry point (with no epoch
  /// pinned: a decision that waits for an in-flight move would otherwise
  /// deadlock against that move's grace period). Every sample_window
  /// events (advisor on) it runs an advisor window, every
  /// rebalance_period events a fence re-plan; one evaluation begins at
  /// most one move.
  void MaybeAutoMove(uint64_t events);
  /// One advisor window over `pattern`: evaluate, begin at most one
  /// dimension switch. Caller holds `lk` on rebalance_mu_. Returns true
  /// when a switch was begun.
  bool EvaluateAdaptiveLocked(std::unique_lock<std::mutex>& lk,
                              const adapt::PatternSnapshot& pattern);
  /// One fence re-plan of the current dimension over `pattern`; caller
  /// holds `lk` on rebalance_mu_. `force` takes any plan that moves a
  /// fence; otherwise the current fences' largest load must be at least
  /// kRoutingSwitchThreshold times the plan's. Returns true when a fence moved;
  /// its move, if anything must migrate, is left staged (see
  /// BeginMoveLocked).
  bool ReplanFencesLocked(std::unique_lock<std::mutex>& lk,
                          const adapt::PatternSnapshot& pattern, bool force);

  // ---- The move routine (see the class comment's steps) ----

  /// A routing change past its scan: the movers per destination and per
  /// source, the scanned shards, and the plan being installed. Defined in
  /// the .cc.
  struct Move;
  /// Blocks (releasing `lk` on rebalance_mu_ meanwhile) until no move is
  /// in flight.
  void WaitForMoveLocked(std::unique_lock<std::mutex>& lk) const;
  /// Step (1): scans every shard for residents `plan` homes elsewhere
  /// (any fence or dimension change may re-route a resident of any shard),
  /// re-counts them at their destinations and publishes the transitional
  /// snapshot; the rest of the move is staged in `staged_move_` for
  /// FinishMove. A change that moves nothing publishes `plan` directly and
  /// stages nothing. Caller holds rebalance_mu_ with no move in flight.
  void BeginMoveLocked(RoutingPlan plan);
  /// Steps (2)-(5) of a staged move; takes rebalance_mu_ itself, for the
  /// final publish and to clear the in-flight state.
  void FinishMove(std::unique_ptr<Move> move);
  /// Explicit-call tail: runs the staged move, if any, on this thread
  /// after releasing `lk`.
  void RunStagedMove(std::unique_lock<std::mutex>& lk);
  /// Auto-trigger tail: hands the staged move, if any, to the migrator.
  void HandOffStagedMoveLocked();
  /// Body of the migrator thread.
  void MigratorLoop();

  /// Registry-owned handles for the engine's own metrics (pipeline,
  /// rebalance, adaptive, gauges); defined in the .cc.
  struct EngineObs;
  /// Re-computes the point-in-time gauges (subscription count, heap
  /// allocs) before a metrics export.
  void RefreshGaugesForDump() const;

  AttributeSchema schema_;
  EngineOptions options_;
  /// Engine-scoped metrics plane. Declared before every instrumented
  /// member (and before epoch_, whose AttachMetrics registers into it)
  /// so the registry is destroyed last.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<EngineObs> obs_;
  bool range_routed_ = false;
  /// kRange shard layout: shards 0..num_range_shards_-1 are the range
  /// slices and the last shard is the overflow shard. 0 for non-range
  /// engines (every shard is plain).
  uint32_t num_range_shards_ = 0;
  /// Durability hooks; null = volatile engine (the default). Set by
  /// AttachDurability/SetCheckpointer, read by the mutation entry points.
  durability::WriteAheadLog* wal_ = nullptr;
  durability::Checkpointer* checkpointer_ = nullptr;
  /// Replication role; mutation entry points refuse on a follower before
  /// allocating an id. Atomic so Promote's flip needs no mutation lock.
  std::atomic<EngineRole> role_{EngineRole::kPrimary};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<exec::ThreadPool> pool_;  ///< null when match_threads <= 1

  /// Current routing snapshot; swapped only under rebalance_mu_, read by
  /// matchers under an epoch pin. Never null after construction.
  std::atomic<const RoutingSnapshot*> snapshot_{nullptr};
  /// Reclamation epochs for snapshot readers (mutable: pinning is a
  /// logically-const read).
  mutable exec::EpochManager epoch_;

  /// Serializes routing decisions, move scans and snapshot publishes with
  /// kRange subscribes (held from routing through owner-map publish): a
  /// move's scan and transitional publish are therefore ordered strictly
  /// before or after every subscribe, so its scan either sees the insert
  /// or the subscribe homes by the new plan — a subscription can never be
  /// stranded in a shard the new table doesn't route to.
  mutable std::mutex rebalance_mu_;
  /// Move state, guarded by rebalance_mu_: a begun move not yet picked up
  /// by its finisher, and whether a move is between its scan and its last
  /// erase. move_done_cv_ signals the latter going false; migrate_cv_
  /// wakes the migrator for a staged move or shutdown.
  std::unique_ptr<Move> staged_move_;
  bool move_in_flight_ = false;
  bool migrator_stop_ = false;
  mutable std::condition_variable move_done_cv_;
  std::condition_variable migrate_cv_;
  /// HoldMovesForTesting's flag (guarded by rebalance_mu_) and the
  /// condition a held move waits on before its final publish.
  bool moves_held_ = false;
  std::condition_variable moves_held_cv_;
  /// The migrator thread (not joinable when no auto moves are configured).
  std::thread migrator_;
  /// kRange with rebalance_period > 0 or adaptive.enabled: events are
  /// sampled, MaybeAutoMove evaluates, and the migrator thread runs.
  bool auto_moves_ = false;
  /// Auto-move evaluation in-flight flag (mutex try_lock may fail
  /// spuriously, which would make deterministic replays skip evaluations
  /// at random).
  std::atomic<bool> move_eval_inflight_{false};
  std::atomic<uint64_t> events_since_replan_{0};
  std::atomic<uint64_t> events_since_window_{0};

  /// The planner's input: exists for every kRange engine. Advisor windows
  /// run only when options_.adaptive.enabled (SetRoutingDimension works
  /// without them), under rebalance_mu_.
  std::unique_ptr<adapt::QueryPatternTracker> tracker_;
  /// Most recent advisor window's per-dimension estimates; its own tiny
  /// lock so adaptive_stats() never waits behind a migration.
  mutable std::mutex adapt_estimates_mu_;
  std::vector<DimensionEstimate> last_estimates_;

  /// Guards next_id_ and shard_of_ — never taken by Match/MatchBatch.
  mutable std::mutex meta_mu_;
  SubscriptionId next_id_ = 0;
  /// Owner shard of each live subscription (needed by Unsubscribe, whose
  /// caller no longer has the box, and kept exact across migrations). Its
  /// top bit flags a mover whose destination copy exists too (double
  /// residency): Unsubscribe then erases both copies, and the move's
  /// cleanup flips the owner to the destination.
  FlatIdMap<uint32_t> shard_of_;
  std::atomic<size_t> subscription_count_{0};

  /// Freelist of pipeline scratch objects (capacity-preserving reuse
  /// across batches; one per concurrent MatchBatch caller at peak).
  mutable std::mutex scratch_pool_mu_;
  std::vector<std::unique_ptr<PipelineScratch>> scratch_pool_;
};

}  // namespace accl
