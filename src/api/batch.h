// Batch request/response types shared by the sharded matching subsystem.
//
// The SDI engine's batched API fans one span of events across K index
// shards and merges per-shard answers deterministically; these are the
// transport types for that path: the per-batch result carrying
// ObjectId-sorted match sets and the per-shard metrics aggregation the
// benchmarks and tests consume, plus the streaming MatchSink consumer for
// callers that want each event's matches pushed to them instead of
// materialized into one result object. (Span itself lives in api/span.h
// so lower layers can use it without these types.)
#pragma once

#include <cstddef>
#include <vector>

#include "api/metrics.h"
#include "api/span.h"
#include "api/types.h"

namespace accl {

/// Aggregated execution metrics of one shard over a batch (or a lifetime):
/// the shard's summed QueryMetrics plus how many event×shard executions
/// contributed, so ratios stay computable after merging.
struct ShardMetrics {
  QueryMetrics totals;
  uint64_t executions = 0;
  /// Events dispatched to this shard by the batch router. Broadcast
  /// policies route every event to every shard, so this equals the batch
  /// size; range-routed dispatch visits only the shards whose key slice an
  /// event overlaps (plus the overflow shard), so summing this across
  /// shards measures routing selectivity — shard-visits per event — which
  /// is the quantity the routed engine exists to shrink.
  uint64_t events_routed = 0;
  /// Point-in-time gauge: subscriptions resident in this shard when the
  /// batch was dispatched. Populated for every shard under every sharding
  /// policy. Merge keeps the max (it is a gauge, not a counter).
  uint64_t resident_subscriptions = 0;

  void Add(const QueryMetrics& m) {
    totals += m;
    ++executions;
  }
  void Merge(const ShardMetrics& o) {
    totals += o.totals;
    executions += o.executions;
    events_routed += o.events_routed;
    if (o.resident_subscriptions > resident_subscriptions) {
      resident_subscriptions = o.resident_subscriptions;
    }
  }
  void Clear() { *this = ShardMetrics(); }
};

/// Streaming consumer for batched matching: the engine calls
/// OnEventMatches exactly once per event of the batch, once every shard
/// visit of the batch has run — in arbitrary event order, possibly
/// concurrently from several pool workers. Implementations must therefore
/// be thread-safe across *different* event indices (the engine never
/// emits the same index twice, so per-index slots need no locking). The
/// span is only valid for the duration of the call. The ids are sorted
/// ascending by ObjectId and duplicate-free — byte-identical to what
/// MatchBatchResult::matches[event_index] would have held.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void OnEventMatches(size_t event_index,
                              Span<const ObjectId> matches,
                              uint64_t objects_verified) = 0;
};

/// The trivial MatchSink: copies each event's matches into a preallocated
/// per-event slot. Lock-free — the engine's exactly-once-per-index contract
/// makes the writes disjoint. Useful for tests and as the materialization
/// baseline a custom sink is measured against.
class VectorMatchSink final : public MatchSink {
 public:
  VectorMatchSink() = default;
  explicit VectorMatchSink(size_t n_events) { Reset(n_events); }

  /// Sizes the per-event slots (capacity-preserving across batches).
  void Reset(size_t n_events) {
    for (auto& m : matches_) m.clear();
    matches_.resize(n_events);
    verified_.assign(n_events, 0);
  }

  void OnEventMatches(size_t event_index, Span<const ObjectId> matches,
                      uint64_t objects_verified) override {
    matches_[event_index].assign(matches.begin(), matches.end());
    verified_[event_index] = objects_verified;
  }

  const std::vector<std::vector<ObjectId>>& matches() const {
    return matches_;
  }
  const std::vector<uint64_t>& verified() const { return verified_; }

 private:
  std::vector<std::vector<ObjectId>> matches_;
  std::vector<uint64_t> verified_;
};

/// Result of matching a batch of events against a (possibly sharded) engine.
///
/// `matches[e]` holds the ids notified by event `e`, sorted ascending by
/// ObjectId — the deterministic merge order, byte-identical regardless of
/// shard count or thread count.
struct MatchBatchResult {
  /// Sentinel for `overflow_shard`: the dispatching policy has no overflow
  /// shard (broadcast policies).
  static constexpr size_t kNoOverflowShard = static_cast<size_t>(-1);

  std::vector<std::vector<ObjectId>> matches;  ///< per event, id-sorted
  std::vector<ShardMetrics> per_shard;         ///< indexed by shard
  QueryMetrics total;                          ///< sum over shards & events
  /// Index into `per_shard` of the overflow shard the batch was routed
  /// with, or kNoOverflowShard when the policy has none (broadcast). Its
  /// entry's `resident_subscriptions` is the straddler pressure — fences
  /// repeatedly cutting dense regions push subscriptions there, and every
  /// routed event pays an overflow visit — explicitly absent rather than
  /// silently zero for non-range policies.
  size_t overflow_shard = kNoOverflowShard;
  /// Version of the routing snapshot the whole batch was dispatched with
  /// (one consistent snapshot per batch; 0 for an empty batch).
  /// Non-decreasing across a single caller's batches — a later batch can
  /// never observe an older routing table.
  uint64_t routing_version = 0;

  /// Logically empties the result while PRESERVING allocated capacity: the
  /// per-event match vectors and per-shard entries are cleared in place,
  /// not destroyed, so a result object reused across batches of similar
  /// shape performs no allocations after the first. `matches.size()` /
  /// `per_shard.size()` are therefore a capacity artifact after Clear —
  /// the engine resizes both to the next batch's shape before filling
  /// them. (Allocation churn on the batch path was a measured wall-clock
  /// cost; MatchPipeline.ResultReuseIsCapacityPreserving and
  /// MatchPipeline.SteadyStateBatchesStayUnderTheAllocationBound gate it.)
  void Clear() {
    for (auto& m : matches) m.clear();
    for (auto& s : per_shard) s.Clear();
    total.Clear();
    overflow_shard = kNoOverflowShard;
    routing_version = 0;
  }

  /// Recomputes `total` as the shard-order sum of `per_shard` (the
  /// deterministic aggregation the engine uses after the fan-outs join).
  void AggregateShards() {
    total.Clear();
    for (const ShardMetrics& s : per_shard) total += s.totals;
  }

  /// Total shard visits the router dispatched for this batch. Broadcast
  /// dispatch pays events × shards; range-routed dispatch strictly less on
  /// selective workloads.
  uint64_t TotalShardVisits() const {
    uint64_t v = 0;
    for (const ShardMetrics& s : per_shard) v += s.events_routed;
    return v;
  }
};

}  // namespace accl
