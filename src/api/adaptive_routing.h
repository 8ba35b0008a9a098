// Configuration and statistics types of the workload-adaptive routing
// subsystem (src/adapt/): online fence-dimension selection for the
// range-routed SDI engine.
//
// The paper's index adapts each cluster to its observed queries; these
// types lift the same idea one level up, to the *routing* layer. kRange
// slices shards over one fence dimension — historically the hard-coded
// leading dimension — and parks fence-straddlers in an overflow shard.
// When the workload's real selectivity lives on another axis, routing
// degrades toward broadcast. The adaptive subsystem observes event and
// subscription interval distributions per dimension (QueryPatternTracker),
// predicts each candidate dimension's routing selectivity under an optimal
// fence set (SelectivityAnalyzer), and switches the fence dimension online
// (adapt::AdviseRouting), through the same epoch-snapshot + double-residency
// migration machinery every routing change uses — so match sets stay
// byte-identical to the serial oracle at every instant.
//
// The fence starts on dimension 0. The hysteresis below is a constant: no
// workload needs another value, and it would be one more input to reason
// about when diagnosing a routing decision.
//
// These types live in api/ so the engine's options/stats surface does not
// depend on the adapt/ implementation layer.
#pragma once

#include <cstdint>
#include <vector>

namespace accl {

/// The hysteresis of every automatic move. A dimension switch requires the
/// current dimension's predicted cost to be at least this multiple of the
/// best candidate's (switch only for a predicted >= 1.5x selectivity win),
/// and a periodic fence re-plan (EngineOptions::rebalance_period) requires
/// the current fences' largest shard load to be at least this multiple of
/// the plan's. At 1 or less, estimation noise would move the routing back
/// and forth at every evaluation.
inline constexpr double kRoutingSwitchThreshold = 1.5;

/// Knobs of the adaptive routing subsystem (EngineOptions::adaptive).
/// Validated by SubscriptionEngine::ValidateOptions; every violation is a
/// descriptive Status from Create, never a crash in the first window.
struct AdaptiveRoutingOptions {
  /// Master switch. Requires ShardingPolicy::kRange. Off by default: the
  /// tracker's sampling is cheap but not free, and non-range policies have
  /// no routing dimension to adapt.
  bool enabled = false;

  /// Events between advisor evaluations (the observation window). Each
  /// window the advisor snapshots the pattern histograms, re-estimates
  /// per-dimension selectivity, and may execute one routing change. Must
  /// be >= 1 when enabled (a zero window would evaluate on every event).
  uint32_t sample_window = 4096;

  /// Ignored: nothing reads it, and it allocates no shard. It remains only
  /// because perfbench/src/match_stream.cc still sets it; ROADMAP item 8
  /// deletes the field together with that line.
  uint32_t overflow_split_shards = 0;
};

/// What the analyzer predicts for routing on one candidate dimension,
/// assuming equal-mass quantile fences on that dimension.
struct DimensionEstimate {
  /// Expected shards visited per event: the fences an average event's
  /// interval crosses, plus its home slice, plus the overflow visit.
  double expected_shard_visits = 0.0;
  /// Fraction of subscriptions predicted to straddle at least one fence
  /// (they would live in the overflow shard, which every event visits).
  double straddler_fraction = 0.0;
  /// Comparable routing cost: expected_shard_visits plus the straddler
  /// fraction weighted by the slice count (an overflow shard holding
  /// fraction f of all subscriptions costs an event roughly f times a
  /// broadcast's verification work). Lower is better.
  double score = 0.0;
};

/// Point-in-time view of the adaptive subsystem
/// (SubscriptionEngine::adaptive_stats()).
struct AdaptiveRoutingStats {
  bool enabled = false;
  /// Fence dimension of the current routing snapshot.
  uint32_t fence_dimension = 0;
  uint64_t dimension_switches = 0;
  /// Advisor windows evaluated (each may or may not act).
  uint64_t windows_evaluated = 0;
  /// Lifetime samples the tracker has folded in.
  uint64_t events_observed = 0;
  uint64_t subscriptions_observed = 0;
  /// Per-dimension estimates of the most recent advisor window (empty
  /// until the first window completes).
  std::vector<DimensionEstimate> last_estimates;
};

}  // namespace accl
