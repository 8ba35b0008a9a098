// Configuration and statistics types of the workload-adaptive routing
// subsystem (src/adapt/): online fence-dimension selection and
// overflow-shard splitting for the range-routed SDI engine.
//
// The paper's index adapts each cluster to its observed queries; these
// types lift the same idea one level up, to the *routing* layer. kRange
// slices shards over one fence dimension — historically the hard-coded
// leading dimension — and parks fence-straddlers in an overflow shard.
// When the workload's real selectivity lives on another axis, routing
// degrades toward broadcast. The adaptive subsystem observes event and
// subscription interval distributions per dimension (QueryPatternTracker),
// predicts each candidate dimension's routing selectivity under an optimal
// fence set (SelectivityAnalyzer), and switches the fence dimension or
// splits the overflow shard online (RoutingAdvisor), through the same
// epoch-snapshot + double-residency migration machinery every routing
// change uses — so match sets stay byte-identical to the serial oracle at
// every instant.
//
// The fence starts on dimension 0. The hysteresis and split trigger below
// are constants: no workload needs other values, and each would be one more
// input to reason about when diagnosing a routing decision.
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

/// Overflow-split trigger: straddler pressure (catch-all overflow residents
/// as a fraction of all subscriptions) must reach this level...
inline constexpr double kSplitStraddlerThreshold = 0.25;

/// ...for this many consecutive advisor windows before the overflow shard
/// is split on a second dimension (straddler pressure under well-placed
/// fences is a steady-state property, not a one-window blip). The advisor
/// splits on the most selective dimension other than the fence dimension.
inline constexpr uint32_t kSplitPatience = 2;

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

  /// Overflow sub-shards reserved for splitting (0 = splitting disabled;
  /// requires kRange when > 0). The engine allocates these physically at
  /// construction; they stay empty and unvisited until a split activates.
  /// With a split on dimension d2, a straddler whose d2 interval fits one
  /// split slice lives in that sub-shard and an event visits only the
  /// sub-shards its own d2 interval overlaps — the catch-all overflow
  /// shard keeps only double-straddlers.
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
  /// Overflow-split dimension of the current snapshot, or -1 when the
  /// split is inactive.
  int32_t split_dimension = -1;
  uint64_t dimension_switches = 0;
  uint64_t overflow_splits = 0;
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
