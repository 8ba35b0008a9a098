// RoutingAdvisor — the decision layer of adaptive routing: each
// observation window it compares the SelectivityAnalyzer's per-dimension
// estimates and emits at most ONE routing change for the engine to apply
// through its migration machinery.
//
// Policy, in priority order:
//   1. Dimension switch: if the best candidate dimension's predicted score
//      beats the current fence dimension's by >= kRoutingSwitchThreshold,
//      switch, with fences from SelectivityAnalyzer::PlanFences on the new
//      dimension. A switch resets the split-patience streak (the new
//      fences change who straddles).
//   2. Overflow split: if no switch fires, the current dimension is
//      (near-)optimal, and straddler pressure — overflow residents over
//      all subscriptions — has stayed >= kSplitStraddlerThreshold for
//      kSplitPatience consecutive windows, split the overflow shard on a
//      second dimension: the best-scoring dimension other than the fence
//      dimension.
// Re-placing the current dimension's fences is not the advisor's call:
// the engine re-plans them with the same PlanFences every
// rebalance_period events (see SubscriptionEngine::RebalanceOnce).
//
// The advisor is sequential state (streak counters) driven from exactly
// one call site, the engine's adapt evaluation under rebalance_mu_ — it
// needs and has no internal locking. Decisions are pure functions of the
// snapshot + state handed in, keeping fuzz replays deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "api/adaptive_routing.h"
#include "api/types.h"

namespace accl::adapt {

/// Engine-side facts the advisor needs for one evaluation.
struct AdvisorState {
  uint32_t current_dim = 0;      ///< fence dimension of the live snapshot
  bool split_active = false;     ///< overflow split already in effect
  uint32_t range_slices = 0;     ///< R: range slices under the fences
  uint32_t split_slices = 0;     ///< S: sub-shards available for a split
  /// Observed straddlers: residents of the overflow shard(s) right now.
  uint64_t overflow_residents = 0;
  uint64_t total_subscriptions = 0;
};

/// One evaluated window's outcome.
struct RoutingDecision {
  enum class Kind : uint8_t {
    kNone = 0,          ///< keep routing as is
    kSwitchDimension,   ///< re-fence on `dim` with `fences`
    kSplitOverflow,     ///< split the overflow shard on `dim` with `fences`
  };
  Kind kind = Kind::kNone;
  uint32_t dim = 0;
  std::vector<float> fences;
  /// Analyzer output this decision was based on (one entry per dimension),
  /// surfaced in AdaptiveRoutingStats::last_estimates.
  std::vector<DimensionEstimate> estimates;
};

class RoutingAdvisor {
 public:
  /// Evaluates one window. Not thread-safe: single caller, engine-locked.
  RoutingDecision Evaluate(const PatternSnapshot& pattern,
                           const AdvisorState& state);

  /// Consecutive windows at or above the straddler threshold so far.
  uint32_t straddle_streak() const { return straddle_streak_; }

 private:
  uint32_t straddle_streak_ = 0;
};

}  // namespace accl::adapt
