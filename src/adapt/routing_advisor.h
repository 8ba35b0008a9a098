// AdviseRouting — the decision layer of adaptive routing: each observation
// window it compares the SelectivityAnalyzer's per-dimension estimates and
// decides whether the engine should re-fence on another dimension, which
// the engine then applies through its migration machinery.
//
// Policy: if the best candidate dimension's predicted score beats the
// current fence dimension's by >= kRoutingSwitchThreshold, switch, with
// fences from SelectivityAnalyzer::PlanFences on the new dimension.
// Re-placing the current dimension's fences is not the advisor's call: the
// engine re-plans them with the same PlanFences every rebalance_period
// events (see SubscriptionEngine::RebalanceOnce).
//
// The decision is a pure function of the pattern snapshot, the current
// fence dimension and the slice count, so fuzz replays stay deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "api/adaptive_routing.h"
#include "api/types.h"

namespace accl::adapt {

/// One evaluated window's outcome.
struct RoutingDecision {
  /// Re-fence on `dim` with `fences`; false = keep routing as is.
  bool switch_dimension = false;
  uint32_t dim = 0;
  std::vector<float> fences;
  /// Analyzer output this decision was based on (one entry per dimension),
  /// surfaced in AdaptiveRoutingStats::last_estimates.
  std::vector<DimensionEstimate> estimates;
};

/// Evaluates one window for an engine whose live snapshot fences
/// `current_dim` into `range_slices` slices.
RoutingDecision AdviseRouting(const PatternSnapshot& pattern,
                              uint32_t current_dim, uint32_t range_slices);

}  // namespace accl::adapt
