// SelectivityAnalyzer — predicts, for every candidate fence dimension,
// what range routing would cost if the fences were placed there.
//
// Pure functions over a PatternSnapshot: no locks, no engine state, fully
// deterministic — the advisor's decisions (and therefore the fuzzers'
// replays) are reproducible from the histogram contents alone.
//
// The model, per dimension d with R range slices:
//
//   - Fence placement: R-1 interior fences at equal-mass quantiles of the
//     interval-center distribution of the *mass*: the resident
//     subscriptions plus the sampled events (approximated at bin
//     resolution by the mean of the lower- and upper-endpoint cumulative
//     histograms). The estimate prices the plan PlanFences would emit,
//     and the engine places every fence with that plan.
//   - Expected shard visits per event: an event visits one slice per fence
//     its interval crosses, plus its home slice, plus the overflow shard.
//     Intervals crossing fence f at bin boundary t number
//     count(lo < t) - count(hi < t) — exact at bin resolution.
//   - Straddler fraction: subscriptions crossing >= 1 fence would live in
//     the overflow shard. Summed per fence and clamped to 1 (a box
//     crossing two fences is counted twice; the overestimate is shared by
//     every candidate dimension, so the comparison stays fair).
//   - Score: expected visits + straddler_fraction * R. Every event visits
//     the overflow shard, so an overflow holding fraction f of all
//     subscriptions adds ~f of a broadcast's verification work — pricing
//     it as f extra "slice-equivalents" keeps a dimension that routes
//     narrowly but straddles everything from winning.
#pragma once

#include <cstdint>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "api/adaptive_routing.h"
#include "api/types.h"

namespace accl::adapt {

class SelectivityAnalyzer {
 public:
  /// Per-dimension estimates under an optimal fence set of `slices` range
  /// slices. Returns one entry per dimension of `p`; all-zero estimates
  /// when the snapshot holds no events or no subscriptions.
  static std::vector<DimensionEstimate> Analyze(const PatternSnapshot& p,
                                                uint32_t slices);

  /// Equal-mass quantile fence plan for dimension `dim`: `n_fences`
  /// strictly ascending interior fences at bin-boundary resolution.
  /// Degenerate mass (everything in a handful of bins) falls back to a
  /// uniform split so the result is always a valid boundary array.
  static std::vector<float> PlanFences(const PatternSnapshot& p, Dim dim,
                                       size_t n_fences);

  /// Largest mass one shard would hold under `fences` on `dim`: each
  /// interval of the mass goes where a subscription with its extent would
  /// live — the slice that contains it, or the overflow shard when it
  /// crosses a fence. Priced at bin resolution (a fence inside a bin
  /// splits that bin's endpoints pro rata), with an interval crossing two
  /// fences counted once per fence, as Analyze counts straddlers.
  static double MaxLoad(const PatternSnapshot& p, Dim dim,
                        const std::vector<float>& fences);
};

}  // namespace accl::adapt
