#include "adapt/routing_advisor.h"

#include "adapt/selectivity.h"

namespace accl::adapt {

RoutingDecision RoutingAdvisor::Evaluate(const PatternSnapshot& pattern,
                                         const AdvisorState& state) {
  RoutingDecision d;
  if (pattern.events == 0 || pattern.subscriptions == 0 ||
      state.range_slices < 2) {
    return d;  // nothing observed yet, or a single slice: nothing to route
  }
  d.estimates = SelectivityAnalyzer::Analyze(pattern, state.range_slices);
  if (d.estimates.empty() || state.current_dim >= d.estimates.size()) {
    return d;
  }

  // --- 1. Dimension switch -------------------------------------------------
  size_t best = state.current_dim;
  for (size_t cand = 0; cand < d.estimates.size(); ++cand) {
    if (d.estimates[cand].score < d.estimates[best].score) best = cand;
  }
  const double current_score = d.estimates[state.current_dim].score;
  const double best_score = d.estimates[best].score;
  if (best != state.current_dim && best_score > 0.0 &&
      current_score >= kRoutingSwitchThreshold * best_score) {
    std::vector<float> fences = SelectivityAnalyzer::PlanFences(
        pattern, static_cast<Dim>(best), state.range_slices - 1);
    if (fences.size() == state.range_slices - 1) {
      d.kind = RoutingDecision::Kind::kSwitchDimension;
      d.dim = static_cast<uint32_t>(best);
      d.fences = std::move(fences);
      straddle_streak_ = 0;  // new fences change who straddles
      return d;
    }
  }

  // --- 2. Overflow split ---------------------------------------------------
  if (state.split_active || state.split_slices == 0 ||
      state.total_subscriptions == 0) {
    straddle_streak_ = 0;
    return d;
  }
  const double pressure = static_cast<double>(state.overflow_residents) /
                          static_cast<double>(state.total_subscriptions);
  if (pressure < kSplitStraddlerThreshold) {
    straddle_streak_ = 0;
    return d;
  }
  if (++straddle_streak_ < kSplitPatience) return d;

  // Split dimension: the best-scoring non-fence dimension.
  size_t split_dim = d.estimates.size();
  for (size_t cand = 0; cand < d.estimates.size(); ++cand) {
    if (cand == state.current_dim) continue;
    if (split_dim == d.estimates.size() ||
        d.estimates[cand].score < d.estimates[split_dim].score) {
      split_dim = cand;
    }
  }
  if (split_dim == d.estimates.size()) return d;  // nd == 1: cannot split
  // Split fences slice the *straddler* population; the mass histograms
  // of the split dimension are the closest stand-in the tracker keeps. S sub-shards
  // need S-1 interior fences; PlanFences' uniform fallback guarantees a
  // valid plan, and S == 1 (zero fences -> empty plan) still routes
  // single-slice straddlers out of the catch-all.
  d.kind = RoutingDecision::Kind::kSplitOverflow;
  d.dim = static_cast<uint32_t>(split_dim);
  d.fences = SelectivityAnalyzer::PlanFences(
      pattern, static_cast<Dim>(split_dim), state.split_slices - 1);
  straddle_streak_ = 0;
  return d;
}

}  // namespace accl::adapt
