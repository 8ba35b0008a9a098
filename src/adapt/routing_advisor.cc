#include "adapt/routing_advisor.h"

#include <utility>

#include "adapt/selectivity.h"

namespace accl::adapt {

RoutingDecision AdviseRouting(const PatternSnapshot& pattern,
                              uint32_t current_dim, uint32_t range_slices) {
  RoutingDecision d;
  if (pattern.events == 0 || pattern.subscriptions == 0 || range_slices < 2) {
    return d;  // nothing observed yet, or a single slice: nothing to route
  }
  d.estimates = SelectivityAnalyzer::Analyze(pattern, range_slices);
  if (d.estimates.empty() || current_dim >= d.estimates.size()) return d;

  size_t best = current_dim;
  for (size_t cand = 0; cand < d.estimates.size(); ++cand) {
    if (d.estimates[cand].score < d.estimates[best].score) best = cand;
  }
  const double current_score = d.estimates[current_dim].score;
  const double best_score = d.estimates[best].score;
  if (best == current_dim || best_score <= 0.0 ||
      current_score < kRoutingSwitchThreshold * best_score) {
    return d;
  }
  std::vector<float> fences = SelectivityAnalyzer::PlanFences(
      pattern, static_cast<Dim>(best), range_slices - 1);
  if (fences.size() == range_slices - 1) {
    d.switch_dimension = true;
    d.dim = static_cast<uint32_t>(best);
    d.fences = std::move(fences);
  }
  return d;
}

}  // namespace accl::adapt
