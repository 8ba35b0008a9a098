#include "adapt/selectivity.h"

#include <algorithm>

namespace accl::adapt {

namespace {

/// Cumulative endpoint counts: out[t] = number of endpoints in bins
/// [0, t), i.e. endpoints strictly below the bin boundary t/kPatternBins.
void Cumulate(const std::array<uint64_t, kPatternBins>& bins,
              std::array<uint64_t, kPatternBins + 1>* out) {
  (*out)[0] = 0;
  for (size_t b = 0; b < kPatternBins; ++b) {
    (*out)[b + 1] = (*out)[b] + bins[b];
  }
}

/// Uniform interior fences: j/(n+1) for j = 1..n. Strictly ascending for
/// any n < kPatternBins-scale counts the engine accepts.
std::vector<float> UniformFences(size_t n_fences) {
  std::vector<float> f(n_fences);
  for (size_t j = 0; j < n_fences; ++j) {
    f[j] = static_cast<float>(j + 1) / static_cast<float>(n_fences + 1);
  }
  return f;
}

/// Cumulative endpoint counts of the mass on `dim`: resident
/// subscriptions plus sampled events.
void CumulateMass(const PatternSnapshot& p, Dim dim,
                  std::array<uint64_t, kPatternBins + 1>* lo,
                  std::array<uint64_t, kPatternBins + 1>* hi) {
  std::array<uint64_t, kPatternBins> lo_bins = p.sub_dims[dim].lo;
  std::array<uint64_t, kPatternBins> hi_bins = p.sub_dims[dim].hi;
  for (size_t b = 0; b < kPatternBins; ++b) {
    lo_bins[b] += p.event_dims[dim].lo[b];
    hi_bins[b] += p.event_dims[dim].hi[b];
  }
  Cumulate(lo_bins, lo);
  Cumulate(hi_bins, hi);
}

/// Bin-boundary indices (1..kPatternBins-1) of the planned fences for
/// `dim`, shared by Analyze (to price the plan) and PlanFences (to emit
/// it). Empty when the mass is too degenerate for a strictly ascending
/// quantile plan — callers fall back to uniform fences.
std::vector<size_t> QuantileBoundaries(const PatternSnapshot& p, Dim dim,
                                       size_t n_fences) {
  std::array<uint64_t, kPatternBins + 1> cum_lo, cum_hi;
  CumulateMass(p, dim, &cum_lo, &cum_hi);
  // Center mass below boundary t, doubled to stay integral: a box whose
  // endpoints both lie below t contributes 2, one spanning t contributes
  // 1 — exactly twice the "half the box is below t" center approximation.
  const uint64_t total2 = cum_lo[kPatternBins] + cum_hi[kPatternBins];
  if (total2 == 0 || n_fences == 0) return {};
  std::vector<size_t> bounds;
  bounds.reserve(n_fences);
  size_t t = 1;
  for (size_t j = 1; j <= n_fences; ++j) {
    // Smallest boundary with at least j/(n+1) of the center mass below it.
    const uint64_t target = total2 * j / (n_fences + 1);
    while (t < kPatternBins && cum_lo[t] + cum_hi[t] < target) ++t;
    // Strict ascent: a boundary colliding with its predecessor (a single
    // bin holding multiple quantiles) is nudged right.
    if (!bounds.empty() && t <= bounds.back()) t = bounds.back() + 1;
    if (t >= kPatternBins) return {};  // ran off the domain: degenerate
    bounds.push_back(t);
    ++t;
  }
  return bounds;
}

/// Endpoints below coordinate `x`: the bins wholly below it, plus the bin
/// holding it pro rata (exact for a fence on a bin boundary). Clamped like
/// PatternBinOf, NaN included.
double CumAt(const std::array<uint64_t, kPatternBins + 1>& cum, float x) {
  const double pos =
      x > 0.0f ? std::min(static_cast<double>(x) * kPatternBins,
                          static_cast<double>(kPatternBins))
               : 0.0;
  const size_t t = std::min(static_cast<size_t>(pos), kPatternBins - 1);
  return static_cast<double>(cum[t]) +
         (pos - static_cast<double>(t)) *
             static_cast<double>(cum[t + 1] - cum[t]);
}

}  // namespace

std::vector<DimensionEstimate> SelectivityAnalyzer::Analyze(
    const PatternSnapshot& p, uint32_t slices) {
  const size_t nd = p.event_dims.size();
  std::vector<DimensionEstimate> est(nd);
  if (p.events == 0 || p.subscriptions == 0 || slices < 1) return est;
  const size_t n_fences = static_cast<size_t>(slices) - 1;
  for (size_t d = 0; d < nd; ++d) {
    std::vector<size_t> bounds =
        QuantileBoundaries(p, static_cast<Dim>(d), n_fences);
    if (bounds.empty() && n_fences > 0) {
      // Degenerate mass: price the uniform fallback PlanFences would emit.
      bounds.resize(n_fences);
      for (size_t j = 0; j < n_fences; ++j) {
        bounds[j] = std::max<size_t>(
            1, (j + 1) * kPatternBins / (n_fences + 1));
        if (j > 0 && bounds[j] <= bounds[j - 1]) bounds[j] = bounds[j - 1] + 1;
        bounds[j] = std::min(bounds[j], kPatternBins - 1);
      }
    }
    std::array<uint64_t, kPatternBins + 1> ev_lo, ev_hi, sub_lo, sub_hi;
    Cumulate(p.event_dims[d].lo, &ev_lo);
    Cumulate(p.event_dims[d].hi, &ev_hi);
    Cumulate(p.sub_dims[d].lo, &sub_lo);
    Cumulate(p.sub_dims[d].hi, &sub_hi);
    uint64_t ev_crossings = 0;
    uint64_t sub_crossings = 0;
    for (const size_t t : bounds) {
      ev_crossings += ev_lo[t] - ev_hi[t];
      sub_crossings += sub_lo[t] - sub_hi[t];
    }
    DimensionEstimate& e = est[d];
    e.expected_shard_visits =
        1.0 +
        static_cast<double>(ev_crossings) / static_cast<double>(p.events) +
        1.0;  // home slice + crossed fences + the overflow visit
    e.straddler_fraction =
        std::min(1.0, static_cast<double>(sub_crossings) /
                          static_cast<double>(p.subscriptions));
    e.score = e.expected_shard_visits +
              e.straddler_fraction * static_cast<double>(slices);
  }
  return est;
}

std::vector<float> SelectivityAnalyzer::PlanFences(const PatternSnapshot& p,
                                                   Dim dim, size_t n_fences) {
  if (n_fences == 0) return {};
  const std::vector<size_t> bounds = QuantileBoundaries(p, dim, n_fences);
  if (bounds.empty()) return UniformFences(n_fences);
  std::vector<float> fences(n_fences);
  for (size_t j = 0; j < n_fences; ++j) {
    fences[j] =
        static_cast<float>(bounds[j]) / static_cast<float>(kPatternBins);
  }
  return fences;
}

double SelectivityAnalyzer::MaxLoad(const PatternSnapshot& p, Dim dim,
                                    const std::vector<float>& fences) {
  std::array<uint64_t, kPatternBins + 1> cum_lo, cum_hi;
  CumulateMass(p, dim, &cum_lo, &cum_hi);
  // Slice i spans [fences[i-1], fences[i]): it holds the intervals ending
  // below its upper fence minus those starting below its lower one.
  // Crossing fence f: starting below it minus ending below it.
  double max_load = 0.0;
  double overflow = 0.0;
  double lo_below = 0.0;  // starts below the slice's lower fence
  for (size_t i = 0; i <= fences.size(); ++i) {
    const double hi_below = i < fences.size()
                                ? CumAt(cum_hi, fences[i])
                                : static_cast<double>(cum_hi[kPatternBins]);
    max_load = std::max(max_load, hi_below - lo_below);
    if (i == fences.size()) break;
    lo_below = CumAt(cum_lo, fences[i]);
    overflow += std::max(0.0, lo_below - hi_below);
  }
  return std::max(max_load, overflow);
}

}  // namespace accl::adapt
