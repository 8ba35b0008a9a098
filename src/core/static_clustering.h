// Offline (static) cost-based clustering.
//
// The paper's related work (§2) discusses optimal clustering of a *static*
// collection when data and query distributions are known in advance (Pagel,
// Six & Winter, PODS'95). This module provides that comparison point and a
// practical warm-start: given the full dataset and a representative query
// sample, it runs the same greedy candidate-materialization the adaptive
// index performs online — but with exact measured access frequencies
// instead of incrementally gathered statistics — and emits a cluster layout
// loadable via AdaptiveIndex::FromImages.
//
// Uses: (a) an ablation baseline isolating the cost of *learning* the
// statistics online, (b) bulk-loading a new index so it starts converged.
#pragma once

#include <vector>

#include "core/adaptive_index.h"
#include "geometry/query.h"
#include "workload/dataset.h"

namespace accl {

/// Options for the static clusterer.
struct StaticClusteringOptions {
  StorageScenario scenario = StorageScenario::kMemory;
  SystemParams sys = SystemParams::Paper();
  uint32_t division_factor = 4;
};

/// Recursion bound of the static clusterer (a materialized chain refines
/// signatures; depth beyond this is never profitable in practice). Its
/// other safeguards are the adaptive index's kMinSplitObjects,
/// kSplitProbabilityRatio and kMinSplitBenefitMs.
inline constexpr uint32_t kStaticMaxDepth = 32;

/// Result of static clustering.
struct StaticClustering {
  std::vector<ClusterImage> images;
  /// Modeled average query time of the produced layout, evaluated against
  /// the query sample (same T = A + p(B + nC) aggregation the adaptive
  /// index minimizes).
  double expected_query_ms = 0.0;
  size_t cluster_count = 0;
};

/// Builds the layout. `sample` must be non-empty and drawn from the target
/// query distribution; probabilities are exact frequencies over it.
StaticClustering BuildStaticClustering(const Dataset& data,
                                       const std::vector<Query>& sample,
                                       const StaticClusteringOptions& options);

/// Convenience: builds the layout and loads it into a ready index.
/// `cfg` supplies the runtime configuration (nd must match the dataset).
std::unique_ptr<AdaptiveIndex> BuildStaticIndex(
    const Dataset& data, const std::vector<Query>& sample,
    const StaticClusteringOptions& options, const AdaptiveConfig& cfg);

}  // namespace accl
