// The paper's cost model (§5) and benefit functions.
//
// The expected execution time charged to a cluster c is
//     T_c = A + p_c * (B + n_c * C)
// where p_c is the cluster's access probability, n_c its object count, and
//   A = time to check the cluster signature (paid for every cluster),
//   B = time to prepare the exploration + update query statistics
//       (+ one disk seek in the disk scenario); AdaptiveIndex logs the
//       exploration and pays the statistics update inside reorganization,
//       but the model keeps charging it per exploration, as the paper does,
//       so decisions are unchanged,
//   C = time to verify one object (+ its transfer time in the disk scenario).
//
// Materialization benefit (eq. 3):  beta(s,c) = (p_c - p_s) n_s C - p_s B - A
// Merging benefit (eq. 5):          mu(c,a)   = A + p_c B - (p_a - p_c) n_c C
#pragma once

#include <cstdint>
#include <string>

#include "api/types.h"

namespace accl {

/// Where cluster members live. Signatures/statistics are always in memory.
enum class StorageScenario : uint8_t {
  kMemory = 0,  ///< members sequential in RAM
  kDisk,        ///< members sequential on (simulated) disk
};

const char* StorageScenarioName(StorageScenario s);

/// Database/system parameters affecting query performance (paper Table 2).
/// All times in milliseconds, rates in bytes/ms.
struct SystemParams {
  /// Time to check one cluster signature against a query, per dimension.
  /// Paper Table 2 lists 5e-7 ms per signature check; we scale linearly in
  /// dimensionality since the check is a per-dimension loop.
  double sig_check_ms_per_dim = 5e-7;
  /// Fixed time to prepare a cluster exploration (function call, scan
  /// initialization).
  double explore_setup_ms = 2e-4;
  /// Per-candidate cost of updating query statistics when a cluster is
  /// explored. The paper's B explicitly includes "the time spent to update
  /// the query statistics for the current cluster and for the candidate
  /// subclusters"; with 10*Nd..16*Nd candidates per cluster this term
  /// dominates B in memory and is what stops the structure from splitting
  /// into clusters too small to amortize their own bookkeeping.
  /// AdaptiveIndex now does that work when reorganizing (it replays a
  /// per-cluster exploration log), but the modeled charge stays per
  /// exploration so split and merge decisions match the paper's.
  double stat_update_ms_per_candidate = 2e-5;
  /// CPU object-verification rate. Paper: 300 MB/s => 3.18e-6 ms/byte.
  double verify_ms_per_byte = 1000.0 / (300.0 * 1024 * 1024);
  /// Disk access (seek + rotational) time. Paper: 15 ms.
  double disk_access_ms = 15.0;
  /// Sequential disk transfer. Paper: 20 MB/s => 4.77e-5 ms/byte.
  double disk_ms_per_byte = 1000.0 / (20.0 * 1024 * 1024);

  /// The paper's reference hardware (Table 2).
  static SystemParams Paper() { return SystemParams{}; }
};

/// The A/B/C parameters of T = A + p(B + nC), derived from SystemParams for
/// a given scenario and per-object size.
struct CostModel {
  double A = 0.0;  ///< per-signature-check cost [ms]
  double B = 0.0;  ///< per-exploration fixed cost [ms]
  double C = 0.0;  ///< per-object cost [ms]
  StorageScenario scenario = StorageScenario::kMemory;

  /// Builds the model for `scenario` with `nd`-dimensional objects.
  /// `candidates_per_cluster` is the number of candidate subclusters whose
  /// statistics each exploration updates (0 for structures without
  /// candidates, e.g. when modeling a plain scan).
  static CostModel Make(StorageScenario scenario, Dim nd,
                        const SystemParams& sys,
                        double candidates_per_cluster = 0.0);

  /// Expected per-query time charged to a cluster (eq. 1).
  double ClusterTime(double p, double n) const { return A + p * (B + n * C); }

  /// Materialization benefit beta(s, c) of candidate s of cluster c (eq. 3).
  /// Positive => splitting s out of c is expected to pay off.
  double MaterializationBenefit(double p_c, double p_s, double n_s) const {
    return (p_c - p_s) * n_s * C - p_s * B - A;
  }

  /// Merging benefit mu(c, a) of folding cluster c into its parent a (eq. 5).
  /// Positive => merging is expected to pay off.
  double MergeBenefit(double p_c, double p_a, double n_c) const {
    return A + p_c * B - (p_a - p_c) * n_c * C;
  }

  std::string ToString() const;
};

}  // namespace accl
