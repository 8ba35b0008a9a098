// A materialized database cluster (paper §3.1): a group of objects accessed
// and checked together during spatial selections, described by a signature
// and carrying performance indicators (exploring-query count, object count)
// plus the statistics of its virtual candidate subclusters and the log of
// explorations not yet counted into them.
#pragma once

#include <cstdint>
#include <vector>

#include "core/clustering_function.h"
#include "core/signature.h"
#include "storage/slot_array.h"

namespace accl {

/// Index of a cluster inside AdaptiveIndex's cluster table.
using ClusterId = uint32_t;
inline constexpr ClusterId kNoCluster = 0xFFFFFFFFu;

/// One materialized cluster.
struct Cluster {
  /// `created_weight` is the global decayed query weight at creation;
  /// `log_capacity` bounds the explorations logged between replays.
  Cluster(ClusterId id_in, Signature sig_in, Dim nd,
          uint32_t division_factor, double created_weight,
          uint32_t log_capacity)
      : candidates(sig_in, division_factor, created_weight,
                   kMinDivisibleWidth, log_capacity),
        w0(created_weight),
        id(id_in),
        sig(std::move(sig_in)),
        objects(nd) {}

  // The fields an exploration and a reorganization pass touch come first.

  /// Virtual candidate subclusters with their performance indicators and
  /// this cluster's exploration log.
  CandidateSet candidates;

  /// Decayed count of queries that explored this cluster.
  double q = 0.0;
  /// Global decayed query weight when the cluster was created; the access
  /// probability is estimated as q / (current_weight - w0).
  double w0 = 0.0;

  ClusterId id;
  ClusterId parent = kNoCluster;
  std::vector<ClusterId> children;

  Signature sig;
  SlotArray objects;

  /// No split scan is stored (see prescanned).
  static constexpr size_t kUnscanned = static_cast<size_t>(-2);
  /// The split scan's result (a candidate index, or SIZE_MAX for none)
  /// when reorganization scanned this cluster ahead of its visit in the
  /// same slice; kUnscanned otherwise. Read only by the visits of such a
  /// slice, so it comes after the fields every exploration touches.
  size_t prescanned = kUnscanned;

  bool is_root() const { return parent == kNoCluster; }
  size_t size() const { return objects.size(); }

  /// Estimated access probability over the observation window.
  /// `total_weight` is the current global decayed query weight. Uses a
  /// +1 Laplace prior so fresh clusters do not claim probability zero.
  double AccessProb(double total_weight) const {
    const double denom = total_weight - w0;
    return (q + 1.0) / (denom + 1.0);
  }

  /// Queries observed since creation (the probability denominator).
  double ObservationWindow(double total_weight) const {
    return total_weight - w0;
  }
};

}  // namespace accl
