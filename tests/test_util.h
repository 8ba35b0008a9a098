// Shared helpers for the accl test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "adapt/pattern_tracker.h"
#include "api/spatial_index.h"
#include "geometry/query.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "workload/dataset.h"

namespace accl {
namespace testutil {

/// Brute-force oracle: ids of all dataset objects matching the query.
inline std::vector<ObjectId> BruteForce(const Dataset& ds, const Query& q) {
  std::vector<ObjectId> out;
  for (size_t i = 0; i < ds.size(); ++i) {
    if (q.Matches(ds.box(i))) out.push_back(ds.ids[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Sorted copy, for order-insensitive result comparison.
inline std::vector<ObjectId> Sorted(std::vector<ObjectId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Executes `q` on `idx` and returns sorted ids.
inline std::vector<ObjectId> RunQuery(SpatialIndex& idx, const Query& q,
                                 QueryMetrics* m = nullptr) {
  std::vector<ObjectId> out;
  idx.Execute(q, &out, m);
  return Sorted(std::move(out));
}

/// Loads a dataset into an index.
inline void Load(SpatialIndex& idx, const Dataset& ds) {
  for (size_t i = 0; i < ds.size(); ++i) idx.Insert(ds.ids[i], ds.box(i));
}

/// A random well-formed box in [0,1]^nd.
inline Box RandomBox(Rng& rng, Dim nd, float max_extent = 1.0f) {
  Box b(nd);
  for (Dim d = 0; d < nd; ++d) {
    const float len = max_extent * rng.NextFloat();
    const float start = (1.0f - len) * rng.NextFloat();
    b.set(d, start, std::min(start + len, 1.0f));
  }
  return b;
}

/// Brute-force per-dimension endpoint histograms of a live set: what a
/// range-routed engine's resident histogram must hold for it.
inline std::vector<adapt::DimPattern> ResidentHistogram(
    const std::vector<Box>& live, Dim nd) {
  std::vector<adapt::DimPattern> h(nd);
  for (const Box& b : live) {
    for (Dim d = 0; d < nd; ++d) {
      ++h[d].lo[adapt::PatternBinOf(b.lo(d))];
      ++h[d].hi[adapt::PatternBinOf(b.hi(d))];
    }
  }
  return h;
}

/// The value of metric `name` in `reg` right now: `.counter`, `.gauge` or
/// `.hist` by its type. Every component counter is read this way — a
/// component without an engine is attached to a local registry first. A
/// missing name fails the calling test and reads as zero.
inline obs::MetricValue MetricOf(const obs::MetricsRegistry& reg,
                                 const std::string& name) {
  const obs::MetricsSnapshot snap = reg.Snapshot();
  const obs::MetricValue* v = snap.Find(name);
  if (v == nullptr) {
    ADD_FAILURE() << "metric " << name << " is not registered";
    return obs::MetricValue();
  }
  return *v;
}

}  // namespace testutil
}  // namespace accl
