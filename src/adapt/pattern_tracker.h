// QueryPatternTracker — lock-cheap per-dimension interval histograms of
// the observed workload, the input signal of the adaptive routing
// subsystem (see api/adaptive_routing.h for the subsystem overview).
//
// Two distributions are tracked, per dimension, over the normalized [0,1]
// domain: where event intervals lie and where subscription intervals lie —
// each as a pair of fixed-width endpoint histograms (lower endpoints,
// upper endpoints). The pair is enough to answer, at bin resolution, the
// two questions routing cares about: how many intervals *cross* a
// candidate fence f (count(lo < f) - count(hi < f)) and where the interval
// mass sits (for equal-mass fence placement) — without retaining a single
// sample.
//
// Concurrency discipline (the PR 8 stats-path pattern): hot paths fold
// samples into a caller-local PatternAccumulator off every lock, then
// merge it into the tracker with ONE mutex acquisition per batch. The
// tracker's mutex is therefore held O(dims) per MatchBatch, never O(events).
//
// Windowing: events and subscriptions age differently. The event
// histograms form a small ring of generations; the engine rotates it once
// per evaluation (AdvanceWindow), dropping the oldest generation, so
// events age out after kGenerations evaluations — the analyzer sees a
// sliding window of recent traffic, which is what lets the engine
// *re*-adapt when the workload shifts again. The subscription histograms
// are not windowed: they are the exact resident set, added to by every
// insert and subtracted from by every unsubscribe (a migration moves a
// resident between shards and leaves them unchanged), so fences are
// planned over every live subscription, not over recent arrivals.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "api/types.h"
#include "geometry/box.h"

namespace accl::adapt {

/// Histogram resolution over [0,1]. 64 bins puts candidate fences at
/// ~0.016 granularity while keeping a full per-dimension pattern at 1KiB.
inline constexpr size_t kPatternBins = 64;

/// Bin of a normalized coordinate (clamped: out-of-domain coordinates
/// land in the edge bins, matching SliceOf's clamping behavior).
inline size_t PatternBinOf(float x) {
  if (!(x > 0.0f)) return 0;  // also catches NaN deterministically
  if (x >= 1.0f) return kPatternBins - 1;
  return static_cast<size_t>(x * static_cast<float>(kPatternBins));
}

/// Endpoint histograms of one dimension's interval distribution.
struct DimPattern {
  std::array<uint64_t, kPatternBins> lo{};  ///< lower-endpoint bin counts
  std::array<uint64_t, kPatternBins> hi{};  ///< upper-endpoint bin counts

  void Merge(const DimPattern& o) {
    for (size_t b = 0; b < kPatternBins; ++b) {
      lo[b] += o.lo[b];
      hi[b] += o.hi[b];
    }
  }
  void Clear() {
    lo.fill(0);
    hi.fill(0);
  }
  bool operator==(const DimPattern& o) const {
    return lo == o.lo && hi == o.hi;
  }
};

/// One event generation, the resident set, or the summed snapshot.
struct PatternSnapshot {
  uint64_t events = 0;
  uint64_t subscriptions = 0;
  std::vector<DimPattern> event_dims;  ///< size nd
  std::vector<DimPattern> sub_dims;    ///< size nd

  void Reset(Dim nd) {
    events = 0;
    subscriptions = 0;
    event_dims.resize(nd);
    sub_dims.resize(nd);
    for (auto& d : event_dims) d.Clear();
    for (auto& d : sub_dims) d.Clear();
  }
  void Merge(const PatternSnapshot& o) {
    events += o.events;
    subscriptions += o.subscriptions;
    for (size_t d = 0; d < event_dims.size(); ++d) {
      event_dims[d].Merge(o.event_dims[d]);
      sub_dims[d].Merge(o.sub_dims[d]);
    }
  }
};

/// Caller-local fold buffer: sample boxes off-lock, merge once.
/// Reset is capacity-preserving (the engine pools accumulators inside its
/// pipeline scratch, so steady-state batches allocate nothing).
class PatternAccumulator {
 public:
  void Reset(Dim nd) { data_.Reset(nd); }

  void AddEvent(const Box& b) {
    ++data_.events;
    AddBox(b, &data_.event_dims);
  }
  void AddSubscription(const Box& b) {
    ++data_.subscriptions;
    AddBox(b, &data_.sub_dims);
  }
  void AddSubscription(BoxView b) {
    ++data_.subscriptions;
    AddBox(b, &data_.sub_dims);
  }

  const PatternSnapshot& data() const { return data_; }
  bool empty() const { return data_.events == 0 && data_.subscriptions == 0; }

 private:
  template <typename B>
  void AddBox(const B& b, std::vector<DimPattern>* dims) {
    const size_t nd = dims->size();
    for (size_t d = 0; d < nd; ++d) {
      DimPattern& p = (*dims)[d];
      ++p.lo[PatternBinOf(b.lo(static_cast<Dim>(d)))];
      ++p.hi[PatternBinOf(b.hi(static_cast<Dim>(d)))];
    }
  }

  PatternSnapshot data_;
};

/// The shared tracker. All methods are thread-safe; the intended usage is
/// accumulator-fold-then-Record for events, AddResidents/RemoveResident
/// from the engine's insert and unsubscribe paths, and
/// Snapshot/AdvanceWindow from the engine's move evaluation (under its
/// rebalance lock).
class QueryPatternTracker {
 public:
  /// Event generations in the sliding window. The engine rotates once per
  /// evaluation, so an event persists for 4 evaluations.
  static constexpr size_t kGenerations = 4;

  explicit QueryPatternTracker(Dim nd);

  /// Merges a folded accumulator: its events into the current generation,
  /// its subscriptions into the resident histogram (one lock).
  void Record(const PatternAccumulator& acc);

  /// Adds `n` inserted subscriptions (2*nd floats each, the Box layout) to
  /// the resident histogram.
  void AddResidents(const float* coords, size_t n);
  /// Subtracts one removed subscription from the resident histogram.
  void RemoveResident(BoxView b);

  /// The resident histogram plus the sum of all live event generations.
  PatternSnapshot Snapshot() const;

  /// Rotates the event ring: the oldest generation is cleared and becomes
  /// the new current one.
  void AdvanceWindow();

  /// Clears every event generation (after a dimension switch: the old
  /// pattern argued for the switch and must not immediately argue again).
  /// Residents are kept.
  void ResetWindow();

  /// Lifetime sample counters (never reset; observability).
  uint64_t events_observed() const {
    return events_observed_.load(std::memory_order_relaxed);
  }
  uint64_t subscriptions_observed() const {
    return subscriptions_observed_.load(std::memory_order_relaxed);
  }

 private:
  const Dim nd_;
  mutable std::mutex mu_;
  /// Event parts only (their subscription parts stay empty).
  std::array<PatternSnapshot, kGenerations> ring_;  ///< guarded by mu_
  size_t current_ = 0;                              ///< guarded by mu_
  /// Subscription parts only: the live set, exact.
  PatternSnapshot residents_;  ///< guarded by mu_
  std::atomic<uint64_t> events_observed_{0};
  std::atomic<uint64_t> subscriptions_observed_{0};
};

}  // namespace accl::adapt
