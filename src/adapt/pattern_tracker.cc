#include "adapt/pattern_tracker.h"

namespace accl::adapt {

QueryPatternTracker::QueryPatternTracker(Dim nd) : nd_(nd) {
  for (auto& gen : ring_) gen.Reset(nd_);
  residents_.Reset(nd_);
}

void QueryPatternTracker::Record(const PatternAccumulator& acc) {
  if (acc.empty()) return;
  const PatternSnapshot& a = acc.data();
  events_observed_.fetch_add(a.events, std::memory_order_relaxed);
  subscriptions_observed_.fetch_add(a.subscriptions,
                                    std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  PatternSnapshot& gen = ring_[current_];
  gen.events += a.events;
  residents_.subscriptions += a.subscriptions;
  for (Dim d = 0; d < nd_; ++d) {
    gen.event_dims[d].Merge(a.event_dims[d]);
    residents_.sub_dims[d].Merge(a.sub_dims[d]);
  }
}

void QueryPatternTracker::AddResidents(const float* coords, size_t n) {
  subscriptions_observed_.fetch_add(n, std::memory_order_relaxed);
  const size_t stride = 2 * static_cast<size_t>(nd_);
  std::lock_guard<std::mutex> lk(mu_);
  residents_.subscriptions += n;
  for (size_t i = 0; i < n; ++i) {
    const BoxView b(coords + i * stride, nd_);
    for (Dim d = 0; d < nd_; ++d) {
      ++residents_.sub_dims[d].lo[PatternBinOf(b.lo(d))];
      ++residents_.sub_dims[d].hi[PatternBinOf(b.hi(d))];
    }
  }
}

void QueryPatternTracker::RemoveResident(BoxView b) {
  std::lock_guard<std::mutex> lk(mu_);
  --residents_.subscriptions;
  for (Dim d = 0; d < nd_; ++d) {
    --residents_.sub_dims[d].lo[PatternBinOf(b.lo(d))];
    --residents_.sub_dims[d].hi[PatternBinOf(b.hi(d))];
  }
}

PatternSnapshot QueryPatternTracker::Snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  PatternSnapshot out = residents_;
  for (const auto& gen : ring_) out.Merge(gen);
  return out;
}

void QueryPatternTracker::AdvanceWindow() {
  std::lock_guard<std::mutex> lk(mu_);
  current_ = (current_ + 1) % kGenerations;
  ring_[current_].Reset(nd_);
}

void QueryPatternTracker::ResetWindow() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& gen : ring_) gen.Reset(nd_);
  current_ = 0;
}

}  // namespace accl::adapt
