#include "adapt/pattern_tracker.h"

namespace accl::adapt {

QueryPatternTracker::QueryPatternTracker(Dim nd) : nd_(nd) {
  for (auto& gen : ring_) gen.Reset(nd_);
}

void QueryPatternTracker::Record(const PatternAccumulator& acc) {
  if (acc.empty()) return;
  events_observed_.fetch_add(acc.data().events, std::memory_order_relaxed);
  subscriptions_observed_.fetch_add(acc.data().subscriptions,
                                    std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  ring_[current_].Merge(acc.data());
}

void QueryPatternTracker::RecordSubscription(const Box& b) {
  subscriptions_observed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  PatternSnapshot& gen = ring_[current_];
  ++gen.subscriptions;
  for (Dim d = 0; d < nd_; ++d) {
    ++gen.sub_dims[d].lo[PatternBinOf(b.lo(d))];
    ++gen.sub_dims[d].hi[PatternBinOf(b.hi(d))];
  }
}

PatternSnapshot QueryPatternTracker::Snapshot() const {
  PatternSnapshot out;
  out.Reset(nd_);
  std::lock_guard<std::mutex> lk(mu_);
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
