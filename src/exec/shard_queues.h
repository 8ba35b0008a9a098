// Per-shard work queues for routed dispatch.
//
// The sharded SDI engine used to fan *every* item to *every* shard; with
// range-routed dispatch each item names only the shards it must visit, so
// the fan-out needs a per-shard queue of item indices instead of the whole
// batch. ShardQueues builds those queues in CSR layout (one flat item
// array plus per-shard offsets) with a two-pass counting sort: routing is
// evaluated exactly once per item, queues come out in ascending item order
// (which is what keeps the shard-side execution sequence — and therefore
// the per-shard adaptation — deterministic), and a K-shard broadcast costs
// one allocation instead of K vectors. An item whose route names no shard
// is in no queue.
//
// Build also records the *inverse* view: for each item, the CSR list of
// (shard, position-in-that-shard's-queue) visits. The engine's finalize
// phase, which runs once every queue has executed, uses it to gather each
// item's per-shard slices directly, without walking any queue.
//
// All storage is member-owned and capacity-preserving: rebuilding with a
// same-shaped batch performs no allocations after the first build (part of
// the batch path's allocation-churn budget).
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace accl::exec {

/// CSR-packed per-shard queues of item indices. Build once per batch, read
/// concurrently (the structure is immutable after Build).
class ShardQueues {
 public:
  /// Routes items 0..n_items-1 across n_shards queues. `route(i, &targets)`
  /// appends the target shard id(s) of item `i` (duplicates are kept —
  /// callers emit each target once). Each queue ends up in ascending item
  /// order.
  template <typename RouteFn>
  void Build(size_t n_items, size_t n_shards, RouteFn&& route) {
    Reset(n_items, n_shards);
    // Pass 1: evaluate routing once per item into a flat (offsets, targets)
    // image, counting per-shard queue lengths as we go.
    visit_shards_.clear();
    for (size_t i = 0; i < n_items; ++i) {
      route_scratch_.clear();
      route(i, &route_scratch_);
      for (const uint32_t s : route_scratch_) {
        ACCL_CHECK(s < n_shards);
        ++offsets_[s + 1];
        visit_shards_.push_back(s);
      }
      item_offsets_[i + 1] = visit_shards_.size();
    }
    // Pass 2: prefix-sum the counts into offsets, then scatter item indices
    // in item order — a stable counting sort by shard. The cursor value at
    // scatter time IS the item's position in that shard's queue, which is
    // recorded as the inverse (item -> visits) view.
    for (size_t s = 0; s < n_shards; ++s) offsets_[s + 1] += offsets_[s];
    items_.resize(visit_shards_.size());
    visit_positions_.resize(visit_shards_.size());
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);
    for (size_t i = 0; i < n_items; ++i) {
      for (size_t r = item_offsets_[i]; r < item_offsets_[i + 1]; ++r) {
        const uint32_t t = visit_shards_[r];
        const size_t c = cursor_[t]++;
        items_[c] = static_cast<uint32_t>(i);
        visit_positions_[r] = static_cast<uint32_t>(c - offsets_[t]);
      }
    }
  }

  size_t shard_count() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  /// Queue length of `shard`.
  size_t size(size_t shard) const {
    return offsets_[shard + 1] - offsets_[shard];
  }
  /// Total routed (item, shard) visits across all queues.
  size_t total() const { return items_.size(); }
  /// Queue of `shard`: item indices, ascending.
  const uint32_t* items(size_t shard) const {
    return items_.data() + offsets_[shard];
  }

  // ---- Inverse view: the visits of one item ----

  /// Number of shard visits of `item` (its routing fan-out degree).
  size_t item_degree(size_t item) const {
    return item_offsets_[item + 1] - item_offsets_[item];
  }
  /// Shard ids `item` visits, in routing order (ascending for the range
  /// router). Parallel to item_positions().
  const uint32_t* item_shards(size_t item) const {
    return visit_shards_.data() + item_offsets_[item];
  }
  /// For each visit of `item`, its position within that shard's queue.
  const uint32_t* item_positions(size_t item) const {
    return visit_positions_.data() + item_offsets_[item];
  }

 private:
  void Reset(size_t n_items, size_t n_shards) {
    offsets_.assign(n_shards + 1, 0);
    item_offsets_.assign(n_items + 1, 0);
    items_.clear();
  }

  std::vector<size_t> offsets_;  ///< per-shard [begin, end) into items_
  std::vector<uint32_t> items_;  ///< concatenated queues
  /// Inverse CSR: per-item [begin, end) into the parallel visit arrays.
  std::vector<size_t> item_offsets_;
  std::vector<uint32_t> visit_shards_;     ///< shard of each visit
  std::vector<uint32_t> visit_positions_;  ///< queue position of each visit
  std::vector<size_t> cursor_;             ///< pass-2 scatter cursors
  std::vector<uint32_t> route_scratch_;    ///< pass-1 per-item route buffer
};

}  // namespace accl::exec
