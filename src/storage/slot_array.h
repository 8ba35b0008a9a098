// Sequential per-cluster object storage with reserved slots (paper §6,
// "Storage Utilization").
//
// Each cluster's members are stored contiguously (ids in one array, interval
// limits flat in another) to maximize data locality — in memory this exploits
// cache lines and read-ahead; on disk it enables one sequential transfer per
// cluster. To avoid relocating a cluster on every insertion, 20-30 % extra
// places are reserved whenever the array is (re)located, which bounds storage
// utilization below by roughly 1/(1+reserve) >= 70 %.
#pragma once

#include <cstdint>
#include <vector>

#include "api/types.h"
#include "geometry/box.h"
#include "util/check.h"

namespace accl {

/// Free places reserved whenever a cluster's objects are (re)located: the
/// paper's 20-30 % (§6). The adaptive index and ClusterFileStore use it.
inline constexpr double kReserveFraction = 0.25;

/// Flat array of (id, hyper-rectangle) records; every relocation reserves
/// kReserveFraction extra places.
class SlotArray {
 public:
  explicit SlotArray(Dim nd);

  Dim dims() const { return nd_; }
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }

  /// Allocated places (size + free reserved places).
  size_t capacity() const { return capacity_; }

  /// size / capacity; 1.0 for an empty array.
  double utilization() const;

  /// Times the whole array had to be relocated because the reserve ran out.
  uint64_t relocations() const { return relocations_; }

  /// Bytes of live object data (paper layout: 4-byte id + 8 bytes/dim).
  uint64_t live_bytes() const {
    return static_cast<uint64_t>(size()) * ObjectBytes(nd_);
  }

  ObjectId id(size_t i) const { return ids_[i]; }
  BoxView box(size_t i) const {
    return BoxView(coords_.data() + 2 * static_cast<size_t>(nd_) * i, nd_);
  }
  const float* coords_data() const { return coords_.data(); }
  const std::vector<ObjectId>& ids() const { return ids_; }

  /// Appends one record; relocates (with fresh reserve) when full.
  void Append(ObjectId id, const float* coords);
  void Append(ObjectId id, BoxView b) { Append(id, b.data()); }

  /// Swap-removes slot `i`. Returns the id that now occupies slot `i`
  /// (kInvalidObject if `i` was the last slot).
  ObjectId RemoveAt(size_t i);

  /// Linear search for `id`; returns its slot or SIZE_MAX.
  size_t Find(ObjectId id) const;

  /// Drops everything (capacity retained).
  void Clear();

  /// Re-applies the reserve policy: shrinks capacity to
  /// ceil(size * (1 + reserve)). Used after bulk moves so utilization
  /// bounds hold again.
  void Compact();

 private:
  void Relocate(size_t need);

  Dim nd_;
  size_t capacity_ = 0;
  uint64_t relocations_ = 0;
  std::vector<ObjectId> ids_;
  std::vector<float> coords_;  // stride 2*nd_
};

}  // namespace accl
