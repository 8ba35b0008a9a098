#include "storage/slot_array.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace accl {

SlotArray::SlotArray(Dim nd) : nd_(nd) { ACCL_CHECK(nd > 0); }

double SlotArray::utilization() const {
  if (capacity_ == 0) return 1.0;
  return static_cast<double>(size()) / static_cast<double>(capacity_);
}

void SlotArray::Relocate(size_t need) {
  // Fresh reserve on every relocation: capacity = need * (1 + reserve),
  // with a small floor so tiny clusters do not relocate constantly.
  size_t cap = static_cast<size_t>(
      std::ceil(static_cast<double>(need) * (1.0 + kReserveFraction)));
  cap = std::max<size_t>(cap, 8);
  if (cap == capacity_) return;
  capacity_ = cap;
  ids_.reserve(capacity_);
  coords_.reserve(capacity_ * 2 * static_cast<size_t>(nd_));
  if (!ids_.empty()) ++relocations_;
}

void SlotArray::Append(ObjectId id, const float* coords) {
  if (size() + 1 > capacity_) Relocate(size() + 1);
  ids_.push_back(id);
  coords_.insert(coords_.end(), coords, coords + 2 * static_cast<size_t>(nd_));
}

ObjectId SlotArray::RemoveAt(size_t i) {
  ACCL_CHECK(i < size());
  const size_t last = size() - 1;
  const size_t stride = 2 * static_cast<size_t>(nd_);
  ObjectId moved = kInvalidObject;
  if (i != last) {
    ids_[i] = ids_[last];
    std::memcpy(coords_.data() + i * stride, coords_.data() + last * stride,
                stride * sizeof(float));
    moved = ids_[i];
  }
  ids_.pop_back();
  coords_.resize(coords_.size() - stride);
  return moved;
}

size_t SlotArray::Find(ObjectId id) const {
  auto it = std::find(ids_.begin(), ids_.end(), id);
  return it == ids_.end() ? static_cast<size_t>(-1)
                          : static_cast<size_t>(it - ids_.begin());
}

void SlotArray::Clear() {
  ids_.clear();
  coords_.clear();
}

void SlotArray::Compact() {
  size_t cap = static_cast<size_t>(
      std::ceil(static_cast<double>(size()) * (1.0 + kReserveFraction)));
  cap = std::max<size_t>(cap, 8);
  capacity_ = cap;
  ids_.shrink_to_fit();
  coords_.shrink_to_fit();
  ids_.reserve(capacity_);
  coords_.reserve(capacity_ * 2 * static_cast<size_t>(nd_));
}

}  // namespace accl
