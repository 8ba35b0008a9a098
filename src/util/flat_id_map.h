// Open-addressed ObjectId -> V map for the per-object lookups on the
// insert, erase and migration paths.
//
// std::unordered_map allocates one node per entry, so every insert is a
// heap allocation and a map under churn scatters its nodes across the
// heap (and, when several threads insert, across their malloc arenas).
// This map keeps its entries in one power-of-two array with linear
// probing and backward-shift deletion (no tombstones): a long-lived map
// under insert/erase churn neither degrades nor allocates, except when it
// grows past 3/4 load or shrinks below 1/8. It has no iteration, so its
// layout cannot leak into any deterministic output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/types.h"
#include "util/check.h"

namespace accl {

template <typename V>
class FlatIdMap {
 public:
  size_t size() const { return size_; }

  /// Value of `id`, or null when absent. Valid until the next insert or
  /// erase.
  V* Find(ObjectId id) {
    const size_t i = Locate(id);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }
  const V* Find(ObjectId id) const {
    const size_t i = Locate(id);
    return i == kNotFound ? nullptr : &slots_[i].value;
  }

  /// Inserts (id, v) unless `id` is present. Returns false (changing
  /// nothing) when it was.
  bool Insert(ObjectId id, const V& v) {
    ACCL_DCHECK(id != kInvalidObject);
    Reserve(size_ + 1);
    size_t i = Home(id);
    while (slots_[i].id != kInvalidObject) {
      if (slots_[i].id == id) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = Slot{id, v};
    ++size_;
    return true;
  }

  /// Inserts (id, v), or overwrites the value when `id` is present.
  void Set(ObjectId id, const V& v) {
    if (V* cur = Find(id)) {
      *cur = v;
    } else {
      Insert(id, v);
    }
  }

  /// Removes `id`; false when absent.
  bool Erase(ObjectId id) {
    size_t hole = Locate(id);
    if (hole == kNotFound) return false;
    // Backward shift: pull every later entry of the probe run whose home
    // does not lie cyclically in (hole, j] into the hole, so lookups never
    // meet a gap inside their run.
    for (size_t j = (hole + 1) & mask_; slots_[j].id != kInvalidObject;
         j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].id);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = kInvalidObject;
    --size_;
    // A table that once held a burst (a shard during a migration) gives the
    // memory back; halving at 1/8 load leaves 1/4, far from the growth
    // point, so churn cannot make it flap.
    if (slots_.size() > kMinCapacity && size_ * 8 < slots_.size()) {
      Rehash(slots_.size() / 2);
    }
    return true;
  }

  /// Grows the table so `n` entries fit without another growth.
  void Reserve(size_t n) {
    if (n * 4 <= slots_.size() * 3) return;
    size_t cap = slots_.empty() ? kMinCapacity : slots_.size();
    while (n * 4 > cap * 3) cap *= 2;
    Rehash(cap);
  }

  void Clear() {
    for (Slot& s : slots_) s.id = kInvalidObject;
    size_ = 0;
  }

 private:
  struct Slot {
    ObjectId id;  ///< kInvalidObject marks an empty slot
    V value;
  };
  static constexpr size_t kNotFound = ~size_t{0};
  static constexpr size_t kMinCapacity = 16;

  void Rehash(size_t cap) {
    std::vector<Slot> old(cap, Slot{kInvalidObject, V{}});
    old.swap(slots_);
    mask_ = cap - 1;
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.id == kInvalidObject) continue;
      size_t i = Home(s.id);
      while (slots_[i].id != kInvalidObject) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  /// Fibonacci hashing: the top bits of the golden-ratio product spread
  /// sequential ids (the common case) across the table.
  size_t Home(ObjectId id) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t Locate(ObjectId id) const {
    if (size_ == 0 || id == kInvalidObject) return kNotFound;
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      if (slots_[i].id == id) return i;
      if (slots_[i].id == kInvalidObject) return kNotFound;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace accl
