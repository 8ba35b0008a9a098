#include "core/signature_table.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/backend_registry.h"
#include "util/check.h"

namespace accl {

namespace {

constexpr size_t kBlockRows = 16;  // AdmitSlots' block
constexpr float kFreeRow = std::numeric_limits<float>::quiet_NaN();

}  // namespace

SignatureTable::SignatureTable(Dim nd, const kernels::VerifyBackend* backend)
    : nd_(nd),
      backend_(backend != nullptr
                   ? backend
                   : kernels::BackendRegistry::Instance().Resolve("")),
      bounds_(2 * static_cast<size_t>(nd)) {
  ACCL_CHECK(nd > 0);
  ACCL_CHECK(backend_ != nullptr);
}

void SignatureTable::Grow(size_t need) {
  size_t ncap = std::max(kBlockRows, cap_ * 2);
  while (ncap < need) ncap *= 2;
  for (std::vector<float>* arr : {&amin_, &amax_, &bmin_, &bmax_}) {
    std::vector<float> fresh(static_cast<size_t>(nd_) * ncap, kFreeRow);
    for (Dim d = 0; d < nd_; ++d) {
      std::copy_n(arr->data() + d * cap_, cap_, fresh.data() + d * ncap);
    }
    *arr = std::move(fresh);
  }
  cap_ = ncap;
}

void SignatureTable::Add(ClusterId id, const Signature& sig) {
  ACCL_DCHECK(sig.dims() == nd_);
  if (id >= cap_) Grow(static_cast<size_t>(id) + 1);
  ACCL_DCHECK(RowFree(id));
  for (Dim d = 0; d < nd_; ++d) {
    amin_[d * cap_ + id] = sig.start_var(d).lo;
    amax_[d * cap_ + id] = sig.start_var(d).hi;
    bmin_[d * cap_ + id] = sig.end_var(d).lo;
    bmax_[d * cap_ + id] = sig.end_var(d).hi;
  }
  // Dimension 0 of amin_ is the liveness mark Remove reads.
  ACCL_DCHECK(!std::isnan(amin_[id]));
  ++live_;
  high_water_ = std::max(high_water_, static_cast<size_t>(id) + 1);
}

void SignatureTable::Remove(ClusterId id) {
  ACCL_CHECK(id < high_water_ && !std::isnan(amin_[id]));
  for (std::vector<float>* arr : {&amin_, &amax_, &bmin_, &bmax_}) {
    for (Dim d = 0; d < nd_; ++d) (*arr)[d * cap_ + id] = kFreeRow;
  }
  --live_;
  while (high_water_ > 0 && std::isnan(amin_[high_water_ - 1])) {
    --high_water_;
  }
}

void SignatureTable::Clear() {
  for (std::vector<float>* arr : {&amin_, &amax_, &bmin_, &bmax_}) {
    std::fill(arr->begin(), arr->end(), kFreeRow);
  }
  live_ = 0;
  high_water_ = 0;
}

void SignatureTable::CollectAdmitted(const Query& q,
                                     std::vector<ClusterId>* out) {
  ACCL_DCHECK(q.dims() == nd_);
  if (high_water_ == 0) return;
  const float* qc = q.box.data();

  // Per dimension, every relation's admit test is two bound comparisons
  // against one of the packed arrays (see Signature::AdmitsQuery):
  //   intersects:    amin <= q.hi  &&  bmax >= q.lo
  //   contained-by:  bmin <= q.hi  &&  amax >= q.lo
  //   encloses:      amin <= q.lo  &&  bmax >= q.hi
  const float* le_arr = amin_.data();  // compared with <=
  const float* ge_arr = bmax_.data();  // compared with >=
  size_t le_coord = 1;                 // q.hi bounds le_arr
  if (q.rel == Relation::kContainedBy) {
    le_arr = bmin_.data();
    ge_arr = amax_.data();
  } else if (q.rel == Relation::kEncloses) {
    le_coord = 0;
  }
  float* le_b = bounds_.data();
  float* ge_b = le_b + nd_;
  for (Dim d = 0; d < nd_; ++d) {
    le_b[d] = qc[2 * d + le_coord];
    ge_b[d] = qc[2 * d + (1 - le_coord)];
  }

  // Whole blocks: the rows past the high-water id are free, so NaN.
  const size_t rows = (high_water_ + kBlockRows - 1) / kBlockRows * kBlockRows;
  const size_t base = out->size();
  out->resize(base + rows);
  const size_t count = backend_->AdmitSlots(le_arr, ge_arr, cap_, le_b, ge_b,
                                            nd_, rows, out->data() + base);
  out->resize(base + count);
}

bool SignatureTable::RowMatches(ClusterId id, const Signature& sig) const {
  if (id >= high_water_) return false;
  for (Dim d = 0; d < nd_; ++d) {
    if (amin_[d * cap_ + id] != sig.start_var(d).lo) return false;
    if (amax_[d * cap_ + id] != sig.start_var(d).hi) return false;
    if (bmin_[d * cap_ + id] != sig.end_var(d).lo) return false;
    if (bmax_[d * cap_ + id] != sig.end_var(d).hi) return false;
  }
  return true;
}

bool SignatureTable::RowFree(ClusterId id) const {
  if (id >= cap_) return true;
  for (const std::vector<float>* arr : {&amin_, &amax_, &bmin_, &bmax_}) {
    for (Dim d = 0; d < nd_; ++d) {
      if (!std::isnan((*arr)[d * cap_ + id])) return false;
    }
  }
  return true;
}

}  // namespace accl
