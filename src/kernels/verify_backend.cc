#include "kernels/verify_backend.h"

namespace accl::kernels {

size_t VerifyBackend::FilterSlotsDense(const float* le, const float* ge,
                                       float le_bound, float ge_bound,
                                       size_t n, uint32_t* out_slots) const {
  // Branchless compaction: write unconditionally, advance on survival.
  size_t count = 0;
  for (size_t s = 0; s < n; ++s) {
    out_slots[count] = static_cast<uint32_t>(s);
    count += (le[s] <= le_bound) & (ge[s] >= ge_bound);
  }
  return count;
}

size_t VerifyBackend::FilterSlotsSparse(const float* le, const float* ge,
                                        float le_bound, float ge_bound,
                                        const uint32_t* in, size_t n,
                                        uint32_t* out_slots) const {
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = in[i];
    out_slots[kept] = s;
    kept += (le[s] <= le_bound) & (ge[s] >= ge_bound);
  }
  return kept;
}

void VerifyBackend::RankAccepting(const float* cols, size_t col_stride,
                                  size_t n, const ColumnRange* tests,
                                  size_t ntests, uint32_t rank,
                                  uint32_t* best) const {
  for (size_t i = 0; i < n; ++i) {
    bool accepted = true;
    for (size_t t = 0; t < ntests && accepted; ++t) {
      const float x = cols[tests[t].col * col_stride + i];
      accepted = x >= tests[t].lo && x <= tests[t].hi;
    }
    if (accepted && rank < best[i]) best[i] = rank;
  }
}

}  // namespace accl::kernels
