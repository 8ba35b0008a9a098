#include "kernels/verify_backend.h"

#include "kernels/verify_common.h"

namespace accl::kernels {

namespace {

struct ScalarAdmitBlock {
  static uint32_t Pass(const float* le, const float* ge, float le_bound,
                       float ge_bound) {
    return detail::AdmitPassScalar(le, ge, le_bound, ge_bound,
                                   detail::kAdmitBlock);
  }
};

}  // namespace

size_t VerifyBackend::AdmitSlots(const float* le, const float* ge,
                                 size_t stride, const float* le_bound,
                                 const float* ge_bound, Dim nd, size_t n,
                                 uint32_t* out_slots) const {
  return detail::AdmitSlotsImpl<ScalarAdmitBlock>(le, ge, stride, le_bound,
                                                  ge_bound, nd, n, out_slots);
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
