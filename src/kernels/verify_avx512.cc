// AVX-512F verify backend: one 512-bit compare pair covers the whole
// 16-float chunk, and the fail mask comes back in a mask register —
// movemask and the OR tree disappear entirely. Compiled with -mavx512f
// per-file; reached only via MakeAvx512Backend after the CPUID probe.
//
// Chunk remains 16 floats, matching SSE2/AVX2, so first-fail positions and
// dims accounting are structurally identical; see verify_common.h.
#include <immintrin.h>

#include "kernels/backends.h"
#include "kernels/verify_common.h"

namespace accl::kernels {

namespace {

struct Avx512Probe {
  static constexpr size_t kChunk = 16;
  static inline size_t FirstFail(const float* o, const float* bg,
                                 const float* bl) {
    const __m512 ov = _mm512_loadu_ps(o);
    const __mmask16 m = static_cast<__mmask16>(
        _mm512_cmp_ps_mask(ov, _mm512_loadu_ps(bg), _CMP_GT_OQ) |
        _mm512_cmp_ps_mask(ov, _mm512_loadu_ps(bl), _CMP_LT_OQ));
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }
};

struct Avx512AdmitBlock {
  static inline uint32_t Pass(const float* le, const float* ge,
                              float le_bound, float ge_bound) {
    return _mm512_cmp_ps_mask(_mm512_loadu_ps(le), _mm512_set1_ps(le_bound),
                              _CMP_LE_OQ) &
           _mm512_cmp_ps_mask(_mm512_loadu_ps(ge), _mm512_set1_ps(ge_bound),
                              _CMP_GE_OQ);
  }
};

class Avx512Backend final : public VerifyBackend {
 public:
  const char* name() const override { return "avx512"; }
  uint32_t vector_width_floats() const override { return 16; }
  bool SupportedOnHost(const CpuFeatures& host) const override {
    return host.avx512f;
  }

  size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                     const BatchQuery& bq, std::vector<ObjectId>* out,
                     uint64_t* dims_checked) const override {
    return detail::VerifyBatchImpl<Avx512Probe>(coords, ids, n, bq, out,
                                                dims_checked);
  }

  size_t AdmitSlots(const float* le, const float* ge, size_t stride,
                    const float* le_bound, const float* ge_bound, Dim nd,
                    size_t n, uint32_t* out_slots) const override {
    return detail::AdmitSlotsImpl<Avx512AdmitBlock>(
        le, ge, stride, le_bound, ge_bound, nd, n, out_slots);
  }

  void RankAccepting(const float* cols, size_t col_stride, size_t n,
                     const ColumnRange* tests, size_t ntests, uint32_t rank,
                     uint32_t* best) const override {
    const __m512i rankv = _mm512_set1_epi32(static_cast<int>(rank));
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
      __mmask16 m = 0xFFFF;
      for (size_t t = 0; t < ntests; ++t) {
        const __m512 x =
            _mm512_loadu_ps(cols + tests[t].col * col_stride + i);
        m = _mm512_mask_cmp_ps_mask(m, x, _mm512_set1_ps(tests[t].lo),
                                    _CMP_GE_OQ);
        m = _mm512_mask_cmp_ps_mask(m, x, _mm512_set1_ps(tests[t].hi),
                                    _CMP_LE_OQ);
      }
      const __m512i b = _mm512_loadu_si512(best + i);
      _mm512_storeu_si512(best + i, _mm512_mask_min_epu32(b, m, b, rankv));
    }
    VerifyBackend::RankAccepting(cols + i, col_stride, n - i, tests, ntests,
                                 rank, best + i);
  }
};

}  // namespace

std::unique_ptr<VerifyBackend> MakeAvx512Backend() {
  return std::make_unique<Avx512Backend>();
}

}  // namespace accl::kernels
