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

  size_t FilterSlotsDense(const float* le, const float* ge, float le_bound,
                          float ge_bound, size_t n,
                          uint32_t* out_slots) const override {
    const __m512 leb = _mm512_set1_ps(le_bound);
    const __m512 geb = _mm512_set1_ps(ge_bound);
    // Compress-store writes the surviving lane indices contiguously in lane
    // order, which is exactly the ascending-slot contract.
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15);
    size_t count = 0;
    size_t s = 0;
    for (; s + 16 <= n; s += 16) {
      const __mmask16 pass = static_cast<__mmask16>(
          _mm512_cmp_ps_mask(_mm512_loadu_ps(le + s), leb, _CMP_LE_OQ) &
          _mm512_cmp_ps_mask(_mm512_loadu_ps(ge + s), geb, _CMP_GE_OQ));
      const __m512i slots =
          _mm512_add_epi32(lane, _mm512_set1_epi32(static_cast<int>(s)));
      _mm512_mask_compressstoreu_epi32(out_slots + count, pass, slots);
      count += static_cast<size_t>(__builtin_popcount(pass));
    }
    for (; s < n; ++s) {
      out_slots[count] = static_cast<uint32_t>(s);
      count += (le[s] <= le_bound) & (ge[s] >= ge_bound);
    }
    return count;
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
