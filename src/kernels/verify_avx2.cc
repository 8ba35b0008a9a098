// AVX2 verify backend: 16 floats (8 dimensions) per probe step via two
// 256-bit compares. This TU is compiled with -mavx2 (set per-file by CMake,
// never globally), so nothing outside it may call into it directly — the
// registry reaches it only through the MakeAvx2Backend factory, and only
// after the CPUID probe confirmed the host executes AVX2.
//
// The chunk stays 16 floats — same as SSE2 — so the first-fail positions,
// and therefore the dims accounting, are structurally identical across
// backends; AVX2 wins by halving the instruction count per chunk, not by
// widening the probe window.
#include <immintrin.h>

#include "kernels/backends.h"
#include "kernels/verify_common.h"

namespace accl::kernels {

namespace {

struct Avx2Probe {
  static constexpr size_t kChunk = 16;
  static inline size_t FirstFail(const float* o, const float* bg,
                                 const float* bl) {
    uint32_t m = 0;
    for (size_t g = 0; g < 16; g += 8) {
      const __m256 ov = _mm256_loadu_ps(o + g);
      const __m256 f = _mm256_or_ps(
          _mm256_cmp_ps(ov, _mm256_loadu_ps(bg + g), _CMP_GT_OQ),
          _mm256_cmp_ps(ov, _mm256_loadu_ps(bl + g), _CMP_LT_OQ));
      m |= static_cast<uint32_t>(_mm256_movemask_ps(f)) << g;
    }
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }
};

struct Avx2AdmitBlock {
  static inline uint32_t Pass(const float* le, const float* ge,
                              float le_bound, float ge_bound) {
    const __m256 leb = _mm256_set1_ps(le_bound);
    const __m256 geb = _mm256_set1_ps(ge_bound);
    uint32_t m = 0;
    for (size_t g = 0; g < 16; g += 8) {
      const __m256 pass = _mm256_and_ps(
          _mm256_cmp_ps(_mm256_loadu_ps(le + g), leb, _CMP_LE_OQ),
          _mm256_cmp_ps(_mm256_loadu_ps(ge + g), geb, _CMP_GE_OQ));
      m |= static_cast<uint32_t>(_mm256_movemask_ps(pass)) << g;
    }
    return m;
  }
};

class Avx2Backend final : public VerifyBackend {
 public:
  const char* name() const override { return "avx2"; }
  uint32_t vector_width_floats() const override { return 8; }
  bool SupportedOnHost(const CpuFeatures& host) const override {
    return host.avx2;
  }

  size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                     const BatchQuery& bq, std::vector<ObjectId>* out,
                     uint64_t* dims_checked) const override {
    return detail::VerifyBatchImpl<Avx2Probe>(coords, ids, n, bq, out,
                                              dims_checked);
  }

  size_t AdmitSlots(const float* le, const float* ge, size_t stride,
                    const float* le_bound, const float* ge_bound, Dim nd,
                    size_t n, uint32_t* out_slots) const override {
    return detail::AdmitSlotsImpl<Avx2AdmitBlock>(le, ge, stride, le_bound,
                                                  ge_bound, nd, n, out_slots);
  }

  void RankAccepting(const float* cols, size_t col_stride, size_t n,
                     const ColumnRange* tests, size_t ntests, uint32_t rank,
                     uint32_t* best) const override {
    const __m256i rankv = _mm256_set1_epi32(static_cast<int>(rank));
    const __m256 all = _mm256_castsi256_ps(_mm256_set1_epi32(-1));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      __m256 m = all;
      for (size_t t = 0; t < ntests; ++t) {
        const __m256 x =
            _mm256_loadu_ps(cols + tests[t].col * col_stride + i);
        m = _mm256_and_ps(
            m, _mm256_and_ps(
                   _mm256_cmp_ps(x, _mm256_set1_ps(tests[t].lo), _CMP_GE_OQ),
                   _mm256_cmp_ps(x, _mm256_set1_ps(tests[t].hi), _CMP_LE_OQ)));
      }
      // best = min(best, rank | ~accepted)
      __m256i* bp = reinterpret_cast<__m256i*>(best + i);
      const __m256i cand =
          _mm256_or_si256(rankv, _mm256_xor_si256(_mm256_castps_si256(m),
                                                  _mm256_castps_si256(all)));
      _mm256_storeu_si256(bp, _mm256_min_epu32(_mm256_loadu_si256(bp), cand));
    }
    VerifyBackend::RankAccepting(cols + i, col_stride, n - i, tests, ntests,
                                 rank, best + i);
  }
};

}  // namespace

std::unique_ptr<VerifyBackend> MakeAvx2Backend() {
  return std::make_unique<Avx2Backend>();
}

}  // namespace accl::kernels
