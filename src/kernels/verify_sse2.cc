// SSE2 verify backend: 16 floats (8 dimensions) per probe step via four
// 128-bit compares — the PR 1 kernel, now one registered variant among
// equals. Compiled with the baseline x86-64 flags (SSE2 is architectural
// there), so no per-TU ISA options; on non-x86 builds the factory returns
// nullptr and the backend simply never registers.
#include "kernels/backends.h"

#if defined(__SSE2__)
#include <emmintrin.h>

#include "kernels/verify_common.h"
#endif

namespace accl::kernels {

#if defined(__SSE2__)

namespace {

struct Sse2Probe {
  static constexpr size_t kChunk = 16;
  static inline size_t FirstFail(const float* o, const float* bg,
                                 const float* bl) {
    uint32_t m = 0;
    for (size_t g = 0; g < 16; g += 4) {
      const __m128 ov = _mm_loadu_ps(o + g);
      const __m128 f =
          _mm_or_ps(_mm_cmpgt_ps(ov, _mm_loadu_ps(bg + g)),
                    _mm_cmplt_ps(ov, _mm_loadu_ps(bl + g)));
      m |= static_cast<uint32_t>(_mm_movemask_ps(f)) << g;
    }
    return m != 0 ? static_cast<size_t>(__builtin_ctz(m)) : kChunk;
  }
};

struct Sse2AdmitBlock {
  static inline uint32_t Pass(const float* le, const float* ge,
                              float le_bound, float ge_bound) {
    const __m128 leb = _mm_set1_ps(le_bound);
    const __m128 geb = _mm_set1_ps(ge_bound);
    uint32_t m = 0;
    for (size_t g = 0; g < 16; g += 4) {
      const __m128 pass = _mm_and_ps(_mm_cmple_ps(_mm_loadu_ps(le + g), leb),
                                     _mm_cmpge_ps(_mm_loadu_ps(ge + g), geb));
      m |= static_cast<uint32_t>(_mm_movemask_ps(pass)) << g;
    }
    return m;
  }
};

class Sse2Backend final : public VerifyBackend {
 public:
  const char* name() const override { return "sse2"; }
  uint32_t vector_width_floats() const override { return 4; }
  bool SupportedOnHost(const CpuFeatures& host) const override {
    return host.sse2;
  }

  size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                     const BatchQuery& bq, std::vector<ObjectId>* out,
                     uint64_t* dims_checked) const override {
    return detail::VerifyBatchImpl<Sse2Probe>(coords, ids, n, bq, out,
                                              dims_checked);
  }

  size_t AdmitSlots(const float* le, const float* ge, size_t stride,
                    const float* le_bound, const float* ge_bound, Dim nd,
                    size_t n, uint32_t* out_slots) const override {
    return detail::AdmitSlotsImpl<Sse2AdmitBlock>(le, ge, stride, le_bound,
                                                  ge_bound, nd, n, out_slots);
  }

  void RankAccepting(const float* cols, size_t col_stride, size_t n,
                     const ColumnRange* tests, size_t ntests, uint32_t rank,
                     uint32_t* best) const override {
    // SSE2 has no unsigned 32-bit compare: flip the sign bits and compare
    // signed.
    const __m128i sign = _mm_set1_epi32(static_cast<int>(0x80000000u));
    const __m128i rankv = _mm_set1_epi32(static_cast<int>(rank));
    const __m128i rank_s = _mm_xor_si128(rankv, sign);
    const __m128 all = _mm_castsi128_ps(_mm_set1_epi32(-1));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      __m128 m = all;
      for (size_t t = 0; t < ntests; ++t) {
        const __m128 x = _mm_loadu_ps(cols + tests[t].col * col_stride + i);
        const __m128 in = _mm_and_ps(_mm_cmpge_ps(x, _mm_set1_ps(tests[t].lo)),
                                     _mm_cmple_ps(x, _mm_set1_ps(tests[t].hi)));
        m = _mm_and_ps(m, in);
      }
      __m128i* bp = reinterpret_cast<__m128i*>(best + i);
      const __m128i b = _mm_loadu_si128(bp);
      const __m128i lower = _mm_cmplt_epi32(rank_s, _mm_xor_si128(b, sign));
      const __m128i take = _mm_and_si128(lower, _mm_castps_si128(m));
      _mm_storeu_si128(bp, _mm_or_si128(_mm_andnot_si128(take, b),
                                        _mm_and_si128(take, rankv)));
    }
    VerifyBackend::RankAccepting(cols + i, col_stride, n - i, tests, ntests,
                                 rank, best + i);
  }
};

}  // namespace

std::unique_ptr<VerifyBackend> MakeSse2Backend() {
  return std::make_unique<Sse2Backend>();
}

#else  // !__SSE2__

std::unique_ptr<VerifyBackend> MakeSse2Backend() { return nullptr; }

#endif

}  // namespace accl::kernels
