#include "core/clustering_function.h"

#include <cmath>
#include <cstring>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/check.h"

// The split scan's benefit pass must round exactly like the scalar cost
// model (eq. 3): keep the compiler from fusing its multiplies and adds.
#if defined(__clang__)
#pragma STDC FP_CONTRACT OFF
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace accl {

VarInterval Piece(const VarInterval& v, uint32_t j, uint32_t f) {
  ACCL_DCHECK(j < f);
  const double lo = v.lo;
  const double w = (static_cast<double>(v.hi) - lo) / f;
  VarInterval p;
  p.lo = static_cast<float>(lo + w * j);
  if (j + 1 == f) {
    p.hi = v.hi;
    p.hi_closed = v.hi_closed;
  } else {
    p.hi = static_cast<float>(lo + w * (j + 1));
    p.hi_closed = false;
  }
  return p;
}

int PieceIndex(const VarInterval& v, uint32_t f, float x) {
  if (!v.Contains(x)) return -1;
  const double w = (static_cast<double>(v.hi) - v.lo) / f;
  int idx;
  if (w <= 0.0) {
    idx = 0;
  } else {
    idx = static_cast<int>((x - v.lo) / w);
    if (idx >= static_cast<int>(f)) idx = static_cast<int>(f) - 1;
    if (idx < 0) idx = 0;
  }
  // Float rounding can put x just across a boundary; nudge to the piece that
  // actually contains it.
  if (!Piece(v, idx, f).Contains(x)) {
    if (idx + 1 < static_cast<int>(f) && Piece(v, idx + 1, f).Contains(x)) {
      ++idx;
    } else if (idx > 0 && Piece(v, idx - 1, f).Contains(x)) {
      --idx;
    }
  }
  ACCL_DCHECK(Piece(v, idx, f).Contains(x));
  return idx;
}

double FoldSteps(double q, uint32_t k) {
  while (k != 0) {
    // From 2^53 on the spacing exceeds 1 and every step rounds.
    if (q >= 0x1p53) {
      for (; k != 0; --k) q += 1.0;
      break;
    }
    // Below `top`, every value is a multiple of q's spacing, which divides
    // 1: adding whole steps stays exact until the sum reaches `top`.
    int e;
    (void)std::frexp(q, &e);
    const double top = std::ldexp(1.0, e);
    const double room = top - q;  // exact (Sterbenz)
    if (room > k) return q + k;
    const uint32_t m = static_cast<uint32_t>(std::ceil(room)) - 1;
    q += m;
    q += 1.0;  // the one step that crosses `top` and may round
    k -= m + 1;
  }
  return q;
}

namespace {

inline size_t RoundUp(size_t x, size_t a) { return (x + a - 1) / a * a; }

// Zero-filled: fresh statistics and replay counts start at 0.
AlignedBytes AllocateAligned(size_t bytes) {
  void* p = std::aligned_alloc(64, RoundUp(bytes, 64) + 64);
  ACCL_CHECK(p != nullptr);
  std::memset(p, 0, RoundUp(bytes, 64) + 64);
  return AlignedBytes(static_cast<unsigned char*>(p));
}

// Piece admission masks of one dimension: sm bit j = start piece j passes,
// em bit j = end piece j passes. The relation only selects which query
// coordinate each cached piece bound is compared against and in which
// direction.
inline void PieceMasks(const float* sb, const float* eb, uint32_t f,
                       float qlo, float qhi, Relation rel, uint32_t* sm_out,
                       uint32_t* em_out) {
  uint32_t sm = 0, em = 0;
  switch (rel) {
    case Relation::kIntersects:
      for (uint32_t j = 0; j < f; ++j) {
        sm |= static_cast<uint32_t>(sb[j] <= qhi) << j;      // piece lo
        em |= static_cast<uint32_t>(eb[j + 1] >= qlo) << j;  // piece hi
      }
      break;
    case Relation::kContainedBy:
      for (uint32_t j = 0; j < f; ++j) {
        sm |= static_cast<uint32_t>(sb[j + 1] >= qlo) << j;
        em |= static_cast<uint32_t>(eb[j] <= qhi) << j;
      }
      break;
    case Relation::kEncloses:
      for (uint32_t j = 0; j < f; ++j) {
        sm |= static_cast<uint32_t>(sb[j] <= qlo) << j;
        em |= static_cast<uint32_t>(eb[j + 1] >= qhi) << j;
      }
      break;
  }
  *sm_out = sm;
  *em_out = em;
}

// Piece boundaries of `v`: piece j spans [b[j], b[j+1]].
void PieceBounds(const VarInterval& v, uint32_t f, float* b) {
  for (uint32_t j = 0; j < f; ++j) b[j] = Piece(v, j, f).lo;
  b[f] = v.hi;
}

#if defined(__SSE2__)
// Keeps the first `m` (< 16) byte lanes of `v`.
inline __m128i KeepLanes(__m128i v, uint32_t m) {
  const __m128i iota =
      _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_and_si128(
      v, _mm_cmplt_epi8(iota, _mm_set1_epi8(static_cast<char>(m))));
}
#endif

// dst[j] += sum over rows r of r[off + j], for j < len. At most 255 rows,
// so byte lanes cannot wrap.
void AddRows(uint8_t* dst, const uint8_t* const* rows, uint32_t nrows,
             uint32_t off, uint32_t len) {
#if defined(__SSE2__)
  uint32_t o = 0;
  for (; o + 64 <= len; o += 64) {
    __m128i a0 = _mm_setzero_si128(), a1 = a0, a2 = a0, a3 = a0;
    for (uint32_t r = 0; r < nrows; ++r) {
      const auto* p = reinterpret_cast<const __m128i*>(rows[r] + off + o);
      a0 = _mm_add_epi8(a0, _mm_loadu_si128(p));
      a1 = _mm_add_epi8(a1, _mm_loadu_si128(p + 1));
      a2 = _mm_add_epi8(a2, _mm_loadu_si128(p + 2));
      a3 = _mm_add_epi8(a3, _mm_loadu_si128(p + 3));
    }
    auto* d = reinterpret_cast<__m128i*>(dst + o);
    _mm_storeu_si128(d, _mm_add_epi8(_mm_loadu_si128(d), a0));
    _mm_storeu_si128(d + 1, _mm_add_epi8(_mm_loadu_si128(d + 1), a1));
    _mm_storeu_si128(d + 2, _mm_add_epi8(_mm_loadu_si128(d + 2), a2));
    _mm_storeu_si128(d + 3, _mm_add_epi8(_mm_loadu_si128(d + 3), a3));
  }
  for (; o < len; o += 16) {
    __m128i acc = _mm_setzero_si128();
    for (uint32_t r = 0; r < nrows; ++r) {
      acc = _mm_add_epi8(acc, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                                  rows[r] + off + o)));
    }
    // The last column may reach past the run; its bytes belong to the
    // neighbouring candidates and must not move.
    if (len - o < 16) acc = KeepLanes(acc, len - o);
    auto* d = reinterpret_cast<__m128i*>(dst + o);
    _mm_storeu_si128(d, _mm_add_epi8(_mm_loadu_si128(d), acc));
  }
#else
  for (uint32_t r = 0; r < nrows; ++r) {
    const uint8_t* src = rows[r] + off;
    for (uint32_t j = 0; j < len; ++j) dst[j] += src[j];
  }
#endif
}

// How a pass folds the byte counts into q: not at all, with one add per
// candidate (proven exact for the whole set), or with one add per lane that
// TwoSum proves exact and the sequential steps otherwise.
enum class Fold { kNone, kExact, kChecked };

#if defined(__SSE2__)
// Folds byte counts `c` (already widened to doubles) into q[0..1].
template <Fold kFold>
inline __m128d FoldPair(double* q, __m128d c, const uint8_t* cb) {
  const __m128d a = _mm_load_pd(q);
  const __m128d s = _mm_add_pd(a, c);
  _mm_store_pd(q, s);
  if (kFold == Fold::kExact) return s;
  // Exact iff the TwoSum error is zero; below 2^53 the steps are then exact
  // too.
  const __m128d bb = _mm_sub_pd(s, a);
  const __m128d err =
      _mm_add_pd(_mm_sub_pd(a, _mm_sub_pd(s, bb)), _mm_sub_pd(c, bb));
  const __m128d exact = _mm_and_pd(_mm_cmpeq_pd(err, _mm_setzero_pd()),
                                   _mm_cmplt_pd(s, _mm_set1_pd(0x1p53)));
  const int m = _mm_movemask_pd(exact);
  if (__builtin_expect(m != 3, 0)) {
    double old[2];
    _mm_storeu_pd(old, a);
    if (!(m & 1)) q[0] = FoldSteps(old[0], cb[0]);
    if (!(m & 2)) q[1] = FoldSteps(old[1], cb[1]);
    return _mm_load_pd(q);
  }
  return s;
}

// Folds counts[0..3] into q[0..3]; returns the folded pairs.
template <Fold kFold>
inline void FoldFour(double* q, const uint8_t* counts, __m128d* lo,
                     __m128d* hi) {
  uint32_t c4;
  std::memcpy(&c4, counts, 4);
  const __m128i z = _mm_setzero_si128();
  const __m128i w = _mm_unpacklo_epi16(
      _mm_unpacklo_epi8(_mm_cvtsi32_si128(static_cast<int>(c4)), z), z);
  *lo = FoldPair<kFold>(q, _mm_cvtepi32_pd(w), counts);
  *hi = FoldPair<kFold>(q + 2, _mm_cvtepi32_pd(_mm_shuffle_epi32(w, 0x4E)),
                        counts + 2);
}

// The split scan's constants, broadcast once per pass.
struct ScanConsts {
  __m128d one, window, p_c, A, B, C, min_n, p_gap, min_benefit;
  explicit ScanConsts(const SplitScan& sc)
      : one(_mm_set1_pd(1.0)),
        window(_mm_set1_pd(sc.window)),
        p_c(_mm_set1_pd(sc.p_c)),
        A(_mm_set1_pd(sc.A)),
        B(_mm_set1_pd(sc.B)),
        C(_mm_set1_pd(sc.C)),
        min_n(_mm_set1_pd(sc.min_n)),
        p_gap(_mm_set1_pd(sc.p_gap)),
        min_benefit(_mm_set1_pd(sc.min_benefit)) {}
};

// beta(s, c) for two candidates, zeroed where the candidate does not
// qualify; the same operations, in the same order, as
// CostModel::MaterializationBenefit.
inline __m128d BenefitPair(__m128d q, const uint32_t* n, const ScanConsts& k) {
  const __m128d ps = _mm_div_pd(_mm_add_pd(q, k.one), k.window);
  const __m128d nv = _mm_cvtepi32_pd(
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(n)));
  __m128d t = _mm_sub_pd(k.p_c, ps);
  t = _mm_mul_pd(t, nv);
  t = _mm_mul_pd(t, k.C);
  const __m128d u = _mm_mul_pd(ps, k.B);
  t = _mm_sub_pd(t, u);
  t = _mm_sub_pd(t, k.A);
  const __m128d ok = _mm_and_pd(
      _mm_and_pd(_mm_cmpge_pd(nv, k.min_n), _mm_cmple_pd(ps, k.p_gap)),
      _mm_cmpgt_pd(t, k.min_benefit));
  return _mm_and_pd(t, ok);
}

// Adds, for each of `nrows` query boxes, the admission of up to 16
// candidates of one refined dimension to `acc` (one byte per candidate).
// Candidate j is admitted iff lo[j] <= box[xi] && hi[j] >= box[yi].
inline __m128i CountChunk(__m128i acc, const float* lo, const float* hi,
                          const float* const* boxes, uint32_t nrows,
                          size_t xi, size_t yi) {
  const __m128 l0 = _mm_load_ps(lo), l1 = _mm_load_ps(lo + 4),
               l2 = _mm_load_ps(lo + 8), l3 = _mm_load_ps(lo + 12);
  const __m128 h0 = _mm_load_ps(hi), h1 = _mm_load_ps(hi + 4),
               h2 = _mm_load_ps(hi + 8), h3 = _mm_load_ps(hi + 12);
  for (uint32_t r = 0; r < nrows; ++r) {
    const __m128 x = _mm_set1_ps(boxes[r][xi]);
    const __m128 y = _mm_set1_ps(boxes[r][yi]);
    const __m128i m0 = _mm_castps_si128(
        _mm_and_ps(_mm_cmple_ps(l0, x), _mm_cmpge_ps(h0, y)));
    const __m128i m1 = _mm_castps_si128(
        _mm_and_ps(_mm_cmple_ps(l1, x), _mm_cmpge_ps(h1, y)));
    const __m128i m2 = _mm_castps_si128(
        _mm_and_ps(_mm_cmple_ps(l2, x), _mm_cmpge_ps(h2, y)));
    const __m128i m3 = _mm_castps_si128(
        _mm_and_ps(_mm_cmple_ps(l3, x), _mm_cmpge_ps(h3, y)));
    // All-ones lanes narrow to 0xFF bytes: subtracting them adds one.
    acc = _mm_sub_epi8(acc, _mm_packs_epi16(_mm_packs_epi32(m0, m1),
                                            _mm_packs_epi32(m2, m3)));
  }
  return acc;
}

#endif

// Benefit pass over `np` (a multiple of 4) candidates, folding `counts` into
// q first unless kFold is kNone.
template <Fold kFold>
void BenefitPass(double* q, const uint32_t* n, uint8_t* counts, uint32_t np,
                 const SplitScan& sc, double* beta) {
#if defined(__SSE2__)
  const ScanConsts k(sc);
  for (uint32_t i = 0; i < np; i += 4) {
    __m128d lo, hi;
    if (kFold != Fold::kNone) {
      FoldFour<kFold>(q + i, counts + i, &lo, &hi);
    } else {
      lo = _mm_load_pd(q + i);
      hi = _mm_load_pd(q + i + 2);
    }
    _mm_storeu_pd(beta + i, BenefitPair(lo, n + i, k));
    _mm_storeu_pd(beta + i + 2, BenefitPair(hi, n + i + 2, k));
  }
#else
  for (uint32_t i = 0; i < np; ++i) {
    if (kFold != Fold::kNone) q[i] = FoldSteps(q[i], counts[i]);
    const double p_s = (q[i] + 1.0) / sc.window;
    const double nn = n[i];
    const double b = (sc.p_c - p_s) * nn * sc.C - p_s * sc.B - sc.A;
    const bool ok = (nn >= sc.min_n) & (p_s <= sc.p_gap) & (b > sc.min_benefit);
    beta[i] = ok ? b : 0.0;
  }
#endif
  if (kFold != Fold::kNone) std::memset(counts, 0, np);
}

// Selection pass: the index of the highest positive beta, lowest index on
// ties, or SIZE_MAX. `beta` holds `np` (a multiple of 8) entries; padding
// entries are 0 and can never win.
size_t SelectBest(const double* beta, uint32_t np) {
  double top = 0.0;
#if defined(__SSE2__)
  __m128d m0 = _mm_setzero_pd(), m1 = m0, m2 = m0, m3 = m0;
  for (uint32_t i = 0; i < np; i += 8) {
    m0 = _mm_max_pd(m0, _mm_loadu_pd(beta + i));
    m1 = _mm_max_pd(m1, _mm_loadu_pd(beta + i + 2));
    m2 = _mm_max_pd(m2, _mm_loadu_pd(beta + i + 4));
    m3 = _mm_max_pd(m3, _mm_loadu_pd(beta + i + 6));
  }
  const __m128d m = _mm_max_pd(_mm_max_pd(m0, m1), _mm_max_pd(m2, m3));
  top = _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
#else
  for (uint32_t i = 0; i < np; ++i) top = beta[i] > top ? beta[i] : top;
#endif
  if (!(top > 0.0)) return SIZE_MAX;  // the common case: no split
  for (uint32_t i = 0;; ++i) {
    if (beta[i] == top) return i;
  }
}

}  // namespace

QueryRing::QueryRing(Dim nd, uint32_t f, uint32_t capacity)
    : nd_(nd), f_(f), per_dim_(f * (f + 1) / 2), capacity_(capacity) {
  ACCL_CHECK(f >= 2 && f <= 32);
  ACCL_CHECK(capacity >= 1 && capacity <= 0x10000u);
  // Admission bytes first, padded so a 16-byte load at any run's tail stays
  // inside the slot; then the box and the relation.
  box_offset_ = RoundUp(static_cast<size_t>(nd) * per_dim_ + 15, 16);
  rel_offset_ = box_offset_ + 2 * static_cast<size_t>(nd) * sizeof(float);
  stride_ = RoundUp(rel_offset_ + 1, 16);
  PieceBounds(VarInterval{}, f, bounds_);
  data_ = AllocateAligned(stride_ * capacity);
}

void QueryRing::Release(uint32_t k) {
  ACCL_CHECK(k <= used_);
  head_ += k;
  if (head_ >= capacity_) head_ -= capacity_;
  used_ -= k;
}

uint16_t QueryRing::Push(const Query& q) {
  ACCL_CHECK(!full());
  ACCL_DCHECK(q.dims() == nd_);
  const uint32_t tail = head_ + used_++;
  const uint16_t s =
      static_cast<uint16_t>(tail >= capacity_ ? tail - capacity_ : tail);
  uint8_t* p = data_.get() + s * stride_;
  const float* qc = q.box.data();
  const uint32_t f = f_;
  uint8_t* a = p;
  for (Dim d = 0; d < nd_; ++d) {
    uint32_t sm, em;
    PieceMasks(bounds_, bounds_, f, qc[2 * d], qc[2 * d + 1], q.rel, &sm,
               &em);
    // Symmetric candidate order: start piece ia, then end pieces ib >= ia.
    for (uint32_t ia = 0; ia < f; ++ia) {
      const uint32_t sa = (sm >> ia) & 1u;
      for (uint32_t ib = ia; ib < f; ++ib) {
        *a++ = static_cast<uint8_t>(sa & (em >> ib));
      }
    }
  }
  std::memcpy(p + box_offset_, qc,
              2 * static_cast<size_t>(nd_) * sizeof(float));
  p[rel_offset_] = static_cast<uint8_t>(q.rel);
  return s;
}

CandidateSet::CandidateSet(const Signature& sig, uint32_t f,
                           double created_weight, float min_width,
                           uint32_t log_capacity)
    : log_capacity_(log_capacity), f_(f), w0_(created_weight) {
  // Piece masks are 32-bit; the paper uses f = 4. Counts are bytes, so a
  // replay may cover at most 255 explorations.
  ACCL_CHECK(f >= 2 && f <= 32);
  ACCL_CHECK(log_capacity <= 255);
  const Dim nd = sig.dims();
  const uint32_t fp1 = f + 1;
  const uint32_t per_dim = f * (f + 1) / 2;
  std::vector<QDim> qdims;
  std::vector<Run> runs;
  std::vector<Refined> refined;
  std::vector<uint32_t> keys, bases;
  std::vector<float> bounds, thresholds;
  for (Dim d = 0; d < nd; ++d) {
    const VarInterval& sv = sig.start_var(d);
    const VarInterval& ev = sig.end_var(d);
    // A dimension already narrowed below min_width cannot discriminate
    // further; skip it. Both variation intervals must be divisible, since a
    // zero-width piece could contain no value at all.
    if (sv.width() < min_width || ev.width() < min_width) continue;
    const uint32_t cand_begin = static_cast<uint32_t>(keys.size());
    QDim qd;
    qd.dim = static_cast<uint16_t>(d);
    qd.start_hi_closed = sv.hi_closed ? 1 : 0;
    qd.end_hi_closed = ev.hi_closed ? 1 : 0;
    qd.start_lo = sv.lo;
    qd.end_lo = ev.lo;
    qd.start_inv_w = f / (static_cast<double>(sv.hi) - sv.lo);
    qd.end_inv_w = f / (static_cast<double>(ev.hi) - ev.lo);
    const size_t b0 = bounds.size();
    bounds.resize(b0 + 2 * fp1);
    PieceBounds(sv, f, bounds.data() + b0);
    PieceBounds(ev, f, bounds.data() + b0 + fp1);
    for (uint32_t ia = 0; ia < f; ++ia) {
      bases.push_back(static_cast<uint32_t>(keys.size()));
      const VarInterval pa = Piece(sv, ia, f);
      for (uint32_t ib = 0; ib < f; ++ib) {
        const VarInterval pb = Piece(ev, ib, f);
        // Feasible iff an object with a <= b can have a in pa and b in pb:
        // the start piece must begin strictly before the end piece ends.
        // With identical variation intervals this excludes ia > ib, giving
        // the paper's f(f+1)/2 symmetric count.
        if (!(pa.lo < pb.hi)) continue;
        keys.push_back((static_cast<uint32_t>(d) << 16) | (ia << 8) | ib);
      }
    }
    bases.push_back(static_cast<uint32_t>(keys.size()));
    // Both variation intervals full-domain: the symmetric layout, whose
    // admissions a replay adds straight from the ring.
    if (sv.IsFullDomain() && ev.IsFullDomain()) {
      ACCL_DCHECK(keys.size() - cand_begin == per_dim);
      const uint32_t adm = static_cast<uint32_t>(d) * per_dim;
      if (!runs.empty() &&
          runs.back().cand_begin + runs.back().len == cand_begin &&
          runs.back().adm_begin + runs.back().len == adm) {
        runs.back().len += per_dim;
      } else {
        runs.push_back(Run{cand_begin, adm, per_dim});
      }
    } else {
      Refined rd;
      rd.dim = static_cast<uint16_t>(d);
      rd.index = static_cast<uint16_t>(qdims.size());
      rd.cand_begin = cand_begin;
      rd.count = static_cast<uint32_t>(keys.size()) - cand_begin;
      rd.thresholds = static_cast<uint32_t>(thresholds.size());
      const float* sb = bounds.data() + b0;
      const float* eb = sb + fp1;
      const size_t chunks = (rd.count + 15) / 16;
      thresholds.resize(thresholds.size() + chunks * kChunkFloats, 0.0f);
      for (uint32_t j = 0; j < rd.count; ++j) {
        const uint32_t k = keys[cand_begin + j];
        const uint32_t ia = (k >> 8) & 0xFF, ib = k & 0xFF;
        float* t = thresholds.data() + rd.thresholds +
                   (j / 16) * kChunkFloats + j % 16;
        t[0] = sb[ia];
        t[16] = eb[ib + 1];
        t[32] = eb[ib];
        t[48] = sb[ia + 1];
      }
      refined.push_back(rd);
    }
    qdims.push_back(qd);
  }

  size_ = static_cast<uint32_t>(keys.size());
  padded_ = static_cast<uint32_t>(RoundUp(size_, 16));
  ndiv_ = static_cast<uint32_t>(qdims.size());
  nruns_ = static_cast<uint32_t>(runs.size());
  nrefined_ = static_cast<uint32_t>(refined.size());
  piece_stride_ =
      static_cast<uint32_t>(RoundUp(3 * fp1 * sizeof(uint32_t), 64));
  // One block. counts_ carries 16 spare bytes for the unaligned column at
  // a run's tail; each divided dim's pieces fill one aligned stride.
  size_t off = 0;
  const auto section = [&off](size_t bytes, size_t align) {
    const size_t at = RoundUp(off, align);
    off = at + bytes;
    return at;
  };
  const size_t q_at = section(padded_ * sizeof(double), 64);
  const size_t n_at = section(padded_ * sizeof(uint32_t), 16);
  const size_t counts_at = section(padded_ + 16, 16);
  const size_t log_at = section(log_capacity * sizeof(uint16_t), 16);
  const size_t runs_at = section(runs.size() * sizeof(Run), 16);
  const size_t refined_at = section(refined.size() * sizeof(Refined), 4);
  const size_t thresholds_at =
      section(thresholds.size() * sizeof(float), 64);
  const size_t pieces_at = section(ndiv_ * size_t{piece_stride_}, 64);
  const size_t qdims_at = section(qdims.size() * sizeof(QDim), 16);
  const size_t key_at = section(keys.size() * sizeof(uint32_t), 16);
  block_ = AllocateAligned(off);
  unsigned char* b = block_.get();
  q_ = reinterpret_cast<double*>(b + q_at);
  n_ = reinterpret_cast<uint32_t*>(b + n_at);
  counts_ = b + counts_at;
  log_ = reinterpret_cast<uint16_t*>(b + log_at);
  runs_ = reinterpret_cast<Run*>(b + runs_at);
  refined_ = reinterpret_cast<Refined*>(b + refined_at);
  thresholds_ = reinterpret_cast<const float*>(b + thresholds_at);
  pieces_ = b + pieces_at;
  qdims_ = reinterpret_cast<QDim*>(b + qdims_at);
  key_ = reinterpret_cast<uint32_t*>(b + key_at);
  // Empty sections have no source (memcpy must not see a null pointer).
  const auto copy = [b](size_t at, const auto& v) {
    if (!v.empty()) std::memcpy(b + at, v.data(), v.size() * sizeof(v[0]));
  };
  copy(runs_at, runs);
  copy(refined_at, refined);
  copy(thresholds_at, thresholds);
  for (size_t i = 0; i < qdims.size(); ++i) {
    unsigned char* piece = b + pieces_at + i * piece_stride_;
    std::memcpy(piece, bounds.data() + i * 2 * fp1, 2 * fp1 * sizeof(float));
    std::memcpy(piece + 2 * fp1 * sizeof(float), bases.data() + i * fp1,
                fp1 * sizeof(uint32_t));
  }
  copy(qdims_at, qdims);
  copy(key_at, keys);
}

namespace {

// PieceIndex against cached piece boundaries: piece j spans
// [bnd[j], bnd[j+1]), the last piece closed iff the variation interval is.
// Same guess-then-nudge logic (and nudge order) as PieceIndex, but without
// reconstructing any Piece, so the insert/move path does one division and a
// couple of cached-float compares per dimension. `x` must lie inside the
// variation interval (candidate accounting is only called for members).
inline int PieceIndexCached(const float* bnd, uint32_t f, bool hi_closed,
                            float lo, double inv_w, float x) {
  int idx = static_cast<int>((x - lo) * inv_w);
  if (idx < 0) idx = 0;
  if (idx >= static_cast<int>(f)) idx = static_cast<int>(f) - 1;
  const auto contains = [&](int j) {
    if (x < bnd[j]) return false;
    if (x < bnd[j + 1]) return true;
    return j + 1 == static_cast<int>(f) && hi_closed && x <= bnd[j + 1];
  };
  if (!contains(idx)) {
    if (idx + 1 < static_cast<int>(f) && contains(idx + 1)) {
      ++idx;
    } else if (idx > 0 && contains(idx - 1)) {
      --idx;
    }
  }
  return idx;
}

}  // namespace

void CandidateSet::AccountObject(BoxView o, int delta) {
  const float* oc = o.data();
  const uint32_t f = f_;
  const uint32_t fp1 = f + 1;
  const size_t ndiv = ndiv_;
  for (size_t i = 0; i < ndiv; ++i) {
    const QDim& qd = qdims_[i];
    const float* sb = bounds(i);
    const float* eb = sb + fp1;
    const int ia = PieceIndexCached(sb, f, qd.start_hi_closed != 0,
                                    qd.start_lo, qd.start_inv_w,
                                    oc[2 * qd.dim]);
    const int ib = PieceIndexCached(eb, f, qd.end_hi_closed != 0, qd.end_lo,
                                    qd.end_inv_w, oc[2 * qd.dim + 1]);
    ACCL_DCHECK(ia == PieceIndex(VarInterval{qd.start_lo, sb[f],
                                             qd.start_hi_closed != 0},
                                 f, o.lo(qd.dim)));
    ACCL_DCHECK(ib == PieceIndex(VarInterval{qd.end_lo, eb[f],
                                             qd.end_hi_closed != 0},
                                 f, o.hi(qd.dim)));
    const uint32_t* b = bases(i);
    const uint32_t base = b[ia];
    const uint32_t ibmin = f - (b[ia + 1] - base);
    if (static_cast<uint32_t>(ib) < ibmin) continue;  // infeasible pair
    uint32_t& n = n_[base + static_cast<uint32_t>(ib) - ibmin];
    if (delta > 0) {
      ++n;
    } else if (n > 0) {
      --n;
    }
  }
}

void CandidateSet::CountDim(size_t i, float qlo, float qhi, Relation rel) {
  // Candidates differ from the owner in exactly one dimension, so a
  // candidate is admitted iff its pieces pass the per-dimension admission
  // test for that dimension: a bitmask of passing start pieces (sm) and end
  // pieces (em) decides the whole dimension.
  const uint32_t f = f_;
  const uint32_t fp1 = f + 1;
  const float* sb = bounds(i);
  uint32_t sm, em;
  PieceMasks(sb, sb + fp1, f, qlo, qhi, rel, &sm, &em);
  if (sm == 0 || em == 0) return;  // no candidate of this dim admitted
  // The piece bounds are monotone, so sm and em are contiguous runs of
  // bits, and per start piece the feasible end pieces are a contiguous
  // suffix — admitted candidates therefore form one contiguous slice per
  // admitted start piece.
  const uint32_t ia_lo = static_cast<uint32_t>(__builtin_ctz(sm));
  const uint32_t ia_hi = 32u - static_cast<uint32_t>(__builtin_clz(sm));
  const uint32_t ib_lo = static_cast<uint32_t>(__builtin_ctz(em));
  const uint32_t ib_hi = 32u - static_cast<uint32_t>(__builtin_clz(em));
  ACCL_DCHECK(sm == (((1ull << ia_hi) - 1) & ~((1ull << ia_lo) - 1)));
  ACCL_DCHECK(em == (((1ull << ib_hi) - 1) & ~((1ull << ib_lo) - 1)));
  const uint32_t* b = bases(i);
  uint8_t* const counts = counts_;
  for (uint32_t ia = ia_lo; ia < ia_hi; ++ia) {
    const uint32_t base = b[ia];
    const uint32_t ibmin = f - (b[ia + 1] - base);
    const uint32_t from = ib_lo > ibmin ? ib_lo : ibmin;
    uint8_t* c = counts + base + (from - ibmin);
    for (uint32_t t = from; t < ib_hi; ++t) ++*c++;
  }
}

void CandidateSet::AccountQuery(const Query& query) {
  const float* qc = query.box.data();
  const size_t ndiv = ndiv_;
  for (size_t i = 0; i < ndiv; ++i) {
    const Dim d = qdims_[i].dim;
    CountDim(i, qc[2 * d], qc[2 * d + 1], query.rel);
  }
  FoldCounts(1);
}

void CandidateSet::CountLog(const QueryRing& ring) {
  const uint32_t len = log_len_;
  if (len == 0) return;
  log_len_ = 0;
  const uint16_t* log = log_;
  // Gather the logged slots first: the ring loads then overlap the adds.
  const uint8_t* rows[255];
  LogBoxes boxes;
  const uint32_t nrefined = nrefined_;
  for (uint32_t e = 0; e < len; ++e) rows[e] = ring.admission(log[e]);
  if (nrefined != 0) {
    for (uint32_t e = 0; e < len; ++e) {
      const auto rel = static_cast<uint32_t>(ring.rel(log[e]));
      boxes.box[rel][boxes.n[rel]++] = ring.box(log[e]);
    }
  }
  // Full-domain dimensions: add the ring's admission bytes run by run.
  const uint32_t nruns = nruns_;
  uint8_t* const counts = counts_;
  for (uint32_t r = 0; r < nruns; ++r) {
    const Run run = runs_[r];
    AddRows(counts + run.cand_begin, rows, len, run.adm_begin, run.len);
  }
  // Refined dimensions test each logged query box, grouped by relation.
  for (uint32_t r = 0; r < nrefined; ++r) CountRefined(refined_[r], boxes);
}

void CandidateSet::CountRefined(const Refined& rd, const LogBoxes& boxes) {
  for (uint32_t rel = 0; rel < 3; ++rel) {
    const uint32_t rows = boxes.n[rel];
    if (rows == 0) continue;
#if defined(__SSE2__)
    // Which query coordinate each threshold is compared against (see
    // PieceMasks): x against lo, y against hi.
    const bool encloses = rel == static_cast<uint32_t>(Relation::kEncloses);
    const size_t xi = 2 * static_cast<size_t>(rd.dim) + (encloses ? 0 : 1);
    const size_t yi = 2 * static_cast<size_t>(rd.dim) + (encloses ? 1 : 0);
    const uint32_t variant =
        rel == static_cast<uint32_t>(Relation::kContainedBy) ? 32 : 0;
    const float* t = thresholds_ + rd.thresholds + variant;
    uint8_t* c = counts_ + rd.cand_begin;
    for (uint32_t c0 = 0; c0 < rd.count; c0 += 16, t += kChunkFloats) {
      __m128i acc =
          CountChunk(_mm_setzero_si128(), t, t + 16, boxes.box[rel], rows,
                     xi, yi);
      if (rd.count - c0 < 16) acc = KeepLanes(acc, rd.count - c0);
      auto* p = reinterpret_cast<__m128i*>(c + c0);
      _mm_storeu_si128(p, _mm_add_epi8(_mm_loadu_si128(p), acc));
    }
#else
    for (uint32_t e = 0; e < rows; ++e) {
      const float* qb = boxes.box[rel][e];
      CountDim(rd.index, qb[2 * rd.dim], qb[2 * rd.dim + 1],
               static_cast<Relation>(rel));
    }
#endif
  }
}

bool CandidateSet::FoldIsExact(uint32_t k) {
  // Every q is a multiple of 2^-halvings_ and at most q_bound_; sums that
  // stay below 2^(53 - halvings_) on that grid are exact. Failing once
  // means failing for good: halving and adding only make the test harder.
  exact_ = exact_ && halvings_ < 53 &&
           q_bound_ + k < std::ldexp(1.0, 53 - static_cast<int>(halvings_));
  q_bound_ += k;
  return exact_;
}

void CandidateSet::FoldCounts(uint32_t max_count) {
  const uint32_t np = padded_;
  double* const q = q_;
  uint8_t* const counts = counts_;
  const bool exact = FoldIsExact(max_count);
#if defined(__SSE2__)
  for (uint32_t i = 0; i < np; i += 4) {
    uint32_t c4;
    std::memcpy(&c4, counts + i, 4);
    if (c4 == 0) continue;
    __m128d lo, hi;
    if (exact) {
      FoldFour<Fold::kExact>(q + i, counts + i, &lo, &hi);
    } else {
      FoldFour<Fold::kChecked>(q + i, counts + i, &lo, &hi);
    }
  }
#else
  (void)exact;
  for (uint32_t i = 0; i < np; ++i) q[i] = FoldSteps(q[i], counts[i]);
#endif
  std::memset(counts, 0, np);
}

void CandidateSet::Replay(const QueryRing& ring) {
  const uint32_t len = log_len_;
  if (len == 0) return;
  CountLog(ring);
  FoldCounts(len);
}

size_t CandidateSet::BestSplit(const QueryRing& ring, const SplitScan& scan,
                               double* beta) {
  const uint32_t len = log_len_;
  if (len == 0) {
    BenefitPass<Fold::kNone>(q_, n_, counts_, padded_, scan, beta);
  } else {
    CountLog(ring);
    if (FoldIsExact(len)) {
      BenefitPass<Fold::kExact>(q_, n_, counts_, padded_, scan, beta);
    } else {
      BenefitPass<Fold::kChecked>(q_, n_, counts_, padded_, scan, beta);
    }
  }
  return SelectBest(beta, padded_);
}

Signature CandidateSet::MakeSignature(const Signature& owner, size_t i) const {
  ACCL_DCHECK(i < size_);
  const Candidate c = at(i);
  Signature s = owner;
  s.set(c.dim, Piece(owner.start_var(c.dim), c.ia, f_),
        Piece(owner.end_var(c.dim), c.ib, f_));
  return s;
}

void CandidateSet::Halve() {
  ACCL_DCHECK(log_len_ == 0);
  w0_ *= 0.5;
  q_bound_ *= 0.5;
  if (halvings_ < 64) ++halvings_;
  const uint32_t n = size_;
  double* const q = q_;
  for (uint32_t i = 0; i < n; ++i) q[i] *= 0.5;
}

}  // namespace accl
