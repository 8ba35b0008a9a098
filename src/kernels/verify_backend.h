// VerifyBackend — the interface every batched-verification kernel variant
// implements (scalar / SSE2 / AVX2 / AVX-512, and whatever the registry
// grows next: a GPU or stub backend drops in here without touching any
// call site).
//
// The backends are *observationally identical by contract*: for the same
// inputs every backend must produce the same match set, in the same order,
// with the same cost accounting. Vector width may only change how fast the
// answer arrives, never what the answer is — the kernel-parity property
// test (tests/kernel_parity_test.cc) enforces this against the scalar
// reference for every registered backend.
#pragma once

#include <cstdint>
#include <vector>

#include "api/types.h"
#include "geometry/predicates.h"
#include "kernels/cpu_features.h"
#include "obs/metrics.h"

namespace accl::kernels {

/// One batched-verification kernel implementation.
class VerifyBackend {
 public:
  virtual ~VerifyBackend() = default;

  /// Stable lower-case identifier ("scalar", "sse2", "avx2", "avx512").
  /// This is the name IndexOptions / ACCL_FORCE_BACKEND pin by, and the
  /// name surfaced in metrics and BENCH JSON.
  virtual const char* name() const = 0;

  /// Floats compared per vector step (1 for scalar, 4/8/16 for
  /// SSE2/AVX2/AVX-512). Registry auto-selection picks the widest
  /// supported backend; ties break toward earlier registration.
  virtual uint32_t vector_width_floats() const = 0;

  /// True when `host` can execute this backend's instructions. A backend
  /// may be registered (compiled into the binary) yet unsupported on the
  /// machine that loaded it — selection filters on this.
  virtual bool SupportedOnHost(const CpuFeatures& host) const = 0;

  // ---- The dims-accounting contract ----------------------------------
  //
  // VerifyBatch verifies `n` records of a flat coordinate block (stride
  // 2*nd floats, layout [lo0, hi0, lo1, hi1, ...] — the SlotArray layout)
  // against the precomputed query image `bq`, appends the ids of matching
  // records to `*out` IN RECORD ORDER, and returns the match count.
  //
  // `*dims_checked` is incremented by the number of LOGICAL dimension
  // reads — per record, exactly what the scalar early-exit loop
  // (SatisfiesCounting) would report:
  //
  //     first failing dimension + 1   on a reject,
  //     nd                            on a match,
  //
  // where the first failing dimension is derived from the first failing
  // FLOAT position k as k/2 (each dimension spans two floats). This is a
  // *logical reads* count, not a physical-probe count: a wide backend
  // that speculatively compares 16 floats past the failing position, or
  // re-probes a chunk to locate the first failing bit, performs more
  // physical comparisons but must still charge only the scalar early-exit
  // figure. The cost model prices verification from this counter
  // (verify_ms_per_byte * (4*n + 8*dims_checked)); a backend that let its
  // physical probe count leak into it would silently skew every
  // split/merge decision the adaptive clustering makes — and would do so
  // differently per machine, making cost-model traces
  // hardware-dependent. Backends are free to vectorize however they like
  // as long as this accounting (and the match set) is bit-for-bit the
  // scalar reference's.
  virtual size_t VerifyBatch(const float* coords, const ObjectId* ids,
                             size_t n, const BatchQuery& bq,
                             std::vector<ObjectId>* out,
                             uint64_t* dims_checked) const = 0;

  // ---- Admit-filter sweep (SignatureTable::CollectAdmitted) ----------
  //
  // The signature admit test over `n` table rows. `le` and `ge` are
  // dimension-major arrays with stride `stride` (entry [d * stride + s]);
  // row s survives iff, for every d < nd,
  //
  //     le[d * stride + s] <= le_bound[d]  &&  ge[d * stride + s] >= ge_bound[d]
  //
  // (ordered compares: a NaN entry or bound never survives). The survivors'
  // ascending row numbers go to `out_slots` (capacity >= n); the return
  // value is their count. Backends test 16 rows per block, AND the
  // dimensions into the block's mask and leave the block once it is empty,
  // but the survivor list and its order are contract: every backend must
  // emit exactly the scalar reference's. No dims accounting — the admit
  // filter is charged per cluster (the cost model's A term), not per
  // dimension.
  //
  // The base-class implementation is the scalar reference; the vector
  // backends override it with their own 16-row block test.
  virtual size_t AdmitSlots(const float* le, const float* ge, size_t stride,
                            const float* le_bound, const float* ge_bound,
                            Dim nd, size_t n, uint32_t* out_slots) const;

  // ---- Batched placement (AdaptiveIndex::BulkInsert) -----------------
  //
  // One cluster's membership test over a chunk of `n` objects held
  // column-major: value i of column c is cols[c * col_stride + i]
  // (columns 2d and 2d+1 are the starts and ends in dimension d).
  // Object i is accepted iff, for every t < ntests,
  //
  //     tests[t].lo <= cols[tests[t].col * col_stride + i] <= tests[t].hi
  //
  // (ordered compares: a NaN is never accepted; no tests accept all), and
  // an accepted object keeps the lower of its rank and the cluster's:
  //
  //     best[i] = min(best[i], rank)   (unsigned)
  //
  // Every backend must leave exactly the scalar reference's best[]. The
  // base-class implementation is that reference; the vector backends
  // override it, since the -O2 build leaves the loop scalar.
  struct ColumnRange {
    uint32_t col;
    float lo;
    float hi;
  };
  virtual void RankAccepting(const float* cols, size_t col_stride, size_t n,
                             const ColumnRange* tests, size_t ntests,
                             uint32_t rank, uint32_t* best) const;

  // ---- Dispatch accounting -------------------------------------------
  //
  // Call sites that resolve a backend once and loop (the adaptive index's
  // verify loop) note the loop's `n` VerifyBatch dispatches here in one
  // call; the BackendRegistry attaches every registered backend's counter
  // to the process-default MetricsRegistry as
  // accl_kernel_dispatch_<name>_total, so engine metric dumps show which
  // kernel actually ran and how often.
  void NoteDispatch(uint64_t n) const { dispatch_count_.Add(n); }
  uint64_t dispatch_count() const { return dispatch_count_.Value(); }
  obs::Counter* dispatch_counter() const { return &dispatch_count_; }

 private:
  mutable obs::Counter dispatch_count_;
};

}  // namespace accl::kernels
