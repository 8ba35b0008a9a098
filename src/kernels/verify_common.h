// Shared skeleton of the batched verification kernel.
//
// Every ISA variant is the same algorithm — 64-record blocks, a branch-free
// chunked fail probe per record, scalar tail for the floats past the last
// full chunk, early-exit dims accounting, bitmask-deferred id emission —
// differing only in how one chunk's "first failing float" is found. Keeping
// the skeleton in one template makes the parity contract structural: a
// backend cannot drift in blocking, ordering, or accounting, only in its
// Probe.
//
// Probe contract:
//   static constexpr size_t kChunk;   // floats examined per step (0 = none:
//                                     // the scalar tail handles everything)
//   static size_t FirstFail(const float* o, const float* bg, const float* bl);
//     // smallest k in [0, kChunk) with o[k] > bg[k] || o[k] < bl[k],
//     // or kChunk when the whole chunk passes.
//
// The admit sweep (VerifyBackend::AdmitSlots) has a skeleton here too:
// 16-row blocks, one pass mask per block ANDed over the dimensions until it
// empties, a scalar test for the rows past the last full block, survivors
// emitted low bit first. A backend supplies only the full block's test:
//   static uint32_t Pass(const float* le, const float* ge, float le_bound,
//                        float ge_bound);
//     // bit j set iff le[j] <= le_bound && ge[j] >= ge_bound, j in [0, 16).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "api/types.h"
#include "geometry/predicates.h"

namespace accl::kernels::detail {

template <typename Probe>
size_t VerifyBatchImpl(const float* coords, const ObjectId* ids, size_t n,
                       const BatchQuery& bq, std::vector<ObjectId>* out,
                       uint64_t* dims_checked) {
  const Dim nd = bq.dims();
  const size_t stride = 2 * static_cast<size_t>(nd);
  const float* __restrict__ bg = bq.gt_bounds();
  const float* __restrict__ bl = bq.lt_bounds();
  uint64_t dims = 0;
  size_t matches = 0;
  for (size_t block = 0; block < n; block += 64) {
    const size_t bn = std::min<size_t>(64, n - block);
    uint64_t match_mask = 0;
    const float* __restrict__ o = coords + block * stride;
    for (size_t j = 0; j < bn; ++j, o += stride) {
      // Stay a few records ahead of the hardware prefetcher: most records
      // are rejected after one or two dimensions, so the sweep consumes
      // lines faster than a freshly started stream is predicted.
      __builtin_prefetch(o + 4 * stride);
      size_t k = 0;
      size_t fail = stride;
      if constexpr (Probe::kChunk > 0) {
        // Chunked sweep: the fail test is evaluated branch-free for the
        // whole chunk and reduced to the first failing float. No
        // data-dependent branching per dimension, so mixed fail depths
        // cost no mispredictions; the one branch per chunk ("this chunk
        // decided it") is overwhelmingly taken on selective queries.
        for (; k + Probe::kChunk <= stride; k += Probe::kChunk) {
          const size_t idx = Probe::FirstFail(o + k, bg + k, bl + k);
          if (idx != Probe::kChunk) {
            fail = k + idx;
            break;
          }
        }
      }
      if (fail == stride) {
        // Scalar tail: the (stride % kChunk) floats past the last full
        // chunk — also the whole record for the scalar backend.
        for (size_t t = k; t < stride; ++t) {
          if ((o[t] > bg[t]) | (o[t] < bl[t])) {
            fail = t;
            break;
          }
        }
      }
      if (fail == stride) {
        dims += nd;
        match_mask |= 1ull << j;
      } else {
        dims += fail / 2 + 1;  // logical reads: failing dimension + 1
      }
    }
    while (match_mask != 0) {
      const unsigned j = static_cast<unsigned>(__builtin_ctzll(match_mask));
      match_mask &= match_mask - 1;
      out->push_back(ids[block + j]);
      ++matches;
    }
  }
  *dims_checked += dims;
  return matches;
}

constexpr size_t kAdmitBlock = 16;

/// Admit test of rows [0, n) of one dimension, bit j for row j (n <= 16).
inline uint32_t AdmitPassScalar(const float* le, const float* ge,
                                float le_bound, float ge_bound, size_t n) {
  uint32_t m = 0;
  for (size_t j = 0; j < n; ++j) {
    m |= static_cast<uint32_t>((le[j] <= le_bound) & (ge[j] >= ge_bound))
         << j;
  }
  return m;
}

template <typename Block>
size_t AdmitSlotsImpl(const float* le, const float* ge, size_t stride,
                      const float* le_bound, const float* ge_bound, Dim nd,
                      size_t n, uint32_t* out_slots) {
  size_t count = 0;
  // Rows [base, base + bn) through `pass`, one dimension at a time.
  const auto sweep = [&](size_t base, size_t bn, auto pass) {
    const float* l = le + base;
    const float* g = ge + base;
    uint32_t m = (1u << bn) - 1;
    for (Dim d = 0; d < nd && m != 0; ++d, l += stride, g += stride) {
      m &= pass(l, g, le_bound[d], ge_bound[d]);
    }
    while (m != 0) {
      out_slots[count++] =
          static_cast<uint32_t>(base) + static_cast<uint32_t>(__builtin_ctz(m));
      m &= m - 1;
    }
  };
  size_t base = 0;
  for (; base + kAdmitBlock <= n; base += kAdmitBlock) {
    sweep(base, kAdmitBlock, [](const float* l, const float* g, float lb,
                                float gb) { return Block::Pass(l, g, lb, gb); });
  }
  if (base < n) {
    const size_t bn = n - base;
    sweep(base, bn, [bn](const float* l, const float* g, float lb, float gb) {
      return AdmitPassScalar(l, g, lb, gb, bn);
    });
  }
  return count;
}

}  // namespace accl::kernels::detail
