// Structure-of-arrays image of all live cluster signatures, indexed by
// cluster id.
//
// AdaptiveIndex::Execute must test every materialized cluster's signature
// against the query (paper Fig. 5 step 2, the A term of T = A + p(B + nC)).
// Walking the cluster table for that chases one heap pointer per cluster;
// this table keeps a packed copy of the per-dimension signature bounds
// (amin/amax/bmin/bmax) so the test is one branch-light SIMD sweep over
// contiguous floats (VerifyBackend::AdmitSlots).
//
// Layout: row = ClusterId. Four float arrays, each dimension-major with
// stride `cap_` (entry [d * cap_ + id]). Every row that holds no live
// cluster — a freed id, or any row at or above the high-water id — is NaN
// in every entry, so every ordered compare rejects it and the sweep needs
// no liveness test. Because a row is a cluster id, the sweep's ascending
// survivors are already in cluster-id order, the order Execute explores in.
//
// Cost: the sweep covers rows [0, high_water()), rounded up to whole
// 16-row blocks, and within a block stops at the first dimension that
// rejects all 16 rows. So it scales with the high-water id, not the live
// count. Ids are recycled last-freed-first and the high-water id drops
// when the top id is freed, so freed rows only linger below the highest
// live id.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "core/signature.h"
#include "geometry/query.h"

namespace accl {

namespace kernels {
class VerifyBackend;
}  // namespace kernels

/// Packed admit-filter index over live cluster signatures.
///
/// Thread safety: none. CollectAdmitted writes per-query bound scratch, so
/// callers serialize access per table — AdaptiveIndex inherits this
/// contract and documents it.
class SignatureTable {
 public:
  /// `backend` runs the admit sweep; nullptr selects the registry's
  /// resolved backend.
  explicit SignatureTable(Dim nd,
                          const kernels::VerifyBackend* backend = nullptr);

  Dim dims() const { return nd_; }
  /// Live rows.
  size_t size() const { return live_; }
  /// One past the highest live id (0 when empty).
  size_t high_water() const { return high_water_; }

  /// Registers free id `id` with `sig`'s bounds.
  void Add(ClusterId id, const Signature& sig);

  /// Frees live id `id`: its row turns NaN.
  void Remove(ClusterId id);

  /// Drops all entries (used when rebuilding an index from images).
  void Clear();

  /// Appends, in ascending id order, the id of every signature admitting
  /// `q`: exactly the clusters for which Signature::AdmitsQuery is true,
  /// except that a NaN query coordinate admits none.
  void CollectAdmitted(const Query& q, std::vector<ClusterId>* out);

  /// Consistency probes for CheckInvariants: row `id` holds exactly
  /// `sig`'s bounds; row `id` is free (NaN throughout).
  bool RowMatches(ClusterId id, const Signature& sig) const;
  bool RowFree(ClusterId id) const;

 private:
  void Grow(size_t need);

  Dim nd_;
  const kernels::VerifyBackend* backend_;  ///< never null after construction
  size_t cap_ = 0;  ///< rows allocated; a multiple of the 16-row block
  size_t live_ = 0;
  size_t high_water_ = 0;
  // Signature bounds, [d * cap_ + id]:
  std::vector<float> amin_;  ///< start_var(d).lo
  std::vector<float> amax_;  ///< start_var(d).hi
  std::vector<float> bmin_;  ///< end_var(d).lo
  std::vector<float> bmax_;  ///< end_var(d).hi
  /// The current query's per-dimension bounds: [0, nd) compared with <=,
  /// [nd, 2nd) with >=.
  std::vector<float> bounds_;
};

}  // namespace accl
