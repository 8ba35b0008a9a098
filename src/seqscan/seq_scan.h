// Sequential Scan baseline (paper §7.1).
//
// The whole database is one sequentially stored collection; every query
// checks every object. Quantitatively expensive but with perfect data
// locality — on disk it pays a single head positioning followed by one
// sustained sequential transfer, which is why it beats R-tree variants in
// high dimensions and is the reference the adaptive clustering must always
// outperform.
#pragma once

#include <cstdint>

#include "api/spatial_index.h"
#include "cost/cost_model.h"
#include "geometry/predicates.h"
#include "storage/slot_array.h"

namespace accl {

namespace kernels {
class VerifyBackend;
}  // namespace kernels

/// The Sequential Scan competitor.
class SeqScan : public SpatialIndex {
 public:
  explicit SeqScan(Dim nd,
                   StorageScenario scenario = StorageScenario::kMemory,
                   const SystemParams& sys = SystemParams::Paper());

  const char* name() const override { return "SS"; }
  Dim dims() const override { return nd_; }
  void Insert(ObjectId id, BoxView box) override;
  bool Erase(ObjectId id) override;
  void Execute(const Query& q, std::vector<ObjectId>* out,
               QueryMetrics* metrics = nullptr) override;
  size_t size() const override { return store_.size(); }
  VerifyKernelInfo verify_kernel() const override;

 private:
  Dim nd_;
  StorageScenario scenario_;
  SystemParams sys_;
  /// Verification backend resolved once at construction (env / widest).
  const kernels::VerifyBackend* backend_;
  /// Grows by the slot array's default reserve, so loading is amortized
  /// O(1) per object (capacity feeds no cost or metric path).
  SlotArray store_;
  /// Reused per-query verification image (avoids per-query allocation).
  BatchQuery bq_;
};

}  // namespace accl
