#include "seqscan/seq_scan.h"

#include "geometry/predicates.h"
#include "kernels/backend_registry.h"
#include "util/check.h"

namespace accl {

SeqScan::SeqScan(Dim nd, StorageScenario scenario, const SystemParams& sys)
    : nd_(nd),
      scenario_(scenario),
      sys_(sys),
      backend_(kernels::BackendRegistry::Instance().Resolve("")),
      store_(nd) {}

VerifyKernelInfo SeqScan::verify_kernel() const {
  return {backend_->name(), backend_->vector_width_floats()};
}

void SeqScan::Insert(ObjectId id, BoxView box) {
  ACCL_CHECK(box.dims() == nd_);
  store_.Append(id, box);
}

bool SeqScan::Erase(ObjectId id) {
  const size_t slot = store_.Find(id);
  if (slot == static_cast<size_t>(-1)) return false;
  store_.RemoveAt(slot);
  return true;
}

void SeqScan::Execute(const Query& q, std::vector<ObjectId>* out,
                      QueryMetrics* metrics) {
  ACCL_CHECK(q.dims() == nd_);
  QueryMetrics local;
  QueryMetrics* m = metrics ? metrics : &local;
  m->Clear();
  m->groups_total = 1;
  m->groups_explored = 1;

  const size_t n = store_.size();
  bq_.Assign(q.box.view(), q.rel);
  m->result_count += backend_->VerifyBatch(
      store_.coords_data(), store_.ids().data(), n, bq_, out,
      &m->dims_checked);
  m->objects_verified = n;
  m->bytes_verified = store_.live_bytes();

  // Cost-model time. CPU verification is charged for the bytes actually
  // compared (id + 8 bytes per checked dimension) — this reproduces the
  // paper's footnote 4: unselective queries reject later and cost up to
  // ~3x more CPU.
  const uint64_t cpu_bytes = 4ull * n + 8ull * m->dims_checked;
  m->sim_time_ms += sys_.verify_ms_per_byte * static_cast<double>(cpu_bytes);
  if (scenario_ == StorageScenario::kDisk) {
    // One head positioning, then one sustained sequential transfer.
    m->disk_seeks = 1;
    m->disk_bytes = store_.live_bytes();
    m->sim_time_ms +=
        sys_.disk_access_ms +
        sys_.disk_ms_per_byte * static_cast<double>(m->disk_bytes);
  }
}

}  // namespace accl
