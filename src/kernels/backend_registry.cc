#include "kernels/backend_registry.h"

#include <cstdio>
#include <cstdlib>

#include "kernels/backends.h"
#include "obs/metrics.h"

namespace accl::kernels {

BackendRegistry::BackendRegistry() : host_(HostCpuFeatures()) {
  auto add = [this](std::unique_ptr<VerifyBackend> b) {
    if (!b || !b->SupportedOnHost(host_)) return;
    all_.push_back(b.get());
    if (widest_ == nullptr ||
        b->vector_width_floats() > widest_->vector_width_floats()) {
      widest_ = b.get();
    }
    owned_.push_back(std::move(b));
  };
  add(MakeScalarBackend());
  add(MakeSse2Backend());
#if defined(ACCL_KERNEL_HAVE_AVX2)
  add(MakeAvx2Backend());
#endif
#if defined(ACCL_KERNEL_HAVE_AVX512)
  add(MakeAvx512Backend());
#endif
  // Per-backend dispatch counters live on the process-default registry:
  // the backends are process-wide singletons (this registry is leaked),
  // so the lifetime contract of Attach holds trivially.
  for (const VerifyBackend* b : all_) {
    obs::MetricsRegistry::Default().Attach(
        std::string("accl_kernel_dispatch_") + b->name() + "_total",
        b->dispatch_counter(),
        "VerifyBatch dispatches through this backend");
  }
}

const BackendRegistry& BackendRegistry::Instance() {
  static const BackendRegistry registry;
  return registry;
}

const VerifyBackend* BackendRegistry::Find(const std::string& name) const {
  for (const VerifyBackend* b : all_) {
    if (name == b->name()) return b;
  }
  return nullptr;
}

const VerifyBackend* BackendRegistry::Resolve(const std::string& requested,
                                              std::string* note) const {
  if (const char* env = std::getenv("ACCL_FORCE_BACKEND");
      env != nullptr && env[0] != '\0') {
    if (const VerifyBackend* b = Find(env)) {
      if (note) *note = std::string("pinned by ACCL_FORCE_BACKEND=") + env;
      return b;
    }
    static bool warned = false;
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "accl: ACCL_FORCE_BACKEND=%s is not a registered verify "
                   "backend (have: %s); ignoring the pin\n",
                   env, BackendNames().c_str());
    }
  }
  if (!requested.empty()) {
    const VerifyBackend* b = Find(requested);
    if (b != nullptr && note) *note = "requested via config";
    return b;  // nullptr for unknown/unsupported: the caller owns the error
  }
  if (note) *note = "widest supported on host";
  return widest_;
}

std::string BackendRegistry::BackendNames() const {
  std::string names;
  for (const VerifyBackend* b : all_) {
    if (!names.empty()) names += ' ';
    names += b->name();
  }
  return names;
}

size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                   const BatchQuery& bq, std::vector<ObjectId>* out,
                   uint64_t* dims_checked) {
  const VerifyBackend* b = BackendRegistry::Instance().Resolve("");
  b->NoteDispatch(1);
  return b->VerifyBatch(coords, ids, n, bq, out, dims_checked);
}

}  // namespace accl::kernels
