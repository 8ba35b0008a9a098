// Process-wide registry of verify backends.
//
// Built once, at first use: the constructor probes the host CPU
// (cpu_features.h) and registers every compiled-in backend the host can
// execute — always "scalar", then "sse2"/"avx2"/"avx512" as CPUID and the
// build allow. Selection is a pure function of (env, request, host), so
// two indexes constructed with the same inputs always verify with the same
// kernel.
//
// Resolve precedence, strongest first:
//   1. ACCL_FORCE_BACKEND environment variable — operator pin, wins over
//      everything (CI's forced-scalar job rides on this). An unknown or
//      unsupported name warns once to stderr and falls through, so a stale
//      pin degrades loudly instead of crashing or silently lying.
//   2. The requested name (AdaptiveConfig::verify_backend). Unknown or
//      unsupported names return nullptr here — the caller owns the error
//      (ValidateOptions turns it into InvalidArgument before an engine
//      ever starts).
//   3. Widest supported: highest vector_width_floats() among registered
//      backends. The common case; picks avx512 > avx2 > sse2 > scalar.
//
// The environment variable is re-read on every Resolve call (it is not
// latched at registry construction) so tests can setenv/unsetenv around
// index construction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "kernels/verify_backend.h"

namespace accl::kernels {

class BackendRegistry {
 public:
  static const BackendRegistry& Instance();

  // Registered backend with the given name, or nullptr. Registered implies
  // compiled in AND executable on this host.
  const VerifyBackend* Find(const std::string& name) const;

  // Applies the precedence above. `requested` empty means "no preference".
  // Returns nullptr only when `requested` is non-empty and not registered;
  // with an empty request a backend is always found (scalar is always
  // registered). If `note` is non-null it receives a one-line description
  // of why this backend was chosen (for logs / bench metadata).
  const VerifyBackend* Resolve(const std::string& requested,
                               std::string* note = nullptr) const;

  const std::vector<const VerifyBackend*>& All() const { return all_; }
  const CpuFeatures& host() const { return host_; }

  // "scalar sse2 avx2 avx512" — for error messages.
  std::string BackendNames() const;

 private:
  BackendRegistry();

  CpuFeatures host_;
  std::vector<std::unique_ptr<VerifyBackend>> owned_;
  std::vector<const VerifyBackend*> all_;     // registration order
  const VerifyBackend* widest_ = nullptr;
};

// Registry-dispatched convenience mirroring the old geometry::VerifyBatch
// free function: verifies with the backend the registry resolves for an
// empty request (env pin respected). Callers on a hot path should resolve
// once and hold the pointer instead.
size_t VerifyBatch(const float* coords, const ObjectId* ids, size_t n,
                   const BatchQuery& bq, std::vector<ObjectId>* out,
                   uint64_t* dims_checked);

}  // namespace accl::kernels
