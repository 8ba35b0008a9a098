// Process-wide heap-allocation counter, the observable home of what used
// to be a bench-private global-operator-new counter.
//
// The counter itself always exists (one relaxed atomic); what is optional
// is the *hook* that feeds it: replacing global operator new is a
// whole-binary decision, so the replacement cannot live in the library
// (it would hijack allocation for every test and tool linking it).
// Instead a binary that wants allocation accounting expands
// ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK() once at namespace scope — the
// bench does — and every engine's DumpMetrics() then reports live
// allocs via the `accl_process_heap_allocs` gauge. Binaries
// without the hook report 0 and `accl_process_heap_alloc_hook` = 0.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace accl::obs {

/// The counter the hook feeds. Function-local so the hook can run during
/// static initialization of any TU.
std::atomic<uint64_t>& HeapAllocCount();

/// Current lifetime allocation count (0 when no hook is installed).
uint64_t HeapAllocsNow();

/// True once ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK() ran in this binary.
bool HeapAllocHookInstalled();

/// Internal: the macro's static initializer calls this.
void MarkHeapAllocHookInstalled();

}  // namespace accl::obs

// Once GCC inlines the hook, it flags the sized delete as mismatched with
// the hook's new, although that delete frees exactly what the new
// malloc'd; the hook silences that warning for its own definitions.
#if defined(__GNUC__) && !defined(__clang__)
#define ACCL_OBS_ALLOC_HOOK_DIAG_PUSH_ \
  _Pragma("GCC diagnostic push")       \
      _Pragma("GCC diagnostic ignored \"-Wmismatched-new-delete\"")
#define ACCL_OBS_ALLOC_HOOK_DIAG_POP_ _Pragma("GCC diagnostic pop")
#else
#define ACCL_OBS_ALLOC_HOOK_DIAG_PUSH_
#define ACCL_OBS_ALLOC_HOOK_DIAG_POP_
#endif

/// Expands, exactly once per binary and at namespace scope, to a
/// counting replacement of the global allocation operators.
#define ACCL_OBS_INSTALL_GLOBAL_ALLOC_HOOK()                                 \
  ACCL_OBS_ALLOC_HOOK_DIAG_PUSH_                                             \
  void* operator new(std::size_t size) {                                     \
    ::accl::obs::HeapAllocCount().fetch_add(1, std::memory_order_relaxed);   \
    if (void* p = std::malloc(size ? size : 1)) return p;                    \
    throw std::bad_alloc();                                                  \
  }                                                                          \
  void* operator new[](std::size_t size) { return ::operator new(size); }    \
  void operator delete(void* p) noexcept { std::free(p); }                   \
  void operator delete[](void* p) noexcept { std::free(p); }                 \
  void operator delete(void* p, std::size_t) noexcept { std::free(p); }      \
  void operator delete[](void* p, std::size_t) noexcept { std::free(p); }    \
  namespace accl::obs::internal {                                            \
  struct HeapAllocHookInstaller {                                            \
    HeapAllocHookInstaller() { ::accl::obs::MarkHeapAllocHookInstalled(); }  \
  };                                                                         \
  static const HeapAllocHookInstaller heap_alloc_hook_installer{};           \
  }                                                                          \
  ACCL_OBS_ALLOC_HOOK_DIAG_POP_                                              \
  static_assert(true, "require a trailing semicolon")
