// Flight-recorder tracing: per-thread fixed-capacity ring buffers of
// compact binary span/instant events, drained on demand to Chrome
// trace-event JSON (chrome://tracing, Perfetto).
//
// Hot-path contract:
//   - One process-wide enable flag (relaxed atomic). Every instrumentation
//     macro checks it first, so the *disabled* path is a single predicted
//     branch — no TLS lookup, no clock read, no ring write.
//   - When enabled, Record() is: one thread_local ring lookup (registered
//     on first use), one steady_clock read, one 24-byte slot store, one
//     relaxed+release head bump. No locks, no allocation after the ring
//     exists. The ring wraps: the recorder keeps the newest `capacity`
//     events per thread, which is exactly the flight-recorder semantics —
//     always able to dump the recent past.
//
// Event encoding: {const char* name, uint64 ts_ns, uint32 arg, uint8
// phase} = 24 bytes. `name` MUST be a string literal (or otherwise
// outlive the recorder): events store the pointer, not the bytes.
//
// Draining: DrainChromeJson() snapshots every ring under the registry
// mutex. Call it with tracing disabled and writers quiesced (e.g. after
// MatchBatch returned — the join of the batch's pool fan-outs orders
// every worker's ring writes before the caller's drain). A write
// racing a drain can at worst surface one torn event in a debug dump; it
// cannot corrupt the recorder. Rings persist after their thread exits
// (they are owned by the recorder), so short-lived threads' events
// survive until Clear().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace accl::obs {

class TraceRecorder {
 public:
  enum Phase : uint8_t { kBegin = 0, kEnd = 1, kInstant = 2 };

  /// One recorded event; see the encoding note above.
  struct Event {
    const char* name;
    uint64_t ts_ns;
    uint32_t arg;
    uint8_t phase;
  };
  static_assert(sizeof(Event) <= 24, "events must stay compact");

  /// The process-wide flight recorder.
  static TraceRecorder& Global();

  /// The one relaxed atomic every instrumentation site checks.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed) != 0;
  }
  void SetEnabled(bool on) {
    enabled_.store(on ? 1 : 0, std::memory_order_relaxed);
  }

  /// Per-thread ring capacity in events. Applies to rings created after
  /// the call (a thread's ring is sized at its first Record).
  void SetRingCapacity(size_t events);
  size_t ring_capacity() const {
    return ring_capacity_.load(std::memory_order_relaxed);
  }

  /// Appends one event to the calling thread's ring. Callers normally go
  /// through the ACCL_TRACE_* macros, which gate on enabled() first.
  void Record(const char* name, Phase phase, uint32_t arg = 0);

  /// Drops every ring's contents (the rings stay registered).
  void Clear();

  /// Total events currently resident across all rings.
  size_t EventCount() const;

  /// Chrome trace-event JSON: {"traceEvents":[...]} with one B/E/i entry
  /// per recorded event, tids = dense per-ring ordinals, ts in
  /// microseconds relative to the recorder's epoch.
  std::string DrainChromeJson() const;

  /// RAII span: records kBegin when constructed with tracing enabled and
  /// the matching kEnd at scope exit. A span that began keeps its end
  /// even if tracing is toggled off mid-scope (unbalanced B events would
  /// confuse the viewer more than one extra E).
  class Span {
   public:
    explicit Span(const char* name, uint32_t arg = 0) {
      if (__builtin_expect(enabled(), 0)) {
        name_ = name;
        Global().Record(name, kBegin, arg);
      }
    }
    ~Span() {
      if (__builtin_expect(name_ != nullptr, 0)) {
        Global().Record(name_, kEnd, 0);
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    const char* name_ = nullptr;
  };

 private:
  TraceRecorder();

  struct Ring {
    explicit Ring(size_t capacity, uint32_t tid)
        : slots(capacity), tid(tid) {}
    std::vector<Event> slots;
    /// Monotone write cursor; slot = head % capacity. Written with
    /// release so a quiesced drain's acquire load covers the slots.
    std::atomic<uint64_t> head{0};
    uint32_t tid;
  };

  Ring* RingForThisThread();

  static std::atomic<uint32_t> enabled_;
  std::atomic<size_t> ring_capacity_{8192};
  uint64_t epoch_ns_;  ///< steady-clock origin for exported timestamps

  mutable std::mutex mu_;  ///< ring registry only — never on the record path
  std::vector<std::unique_ptr<Ring>> rings_;
};

}  // namespace accl::obs

/// Span over the enclosing scope. `name` must be a string literal.
#define ACCL_TRACE_CONCAT2(a, b) a##b
#define ACCL_TRACE_CONCAT(a, b) ACCL_TRACE_CONCAT2(a, b)
#define ACCL_TRACE_SPAN(name) \
  ::accl::obs::TraceRecorder::Span ACCL_TRACE_CONCAT(accl_trace_span_, \
                                                     __LINE__)(name)
#define ACCL_TRACE_SPAN_ARG(name, arg) \
  ::accl::obs::TraceRecorder::Span ACCL_TRACE_CONCAT(accl_trace_span_, \
                                                     __LINE__)(name, (arg))

/// Single instant event (zero duration).
#define ACCL_TRACE_INSTANT(name, arg)                                  \
  do {                                                                 \
    if (__builtin_expect(::accl::obs::TraceRecorder::enabled(), 0)) {  \
      ::accl::obs::TraceRecorder::Global().Record(                     \
          (name), ::accl::obs::TraceRecorder::kInstant,                \
          static_cast<uint32_t>(arg));                                 \
    }                                                                  \
  } while (0)
