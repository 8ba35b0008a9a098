// Unified metrics plane: process- and engine-scoped named counters,
// gauges, and log-bucketed histograms with cheap hot-path recording and
// two export formats (Prometheus text exposition, JSON).
//
// Design:
//   - Counter: monotone, sharded by thread across cache-line-padded
//     atomic cells — Add() is one relaxed fetch_add on the calling
//     thread's cell, so concurrent writers on different cores never
//     bounce a line. Value() sums the cells (racy-exact: every Add that
//     happened-before the read is included).
//   - Gauge: one atomic int64 (Set/Add); for point-in-time levels.
//   - Histogram: HDR-style log-bucketed — kSubBits sub-buckets per
//     power-of-two octave, so bucket boundaries are exact below
//     2^kSubBits and the relative quantization error is bounded by
//     2^-kSubBits (12.5%) everywhere else. Record() is one relaxed
//     fetch_add on the bucket plus relaxed count/sum/max updates; no
//     locks, no sampling window. Percentiles are derived at snapshot
//     time by a bucket walk and clamped to the exact recorded max, so
//     p50 <= p90 <= p99 <= max always holds.
//   - MetricsRegistry: name -> metric. Metrics are either registry-owned
//     (GetCounter/GetGauge/GetHistogram create on first use) or
//     externally owned and Attach()ed — components (WAL, epoch manager,
//     checkpointer, log shipper) own their metrics as plain members and
//     attach them to an engine's registry when wired in, so the engine's
//     DumpMetrics() sees everything. The registry is the only read path:
//     no component keeps a typed stats copy of what it publishes here,
//     and a component used without an engine is read by attaching it to
//     a local registry. Attached metrics must outlive the registry or be
//     Detach()ed.
//   - Snapshot-with-delta: Snapshot() captures every metric's value;
//     MetricsSnapshot::DeltaSince(base) subtracts monotone quantities
//     (counter values, histogram count/sum) so a caller can report
//     per-window rates from two snapshots.
//
// Naming scheme (see README "Observability"): accl_<family>_<what>[_<unit>]
// with counters suffixed _total, histograms suffixed by their unit
// (e.g. _us). Families: pipeline, wal, ckpt, repl, epoch, rebalance,
// adapt, kernel, process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace accl::obs {

/// Monotone counter, sharded by thread over padded cells.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    cells_[CellIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  /// Number of padded cells Add() shards over.
  static constexpr size_t kCells = 16;

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };
  static size_t CellIndex();
  Cell cells_[kCells];
};

/// Point-in-time level. Single atomic; Set wins over concurrent Adds
/// only in the usual last-writer sense.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Derived view of a histogram at one instant.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Log-bucketed histogram of non-negative integer values (callers pick
/// the unit; latency sites record microseconds).
class Histogram {
 public:
  /// Sub-bucket bits per octave: 8 sub-buckets, <= 12.5% quantization.
  static constexpr int kSubBits = 3;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBits;
  /// Values below kSubBuckets get exact singleton buckets; above, one
  /// group of kSubBuckets per octave up to 2^64.
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSubBuckets;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  /// Adds every recorded sample of `other` into this histogram
  /// (concurrent Records on either side are folded racy-exact).
  void MergeFrom(const Histogram& other);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t Max() const { return max_.load(std::memory_order_relaxed); }

  /// Value at quantile `q` in [0,1]: the midpoint of the bucket holding
  /// the rank-`ceil(q*count)` sample, clamped to [0, Max()]. 0 when
  /// empty.
  double Percentile(double q) const;

  HistogramSnapshot Snapshot() const;

  static size_t BucketIndex(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // MSB position, >= kSubBits
    const int shift = e - kSubBits;
    const size_t sub = static_cast<size_t>(v >> shift) & (kSubBuckets - 1);
    return (static_cast<size_t>(e - kSubBits + 1) << kSubBits) + sub;
  }
  /// Inclusive lower bound of bucket `idx`.
  static uint64_t BucketLow(size_t idx) {
    const size_t g = idx >> kSubBits;
    if (g == 0) return idx;
    return (kSubBuckets + (idx & (kSubBuckets - 1))) << (g - 1);
  }
  /// Bucket width (1 for the exact singleton buckets).
  static uint64_t BucketWidth(size_t idx) {
    const size_t g = idx >> kSubBits;
    return g == 0 ? 1 : uint64_t{1} << (g - 1);
  }

 private:
  std::atomic<uint64_t> counts_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

enum class MetricType : uint8_t { kCounter, kGauge, kHistogram };

/// One metric's value at snapshot time.
struct MetricValue {
  MetricType type = MetricType::kCounter;
  uint64_t counter = 0;  ///< kCounter
  int64_t gauge = 0;     ///< kGauge
  HistogramSnapshot hist;  ///< kHistogram
};

/// All metrics of one registry at one instant, name-sorted.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, MetricValue>> values;

  /// Subtracts `base`'s monotone quantities (counters, histogram
  /// count/sum) from this snapshot; gauges and percentiles keep their
  /// current values. Metrics absent from `base` pass through unchanged.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& base) const;

  const MetricValue* Find(const std::string& name) const;
};

/// Prometheus text exposition (one # TYPE line per metric; histograms as
/// summaries with quantile labels plus _max).
std::string PrometheusText(const MetricsSnapshot& snap);

/// Compact JSON object keyed by metric name: counters/gauges as numbers,
/// histograms as {"count","sum","max","p50","p90","p99"}.
std::string JsonDump(const MetricsSnapshot& snap);

/// Name -> metric registry; see the file comment for the ownership model.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  ~MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (heap-alloc gauge, kernel dispatch
  /// counters, anything not scoped to one engine).
  static MetricsRegistry& Default();

  /// Create-or-return a registry-owned metric. Returning an existing
  /// name of a different kind aborts (a naming bug, not a runtime
  /// condition).
  Counter* GetCounter(const std::string& name, const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const std::string& help = "");
  Histogram* GetHistogram(const std::string& name,
                          const std::string& help = "");

  /// Registers an externally-owned metric under `name` (replacing any
  /// previous registrant of that name). The metric must stay alive until
  /// detached or the registry is destroyed (the registry never touches
  /// registrants at destruction).
  void Attach(const std::string& name, Counter* c,
              const std::string& help = "");
  void Attach(const std::string& name, Gauge* g, const std::string& help = "");
  void Attach(const std::string& name, Histogram* h,
              const std::string& help = "");
  void Detach(const std::string& name);

  MetricsSnapshot Snapshot() const;
  std::string PrometheusText() const { return obs::PrometheusText(Snapshot()); }
  std::string JsonDump() const { return obs::JsonDump(Snapshot()); }

  size_t size() const;

 private:
  struct Entry {
    MetricType type;
    std::string help;
    // Exactly one of the raw pointers is set; `owned` keeps storage
    // alive for registry-created metrics.
    Counter* c = nullptr;
    Gauge* g = nullptr;
    Histogram* h = nullptr;
    std::shared_ptr<void> owned;
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

}  // namespace accl::obs
