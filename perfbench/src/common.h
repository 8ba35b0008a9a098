// Shared plumbing of the end-to-end benchmark: clocks, sample statistics,
// process resource readings, the benchmark's own span recorder, and the
// result/metadata emitters. Nothing here calls into the library except the
// heap-allocation counter reader.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes for the benchmark's own smoke test.
  bool smoke = false;
  /// Scratch directory for WAL/checkpoint files and trace output. Must be on
  /// the working disk (see README: the WAL is measured on disk, not tmpfs).
  std::string data_dir = ".bench_build/perfbench-run";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Writes "perfbench: <seconds since start> <what>" to standard error, so a
/// slow phase of a run is visible without touching the result line.
void Progress(const char* what);

/// Nearest-rank percentile (q in [0,1]) of `v`; sorts `v` in place. 0 when
/// empty.
double Percentile(std::vector<double>* v, double q);
double Median(std::vector<double> v);

/// One timed call: when it ended (ns after the window started) and how long
/// it took (us).
struct CallSample {
  uint64_t end_ns;
  double us;
};

/// The window cut into whole one-second slices (at least one; a partial
/// last slice is dropped unless it is the only one). Reporting the median
/// over slices keeps a burst of load from other tenants of the host, a few
/// seconds long, out of the run's figure.
class Slices {
 public:
  Slices(const std::vector<CallSample>& calls, double window_s);
  size_t count() const { return per_slice_.size(); }
  /// Median over slices of calls completed per second.
  double MedianRate() const;
  /// Median over slices of the slice's q-percentile latency.
  double MedianPercentile(double q) const;

 private:
  double slice_s_;
  std::vector<std::vector<double>> per_slice_;
};

/// Process peak resident set (MiB), CPU seconds (user + system), and the
/// lifetime heap-allocation count fed by the binary's allocation hook.
double RssPeakMib();
double CpuSeconds();
uint64_t HeapAllocs();

/// A counter's value in a registry snapshot (0 when absent), and a
/// histogram's (all zero when absent).
double CounterOf(const accl::obs::MetricsSnapshot& s, const char* name);
accl::obs::HistogramSnapshot HistOf(const accl::obs::MetricsSnapshot& s,
                                    const char* name);

/// Logical CPUs this process may run on (sched affinity), at least 1.
unsigned HostCpus();
/// Filesystem type of `path` ("ext4", "tmpfs", ... or a hex magic).
std::string FsType(const std::string& path);
/// Total bytes of the regular files in `dir` whose name starts with `prefix`.
uint64_t FilesBytes(const std::string& dir, const std::string& prefix);
/// Creates `path` and its parents (like mkdir -p); false on failure.
bool MakeDirs(const std::string& path);

/// The benchmark's own spans, recorded around each public call it makes.
/// Each span has a name (whose prefix up to the first '.' is the layer it
/// calls into), start/end, the key of its parent span, and one id naming
/// the run, batch or call it belongs to. Spans are kept in memory per thread
/// and written out once, at exit, as Chrome trace JSON.
class SpanLog {
 public:
  /// Handle of one recording thread; spans are appended without locks.
  class Thread {
   public:
    /// Records a finished span; returns its key (usable as a parent).
    uint64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                 uint64_t parent, uint64_t id);
    /// Opens a span whose end is set later by Close(key).
    uint64_t Open(const char* name, uint64_t parent, uint64_t id);
    void Close(uint64_t key);
    /// Makes room for `n` more spans, so recording them never allocates.
    void Reserve(size_t n) { spans_.reserve(spans_.size() + n); }

   private:
    friend class SpanLog;
    struct Span {
      const char* name;
      uint64_t start_ns;
      uint64_t end_ns;
      uint64_t parent;
      uint64_t id;
    };
    uint32_t tid_ = 0;
    std::vector<Span> spans_;
  };

  static constexpr uint64_t kNoParent = ~uint64_t{0};

  /// A new per-thread recorder; valid for the SpanLog's lifetime.
  Thread* NewThread();

  /// Self time summed per layer over every span that descends from
  /// `root_key` (the root included): a span's duration minus the union of
  /// its children's intervals. Layer = span name up to the first '.'.
  std::vector<std::pair<std::string, double>> LayerSelfSeconds(
      uint64_t root_key) const;

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span
  /// (pid 2). `engine_json`, when not empty, is the engine flight
  /// recorder's Chrome JSON; its events are appended as they are (pid 1)
  /// and the spans are shifted onto its clock through the instant named
  /// "perfbench.sync" it must hold, which was recorded at `sync_ns`.
  bool WriteChromeJson(const std::string& path,
                       const std::string& engine_json = "",
                       uint64_t sync_ns = 0) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The result of one workload run.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Run metadata: host, build, seed, thread counts, and the sample count
  /// behind each percentile. Values are pre-encoded JSON.
  std::vector<std::pair<std::string, std::string>> meta;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Meta(const std::string& key, const std::string& json_value) {
    meta.emplace_back(key, json_value);
  }
  void MetaNum(const std::string& key, double v);
  void MetaStr(const std::string& key, const std::string& v);
};

/// Shortest round-trip decimal rendering of `v` (JSON-safe; non-finite
/// values render as 0 so the line always parses).
std::string Num(double v);
std::string Quote(const std::string& s);

/// The metric catalogue, in output order: the end-to-end metrics every
/// workload reports untraced, and the per-layer metrics every workload
/// reports traced (a layer a workload never calls reads 0).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Prints the metadata line and then the result line, the last line of
/// standard output, with exactly the catalogue's metrics for the run kind.
/// Aborts on a metric the catalogue does not name or names with another
/// unit (a benchmark bug, caught by the smoke test).
void Emit(const Result& r, bool trace);

/// Order-independent digest of a set of ids (sum of mixed ids plus count);
/// equal for any permutation, so unsorted answers can be compared, and
/// additive: the digest of a disjoint union is the sum of the digests.
inline uint64_t SetDigest(const uint32_t* ids, size_t n) {
  uint64_t h = n * 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    uint64_t z = ids[i] + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    h += z ^ (z >> 31);
  }
  return h;
}

/// Entry points of the three workloads.
Result RunIndexConverge(const Args& args);
Result RunMatchStream(const Args& args);
Result RunDurableChurn(const Args& args);

}  // namespace perfbench
