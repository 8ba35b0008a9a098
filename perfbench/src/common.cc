#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_map>

#include "obs/alloc_hook.h"

namespace perfbench {

void Progress(const char* what) {
  static const uint64_t start = NowNs();
  std::fprintf(stderr, "perfbench: %8.3f s %s\n",
               1e-9 * static_cast<double>(NowNs() - start), what);
}

double Percentile(std::vector<double>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  if (rank < 1) rank = 1;
  if (rank > v->size()) rank = v->size();
  return (*v)[rank - 1];
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }

Slices::Slices(const std::vector<CallSample>& calls, double window_s) {
  const size_t n = std::max<size_t>(1, static_cast<size_t>(window_s));
  slice_s_ = window_s < 1.0 ? window_s : 1.0;
  per_slice_.resize(n);
  for (const CallSample& c : calls) {
    const size_t i = static_cast<size_t>(1e-9 * static_cast<double>(c.end_ns) / slice_s_);
    if (i < n) per_slice_[i].push_back(c.us);
  }
}

double Slices::MedianRate() const {
  std::vector<double> rates;
  for (const auto& s : per_slice_) rates.push_back(static_cast<double>(s.size()) / slice_s_);
  return Median(rates);
}

double Slices::MedianPercentile(double q) const {
  std::vector<double> values;
  for (auto s : per_slice_) values.push_back(Percentile(&s, q));
  return Median(values);
}

double RssPeakMib() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CpuSeconds() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

uint64_t HeapAllocs() { return accl::obs::HeapAllocsNow(); }

double CounterOf(const accl::obs::MetricsSnapshot& s, const char* name) {
  const accl::obs::MetricValue* v = s.Find(name);
  return v == nullptr ? 0.0 : static_cast<double>(v->counter);
}

accl::obs::HistogramSnapshot HistOf(const accl::obs::MetricsSnapshot& s,
                                    const char* name) {
  const accl::obs::MetricValue* v = s.Find(name);
  return v == nullptr ? accl::obs::HistogramSnapshot() : v->hist;
}

unsigned HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

std::string FsType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x6969UL: return "nfs";
    default: break;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
  return buf;
}

uint64_t FilesBytes(const std::string& dir, const std::string& prefix) {
  uint64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    struct stat st;
    if (stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  closedir(d);
  return total;
}

bool MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      const std::string prefix = path.substr(0, i);
      if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
    }
  }
  return true;
}

// ---- Spans ----

namespace {
constexpr int kTidShift = 40;
}  // namespace

uint64_t SpanLog::Thread::Add(const char* name, uint64_t start_ns,
                              uint64_t end_ns, uint64_t parent, uint64_t id) {
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return (uint64_t{tid_} << kTidShift) | (spans_.size() - 1);
}

uint64_t SpanLog::Thread::Open(const char* name, uint64_t parent,
                               uint64_t id) {
  const uint64_t now = NowNs();
  return Add(name, now, now, parent, id);
}

void SpanLog::Thread::Close(uint64_t key) {
  spans_[key & ((uint64_t{1} << kTidShift) - 1)].end_ns = NowNs();
}

SpanLog::Thread* SpanLog::NewThread() {
  std::lock_guard<std::mutex> lock(mu_);
  threads_.push_back(std::make_unique<Thread>());
  threads_.back()->tid_ = static_cast<uint32_t>(threads_.size() - 1);
  return threads_.back().get();
}

std::vector<std::pair<std::string, double>> SpanLog::LayerSelfSeconds(
    uint64_t root_key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto span_of = [&](uint64_t key) -> const Thread::Span& {
    return threads_[key >> kTidShift]
        ->spans_[key & ((uint64_t{1} << kTidShift) - 1)];
  };
  std::unordered_map<uint64_t, std::vector<uint64_t>> children;
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans_.size(); ++i) {
      const uint64_t key = (uint64_t{t->tid_} << kTidShift) | i;
      if (t->spans_[i].parent != kNoParent) {
        children[t->spans_[i].parent].push_back(key);
      }
    }
  }
  std::vector<std::pair<std::string, double>> layers;
  const auto add = [&](const char* name, double secs) {
    const char* dot = name;
    while (*dot != '\0' && *dot != '.') ++dot;
    const std::string layer(name, dot);
    for (auto& l : layers) {
      if (l.first == layer) {
        l.second += secs;
        return;
      }
    }
    layers.emplace_back(layer, secs);
  };
  std::vector<uint64_t> stack{root_key};
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  while (!stack.empty()) {
    const uint64_t key = stack.back();
    stack.pop_back();
    const Thread::Span& s = span_of(key);
    iv.clear();
    const auto it = children.find(key);
    if (it != children.end()) {
      for (uint64_t c : it->second) {
        const Thread::Span& cs = span_of(c);
        iv.emplace_back(std::max(cs.start_ns, s.start_ns),
                        std::min(cs.end_ns, s.end_ns));
        stack.push_back(c);
      }
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    const uint64_t dur = s.end_ns - s.start_ns;
    add(s.name, 1e-9 * static_cast<double>(dur > covered ? dur - covered : 0));
  }
  return layers;
}

bool SpanLog::WriteChromeJson(const std::string& path,
                              const std::string& engine_json,
                              uint64_t sync_ns) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Our spans' time origin, in steady-clock ns: the earliest span, or the
  // flight recorder's own epoch when its events are merged in.
  uint64_t origin = ~uint64_t{0};
  for (const auto& t : threads_) {
    for (const auto& s : t->spans_) origin = std::min(origin, s.start_ns);
  }
  std::string engine_events;
  const std::string head = "{\"traceEvents\":[";
  const size_t sync_at = engine_json.find("\"name\":\"perfbench.sync\"");
  if (sync_at != std::string::npos &&
      engine_json.compare(0, head.size(), head) == 0) {
    const size_t ts_at = engine_json.find("\"ts\":", sync_at);
    const double sync_ts_us = std::atof(engine_json.c_str() + ts_at + 5);
    origin = sync_ns - static_cast<uint64_t>(sync_ts_us * 1e3);
    engine_events = engine_json.substr(head.size(),
                                       engine_json.size() - head.size() - 2);
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->spans_.size(); ++i) {
      const Thread::Span& s = t->spans_[i];
      const uint64_t key = (uint64_t{t->tid_} << kTidShift) | i;
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"key\":%llu,"
                   "\"parent\":%lld,\"id\":%llu}}",
                   first ? "" : ",\n", s.name, t->tid_,
                   1e-3 * (static_cast<double>(s.start_ns) -
                           static_cast<double>(origin)),
                   1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                   static_cast<unsigned long long>(key),
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.id));
      first = false;
    }
  }
  if (!engine_events.empty()) {
    if (!first) std::fputs(",\n", f);
    std::fputs(engine_events.c_str(), f);
  }
  std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

// ---- Output ----

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void Result::MetaNum(const std::string& key, double v) { Meta(key, Num(v)); }
void Result::MetaStr(const std::string& key, const std::string& v) {
  Meta(key, Quote(v));
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"call_p50_us", "us"},
      {"call_p99_us", "us"},
      {"rss_peak_mib", "MiB"},
  };
  return kSpecs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kSpecs = {
      {"core.query_us.p50", "us"},
      {"core.query_us.p99", "us"},
      {"core.reorg_call_us.p50", "us"},
      {"core.reorg_call_us.max", "us"},
      {"core.groups_explored_per_query", "count"},
      {"core.objects_verified_per_query", "count"},
      {"core.results_per_verified", "ratio"},
      {"core.clusters", "count"},
      {"core.splits", "count"},
      {"core.merges", "count"},
      {"core.insert_us.p50", "us"},
      {"core.self_s", "s"},
      {"kernels.dims_checked_per_verified", "count"},
      {"kernels.bytes_verified_per_query", "B"},
      {"cost.model_ms_per_query", "ms"},
      {"cost.model_to_wall", "ratio"},
      {"sdi.visits_per_event", "count"},
      {"sdi.verified_per_event", "count"},
      {"sdi.matches_per_event", "count"},
      {"sdi.bulk_load_s", "s"},
      {"sdi.self_s", "s"},
      {"exec.steal_ratio", "ratio"},
      {"exec.trylock_failures_per_call", "count"},
      {"exec.ready_pop_retries_per_call", "count"},
      {"exec.epoch_grace_wait_us.p99", "us"},
      {"exec.cpu_util", "ratio"},
      {"exec.heap_allocs_per_call", "count"},
      {"adapt.dimension_switches", "count"},
      {"adapt.windows_evaluated", "count"},
      {"adapt.boundary_moves", "count"},
      {"adapt.subscriptions_migrated", "count"},
      {"adapt.migration_us.max", "us"},
      {"adapt.visits_per_event_tail", "count"},
      {"durability.mutations_per_s", "1/s"},
      {"durability.subscribe_ack_us.p50", "us"},
      {"durability.subscribe_ack_us.p99", "us"},
      {"durability.unsubscribe_ack_us.p50", "us"},
      {"durability.unsubscribe_ack_us.p99", "us"},
      {"durability.commit_wait_us.p50", "us"},
      {"durability.commit_wait_us.p99", "us"},
      {"durability.records_per_sync", "ratio"},
      {"durability.syncs_per_s", "1/s"},
      {"durability.wal_bytes_per_user_byte", "ratio"},
      {"durability.checkpoints", "count"},
      {"durability.ckpt_us.max", "us"},
      {"durability.replay_records", "count"},
      {"durability.replay_ms", "ms"},
      {"durability.recover_s", "s"},
      {"durability.self_s", "s"},
      {"storage.checkpoint_bytes_per_subscription", "B"},
      {"storage.wal_bytes_on_disk", "B"},
      {"obs.tracing_overhead", "ratio"},
      {"bench.self_s", "s"},
  };
  return kSpecs;
}

void Emit(const Result& r, bool trace) {
  const std::vector<MetricSpec>& specs =
      trace ? PerLayerMetrics() : EndToEndMetrics();
  std::vector<double> values(specs.size(), 0.0);
  for (const Metric& m : r.metrics) {
    size_t i = 0;
    while (i < specs.size() && m.name != specs[i].name) ++i;
    if (i == specs.size() || m.unit != specs[i].unit) {
      std::fprintf(stderr, "perfbench: metric %s [%s] is not in the %s catalogue\n",
                   m.name.c_str(), m.unit.c_str(),
                   trace ? "per-layer" : "end-to-end");
      std::abort();
    }
    values[i] = m.value;
  }
  std::string meta = "{\"meta\":{";
  for (size_t i = 0; i < r.meta.size(); ++i) {
    if (i > 0) meta += ",";
    meta += Quote(r.meta[i].first) + ":" + r.meta[i].second;
  }
  meta += "}}";
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < specs.size(); ++i) {
    if (i > 0) out += ",";
    out += Quote(specs[i].name) + ":{\"value\":" + Num(values[i]) +
           ",\"unit\":" + Quote(specs[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n%s\n", meta.c_str(), out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
