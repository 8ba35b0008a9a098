#include "core/adaptive_index.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "exec/thread_pool.h"
#include "geometry/predicates.h"
#include "kernels/backend_registry.h"
#include "util/check.h"

namespace accl {

namespace {

// The exploration ring holds two reorganization rounds of queries (a
// round's slots are released at the end of the next round, so it never
// fills in steady state), within a bound that keeps its memory small; a
// full ring replays every log and starts over. With manual reorganization
// that happens every kRingWithoutPeriod queries.
constexpr uint32_t kRingWithoutPeriod = 256;
constexpr uint32_t kMaxRing = 1024;
// Replay counts are bytes, so a log holds at most 255 explorations.
constexpr uint32_t kMaxLog = 255;

uint32_t RingCapacity(uint32_t reorg_period) {
  if (reorg_period == 0) return kRingWithoutPeriod;
  return static_cast<uint32_t>(
      std::min<uint64_t>(2 * uint64_t{reorg_period}, kMaxRing));
}

uint32_t LogCapacity(uint32_t reorg_period) {
  return std::min(RingCapacity(reorg_period), kMaxLog);
}

// A fan-out chunk holds at least this many objects, so that each claim's
// verification outweighs its claim.
constexpr size_t kMinVerifyChunkObjects = 1024;
// Consecutive clusters one claim of a parallel scan replays and scans.
constexpr size_t kScanRunClusters = 16;

size_t ResolveVerifyThreads(uint32_t requested) {
  size_t n = requested;
  if (n == 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    n = sched_getaffinity(0, sizeof(set), &set) == 0
            ? static_cast<size_t>(CPU_COUNT(&set))
            : 1;
  }
  return std::clamp<size_t>(n, 1, AdaptiveIndex::kMaxVerifyThreads);
}

}  // namespace

AdaptiveIndex::AdaptiveIndex(const AdaptiveConfig& cfg)
    : cfg_(cfg),
      model_(CostModel::Make(
          cfg.scenario, cfg.nd, cfg.sys,
          // Symmetric-case candidate count per cluster (paper footnote 3).
          static_cast<double>(cfg.nd) * cfg.division_factor *
              (cfg.division_factor + 1) / 2.0)),
      backend_(kernels::BackendRegistry::Instance().Resolve(
          cfg.verify_backend)),
      sig_table_(cfg.nd, backend_),
      ring_(cfg.nd, cfg.division_factor, RingCapacity(cfg.reorg_period)),
      verify_threads_(ResolveVerifyThreads(cfg.verify_threads)) {
  ACCL_CHECK(cfg_.nd > 0);
  // Unknown names should be caught by validation (sdi::ValidateOptions)
  // before an index is ever constructed; here it is a programming error.
  ACCL_CHECK(backend_ != nullptr);
  owner_.Reserve(1024);
  ACCL_CHECK(cfg_.division_factor >= 2);
  root_ = NewCluster(Signature(cfg_.nd), kNoCluster);
}

AdaptiveIndex::~AdaptiveIndex() = default;

VerifyKernelInfo AdaptiveIndex::verify_kernel() const {
  return {backend_->name(), backend_->vector_width_floats()};
}

size_t AdaptiveIndex::verify_workers() const {
  return verify_pool_ ? verify_pool_->worker_count() : 0;
}

ClusterId AdaptiveIndex::NewCluster(Signature sig, ClusterId parent) {
  ClusterId id;
  auto c = std::make_unique<Cluster>(
      0, std::move(sig), cfg_.nd, cfg_.division_factor, total_weight_,
      LogCapacity(cfg_.reorg_period));
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    clusters_[id] = std::move(c);
  } else {
    id = static_cast<ClusterId>(clusters_.size());
    clusters_.push_back(std::move(c));
    object_counts_.push_back(0);
  }
  Cluster* cl = cluster(id);
  cl->id = id;
  cl->parent = parent;
  sig_table_.Add(id, cl->sig);
  if (parent != kNoCluster) cluster(parent)->children.push_back(id);
  ++live_clusters_;
  return id;
}

void AdaptiveIndex::FreeCluster(ClusterId id) {
  Cluster* c = cluster(id);
  ACCL_CHECK(c != nullptr);
  ACCL_CHECK(c->children.empty());
  ACCL_CHECK(c->size() == 0);
  if (c->parent != kNoCluster) {
    auto& siblings = cluster(c->parent)->children;
    auto it = std::find(siblings.begin(), siblings.end(), id);
    ACCL_CHECK(it != siblings.end());
    siblings.erase(it);
  }
  sig_table_.Remove(id);
  clusters_[id].reset();
  free_ids_.push_back(id);
  --live_clusters_;
}

void AdaptiveIndex::Insert(ObjectId id, BoxView box) {
  ACCL_CHECK(box.dims() == cfg_.nd);
  ACCL_CHECK(owner_.Find(id) == nullptr);
  // Paper Fig. 4: among the clusters whose signature accepts the object,
  // place it in the one with the lowest access probability. Because every
  // child signature refines its parent's, the accepting clusters form an
  // upward-closed subtree: descending from the root and recursing only into
  // accepting children enumerates exactly that set without scanning the
  // whole cluster table. Ties keep the lowest id, as the old full scan did.
  ClusterId best = kNoCluster;
  double best_p = std::numeric_limits<double>::infinity();
  descent_.clear();
  if (cluster(root_)->sig.MatchesObject(box)) descent_.push_back(root_);
  while (!descent_.empty()) {
    const ClusterId cid = descent_.back();
    descent_.pop_back();
    const Cluster* c = cluster(cid);
    const double p = AccessProbOf(*c);
    if (p < best_p || (p == best_p && cid < best)) {
      best_p = p;
      best = cid;
    }
    for (ClusterId ch : c->children) {
      if (cluster(ch)->sig.MatchesObject(box)) descent_.push_back(ch);
    }
  }
  Place(id, box, best);
}

void AdaptiveIndex::Place(ObjectId id, BoxView box, ClusterId best) {
  ACCL_CHECK(best != kNoCluster);  // the root accepts everything
  Cluster* b = cluster(best);
  const uint32_t slot = static_cast<uint32_t>(b->objects.size());
  b->objects.Append(id, box);
  b->candidates.AccountObject(box, +1);
  ++object_counts_[best];
  owner_.Insert(id, ObjectRef{best, slot});  // callers checked it is new
  ++object_count_;
}

namespace {

using ColumnRange = kernels::VerifyBackend::ColumnRange;

// Appends the membership tests of `sig`'s variation intervals, one per
// coordinate column (2d: starts, 2d+1: ends), as closed ranges: a
// half-open [lo, hi) becomes [lo, pred(hi)], which accepts exactly the
// same finite floats. Full-domain intervals are skipped unless `all`.
void AppendTests(const Signature& sig, bool all,
                 std::vector<ColumnRange>* tests) {
  constexpr float kDown = -std::numeric_limits<float>::infinity();
  for (uint32_t col = 0; col < 2 * sig.dims(); ++col) {
    const VarInterval& v =
        col % 2 ? sig.end_var(col / 2) : sig.start_var(col / 2);
    if (!all && v.IsFullDomain()) continue;
    const float hi = v.hi_closed ? v.hi : std::nextafter(v.hi, kDown);
    tests->push_back(ColumnRange{col, v.lo, hi});
  }
}

}  // namespace

void AdaptiveIndex::BulkInsert(Span<const ObjectId> ids,
                               Span<const float> coords) {
  const size_t stride = 2 * static_cast<size_t>(cfg_.nd);
  const size_t n = ids.size();
  ACCL_CHECK(coords.size() == n * stride);
  if (!PlacesAsBatch(n, live_clusters_)) {
    for (size_t i = 0; i < n; ++i) {
      Insert(ids[i], BoxView(coords.data() + i * stride, cfg_.nd));
    }
    return;
  }
  owner_.Reserve(owner_.size() + n);

  // Fig. 4's order, computed once: insertion never changes q, w0 or
  // total_weight_, so the access probabilities are fixed for the batch and
  // the first accepting cluster in (probability, id) order is the one
  // Insert's descent picks. Every cluster accepting an object refines the
  // root, which accepts all of them, so clusters ranked after the root
  // can never win and are dropped.
  struct Ranked {
    double p;
    ClusterId id;
  };
  std::vector<Ranked> order;
  order.reserve(live_clusters_);
  for (const auto& up : clusters_) {
    if (up) order.push_back({AccessProbOf(*up), up->id});
  }
  std::sort(order.begin(), order.end(), [](const Ranked& a, const Ranked& b) {
    return a.p < b.p || (a.p == b.p && a.id < b.id);
  });
  for (size_t r = 0; r < order.size(); ++r) {
    if (order[r].id == root_) {
      order.resize(r + 1);
      break;
    }
  }

  // Each ranked cluster's membership test, on the columns whose variation
  // interval is narrower than the domain only. Skipping the full-domain
  // ones is exact for objects inside the domain, which the root's test
  // (on every column, run first) establishes.
  std::vector<ColumnRange> root_tests;
  AppendTests(cluster(root_)->sig, /*all=*/true, &root_tests);
  std::vector<ColumnRange> tests;
  std::vector<uint32_t> first_test(order.size() + 1);
  for (size_t r = 0; r < order.size(); ++r) {
    first_test[r] = static_cast<uint32_t>(tests.size());
    AppendTests(cluster(order[r].id)->sig, /*all=*/false, &tests);
  }
  first_test[order.size()] = static_cast<uint32_t>(tests.size());

  // Cluster-major placement per chunk: transpose the chunk into columns,
  // then run every ranked cluster's test over all of it, keeping each
  // object's lowest accepting rank. Columns are padded by 64 bytes: at an
  // exact 4 KiB pitch a cluster's few columns would alias in L1.
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  const size_t chunk = std::min(n, kPlacementChunk);
  const size_t col_stride = chunk + 16;
  std::unique_ptr<float[]> cols(new float[stride * col_stride]);
  std::vector<uint32_t> rank(chunk), in_root(chunk);
  for (size_t base = 0; base < n; base += chunk) {
    const size_t m = std::min(chunk, n - base);
    const float* src = coords.data() + base * stride;
    for (size_t i = 0; i < m; ++i, src += stride) {
      for (size_t col = 0; col < stride; ++col) {
        cols[col * col_stride + i] = src[col];
      }
    }
    std::fill(rank.begin(), rank.begin() + m, kNone);
    std::fill(in_root.begin(), in_root.begin() + m, kNone);
    backend_->RankAccepting(cols.get(), col_stride, m, root_tests.data(),
                            root_tests.size(), 0, in_root.data());
    for (size_t r = 0; r < order.size(); ++r) {
      backend_->RankAccepting(cols.get(), col_stride, m,
                              tests.data() + first_test[r],
                              first_test[r + 1] - first_test[r],
                              static_cast<uint32_t>(r), rank.data());
    }
    // Append in input order, as the Insert loop would.
    for (size_t i = 0; i < m; ++i) {
      const ObjectId id = ids[base + i];
      ACCL_CHECK(owner_.Find(id) == nullptr);
      const uint32_t r = rank[i] | in_root[i];  // kNone unless in the root
      Place(id, BoxView(coords.data() + (base + i) * stride, cfg_.nd),
            r == kNone ? kNoCluster : order[r].id);
    }
  }
}

size_t AdaptiveIndex::BulkErase(Span<const ObjectId> ids) {
  size_t erased = 0;
  for (const ObjectId id : ids) {
    if (Erase(id)) ++erased;
  }
  return erased;
}

void AdaptiveIndex::ForEachObject(
    const std::function<void(ObjectId, BoxView)>& fn) const {
  for (const auto& up : clusters_) {
    if (!up) continue;
    const size_t n = up->size();
    for (size_t i = 0; i < n; ++i) fn(up->objects.id(i), up->objects.box(i));
  }
}

bool AdaptiveIndex::Erase(ObjectId id) {
  const ObjectRef* found = owner_.Find(id);
  if (found == nullptr) return false;
  const ObjectRef ref = *found;
  Cluster* c = cluster(ref.cluster);
  ACCL_CHECK(c != nullptr && ref.slot < c->objects.size());
  ACCL_DCHECK(c->objects.id(ref.slot) == id);
  c->candidates.AccountObject(c->objects.box(ref.slot), -1);
  const ObjectId filler = c->objects.RemoveAt(ref.slot);
  --object_counts_[ref.cluster];
  owner_.Erase(id);
  if (filler != kInvalidObject) {
    // `filler` is the (distinct) object swapped down from the cluster's
    // last slot; when the erased slot *was* the last slot RemoveAt reports
    // kInvalidObject, so a self-swap can never reach this lookup. The
    // checked find turns any owner-map/slot-array disagreement into a
    // diagnosable abort instead of dereferencing null.
    ACCL_DCHECK(filler != id);
    ObjectRef* fref = owner_.Find(filler);
    ACCL_CHECK(fref != nullptr);
    ACCL_DCHECK(fref->cluster == ref.cluster);
    fref->slot = ref.slot;
  }
  --object_count_;
  return true;
}

void AdaptiveIndex::Execute(const Query& q, std::vector<ObjectId>* out,
                            QueryMetrics* metrics) {
  ACCL_CHECK(q.dims() == cfg_.nd);
  QueryMetrics local;
  QueryMetrics* m = metrics ? metrics : &local;
  m->Clear();
  m->groups_total = live_clusters_;
  // Every signature is checked (paper Fig. 5 step 2): charge A per cluster.
  m->sim_time_ms += model_.A * static_cast<double>(live_clusters_);

  // Admit filter over the packed signature table. It yields ascending
  // cluster ids: exploration runs in id order, which fixes the result order
  // and the floating-point accounting.
  admitted_.clear();
  sig_table_.CollectAdmitted(q, &admitted_);

  // A large query explores its clusters on several threads, sized from the
  // object-count column without touching the clusters.
  size_t fan_objects = 0;
  if (verify_threads_ > 1 && admitted_.size() > 1) {
    for (ClusterId cid : admitted_) fan_objects += object_counts_[cid];
  }
  if (fan_objects >= kParallelVerifyObjects) {
    ExploreInParallel(q, fan_objects, out, m);
  } else {
    // Pre-pass: size the output for the worst case (every verified object
    // matches) and issue the pointer chases for the scattered per-cluster
    // data early, so the explore loop below streams instead of stalling.
    size_t verify_total = 0;
    for (ClusterId cid : admitted_) {
      const Cluster* c = cluster(cid);
      verify_total += c->size();
      __builtin_prefetch(c->objects.coords_data());
      __builtin_prefetch(&c->candidates);
    }
    // Second stage: the log headers are in flight now, so the log slots
    // the explore loop appends to can be staged too.
    for (ClusterId cid : admitted_) {
      __builtin_prefetch(cluster(cid)->candidates.log_tail(), 1);
    }
    const size_t out_base = out->size();
    out->reserve(out_base + verify_total);

    bq_.Assign(q.box.view(), q.rel);
    uint16_t slot = 0;
    if (!admitted_.empty()) slot = PushExploringQuery(q);
    for (ClusterId cid : admitted_) {
      Cluster* c = cluster(cid);
      // Update performance indicators (paper Fig. 5 steps 7-10): the
      // cluster's own count now, its candidates' at the next replay.
      c->q += 1.0;
      LogExploration(c, slot);
      // Explore the cluster: every member is checked individually.
      const size_t n = c->size();
      uint64_t cluster_dims = 0;
      backend_->VerifyBatch(c->objects.coords_data(), c->objects.ids().data(),
                            n, bq_, out, &cluster_dims);
      ChargeExploration(n, cluster_dims, m);
    }
    m->result_count = out->size() - out_base;
  }

  ++total_queries_;
  total_weight_ += 1.0;
  if (cfg_.stats_halving_period != 0 &&
      total_queries_ % cfg_.stats_halving_period == 0) {
    HalveAllStats();
  }
  if (cfg_.reorg_period != 0) ContinueRound();
}

uint16_t AdaptiveIndex::PushExploringQuery(const Query& q) {
  if (ring_.full()) ReplayAllLogs();
  const uint16_t slot = ring_.Push(q);
  ++round_.slots;
  backend_->NoteDispatch(admitted_.size());  // one VerifyBatch per cluster
  return slot;
}

void AdaptiveIndex::ChargeExploration(size_t n, uint64_t dims,
                                      QueryMetrics* m) const {
  const uint64_t bytes = n * ObjectBytes(cfg_.nd);
  ++m->groups_explored;
  m->sim_time_ms += model_.B;  // exploration setup (+ seek on disk)
  if (cfg_.scenario == StorageScenario::kDisk) {
    ++m->disk_seeks;
    m->disk_bytes += bytes;
    m->sim_time_ms += cfg_.sys.disk_ms_per_byte * static_cast<double>(bytes);
  }
  m->dims_checked += dims;
  m->objects_verified += n;
  m->bytes_verified += bytes;
  // CPU verification charged for the bytes actually compared (early exit
  // on the first failing dimension), matching the Sequential Scan
  // accounting so the competitors are charged identically per check.
  m->sim_time_ms += cfg_.sys.verify_ms_per_byte *
                    static_cast<double>(4ull * n + 8ull * dims);
}

exec::ThreadPool& AdaptiveIndex::Pool() {
  if (!verify_pool_) {
    verify_pool_ = std::make_unique<exec::ThreadPool>(verify_threads_ - 1);
  }
  return *verify_pool_;
}

void AdaptiveIndex::ExploreInParallel(const Query& q, size_t objects,
                                      std::vector<ObjectId>* out,
                                      QueryMetrics* m) {
  const size_t out_base = out->size();
  out->reserve(out_base + objects);
  bq_.Assign(q.box.view(), q.rel);
  // The slot is pushed before the runs start: they log it, and a full log
  // replays against the ring, which stays fixed until the join.
  const uint16_t slot = PushExploringQuery(q);
  verify_dims_.resize(admitted_.size());
  // Cut admitted_ into runs of about a quarter of one thread's share, so
  // the dynamic claims even out clusters of uneven size.
  const size_t target =
      std::max(kMinVerifyChunkObjects, objects / (4 * verify_threads_));
  size_t chunks = 0;
  size_t held = 0;
  for (size_t i = 0, begin = 0; i < admitted_.size(); ++i) {
    held += object_counts_[admitted_[i]];
    if (held < target && i + 1 < admitted_.size()) continue;
    if (chunks == chunks_.size()) chunks_.emplace_back();
    chunks_[chunks].begin = begin;
    chunks_[chunks].end = i + 1;
    ++chunks;
    begin = i + 1;
    held = 0;
  }
  // A run verifies its own clusters into its own buffer and updates their
  // indicators (paper Fig. 5 steps 7-10): it writes only those clusters'
  // q and candidate blocks and their verify_dims_ entries.
  Pool().ParallelForDynamic(chunks, [this, slot](size_t k) {
    VerifyChunk& chunk = chunks_[k];
    chunk.out.clear();
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      const Cluster* c = cluster(admitted_[i]);
      __builtin_prefetch(c->objects.coords_data());
      __builtin_prefetch(&c->candidates);
    }
    for (size_t i = chunk.begin; i < chunk.end; ++i) {
      Cluster* c = cluster(admitted_[i]);
      __builtin_prefetch(c->candidates.log_tail(), 1);
      verify_dims_[i] = 0;
      backend_->VerifyBatch(c->objects.coords_data(), c->objects.ids().data(),
                            c->size(), bq_, &chunk.out, &verify_dims_[i]);
      c->q += 1.0;
      LogExploration(c, slot);
    }
  });
  for (size_t k = 0; k < chunks; ++k) {
    out->insert(out->end(), chunks_[k].out.begin(), chunks_[k].out.end());
  }
  // The metrics in admitted order, as the serial loop adds them.
  for (size_t i = 0; i < admitted_.size(); ++i) {
    ChargeExploration(object_counts_[admitted_[i]], verify_dims_[i], m);
  }
  m->result_count = out->size() - out_base;
}

void AdaptiveIndex::LogExploration(Cluster* c, uint16_t slot) {
  if (c->candidates.Log(slot)) return;
  c->candidates.Replay(ring_);
  const bool logged = c->candidates.Log(slot);
  ACCL_DCHECK(logged);
  (void)logged;
}

void AdaptiveIndex::ReplayAllLogs() {
  for (const auto& up : clusters_) {
    if (up) up->candidates.Replay(ring_);
  }
  ClearRing();
}

void AdaptiveIndex::ClearRing() {
  ring_.Clear();
  round_.slots = 0;
  round_.prev_slots = 0;
}

void AdaptiveIndex::HalveAllStats() {
  // Halving does not commute with the logged increments: count them first.
  for (const auto& up : clusters_) {
    if (!up) continue;
    up->candidates.Replay(ring_);
    up->q *= 0.5;
    up->w0 *= 0.5;
    up->candidates.Halve();
  }
  ClearRing();
  total_weight_ *= 0.5;
}

void AdaptiveIndex::Reorganize() {
  OpenRound();
  VisitClusters(0, round_.snapshot.size());
  CloseRound();
  // Every cluster that survived the pass had its log replayed.
  ClearRing();
}

void AdaptiveIndex::ContinueRound() {
  const uint64_t period = cfg_.reorg_period;
  const uint64_t call = (total_queries_ - 1) % period + 1;  // 1..period
  if (round_.snapshot.empty()) OpenRound();
  // Slice boundaries are spread evenly over the round's queries; the last
  // one always lands on its last query.
  const uint64_t entries = round_.snapshot.size();
  const uint64_t slices =
      (entries + kReorgSliceClusters - 1) / kReorgSliceClusters;
  const uint64_t reach =
      std::min(entries, call * slices / period * kReorgSliceClusters);
  if (reach > round_.visited) {
    VisitClusters(round_.visited, reach);
    round_.visited = reach;
  }
  if (call != period) return;
  CloseRound();
  // Every cluster the round snapshotted has been visited since the round
  // before ended, and the ones created since log only this round's slots.
#ifndef NDEBUG
  for (const auto& up : clusters_) {
    if (!up) continue;
    for (size_t e = 0; e < up->candidates.log_size(); ++e) {
      ACCL_DCHECK(ring_.rank(up->candidates.logged(e)) >= round_.prev_slots);
    }
  }
#endif
  ring_.Release(round_.prev_slots);
  round_.prev_slots = round_.slots;
  round_.slots = 0;
}

void AdaptiveIndex::OpenRound() {
  round_.snapshot.clear();
  round_.snapshot.reserve(live_clusters_);
  for (const auto& up : clusters_) {
    if (up) round_.snapshot.push_back(up->id);
  }
  round_.visited = 0;
  round_.splits = 0;
  round_.merges = 0;
}

void AdaptiveIndex::CloseRound() {
  ++reorg_stats_.passes;
  reorg_stats_.last_pass_splits = round_.splits;
  reorg_stats_.last_pass_merges = round_.merges;
  round_.snapshot.clear();
}

void AdaptiveIndex::VisitClusters(size_t begin, size_t end) {
  const std::vector<ClusterId>& snapshot = round_.snapshot;
  // A large slice first replays every cluster's log and runs the first
  // split scan of each observable one across threads, storing its choice
  // in Cluster::prescanned; each touches only its own candidate block and
  // reads the ring and the weights, which the walk below leaves alone.
  // The walk then decides in snapshot order as before, and every input of
  // a stored choice holds until its cluster's visit, except the object
  // counts a merge adds to its parent (MergeCluster drops that choice).
  const bool prescan =
      verify_threads_ > 1 && end - begin >= kParallelScanClusters;
  if (prescan) PrescanSlice(begin, end);
  // Paper Fig. 1, applied to every materialized cluster: merge if
  // profitable, otherwise try to split. Either way the cluster's
  // exploration log is consumed.
  for (size_t si = begin; si < end; ++si) {
    const ClusterId id = snapshot[si];
    Cluster* c = cluster(id);
    if (c == nullptr) continue;  // merged away earlier in this round
    // Stage upcoming clusters in two steps: the record three ahead (its
    // candidate header holds the block pointers), then the candidate block
    // two ahead. After a prescan the workers have touched both already.
    if (!prescan && si + 3 < end) {
      if (const Cluster* nx = cluster(snapshot[si + 3])) {
        const auto* p = reinterpret_cast<const char*>(nx);
        __builtin_prefetch(p);
        __builtin_prefetch(p + 64);
        __builtin_prefetch(p + 128);
      }
    }
    if (!prescan && si + 2 < end) {
      if (const Cluster* nx = cluster(snapshot[si + 2])) {
        nx->candidates.Prefetch();
      }
    }
    if (!c->is_root()) {
      Cluster* a = cluster(c->parent);
      // An emptied cluster costs A + pB for nothing; fold it eagerly.
      const bool empty = c->size() == 0 && c->children.empty();
      const bool observable =
          c->ObservationWindow(total_weight_) >= cfg_.min_observation &&
          a->ObservationWindow(total_weight_) >= cfg_.min_observation;
      if (empty || (observable &&
                    model_.MergeBenefit(AccessProbOf(*c), AccessProbOf(*a),
                                        static_cast<double>(c->size())) > 0)) {
        MergeCluster(id);
        ++reorg_stats_.merges;
        ++round_.merges;
        continue;
      }
    }
    const size_t stored =
        prescan ? std::exchange(c->prescanned, Cluster::kUnscanned)
                : Cluster::kUnscanned;
    round_.splits += TryClusterSplit(id, stored);
  }
}

void AdaptiveIndex::MergeCluster(ClusterId cid) {
  Cluster* c = cluster(cid);
  ACCL_CHECK(!c->is_root());
  Cluster* a = cluster(c->parent);
  // Paper Fig. 2: move all objects to the parent, updating the parent's
  // candidate indicators; reparent children; drop the cluster.
  const size_t n = c->size();
  for (size_t i = 0; i < n; ++i) {
    const BoxView b = c->objects.box(i);
    const ObjectId oid = c->objects.id(i);
    ACCL_DCHECK(a->sig.MatchesObject(b));
    const uint32_t slot = static_cast<uint32_t>(a->objects.size());
    a->objects.Append(oid, b);
    a->candidates.AccountObject(b, +1);
    owner_.Set(oid, ObjectRef{a->id, slot});
  }
  c->objects.Clear();
  object_counts_[a->id] += static_cast<uint32_t>(n);
  object_counts_[cid] = 0;
  for (ClusterId ch : c->children) {
    cluster(ch)->parent = a->id;
    a->children.push_back(ch);
  }
  c->children.clear();
  FreeCluster(cid);
  // The moved objects changed the parent's candidate counts.
  a->prescanned = Cluster::kUnscanned;
}

void AdaptiveIndex::PrescanSlice(size_t begin, size_t end) {
  const std::vector<ClusterId>& snapshot = round_.snapshot;
  const size_t runs = (end - begin + kScanRunClusters - 1) / kScanRunClusters;
  if (scan_beta_.size() < runs) scan_beta_.resize(runs);
  Pool().ParallelForDynamic(runs, [&](size_t r) {
    std::vector<double>& beta = scan_beta_[r];
    const size_t run_end = std::min(end, begin + (r + 1) * kScanRunClusters);
    for (size_t si = begin + r * kScanRunClusters; si < run_end; ++si) {
      Cluster* c = cluster(snapshot[si]);
      if (c == nullptr) continue;
      if (!SplitObservable(*c)) {
        c->candidates.Replay(ring_);
        continue;
      }
      if (beta.size() < c->candidates.padded_size()) {
        beta.resize(c->candidates.padded_size());
      }
      c->prescanned =
          c->candidates.BestSplit(ring_, SplitScanOf(*c), beta.data());
    }
  });
}

bool AdaptiveIndex::SplitObservable(const Cluster& c) const {
  return c.ObservationWindow(total_weight_) >= cfg_.min_observation &&
         total_weight_ - c.candidates.created_weight() >= cfg_.min_observation;
}

SplitScan AdaptiveIndex::SplitScanOf(const Cluster& c) const {
  // Candidates failing the object-count, probability-gap (see
  // kSplitProbabilityRatio) or benefit-floor tests can never be selected.
  SplitScan scan;
  scan.A = model_.A;
  scan.B = model_.B;
  scan.C = model_.C;
  scan.p_c = AccessProbOf(c);
  scan.window = total_weight_ - c.candidates.created_weight() + 1.0;
  scan.min_n = static_cast<double>(kMinSplitObjects);
  scan.p_gap = kSplitProbabilityRatio * scan.p_c;
  scan.min_benefit = kMinSplitBenefitMs;
  return scan;
}

size_t AdaptiveIndex::TryClusterSplit(ClusterId cid, size_t best) {
  Cluster* c = cluster(cid);
  size_t created = 0;
  // Paper Fig. 3: greedily materialize the most profitable candidate, then
  // recompute (moved objects change the indicators of other candidates).
  // A stored first scan stands in for this visit's first one; the phase
  // that stored it checked the observation windows.
  while (live_clusters_ < kMaxClusters) {
    if (best == Cluster::kUnscanned) {
      if (!SplitObservable(*c)) break;
      // The split scan also counts and folds the exploration log.
      CandidateSet& cs = c->candidates;
      if (beta_.size() < cs.padded_size()) beta_.resize(cs.padded_size());
      best = cs.BestSplit(ring_, SplitScanOf(*c), beta_.data());
    }
    if (best == static_cast<size_t>(-1)) break;
    MaterializeCandidate(cid, best);
    c = cluster(cid);
    best = Cluster::kUnscanned;
    ++created;
    ++reorg_stats_.splits;
  }
  // When no scan ran, the log is still replayed so the ring can recycle.
  c->candidates.Replay(ring_);
  if (created > 0) c->objects.Compact();
  return created;
}

ClusterId AdaptiveIndex::MaterializeCandidate(ClusterId cid, size_t ci) {
  Cluster* c = cluster(cid);
  const Signature child_sig = c->candidates.MakeSignature(c->sig, ci);
  ACCL_DCHECK(child_sig.RefinedFrom(c->sig));
  // Copy the candidate's indicators before they are superseded (the split
  // scan has just folded the log, so q is current).
  ACCL_DCHECK(c->candidates.log_size() == 0);
  const CandidateSet::Candidate cand = c->candidates.at(ci);
  const double cand_w0 = c->candidates.created_weight();

  const ClusterId did = NewCluster(child_sig, cid);
  c = cluster(cid);  // the cluster table may have grown
  Cluster* d = cluster(did);
  // The candidate's query statistics become the new cluster's: they measure
  // exactly the access probability the materialized cluster will have.
  d->q = cand.q;
  d->w0 = cand_w0;

  // Move qualifying objects (paper Fig. 3 steps 5-6 and 9-11). Iterating
  // backwards keeps unvisited slots stable across swap-removals.
  for (size_t i = c->objects.size(); i-- > 0;) {
    const BoxView b = c->objects.box(i);
    if (!d->sig.MatchesObject(b)) continue;
    const ObjectId oid = c->objects.id(i);
    const uint32_t slot = static_cast<uint32_t>(d->objects.size());
    d->objects.Append(oid, b);
    d->candidates.AccountObject(b, +1);
    c->candidates.AccountObject(b, -1);
    owner_.Set(oid, ObjectRef{did, slot});
    const ObjectId filler = c->objects.RemoveAt(i);
    if (filler != kInvalidObject) {
      ObjectRef* fref = owner_.Find(filler);
      ACCL_CHECK(fref != nullptr);
      ACCL_DCHECK(fref->cluster == cid);
      fref->slot = static_cast<uint32_t>(i);
    }
  }
  d->objects.Compact();
  object_counts_[cid] = static_cast<uint32_t>(c->size());
  object_counts_[did] = static_cast<uint32_t>(d->size());
  return did;
}

ClusterId AdaptiveIndex::OwnerOf(ObjectId id) const {
  const ObjectRef* ref = owner_.Find(id);
  return ref == nullptr ? kNoCluster : ref->cluster;
}

BoxView AdaptiveIndex::ObjectBox(ObjectId id) const {
  const ObjectRef* ref = owner_.Find(id);
  if (ref == nullptr) return BoxView();
  return cluster(ref->cluster)->objects.box(ref->slot);
}

double AdaptiveIndex::ExpectedQueryTimeMs() const {
  double t = 0.0;
  for (const auto& up : clusters_) {
    if (!up) continue;
    t += model_.ClusterTime(AccessProbOf(*up),
                            static_cast<double>(up->size()));
  }
  return t;
}

std::vector<AdaptiveIndex::ClusterInfo> AdaptiveIndex::GetClusterInfos()
    const {
  std::vector<ClusterInfo> infos;
  infos.reserve(live_clusters_);
  for (const auto& up : clusters_) {
    if (!up) continue;
    ClusterInfo ci;
    ci.id = up->id;
    ci.parent = up->parent;
    ci.objects = up->size();
    ci.access_prob = AccessProbOf(*up);
    ci.candidates = up->candidates.size();
    ci.utilization = up->objects.utilization();
    ci.depth = 0;
    for (ClusterId p = up->parent; p != kNoCluster;
         p = cluster(p)->parent) {
      ++ci.depth;
    }
    infos.push_back(ci);
  }
  return infos;
}

void AdaptiveIndex::CheckInvariants() const {
  size_t live = 0;
  size_t objects = 0;
  for (const auto& up : clusters_) {
    if (!up) continue;
    ++live;
    const Cluster& c = *up;
    objects += c.size();
    if (c.is_root()) {
      ACCL_CHECK(c.id == root_);
      ACCL_CHECK(c.sig.IsRoot());
    } else {
      const Cluster* a = cluster(c.parent);
      ACCL_CHECK(a != nullptr);
      ACCL_CHECK(std::count(a->children.begin(), a->children.end(), c.id) ==
                 1);
      ACCL_CHECK(c.sig.RefinedFrom(a->sig));
    }
    for (ClusterId ch : c.children) {
      ACCL_CHECK(cluster(ch) != nullptr);
      ACCL_CHECK(cluster(ch)->parent == c.id);
    }
    // The signature table's row for this cluster agrees.
    ACCL_CHECK(sig_table_.RowMatches(c.id, c.sig));
    // Every member matches the signature and the ownership map agrees,
    // including the exact slot.
    for (size_t i = 0; i < c.size(); ++i) {
      ACCL_CHECK(c.sig.MatchesObject(c.objects.box(i)));
      const ObjectRef* ref = owner_.Find(c.objects.id(i));
      ACCL_CHECK(ref != nullptr);
      ACCL_CHECK(ref->cluster == c.id);
      ACCL_CHECK(ref->slot == i);
    }
    // Candidate object counts must equal a fresh recount.
    CandidateSet fresh(c.sig, cfg_.division_factor, 0.0);
    for (size_t i = 0; i < c.size(); ++i) {
      fresh.AccountObject(c.objects.box(i), +1);
    }
    ACCL_CHECK(fresh.size() == c.candidates.size());
    for (size_t i = 0; i < fresh.size(); ++i) {
      ACCL_CHECK(fresh.at(i).n == c.candidates.at(i).n);
    }
    // Logs only name live ring slots.
    for (size_t e = 0; e < c.candidates.log_size(); ++e) {
      ACCL_CHECK(ring_.rank(c.candidates.logged(e)) < ring_.size());
    }
    // A stored split scan never outlives the slice that made it.
    ACCL_CHECK(c.prescanned == Cluster::kUnscanned);
  }
  ACCL_CHECK(live == live_clusters_);
  ACCL_CHECK(objects == object_count_);
  ACCL_CHECK(owner_.size() == object_count_);
  ACCL_CHECK(sig_table_.size() == live_clusters_);
  // The object-count column is exact, and 0 for every free id.
  ACCL_CHECK(object_counts_.size() == clusters_.size());
  for (size_t id = 0; id < clusters_.size(); ++id) {
    ACCL_CHECK(object_counts_[id] == (clusters_[id] ? clusters_[id]->size() : 0));
  }
  // Freed rows are NaN, and the high-water id is one past the top live id.
  const size_t high_water = sig_table_.high_water();
  ACCL_CHECK(high_water <= clusters_.size());
  ACCL_CHECK(high_water == 0 || clusters_[high_water - 1] != nullptr);
  for (size_t id = 0; id < clusters_.size(); ++id) {
    if (!clusters_[id]) {
      ACCL_CHECK(sig_table_.RowFree(static_cast<ClusterId>(id)));
    }
  }
}

std::vector<ClusterImage> AdaptiveIndex::DumpClusters() const {
  std::vector<ClusterImage> images;
  images.reserve(live_clusters_);
  for (const auto& up : clusters_) {
    if (!up) continue;
    ClusterImage img;
    img.id = up->id;
    img.parent = up->parent;
    img.sig = up->sig;
    const size_t n = up->size();
    img.ids.assign(up->objects.ids().begin(), up->objects.ids().end());
    const size_t stride = 2 * static_cast<size_t>(cfg_.nd);
    img.coords.assign(up->objects.coords_data(),
                      up->objects.coords_data() + n * stride);
    images.push_back(std::move(img));
  }
  return images;
}

std::unique_ptr<AdaptiveIndex> AdaptiveIndex::FromImages(
    const AdaptiveConfig& cfg, const std::vector<ClusterImage>& images) {
  auto idx = std::make_unique<AdaptiveIndex>(cfg);
  // Discard the default root; rebuild the table exactly as imaged.
  idx->clusters_.clear();
  idx->free_ids_.clear();
  idx->live_clusters_ = 0;
  idx->root_ = kNoCluster;
  idx->sig_table_.Clear();
  idx->owner_.Clear();
  idx->object_count_ = 0;

  ClusterId max_id = 0;
  for (const ClusterImage& img : images) max_id = std::max(max_id, img.id);
  idx->clusters_.resize(static_cast<size_t>(max_id) + 1);
  idx->object_counts_.assign(idx->clusters_.size(), 0);

  for (const ClusterImage& img : images) {
    ACCL_CHECK(img.sig.dims() == cfg.nd);
    ACCL_CHECK(!idx->clusters_[img.id]);
    auto c = std::make_unique<Cluster>(img.id, img.sig, cfg.nd,
                                       cfg.division_factor, 0.0,
                                       LogCapacity(cfg.reorg_period));
    c->parent = img.parent;
    idx->sig_table_.Add(img.id, c->sig);
    const size_t stride = 2 * static_cast<size_t>(cfg.nd);
    ACCL_CHECK(img.coords.size() == img.ids.size() * stride);
    for (size_t i = 0; i < img.ids.size(); ++i) {
      const BoxView b(img.coords.data() + i * stride, cfg.nd);
      ACCL_CHECK(c->sig.MatchesObject(b));
      c->objects.Append(img.ids[i], b);
      c->candidates.AccountObject(b, +1);
      ACCL_CHECK(idx->owner_.Insert(
          img.ids[i], ObjectRef{img.id, static_cast<uint32_t>(i)}));
      ++idx->object_count_;
    }
    idx->object_counts_[img.id] = static_cast<uint32_t>(img.ids.size());
    ++idx->live_clusters_;
    idx->clusters_[img.id] = std::move(c);
  }

  for (ClusterId id = 0; id <= max_id; ++id) {
    if (!idx->clusters_[id]) {
      idx->free_ids_.push_back(id);
      continue;
    }
    Cluster* c = idx->clusters_[id].get();
    if (c->parent == kNoCluster) {
      ACCL_CHECK(idx->root_ == kNoCluster);
      idx->root_ = id;
    } else {
      ACCL_CHECK(idx->clusters_[c->parent] != nullptr);
      idx->clusters_[c->parent]->children.push_back(id);
    }
  }
  ACCL_CHECK(idx->root_ != kNoCluster);
  return idx;
}

}  // namespace accl
