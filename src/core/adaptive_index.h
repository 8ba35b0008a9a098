// AdaptiveIndex — the paper's contribution: cost-based adaptive clustering of
// multidimensional extended objects (paper §3).
//
// The collection starts as a single *root cluster* accepting any object.
// Every query explores all materialized clusters whose signatures admit it
// and updates their performance indicators (those of their virtual
// candidate subclusters are logged and counted when reorganization next
// visits the cluster, where they are read). Periodically the structure is
// reorganized: each cluster is either merged back into its parent (merging
// benefit function, eq. 5), kept, or split by greedily materializing its
// most profitable candidate subclusters (materialization benefit function,
// eq. 3). The periodic pass is spread over its period: a *round* of
// `reorg_period` queries snapshots the live clusters at its first query and
// visits them in slices of kReorgSliceClusters, the last slice landing on
// the round's last query, so no query pays for a whole pass over a large
// structure. Both decisions come from the cost model
// T = A + p(B + nC) parameterized by the storage scenario, so the structure
// adapts to the data distribution, the query distribution, and the
// hardware — and degrades gracefully to a Sequential-Scan-equivalent single
// cluster when clustering cannot pay off.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/span.h"
#include "api/spatial_index.h"
#include "core/cluster.h"
#include "core/signature_table.h"
#include "cost/cost_model.h"
#include "util/flat_id_map.h"

namespace accl {

namespace exec {
class ThreadPool;
}  // namespace exec
namespace kernels {
class VerifyBackend;
}  // namespace kernels

/// Split safeguards of the cost model, shared by AdaptiveIndex and the
/// static clusterer (core/static_clustering.h).
///
/// Minimum objects a candidate must hold to be worth materializing.
inline constexpr size_t kMinSplitObjects = 2;
/// Hysteresis against estimation noise: a candidate is only materialized
/// when its estimated access probability is at most this fraction of the
/// owner's. Without the gap requirement, candidates whose true probability
/// equals the cluster's get split on upward noise in the estimate and
/// merged back when it corrects, oscillating forever.
inline constexpr double kSplitProbabilityRatio = 0.75;
/// Absolute materialization-benefit floor [ms/query]. Benefits within
/// estimation noise of zero (a few-object candidate saving microseconds)
/// would otherwise keep materializing and merging at the margin; the floor
/// makes reorganization reach a true fixed point. Negligible relative to
/// disk-scenario benefits (seeks are milliseconds).
inline constexpr double kMinSplitBenefitMs = 5e-4;
/// Hard cap on an index's materialized clusters (safety valve).
inline constexpr size_t kMaxClusters = size_t{1} << 20;

/// Tuning knobs for AdaptiveIndex. Defaults follow the paper (§6, §7.1);
/// the paper's constants (the reserve of storage/slot_array.h and the
/// split safeguards above) are not knobs.
struct AdaptiveConfig {
  Dim nd = 16;
  StorageScenario scenario = StorageScenario::kMemory;
  SystemParams sys = SystemParams::Paper();

  /// Domain division factor f of the clustering function (paper uses 4).
  uint32_t division_factor = 4;
  /// Every cluster is reorganized once per this many queries (paper: 100):
  /// one round of AdaptiveIndex's sliced pass. 0 disables automatic
  /// reorganization (call Reorganize() manually).
  uint32_t reorg_period = 100;
  /// Minimum observation window (queries since creation) before a cluster's
  /// or candidate's statistics may drive a split/merge decision.
  double min_observation = 32.0;
  /// Every this many queries all statistics are halved, giving a sliding
  /// window that tracks query-distribution change. 0 = never decay.
  uint32_t stats_halving_period = 4096;
  /// Verification-kernel backend by name ("scalar", "sse2", "avx2",
  /// "avx512"); empty selects the widest the host supports. The
  /// ACCL_FORCE_BACKEND environment variable overrides this. Requesting a
  /// backend the build or host lacks aborts at construction — validate
  /// first via kernels::BackendRegistry (ValidateOptions does).
  std::string verify_backend;
  /// Threads that explore one query's admitted clusters (verify them and
  /// update their indicators) once they hold at least
  /// AdaptiveIndex::kParallelVerifyObjects objects, and that replay and
  /// split-scan the clusters of a reorganization slice once it holds at
  /// least AdaptiveIndex::kParallelScanClusters: the caller plus the
  /// workers of a pool the index starts on the first such query. After a
  /// fan-out the workers spin for exec::ThreadPool::kSpinWindow, yielding
  /// their CPUs, before they park, so back-to-back queries skip the
  /// wake-up. 0 = the CPUs in the process's affinity mask; 1 = the caller
  /// only. Either way at most AdaptiveIndex::kMaxVerifyThreads. Answers,
  /// QueryMetrics and reorganization decisions are identical for every
  /// value. An engine that already runs its indexes side by side pins this
  /// to 1 (SubscriptionEngine does).
  uint32_t verify_threads = 0;
};

/// Aggregate reorganization counters for introspection and tests.
struct ReorgStats {
  /// Completed passes: periodic rounds plus explicit Reorganize() calls.
  uint64_t passes = 0;
  uint64_t splits = 0;          ///< candidate materializations
  uint64_t merges = 0;          ///< cluster-into-parent merges
  uint64_t last_pass_splits = 0;  ///< totals of the last completed pass
  uint64_t last_pass_merges = 0;
};

/// Serializable image of one cluster (ClusterFileStore, FromImages).
struct ClusterImage {
  ClusterId id = 0;
  ClusterId parent = kNoCluster;
  Signature sig;
  std::vector<ObjectId> ids;
  std::vector<float> coords;  // stride 2*nd
};

/// The adaptive cost-based clustering index.
///
/// Thread safety: none. Execute is a *logical* read but a *physical* write —
/// it updates per-cluster and per-candidate performance indicators, decays
/// statistics, and may run a slice of a reorganization round (that
/// adaptivity is the paper's contribution) — and reuses per-query scratch
/// (the signature table's query bounds, the admitted list). Concurrent use
/// therefore requires external serialization per index; the sdi sharded
/// engine wraps each instance behind a shard mutex and scales out across
/// instances. Execute may explore the admitted clusters, and replay and
/// split-scan the clusters of a reorganization slice, on the index's own
/// worker threads (AdaptiveConfig::verify_threads). An exploring worker
/// writes only its own clusters' q and exploration logs (replaying a full
/// log against the exploration ring, which stays fixed until the join) and
/// its own match buffer; a scanning worker writes only its own clusters'
/// candidate statistics. Every one has finished before Execute returns,
/// so that changes nothing for callers.
class AdaptiveIndex : public SpatialIndex {
 public:
  explicit AdaptiveIndex(const AdaptiveConfig& cfg);
  ~AdaptiveIndex() override;

  AdaptiveIndex(const AdaptiveIndex&) = delete;
  AdaptiveIndex& operator=(const AdaptiveIndex&) = delete;

  // ---- SpatialIndex interface ----
  const char* name() const override { return "AC"; }
  Dim dims() const override { return cfg_.nd; }
  void Insert(ObjectId id, BoxView box) override;
  bool Erase(ObjectId id) override;

  /// Bulk insert: `ids[i]` with coordinates `coords[2*nd*i .. 2*nd*(i+1))`.
  ///
  /// Contract: the result is exactly that of calling Insert on each object
  /// in input order — the same host cluster per object, the same slot
  /// layout, owner map and DumpClusters image, and the same ACCL_CHECK
  /// aborts (a duplicate id, or an object the root signature rejects,
  /// aborts at that object after the ones before it are placed).
  ///
  /// A batch that PlacesAsBatch accepts is placed cluster-major (paper
  /// Fig. 4 over the whole group): the live clusters are ranked once by
  /// (access probability, id) — insertion never changes a probability —
  /// and each chunk of kPlacementChunk objects is tested against every
  /// cluster's refined variation intervals with the verification
  /// backend's RankAccepting op, keeping each object's lowest accepting
  /// rank. A smaller batch takes Insert's descent per object.
  ///
  /// Callers: shard migration (hundreds of objects per destination shard),
  /// recovery's image restore (one group per shard), and WAL replay and
  /// the follower's apply path (one call per log record, so usually n = 1).
  void BulkInsert(Span<const ObjectId> ids, Span<const float> coords);

  /// Whether BulkInsert places `n` objects into an index of `clusters`
  /// live clusters with the cluster-major pass. The pass ranks every live
  /// cluster once per call, so it pays off only for batches that are
  /// large against the cluster count: on converged 8-d and 16-d indexes
  /// of 78 to 2081 clusters its per-object cost fell below the descent's
  /// between n = 14 and n = 96, at about clusters/5 to clusters/22 (see
  /// BM_AdaptiveBulkInsert). Below 32 objects the two stayed within ~35%
  /// of each other on the small indexes, so the floor keeps the descent.
  static constexpr bool PlacesAsBatch(size_t n, size_t clusters) {
    return n >= 32 && 16 * n >= clusters;
  }

  /// Objects BulkInsert transposes and places per pass; its working set
  /// is 2*nd columns of this many floats.
  static constexpr size_t kPlacementChunk = 1024;

  /// Bulk erase-by-id: removes every listed id that is present and returns
  /// how many were. Unknown ids are skipped, not errors — this is the
  /// deferred-cleanup hook for the sharded engine's double-residency
  /// migration, where a concurrent Unsubscribe may legitimately have
  /// removed a source copy between the grace period and the cleanup pass.
  /// Equivalent to calling Erase per id in order.
  size_t BulkErase(Span<const ObjectId> ids);

  /// Visits every live object as (id, box view). Iteration order is
  /// cluster-table order, slot order within a cluster — deterministic for a
  /// deterministic operation history. The views are only valid inside the
  /// callback; callers needing the coordinates must copy them.
  void ForEachObject(
      const std::function<void(ObjectId, BoxView)>& fn) const;

  void Execute(const Query& q, std::vector<ObjectId>* out,
               QueryMetrics* metrics = nullptr) override;
  size_t size() const override { return object_count_; }
  VerifyKernelInfo verify_kernel() const override;

  // ---- Introspection & control ----
  const AdaptiveConfig& config() const { return cfg_; }
  const CostModel& cost_model() const { return model_; }

  /// Number of materialized clusters (including the root).
  size_t cluster_count() const { return live_clusters_; }

  /// Runs one reorganization pass over all materialized clusters at once
  /// (paper Fig. 1 applied to each cluster). Ends the current periodic
  /// round; the next query starts a new one over the remaining queries of
  /// its period.
  void Reorganize();

  /// Clusters a periodic round visits per slice. An index of at most this
  /// many clusters runs its whole pass on the round's last query, like a
  /// one-shot pass; a larger one spreads it over ceil(clusters / this) of
  /// the round's queries. The size trades the tail against the median:
  /// each slice-carrying query pays for its slice, and the more of them a
  /// round has, the further the median query moves toward them. Measured
  /// when a slice still ran on the caller alone, before its scans fanned
  /// out (perfbench's index_converge, ~2,450 clusters, reorg_period 50;
  /// 4-vCPU Xeon): 256 cut call_p99_us 3.3x but raised call_p50_us ~21%;
  /// 384 cut p99 3.2x for ~12% on p50.
  static constexpr size_t kReorgSliceClusters = 384;

  /// Clusters a reorganization slice must hold before its log replays and
  /// first split scans are spread across the verify threads; a smaller
  /// one stays on the caller. Not tuned: every full slice
  /// (kReorgSliceClusters) clears it, so it decides only for a round's
  /// short last slice, and no run has timed that case.
  static constexpr size_t kParallelScanClusters = 64;

  /// Objects a query's admitted clusters must hold before Execute splits
  /// their exploration across threads. Below it, the fan-out's hand-off
  /// and join would cost more than the verification they share.
  static constexpr size_t kParallelVerifyObjects = 8192;
  /// Cap on AdaptiveConfig::verify_threads, including its automatic value.
  static constexpr size_t kMaxVerifyThreads = 8;

  /// Worker threads started for verification: 0 until a query crosses
  /// kParallelVerifyObjects with more than one verify thread.
  size_t verify_workers() const;

  /// Total queries executed (drives periodic reorganization).
  uint64_t total_queries() const { return total_queries_; }

  const ReorgStats& reorg_stats() const { return reorg_stats_; }

  /// Expected average query time under the cost model, summing
  /// T_c = A + p_c (B + n_c C) over materialized clusters. This is the
  /// quantity the clustering minimizes; it can never exceed the equivalent
  /// single-cluster (Sequential Scan) figure once reorganization has
  /// converged with fresh statistics.
  double ExpectedQueryTimeMs() const;

  /// Host cluster of a live object, or kNoCluster when the id is unknown.
  ClusterId OwnerOf(ObjectId id) const;

  /// Box of a live object, or an empty view when the id is unknown. The
  /// view is valid until the next mutation of the index.
  BoxView ObjectBox(ObjectId id) const;

  /// Per-cluster snapshot for diagnostics, tests and examples.
  struct ClusterInfo {
    ClusterId id;
    ClusterId parent;
    size_t objects;
    double access_prob;
    size_t candidates;
    double utilization;
    uint32_t depth;
  };
  std::vector<ClusterInfo> GetClusterInfos() const;

  /// Structural invariants (tree shape, signature refinement, object
  /// residency). Aborts via ACCL_CHECK on violation; cheap enough for tests.
  void CheckInvariants() const;

  /// Dumps all clusters for persistence.
  std::vector<ClusterImage> DumpClusters() const;

  /// Rebuilds an index from persisted images (statistics start fresh, as
  /// the paper's recovery section allows). Object/cluster relationships and
  /// signatures are restored exactly.
  static std::unique_ptr<AdaptiveIndex> FromImages(
      const AdaptiveConfig& cfg, const std::vector<ClusterImage>& images);

 private:
  Cluster* cluster(ClusterId id) { return clusters_[id].get(); }
  const Cluster* cluster(ClusterId id) const { return clusters_[id].get(); }

  ClusterId NewCluster(Signature sig, ClusterId parent);
  void FreeCluster(ClusterId id);

  /// Appends a new object to cluster `best` (Insert's and BulkInsert's
  /// common tail); aborts when no cluster accepted it.
  void Place(ObjectId id, BoxView box, ClusterId best);

  /// Periodic reorganization's share of query `total_queries_`: opens a
  /// round at its first query, visits the snapshot up to this query's
  /// slice boundary and closes the round at its last query.
  void ContinueRound();
  /// Snapshots the live clusters in id order and opens a round.
  void OpenRound();
  /// paper Fig. 1 for snapshot entries [begin, end): merge each cluster
  /// still live if profitable, otherwise try to split it.
  void VisitClusters(size_t begin, size_t end);
  /// Counts the open round as a completed pass.
  void CloseRound();

  /// paper Fig. 2. Moves all objects of `c` into its parent, reparents
  /// children, removes `c`.
  void MergeCluster(ClusterId c);

  /// paper Fig. 3. Greedily materializes profitable candidates of `c`;
  /// `best` is its first split scan's result when PrescanSlice stored one,
  /// Cluster::kUnscanned otherwise. Returns the number of clusters created.
  size_t TryClusterSplit(ClusterId c, size_t best);

  /// Whether `c`'s own and its candidates' observation windows are long
  /// enough for a split decision.
  bool SplitObservable(const Cluster& c) const;
  /// The split scan's inputs for `c` (paper eq. 3).
  SplitScan SplitScanOf(const Cluster& c) const;

  /// Replays the logs of the slice's clusters [begin, end) of
  /// round_.snapshot and stores the first split scan of each observable
  /// one in Cluster::prescanned, on verify_pool_ and the caller in runs of
  /// consecutive entries.
  void PrescanSlice(size_t begin, size_t end);
  /// Starts verify_pool_ if it is not running.
  exec::ThreadPool& Pool();

  /// Materializes candidate `ci` of cluster `c`; returns the new cluster.
  ClusterId MaterializeCandidate(ClusterId c, size_t ci);

  double AccessProbOf(const Cluster& c) const {
    return c.AccessProb(total_weight_);
  }

  void HalveAllStats();

  /// Pushes the exploring query `q` into the ring (replaying every log
  /// first when it is full) and returns its slot.
  uint16_t PushExploringQuery(const Query& q);
  /// Adds one explored cluster's terms to *m: `n` objects verified with
  /// `dims` dimension checks.
  void ChargeExploration(size_t n, uint64_t dims, QueryMetrics* m) const;
  /// Explores admitted_, holding `objects` objects, in contiguous runs on
  /// verify_pool_ and the caller: each run verifies its clusters and
  /// updates their indicators; then the matches are appended to *out and
  /// the metrics added to *m in admitted order.
  void ExploreInParallel(const Query& q, size_t objects,
                         std::vector<ObjectId>* out, QueryMetrics* m);

  /// Appends ring slot `slot` to `c`'s exploration log, replaying the log
  /// first when it is full.
  void LogExploration(Cluster* c, uint16_t slot);
  /// Replays every cluster's log and recycles the ring.
  void ReplayAllLogs();
  /// Recycles the whole ring once no log names a slot.
  void ClearRing();

  AdaptiveConfig cfg_;
  CostModel model_;
  /// Resolved verification backend (cfg_.verify_backend / env / widest).
  /// Declared before sig_table_, which borrows it for its admit sweep.
  const kernels::VerifyBackend* backend_;

  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::vector<ClusterId> free_ids_;
  size_t live_clusters_ = 0;
  ClusterId root_ = kNoCluster;

  /// Packed SoA image of all live signatures, one row per cluster id;
  /// Execute's admit filter sweeps it instead of walking the cluster table.
  SignatureTable sig_table_;
  /// Live objects per cluster id (0 for a free id), so a query's admitted
  /// clusters are sized without touching them.
  std::vector<uint32_t> object_counts_;
  /// Scratch for the ids admitted by the current query.
  std::vector<ClusterId> admitted_;
  /// The queries named by the clusters' exploration logs (candidate
  /// statistics are counted at reorganization, not per exploration).
  QueryRing ring_;
  /// The periodic round in progress. The ring holds two rounds of slots:
  /// a round visits every cluster it snapshotted, replaying its log, and
  /// clusters created during a round log only that round's slots, so at a
  /// round's end no log names a slot pushed during the round before.
  struct Round {
    /// Live clusters at its first query; empty while no round is open (the
    /// root is always live).
    std::vector<ClusterId> snapshot;
    size_t visited = 0;  ///< snapshot entries visited so far
    uint64_t splits = 0, merges = 0;
    uint32_t slots = 0;       ///< ring slots pushed during this round
    uint32_t prev_slots = 0;  ///< ... and during the round before
  };
  Round round_;
  /// Split-scan benefits of the cluster being split (padded_size() long).
  std::vector<double> beta_;
  /// The same per run of a parallel slice scan (PrescanSlice).
  std::vector<std::vector<double>> scan_beta_;
  /// Reused per-query verification image (avoids per-query allocation).
  BatchQuery bq_;
  /// dims_checked of each admitted cluster of a fanned-out query, in
  /// admitted_ order.
  std::vector<uint64_t> verify_dims_;
  /// Resolved cfg_.verify_threads (1..kMaxVerifyThreads).
  size_t verify_threads_;
  /// verify_threads_ - 1 workers, started by the first query that fans out.
  std::unique_ptr<exec::ThreadPool> verify_pool_;
  /// A run of admitted clusters explored by one claim, and its matches
  /// (the buffers are reused across queries).
  struct VerifyChunk {
    size_t begin = 0, end = 0;
    std::vector<ObjectId> out;
  };
  std::vector<VerifyChunk> chunks_;
  /// Scratch for Insert's root-down descent.
  std::vector<ClusterId> descent_;

  /// Exact location of a live object: host cluster and slot within its
  /// SlotArray. Slots are patched on every swap-removal so Erase never
  /// linear-searches.
  struct ObjectRef {
    ClusterId cluster;
    uint32_t slot;
  };
  FlatIdMap<ObjectRef> owner_;
  size_t object_count_ = 0;

  uint64_t total_queries_ = 0;
  double total_weight_ = 0.0;  ///< decayed query count

  ReorgStats reorg_stats_;
};

}  // namespace accl
