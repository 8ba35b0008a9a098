// The clustering function (paper §4.2) and candidate subcluster bookkeeping.
//
// Given a cluster signature, each dimension's pair of variation intervals is
// divided into `f` subintervals (f = division factor). Every feasible
// combination (start-piece ia, end-piece ib) on a single dimension — other
// dimensions unchanged — yields one *candidate subcluster*. A combination is
// feasible iff some object (a <= b) can fall in it, i.e. the start piece
// begins strictly before the end piece ends. When the two variation
// intervals are identical this leaves exactly f(f+1)/2 candidates (paper
// footnote 3); in general up to f^2 per dimension, hence between
// Nd*f(f+1)/2 and Nd*f^2 candidates per cluster — linear in Nd.
//
// Candidates are *virtual*: only their (dim, ia, ib) key and two performance
// indicators are stored — the number of member objects matching them (n,
// maintained incrementally on insert/move) and the number of exploring
// queries matching them (q).
//
// The paper charges the q update to every exploration (the B term). Only the
// split scan reads q, once per reorganization round, so an exploration
// merely appends the query's QueryRing slot to the cluster's fixed-size
// exploration log. The log is replayed into per-candidate byte counts and
// folded into q where q is read: when reorganization visits the cluster (in
// the split scan, fused into its benefit pass), before statistics are
// halved, when the log fills, and when the ring fills. The fold equals the
// sequential `q += 1.0` steps bit for bit, so every decision matches the
// eager accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "core/signature.h"
#include "geometry/query.h"

namespace accl {

/// Variation intervals narrower than this are not divided further.
inline constexpr float kMinDivisibleWidth = 1e-5f;

/// The j-th of `f` equal pieces of a variation interval. Pieces are
/// half-open except the last, which inherits the parent's closedness.
VarInterval Piece(const VarInterval& v, uint32_t j, uint32_t f);

/// Index of the piece of `v` (divided into `f`) containing `x`, or -1 when x
/// lies outside `v`. Robust to float rounding at piece boundaries: the
/// result always satisfies Piece(v, idx, f).Contains(x).
int PieceIndex(const VarInterval& v, uint32_t f, float x);

/// `q` after `k` sequential `q += 1.0` steps, computed with one add per
/// binade crossed instead of one per step. `q` must be non-negative.
double FoldSteps(double q, uint32_t k);

namespace detail {
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};
}  // namespace detail

/// 64-byte-aligned byte storage.
using AlignedBytes = std::unique_ptr<unsigned char[], detail::FreeDeleter>;

/// The explored queries that some exploration log may still name, in a
/// circular buffer: slots are pushed at the tail and released, oldest
/// first, once no log names them. A slot holds the query box and relation
/// plus its full-domain admission bytes: for every dimension, one 0/1 byte
/// per candidate of a full-domain variation-interval pair, in the symmetric
/// candidate order. Full-domain pieces have the same boundaries in every
/// cluster, so these bytes are computed once per query and added straight
/// into the counts of every full-domain dimension a replay touches.
class QueryRing {
 public:
  QueryRing(Dim nd, uint32_t f, uint32_t capacity);

  /// Live slots: pushed and not yet released.
  uint32_t size() const { return used_; }
  bool full() const { return used_ == capacity_; }
  /// Recycles every slot. Only valid once no log names a slot.
  void Clear() {
    head_ = 0;
    used_ = 0;
  }
  /// Recycles the `k` oldest live slots. Only valid once no log names one.
  void Release(uint32_t k);
  /// Age rank of slot `s`: 0 for the oldest live slot. The slot is live
  /// iff its rank is below size().
  uint32_t rank(uint16_t s) const {
    return s >= head_ ? s - head_ : s + capacity_ - head_;
  }

  /// Stores `q` in the slot after the newest and returns it. Requires
  /// !full().
  uint16_t Push(const Query& q);

  const uint8_t* slot(uint16_t s) const { return data_.get() + s * stride_; }
  const uint8_t* admission(uint16_t s) const { return slot(s); }
  const float* box(uint16_t s) const {
    return reinterpret_cast<const float*>(slot(s) + box_offset_);
  }
  Relation rel(uint16_t s) const {
    return static_cast<Relation>(slot(s)[rel_offset_]);
  }

 private:
  Dim nd_;
  uint32_t f_;
  uint32_t per_dim_;
  uint32_t capacity_;
  uint32_t head_ = 0;  ///< oldest live slot
  uint32_t used_ = 0;
  size_t box_offset_;
  size_t rel_offset_;
  size_t stride_;
  float bounds_[33];  ///< full-domain piece boundaries, f+1 of them
  AlignedBytes data_;
};

/// Inputs of the split scan's benefit pass (paper eq. 3); see
/// AdaptiveIndex::TryClusterSplit.
struct SplitScan {
  double A = 0.0, B = 0.0, C = 0.0;  ///< cost-model terms
  double p_c = 0.0;          ///< owner's estimated access probability
  double window = 0.0;       ///< candidate observation window + 1
  double min_n = 0.0;        ///< fewest objects worth materializing
  double p_gap = 0.0;        ///< highest qualifying candidate probability
  double min_benefit = 0.0;  ///< benefit floor [ms/query]
};

/// The set of candidate subclusters of one cluster, with their performance
/// indicators, fast (dim, piece) lookup and the owner's exploration log.
/// Everything lives in one aligned block.
class CandidateSet {
 public:
  struct Candidate {
    uint16_t dim;
    uint8_t ia;  ///< start-piece index
    uint8_t ib;  ///< end-piece index
    double n = 0.0;  ///< objects of the owning cluster matching the candidate
    double q = 0.0;  ///< (decayed) count of exploring queries matching it
  };

  /// Builds the candidates of `sig` with division factor `f`.
  /// `created_weight` is the global decayed query weight at creation time;
  /// access probabilities are estimated over queries seen since then.
  /// Dimensions whose variation intervals are narrower than `min_width` are
  /// not divided further (they cannot productively discriminate).
  /// `log_capacity` (at most 255) sizes the exploration log; 0 means
  /// queries are only ever accounted directly (AccountQuery).
  CandidateSet(const Signature& sig, uint32_t f, double created_weight,
               float min_width = kMinDivisibleWidth,
               uint32_t log_capacity = 0);

  uint32_t division_factor() const { return f_; }
  double created_weight() const { return w0_; }
  size_t size() const { return size_; }

  /// Assembled view of candidate `i`. `q` excludes logged explorations not
  /// yet replayed.
  Candidate at(size_t i) const {
    const uint32_t k = key_[i];
    Candidate c;
    c.dim = static_cast<uint16_t>(k >> 16);
    c.ia = static_cast<uint8_t>((k >> 8) & 0xFF);
    c.ib = static_cast<uint8_t>(k & 0xFF);
    c.n = n_[i];
    c.q = q_[i];
    return c;
  }

  /// Adjusts candidate object counts for one object entering (delta=+1) or
  /// leaving (delta=-1) the owning cluster. The object must match the
  /// owning cluster's signature.
  void AccountObject(BoxView o, int delta);

  /// Increments q for every candidate whose signature admits `query`: the
  /// log replay's count-and-fold for a single query, without a ring.
  void AccountQuery(const Query& query);

  /// Records that the owner was explored by the query in ring slot `s`.
  /// Returns false, recording nothing, when the log is full.
  bool Log(uint16_t s) {
    if (log_len_ == log_capacity_) return false;
    log_[log_len_++] = s;
    return true;
  }
  size_t log_size() const { return log_len_; }
  /// The `i`-th logged ring slot, oldest first.
  uint16_t logged(size_t i) const { return log_[i]; }

  /// Counts the logged explorations and folds them into q; empties the log.
  void Replay(const QueryRing& ring);

  /// The split scan: a benefit pass that first replays the log, folding
  /// it in the same sweep, and writes beta(s, c) (paper eq. 3) for every
  /// qualifying candidate and 0 for the others to `beta`; then a selection
  /// pass. Returns the candidate with the highest positive benefit, lowest
  /// index on ties, or SIZE_MAX. `beta` needs room for padded_size().
  size_t BestSplit(const QueryRing& ring, const SplitScan& scan,
                   double* beta);
  /// Candidate arrays are padded to a multiple of 16 entries.
  size_t padded_size() const { return padded_; }

  /// Stages what a replay and split scan touch first: the indicator
  /// arrays, the counts, the log and the replay plan.
  void Prefetch() const {
    const auto* p = reinterpret_cast<const unsigned char*>(q_);
    for (; p < pieces_; p += 64) __builtin_prefetch(p);
  }
  /// Where the next exploration will be logged.
  const void* log_tail() const { return log_ + log_len_; }

  /// Materializes candidate `i`'s signature from the owning signature.
  Signature MakeSignature(const Signature& owner, size_t i) const;

  /// Halves all statistics (sliding-window decay), including the creation
  /// weight so probability denominators stay consistent. The log must be
  /// empty: halving does not commute with the increments it holds.
  void Halve();

 private:
  /// Per divided dimension: what the insert path needs to place an object.
  struct QDim {
    uint16_t dim = 0;
    uint8_t start_hi_closed = 0;
    uint8_t end_hi_closed = 0;
    float start_lo = 0.0f;
    float end_lo = 0.0f;
    /// Reciprocal piece widths (f / interval width), cached so the
    /// per-object accounting pays one multiply instead of two divisions.
    double start_inv_w = 0.0;
    double end_inv_w = 0.0;
  };

  /// Consecutive full-domain dimensions: their candidates and their ring
  /// admission bytes are both contiguous, so one byte-vector add covers them.
  struct Run {
    uint32_t cand_begin;
    uint32_t adm_begin;
    uint32_t len;
  };

  /// A refined (not full-domain) divided dimension. Its pieces are
  /// cluster-specific, so a replay tests each logged query box: candidate
  /// (ia, ib) is admitted iff lo <= x && hi >= y, the per-candidate form of
  /// the piece masks. Per chunk of 16 candidates, thresholds_ holds lo and
  /// hi for intersects and encloses (sb[ia], eb[ib+1]), then for
  /// contained-by (eb[ib], sb[ia+1]).
  struct Refined {
    uint16_t dim;
    uint16_t index;  ///< divided-dim index (bounds(), bases())
    uint32_t cand_begin;
    uint32_t count;
    uint32_t thresholds;  ///< first float of its chunks in thresholds_
  };
  static constexpr uint32_t kChunkFloats = 64;

  /// Per relation, the ring boxes of the logged queries, for CountRefined.
  struct LogBoxes {
    const float* box[3][255];
    uint32_t n[3] = {0, 0, 0};
  };

  /// Divided dim `i`'s f+1 start then f+1 end piece boundaries (piece j
  /// spans [b[j], b[j+1]]).
  const float* bounds(size_t i) const {
    return reinterpret_cast<const float*>(pieces_ + i * piece_stride_);
  }
  /// Divided dim `i`'s f+1 start offsets of each start-piece candidate
  /// group; entry f ends the dimension's range. Per start piece the
  /// feasible end pieces are a suffix, so (ia, ib) is candidate
  /// bases[ia] + ib - (f - group size).
  const uint32_t* bases(size_t i) const {
    return reinterpret_cast<const uint32_t*>(pieces_ + i * piece_stride_) +
           2 * (f_ + 1);
  }

  /// Adds one query's admissions on divided dim `i` to counts_.
  void CountDim(size_t i, float qlo, float qhi, Relation rel);
  /// Replays the log into counts_ and empties it.
  void CountLog(const QueryRing& ring);
  /// CountLog's share for one refined dimension.
  void CountRefined(const Refined& rd, const LogBoxes& boxes);
  /// Whether adding up to `k` to every q is exact (one add then equals the
  /// sequential steps); records that k is being added.
  bool FoldIsExact(uint32_t k);
  /// Folds counts_ (each at most `max_count`) into q_ and zeroes them.
  void FoldCounts(uint32_t max_count);

  // Header fields in the order an exploration, a replay and a split scan
  // first need them. The arrays are views into block_, laid out in the same
  // order: q, n, counts, log, replay plan (runs, refined dims, thresholds),
  // per-dim pieces; the insert path's QDim records and the keys come last.
  uint16_t* log_ = nullptr;  ///< ring slots of unreplayed explorations
  uint32_t log_len_ = 0;
  uint32_t log_capacity_ = 0;
  double* q_ = nullptr;        ///< (decayed) exploring-query indicator
  uint32_t* n_ = nullptr;      ///< member-object count indicator
  uint8_t* counts_ = nullptr;  ///< replay scratch; zero between replays
  Run* runs_ = nullptr;
  Refined* refined_ = nullptr;
  const float* thresholds_ = nullptr;
  const unsigned char* pieces_ = nullptr;
  uint32_t nruns_ = 0;
  uint32_t nrefined_ = 0;
  uint32_t size_ = 0;
  uint32_t padded_ = 0;
  uint32_t ndiv_ = 0;
  uint32_t piece_stride_ = 0;  ///< bytes per divided dim in pieces_
  uint32_t f_ = 0;
  double w0_ = 0.0;
  /// Exactness bookkeeping for the fold (see FoldIsExact).
  uint32_t halvings_ = 0;
  bool exact_ = true;
  double q_bound_ = 0.0;
  QDim* qdims_ = nullptr;  ///< divided dims, in dimension order
  uint32_t* key_ = nullptr;  ///< dim << 16 | ia << 8 | ib
  AlignedBytes block_;
};

}  // namespace accl
