// WAL segment files: the bounded, individually-checksummed units the
// write-ahead log is rotated into (durability/wal.h drives the lifecycle).
//
// A log is a directory-scanned chain of segment files named
// `<base>.<seq:08>`, each a PagedFile byte stream (kWalPageBytes pages)
// holding one 24-byte preamble followed by framed records. Rotation always
// creates a fresh file and truncation always unlinks one, which bounds the
// log's on-disk footprint.
//
// The segment sequence number doubles as the *generation stamp*: every
// frame written into a segment carries the segment's seq in its header and
// folds it into its checksum, and decoding rejects any frame whose stamp
// differs from the preamble's. Bytes that reach a segment from anywhere
// but its own appends — a misdirected write, frames copied from another
// segment — may sit past the valid tail with intact lengths, checksums,
// even plausible LSNs, but they carry another generation and never replay.
//
// SimDisk fault injection covers the file lifecycle, not just reads and
// writes: creating or unlinking a segment consults NextOpFails() first and
// charges one head repositioning (a directory update), so a crash-point
// matrix over io_ops() drives faults through rotation and segment GC as
// well.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/durability.h"
#include "api/types.h"
#include "storage/paged_store.h"
#include "storage/sim_disk.h"

namespace accl::durability {

/// Record kinds, one per engine mutation.
enum class WalRecordType : uint8_t {
  kSubscribe = 1,
  kSubscribeBatch = 2,
  kUnsubscribe = 3,
};

/// Decoded record handed to Replay callbacks.
struct WalRecord {
  WalRecordType type = WalRecordType::kSubscribe;
  Lsn lsn = kNoLsn;
  ObjectId first_id = kInvalidObject;  ///< id, or first id of a batch
  uint32_t count = 0;                  ///< subscriptions in the record
  Dim nd = 0;                          ///< 0 for kUnsubscribe
  std::vector<float> coords;           ///< count * 2 * nd floats
};

/// Frame layout: [u32 len][u32 crc][u64 lsn][u64 gen][payload]. The LSN
/// and the generation stamp live in the 24-byte header — not the payload —
/// so appenders can encode and hash the payload outside the log mutex and
/// the flusher folds the LSN and the target segment's generation into the
/// checksum in O(1) when it finally places the frame.
constexpr uint64_t kFrameHeaderBytes = 24;
/// Frames larger than this are treated as corruption, not allocated.
constexpr uint32_t kMaxFrameBytes = 1u << 26;

/// Segment preamble: [u32 magic][u32 version][u64 seq][u64 base_lsn],
/// written and synced at creation, immutable afterwards.
constexpr uint64_t kSegmentPreambleBytes = 24;
constexpr uint32_t kSegmentMagic = 0x41534547u;  // "ASEG"
constexpr uint32_t kSegmentVersion = 1;

/// Page size of every segment's PagedFile.
constexpr uint32_t kWalPageBytes = 4096;

/// Frame checksum: FNV-1a over the payload, then the LSN and the
/// generation stamp folded on top, folded to the 32 bits the frame stores.
uint32_t FrameChecksum(const uint8_t* payload, size_t n, Lsn lsn,
                       uint64_t gen);
/// Same, resuming from a precomputed payload hash (Fnv1aBytes over the
/// payload starting at kFnvOffsetBasis) — the flusher's O(1) finish.
uint32_t FrameChecksumFromHash(uint64_t payload_hash, Lsn lsn, uint64_t gen);

/// Segment file path: `<base>.<seq:08>`.
std::string SegmentPath(const std::string& base, uint64_t seq);

struct SegmentFileInfo {
  uint64_t seq = 0;
  std::string path;
};

/// Lists `base`'s segment files, ascending by seq (directory scan).
std::vector<SegmentFileInfo> ListSegmentFiles(const std::string& base);
/// Unlinks every segment of `base` (tests and tools; the log itself never
/// removes files it did not decide to truncate).
void RemoveWalFiles(const std::string& base);

/// One segment file: a PagedFile stream with a validated preamble. Offsets
/// are absolute stream offsets; frames start at kSegmentPreambleBytes.
class WalSegment {
 public:
  /// Creates a fresh segment (truncating any existing file) and durably
  /// writes its preamble. Consults `disk` once for the file creation and
  /// once for the preamble write+sync; nullptr on failure (injected or
  /// real) — a torn creation leaves a file reopen garbage-collects.
  static std::unique_ptr<WalSegment> Create(const std::string& path,
                                            uint64_t seq, Lsn base_lsn,
                                            SimDisk* disk);

  /// Opens an existing segment and validates its preamble (magic, version,
  /// non-zero seq). No fault consults: open-time reads are recovery I/O.
  static std::unique_ptr<WalSegment> Open(const std::string& path);

  uint64_t seq() const { return seq_; }
  Lsn base_lsn() const { return base_lsn_; }
  const std::string& path() const { return path_; }
  /// Bytes the file claims to back; the decode limit.
  uint64_t payload_limit() const { return file_->payload_bytes(); }

  bool Write(uint64_t off, const void* data, uint64_t len) {
    return file_->StreamWrite(off, data, len);
  }
  bool Read(uint64_t off, void* out, uint64_t len) {
    return file_->StreamRead(off, out, len);
  }
  bool Sync() { return file_->Sync(); }

  /// Decodes the frame at `off`; false when invalid/torn — a valid-prefix
  /// walk stops there. Rejects frames whose generation stamp is not this
  /// segment's seq (bytes this segment's appends did not write). A false with
  /// `*io_error` set means a read failed on bytes the file claims to back:
  /// the scan result is unreliable, not a clean tail. `*next` is the
  /// offset just past a decoded frame.
  bool DecodeFrameAt(uint64_t off, WalRecord* out, uint64_t* next,
                     bool* io_error);

 private:
  WalSegment(std::string path, std::unique_ptr<PagedFile> file, uint64_t seq,
             Lsn base_lsn)
      : path_(std::move(path)),
        file_(std::move(file)),
        seq_(seq),
        base_lsn_(base_lsn) {}

  std::string path_;
  std::unique_ptr<PagedFile> file_;
  uint64_t seq_ = 0;
  Lsn base_lsn_ = kNoLsn;
};

}  // namespace accl::durability
