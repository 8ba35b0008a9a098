// File-backed paged cluster storage (paper §6 made concrete).
//
// Each cluster's members are stored *sequentially* in a run of contiguous
// fixed-size pages so that exploring a cluster is one head positioning plus
// one sequential transfer. Reserve places (20-30 %) are allocated with each
// run so insertions rarely relocate the cluster; a relocation allocates a
// fresh run with fresh reserve. A one-block directory at a fixed location
// records every cluster's (signature location, first page, page count,
// object count) so the structure survives crashes: reopening the file and
// reading the directory restores the whole layout (statistics are
// regathered, as §6 allows).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/types.h"
#include "core/adaptive_index.h"
#include "storage/sim_disk.h"
#include "storage/slot_array.h"

namespace accl {

/// A run-allocating page file over a real OS file.
class PagedFile {
 public:
  ~PagedFile();
  PagedFile(const PagedFile&) = delete;
  PagedFile& operator=(const PagedFile&) = delete;

  /// Creates (truncating) or opens a page file. Returns nullptr on I/O
  /// error or, when opening, on a page-size mismatch with the stored
  /// header.
  static std::unique_ptr<PagedFile> Create(const std::string& path,
                                           uint32_t page_bytes);
  static std::unique_ptr<PagedFile> Open(const std::string& path);

  uint32_t page_bytes() const { return page_bytes_; }
  uint64_t page_count() const { return page_count_; }
  /// Pages currently allocated to runs.
  uint64_t pages_in_use() const { return pages_in_use_; }

  /// Allocates a contiguous run of `n` pages (first-fit over freed runs,
  /// else file growth). Returns the first page index.
  uint64_t AllocateRun(uint64_t n);

  /// Returns a run to the free pool.
  void FreeRun(uint64_t first_page, uint64_t n);

  /// Reads/writes `len` bytes at byte offset `off` within the run starting
  /// at `first_page`. Returns false on I/O failure or out-of-run access.
  bool ReadAt(uint64_t first_page, uint64_t off, void* out, uint64_t len);
  bool WriteAt(uint64_t first_page, uint64_t off, const void* data,
               uint64_t len);

  /// Flushes OS buffers.
  bool Sync();

  /// Records the directory run in the file header (one-block directory
  /// pointer, paper §6). Persists the header immediately.
  bool SetDirectory(uint64_t first, uint64_t pages, uint64_t bytes);

  /// Reads the directory pointer; false when none was ever saved.
  bool GetDirectory(uint64_t* first, uint64_t* pages, uint64_t* bytes) const;

  /// Marks a run as live while loading a directory (all pages start free
  /// after Open). False when the run is not entirely free.
  bool MarkAllocated(uint64_t first, uint64_t n);

  // ---- Append-stream support (write-ahead logging) ----
  // A file can alternatively be used as one logical byte stream over the
  // payload pages: absolute byte offsets from 0 and file growth on demand.
  // The stream's tail is deliberately NOT persisted — the owner (a
  // durability::WalSegment) finds it by scanning its checksum-framed
  // records, so appends need no header write. Stream and run allocation
  // should not be mixed on one file: stream growth claims pages without
  // consulting the free-run list.

  /// Total payload bytes currently backed by the file.
  uint64_t payload_bytes() const { return page_count_ * page_bytes_; }

  /// Writes `len` bytes at absolute payload offset `off`, growing the file
  /// (whole pages) as needed. Returns false on I/O failure.
  bool StreamWrite(uint64_t off, const void* data, uint64_t len);

  /// Reads `len` bytes at absolute payload offset `off`. False on short
  /// read or when the range exceeds the backed payload.
  bool StreamRead(uint64_t off, void* out, uint64_t len);

 private:
  PagedFile() = default;
  struct FreeRunRec {
    uint64_t first;
    uint64_t count;
  };
  bool PersistHeader();

  std::FILE* file_ = nullptr;
  uint32_t page_bytes_ = 0;
  uint64_t page_count_ = 0;   // payload pages (header excluded)
  uint64_t pages_in_use_ = 0;
  uint64_t dir_first_ = ~0ull;
  uint64_t dir_pages_ = 0;
  uint64_t dir_bytes_ = 0;
  std::vector<FreeRunRec> free_runs_;
};

/// Cluster images laid out in a PagedFile with reserve slots + directory.
class ClusterFileStore {
 public:
  /// Each run gets kReserveFraction extra object places.
  /// `disk` (optional, not owned): charged for the simulated cost of every
  /// read/write so experiments can account real layouts with the paper's
  /// device parameters.
  ClusterFileStore(std::unique_ptr<PagedFile> file, Dim nd,
                   SimDisk* disk = nullptr);

  Dim dims() const { return nd_; }
  size_t cluster_count() const;
  const PagedFile& file() const { return *file_; }

  /// Writes (or rewrites) a cluster. Relocates to a fresh run when the
  /// object count exceeds the reserved places. Returns false on I/O error.
  bool Put(const ClusterImage& image);

  /// Appends one object to a stored cluster, using a reserved place when
  /// available and relocating otherwise.
  bool Append(ClusterId id, ObjectId oid, const float* coords);

  /// Reads a cluster back (signature + members). False when unknown/corrupt.
  bool Get(ClusterId id, ClusterImage* out);

  /// Drops a cluster, freeing its run.
  bool Remove(ClusterId id);

  /// Object places used / allocated across all runs (>= ~70 % by §6).
  double utilization() const;

  /// Persists the directory block + all signatures; call before close.
  bool SaveDirectory();

  /// Restores a store from an existing file's directory. Returns nullptr
  /// for a null `file` (a PagedFile::Open that refused a missing or
  /// corrupt file) and for a directory that fails validation.
  static std::unique_ptr<ClusterFileStore> Load(
      std::unique_ptr<PagedFile> file, SimDisk* disk = nullptr);

  /// Stores every cluster of an index; convenience for checkpointing.
  bool PutAll(const AdaptiveIndex& index);

  /// Reads all clusters back as images (for AdaptiveIndex::FromImages).
  bool GetAll(std::vector<ClusterImage>* out);

  uint64_t relocations() const { return relocations_; }

 private:
  struct Entry {
    ClusterId id;
    ClusterId parent;
    Signature sig;
    uint64_t first_page;
    uint64_t pages;
    uint64_t objects;   // live objects
    uint64_t capacity;  // object places in the run
  };

  uint64_t RunBytes(uint64_t capacity) const;
  uint64_t RunPages(uint64_t capacity) const;
  bool WriteObjects(const Entry& e, size_t first_slot,
                    const ObjectId* ids, const float* coords, size_t n);
  Entry* Find(ClusterId id);

  std::unique_ptr<PagedFile> file_;
  Dim nd_;
  SimDisk* disk_;
  std::vector<Entry> entries_;
  uint64_t relocations_ = 0;
};

}  // namespace accl
