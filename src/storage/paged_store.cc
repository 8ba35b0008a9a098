#include "storage/paged_store.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/check.h"
#include "util/serialize.h"

namespace accl {

namespace {

constexpr uint32_t kFileMagic = 0x41434346u;  // "ACCF"
constexpr uint32_t kFileVersion = 1;
constexpr uint64_t kHeaderBytes = 4096;
constexpr uint64_t kNoDirectory = ~0ull;

struct FileHeader {
  uint32_t magic;
  uint32_t version;
  uint32_t page_bytes;
  uint32_t pad;
  uint64_t page_count;
  uint64_t dir_first;
  uint64_t dir_pages;
  uint64_t dir_bytes;
  /// Unused, always written as 0 (it was an append-stream front-truncation
  /// pointer); kept so the layout of existing files is unchanged.
  uint64_t reserved;
};

}  // namespace

// ---------------------------------------------------------------- PagedFile

PagedFile::~PagedFile() {
  if (file_ != nullptr) std::fclose(file_);
}

static bool WriteHeaderTo(std::FILE* f, const FileHeader& h) {
  uint8_t block[kHeaderBytes] = {};
  std::memcpy(block, &h, sizeof(h));
  if (std::fseek(f, 0, SEEK_SET) != 0) return false;
  return std::fwrite(block, 1, sizeof(block), f) == sizeof(block);
}

std::unique_ptr<PagedFile> PagedFile::Create(const std::string& path,
                                             uint32_t page_bytes) {
  if (page_bytes < 64) return nullptr;
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) return nullptr;
  FileHeader h{kFileMagic, kFileVersion, page_bytes, 0, 0,
               kNoDirectory, 0,           0,          0};
  // Flush the fresh header to the OS before handing the file out. "wb+"
  // already truncated any previous (possibly corrupt) contents, so on any
  // failure here we remove the remnant entirely: a half-created file must
  // never survive to a later Open with a stale directory block.
  if (!WriteHeaderTo(f, h) || std::fflush(f) != 0) {
    std::fclose(f);
    std::remove(path.c_str());
    return nullptr;
  }
  auto pf = std::unique_ptr<PagedFile>(new PagedFile());
  pf->file_ = f;
  pf->page_bytes_ = page_bytes;
  return pf;
}

std::unique_ptr<PagedFile> PagedFile::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  if (f == nullptr) return nullptr;
  // Single close point: every validation failure lands here, so a rejected
  // open can never leak the descriptor.
  const auto reject = [f]() -> std::unique_ptr<PagedFile> {
    std::fclose(f);
    return nullptr;
  };
  FileHeader h{};
  if (std::fread(&h, sizeof(h), 1, f) != 1 || h.magic != kFileMagic ||
      h.version != kFileVersion || h.page_bytes < 64) {
    return reject();  // garbage, page-size mismatch, or short header read
  }
  // The claimed geometry must actually exist on disk; a truncated file
  // would otherwise surface as short reads deep inside directory loading.
  // Divisions, not products: a corrupt header must not be able to wrap the
  // arithmetic back into range.
  if (std::fseek(f, 0, SEEK_END) != 0) return reject();
  const long file_size = std::ftell(f);
  if (file_size < 0 || static_cast<uint64_t>(file_size) < kHeaderBytes) {
    return reject();
  }
  const uint64_t pages_on_disk =
      (static_cast<uint64_t>(file_size) - kHeaderBytes) / h.page_bytes;
  if (h.page_count > pages_on_disk) return reject();
  // A directory pointer must lie inside the payload pages and its byte
  // length inside its run — anything else is a stale or corrupt block.
  // (dir_pages <= page_count <= file_size / page_bytes keeps the byte
  // product below the actual file size, so it cannot overflow.)
  if (h.dir_first != kNoDirectory) {
    if (h.dir_pages == 0 || h.dir_first >= h.page_count ||
        h.dir_pages > h.page_count - h.dir_first ||
        h.dir_bytes > h.dir_pages * h.page_bytes) {
      return reject();
    }
  }
  auto pf = std::unique_ptr<PagedFile>(new PagedFile());
  pf->file_ = f;
  pf->page_bytes_ = h.page_bytes;
  pf->page_count_ = h.page_count;
  pf->dir_first_ = h.dir_first;
  pf->dir_pages_ = h.dir_pages;
  pf->dir_bytes_ = h.dir_bytes;
  // All pages start free; the directory loader re-marks live runs.
  if (h.page_count > 0) pf->free_runs_.push_back({0, h.page_count});
  return pf;
}

bool PagedFile::PersistHeader() {
  FileHeader h{kFileMagic, kFileVersion, page_bytes_, 0,          page_count_,
               dir_first_, dir_pages_,   dir_bytes_,  0};
  if (!WriteHeaderTo(file_, h)) return false;
  return std::fflush(file_) == 0;
}

bool PagedFile::SetDirectory(uint64_t first, uint64_t pages, uint64_t bytes) {
  const uint64_t prev_first = dir_first_;
  const uint64_t prev_pages = dir_pages_;
  const uint64_t prev_bytes = dir_bytes_;
  dir_first_ = first;
  dir_pages_ = pages;
  dir_bytes_ = bytes;
  if (PersistHeader()) return true;
  // Keep the in-memory pointer agreeing with the last durable header, so a
  // retried SaveDirectory frees the run the header really references.
  dir_first_ = prev_first;
  dir_pages_ = prev_pages;
  dir_bytes_ = prev_bytes;
  return false;
}

bool PagedFile::GetDirectory(uint64_t* first, uint64_t* pages,
                             uint64_t* bytes) const {
  if (dir_first_ == kNoDirectory) return false;
  *first = dir_first_;
  *pages = dir_pages_;
  *bytes = dir_bytes_;
  return true;
}

bool PagedFile::MarkAllocated(uint64_t first, uint64_t n) {
  if (n == 0) return true;
  for (size_t i = 0; i < free_runs_.size(); ++i) {
    FreeRunRec& r = free_runs_[i];
    if (first >= r.first && first + n <= r.first + r.count) {
      const FreeRunRec before{r.first, first - r.first};
      const FreeRunRec after{first + n, r.first + r.count - (first + n)};
      free_runs_.erase(free_runs_.begin() + static_cast<long>(i));
      if (after.count > 0) free_runs_.insert(free_runs_.begin() + i, after);
      if (before.count > 0) free_runs_.insert(free_runs_.begin() + i, before);
      pages_in_use_ += n;
      return true;
    }
  }
  return false;  // overlaps a live run or exceeds the file
}

uint64_t PagedFile::AllocateRun(uint64_t n) {
  ACCL_CHECK(n > 0);
  // First fit over freed runs.
  for (size_t i = 0; i < free_runs_.size(); ++i) {
    if (free_runs_[i].count >= n) {
      const uint64_t first = free_runs_[i].first;
      free_runs_[i].first += n;
      free_runs_[i].count -= n;
      if (free_runs_[i].count == 0) {
        free_runs_.erase(free_runs_.begin() + static_cast<long>(i));
      }
      pages_in_use_ += n;
      return first;
    }
  }
  const uint64_t first = page_count_;
  page_count_ += n;
  pages_in_use_ += n;
  // Extend the file so reads of fresh pages succeed.
  const uint64_t new_size = kHeaderBytes + page_count_ * page_bytes_;
  ACCL_CHECK(ftruncate(fileno(file_), static_cast<off_t>(new_size)) == 0);
  return first;
}

void PagedFile::FreeRun(uint64_t first_page, uint64_t n) {
  if (n == 0) return;
  ACCL_CHECK(first_page + n <= page_count_);
  ACCL_CHECK(pages_in_use_ >= n);
  pages_in_use_ -= n;
  free_runs_.push_back({first_page, n});
  // Coalesce neighbours to limit fragmentation.
  std::sort(free_runs_.begin(), free_runs_.end(),
            [](const FreeRunRec& a, const FreeRunRec& b) {
              return a.first < b.first;
            });
  std::vector<FreeRunRec> merged;
  for (const FreeRunRec& r : free_runs_) {
    if (!merged.empty() &&
        merged.back().first + merged.back().count == r.first) {
      merged.back().count += r.count;
    } else {
      merged.push_back(r);
    }
  }
  free_runs_.swap(merged);
}

bool PagedFile::ReadAt(uint64_t first_page, uint64_t off, void* out,
                       uint64_t len) {
  const uint64_t byte0 = first_page * page_bytes_ + off;
  if (byte0 + len > page_count_ * page_bytes_) return false;
  if (std::fseek(file_, static_cast<long>(kHeaderBytes + byte0), SEEK_SET) !=
      0) {
    return false;
  }
  return len == 0 || std::fread(out, 1, len, file_) == len;
}

bool PagedFile::WriteAt(uint64_t first_page, uint64_t off, const void* data,
                        uint64_t len) {
  const uint64_t byte0 = first_page * page_bytes_ + off;
  if (byte0 + len > page_count_ * page_bytes_) return false;
  if (std::fseek(file_, static_cast<long>(kHeaderBytes + byte0), SEEK_SET) !=
      0) {
    return false;
  }
  return len == 0 || std::fwrite(data, 1, len, file_) == len;
}

bool PagedFile::Sync() {
  if (std::fflush(file_) != 0) return false;
  return fsync(fileno(file_)) == 0;
}

bool PagedFile::StreamWrite(uint64_t off, const void* data, uint64_t len) {
  if (off + len > payload_bytes()) {
    // Grow whole pages at the tail (at least 16 per growth to amortize the
    // header persist below). Deliberately bypasses the free-run list: a
    // stream file's space is one monotone region, and reusing an interior
    // freed run would break the "absolute offset = file position" contract.
    const uint64_t need = off + len - payload_bytes();
    const uint64_t pages =
        std::max<uint64_t>(16, (need + page_bytes_ - 1) / page_bytes_);
    page_count_ += pages;
    pages_in_use_ += pages;
    const uint64_t new_size = kHeaderBytes + page_count_ * page_bytes_;
    // Roll the in-memory geometry back on any growth failure: a later
    // successful header write must never durably record a page_count the
    // file doesn't actually back (Open would then reject the whole file).
    // The fsync between the size extension and the header write orders
    // their durability the same way: the header block is an overwrite that
    // writeback can persist independently, and a crash leaving the grown
    // page_count on disk without the grown file would also get the file
    // rejected at reopen.
    if (ftruncate(fileno(file_), static_cast<off_t>(new_size)) != 0 ||
        fsync(fileno(file_)) != 0 || !PersistHeader()) {
      page_count_ -= pages;
      pages_in_use_ -= pages;
      return false;
    }
    // The header persist also matters for recovery: a reopen derives the
    // readable payload from the header's page_count, and a stale count
    // would hide a synced tail.
  }
  return WriteAt(0, off, data, len);
}

bool PagedFile::StreamRead(uint64_t off, void* out, uint64_t len) {
  if (off + len > payload_bytes()) return false;
  return ReadAt(0, off, out, len);
}

// --------------------------------------------------------- ClusterFileStore

ClusterFileStore::ClusterFileStore(std::unique_ptr<PagedFile> file, Dim nd,
                                   SimDisk* disk)
    : file_(std::move(file)), nd_(nd), disk_(disk) {
  ACCL_CHECK(file_ != nullptr);
  ACCL_CHECK(nd_ > 0);
}

size_t ClusterFileStore::cluster_count() const { return entries_.size(); }

uint64_t ClusterFileStore::RunBytes(uint64_t capacity) const {
  // [u64 object count][capacity ids][capacity coord records]
  return 8 + capacity * (4 + 8ull * nd_);
}

uint64_t ClusterFileStore::RunPages(uint64_t capacity) const {
  const uint64_t bytes = RunBytes(capacity);
  return (bytes + file_->page_bytes() - 1) / file_->page_bytes();
}

ClusterFileStore::Entry* ClusterFileStore::Find(ClusterId id) {
  for (Entry& e : entries_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

bool ClusterFileStore::WriteObjects(const Entry& e, size_t first_slot,
                                    const ObjectId* ids, const float* coords,
                                    size_t n) {
  if (n == 0) return true;
  const uint64_t ids_off = 8 + first_slot * 4ull;
  const uint64_t coords_off =
      8 + e.capacity * 4ull + first_slot * 8ull * nd_;
  if (!file_->WriteAt(e.first_page, ids_off, ids, n * 4ull)) return false;
  if (!file_->WriteAt(e.first_page, coords_off, coords, n * 8ull * nd_)) {
    return false;
  }
  if (disk_ != nullptr) {
    disk_->Seek();
    disk_->Transfer(n * (4ull + 8ull * nd_));
  }
  return true;
}

bool ClusterFileStore::Put(const ClusterImage& image) {
  if (disk_ != nullptr && disk_->NextOpFails()) return false;
  const uint64_t n = image.ids.size();
  Entry* e = Find(image.id);
  if (e != nullptr && n <= e->capacity) {
    // Rewrite in place. A failed rewrite leaves the run torn (old count
    // over a partially replaced payload — undetectable by Get's count
    // check alone), so on failure the entry is dropped and its run freed:
    // the cluster reads as missing, never as silently mixed data. Note the
    // *durable* directory may still reference the torn run until the next
    // SaveDirectory; record checksums are the ROADMAP follow-up.
    if (!file_->WriteAt(e->first_page, 0, &n, 8) ||
        !WriteObjects(*e, 0, image.ids.data(), image.coords.data(),
                      static_cast<size_t>(n))) {
      file_->FreeRun(e->first_page, e->pages);
      entries_.erase(entries_.begin() + (e - entries_.data()));
      return false;
    }
    e->sig = image.sig;
    e->objects = n;
    return true;
  }
  // Fresh run with reserve places.
  uint64_t cap = static_cast<uint64_t>(
      std::ceil(static_cast<double>(n) * (1.0 + kReserveFraction)));
  cap = std::max<uint64_t>(cap, 8);
  const uint64_t pages = RunPages(cap);
  // Use every object place the page run can hold.
  cap = (pages * file_->page_bytes() - 8) / (4ull + 8ull * nd_);
  const uint64_t first = file_->AllocateRun(pages);
  Entry fresh;
  fresh.id = image.id;
  fresh.parent = image.parent;
  fresh.sig = image.sig;
  fresh.first_page = first;
  fresh.pages = pages;
  fresh.objects = n;
  fresh.capacity = cap;
  if (!file_->WriteAt(first, 0, &n, 8) ||
      !WriteObjects(fresh, 0, image.ids.data(), image.coords.data(),
                    static_cast<size_t>(n))) {
    // Return the half-written run to the pool: failing a relocation must
    // not leak pages (the old run, when any, stays live and untouched).
    file_->FreeRun(first, pages);
    return false;
  }
  if (e != nullptr) {
    file_->FreeRun(e->first_page, e->pages);
    ++relocations_;
    *e = fresh;
  } else {
    entries_.push_back(fresh);
  }
  return true;
}

bool ClusterFileStore::Append(ClusterId id, ObjectId oid,
                              const float* coords) {
  Entry* e = Find(id);
  if (e == nullptr) return false;
  if (disk_ != nullptr && disk_->NextOpFails()) return false;
  if (e->objects >= e->capacity) {
    // Relocate via read-modify-write with a fresh reserve.
    ClusterImage img;
    if (!Get(id, &img)) return false;
    img.ids.push_back(oid);
    img.coords.insert(img.coords.end(), coords, coords + 2 * nd_);
    return Put(img);
  }
  const size_t slot = static_cast<size_t>(e->objects);
  const uint64_t new_count = e->objects + 1;
  if (!WriteObjects(*e, slot, &oid, coords, 1)) return false;
  // Bump the in-memory count only after the on-disk count: a failed header
  // write leaves entry and disk agreeing on the old count (the orphan
  // record past it is unreachable and harmless).
  if (!file_->WriteAt(e->first_page, 0, &new_count, 8)) return false;
  e->objects = new_count;
  return true;
}

bool ClusterFileStore::Get(ClusterId id, ClusterImage* out) {
  Entry* e = Find(id);
  if (e == nullptr) return false;
  if (disk_ != nullptr && disk_->NextOpFails()) return false;
  uint64_t n = 0;
  if (!file_->ReadAt(e->first_page, 0, &n, 8)) return false;
  if (n != e->objects || n > e->capacity) return false;  // corruption
  out->id = e->id;
  out->parent = e->parent;
  out->sig = e->sig;
  out->ids.resize(n);
  out->coords.resize(n * 2 * static_cast<size_t>(nd_));
  if (n != 0) {
    if (!file_->ReadAt(e->first_page, 8, out->ids.data(), n * 4ull)) {
      return false;
    }
    if (!file_->ReadAt(e->first_page, 8 + e->capacity * 4ull,
                       out->coords.data(), n * 8ull * nd_)) {
      return false;
    }
  }
  if (disk_ != nullptr) disk_->SequentialRead(8 + n * (4ull + 8ull * nd_));
  return true;
}

bool ClusterFileStore::Remove(ClusterId id) {
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].id == id) {
      file_->FreeRun(entries_[i].first_page, entries_[i].pages);
      entries_.erase(entries_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

double ClusterFileStore::utilization() const {
  uint64_t used = 0, cap = 0;
  for (const Entry& e : entries_) {
    used += e.objects;
    cap += e.capacity;
  }
  return cap == 0 ? 1.0 : static_cast<double>(used) / static_cast<double>(cap);
}

bool ClusterFileStore::SaveDirectory() {
  ByteWriter w;
  w.PutU32(nd_);
  w.PutU32(static_cast<uint32_t>(entries_.size()));
  for (const Entry& e : entries_) {
    w.PutU32(e.id);
    w.PutU32(e.parent);
    e.sig.Serialize(&w);
    w.PutU64(e.first_page);
    w.PutU64(e.pages);
    w.PutU64(e.objects);
  }
  if (disk_ != nullptr && disk_->NextOpFails()) return false;
  // Shadow-paging order: write the new directory into a *fresh* run, flip
  // the header pointer, and only then free the old run. Freeing first would
  // let a later allocation clobber the old directory while the header still
  // points at it — a crash in that window reopens to a stale, corrupt
  // directory block.
  uint64_t old_first = 0, old_pages = 0, old_bytes = 0;
  const bool had_dir = file_->GetDirectory(&old_first, &old_pages, &old_bytes);
  const uint64_t dir_pages = std::max<uint64_t>(
      1, (w.size() + file_->page_bytes() - 1) / file_->page_bytes());
  const uint64_t dir_first = file_->AllocateRun(dir_pages);
  if (!file_->WriteAt(dir_first, 0, w.bytes().data(), w.size()) ||
      !file_->SetDirectory(dir_first, dir_pages, w.size())) {
    file_->FreeRun(dir_first, dir_pages);
    return false;
  }
  if (had_dir) file_->FreeRun(old_first, old_pages);
  return true;
}

std::unique_ptr<ClusterFileStore> ClusterFileStore::Load(
    std::unique_ptr<PagedFile> file, SimDisk* disk) {
  if (file == nullptr) return nullptr;  // PagedFile::Open refused the file
  uint64_t dir_first = 0, dir_pages = 0, dir_bytes = 0;
  if (!file->GetDirectory(&dir_first, &dir_pages, &dir_bytes)) return nullptr;
  std::vector<uint8_t> bytes(dir_bytes);
  // The directory run itself must be marked used before reading.
  if (!file->MarkAllocated(dir_first, dir_pages)) return nullptr;
  if (!file->ReadAt(dir_first, 0, bytes.data(), dir_bytes)) return nullptr;
  ByteReader r(bytes);
  uint32_t nd = 0, count = 0;
  if (!r.GetU32(&nd) || nd == 0) return nullptr;
  if (!r.GetU32(&count)) return nullptr;
  auto store = std::make_unique<ClusterFileStore>(std::move(file), nd, disk);
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    if (!r.GetU32(&e.id)) return nullptr;
    if (!r.GetU32(&e.parent)) return nullptr;
    if (!Signature::Deserialize(&r, &e.sig)) return nullptr;
    if (e.sig.dims() != nd) return nullptr;
    if (!r.GetU64(&e.first_page)) return nullptr;
    if (!r.GetU64(&e.pages)) return nullptr;
    if (!r.GetU64(&e.objects)) return nullptr;
    e.capacity = (e.pages * store->file_->page_bytes() - 8) /
                 (4ull + 8ull * nd);
    if (e.objects > e.capacity) return nullptr;
    if (!store->file_->MarkAllocated(e.first_page, e.pages)) return nullptr;
    store->entries_.push_back(std::move(e));
  }
  return store;
}

bool ClusterFileStore::PutAll(const AdaptiveIndex& index) {
  for (const ClusterImage& img : index.DumpClusters()) {
    if (!Put(img)) return false;
  }
  return true;
}

bool ClusterFileStore::GetAll(std::vector<ClusterImage>* out) {
  out->clear();
  out->reserve(entries_.size());
  for (const Entry& e : entries_) {
    ClusterImage img;
    if (!Get(e.id, &img)) return false;
    out->push_back(std::move(img));
  }
  return true;
}

}  // namespace accl
