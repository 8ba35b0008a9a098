#include "durability/segment.h"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/digest.h"
#include "util/serialize.h"

namespace accl::durability {

namespace {

/// Splits `base` into its directory (for the scan) and filename prefix.
void SplitBase(const std::string& base, std::string* dir,
               std::string* prefix) {
  const size_t slash = base.find_last_of('/');
  if (slash == std::string::npos) {
    *dir = ".";
    *prefix = base;
  } else {
    *dir = base.substr(0, slash == 0 ? 1 : slash);
    *prefix = base.substr(slash + 1);
  }
}

/// Parses a pure-decimal suffix; false when empty or non-numeric.
bool ParseSeq(const std::string& s, uint64_t* seq) {
  if (s.empty()) return false;
  uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

}  // namespace

std::vector<SegmentFileInfo> ListSegmentFiles(const std::string& base) {
  std::string dir, prefix;
  SplitBase(base, &dir, &prefix);
  prefix += '.';
  std::vector<SegmentFileInfo> out;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    uint64_t seq = 0;
    if (!ParseSeq(name.substr(prefix.size()), &seq) || seq == 0) continue;
    SegmentFileInfo info;
    info.seq = seq;
    info.path = (dir == "." ? name : dir + "/" + name);
    out.push_back(std::move(info));
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const SegmentFileInfo& a, const SegmentFileInfo& b) {
              return a.seq < b.seq;
            });
  return out;
}

uint32_t FrameChecksum(const uint8_t* payload, size_t n, Lsn lsn,
                       uint64_t gen) {
  return FrameChecksumFromHash(Fnv1aBytes(kFnvOffsetBasis, payload, n), lsn,
                               gen);
}

uint32_t FrameChecksumFromHash(uint64_t payload_hash, Lsn lsn, uint64_t gen) {
  return FnvFold32(Fnv1a(Fnv1a(payload_hash, lsn), gen));
}

std::string SegmentPath(const std::string& base, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08llu",
                static_cast<unsigned long long>(seq));
  return base + "." + buf;
}

void RemoveWalFiles(const std::string& base) {
  for (const SegmentFileInfo& f : ListSegmentFiles(base)) {
    std::remove(f.path.c_str());
  }
}

namespace {

/// Writes + syncs the preamble of `file`. One fault consult, one charged
/// head repositioning + transfer.
bool WritePreamble(PagedFile* file, uint64_t seq, Lsn base_lsn,
                   SimDisk* disk) {
  if (disk != nullptr && disk->NextOpFails()) return false;
  uint8_t pre[kSegmentPreambleBytes];
  const uint32_t magic = kSegmentMagic;
  const uint32_t version = kSegmentVersion;
  std::memcpy(pre, &magic, 4);
  std::memcpy(pre + 4, &version, 4);
  std::memcpy(pre + 8, &seq, 8);
  std::memcpy(pre + 16, &base_lsn, 8);
  if (!file->StreamWrite(0, pre, kSegmentPreambleBytes)) return false;
  if (!file->Sync()) return false;
  if (disk != nullptr) {
    disk->Seek();
    disk->Transfer(kSegmentPreambleBytes);
  }
  return true;
}

}  // namespace

std::unique_ptr<WalSegment> WalSegment::Create(const std::string& path,
                                               uint64_t seq, Lsn base_lsn,
                                               SimDisk* disk) {
  if (disk != nullptr && disk->NextOpFails()) return nullptr;
  std::unique_ptr<PagedFile> file = PagedFile::Create(path, kWalPageBytes);
  if (file == nullptr) return nullptr;
  if (disk != nullptr) disk->NoteCreate();
  if (!WritePreamble(file.get(), seq, base_lsn, disk)) {
    return nullptr;  // the torn file is GC'd at the next open
  }
  return std::unique_ptr<WalSegment>(
      new WalSegment(path, std::move(file), seq, base_lsn));
}

std::unique_ptr<WalSegment> WalSegment::Open(const std::string& path) {
  std::unique_ptr<PagedFile> file = PagedFile::Open(path);
  if (file == nullptr) return nullptr;
  if (file->payload_bytes() < kSegmentPreambleBytes) return nullptr;
  uint8_t pre[kSegmentPreambleBytes];
  if (!file->StreamRead(0, pre, kSegmentPreambleBytes)) return nullptr;
  uint32_t magic = 0, version = 0;
  uint64_t seq = 0;
  Lsn base_lsn = kNoLsn;
  std::memcpy(&magic, pre, 4);
  std::memcpy(&version, pre + 4, 4);
  std::memcpy(&seq, pre + 8, 8);
  std::memcpy(&base_lsn, pre + 16, 8);
  if (magic != kSegmentMagic || version != kSegmentVersion || seq == 0) {
    return nullptr;
  }
  return std::unique_ptr<WalSegment>(
      new WalSegment(path, std::move(file), seq, base_lsn));
}

bool WalSegment::DecodeFrameAt(uint64_t off, WalRecord* out, uint64_t* next,
                               bool* io_error) {
  *io_error = false;
  const uint64_t limit = payload_limit();
  if (off + kFrameHeaderBytes > limit) return false;
  uint32_t len = 0, crc = 0;
  uint64_t gen = 0;
  uint8_t hdr[kFrameHeaderBytes];
  // Every read below stays within `limit`, bytes the file claims to back:
  // a failure is a real I/O error, not a torn tail.
  if (!file_->StreamRead(off, hdr, kFrameHeaderBytes)) {
    *io_error = true;
    return false;
  }
  std::memcpy(&len, hdr, 4);
  std::memcpy(&crc, hdr + 4, 4);
  std::memcpy(&out->lsn, hdr + 8, 8);
  std::memcpy(&gen, hdr + 16, 8);
  if (len == 0 || len > kMaxFrameBytes || out->lsn == kNoLsn) return false;
  // Foreign generation: bytes this segment's appends did not write.
  // Everything else about the frame may check out (length, checksum, even
  // LSN continuity under an adversarial layout) — the stamp is the one
  // field a dead frame cannot carry forward.
  if (gen != seq_) return false;
  if (off + kFrameHeaderBytes + len > limit) return false;  // torn tail
  std::vector<uint8_t> payload(len);
  if (!file_->StreamRead(off + kFrameHeaderBytes, payload.data(), len)) {
    *io_error = true;
    return false;
  }
  if (FrameChecksum(payload.data(), len, out->lsn, gen) != crc) return false;
  ByteReader r(payload);
  uint8_t type = 0;
  if (!r.GetU8(&type)) return false;
  if (type < static_cast<uint8_t>(WalRecordType::kSubscribe) ||
      type > static_cast<uint8_t>(WalRecordType::kUnsubscribe)) {
    return false;
  }
  out->type = static_cast<WalRecordType>(type);
  if (!r.GetU32(&out->first_id)) return false;
  if (out->type == WalRecordType::kUnsubscribe) {
    out->count = 1;
    out->nd = 0;
    out->coords.clear();
  } else {
    if (!r.GetU32(&out->count) || !r.GetU32(&out->nd)) return false;
    if (out->count == 0 || out->nd == 0) return false;
    const size_t floats = static_cast<size_t>(out->count) * 2 * out->nd;
    if (r.remaining() != floats * 4) return false;
    out->coords.resize(floats);
    if (!r.GetBytes(out->coords.data(), floats * 4)) return false;
  }
  if (!r.exhausted()) return false;
  *next = off + kFrameHeaderBytes + len;
  return true;
}

}  // namespace accl::durability
