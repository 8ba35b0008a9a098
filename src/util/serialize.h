// Minimal little-endian binary (de)serialization used by the disk
// persistence layer (storage/paged_store.h, durability/). Values are
// written in the host's native representation; the format is an on-disk
// image for crash recovery on the same machine, not a portable interchange
// format (matching the paper's §6 "Fail Recovery" scope).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace accl {

/// Append-only byte sink.
class ByteWriter {
 public:
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutF32(float v) { PutRaw(&v, sizeof(v)); }
  void PutF64(double v) { PutRaw(&v, sizeof(v)); }
  void PutU8(uint8_t v) { PutRaw(&v, sizeof(v)); }

  void PutBytes(const void* data, size_t n) { PutRaw(data, n); }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

/// Sequential byte source over a borrowed buffer. All Get* methods return
/// false (and leave the output untouched) on underflow, so a truncated file
/// is detected rather than read past.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t n) : data_(data), size_(n) {}
  explicit ByteReader(const std::vector<uint8_t>& v)
      : data_(v.data()), size_(v.size()) {}

  bool GetU32(uint32_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU64(uint64_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetF32(float* v) { return GetRaw(v, sizeof(*v)); }
  bool GetF64(double* v) { return GetRaw(v, sizeof(*v)); }
  bool GetU8(uint8_t* v) { return GetRaw(v, sizeof(*v)); }
  bool GetBytes(void* out, size_t n) { return GetRaw(out, n); }

  size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  bool GetRaw(void* out, size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Reads a whole file into `out`. Returns false on I/O failure.
bool ReadFile(const std::string& path, std::vector<uint8_t>* out);

/// Writes `bytes` to `path`, truncating. Returns false on I/O failure.
bool WriteFile(const std::string& path, const std::vector<uint8_t>& bytes);

}  // namespace accl
