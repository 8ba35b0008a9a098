// Simulated disk with the paper's SCSI characteristics.
//
// The paper's disk-scenario measurements are dominated by two charges:
// a head repositioning (random access) per explored cluster/node, and a
// sequential transfer of the group's bytes. We do not own the 2004 testbed,
// so the disk is a virtual clock that accrues exactly those charges
// (DESIGN.md, substitutions). Counters expose seeks and bytes so benchmarks
// can report the same "number of accesses / size of data" indicators the
// paper tabulates.
#pragma once

#include <cstdint>

namespace accl {

/// Accumulates simulated I/O time and traffic counters.
class SimDisk {
 public:
  /// `access_ms`: head positioning time per random access.
  /// `ms_per_byte`: inverse sequential transfer rate.
  SimDisk(double access_ms, double ms_per_byte)
      : access_ms_(access_ms), ms_per_byte_(ms_per_byte) {}

  /// Paper Table 2 device: 15 ms access, 20 MB/s transfer.
  static SimDisk Paper() {
    return SimDisk(15.0, 1000.0 / (20.0 * 1024 * 1024));
  }

  /// Charges one random head repositioning.
  void Seek() {
    ++seeks_;
    clock_ms_ += access_ms_;
  }

  /// Charges a sequential transfer of `n` bytes.
  void Transfer(uint64_t n) {
    bytes_ += n;
    clock_ms_ += ms_per_byte_ * static_cast<double>(n);
  }

  /// Charges a full sequential read: one seek then `n` bytes.
  void SequentialRead(uint64_t n) {
    Seek();
    Transfer(n);
  }

  // ---- File-lifecycle charges (segment rotation and GC) ----
  // Creating, unlinking or renaming a segment file is a directory update:
  // one head repositioning each. The WAL consults NextOpFails() before the
  // operation, so FailAfter drives faults through rotation and segment GC
  // exactly like it does through flushes and checkpoint writes.

  /// Charges one file creation (a fresh WAL segment).
  void NoteCreate() {
    ++file_creates_;
    Seek();
  }

  /// Charges one file unlink (a truncated segment dropped from disk).
  void NoteUnlink() {
    ++file_unlinks_;
    Seek();
  }

  double clock_ms() const { return clock_ms_; }
  uint64_t seeks() const { return seeks_; }
  uint64_t bytes() const { return bytes_; }
  double access_ms() const { return access_ms_; }
  double ms_per_byte() const { return ms_per_byte_; }

  void Reset() {
    clock_ms_ = 0;
    seeks_ = 0;
    bytes_ = 0;
  }

  // ---- Fault injection (failure-path tests) ----
  // The simulated device can be armed to start failing, letting storage
  // tests drive every error path deterministically: ClusterFileStore asks
  // NextOpFails() before each logical I/O and propagates the failure
  // exactly as a real short write/read would surface.

  /// Arms the device: the next `ops` I/O operations succeed, everything
  /// after fails until DisarmFaults().
  void FailAfter(uint64_t ops) {
    fail_armed_ = true;
    ops_until_fail_ = ops;
  }

  void DisarmFaults() { fail_armed_ = false; }

  /// Consumes one operation; true when the armed fault fires.
  bool NextOpFails() {
    ++io_ops_;
    if (!fail_armed_) return false;
    if (ops_until_fail_ == 0) {
      ++faults_injected_;
      return true;
    }
    --ops_until_fail_;
    return false;
  }

  uint64_t faults_injected() const { return faults_injected_; }

  uint64_t file_creates() const { return file_creates_; }
  uint64_t file_unlinks() const { return file_unlinks_; }

  /// Lifetime NextOpFails consultations (armed or not). A fault-free dry
  /// run's count is the size of the crash-point matrix: arming
  /// FailAfter(k) for every k < io_ops() drives the fault through every
  /// logical I/O operation the workload performs.
  uint64_t io_ops() const { return io_ops_; }

 private:
  double access_ms_;
  double ms_per_byte_;
  double clock_ms_ = 0.0;
  uint64_t seeks_ = 0;
  uint64_t bytes_ = 0;
  bool fail_armed_ = false;
  uint64_t ops_until_fail_ = 0;
  uint64_t faults_injected_ = 0;
  uint64_t io_ops_ = 0;
  uint64_t file_creates_ = 0;
  uint64_t file_unlinks_ = 0;
};

}  // namespace accl
