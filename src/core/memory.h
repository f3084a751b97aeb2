#ifndef GEOTORCH_CORE_MEMORY_H_
#define GEOTORCH_CORE_MEMORY_H_

#include <atomic>
#include <cstdint>

namespace geotorch {

/// Logical-bytes accounting shared by the DataFrame engine and the
/// GeoPandas-style baseline. Both sides report the same quantity
/// (bytes of live data structures they have materialised), which makes
/// the Fig. 8 memory comparison an in-process, machine-independent
/// measurement.
class MemoryTracker {
 public:
  /// Records an allocation of `bytes` and updates the peak.
  void Allocate(int64_t bytes);
  /// Records a release of `bytes`.
  void Release(int64_t bytes);

  int64_t current_bytes() const {
    return current_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  void Reset();

  /// Process-wide tracker.
  static MemoryTracker& Global();

 private:
  std::atomic<int64_t> current_{0};
  std::atomic<int64_t> peak_{0};
};

/// RAII registration of a block of logical memory with a tracker.
class ScopedAllocation {
 public:
  ScopedAllocation(MemoryTracker* tracker, int64_t bytes)
      : tracker_(tracker), bytes_(bytes) {
    tracker_->Allocate(bytes_);
  }
  ~ScopedAllocation() { tracker_->Release(bytes_); }
  ScopedAllocation(const ScopedAllocation&) = delete;
  ScopedAllocation& operator=(const ScopedAllocation&) = delete;

 private:
  MemoryTracker* tracker_;
  int64_t bytes_;
};

/// Resident-set size of this process in bytes (from /proc/self/statm);
/// 0 when unavailable. Used as a cross-check next to logical accounting.
int64_t CurrentRssBytes();

/// Lifetime peak resident-set size in bytes (VmHWM from
/// /proc/self/status); 0 when unavailable. Stamped into bench JSON so
/// results carry the real high-water mark, not just logical accounting.
int64_t PeakRssBytes();

/// Named per-thread scratch slots for kernel workspaces. Each slot is an
/// independent buffer on the calling thread, so a kernel may hold several
/// live workspaces at once (e.g. an im2col buffer while the GEMM packs
/// its panels) as long as they use distinct slots.
enum WorkspaceSlot {
  kWorkspaceGemmPackA = 0,  ///< packed A micro-panels (GEMM)
  kWorkspaceGemmPackB,      ///< packed B micro-panels (GEMM)
  kWorkspaceIm2Col,         ///< im2col patch matrix (conv kernels)
  kWorkspaceConvCols,       ///< second column matrix (conv backward/transpose)
  kWorkspaceGemmLpA,        ///< packed A panels, int8 GEMM
  kWorkspaceGemmLpB,        ///< packed B panels, int8 GEMM
  kWorkspaceQuant,          ///< quantized activations at layer boundaries
  kWorkspaceSlotCount,
};

/// Returns a float buffer of at least `floats` elements, private to the
/// calling thread and `slot`. The buffer is reused across calls (grown
/// geometrically, never shrunk), so per-sample kernels stop paying an
/// allocation per invocation. Contents are unspecified; the pointer is
/// invalidated by the next call with the same slot on the same thread.
/// Growth is reported to MemoryTracker::Global().
float* ThreadLocalWorkspace(WorkspaceSlot slot, int64_t floats);

}  // namespace geotorch

#endif  // GEOTORCH_CORE_MEMORY_H_
