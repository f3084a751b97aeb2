#ifndef GEOTORCH_CORE_STORAGE_POOL_H_
#define GEOTORCH_CORE_STORAGE_POOL_H_

// Caching allocator behind tensor storage (DESIGN.md §7); its contract
// is pinned by tests/pool_test.cc and tests/pool_tsan_test.cc.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/status.h"

namespace geotorch {

/// Caching allocator behind tensor storage: power-of-two size classes
/// from 2^8 to 2^30 bytes, 8 shards keyed by size class, LIFO free
/// lists of 64-byte-aligned blocks, and a per-shard cap beyond which
/// freed blocks go back to the OS.
class StoragePool {
 public:
  static constexpr int kMinClassLog2 = 8;
  static constexpr int kMaxClassLog2 = 30;
  static constexpr int kNumClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  static constexpr int kNumShards = 8;
  static constexpr size_t kAlignment = 64;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t bypasses = 0;
    int64_t evictions = 0;
    int64_t bytes_recycled = 0;
    int64_t bytes_malloced = 0;
    int64_t cached_bytes = 0;
    int64_t cached_blocks = 0;
  };

  static StoragePool& Global();

  /// Kill switch: GEOTORCH_POOL=0|off|false at first use, or this call.
  static bool Enabled();
  static void SetEnabled(bool on);

  /// Returns a block of at least `bytes`; `*class_bytes` receives the
  /// size class to pass back to Deallocate (0 when the pool was
  /// bypassed).
  void* Allocate(size_t bytes, size_t* class_bytes);
  void Deallocate(void* ptr, size_t class_bytes);

  Stats GetStats() const;
  void ResetStats();
  /// Frees every cached block; returns the bytes released.
  int64_t Trim();
  void SetMaxCachedBytesPerShard(int64_t bytes);
  /// Exports pool.cached_bytes / pool.cached_blocks and per-class
  /// occupancy gauges.
  void PublishGauges();
  /// Checks the bookkeeping the pool relies on, shard by shard under
  /// its lock: cached_bytes equals the sum over the free lists of
  /// blocks × class size, and a class's blocks sit only in the shard
  /// that class is keyed to. Returns Internal naming the first broken
  /// shard; cheap enough for tests to call after any phase.
  Status CheckInvariants() const;

 private:
  struct Shard {
    std::mutex mu;
    std::array<std::vector<void*>, kNumClasses> lists;
    int64_t cached_bytes = 0;
  };

  StoragePool() = default;

  mutable std::array<Shard, kNumShards> shards_;
  std::atomic<int64_t> max_cached_per_shard_{int64_t{128} << 20};
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> bypasses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> bytes_recycled_{0};
  std::atomic<int64_t> bytes_malloced_{0};
};

}  // namespace geotorch

#endif  // GEOTORCH_CORE_STORAGE_POOL_H_
