#include "core/storage_pool.h"

#include <algorithm>
#include <bit>
#include <new>
#include <string>

#include "core/env.h"
#include "obs/obs.h"

namespace geotorch {
namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag{EnvBool("GEOTORCH_POOL", true)};
  return flag;
}

void* AlignedNew(size_t bytes) {
  return ::operator new(bytes, std::align_val_t{StoragePool::kAlignment});
}

void AlignedDelete(void* ptr) {
  ::operator delete(ptr, std::align_val_t{StoragePool::kAlignment});
}

// Index of the smallest class holding `bytes`, or -1 when the request
// bypasses the pool (zero bytes or above the largest class).
int ClassIndex(size_t bytes) {
  if (bytes == 0 || bytes > (size_t{1} << StoragePool::kMaxClassLog2)) {
    return -1;
  }
  const int log2 = std::max(StoragePool::kMinClassLog2,
                            static_cast<int>(std::bit_width(bytes - 1)));
  return log2 - StoragePool::kMinClassLog2;
}

}  // namespace

StoragePool& StoragePool::Global() {
  static StoragePool* pool = new StoragePool();  // leaked: outlives statics
  return *pool;
}

bool StoragePool::Enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void StoragePool::SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

void* StoragePool::Allocate(size_t bytes, size_t* class_bytes) {
  const int cls = Enabled() ? ClassIndex(bytes) : -1;
  if (cls < 0) {
    *class_bytes = 0;
    bypasses_.fetch_add(1, std::memory_order_relaxed);
    GEO_OBS_COUNT("pool.bypass", 1);
    return AlignedNew(bytes == 0 ? kAlignment : bytes);
  }
  const size_t size = size_t{1} << (cls + kMinClassLog2);
  *class_bytes = size;
  Shard& shard = shards_[cls % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    std::vector<void*>& list = shard.lists[cls];
    if (!list.empty()) {
      void* ptr = list.back();
      list.pop_back();
      shard.cached_bytes -= static_cast<int64_t>(size);
      hits_.fetch_add(1, std::memory_order_relaxed);
      bytes_recycled_.fetch_add(static_cast<int64_t>(size),
                                std::memory_order_relaxed);
      GEO_OBS_COUNT("pool.hit", 1);
      GEO_OBS_COUNT("pool.bytes_recycled", static_cast<int64_t>(size));
      return ptr;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  bytes_malloced_.fetch_add(static_cast<int64_t>(size),
                            std::memory_order_relaxed);
  GEO_OBS_COUNT("pool.miss", 1);
  GEO_OBS_COUNT("pool.bytes_malloced", static_cast<int64_t>(size));
  return AlignedNew(size);
}

void StoragePool::Deallocate(void* ptr, size_t class_bytes) {
  if (ptr == nullptr) return;
  const int cls = class_bytes == 0 ? -1 : ClassIndex(class_bytes);
  if (cls < 0 || !Enabled()) {
    AlignedDelete(ptr);
    return;
  }
  Shard& shard = shards_[cls % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const int64_t size = static_cast<int64_t>(class_bytes);
    if (shard.cached_bytes + size <=
        max_cached_per_shard_.load(std::memory_order_relaxed)) {
      shard.lists[cls].push_back(ptr);
      shard.cached_bytes += size;
      return;
    }
  }
  evictions_.fetch_add(1, std::memory_order_relaxed);
  GEO_OBS_COUNT("pool.evict", 1);
  AlignedDelete(ptr);
}

StoragePool::Stats StoragePool::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bypasses = bypasses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes_recycled = bytes_recycled_.load(std::memory_order_relaxed);
  s.bytes_malloced = bytes_malloced_.load(std::memory_order_relaxed);
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.cached_bytes += shard.cached_bytes;
    for (const auto& list : shard.lists) {
      s.cached_blocks += static_cast<int64_t>(list.size());
    }
  }
  return s;
}

void StoragePool::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  bypasses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  bytes_recycled_.store(0, std::memory_order_relaxed);
  bytes_malloced_.store(0, std::memory_order_relaxed);
}

int64_t StoragePool::Trim() {
  int64_t freed = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto& list : shard.lists) {
      for (void* ptr : list) AlignedDelete(ptr);
      list.clear();
    }
    freed += shard.cached_bytes;
    shard.cached_bytes = 0;
  }
  return freed;
}

void StoragePool::SetMaxCachedBytesPerShard(int64_t bytes) {
  max_cached_per_shard_.store(bytes, std::memory_order_relaxed);
}

void StoragePool::PublishGauges() {
  int64_t total_bytes = 0;
  int64_t total_blocks = 0;
  for (int cls = 0; cls < kNumClasses; ++cls) {
    Shard& shard = shards_[cls % kNumShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    const int64_t blocks = static_cast<int64_t>(shard.lists[cls].size());
    if (blocks > 0) {
      obs::SetGauge("pool.class_blocks." +
                        std::to_string(int64_t{1} << (cls + kMinClassLog2)),
                    blocks);
    }
    total_blocks += blocks;
    total_bytes += blocks << (cls + kMinClassLog2);
  }
  obs::SetGauge("pool.cached_bytes", total_bytes);
  obs::SetGauge("pool.cached_blocks", total_blocks);
}

Status StoragePool::CheckInvariants() const {
  for (int si = 0; si < kNumShards; ++si) {
    Shard& shard = shards_[si];
    std::lock_guard<std::mutex> lock(shard.mu);
    int64_t listed = 0;
    for (int cls = 0; cls < kNumClasses; ++cls) {
      const int64_t blocks = static_cast<int64_t>(shard.lists[cls].size());
      if (blocks > 0 && cls % kNumShards != si) {
        return Status::Internal("storage pool shard " + std::to_string(si) +
                                " holds blocks of class " +
                                std::to_string(cls) + " keyed to shard " +
                                std::to_string(cls % kNumShards));
      }
      listed += blocks << (cls + kMinClassLog2);
    }
    if (listed != shard.cached_bytes) {
      return Status::Internal("storage pool shard " + std::to_string(si) +
                              " cached_bytes " +
                              std::to_string(shard.cached_bytes) +
                              " != listed bytes " + std::to_string(listed));
    }
  }
  return Status::OK();
}

}  // namespace geotorch
