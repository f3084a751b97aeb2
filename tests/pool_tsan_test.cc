// ThreadSanitizer stress test for the storage pool: ThreadPool workers
// hammer Allocate/Deallocate (including cross-thread frees through a
// shared exchange), while the main thread concurrently runs Trim,
// GetStats, PublishGauges, and flips the kill switch. Compiled with
// -fsanitize=thread against the raw sources (see tests/CMakeLists.txt).
#include "core/storage_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/thread_pool.h"

namespace geotorch {
namespace {

TEST(PoolTsanTest, ConcurrentAllocFreeTrimAndToggle) {
  StoragePool& pool = StoragePool::Global();
  StoragePool::SetEnabled(true);

  // Cross-thread hand-off: workers park freed-block descriptors here so
  // *other* workers (or the final drain) return them to the pool,
  // exercising the dataloader-prefetch pattern of allocate-on-worker,
  // free-on-consumer.
  std::mutex mu;
  std::vector<std::pair<void*, size_t>> parked;

  std::atomic<bool> stop{false};
  constexpr int64_t kTasks = 4096;
  ThreadPool::Global().ParallelForRange(
      kTasks, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          const size_t bytes = 256u << (i % 6);  // 256 B .. 8 KiB classes
          size_t class_bytes = 0;
          void* p = pool.Allocate(bytes, &class_bytes);
          ASSERT_NE(p, nullptr);
          std::memset(p, 0xab, bytes);  // touch: catches double-handout
          if (i % 3 == 0) {
            std::lock_guard<std::mutex> lock(mu);
            parked.emplace_back(p, class_bytes);
          } else {
            pool.Deallocate(p, class_bytes);
          }
          if (i % 7 == 0) {
            std::lock_guard<std::mutex> lock(mu);
            if (!parked.empty()) {
              auto [q, cb] = parked.back();
              parked.pop_back();
              pool.Deallocate(q, cb);
            }
          }
        }
      });

  // Main thread races maintenance against the workers above on a second
  // fan-out (ParallelForRange blocks, so interleave via another sweep).
  std::atomic<int64_t> done{0};
  std::thread churn([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      pool.Trim();
      (void)pool.GetStats();
      pool.PublishGauges();
      StoragePool::SetEnabled(false);
      StoragePool::SetEnabled(true);
      done.fetch_add(1, std::memory_order_relaxed);
    }
  });
  ThreadPool::Global().ParallelForRange(
      kTasks, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          size_t class_bytes = 0;
          void* p = pool.Allocate(1024, &class_bytes);
          std::memset(p, 0xcd, 1024);
          pool.Deallocate(p, class_bytes);
        }
      });
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  EXPECT_GT(done.load(), 0);
  // Every shard's byte count must match its free lists after the
  // concurrent phase, before anything is drained.
  const Status invariants = pool.CheckInvariants();
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  // Drain any still-parked blocks and verify internal consistency.
  {
    std::lock_guard<std::mutex> lock(mu);
    for (auto [p, cb] : parked) pool.Deallocate(p, cb);
    parked.clear();
  }
  StoragePool::SetEnabled(true);
  pool.Trim();
  const StoragePool::Stats stats = pool.GetStats();
  EXPECT_EQ(stats.cached_bytes, 0);
  EXPECT_EQ(stats.cached_blocks, 0);
}

}  // namespace
}  // namespace geotorch
