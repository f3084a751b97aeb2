#include "core/status.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "core/env.h"
#include "core/memory.h"
#include "core/rng.h"
#include "core/stopwatch.h"
#include "core/thread_pool.h"

namespace geotorch {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotImplemented),
               "NotImplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
}

TEST(StatusTest, DeadlineExceededFactory) {
  Status s = Status::DeadlineExceeded("took too long");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(s.ToString(), "DeadlineExceeded: took too long");
}

// --- Shared GEOTORCH_* env parsing (core/env.h) -----------------------------

struct ScopedEnv {
  explicit ScopedEnv(const char* name) : name_(name) { unsetenv(name_); }
  ~ScopedEnv() { unsetenv(name_); }
  void Set(const char* value) { setenv(name_, value, 1); }
  const char* name_;
};

TEST(EnvTest, IntFallsBackWhenUnsetEmptyOrUnparsable) {
  ScopedEnv var("GEOTORCH_TEST_ENV_INT");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 7);
  var.Set("");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 7);
  var.Set("banana");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 7);
}

TEST(EnvTest, IntParsesAndClampsIntoRange) {
  ScopedEnv var("GEOTORCH_TEST_ENV_INT");
  var.Set("42");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0), 42);
  var.Set("-5");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 1), 1);  // clamped up
  var.Set("1000");
  EXPECT_EQ(EnvInt("GEOTORCH_TEST_ENV_INT", 7, 0, 100), 100);  // down
}

TEST(EnvTest, Int64HandlesValuesBeyondIntRange) {
  ScopedEnv var("GEOTORCH_TEST_ENV_INT64");
  var.Set("8589934592");  // 8 GiB in bytes: > INT32_MAX
  EXPECT_EQ(EnvInt64("GEOTORCH_TEST_ENV_INT64", 0, 0), 8589934592LL);
}

TEST(EnvTest, BoolFollowsKillSwitchConvention) {
  ScopedEnv var("GEOTORCH_TEST_ENV_BOOL");
  EXPECT_TRUE(EnvBool("GEOTORCH_TEST_ENV_BOOL", true));
  EXPECT_FALSE(EnvBool("GEOTORCH_TEST_ENV_BOOL", false));
  for (const char* off : {"0", "off", "false"}) {
    var.Set(off);
    EXPECT_FALSE(EnvBool("GEOTORCH_TEST_ENV_BOOL", true)) << off;
  }
  for (const char* on : {"1", "on", "yes", "anything"}) {
    var.Set(on);
    EXPECT_TRUE(EnvBool("GEOTORCH_TEST_ENV_BOOL", false)) << on;
  }
}

TEST(EnvTest, StringFallsBackWhenUnsetOrEmpty) {
  ScopedEnv var("GEOTORCH_TEST_ENV_STR");
  EXPECT_EQ(EnvString("GEOTORCH_TEST_ENV_STR", "dflt"), "dflt");
  var.Set("");
  EXPECT_EQ(EnvString("GEOTORCH_TEST_ENV_STR", "dflt"), "dflt");
  var.Set("/tmp/spill");
  EXPECT_EQ(EnvString("GEOTORCH_TEST_ENV_STR", "dflt"), "/tmp/spill");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

Result<int> Chained(int x) {
  GEO_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Chained(5), 11);
  EXPECT_FALSE(Chained(-5).ok());
}

TEST(ThreadPoolTest, SubmitRuns) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  auto f1 = pool.Submit([&] { counter += 1; });
  auto f2 = pool.Submit([&] { counter += 2; });
  f1.get();
  f2.get();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(100, [&](int64_t i) { hits[i] += 1; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool& pool = ThreadPool::Global();
  std::atomic<int> count{0};
  pool.ParallelFor(4, [&](int64_t) {
    pool.ParallelFor(4, [&](int64_t) { count += 1; });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](int64_t) { FAIL(); });
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(9);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1);
  }
}

TEST(MemoryTrackerTest, TracksPeak) {
  MemoryTracker tracker;
  tracker.Allocate(100);
  tracker.Allocate(50);
  tracker.Release(100);
  tracker.Allocate(10);
  EXPECT_EQ(tracker.current_bytes(), 60);
  EXPECT_EQ(tracker.peak_bytes(), 150);
  tracker.Reset();
  EXPECT_EQ(tracker.peak_bytes(), 0);
}

TEST(MemoryTest, RssIsPositive) { EXPECT_GT(CurrentRssBytes(), 0); }

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds() * 1000.0 * 0.99);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  GEO_RETURN_NOT_OK(FailIfNegative(x));
  return Status::OK();
}


TEST(StatusMacroTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_FALSE(Chain(-1).ok());
  EXPECT_EQ(Chain(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ScopedAllocationTest, ReleasesOnScopeExit) {
  MemoryTracker tracker;
  {
    ScopedAllocation a(&tracker, 1000);
    EXPECT_EQ(tracker.current_bytes(), 1000);
    {
      ScopedAllocation b(&tracker, 500);
      EXPECT_EQ(tracker.current_bytes(), 1500);
    }
    EXPECT_EQ(tracker.current_bytes(), 1000);
  }
  EXPECT_EQ(tracker.current_bytes(), 0);
  EXPECT_EQ(tracker.peak_bytes(), 1500);
}

TEST(ThreadPoolTest, ParallelForRangeCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelForRange(64, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i] += 1;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace geotorch
