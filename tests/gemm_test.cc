// Correctness of the blocked, packed GEMM kernel against the reference
// triple loop: randomized shapes (including degenerate k=1/m=1/n=1 and
// non-multiples of the register tile), transposed operands, beta
// accumulation, and serial/parallel device dispatch.

#include "tensor/gemm.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/device.h"

namespace geotorch::tensor {
namespace {

using ::geotorch::Rng;
using ::geotorch::tensor::gemm_internal::kMR;
using ::geotorch::tensor::gemm_internal::kNR;

void FillRandom(std::vector<float>& v, Rng& rng) {
  for (auto& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
}

// Runs Gemm and ReferenceGemm on identical inputs and compares. The
// tolerance scales with sqrt(k): the blocked kernel reassociates the
// reduction (and may contract to FMA), so results are close but not
// bitwise equal to the naive loop.
void ExpectMatchesReference(int64_t m, int64_t k, int64_t n, float beta,
                            bool trans_a, bool trans_b, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  FillRandom(a, rng);
  FillRandom(b, rng);
  std::vector<float> c_blocked(m * n);
  FillRandom(c_blocked, rng);
  std::vector<float> c_ref = c_blocked;

  const GemmOptions opts{beta, trans_a, trans_b, true};
  Gemm(a.data(), b.data(), c_blocked.data(), m, k, n, opts);
  ReferenceGemm(a.data(), b.data(), c_ref.data(), m, k, n, opts);

  const double tol = 1e-4 * std::sqrt(static_cast<double>(k) + 1.0);
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_NEAR(c_blocked[i], c_ref[i], tol)
        << "i=" << i << " m=" << m << " k=" << k << " n=" << n
        << " beta=" << beta << " ta=" << trans_a << " tb=" << trans_b;
  }
}

TEST(GemmTest, RandomizedShapesAgainstReference) {
  // Mix of tile multiples, off-by-one sizes, and degenerate dims. Large
  // enough shapes cross the blocked-path cutoff.
  const int64_t dims[] = {1, 2, 3, kMR, kMR + 1, kNR, kNR + 1, 31, 64, 97};
  uint64_t seed = 1;
  for (int64_t m : dims) {
    for (int64_t k : dims) {
      for (int64_t n : dims) {
        ExpectMatchesReference(m, k, n, 0.0f, false, false, seed++);
      }
    }
  }
}

TEST(GemmTest, DegenerateDimsOnBlockedPath) {
  // Force m*n*k past the small-size cutoff with one degenerate dim so
  // the packed kernel (not the reference fallback) handles k=1 / m=1 /
  // n=1.
  ExpectMatchesReference(256, 1, 256, 0.0f, false, false, 101);
  ExpectMatchesReference(1, 300, 200, 0.0f, false, false, 102);
  ExpectMatchesReference(200, 300, 1, 0.0f, false, false, 103);
}

TEST(GemmTest, BetaAccumulate) {
  for (float beta : {0.0f, 1.0f, 0.5f}) {
    ExpectMatchesReference(67, 130, 75, beta, false, false, 200);
    ExpectMatchesReference(128, 128, 128, beta, false, false, 201);
  }
}

TEST(GemmTest, TransposedOperands) {
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      ExpectMatchesReference(66, 129, 80, 0.0f, ta, tb, 300);
      ExpectMatchesReference(97, 55, 97, 1.0f, ta, tb, 301);
    }
  }
}

TEST(GemmTest, MultipleKBlocks) {
  // k spans several KC blocks, exercising the first-block beta handling
  // and the accumulate path across K panels.
  ExpectMatchesReference(64, 3 * gemm_internal::kKC + 17, 64, 0.5f, false,
                         false, 400);
}

TEST(GemmTest, SerialAndParallelDevicesAgreeExactly) {
  Rng rng(7);
  const int64_t m = 192;
  const int64_t k = 160;
  const int64_t n = 1030;  // several NC tiles plus an edge
  std::vector<float> a(m * k);
  std::vector<float> b(k * n);
  FillRandom(a, rng);
  FillRandom(b, rng);
  std::vector<float> c_serial(m * n, 0.0f);
  std::vector<float> c_parallel(m * n, 0.0f);
  {
    DeviceGuard guard(Device::kSerial);
    Gemm(a.data(), b.data(), c_serial.data(), m, k, n);
  }
  {
    DeviceGuard guard(Device::kParallel);
    Gemm(a.data(), b.data(), c_parallel.data(), m, k, n);
  }
  // The K-accumulation order is device-independent, so the parallel
  // tiling must reproduce the serial result bit for bit.
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(c_serial[i], c_parallel[i]) << "i=" << i;
  }
}

TEST(GemmTest, ZeroKScalesC) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(nullptr, nullptr, c.data(), 2, 0, 2, {.beta = 0.5f});
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
  Gemm(nullptr, nullptr, c.data(), 2, 0, 2, {.beta = 0.0f});
  for (float v : c) EXPECT_FLOAT_EQ(v, 0.0f);
}

// --- Sigmoid / tanh span kernels ------------------------------------------

uint32_t BitsOf(float f) {
  uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

float FromBits(uint32_t b) {
  float f;
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

// Number of representable floats between a and b.
int64_t UlpDistance(float a, float b) {
  auto ordered = [](float f) {
    const int64_t bits = BitsOf(f);
    return (bits & 0x80000000) != 0 ? -(bits & 0x7fffffff) : bits;
  };
  return std::llabs(ordered(a) - ordered(b));
}

double SigmoidRef(double x) { return 1.0 / (1.0 + std::exp(-x)); }
double TanhRef(double x) { return std::tanh(x); }

using SpanFn = void (*)(const float*, float*, int64_t);

// Runs `span` over every `stride`-th float bit pattern in [lo, hi]
// (lo, hi >= 0) with both signs, in one call, and returns the inputs
// and outputs.
void SweepSpan(SpanFn span, float lo, float hi, uint32_t stride,
               std::vector<float>* x, std::vector<float>* y) {
  for (uint32_t b = BitsOf(lo); b <= BitsOf(hi); b += stride) {
    x->push_back(FromBits(b));
    x->push_back(-FromBits(b));
  }
  y->resize(x->size());
  span(x->data(), y->data(), static_cast<int64_t>(x->size()));
}

// Within `max_ulp` of the double-precision reference rounded to float
// for |x| <= 87.
void ExpectWithinUlp(SpanFn span, double (*ref)(double), int64_t max_ulp) {
  std::vector<float> x, y;
  SweepSpan(span, 0.0f, 87.0f, 1999, &x, &y);
  int64_t worst = 0;
  float worst_x = 0.0f;
  for (size_t i = 0; i < x.size(); ++i) {
    const int64_t d = UlpDistance(y[i], static_cast<float>(ref(x[i])));
    if (d > worst) {
      worst = d;
      worst_x = x[i];
    }
  }
  EXPECT_LE(worst, max_ulp) << "at x = " << worst_x;
}

TEST(ActivationSpanTest, SigmoidWithinTwoUlp) {
  ExpectWithinUlp(SigmoidSpan, SigmoidRef, 2);
  // Past -87 the result runs into the subnormal range: absolute error.
  std::vector<float> x, y;
  SweepSpan(SigmoidSpan, 87.0f, 120.0f, 997, &x, &y);
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_LE(std::fabs(y[i] - SigmoidRef(x[i])), FLT_MIN) << "x = " << x[i];
  }
}

TEST(ActivationSpanTest, TanhWithinTwoUlp) {
  ExpectWithinUlp(TanhSpan, TanhRef, 2);
}

TEST(ActivationSpanTest, SpecialValues) {
  const float inf = INFINITY;
  const float sub = 1e-40f;  // subnormal
  const std::vector<float> x = {NAN,  -NAN,         inf,  -inf, 0.0f, -0.0f,
                                sub,  -sub,         FLT_TRUE_MIN,
                                -FLT_TRUE_MIN,      100.0f, -100.0f};
  std::vector<float> s(x.size()), t(x.size());
  SigmoidSpan(x.data(), s.data(), static_cast<int64_t>(x.size()));
  TanhSpan(x.data(), t.data(), static_cast<int64_t>(x.size()));
  EXPECT_TRUE(std::isnan(s[0]) && std::isnan(s[1]));
  EXPECT_TRUE(std::isnan(t[0]) && std::isnan(t[1]));
  EXPECT_EQ(s[2], 1.0f);
  EXPECT_EQ(s[3], 0.0f);
  EXPECT_EQ(t[2], 1.0f);
  EXPECT_EQ(t[3], -1.0f);
  // tanh(±0) = ±0 with the sign kept; sigmoid(±0) = 1/2.
  EXPECT_EQ(BitsOf(t[4]), BitsOf(0.0f));
  EXPECT_EQ(BitsOf(t[5]), BitsOf(-0.0f));
  EXPECT_EQ(s[4], 0.5f);
  EXPECT_EQ(s[5], 0.5f);
  // Subnormal inputs: tanh(x) rounds to x, sigmoid(x) to 1/2.
  for (size_t i = 6; i < 10; ++i) {
    EXPECT_EQ(BitsOf(t[i]), BitsOf(x[i])) << "x = " << x[i];
    EXPECT_EQ(s[i], 0.5f) << "x = " << x[i];
  }
  EXPECT_EQ(s[10], 1.0f);
  EXPECT_LE(s[11], FLT_MIN);
  EXPECT_GE(s[11], 0.0f);
  EXPECT_EQ(t[10], 1.0f);
  EXPECT_EQ(t[11], -1.0f);
}

// An element's result does not depend on where it sits in the span or
// on the span's length: every (offset, length) window reproduces the
// whole-array call bit for bit, writes nothing past its end, and the
// in-place call matches too.
TEST(ActivationSpanTest, PositionIndependent) {
  Rng rng(23);
  std::vector<float> x(64);
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-12.0, 12.0));
  x[5] = -0.0f;
  x[17] = 0.3f;
  x[40] = 90.0f;
  for (SpanFn span : {SigmoidSpan, TanhSpan}) {
    std::vector<float> whole(x.size());
    span(x.data(), whole.data(), static_cast<int64_t>(x.size()));
    for (int64_t off = 0; off <= 16; ++off) {
      for (int64_t len = 0; len <= 40; ++len) {
        std::vector<float> out(len + 1, 7.0f);
        span(x.data() + off, out.data(), len);
        for (int64_t k = 0; k < len; ++k) {
          ASSERT_EQ(BitsOf(out[k]), BitsOf(whole[off + k]))
              << "offset " << off << " length " << len << " k " << k;
        }
        ASSERT_EQ(out[len], 7.0f) << "wrote past the span end";
      }
    }
    std::vector<float> in_place = x;
    span(in_place.data(), in_place.data(),
         static_cast<int64_t>(in_place.size()));
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(BitsOf(in_place[i]), BitsOf(whole[i])) << "i=" << i;
    }
  }
}

}  // namespace
}  // namespace geotorch::tensor
