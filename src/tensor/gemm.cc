// Blocked, packed SGEMM (BLIS-style). Structure:
//
//   for jc in N by NC:            B strip
//     for pc in K by KC:          shared-K block (accumulation order is
//                                 fixed, so serial == parallel bitwise)
//       pack B(pc:kc, jc:nc)      -> thread-local ~KC*NC panel
//       for ic in M by MC:
//         pack A(ic:mc, pc:kc)    -> thread-local ~MC*KC panel
//         for each MR*NR register tile: micro-kernel over kc
//
// The micro-kernel reads contiguous MR- and NR-wide slices of the packed
// panels, accumulates into a local MR*NR tile, and is written so the
// compiler auto-vectorizes the NR loop into FMA chains (this file is
// built with the vector ISA of the build machine; see
// src/tensor/CMakeLists.txt). Transposed operands are absorbed by the
// packing stage, so callers never materialize a transpose.
//
// Parallel execution tiles the M×N macro-block grid across the thread
// pool; each task packs into its own per-thread workspace. Nested calls
// from pool workers (per-sample conv loops) collapse to serial inside
// ThreadPool::ParallelForRange, so the kernel is re-entrant under the
// device dispatch rules in DESIGN.md.

#include "tensor/gemm.h"

#include <algorithm>

#include "core/check.h"
#include "core/memory.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "tensor/device.h"

namespace geotorch::tensor {
namespace {

using namespace gemm_internal;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Logical-element access over the (possibly transposed) operands. When
// `conv_b` (`conv_a`) is set, B (A) is an implicit im2col view and the
// packing stage gathers panel rows straight from the image (never
// transposed).
struct OperandView {
  const float* a;
  const float* b;
  int64_t m, k, n;
  bool ta, tb;
  const ConvImageView<float>* conv_b = nullptr;
  const ConvImageView<float>* conv_a = nullptr;
  float A(int64_t i, int64_t p) const { return ta ? a[p * m + i] : a[i * k + p]; }
  float B(int64_t p, int64_t j) const { return tb ? b[j * k + p] : b[p * n + j]; }
};

// Packs A(ic:ic+mc, pc:pc+kc) into kMR-row micro-panels: panel `pi`
// holds rows [pi*kMR, pi*kMR+kMR) laid out column-major (p outer, r
// inner) so the micro-kernel reads one contiguous MR-slice per k step.
// Rows past `mc` pad with zeros.
void PackABlock(const OperandView& v, int64_t ic, int64_t mc, int64_t pc,
                int64_t kc, float* __restrict ap) {
  for (int64_t pi = 0; pi * kMR < mc; ++pi) {
    float* panel = ap + pi * kc * kMR;
    const int64_t rows = std::min(kMR, mc - pi * kMR);
    const int64_t base_i = ic + pi * kMR;
    if (v.conv_a != nullptr) {
      // Gather the panel's rows into an L1 stage (the mirror of the
      // conv_b stage in PackBBlock), then interleave them.
      alignas(64) float stage[kMR][kKC];
      for (int64_t r = 0; r < rows; ++r)
        v.conv_a->GatherRow(base_i + r, pc, kc, stage[r]);
      for (int64_t p = 0; p < kc; ++p) {
        float* dst = panel + p * kMR;
        int64_t r = 0;
        for (; r < rows; ++r) dst[r] = stage[r][p];
        for (; r < kMR; ++r) dst[r] = 0.0f;
      }
      continue;
    }
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = panel + p * kMR;
      int64_t r = 0;
      for (; r < rows; ++r) dst[r] = v.A(base_i + r, pc + p);
      for (; r < kMR; ++r) dst[r] = 0.0f;
    }
  }
}

// Packs B(pc:pc+kc, jc:jc+nc) into kNR-column micro-panels (p outer,
// column inner); columns past `nc` pad with zeros.
void PackBBlock(const OperandView& v, int64_t pc, int64_t kc, int64_t jc,
                int64_t nc, float* __restrict bp) {
  if (v.conv_b != nullptr) {
    // Gather each virtual row once at full block width into an L1 stage
    // (one GatherRow per K row amortizes its row-walk over all panels),
    // then deal the stage out to the kNR-column micro-panels.
    alignas(64) float stage[kNC];
    for (int64_t p = 0; p < kc; ++p) {
      v.conv_b->GatherRow(pc + p, jc, nc, stage);
      for (int64_t pj = 0; pj * kNR < nc; ++pj) {
        const int64_t cols = std::min(kNR, nc - pj * kNR);
        float* __restrict dst = bp + pj * kc * kNR + p * kNR;
        const float* __restrict src = stage + pj * kNR;
        int64_t c = 0;
        for (; c < cols; ++c) dst[c] = src[c];
        for (; c < kNR; ++c) dst[c] = 0.0f;
      }
    }
    return;
  }
  for (int64_t pj = 0; pj * kNR < nc; ++pj) {
    float* panel = bp + pj * kc * kNR;
    const int64_t cols = std::min(kNR, nc - pj * kNR);
    const int64_t base_j = jc + pj * kNR;
    if (!v.tb) {
      for (int64_t p = 0; p < kc; ++p) {
        const float* __restrict src = v.b + (pc + p) * v.n + base_j;
        float* __restrict dst = panel + p * kNR;
        int64_t c = 0;
        for (; c < cols; ++c) dst[c] = src[c];
        for (; c < kNR; ++c) dst[c] = 0.0f;
      }
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        float* __restrict dst = panel + p * kNR;
        int64_t c = 0;
        for (; c < cols; ++c) dst[c] = v.b[(base_j + c) * v.k + pc + p];
        for (; c < kNR; ++c) dst[c] = 0.0f;
      }
    }
  }
}

// Vector lane type for the micro-kernel accumulator. 8-float lanes map
// to one FMA per lane on AVX-class hardware; on baseline x86-64 (or any
// target without 32-byte vectors) 4-float lanes avoid double-pumped
// emulation and ABI warnings. Lanes evenly tile an NR-wide row.
#if defined(__AVX__)
typedef float VecLane __attribute__((vector_size(32), aligned(4)));
constexpr int64_t kLane = 8;
#else
typedef float VecLane __attribute__((vector_size(16), aligned(4)));
constexpr int64_t kLane = 4;
#endif
constexpr int64_t kLanesPerRow = kNR / kLane;
static_assert(kNR % kLane == 0);

inline VecLane LoadLane(const float* p) {
  VecLane v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

// --- Sigmoid and tanh -------------------------------------------------
//
// SigmoidSpan / TanhSpan (gemm.h) are defined here because this is the
// translation unit compiled with the kernel ISA flags both in the
// library build (src/tensor/CMakeLists.txt) and in perfbench's build
// (perfbench/CMakeLists.txt), so every caller — ops, LstmGates and the
// epilogues of all four GEMM kernels — runs this one compiled instance.
// All arithmetic is lane-wise on VecLane, so no element sees another.

typedef int32_t VecInt __attribute__((vector_size(sizeof(VecLane))));
typedef uint32_t VecUint __attribute__((vector_size(sizeof(VecLane))));

inline VecLane Splat(float s) { return s - VecLane{}; }

// e^x: Cody–Waite reduction x = n·ln2 + r with |r| <= ln2/2, the Cephes
// expf polynomial for e^r, and 2^n applied as two halves so that one
// rounding covers results from the subnormal range up to overflow. The
// clamps make e^x exactly 0 below -104 and +inf above 88.73; NaN passes
// through them (comparisons are false) and poisons the polynomial.
inline VecLane ExpLane(VecLane x) {
  x = x > Splat(89.0f) ? Splat(89.0f) : x;
  x = x < Splat(-104.0f) ? Splat(-104.0f) : x;
  const VecLane magic = Splat(12582912.0f);  // 1.5·2^23: rounds to integer
  const VecLane t = x * 1.44269504088896341f + magic;
  const VecLane n = t - magic;
  VecLane r = x - n * 0.693359375f;  // ln2 high part, exact in n·C1
  r = r - n * -2.12194440e-4f;       // ln2 - C1
  VecLane p = Splat(1.9875691500e-4f);
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * (r * r) + r + 1.0f;
  // n ∈ [-150, 128] sits in t's low mantissa bits; 2^n = 2^n1 · 2^n2
  // with both halves normal. Unsigned arithmetic wraps on NaN bits.
  const VecInt ni = (VecInt)((VecUint)t - (VecUint)magic);
  const VecInt n1 = ni >> 1;
  const VecUint n2 = (VecUint)ni - (VecUint)n1;
  const VecLane s1 = (VecLane)(((VecUint)n1 + 127u) << 23);
  const VecLane s2 = (VecLane)((n2 + 127u) << 23);
  return p * s1 * s2;
}

inline VecLane SigmoidLane(VecLane x) { return 1.0f / (1.0f + ExpLane(-x)); }

// tanh(|x|): the Cephes tanhf odd polynomial below 0.625, else
// 1 - 2/(e^{2|x|} + 1) (exactly 1 once e^{2|x|} overflows); the sign of
// x, -0 included, is put back last.
inline VecLane TanhLane(VecLane x) {
  const VecUint sign = (VecUint)x & 0x80000000u;
  const VecLane a = (VecLane)((VecUint)x & 0x7fffffffu);
  const VecLane z = a * a;
  VecLane p = Splat(-5.70498872745e-3f);
  p = p * z + 2.06390887954e-2f;
  p = p * z - 5.37397155531e-2f;
  p = p * z + 1.33314422036e-1f;
  p = p * z - 3.33332819422e-1f;
  const VecLane small = p * z * a + a;
  const VecLane large = 1.0f - 2.0f / (ExpLane(a + a) + 1.0f);
  const VecLane t = a < Splat(0.625f) ? small : large;
  return (VecLane)((VecUint)t | sign);
}

// Applies `lane_fn` to [0, n) a whole lane at a time. The tail is padded
// into one lane and goes through the same loop body, so an element's
// result never depends on where it sits in the span.
template <typename LaneFn>
void ActivationSpan(const float* x, float* y, int64_t n, LaneFn lane_fn) {
  for (int64_t i = 0; i < n; i += kLane) {
    const int64_t len = std::min(kLane, n - i);
    alignas(64) float pad[kLane] = {};
    const float* src = x + i;
    if (len < kLane) {
      __builtin_memcpy(pad, src, static_cast<size_t>(len) * sizeof(float));
      src = pad;
    }
    const VecLane out = lane_fn(LoadLane(src));
    __builtin_memcpy(y + i, &out, static_cast<size_t>(len) * sizeof(float));
  }
}

// kMR×kNR register tile over a packed-panel pair, merged into C at the
// end. The accumulator is a local array of vector lanes with constant
// trip counts, so it lives entirely in SIMD registers across the k
// loop; each k step reads one contiguous MR slice of A and NR slice of
// B. `beta_eff` is the caller's beta on the first K block, 1 afterwards;
// only the valid rows×cols corner is written for edge tiles. `ep` is
// non-null only on the final K block: the fused epilogue runs over the
// just-written C rows while they are still in L1 (row0/col0 locate the
// tile inside C for the bias lookups).
void MicroKernel(int64_t kc, const float* __restrict ap,
                 const float* __restrict bp, float* __restrict c, int64_t ldc,
                 int64_t rows, int64_t cols, float beta_eff,
                 const GemmEpilogue* ep, int64_t row0, int64_t col0) {
  VecLane acc[kMR][kLanesPerRow] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* __restrict a_slice = ap + p * kMR;
    const float* __restrict b_slice = bp + p * kNR;
    VecLane b_lane[kLanesPerRow];
    for (int64_t l = 0; l < kLanesPerRow; ++l)
      b_lane[l] = LoadLane(b_slice + l * kLane);
    for (int64_t r = 0; r < kMR; ++r) {
      const VecLane av = a_slice[r] - VecLane{};  // broadcast
      for (int64_t l = 0; l < kLanesPerRow; ++l)
        acc[r][l] += av * b_lane[l];
    }
  }
  if (rows == kMR && cols == kNR) {
    for (int64_t r = 0; r < kMR; ++r) {
      float* __restrict c_row = c + r * ldc;
      if (beta_eff == 0.0f) {
        for (int64_t l = 0; l < kLanesPerRow; ++l)
          __builtin_memcpy(c_row + l * kLane, &acc[r][l], sizeof(VecLane));
      } else if (beta_eff == 1.0f) {
        for (int64_t l = 0; l < kLanesPerRow; ++l) {
          const VecLane sum = LoadLane(c_row + l * kLane) + acc[r][l];
          __builtin_memcpy(c_row + l * kLane, &sum, sizeof(VecLane));
        }
      } else {
        for (int64_t l = 0; l < kLanesPerRow; ++l) {
          const VecLane sum =
              beta_eff * LoadLane(c_row + l * kLane) + acc[r][l];
          __builtin_memcpy(c_row + l * kLane, &sum, sizeof(VecLane));
        }
      }
    }
    if (ep != nullptr) {
      for (int64_t r = 0; r < rows; ++r)
        ApplyEpilogueRow(c + r * ldc, cols, ep->row_bias, row0 + r,
                         ep->col_bias != nullptr ? ep->col_bias + col0 : nullptr,
                         *ep);
    }
    return;
  }
  // Edge tile: spill the accumulator and merge the valid corner.
  alignas(64) float spill[kMR * kNR];
  for (int64_t r = 0; r < kMR; ++r)
    __builtin_memcpy(spill + r * kNR, acc[r], sizeof(acc[r]));
  for (int64_t r = 0; r < rows; ++r) {
    const float* __restrict acc_row = spill + r * kNR;
    float* __restrict c_row = c + r * ldc;
    if (beta_eff == 0.0f) {
      for (int64_t j = 0; j < cols; ++j) c_row[j] = acc_row[j];
    } else if (beta_eff == 1.0f) {
      for (int64_t j = 0; j < cols; ++j) c_row[j] += acc_row[j];
    } else {
      for (int64_t j = 0; j < cols; ++j)
        c_row[j] = beta_eff * c_row[j] + acc_row[j];
    }
  }
  if (ep != nullptr) {
    for (int64_t r = 0; r < rows; ++r)
      ApplyEpilogueRow(c + r * ldc, cols, ep->row_bias, row0 + r,
                       ep->col_bias != nullptr ? ep->col_bias + col0 : nullptr,
                       *ep);
  }
}

// All register tiles of one (mc × nc) macro-block against packed panels.
void MacroKernel(const float* ap, const float* bp, float* c, int64_t ldc,
                 int64_t ic, int64_t mc, int64_t jc, int64_t nc, int64_t kc,
                 float beta_eff, const GemmEpilogue* ep) {
  for (int64_t pj = 0; pj * kNR < nc; ++pj) {
    const int64_t cols = std::min(kNR, nc - pj * kNR);
    for (int64_t pi = 0; pi * kMR < mc; ++pi) {
      const int64_t rows = std::min(kMR, mc - pi * kMR);
      MicroKernel(kc, ap + pi * kc * kMR, bp + pj * kc * kNR,
                  c + (ic + pi * kMR) * ldc + jc + pj * kNR, ldc, rows, cols,
                  beta_eff, ep, ic + pi * kMR, jc + pj * kNR);
    }
  }
}

// Serial blocked GEMM over the C region [mb, me) × [nb, ne). Each
// invocation packs into the calling thread's workspace slots, so
// parallel tasks over disjoint regions never share scratch.
void GemmRegion(const OperandView& v, float* c, float beta, int64_t mb,
                int64_t me, int64_t nb, int64_t ne,
                const GemmEpilogue* epilogue) {
  for (int64_t jc = nb; jc < ne; jc += kNC) {
    const int64_t nc = std::min(kNC, ne - jc);
    for (int64_t pc = 0; pc < v.k; pc += kKC) {
      const int64_t kc = std::min(kKC, v.k - pc);
      // The epilogue fires exactly once per element: on the last K block.
      const GemmEpilogue* ep = (pc + kc == v.k) ? epilogue : nullptr;
      const int64_t b_floats = CeilDiv(nc, kNR) * kNR * kc;
      float* bp = ThreadLocalWorkspace(kWorkspaceGemmPackB, b_floats);
      PackBBlock(v, pc, kc, jc, nc, bp);
      GEO_OBS_COUNT("gemm.pack_b_bytes",
                    b_floats * static_cast<int64_t>(sizeof(float)));
      const float beta_eff = (pc == 0) ? beta : 1.0f;
      for (int64_t ic = mb; ic < me; ic += kMC) {
        const int64_t mc = std::min(kMC, me - ic);
        const int64_t a_floats = CeilDiv(mc, kMR) * kMR * kc;
        float* ap = ThreadLocalWorkspace(kWorkspaceGemmPackA, a_floats);
        PackABlock(v, ic, mc, pc, kc, ap);
        GEO_OBS_COUNT("gemm.pack_a_bytes",
                      a_floats * static_cast<int64_t>(sizeof(float)));
        MacroKernel(ap, bp, c, v.n, ic, mc, jc, nc, kc, beta_eff, ep);
      }
    }
  }
}

// Direct (im2col-free) stride-1 convolution. Instead of gathering the
// patch matrix and packing it into B panels, the register tile walks the
// image itself: for a tile of kMR output channels and kNR output columns
// of one output row, each kernel tap contributes one unaligned kNR-wide
// load from a zero-padded copy of the input plane plus one broadcast-FMA
// per channel. The staged copy means out-of-image taps participate as
// fma(w, 0, acc) — exactly the term the im2col zeros contribute — so no
// tap is skipped or reordered.
//
// Bitwise contract with the blocked path: a C element's value depends
// only on its K-order accumulation chain, never on how rows/columns are
// tiled. This kernel keeps (a) the tap order p = (ci, ki, kj), the
// im2col row order, (b) the accumulator split at kKC boundaries with the
// same first-block-writes / later-blocks-add merge, and (c) the same
// `acc += broadcast(a) * lane(b)` VecLane idiom in the same translation
// unit, so it contracts to the same FMA sequence the micro-kernel emits.
// determinism_test pins fused == unfused bitwise on top of this.
void ConvDirectKernel(const float* a, const ConvImageView<float>& b, float* c,
                      int64_t m, const GemmOptions& opts) {
  const int64_t k = b.K();
  const int64_t n = b.N();
  const int64_t ph = b.h + 2 * b.pad;
  // Row slack so the widest tile's lane loads stay inside the buffer:
  // max column read is j0 + (kw-1) + kNR-1 < (w + 2*pad) + kNR.
  const int64_t ws = b.w + 2 * b.pad + kNR;
  float* padded = ThreadLocalWorkspace(kWorkspaceIm2Col, b.c * ph * ws);
  std::fill(padded, padded + b.c * ph * ws, 0.0f);
  for (int64_t ci = 0; ci < b.c; ++ci) {
    for (int64_t ii = 0; ii < b.h; ++ii) {
      __builtin_memcpy(padded + (ci * ph + ii + b.pad) * ws + b.pad,
                       b.x + (ci * b.h + ii) * b.w,
                       static_cast<size_t>(b.w) * sizeof(float));
    }
  }
  const OperandView av{a, nullptr, m, k, n, opts.trans_a, false};
  const int64_t mtiles = CeilDiv(m, kMR);
  for (int64_t pc = 0; pc < k; pc += kKC) {
    const int64_t kc = std::min(kKC, k - pc);
    float* ap = ThreadLocalWorkspace(kWorkspaceGemmPackA, mtiles * kMR * kc);
    PackABlock(av, 0, m, pc, kc, ap);
    // Per-tap base offset into the padded image; with stride 1 the
    // output-row origin then advances by one padded row per oi.
    int32_t off[kKC];
    for (int64_t idx = 0; idx < kc; ++idx) {
      const int64_t p = pc + idx;
      const int64_t ci = p / (b.kh * b.kw);
      const int64_t rem = p - ci * b.kh * b.kw;
      off[idx] = static_cast<int32_t>(
          (ci * ph + rem / b.kw) * ws + rem % b.kw);
    }
    const float beta_eff = (pc == 0) ? opts.beta : 1.0f;
    const GemmEpilogue* ep = (pc + kc == k) ? opts.epilogue : nullptr;
    for (int64_t pi = 0; pi < mtiles; ++pi) {
      const int64_t rows = std::min(kMR, m - pi * kMR);
      const float* panel = ap + pi * kc * kMR;
      for (int64_t oi = 0; oi < b.oh; ++oi) {
        const float* in_origin = padded + oi * ws;
        for (int64_t j0 = 0; j0 < b.ow; j0 += kNR) {
          const int64_t cols = std::min(kNR, b.ow - j0);
          VecLane acc[kMR][kLanesPerRow] = {};
          for (int64_t idx = 0; idx < kc; ++idx) {
            const float* __restrict bsrc = in_origin + off[idx] + j0;
            const float* __restrict a_slice = panel + idx * kMR;
            VecLane b_lane[kLanesPerRow];
            for (int64_t l = 0; l < kLanesPerRow; ++l)
              b_lane[l] = LoadLane(bsrc + l * kLane);
            for (int64_t r = 0; r < kMR; ++r) {
              const VecLane avv = a_slice[r] - VecLane{};  // broadcast
              for (int64_t l = 0; l < kLanesPerRow; ++l)
                acc[r][l] += avv * b_lane[l];
            }
          }
          float* ctile = c + pi * kMR * n + oi * b.ow + j0;
          if (rows == kMR && cols == kNR) {
            for (int64_t r = 0; r < kMR; ++r) {
              float* __restrict c_row = ctile + r * n;
              if (beta_eff == 0.0f) {
                for (int64_t l = 0; l < kLanesPerRow; ++l)
                  __builtin_memcpy(c_row + l * kLane, &acc[r][l],
                                   sizeof(VecLane));
              } else if (beta_eff == 1.0f) {
                for (int64_t l = 0; l < kLanesPerRow; ++l) {
                  const VecLane sum = LoadLane(c_row + l * kLane) + acc[r][l];
                  __builtin_memcpy(c_row + l * kLane, &sum, sizeof(VecLane));
                }
              } else {
                for (int64_t l = 0; l < kLanesPerRow; ++l) {
                  const VecLane sum =
                      beta_eff * LoadLane(c_row + l * kLane) + acc[r][l];
                  __builtin_memcpy(c_row + l * kLane, &sum, sizeof(VecLane));
                }
              }
            }
          } else {
            alignas(64) float spill[kMR * kNR];
            for (int64_t r = 0; r < kMR; ++r)
              __builtin_memcpy(spill + r * kNR, acc[r], sizeof(acc[r]));
            for (int64_t r = 0; r < rows; ++r) {
              const float* __restrict acc_row = spill + r * kNR;
              float* __restrict c_row = ctile + r * n;
              if (beta_eff == 0.0f) {
                for (int64_t j = 0; j < cols; ++j) c_row[j] = acc_row[j];
              } else if (beta_eff == 1.0f) {
                for (int64_t j = 0; j < cols; ++j) c_row[j] += acc_row[j];
              } else {
                for (int64_t j = 0; j < cols; ++j)
                  c_row[j] = beta_eff * c_row[j] + acc_row[j];
              }
            }
          }
          if (ep != nullptr) {
            for (int64_t r = 0; r < rows; ++r)
              ApplyEpilogueRow(
                  ctile + r * n, cols, ep->row_bias, pi * kMR + r,
                  ep->col_bias != nullptr ? ep->col_bias + oi * b.ow + j0
                                          : nullptr,
                  *ep);
          }
        }
      }
    }
  }
}

// Writes the view's patch matrix into the im2col workspace, for the
// small-problem reference fallbacks.
float* MaterializeIm2Col(const ConvImageView<float>& v) {
  const int64_t k = v.K();
  const int64_t n = v.N();
  float* cols = ThreadLocalWorkspace(kWorkspaceIm2Col, k * n);
  for (int64_t p = 0; p < k; ++p) v.GatherRow(p, 0, n, cols + p * n);
  GEO_OBS_COUNT("conv.im2col_bytes",
                k * n * static_cast<int64_t>(sizeof(float)));
  return cols;
}

// C := beta*C for the degenerate k == 0 case.
void ScaleC(float* c, int64_t count, float beta) {
  if (beta == 0.0f) {
    std::fill(c, c + count, 0.0f);
  } else if (beta != 1.0f) {
    for (int64_t i = 0; i < count; ++i) c[i] *= beta;
  }
}

// Shared blocked dispatch for Gemm and GemmConv once the view is built
// and the reference fallback has been ruled out.
void GemmBlocked(const OperandView& v, float* c, const GemmOptions& opts,
                 int64_t work) {
  const int64_t mt = CeilDiv(v.m, kMC);
  const int64_t nt = CeilDiv(v.n, kNC);
  const bool parallel = opts.allow_parallel &&
                        GetDefaultDevice() == Device::kParallel &&
                        work >= kParallelMinWork && mt * nt > 1;
  if (!parallel) {
    GEO_OBS_COUNT("gemm.path.blocked_serial", 1);
    GemmRegion(v, c, opts.beta, 0, v.m, 0, v.n, opts.epilogue);
    return;
  }
  GEO_OBS_COUNT("gemm.path.blocked_parallel", 1);
  ThreadPool::Global().ParallelFor(mt * nt, [&](int64_t t) {
    const int64_t ti = t / nt;
    const int64_t tj = t % nt;
    GemmRegion(v, c, opts.beta, ti * kMC, std::min(v.m, (ti + 1) * kMC),
               tj * kNC, std::min(v.n, (tj + 1) * kNC), opts.epilogue);
  });
}

}  // namespace

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, const GemmOptions& opts) {
  if (m <= 0 || n <= 0) return;
  GEO_OBS_COUNT("gemm.calls", 1);
  if (k <= 0) {
    ScaleC(c, m * n, opts.beta);
    if (opts.epilogue != nullptr) {
      for (int64_t i = 0; i < m; ++i)
        ApplyEpilogueRow(c + i * n, n, opts.epilogue->row_bias, i,
                         opts.epilogue->col_bias, *opts.epilogue);
    }
    return;
  }
  const int64_t work = m * n * k;
  GEO_OBS_COUNT("gemm.flops", 2 * work);
  if (work < kBlockedMinWork) {
    GEO_OBS_COUNT("gemm.path.ref", 1);
    ReferenceGemm(a, b, c, m, k, n, opts);
    return;
  }
  const OperandView v{a, b, m, k, n, opts.trans_a, opts.trans_b};
  GemmBlocked(v, c, opts, work);
}

void GemmConv(const float* a, const ConvImageView<float>& b, float* c,
              int64_t m, const GemmOptions& opts) {
  const int64_t k = b.K();
  const int64_t n = b.N();
  if (m <= 0 || n <= 0) return;
  GEO_OBS_COUNT("gemm.calls", 1);
  GEO_OBS_COUNT("fusion.conv_implicit", 1);
  const int64_t work = m * n * k;
  GEO_OBS_COUNT("gemm.flops", 2 * work);
  if (work < kBlockedMinWork) {
    // Mirror the unfused small-problem path bitwise: materialize the
    // patch matrix and run the reference loop (which applies the
    // epilogue as separate post-passes, like the unfused layer code).
    GEO_OBS_COUNT("gemm.path.ref", 1);
    ReferenceGemm(a, MaterializeIm2Col(b), c, m, k, n, opts);
    return;
  }
  if (b.stride == 1) {
    GEO_OBS_COUNT("gemm.path.conv_direct", 1);
    ConvDirectKernel(a, b, c, m, opts);
    return;
  }
  const OperandView v{a, nullptr, m, k, n, opts.trans_a, false, &b};
  GemmBlocked(v, c, opts, work);
}

void GemmConvA(const ConvImageView<float>& a, const float* b, float* c,
               int64_t n, const GemmOptions& opts) {
  const int64_t m = a.K();
  const int64_t k = a.N();
  if (m <= 0 || n <= 0) return;
  GEO_OBS_COUNT("gemm.calls", 1);
  const int64_t work = m * n * k;
  GEO_OBS_COUNT("gemm.flops", 2 * work);
  GemmOptions o = opts;
  o.trans_a = false;
  o.trans_b = true;
  if (work < kBlockedMinWork) {
    GEO_OBS_COUNT("gemm.path.ref", 1);
    ReferenceGemm(MaterializeIm2Col(a), b, c, m, k, n, o);
    return;
  }
  const OperandView v{nullptr, b, m, k, n, false, true, nullptr, &a};
  GemmBlocked(v, c, o, work);
}

void SigmoidSpan(const float* x, float* y, int64_t n) {
  ActivationSpan(x, y, n, SigmoidLane);
}

void TanhSpan(const float* x, float* y, int64_t n) {
  ActivationSpan(x, y, n, TanhLane);
}

}  // namespace geotorch::tensor
