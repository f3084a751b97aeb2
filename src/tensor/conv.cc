#include "tensor/conv.h"

#include "tensor/ops.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/check.h"
#include "core/memory.h"
#include "core/thread_pool.h"
#include "obs/obs.h"
#include "tensor/device.h"
#include "tensor/gemm.h"
#include "tensor/quant.h"

namespace geotorch::tensor {
namespace {

// Device gate for per-sample (or per-plane) loops. Matmuls issued from
// inside the loop body still go through Gemm(); nested parallel dispatch
// collapses to serial on pool workers, so samples parallelize across the
// pool and each sample's GEMM runs serially within its worker.
void ForEachSample(int64_t n, const std::function<void(int64_t)>& fn) {
  if (GetDefaultDevice() == Device::kParallel && n > 1) {
    ThreadPool::Global().ParallelFor(n, fn);
  } else {
    for (int64_t i = 0; i < n; ++i) fn(i);
  }
}

// im2col core writing into caller-provided storage (a reusable
// per-thread workspace in the conv kernels, so no allocation per sample
// per step). `cols` must hold c*kh*kw * oh*ow floats; it is fully
// (re)initialized including the zero padding.
void Im2ColInto(const Tensor& x, int64_t n, int64_t kh, int64_t kw,
                const ConvSpec& spec, float* cols) {
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  const int64_t oh = ConvOutSize(h, kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(w, kw, spec.stride, spec.padding);
  const int64_t bytes =
      static_cast<int64_t>(sizeof(float)) * c * kh * kw * oh * ow;
  GEO_OBS_COUNT("conv.im2col_bytes", bytes);
  std::memset(cols, 0, static_cast<size_t>(bytes));
  const float* px = x.data() + n * c * h * w;
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        float* dst = cols + ((ci * kh + ki) * kw + kj) * oh * ow;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * spec.stride + ki - spec.padding;
          if (ii < 0 || ii >= h) continue;
          const float* src_row = px + (ci * h + ii) * w;
          float* dst_row = dst + oi * ow;
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * spec.stride + kj - spec.padding;
            if (jj < 0 || jj >= w) continue;
            dst_row[oj] = src_row[jj];
          }
        }
      }
    }
  }
}

// col2im scatter-add core reading from raw column storage.
void Col2ImAddRaw(const float* cols, Tensor& out, int64_t n, int64_t kh,
                  int64_t kw, const ConvSpec& spec) {
  const int64_t c = out.size(1);
  const int64_t h = out.size(2);
  const int64_t w = out.size(3);
  const int64_t oh = ConvOutSize(h, kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(w, kw, spec.stride, spec.padding);
  float* po = out.data() + n * c * h * w;
  for (int64_t ci = 0; ci < c; ++ci) {
    for (int64_t ki = 0; ki < kh; ++ki) {
      for (int64_t kj = 0; kj < kw; ++kj) {
        const float* src = cols + ((ci * kh + ki) * kw + kj) * oh * ow;
        for (int64_t oi = 0; oi < oh; ++oi) {
          const int64_t ii = oi * spec.stride + ki - spec.padding;
          if (ii < 0 || ii >= h) continue;
          float* dst_row = po + (ci * h + ii) * w;
          const float* src_row = src + oi * ow;
          for (int64_t oj = 0; oj < ow; ++oj) {
            const int64_t jj = oj * spec.stride + kj - spec.padding;
            if (jj < 0 || jj >= w) continue;
            dst_row[jj] += src_row[oj];
          }
        }
      }
    }
  }
}

}  // namespace

int64_t ConvOutSize(int64_t in, int64_t kernel, int64_t stride,
                    int64_t padding) {
  const int64_t out = (in + 2 * padding - kernel) / stride + 1;
  GEO_CHECK_GT(out, 0) << "convolution output collapsed: in=" << in
                       << " kernel=" << kernel << " stride=" << stride
                       << " padding=" << padding;
  return out;
}

Tensor Im2Col(const Tensor& x, int64_t n, int64_t kh, int64_t kw,
              const ConvSpec& spec) {
  GEO_CHECK_EQ(x.ndim(), 4);
  const int64_t c = x.size(1);
  const int64_t oh = ConvOutSize(x.size(2), kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(x.size(3), kw, spec.stride, spec.padding);
  Tensor cols = Tensor::Uninitialized({c * kh * kw, oh * ow});
  Im2ColInto(x, n, kh, kw, spec, cols.data());
  return cols;
}

void Col2ImAdd(const Tensor& cols, Tensor& out, int64_t n, int64_t kh,
               int64_t kw, const ConvSpec& spec) {
  GEO_CHECK_EQ(out.ndim(), 4);
  const int64_t c = out.size(1);
  const int64_t oh = ConvOutSize(out.size(2), kh, spec.stride, spec.padding);
  const int64_t ow = ConvOutSize(out.size(3), kw, spec.stride, spec.padding);
  GEO_CHECK_EQ(cols.size(0), c * kh * kw);
  GEO_CHECK_EQ(cols.size(1), oh * ow);
  Col2ImAddRaw(cols.data(), out, n, kh, kw, spec);
}

namespace {

// Shared shape bookkeeping for the low-precision forwards.
struct LpConvDims {
  int64_t n, oh, ow, ck, l;
};

LpConvDims LpConvCheck(const Tensor& x, int64_t f, int64_t c, int64_t kh,
                       int64_t kw, const Tensor& bias, const ConvSpec& spec) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_EQ(x.size(1), c) << "Conv2d channel mismatch";
  LpConvDims d;
  d.n = x.size(0);
  d.oh = ConvOutSize(x.size(2), kh, spec.stride, spec.padding);
  d.ow = ConvOutSize(x.size(3), kw, spec.stride, spec.padding);
  d.ck = c * kh * kw;
  d.l = d.oh * d.ow;
  if (bias.numel() > 0) {
    GEO_CHECK_EQ(bias.numel(), f);
  }
  return d;
}

void AddBiasRows(float* out_i, const float* pb, int64_t f, int64_t l) {
  for (int64_t fi = 0; fi < f; ++fi) {
    float* row = out_i + fi * l;
    const float b = pb[fi];
    for (int64_t j = 0; j < l; ++j) row[j] += b;
  }
}

}  // namespace

Tensor Conv2dForwardInt8(const Tensor& x, const int8_t* w_q,
                         const float* w_scales, int64_t f, int64_t c,
                         int64_t kh, int64_t kw, float act_scale,
                         const Tensor& bias, const ConvSpec& spec) {
  const LpConvDims d = LpConvCheck(x, f, c, kh, kw, bias, spec);
  // Per-tensor activation scale: static (calibrated) when provided,
  // otherwise derived from the whole batch up front — never per sample,
  // so serial and parallel schedules quantize identically.
  if (act_scale <= 0.0f) {
    act_scale = SymmetricScale(AbsMax(x.data(), x.numel()));
  }
  Tensor out = Tensor::Uninitialized({d.n, f, d.oh, d.ow});
  const float* pb = bias.numel() > 0 ? bias.data() : nullptr;
  float* po = out.data();
  ForEachSample(d.n, [&](int64_t i) {
    float* cols = ThreadLocalWorkspace(kWorkspaceIm2Col, d.ck * d.l);
    Im2ColInto(x, i, kh, kw, spec, cols);
    int8_t* colsq = reinterpret_cast<int8_t*>(
        ThreadLocalWorkspace(kWorkspaceQuant, (d.ck * d.l + 3) / 4));
    QuantizeInt8(cols, d.ck * d.l, act_scale, colsq);
    float* out_i = po + i * f * d.l;
    Int8GemmOptions opts;
    opts.a_scales = w_scales;
    opts.a_scales_len = f;
    opts.b_scales = &act_scale;
    opts.b_scales_len = 1;
    GemmInt8(w_q, colsq, out_i, f, d.ck, d.l, opts);
    if (pb != nullptr) AddBiasRows(out_i, pb, f, d.l);
  });
  return out;
}

namespace {

// True when the patch matrix of sample i IS the (C, H·W) input plane,
// so even the implicit-im2col gather can be skipped.
bool Is1x1Direct(int64_t kh, int64_t kw, const ConvSpec& spec) {
  return kh == 1 && kw == 1 && spec.stride == 1 && spec.padding == 0;
}

// Stride-1 f32 convs always go through GemmConv: past the reference
// threshold it runs the direct im2col-free kernel, which beats both
// materialize+pack and the gather-pack at every depth. For strided
// shapes the implicit gather only beats materialize+pack when the patch matrix is shallow (few
// rows re-reading the same input plane); for deep patch matrices the
// branchy row gather loses to the memcpy-based Im2ColInto followed by
// a contiguous pack. int8 is exempt: its win comes from quantizing the
// input once instead of once per kernel-tap replica, which dominates
// at every depth.
constexpr int64_t kImplicitGatherMaxK = 64;

template <typename T>
ConvImageView<T> MakeConvView(const T* plane, int64_t c, int64_t h, int64_t w,
                              int64_t kh, int64_t kw, const ConvSpec& spec,
                              int64_t oh, int64_t ow) {
  ConvImageView<T> view;
  view.x = plane;
  view.c = c;
  view.h = h;
  view.w = w;
  view.kh = kh;
  view.kw = kw;
  view.stride = spec.stride;
  view.pad = spec.padding;
  view.oh = oh;
  view.ow = ow;
  return view;
}

}  // namespace

namespace {

// The one f32 forward kernel. Conv2dForward (training and the unfused
// eval path) runs it with a bias-only epilogue, Conv2dForwardFused with
// bias + activation. Stride-1 shapes go through GemmConv (the direct
// im2col-free kernel past the reference threshold); the epilogue's bias
// pass is the same `row += b` the old separate bias loop ran, so the
// two entry points share every output bit up to the activation.
Tensor ConvForwardF32(const Tensor& x, const Tensor& w, const Tensor& bias,
                      const ConvSpec& spec, const GemmEpilogue& ep) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_EQ(w.ndim(), 4);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t f = w.size(0);
  GEO_CHECK_EQ(w.size(1), c) << "Conv2d channel mismatch";
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const LpConvDims d = LpConvCheck(x, f, c, kh, kw, bias, spec);
  Tensor out = Tensor::Uninitialized({d.n, f, d.oh, d.ow});
  const float* pw = w.data();
  const float* px = x.data();
  float* po = out.data();
  const bool direct = Is1x1Direct(kh, kw, spec);
  const bool implicit =
      !direct && (spec.stride == 1 || d.ck <= kImplicitGatherMaxK);
  ForEachSample(d.n, [&](int64_t i) {
    float* out_i = po + i * f * d.l;
    const float* plane = px + i * c * h * wd;
    GemmOptions opts;
    opts.beta = 0.0f;
    opts.epilogue = &ep;
    if (direct) {
      // 1×1 stride-1 unpadded: the input plane is the patch matrix.
      Gemm(pw, plane, out_i, f, c, d.l, opts);
    } else if (implicit) {
      const ConvImageView<float> view =
          MakeConvView(plane, c, h, wd, kh, kw, spec, d.oh, d.ow);
      GemmConv(pw, view, out_i, f, opts);
    } else {
      float* cols = ThreadLocalWorkspace(kWorkspaceIm2Col, d.ck * d.l);
      Im2ColInto(x, i, kh, kw, spec, cols);
      Gemm(pw, cols, out_i, f, d.ck, d.l, opts);
    }
  });
  return out;
}

}  // namespace

Tensor Conv2dForward(const Tensor& x, const Tensor& w, const Tensor& bias,
                     const ConvSpec& spec) {
  GemmEpilogue ep;
  ep.row_bias = bias.numel() > 0 ? bias.data() : nullptr;
  return ConvForwardF32(x, w, bias, spec, ep);
}

Tensor Conv2dForwardFused(const Tensor& x, const Tensor& w, const Tensor& bias,
                          const ConvSpec& spec, EpilogueAct act,
                          float leaky_slope) {
  GEO_OBS_COUNT("fusion.conv_calls", 1);
  if (x.ndim() == 4 && w.ndim() == 4 &&
      Is1x1Direct(w.size(2), w.size(3), spec)) {
    GEO_OBS_COUNT("fusion.conv_1x1", x.size(0));
  }
  GemmEpilogue ep;
  ep.row_bias = bias.numel() > 0 ? bias.data() : nullptr;
  ep.act = act;
  ep.leaky_slope = leaky_slope;
  return ConvForwardF32(x, w, bias, spec, ep);
}

Tensor Conv2dForwardFusedInt8(const Tensor& x, const int8_t* w_q,
                              const float* w_scales, int64_t f, int64_t c,
                              int64_t kh, int64_t kw, float act_scale,
                              const Tensor& bias, const ConvSpec& spec,
                              EpilogueAct act, float leaky_slope) {
  const LpConvDims d = LpConvCheck(x, f, c, kh, kw, bias, spec);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  GEO_OBS_COUNT("fusion.conv_calls", 1);
  if (act_scale <= 0.0f) {
    act_scale = SymmetricScale(AbsMax(x.data(), x.numel()));
  }
  // Quantize the input batch once, up front, on the calling thread:
  // elementwise quantization commutes with the im2col gather (and the
  // zero padding quantizes to 0), so this matches quantizing the patch
  // matrix bitwise while touching each input element once instead of
  // once per kernel-tap replica. Workers read the buffer through the
  // captured pointer; their own workspace slots are untouched.
  int8_t* xq = reinterpret_cast<int8_t*>(
      ThreadLocalWorkspace(kWorkspaceQuant, (x.numel() + 3) / 4));
  QuantizeInt8(x.data(), x.numel(), act_scale, xq);
  Tensor out = Tensor::Uninitialized({d.n, f, d.oh, d.ow});
  GemmEpilogue ep;
  ep.row_bias = bias.numel() > 0 ? bias.data() : nullptr;
  ep.act = act;
  ep.leaky_slope = leaky_slope;
  float* po = out.data();
  const float act_scale_val = act_scale;
  const bool direct = Is1x1Direct(kh, kw, spec);
  if (direct) GEO_OBS_COUNT("fusion.conv_1x1", d.n);
  ForEachSample(d.n, [&](int64_t i) {
    float* out_i = po + i * f * d.l;
    const int8_t* plane = xq + i * c * h * wd;
    Int8GemmOptions opts;
    opts.a_scales = w_scales;
    opts.a_scales_len = f;
    opts.b_scales = &act_scale_val;
    opts.b_scales_len = 1;
    opts.epilogue = &ep;
    if (direct) {
      GemmInt8(w_q, plane, out_i, f, c, d.l, opts);
    } else {
      const ConvImageView<int8_t> view =
          MakeConvView(plane, c, h, wd, kh, kw, spec, d.oh, d.ow);
      GemmConvInt8(w_q, view, out_i, f, opts);
    }
  });
  return out;
}

namespace {

// Number of weight/bias-gradient partials: min(n, kGradPartials). The
// partial count and each partial's sample range depend only on n, so
// the summation order of grad_w and grad_bias is the same on every
// device and pool size.
constexpr int64_t kGradPartials = 8;

// grad_x of a stride-1 square-kernel conv as a direct conv of grad_out:
// gx[i] = conv(g[i], flip(W)ᵀ, padding k-1-p), where flip(W)ᵀ swaps the
// channel axes and rotates each k×k tap window by 180°. The output size
// is oh + k-1 - 2p = h, and every tap the forward read from x is written
// back by exactly one product here, so no col2im scatter is needed.
bool FlippedConvGradX(int64_t kh, int64_t kw, const ConvSpec& spec) {
  return spec.stride == 1 && kh == kw && spec.padding <= kh - 1;
}

Tensor FlipTransposeWeights(const Tensor& w) {
  const int64_t f = w.size(0);
  const int64_t c = w.size(1);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  Tensor out = Tensor::Uninitialized({c, f, kh, kw});
  const float* pw = w.data();
  float* po = out.data();
  for (int64_t fi = 0; fi < f; ++fi) {
    for (int64_t ci = 0; ci < c; ++ci) {
      const float* src = pw + (fi * c + ci) * kh * kw;
      float* dst = po + (ci * f + fi) * kh * kw;
      for (int64_t t = 0; t < kh * kw; ++t) dst[t] = src[kh * kw - 1 - t];
    }
  }
  return out;
}

}  // namespace

Conv2dGrads Conv2dBackward(const Tensor& grad_out, const Tensor& x,
                           const Tensor& w, bool has_bias,
                           const ConvSpec& spec, bool need_grad_x) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t f = w.size(0);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t oh = grad_out.size(2);
  const int64_t ow = grad_out.size(3);
  const int64_t ck = c * kh * kw;
  const int64_t l = oh * ow;

  const bool flipped = need_grad_x && FlippedConvGradX(kh, kw, spec);
  Conv2dGrads grads;
  if (need_grad_x) {
    // The flipped conv overwrites every element; col2im accumulates.
    grads.grad_x = flipped ? Tensor::Uninitialized(x.shape())
                           : Tensor::Zeros(x.shape());
  }
  const Tensor w_flip = flipped ? FlipTransposeWeights(w) : Tensor();
  ConvSpec flip_spec;
  flip_spec.padding = kh - 1 - spec.padding;

  // Partial t accumulates samples [t*n/parts, (t+1)*n/parts): its
  // (ck, f) transposed weight gradient followed by its f bias sums.
  const int64_t parts = std::min(n, kGradPartials);
  const int64_t part_len = ck * f + (has_bias ? f : 0);
  Tensor partials = Tensor::Uninitialized({parts, part_len});

  const float* pg = grad_out.data();
  const float* pw = w.data();
  const float* px = x.data();
  ForEachSample(parts, [&](int64_t t) {
    float* gwt = partials.data() + t * part_len;
    float* gb = gwt + ck * f;
    if (has_bias) std::fill(gb, gb + f, 0.0f);
    const int64_t begin = t * n / parts;
    const int64_t end = (t + 1) * n / parts;
    for (int64_t i = begin; i < end; ++i) {
      const float* g_i = pg + i * f * l;
      // grad wrt weights, transposed: gwᵀ (+)= im2col(x_i) (ck, l) ×
      // g_iᵀ (l, f), the patch rows gathered straight from the image.
      // The partial's first sample overwrites it.
      const ConvImageView<float> x_view =
          MakeConvView(px + i * c * h * wd, c, h, wd, kh, kw, spec, oh, ow);
      GemmConvA(x_view, g_i, gwt, f, {.beta = i == begin ? 0.0f : 1.0f});
      if (has_bias) {
        for (int64_t fi = 0; fi < f; ++fi) {
          const float* row = g_i + fi * l;
          double s = 0.0;
          for (int64_t j = 0; j < l; ++j) s += row[j];
          gb[fi] += static_cast<float>(s);
        }
      }
      if (flipped) {
        const ConvImageView<float> view =
            MakeConvView(g_i, f, oh, ow, kh, kw, flip_spec, h, wd);
        GemmConv(w_flip.data(), view, grads.grad_x.data() + i * c * h * wd,
                 c, {.beta = 0.0f});
      } else if (need_grad_x) {
        // Strided fallback: W^T (ck, f) x g_i (f, l) -> (ck, l), then
        // col2im. W (f, ck) is consumed transposed and beta=0
        // overwrites the workspace.
        float* gcols = ThreadLocalWorkspace(kWorkspaceConvCols, ck * l);
        Gemm(pw, g_i, gcols, ck, f, l, {.beta = 0.0f, .trans_a = true});
        Col2ImAddRaw(gcols, grads.grad_x, i, kh, kw, spec);
      }
    }
  });

  // Sum the partials in index order, transposing gwᵀ back.
  grads.grad_w = Tensor::Zeros(w.shape());
  grads.grad_bias = has_bias ? Tensor::Zeros({f}) : Tensor();
  const float* pp = partials.data();
  float* gw = grads.grad_w.data();
  float* gb = has_bias ? grads.grad_bias.data() : nullptr;
  for (int64_t t = 0; t < parts; ++t) {
    const float* part = pp + t * part_len;
    for (int64_t p = 0; p < ck; ++p) {
      for (int64_t fi = 0; fi < f; ++fi) gw[fi * ck + p] += part[p * f + fi];
    }
    for (int64_t fi = 0; gb != nullptr && fi < f; ++fi) {
      gb[fi] += part[ck * f + fi];
    }
  }
  return grads;
}

Tensor ConvTranspose2dForward(const Tensor& x, const Tensor& w,
                              const Tensor& bias, const ConvSpec& spec) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_EQ(w.ndim(), 4);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  GEO_CHECK_EQ(w.size(0), c) << "ConvTranspose2d channel mismatch";
  const int64_t f = w.size(1);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t oh = (h - 1) * spec.stride - 2 * spec.padding + kh;
  const int64_t ow = (wd - 1) * spec.stride - 2 * spec.padding + kw;
  GEO_CHECK(oh > 0 && ow > 0);
  const bool has_bias = bias.numel() > 0;

  const int64_t fk = f * kh * kw;
  Tensor out = Tensor::Zeros({n, f, oh, ow});
  const int64_t l = h * wd;
  const float* px = x.data();
  const float* pw = w.data();
  ForEachSample(n, [&](int64_t i) {
    // cols = W^T (fk, c) x x[i] (c, l); W (c, fk) is consumed
    // transposed in place of the old materialized (fk, c) matrix.
    float* cols = ThreadLocalWorkspace(kWorkspaceConvCols, fk * l);
    Gemm(pw, px + i * c * l, cols, fk, c, l, {.beta = 0.0f, .trans_a = true});
    Col2ImAddRaw(cols, out, i, kh, kw, spec);
  });
  if (has_bias) {
    GEO_CHECK_EQ(bias.numel(), f);
    float* po = out.data();
    const float* pb = bias.data();
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t fi = 0; fi < f; ++fi) {
        float* plane = po + (i * f + fi) * oh * ow;
        for (int64_t j = 0; j < oh * ow; ++j) plane[j] += pb[fi];
      }
    }
  }
  return out;
}

ConvTranspose2dGrads ConvTranspose2dBackward(const Tensor& grad_out,
                                             const Tensor& x, const Tensor& w,
                                             bool has_bias,
                                             const ConvSpec& spec) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t f = w.size(1);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t l = h * wd;
  const int64_t fk = f * kh * kw;

  ConvTranspose2dGrads grads;
  grads.grad_x = Tensor::Zeros(x.shape());
  grads.grad_w = Tensor::Zeros(w.shape());
  grads.grad_bias = has_bias ? Tensor::Zeros({f}) : Tensor();

  const float* px = x.data();
  const float* pw = w.data();
  float* pgx = grads.grad_x.data();
  float* pgw = grads.grad_w.data();
  float* pgb = has_bias ? grads.grad_bias.data() : nullptr;
  const int64_t gl = grad_out.size(2) * grad_out.size(3);
  // im2col over grad_out must land back on x's spatial extent.
  GEO_CHECK_EQ(
      ConvOutSize(grad_out.size(2), kh, spec.stride, spec.padding), h);
  GEO_CHECK_EQ(
      ConvOutSize(grad_out.size(3), kw, spec.stride, spec.padding), wd);

  for (int64_t i = 0; i < n; ++i) {
    // dcols = im2col(grad_out[i]) with the same spec: (fk, l).
    float* dcols = ThreadLocalWorkspace(kWorkspaceIm2Col, fk * l);
    Im2ColInto(grad_out, i, kh, kw, spec, dcols);
    // grad_x[i] = W (c, fk) x dcols (fk, l).
    Gemm(pw, dcols, pgx + i * c * l, c, fk, l, {.beta = 0.0f});
    // grad_w += x[i] (c, l) x dcols^T (l, fk); dcols is consumed
    // transposed, dropping the old materialized Transpose2d.
    Gemm(px + i * c * l, dcols, pgw, c, l, fk, {.beta = 1.0f, .trans_b = true});
    if (has_bias) {
      const float* pg = grad_out.data() + i * f * gl;
      for (int64_t fi = 0; fi < f; ++fi) {
        double s = 0.0;
        const float* plane = pg + fi * gl;
        for (int64_t j = 0; j < gl; ++j) s += plane[j];
        pgb[fi] += static_cast<float>(s);
      }
    }
  }
  return grads;
}

std::pair<Tensor, std::vector<int64_t>> MaxPool2dForward(const Tensor& x,
                                                         int64_t kernel) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_GE(kernel, 1);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  GEO_CHECK(h % kernel == 0 && w % kernel == 0)
      << "MaxPool2d expects dims divisible by kernel; got " << h << "x" << w
      << " kernel " << kernel;
  const int64_t oh = h / kernel;
  const int64_t ow = w / kernel;
  Tensor out = Tensor::Uninitialized({n, c, oh, ow});
  std::vector<int64_t> argmax(out.numel());
  const float* px = x.data();
  float* po = out.data();
  int64_t* pam = argmax.data();
  // Each (n, c) plane is independent; parallelize with the same device
  // gate as the conv sample loops.
  ForEachSample(n * c, [&](int64_t nc) {
    const float* plane = px + nc * h * w;
    const int64_t plane_off = nc * h * w;
    int64_t oidx = nc * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        float best = plane[(oi * kernel) * w + oj * kernel];
        int64_t best_off = (oi * kernel) * w + oj * kernel;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            const int64_t off = (oi * kernel + ki) * w + oj * kernel + kj;
            if (plane[off] > best) {
              best = plane[off];
              best_off = off;
            }
          }
        }
        po[oidx] = best;
        pam[oidx] = plane_off + best_off;
        ++oidx;
      }
    }
  });
  return {out, std::move(argmax)};
}

Tensor MaxPool2dBackward(const Tensor& grad_out, const Shape& input_shape,
                         const std::vector<int64_t>& argmax) {
  Tensor grad_x = Tensor::Zeros(input_shape);
  GEO_CHECK_EQ(static_cast<int64_t>(argmax.size()), grad_out.numel());
  const float* pg = grad_out.data();
  float* px = grad_x.data();
  for (int64_t i = 0; i < grad_out.numel(); ++i) px[argmax[i]] += pg[i];
  return grad_x;
}

Tensor AvgPool2dForward(const Tensor& x, int64_t kernel) {
  GEO_CHECK_EQ(x.ndim(), 4);
  GEO_CHECK_GE(kernel, 1);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  GEO_CHECK(h % kernel == 0 && w % kernel == 0)
      << "AvgPool2d expects dims divisible by kernel";
  const int64_t oh = h / kernel;
  const int64_t ow = w / kernel;
  Tensor out = Tensor::Uninitialized({n, c, oh, ow});
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const float* px = x.data();
  float* po = out.data();
  ForEachSample(n * c, [&](int64_t nc) {
    const float* plane = px + nc * h * w;
    float* out_plane = po + nc * oh * ow;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        float acc = 0.0f;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            acc += plane[(oi * kernel + ki) * w + oj * kernel + kj];
          }
        }
        out_plane[oi * ow + oj] = acc * inv;
      }
    }
  });
  return out;
}

Tensor AvgPool2dBackward(const Tensor& grad_out, const Shape& input_shape,
                         int64_t kernel) {
  Tensor grad_x = Tensor::Zeros(input_shape);
  const int64_t n = input_shape[0];
  const int64_t c = input_shape[1];
  const int64_t h = input_shape[2];
  const int64_t w = input_shape[3];
  const int64_t oh = h / kernel;
  const int64_t ow = w / kernel;
  const float inv = 1.0f / static_cast<float>(kernel * kernel);
  const float* pg = grad_out.data();
  float* px = grad_x.data();
  ForEachSample(n * c, [&](int64_t nc) {
    const float* g_plane = pg + nc * oh * ow;
    float* x_plane = px + nc * h * w;
    for (int64_t oi = 0; oi < oh; ++oi) {
      for (int64_t oj = 0; oj < ow; ++oj) {
        const float g = g_plane[oi * ow + oj] * inv;
        for (int64_t ki = 0; ki < kernel; ++ki) {
          for (int64_t kj = 0; kj < kernel; ++kj) {
            x_plane[(oi * kernel + ki) * w + oj * kernel + kj] += g;
          }
        }
      }
    }
  });
  return grad_x;
}

Tensor UpsampleNearest2x(const Tensor& x) {
  GEO_CHECK_EQ(x.ndim(), 4);
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t w = x.size(3);
  Tensor out = Tensor::Uninitialized({n, c, h * 2, w * 2});
  const float* px = x.data();
  float* po = out.data();
  ForEachSample(n * c, [&](int64_t nc) {
    const float* in_plane = px + nc * h * w;
    float* out_plane = po + nc * h * w * 4;
    for (int64_t i = 0; i < h; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        const float v = in_plane[i * w + j];
        float* base = out_plane + (2 * i) * (2 * w) + 2 * j;
        base[0] = v;
        base[1] = v;
        base[2 * w] = v;
        base[2 * w + 1] = v;
      }
    }
  });
  return out;
}

Tensor UpsampleNearest2xBackward(const Tensor& grad_out) {
  GEO_CHECK_EQ(grad_out.ndim(), 4);
  const int64_t n = grad_out.size(0);
  const int64_t c = grad_out.size(1);
  const int64_t oh = grad_out.size(2);
  const int64_t ow = grad_out.size(3);
  GEO_CHECK(oh % 2 == 0 && ow % 2 == 0);
  const int64_t h = oh / 2;
  const int64_t w = ow / 2;
  Tensor grad_x = Tensor::Zeros({n, c, h, w});
  const float* pg = grad_out.data();
  float* px = grad_x.data();
  ForEachSample(n * c, [&](int64_t nc) {
    const float* g_plane = pg + nc * oh * ow;
    float* x_plane = px + nc * h * w;
    for (int64_t i = 0; i < h; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        const float* base = g_plane + (2 * i) * ow + 2 * j;
        x_plane[i * w + j] = base[0] + base[1] + base[ow] + base[ow + 1];
      }
    }
  });
  return grad_x;
}

}  // namespace geotorch::tensor
