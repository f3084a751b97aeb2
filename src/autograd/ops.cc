#include "autograd/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "core/check.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace geotorch::autograd {

namespace {

namespace ts = ::geotorch::tensor;

using internal::Node;

// Expands `t` to `shape` by broadcasting (one strided copy).
ts::Tensor Broadcast(const ts::Tensor& t, const ts::Shape& shape) {
  return ts::BroadcastTo(t, shape);
}

// Note on the in-place backward kernels below: a node's grad is fully
// accumulated before its backward_fn runs (reverse topological order),
// it is privately owned (AccumulateGrad copies incoming gradients), and
// PushGrad copies out of its argument immediately — so a backward_fn may
// freely mutate n.grad after (or instead of) materializing a temporary.

// Accumulates `g` into parent i of `n` when that parent wants a grad.
void PushGrad(Node& n, size_t i, const ts::Tensor& g) {
  Node* parent = n.parents[i].get();
  if (parent->requires_grad) parent->AccumulateGrad(g);
}

// Splits cells [begin, end) of an LSTM state (N, H, ...) with `block`
// = H·(spatial) elements per sample into spans inside one sample, of
// at most kLstmSpan cells, calling fn(e0, g0, len): e0 indexes the
// state, g0 the same cell's i-gate element in the (N, 4·H, ...) gates
// (f, g, o follow at +block, +2·block, +3·block). Short spans keep a
// span's gate and state slices in L1 across the passes over them.
constexpr int64_t kLstmSpan = 512;

template <typename Fn>
void ForEachLstmSpan(int64_t begin, int64_t end, int64_t block, Fn fn) {
  for (int64_t e0 = begin; e0 < end;) {
    const int64_t s = e0 / block;
    const int64_t len =
        std::min({kLstmSpan, end - e0, (s + 1) * block - e0});
    fn(e0, e0 + 3 * s * block, len);
    e0 += len;
  }
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  ts::Tensor out = ts::Add(a.value(), b.value());
  ts::Shape sa = a.shape();
  ts::Shape sb = b.shape();
  return Variable::FromOp(std::move(out), {a, b}, [sa, sb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(n.grad, sa));
    PushGrad(n, 1, ts::SumToShape(n.grad, sb));
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  ts::Tensor out = ts::Sub(a.value(), b.value());
  ts::Shape sa = a.shape();
  ts::Shape sb = b.shape();
  return Variable::FromOp(std::move(out), {a, b}, [sa, sb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(n.grad, sa));
    ts::NegInPlace(n.grad);
    PushGrad(n, 1, ts::SumToShape(n.grad, sb));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  ts::Tensor va = a.value();
  ts::Tensor vb = b.value();
  ts::Tensor out = ts::Mul(va, vb);
  return Variable::FromOp(std::move(out), {a, b}, [va, vb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(ts::Mul(n.grad, vb), va.shape()));
    if (ts::SameShape(n.grad.shape(), va.shape())) {
      ts::MulInPlace(n.grad, va);
      PushGrad(n, 1, ts::SumToShape(n.grad, vb.shape()));
    } else {
      PushGrad(n, 1, ts::SumToShape(ts::Mul(n.grad, va), vb.shape()));
    }
  });
}

Variable Div(const Variable& a, const Variable& b) {
  ts::Tensor va = a.value();
  ts::Tensor vb = b.value();
  ts::Tensor out = ts::Div(va, vb);
  return Variable::FromOp(std::move(out), {a, b}, [va, vb](Node& n) {
    PushGrad(n, 0, ts::SumToShape(ts::Div(n.grad, vb), va.shape()));
    ts::Tensor gb = ts::Neg(ts::Div(ts::Mul(n.grad, va), ts::Mul(vb, vb)));
    PushGrad(n, 1, ts::SumToShape(gb, vb.shape()));
  });
}

Variable AddScalar(const Variable& a, float s) {
  return Variable::FromOp(ts::AddScalar(a.value(), s), {a},
                          [](Node& n) { PushGrad(n, 0, n.grad); });
}

Variable MulScalar(const Variable& a, float s) {
  return Variable::FromOp(ts::MulScalar(a.value(), s), {a}, [s](Node& n) {
    n.grad.ScaleInPlace(s);
    PushGrad(n, 0, n.grad);
  });
}

Variable PowScalar(const Variable& a, float p) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::PowScalar(va, p), {a}, [va, p](Node& n) {
    PushGrad(n, 0,
             ts::Mul(n.grad, ts::MulScalar(ts::PowScalar(va, p - 1.0f), p)));
  });
}

Variable Neg(const Variable& a) {
  return Variable::FromOp(ts::Neg(a.value()), {a}, [](Node& n) {
    ts::NegInPlace(n.grad);
    PushGrad(n, 0, n.grad);
  });
}

Variable Exp(const Variable& a) {
  ts::Tensor out = ts::Exp(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    ts::MulInPlace(n.grad, y);
    PushGrad(n, 0, n.grad);
  });
}

Variable Log(const Variable& a) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::Log(va), {a}, [va](Node& n) {
    PushGrad(n, 0, ts::Div(n.grad, va));
  });
}

Variable Sqrt(const Variable& a) {
  ts::Tensor out = ts::Sqrt(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    PushGrad(n, 0, ts::Div(ts::MulScalar(n.grad, 0.5f), y));
  });
}

Variable Relu(const Variable& a) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::Relu(va), {a}, [va](Node& n) {
    ts::ReluMaskInPlace(n.grad, va);
    PushGrad(n, 0, n.grad);
  });
}

Variable LeakyRelu(const Variable& a, float slope) {
  ts::Tensor va = a.value();
  return Variable::FromOp(ts::LeakyRelu(va, slope), {a}, [va, slope](Node& n) {
    ts::ReluMaskInPlace(n.grad, va, slope);
    PushGrad(n, 0, n.grad);
  });
}

Variable Sigmoid(const Variable& a) {
  ts::Tensor out = ts::Sigmoid(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    ts::SigmoidGradInPlace(n.grad, y);
    PushGrad(n, 0, n.grad);
  });
}

Variable Tanh(const Variable& a) {
  ts::Tensor out = ts::Tanh(a.value());
  ts::Tensor y = out;
  return Variable::FromOp(std::move(out), {a}, [y](Node& n) {
    ts::TanhGradInPlace(n.grad, y);
    PushGrad(n, 0, n.grad);
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  ts::Tensor va = a.value();
  ts::Tensor vb = b.value();
  ts::Tensor out = ts::MatMul(va, vb);
  return Variable::FromOp(std::move(out), {a, b}, [va, vb](Node& n) {
    // dA = g·B^T, dB = A^T·g; the kernel consumes the transposed
    // operand in place, so neither transpose is materialized.
    PushGrad(n, 0, ts::MatMulT(n.grad, vb, false, true));
    PushGrad(n, 1, ts::MatMulT(va, n.grad, true, false));
  });
}

Variable Reshape(const Variable& a, tensor::Shape shape) {
  ts::Shape in_shape = a.shape();
  return Variable::FromOp(a.value().Reshape(std::move(shape)).Clone(), {a},
                          [in_shape](Node& n) {
                            PushGrad(n, 0, n.grad.Reshape(in_shape));
                          });
}

Variable Permute(const Variable& a, const std::vector<int>& perm) {
  std::vector<int> inverse(perm.size());
  for (size_t i = 0; i < perm.size(); ++i) inverse[perm[i]] = static_cast<int>(i);
  return Variable::FromOp(ts::Permute(a.value(), perm), {a},
                          [inverse](Node& n) {
                            PushGrad(n, 0, ts::Permute(n.grad, inverse));
                          });
}

Variable Concat(const std::vector<Variable>& parts, int dim) {
  GEO_CHECK(!parts.empty());
  std::vector<ts::Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  ts::Tensor out = ts::Concat(values, dim);
  const int rank = parts[0].value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  std::vector<int64_t> sizes;
  sizes.reserve(parts.size());
  for (const Variable& p : parts) sizes.push_back(p.shape()[norm_dim]);
  return Variable::FromOp(
      std::move(out), parts, [sizes, norm_dim](Node& n) {
        int64_t offset = 0;
        for (size_t i = 0; i < sizes.size(); ++i) {
          PushGrad(n, i,
                   ts::Slice(n.grad, norm_dim, offset, offset + sizes[i]));
          offset += sizes[i];
        }
      });
}

Variable Slice(const Variable& a, int dim, int64_t start, int64_t end) {
  ts::Tensor out = ts::Slice(a.value(), dim, start, end);
  ts::Shape in_shape = a.shape();
  const int rank = a.value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  return Variable::FromOp(
      std::move(out), {a}, [in_shape, norm_dim, start](Node& n) {
        // Scatter the slice gradient back into a zero tensor.
        ts::Tensor gin = ts::Tensor::Zeros(in_shape);
        int64_t outer = 1;
        for (int d = 0; d < norm_dim; ++d) outer *= in_shape[d];
        int64_t inner = 1;
        for (int d = norm_dim + 1; d < static_cast<int>(in_shape.size()); ++d) {
          inner *= in_shape[d];
        }
        const int64_t in_dim = in_shape[norm_dim];
        const int64_t out_dim = n.grad.shape()[norm_dim];
        const float* pg = n.grad.data();
        float* po = gin.data();
        for (int64_t o = 0; o < outer; ++o) {
          std::memcpy(po + (o * in_dim + start) * inner,
                      pg + o * out_dim * inner,
                      sizeof(float) * out_dim * inner);
        }
        PushGrad(n, 0, gin);
      });
}

Variable Sum(const Variable& a, int dim, bool keepdim) {
  ts::Tensor out = ts::Sum(a.value(), dim, keepdim);
  ts::Shape in_shape = a.shape();
  const int rank = a.value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  return Variable::FromOp(
      std::move(out), {a}, [in_shape, norm_dim, keepdim](Node& n) {
        ts::Tensor g = n.grad;
        if (!keepdim) {
          ts::Shape kd = in_shape;
          kd[norm_dim] = 1;
          g = g.Reshape(kd);
        }
        PushGrad(n, 0, Broadcast(g, in_shape));
      });
}

Variable Mean(const Variable& a, int dim, bool keepdim) {
  const int rank = a.value().ndim();
  const int norm_dim = dim < 0 ? dim + rank : dim;
  const float inv = 1.0f / static_cast<float>(a.shape()[norm_dim]);
  return MulScalar(Sum(a, dim, keepdim), inv);
}

Variable SumAll(const Variable& a) {
  ts::Tensor out = ts::Tensor::Scalar(ts::SumAll(a.value()));
  ts::Shape in_shape = a.shape();
  return Variable::FromOp(std::move(out), {a}, [in_shape](Node& n) {
    PushGrad(n, 0, ts::Tensor::Full(in_shape, n.grad.flat(0)));
  });
}

Variable MeanAll(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  return MulScalar(SumAll(a), inv);
}

Variable Conv2d(const Variable& x, const Variable& w, const Variable& bias,
                const tensor::ConvSpec& spec) {
  const bool has_bias = bias.defined() && bias.numel() > 0;
  ts::Tensor out = ts::Conv2dForward(
      x.value(), w.value(), has_bias ? bias.value() : ts::Tensor(), spec);
  ts::Tensor vx = x.value();
  ts::Tensor vw = w.value();
  std::vector<Variable> parents = {x, w};
  if (has_bias) parents.push_back(bias);
  return Variable::FromOp(
      std::move(out), std::move(parents),
      [vx, vw, has_bias, spec](Node& n) {
        // Inputs that need no gradient (data, the first layer's input)
        // skip the grad_x conv entirely.
        const bool need_grad_x = n.parents[0]->requires_grad;
        ts::Conv2dGrads grads =
            ts::Conv2dBackward(n.grad, vx, vw, has_bias, spec, need_grad_x);
        if (need_grad_x) PushGrad(n, 0, grads.grad_x);
        PushGrad(n, 1, grads.grad_w);
        if (has_bias) PushGrad(n, 2, grads.grad_bias);
      });
}

Variable ConvTranspose2d(const Variable& x, const Variable& w,
                         const Variable& bias,
                         const tensor::ConvSpec& spec) {
  const bool has_bias = bias.defined() && bias.numel() > 0;
  ts::Tensor out = ts::ConvTranspose2dForward(
      x.value(), w.value(), has_bias ? bias.value() : ts::Tensor(), spec);
  ts::Tensor vx = x.value();
  ts::Tensor vw = w.value();
  std::vector<Variable> parents = {x, w};
  if (has_bias) parents.push_back(bias);
  return Variable::FromOp(
      std::move(out), std::move(parents),
      [vx, vw, has_bias, spec](Node& n) {
        ts::ConvTranspose2dGrads grads =
            ts::ConvTranspose2dBackward(n.grad, vx, vw, has_bias, spec);
        PushGrad(n, 0, grads.grad_x);
        PushGrad(n, 1, grads.grad_w);
        if (has_bias) PushGrad(n, 2, grads.grad_bias);
      });
}

Variable MaxPool2d(const Variable& x, int64_t kernel) {
  auto [out, argmax] = ts::MaxPool2dForward(x.value(), kernel);
  ts::Shape in_shape = x.shape();
  return Variable::FromOp(
      std::move(out), {x},
      [in_shape, argmax = std::move(argmax)](Node& n) {
        PushGrad(n, 0, ts::MaxPool2dBackward(n.grad, in_shape, argmax));
      });
}

Variable AvgPool2d(const Variable& x, int64_t kernel) {
  ts::Tensor out = ts::AvgPool2dForward(x.value(), kernel);
  ts::Shape in_shape = x.shape();
  return Variable::FromOp(std::move(out), {x}, [in_shape, kernel](Node& n) {
    PushGrad(n, 0, ts::AvgPool2dBackward(n.grad, in_shape, kernel));
  });
}

Variable UpsampleNearest2x(const Variable& x) {
  return Variable::FromOp(ts::UpsampleNearest2x(x.value()), {x},
                          [](Node& n) {
                            PushGrad(n, 0,
                                     ts::UpsampleNearest2xBackward(n.grad));
                          });
}

LstmState LstmGates(const Variable& gates, const Variable& c_prev) {
  const ts::Tensor& vg = gates.value();
  const ts::Tensor& vc = c_prev.value();
  GEO_CHECK_GE(vc.ndim(), 2);
  GEO_CHECK_GT(vc.numel(), 0);
  GEO_CHECK_EQ(vg.ndim(), vc.ndim());
  const int64_t n = vc.size(0);
  const int64_t block = vc.numel() / n;
  GEO_CHECK_EQ(vg.size(0), n);
  GEO_CHECK_EQ(vg.size(1), 4 * vc.size(1)) << "LstmGates wants 4·H gates";
  for (int d = 2; d < vc.ndim(); ++d) GEO_CHECK_EQ(vg.size(d), vc.size(d));

  // Per sample the gates hold blocks i, f, g, o of `block` elements;
  // `act` keeps their activations in the same layout for the backward.
  ts::Tensor act = ts::Tensor::Uninitialized(vg.shape());
  ts::Tensor c = ts::Tensor::Uninitialized(vc.shape());
  ts::Tensor tanh_c = ts::Tensor::Uninitialized(vc.shape());
  ts::Tensor h = ts::Tensor::Uninitialized(vc.shape());
  {
    const float* pg = vg.data();
    const float* pcp = vc.data();
    float* pa = act.data();
    float* pc = c.data();
    float* pt = tanh_c.data();
    float* ph = h.data();
    ts::RunRanges(n * block, [&](int64_t begin, int64_t end) {
      ForEachLstmSpan(begin, end, block, [&](int64_t e0, int64_t g0,
                                             int64_t len) {
        // The span kernels ts::Sigmoid / ts::Tanh run, so each
        // activation is bitwise the composed op's.
        for (int64_t q = 0; q < 4; ++q) {
          const float* src = pg + g0 + q * block;
          float* dst = pa + g0 + q * block;
          if (q == 2) {
            ts::TanhSpan(src, dst, len);
          } else {
            ts::SigmoidSpan(src, dst, len);
          }
        }
        const float* ai = pa + g0;
        for (int64_t k = 0; k < len; ++k) {
          const float fc = ai[k + block] * pcp[e0 + k];
          const float ig = ai[k] * ai[k + 2 * block];
          pc[e0 + k] = fc + ig;
        }
        ts::TanhSpan(pc + e0, pt + e0, len);
        for (int64_t k = 0; k < len; ++k) {
          ph[e0 + k] = ai[k + 3 * block] * pt[e0 + k];
        }
      });
    });
  }

  // Two nodes: C (value c; parents gates, c_prev) and H (value h; parent
  // C). Reverse topological order runs H's backward before C's, so H
  // leaves dL/d(o pre-activation) in `d_o` and C writes the whole gates
  // gradient in one push. If h gets no gradient, H never runs and the o
  // block's gradient is zero, as in the composed graph.
  auto d_o = std::make_shared<ts::Tensor>();
  ts::Tensor vcp = vc;
  LstmState out;
  out.c = Variable::FromOp(
      std::move(c), {gates, c_prev},
      [act, vcp, d_o, n, block](Node& node) {
        const bool want_gates = node.parents[0]->requires_grad;
        const bool want_c_prev = node.parents[1]->requires_grad;
        float* pdc = node.grad.data();
        const float* pa = act.data();
        const float* pcp = vcp.data();
        const float* pdo = d_o->numel() > 0 ? d_o->data() : nullptr;
        ts::Tensor dgates =
            want_gates ? ts::Tensor::Uninitialized(act.shape()) : ts::Tensor();
        float* pdg = want_gates ? dgates.data() : nullptr;
        ts::RunRanges(n * block, [&](int64_t begin, int64_t end) {
          ForEachLstmSpan(begin, end, block, [&](int64_t e0, int64_t g0,
                                                 int64_t len) {
            for (int64_t k = 0; k < len && pdg != nullptr; ++k) {
              const int64_t e = e0 + k;
              const int64_t gi = g0 + k;
              const float dc = pdc[e];
              const float i = pa[gi];
              const float f = pa[gi + block];
              const float g = pa[gi + 2 * block];
              // The composed graph sums four zero-padded slice
              // gradients; `+ 0.0f` reproduces its -0 → +0.
              pdg[gi] = ts::SigmoidGradScalar(dc * g, i) + 0.0f;
              pdg[gi + block] = ts::SigmoidGradScalar(dc * pcp[e], f) + 0.0f;
              pdg[gi + 2 * block] = ts::TanhGradScalar(dc * i, g) + 0.0f;
              pdg[gi + 3 * block] = pdo != nullptr ? pdo[e] + 0.0f : 0.0f;
            }
            // dL/dc_prev = dc·f, written over dc once the gates are done.
            for (int64_t k = 0; k < len && want_c_prev; ++k) {
              pdc[e0 + k] *= pa[g0 + k + block];
            }
          });
        });
        if (want_gates) PushGrad(node, 0, dgates);
        if (want_c_prev) PushGrad(node, 1, node.grad);
      });
  out.h = Variable::FromOp(
      std::move(h), {out.c},
      [act, tanh_c, d_o, n, block](Node& node) {
        *d_o = ts::Tensor::Uninitialized(tanh_c.shape());
        float* pdh = node.grad.data();
        const float* pa = act.data();
        const float* pt = tanh_c.data();
        float* pdo = d_o->data();
        ts::RunRanges(n * block, [&](int64_t begin, int64_t end) {
          ForEachLstmSpan(begin, end, block, [&](int64_t e0, int64_t g0,
                                                 int64_t len) {
            for (int64_t k = 0; k < len; ++k) {
              const int64_t e = e0 + k;
              const float o = pa[g0 + k + 3 * block];
              const float dh = pdh[e];
              pdo[e] = ts::SigmoidGradScalar(dh * pt[e], o);
              pdh[e] = ts::TanhGradScalar(dh * o, pt[e]);
            }
          });
        });
        PushGrad(node, 0, node.grad);
      });
  return out;
}

Variable Dropout(const Variable& x, float p, bool training, Rng& rng) {
  if (!training || p <= 0.0f) return x;
  GEO_CHECK_LT(p, 1.0f);
  const float scale = 1.0f / (1.0f - p);
  ts::Tensor mask = ts::Tensor::Uninitialized(x.shape());
  float* pm = mask.data();
  for (int64_t i = 0; i < mask.numel(); ++i) {
    pm[i] = rng.Bernoulli(p) ? 0.0f : scale;
  }
  ts::Tensor out = ts::Mul(x.value(), mask);
  return Variable::FromOp(std::move(out), {x}, [mask](Node& n) {
    ts::MulInPlace(n.grad, mask);
    PushGrad(n, 0, n.grad);
  });
}

Variable MseLoss(const Variable& pred, const tensor::Tensor& target) {
  GEO_CHECK(ts::SameShape(pred.shape(), target.shape()))
      << "MseLoss shapes " << ts::ShapeToString(pred.shape()) << " vs "
      << ts::ShapeToString(target.shape());
  ts::Tensor diff = ts::Sub(pred.value(), target);
  const float n_inv = 1.0f / static_cast<float>(diff.numel());
  ts::Tensor out =
      ts::Tensor::Scalar(ts::SumAll(ts::Mul(diff, diff)) * n_inv);
  return Variable::FromOp(std::move(out), {pred}, [diff, n_inv](Node& n) {
    const float s = 2.0f * n_inv * n.grad.flat(0);
    PushGrad(n, 0, ts::MulScalar(diff, s));
  });
}

Variable CrossEntropyLoss(const Variable& logits,
                          const tensor::Tensor& target) {
  const ts::Tensor& z = logits.value();
  GEO_CHECK_GE(z.ndim(), 2);
  const int64_t c = z.size(1);
  // Positions = batch x spatial.
  int64_t outer = z.size(0);
  int64_t inner = 1;
  for (int d = 2; d < z.ndim(); ++d) inner *= z.size(d);
  GEO_CHECK_EQ(target.numel(), outer * inner)
      << "CrossEntropyLoss target count mismatch";

  ts::Tensor logp = ts::LogSoftmax(z, 1);
  const float* plp = logp.data();
  const float* pt = target.data();
  double loss = 0.0;
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t i = 0; i < inner; ++i) {
      const int64_t cls = static_cast<int64_t>(pt[o * inner + i]);
      GEO_CHECK(cls >= 0 && cls < c) << "class id " << cls << " out of range";
      loss -= plp[(o * c + cls) * inner + i];
    }
  }
  const int64_t count = outer * inner;
  ts::Tensor out =
      ts::Tensor::Scalar(static_cast<float>(loss / static_cast<double>(count)));
  ts::Tensor tgt = target;
  return Variable::FromOp(
      std::move(out), {logits}, [logp, tgt, c, outer, inner, count](Node& n) {
        // d/dz = (softmax - onehot) / count.
        ts::Tensor grad = ts::Exp(logp);
        float* pg = grad.data();
        const float* pt2 = tgt.data();
        for (int64_t o = 0; o < outer; ++o) {
          for (int64_t i = 0; i < inner; ++i) {
            const int64_t cls = static_cast<int64_t>(pt2[o * inner + i]);
            pg[(o * c + cls) * inner + i] -= 1.0f;
          }
        }
        const float s = n.grad.flat(0) / static_cast<float>(count);
        grad.ScaleInPlace(s);
        PushGrad(n, 0, grad);
      });
}

Variable BceWithLogitsLoss(const Variable& logits,
                           const tensor::Tensor& target) {
  const ts::Tensor& z = logits.value();
  GEO_CHECK(ts::SameShape(z.shape(), target.shape()));
  const float* pz = z.data();
  const float* pt = target.data();
  double loss = 0.0;
  for (int64_t i = 0; i < z.numel(); ++i) {
    const double zi = pz[i];
    const double yi = pt[i];
    loss += std::max(zi, 0.0) - zi * yi + std::log1p(std::exp(-std::fabs(zi)));
  }
  const int64_t count = z.numel();
  ts::Tensor out =
      ts::Tensor::Scalar(static_cast<float>(loss / static_cast<double>(count)));
  ts::Tensor vz = z;
  ts::Tensor tgt = target;
  return Variable::FromOp(std::move(out), {logits},
                          [vz, tgt, count](Node& n) {
                            ts::Tensor grad = ts::Sub(ts::Sigmoid(vz), tgt);
                            grad.ScaleInPlace(n.grad.flat(0) /
                                              static_cast<float>(count));
                            PushGrad(n, 0, grad);
                          });
}

}  // namespace geotorch::autograd
