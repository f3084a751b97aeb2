#ifndef GEOTORCH_AUTOGRAD_OPS_H_
#define GEOTORCH_AUTOGRAD_OPS_H_

#include <vector>

#include "autograd/variable.h"
#include "core/rng.h"
#include "tensor/conv.h"

namespace geotorch::autograd {

// Differentiable ops over Variables. Each mirrors the tensor-level op of
// the same name and registers a tape node when gradients are enabled.

// --- Elementwise (NumPy broadcasting) ------------------------------------
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);
/// a^p with scalar p (a must stay positive for non-integral p).
Variable PowScalar(const Variable& a, float p);

Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Relu(const Variable& a);
Variable LeakyRelu(const Variable& a, float slope = 0.01f);
Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);

// --- Linear algebra & layout ----------------------------------------------
Variable MatMul(const Variable& a, const Variable& b);
Variable Reshape(const Variable& a, tensor::Shape shape);
Variable Permute(const Variable& a, const std::vector<int>& perm);
Variable Concat(const std::vector<Variable>& parts, int dim);
Variable Slice(const Variable& a, int dim, int64_t start, int64_t end);

// --- Reductions --------------------------------------------------------------
Variable Sum(const Variable& a, int dim, bool keepdim);
Variable Mean(const Variable& a, int dim, bool keepdim);
/// Reduces everything to a single-element tensor.
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);

// --- Spatial ops ---------------------------------------------------------------
/// x: (N,C,H,W), w: (F,C,KH,KW), bias: (F)-shaped Variable or empty.
Variable Conv2d(const Variable& x, const Variable& w, const Variable& bias,
                const tensor::ConvSpec& spec);
/// x: (N,C,H,W), w: (C,F,KH,KW).
Variable ConvTranspose2d(const Variable& x, const Variable& w,
                         const Variable& bias, const tensor::ConvSpec& spec);
Variable MaxPool2d(const Variable& x, int64_t kernel);
Variable AvgPool2d(const Variable& x, int64_t kernel);
Variable UpsampleNearest2x(const Variable& x);

// --- Recurrent cells -----------------------------------------------------------
/// Hidden and cell state of an LSTM / ConvLSTM step.
struct LstmState {
  Variable h;
  Variable c;
};
/// One fused LSTM / ConvLSTM gate step. gates: (N, 4·H, ...) holding the
/// i, f, g, o pre-activations in that order along dim 1; c_prev:
/// (N, H, ...). Computes c = σ(f)·c_prev + σ(i)·tanh(g) and
/// h = σ(o)·tanh(c) in one pass, with the span kernels and scalar
/// formulas of the composed Sigmoid/Tanh/Mul/Add ops, so values and
/// gradients are bitwise those of the composed graph. The backward reads the saved
/// activations instead of re-evaluating them.
LstmState LstmGates(const Variable& gates, const Variable& c_prev);

// --- Regularization --------------------------------------------------------
/// Inverted dropout: active only when `training`; scales by 1/(1-p).
Variable Dropout(const Variable& x, float p, bool training, Rng& rng);

// --- Losses (targets are plain tensors: no gradient flows into them) ----
/// mean((pred - target)^2), a scalar.
Variable MseLoss(const Variable& pred, const tensor::Tensor& target);
/// Softmax cross entropy over dim 1. logits: (N,C) or (N,C,H,W);
/// target holds integer class ids, shaped (N) or (N,H,W).
Variable CrossEntropyLoss(const Variable& logits,
                          const tensor::Tensor& target);
/// Numerically stable binary cross entropy on logits; target in {0,1}
/// with the same shape.
Variable BceWithLogitsLoss(const Variable& logits,
                           const tensor::Tensor& target);

}  // namespace geotorch::autograd

#endif  // GEOTORCH_AUTOGRAD_OPS_H_
