#include "nn/layers.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "nn/init.h"
#include "tensor/ops.h"
#include "tests/gradcheck.h"

namespace geotorch::nn {
namespace {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;

TEST(ModuleTest, ParameterRegistration) {
  Rng rng(1);
  Linear layer(4, 3, rng);
  EXPECT_EQ(layer.Parameters().size(), 2u);  // weight + bias
  EXPECT_EQ(layer.NumParameters(), 4 * 3 + 3);
  auto named = layer.NamedParameters();
  EXPECT_EQ(named[0].first, "weight");
  EXPECT_EQ(named[1].first, "bias");
}

TEST(ModuleTest, ChildModulesAggregate) {
  Rng rng(2);
  Sequential seq;
  seq.Emplace<Linear>(4, 8, rng).Emplace<ReluLayer>().Emplace<Linear>(8, 2,
                                                                      rng);
  EXPECT_EQ(seq.Parameters().size(), 4u);
  auto named = seq.NamedParameters();
  EXPECT_EQ(named[0].first, "layer0.weight");
  EXPECT_EQ(named[2].first, "layer2.weight");
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(3);
  Sequential seq;
  seq.Emplace<Linear>(2, 2, rng).Emplace<Dropout>(0.5f);
  seq.SetTraining(false);
  EXPECT_FALSE(seq.training());
  // Dropout in eval mode is identity.
  ag::Variable x(ts::Tensor::Ones({4, 2}));
  ag::Variable y1 = seq.Forward(x);
  ag::Variable y2 = seq.Forward(x);
  EXPECT_TRUE(ts::AllClose(y1.value(), y2.value()));
}

TEST(InitTest, KaimingBounds) {
  Rng rng(4);
  ts::Tensor w = KaimingUniform({100, 100}, 100, rng);
  const float bound = std::sqrt(6.0f / 100.0f);
  EXPECT_LE(ts::MaxAll(w), bound);
  EXPECT_GE(ts::MinAll(w), -bound);
  EXPECT_NEAR(ts::MeanAll(w), 0.0f, 0.02f);
}

TEST(InitTest, ConvFanIn) {
  EXPECT_EQ(ConvFanIn({16, 3, 5, 5}), 75);
  EXPECT_EQ(ConvFanIn({10, 20}), 20);
}

TEST(LinearTest, ForwardShapeAndValue) {
  Rng rng(5);
  Linear layer(3, 2, rng);
  ag::Variable x(ts::Tensor::Ones({4, 3}));
  ag::Variable y = layer.Forward(x);
  EXPECT_EQ(y.shape(), (ts::Shape{4, 2}));
  // All rows identical for identical inputs.
  EXPECT_EQ(y.value().at({0, 0}), y.value().at({3, 0}));
}

TEST(Conv2dTest, ShapesWithStridePadding) {
  Rng rng(6);
  Conv2d same(3, 8, 3, rng, 1, 1);
  ag::Variable x(ts::Tensor::Ones({2, 3, 10, 10}));
  EXPECT_EQ(same.Forward(x).shape(), (ts::Shape{2, 8, 10, 10}));

  Conv2d down(3, 8, 3, rng, 2, 1);
  EXPECT_EQ(down.Forward(x).shape(), (ts::Shape{2, 8, 5, 5}));
}

TEST(ConvTranspose2dTest, UpsamplesByStride) {
  Rng rng(7);
  ConvTranspose2d up(4, 2, 2, rng, 2, 0);
  ag::Variable x(ts::Tensor::Ones({1, 4, 5, 5}));
  EXPECT_EQ(up.Forward(x).shape(), (ts::Shape{1, 2, 10, 10}));
}

TEST(BatchNormTest, NormalizesTrainingBatch) {
  BatchNorm2d bn(3);
  Rng rng(8);
  ag::Variable x(ts::Tensor::Randn({8, 3, 4, 4}, rng, 5.0f, 2.0f));
  bn.SetTraining(true);
  ag::Variable y = bn.Forward(x);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  ts::Tensor m =
      ts::Mean(ts::Mean(ts::Mean(y.value(), 0, true), 2, true), 3, true);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(m.flat(c), 0.0f, 1e-4);
  }
  ts::Tensor sq = ts::Mul(y.value(), y.value());
  ts::Tensor v =
      ts::Mean(ts::Mean(ts::Mean(sq, 0, true), 2, true), 3, true);
  for (int64_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(v.flat(c), 1.0f, 0.05f);
  }
}

TEST(BatchNormTest, RunningStatsConvergeAndEvalUsesThem) {
  BatchNorm2d bn(1);
  Rng rng(9);
  bn.SetTraining(true);
  for (int i = 0; i < 60; ++i) {
    ag::Variable x(ts::Tensor::Randn({16, 1, 2, 2}, rng, 3.0f, 1.0f));
    bn.Forward(x);
  }
  EXPECT_NEAR(bn.running_mean().flat(0), 3.0f, 0.3f);
  EXPECT_NEAR(bn.running_var().flat(0), 1.0f, 0.3f);

  bn.SetTraining(false);
  // A constant eval input normalizes against the running stats.
  ag::Variable x(ts::Tensor::Full({2, 1, 2, 2}, 3.0f));
  ag::Variable y = bn.Forward(x);
  EXPECT_NEAR(y.value().flat(0), 0.0f, 0.3f);
}

TEST(BatchNormTest, GradientFlowsThroughTraining) {
  using ::geotorch::testing::GradCheck;
  Rng rng(10);
  ts::Tensor x = ts::Tensor::Randn({4, 2, 3, 3}, rng);
  BatchNorm2d bn(2);
  bn.SetTraining(true);
  const double err = GradCheck(
      [&bn](const std::vector<ag::Variable>& v) {
        return ag::MeanAll(ag::Mul(bn.Forward(v[0]), bn.Forward(v[0])));
      },
      {x}, 1e-3);
  EXPECT_LT(err, 5e-2);
}

TEST(ConvLstmCellTest, StateShapesAndEvolution) {
  Rng rng(11);
  ConvLstmCell cell(2, 4, 3, rng);
  auto state = cell.InitialState(3, 8, 8);
  EXPECT_EQ(state.h.shape(), (ts::Shape{3, 4, 8, 8}));
  EXPECT_EQ(ts::SumAll(state.h.value()), 0.0f);

  ag::Variable x(ts::Tensor::Randn({3, 2, 8, 8}, rng));
  auto next = cell.Step(x, state);
  EXPECT_EQ(next.h.shape(), (ts::Shape{3, 4, 8, 8}));
  EXPECT_NE(ts::SumAll(next.h.value()), 0.0f);
  // Hidden state is bounded by tanh.
  EXPECT_LE(ts::MaxAll(next.h.value()), 1.0f);
  EXPECT_GE(ts::MinAll(next.h.value()), -1.0f);
}

TEST(ConvLstmCellTest, BackpropThroughTime) {
  Rng rng(12);
  ConvLstmCell cell(1, 2, 3, rng);
  ag::Variable x(ts::Tensor::Randn({1, 1, 4, 4}, rng), true);
  auto state = cell.InitialState(1, 4, 4);
  for (int t = 0; t < 3; ++t) state = cell.Step(x, state);
  ag::Variable loss = ag::MeanAll(ag::Mul(state.h, state.h));
  loss.Backward();
  EXPECT_TRUE(x.has_grad());
  // Every cell parameter received a gradient.
  for (auto& p : cell.Parameters()) EXPECT_TRUE(p.has_grad());
}

// --- Fused LSTM gate step vs the composed ops it replaced ------------------

// The gate math as the cells wrote it before autograd::LstmGates: four
// slices, three sigmoids, two tanhs, two products and a sum for c, one
// product for h.
ag::LstmState ComposedGates(const ag::Variable& gates,
                            const ag::Variable& c_prev) {
  const int64_t hs = c_prev.shape()[1];
  ag::Variable i = ag::Sigmoid(ag::Slice(gates, 1, 0, hs));
  ag::Variable f = ag::Sigmoid(ag::Slice(gates, 1, hs, 2 * hs));
  ag::Variable g = ag::Tanh(ag::Slice(gates, 1, 2 * hs, 3 * hs));
  ag::Variable o = ag::Sigmoid(ag::Slice(gates, 1, 3 * hs, 4 * hs));
  ag::LstmState next;
  next.c = ag::Add(ag::Mul(f, c_prev), ag::Mul(i, g));
  next.h = ag::Mul(o, ag::Tanh(next.c));
  return next;
}

ag::Variable Param(const Module& m, const std::string& name) {
  for (const auto& [n, p] : m.NamedParameters()) {
    if (n == name) return p;
  }
  ADD_FAILURE() << "no parameter " << name;
  return ag::Variable();
}

std::vector<uint32_t> Bits(const ts::Tensor& t) {
  std::vector<uint32_t> bits(t.numel());
  std::memcpy(bits.data(), t.data(), sizeof(float) * t.numel());
  return bits;
}

// Runs one recurrent step per input from a zero state through `step`
// and backpropagates a loss over the first channel of every hidden
// state and the whole final cell state. Returns the bits of each step's
// h, the final c, and the gradients of the parameters and of the input
// sequence.
template <typename StepFn>
std::vector<std::vector<uint32_t>> UnrollBits(
    Module& cell, std::vector<ag::Variable> xs, ag::Variable h,
    ag::Variable c, const StepFn& step) {
  for (ag::Variable& p : cell.Parameters()) p.ZeroGrad();
  for (ag::Variable& x : xs) x.ZeroGrad();
  std::vector<std::vector<uint32_t>> out;
  ag::Variable loss;
  for (const ag::Variable& x : xs) {
    ag::LstmState next = step(x, h, c);
    h = next.h;
    c = next.c;
    out.push_back(Bits(h.value()));
    ag::Variable term = ag::MeanAll(ag::Slice(h, 1, 0, 1));
    loss = loss.defined() ? ag::Add(loss, term) : term;
  }
  out.push_back(Bits(c.value()));
  loss = ag::Add(loss, ag::MeanAll(c));
  loss.Backward();
  for (const ag::Variable& p : cell.Parameters()) out.push_back(Bits(p.grad()));
  for (const ag::Variable& x : xs) out.push_back(Bits(x.grad()));
  return out;
}

// The op on leaf inputs, so the gates gradient itself is compared. The
// loss reads one channel of h: the others get dL/dh = +0, and their
// o-gate gradient (+0·tanh(c))·σ'(o) is -0 wherever tanh(c) < 0, which
// the composed graph's sum of zero-padded slice gradients turns into +0.
TEST(LstmGatesTest, GatesGradientBitwiseMatchesComposedOps) {
  Rng rng(30);
  const ts::Tensor gates = ts::Tensor::Randn({2, 12, 4, 3}, rng);
  const ts::Tensor c_prev = ts::Tensor::Randn({2, 3, 4, 3}, rng);
  std::vector<std::vector<uint32_t>> runs[2];
  for (int composed = 0; composed < 2; ++composed) {
    ag::Variable g(gates, true);
    ag::Variable c(c_prev, true);
    const ag::LstmState out =
        composed ? ComposedGates(g, c) : ag::LstmGates(g, c);
    ag::Add(ag::MeanAll(ag::Slice(out.h, 1, 0, 1)), ag::MeanAll(out.c))
        .Backward();
    runs[composed] = {Bits(out.h.value()), Bits(out.c.value()),
                      Bits(g.grad()), Bits(c.grad())};
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(LstmGatesTest, ConvLstmCellBitwiseMatchesComposedOps) {
  Rng rng(31);
  ConvLstmCell cell(2, 3, 3, rng);
  std::vector<ag::Variable> xs;
  for (int t = 0; t < 4; ++t) {
    xs.emplace_back(ts::Tensor::Randn({2, 2, 6, 5}, rng), true);
  }
  const auto zero = cell.InitialState(2, 6, 5);
  const auto fused = UnrollBits(
      cell, xs, zero.h, zero.c,
      [&](const ag::Variable& x, const ag::Variable& h,
          const ag::Variable& c) {
        return cell.Step(x, {h, c});
      });
  const ts::ConvSpec spec{1, 1};
  const ag::Variable w_x = Param(cell, "w_x");
  const ag::Variable w_h = Param(cell, "w_h");
  const ag::Variable bias = Param(cell, "bias");
  const auto composed = UnrollBits(
      cell, xs, zero.h, zero.c,
      [&](const ag::Variable& x, const ag::Variable& h,
          const ag::Variable& c) {
        ag::Variable gates = ag::Add(ag::Conv2d(x, w_x, bias, spec),
                                     ag::Conv2d(h, w_h, ag::Variable(), spec));
        return ComposedGates(gates, c);
      });
  ASSERT_EQ(fused.size(), composed.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], composed[i]) << "output " << i;
  }
}

TEST(LstmGatesTest, LstmCellBitwiseMatchesComposedOps) {
  Rng rng(32);
  LstmCell cell(5, 4, rng);
  std::vector<ag::Variable> xs;
  for (int t = 0; t < 5; ++t) {
    xs.emplace_back(ts::Tensor::Randn({3, 5}, rng), true);
  }
  const auto zero = cell.InitialState(3);
  const auto fused = UnrollBits(
      cell, xs, zero.h, zero.c,
      [&](const ag::Variable& x, const ag::Variable& h,
          const ag::Variable& c) {
        return cell.Step(x, {h, c});
      });
  const ag::Variable w_x = Param(cell, "w_x");
  const ag::Variable w_h = Param(cell, "w_h");
  const ag::Variable bias = Param(cell, "bias");
  const auto composed = UnrollBits(
      cell, xs, zero.h, zero.c,
      [&](const ag::Variable& x, const ag::Variable& h,
          const ag::Variable& c) {
        ag::Variable gates =
            ag::Add(ag::Add(ag::MatMul(x, w_x), ag::MatMul(h, w_h)), bias);
        return ComposedGates(gates, c);
      });
  ASSERT_EQ(fused.size(), composed.size());
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], composed[i]) << "output " << i;
  }
}

TEST(SequentialTest, RunsLayersInOrder) {
  Rng rng(13);
  Sequential seq;
  seq.Emplace<Conv2d>(1, 2, 3, rng, 1, 1)
      .Emplace<ReluLayer>()
      .Emplace<MaxPool2d>(2)
      .Emplace<Flatten>();
  ag::Variable x(ts::Tensor::Ones({2, 1, 8, 8}));
  ag::Variable y = seq.Forward(x);
  EXPECT_EQ(y.shape(), (ts::Shape{2, 2 * 4 * 4}));
  EXPECT_GE(ts::MinAll(y.value()), 0.0f);  // post-ReLU
}

TEST(NnModulesTest, FlattenAndUpsample) {
  Flatten flatten;
  ag::Variable x(ts::Tensor::Ones({3, 2, 4, 4}));
  EXPECT_EQ(flatten.Forward(x).shape(), (ts::Shape{3, 32}));

  Upsample2x up;
  EXPECT_EQ(up.Forward(x).shape(), (ts::Shape{3, 2, 8, 8}));
}

TEST(LstmCellTest, StateEvolvesAndIsBounded) {
  Rng rng(1);
  LstmCell cell(6, 4, rng);
  auto state = cell.InitialState(3);
  EXPECT_EQ(state.h.shape(), (ts::Shape{3, 4}));
  EXPECT_EQ(ts::SumAll(state.h.value()), 0.0f);
  ag::Variable x(ts::Tensor::Randn({3, 6}, rng));
  auto next = cell.Step(x, state);
  EXPECT_NE(ts::SumAll(next.h.value()), 0.0f);
  EXPECT_LE(ts::MaxAll(next.h.value()), 1.0f);
  EXPECT_GE(ts::MinAll(next.h.value()), -1.0f);
}

TEST(LstmCellTest, BackpropThroughTime) {
  Rng rng(2);
  LstmCell cell(3, 2, rng);
  ag::Variable x(ts::Tensor::Randn({2, 3}, rng), true);
  auto state = cell.InitialState(2);
  for (int t = 0; t < 4; ++t) state = cell.Step(x, state);
  ag::Variable loss = ag::MeanAll(ag::Mul(state.h, state.h));
  loss.Backward();
  EXPECT_TRUE(x.has_grad());
  for (auto& p : cell.Parameters()) EXPECT_TRUE(p.has_grad());
}

}  // namespace
}  // namespace geotorch::nn
