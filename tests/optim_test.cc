#include "optim/optimizer.h"

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "tensor/ops.h"

namespace geotorch::optim {
namespace {

namespace ag = ::geotorch::autograd;
namespace ts = ::geotorch::tensor;

// Minimizes ||w - target||^2 with the given optimizer; returns final w.
template <typename Opt>
ts::Tensor Minimize(Opt& opt, ag::Variable& w, const ts::Tensor& target,
                    int steps) {
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    ag::Variable loss = ag::MseLoss(w, target);
    loss.Backward();
    opt.Step();
  }
  return w.value();
}

TEST(SgdTest, ConvergesOnQuadratic) {
  ag::Variable w(ts::Tensor::Zeros({4}), true);
  ts::Tensor target = ts::Tensor::FromVector({4}, {1, -2, 3, 0.5f});
  Sgd opt({w}, /*lr=*/0.5f);
  ts::Tensor result = Minimize(opt, w, target, 100);
  EXPECT_TRUE(ts::AllClose(result, target, 1e-3f, 1e-3f));
}

TEST(SgdTest, MomentumAccelerates) {
  ts::Tensor target = ts::Tensor::Full({4}, 2.0f);
  ag::Variable w1(ts::Tensor::Zeros({4}), true);
  Sgd plain({w1}, 0.05f);
  Minimize(plain, w1, target, 30);

  ag::Variable w2(ts::Tensor::Zeros({4}), true);
  Sgd momentum({w2}, 0.05f, /*momentum=*/0.9f);
  Minimize(momentum, w2, target, 30);

  const float err1 = ts::MeanAll(ts::Abs(ts::Sub(w1.value(), target)));
  const float err2 = ts::MeanAll(ts::Abs(ts::Sub(w2.value(), target)));
  EXPECT_LT(err2, err1);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  ag::Variable w(ts::Tensor::Zeros({3}), true);
  ts::Tensor target = ts::Tensor::FromVector({3}, {4, -4, 0.25f});
  Adam opt({w}, /*lr=*/0.2f);
  ts::Tensor result = Minimize(opt, w, target, 200);
  EXPECT_TRUE(ts::AllClose(result, target, 1e-2f, 1e-2f));
}

TEST(AdamTest, WeightDecayShrinksSolution) {
  ts::Tensor target = ts::Tensor::Full({2}, 10.0f);
  ag::Variable w1(ts::Tensor::Zeros({2}), true);
  Adam plain({w1}, 0.3f);
  Minimize(plain, w1, target, 300);
  ag::Variable w2(ts::Tensor::Zeros({2}), true);
  Adam decayed({w2}, 0.3f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.5f);
  Minimize(decayed, w2, target, 300);
  EXPECT_LT(ts::MeanAll(w2.value()), ts::MeanAll(w1.value()));
}

TEST(OptimizerTest, SkipsParamsWithoutGrad) {
  ag::Variable used(ts::Tensor::Zeros({2}), true);
  ag::Variable unused(ts::Tensor::Full({2}, 7.0f), true);
  Adam opt({used, unused}, 0.1f);
  ag::Variable loss = ag::MseLoss(used, ts::Tensor::Ones({2}));
  loss.Backward();
  opt.Step();
  EXPECT_TRUE(ts::AllClose(unused.value(), ts::Tensor::Full({2}, 7.0f)));
  EXPECT_GT(used.value().flat(0), 0.0f);
}

TEST(OptimizerTest, ClipGradNorm) {
  ag::Variable w(ts::Tensor::Zeros({4}), true);
  Sgd opt({w}, 0.1f);
  // Gradient of sum(100*w) is 100 per element -> norm 200.
  ag::Variable loss = ag::SumAll(ag::MulScalar(w, 100.0f));
  loss.Backward();
  const float norm = opt.ClipGradNorm(1.0f);
  EXPECT_NEAR(norm, 200.0f, 1e-2);
  // Post-clip norm is 1.
  double post = 0;
  for (int64_t i = 0; i < 4; ++i) {
    post += w.grad().flat(i) * w.grad().flat(i);
  }
  EXPECT_NEAR(std::sqrt(post), 1.0, 1e-4);
}

TEST(StepLrSchedulerTest, DecaysOnSchedule) {
  ag::Variable w(ts::Tensor::Zeros({1}), true);
  Sgd opt({w}, 1.0f);
  StepLrScheduler sched(&opt, /*step_size=*/2, /*gamma=*/0.1f);
  sched.Step();
  EXPECT_FLOAT_EQ(opt.lr(), 1.0f);
  sched.Step();
  EXPECT_FLOAT_EQ(opt.lr(), 0.1f);
  sched.Step();
  sched.Step();
  EXPECT_NEAR(opt.lr(), 0.01f, 1e-6);
}

TEST(EarlyStoppingTest, StopsAfterPatience) {
  EarlyStopping stopper(/*patience=*/2);
  EXPECT_FALSE(stopper.Update(1.0f));
  EXPECT_FALSE(stopper.Update(0.5f));  // improvement
  EXPECT_FALSE(stopper.Update(0.6f));  // bad 1
  EXPECT_TRUE(stopper.Update(0.7f));   // bad 2 -> stop
  EXPECT_TRUE(stopper.should_stop());
  EXPECT_FLOAT_EQ(stopper.best(), 0.5f);
}

TEST(EarlyStoppingTest, ImprovementResetsCounter) {
  EarlyStopping stopper(2);
  stopper.Update(1.0f);
  stopper.Update(1.1f);   // bad 1
  stopper.Update(0.9f);   // improvement resets
  stopper.Update(1.0f);   // bad 1
  EXPECT_FALSE(stopper.should_stop());
}

TEST(RmsPropTest, ConvergesOnQuadratic) {
  ag::Variable w(ts::Tensor::Zeros({3}), true);
  ts::Tensor target = ts::Tensor::FromVector({3}, {1, -2, 0.5f});
  RmsProp opt({w}, 0.05f);
  for (int i = 0; i < 300; ++i) {
    opt.ZeroGrad();
    ag::Variable loss = ag::MseLoss(w, target);
    loss.Backward();
    opt.Step();
  }
  EXPECT_TRUE(ts::AllClose(w.value(), target, 1e-2f, 1e-2f));
}

TEST(CosineSchedulerTest, AnnealsToMinLr) {
  ag::Variable w(ts::Tensor::Zeros({1}), true);
  Sgd opt({w}, 1.0f);
  CosineLrScheduler sched(&opt, /*total_epochs=*/10, /*min_lr=*/0.1f);
  float prev = opt.lr();
  for (int e = 0; e < 10; ++e) {
    sched.Step();
    EXPECT_LE(opt.lr(), prev + 1e-6f);  // monotone decay
    prev = opt.lr();
  }
  EXPECT_NEAR(opt.lr(), 0.1f, 1e-5f);
  sched.Step();  // past the horizon: stays at min
  EXPECT_NEAR(opt.lr(), 0.1f, 1e-5f);
}

}  // namespace
}  // namespace geotorch::optim
