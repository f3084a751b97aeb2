#include "transforms/transforms.h"

#include <gtest/gtest.h>

#include "core/rng.h"
#include "tensor/ops.h"

namespace geotorch::transforms {
namespace {

namespace ts = ::geotorch::tensor;

ts::Tensor SampleImage() {
  // 2 bands of 2x2.
  return ts::Tensor::FromVector({2, 2, 2}, {3, 1, 2, 4,    // band 0
                                            1, 1, 2, 0});  // band 1
}

TEST(TransformsTest, AppendNdi) {
  ts::Tensor out = AppendNormalizedDifferenceIndex(0, 1)(SampleImage());
  EXPECT_EQ(out.shape(), (ts::Shape{3, 2, 2}));
  EXPECT_NEAR(out.at({2, 0, 0}), 0.5f, 1e-6);   // (3-1)/4
  EXPECT_NEAR(out.at({2, 0, 1}), 0.0f, 1e-6);   // (1-1)/2
  EXPECT_NEAR(out.at({2, 1, 1}), 1.0f, 1e-6);   // (4-0)/4
  // Original bands untouched.
  EXPECT_EQ(out.at({0, 0, 0}), 3.0f);
}

TEST(TransformsTest, NormalizePerChannel) {
  Transform t = Normalize({2.0f, 1.0f}, {2.0f, 0.5f});
  ts::Tensor out = t(SampleImage());
  EXPECT_NEAR(out.at({0, 0, 0}), 0.5f, 1e-6);   // (3-2)/2
  EXPECT_NEAR(out.at({1, 0, 0}), 0.0f, 1e-6);   // (1-1)/0.5
  EXPECT_NEAR(out.at({1, 1, 0}), 2.0f, 1e-6);   // (2-1)/0.5
}

TEST(TransformsTest, MinMaxScale) {
  ts::Tensor out = MinMaxScale(0.0f, 1.0f)(SampleImage());
  EXPECT_EQ(ts::MinAll(out), 0.0f);
  EXPECT_EQ(ts::MaxAll(out), 1.0f);
  ts::Tensor constant = ts::Tensor::Full({1, 2, 2}, 9.0f);
  ts::Tensor flat = MinMaxScale(0.0f, 1.0f)(constant);
  EXPECT_EQ(ts::MaxAll(flat), 0.0f);
}

TEST(TransformsTest, SelectBands) {
  ts::Tensor out = SelectBands({1})(SampleImage());
  EXPECT_EQ(out.shape(), (ts::Shape{1, 2, 2}));
  EXPECT_EQ(out.at({0, 1, 0}), 2.0f);
  ts::Tensor swapped = SelectBands({1, 0})(SampleImage());
  EXPECT_EQ(swapped.at({0, 0, 0}), 1.0f);
  EXPECT_EQ(swapped.at({1, 0, 0}), 3.0f);
}

TEST(TransformsTest, ComposeChains) {
  Transform t = Compose({AppendNormalizedDifferenceIndex(0, 1),
                         SelectBands({2})});
  ts::Tensor out = t(SampleImage());
  EXPECT_EQ(out.shape(), (ts::Shape{1, 2, 2}));
  EXPECT_NEAR(out.at({0, 0, 0}), 0.5f, 1e-6);
}

TEST(TransformsTest, RandomFlipAlwaysAndNever) {
  ts::Tensor img = SampleImage();
  ts::Tensor never = RandomHorizontalFlip(0.0f)(img);
  EXPECT_TRUE(ts::AllClose(never, img));
  ts::Tensor always = RandomHorizontalFlip(1.0f)(img);
  EXPECT_EQ(always.at({0, 0, 0}), img.at({0, 0, 1}));
  EXPECT_EQ(always.at({0, 0, 1}), img.at({0, 0, 0}));
  // Double flip is identity.
  EXPECT_TRUE(ts::AllClose(RandomHorizontalFlip(1.0f)(always), img));
}

TEST(TransformsTest, GaussianNoisePerturbsDeterministically) {
  ts::Tensor img = ts::Tensor::Zeros({1, 8, 8});
  ts::Tensor a = GaussianNoise(0.1f, 3)(img);
  ts::Tensor b = GaussianNoise(0.1f, 3)(img);
  EXPECT_TRUE(ts::AllClose(a, b));
  EXPECT_GT(ts::MaxAll(ts::Abs(a)), 0.0f);
  EXPECT_NEAR(ts::MeanAll(a), 0.0f, 0.05f);
}

TEST(GlcmTransformTest, AppendsChannels) {
  Rng rng(7);
  ts::Tensor img = ts::Tensor::Rand({3, 16, 16}, rng);
  ts::Tensor with_contrast = AppendGlcmContrastChannel(0)(img);
  EXPECT_EQ(with_contrast.size(0), 4);
  // Constant channel.
  ts::Tensor chan = ts::Slice(with_contrast, 0, 3, 4);
  EXPECT_EQ(ts::MinAll(chan), ts::MaxAll(chan));

  ts::Tensor with_features = AppendGlcmFeatureChannels(1, 32)(img);
  EXPECT_EQ(with_features.size(0), 9);  // 3 + 6 features
}

}  // namespace
}  // namespace geotorch::transforms
