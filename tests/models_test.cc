#include "models/grid_models.h"

#include <gtest/gtest.h>

#include "data/dataloader.h"
#include "data/dataset.h"
#include "datasets/benchmarks.h"
#include "datasets/grid_dataset.h"
#include "models/raster_models.h"
#include "models/segmentation_models.h"
#include "models/trainer.h"
#include "optim/optimizer.h"
#include "synth/weather.h"
#include "tensor/ops.h"

namespace geotorch::models {
namespace {

namespace ts = ::geotorch::tensor;
namespace ds = ::geotorch::datasets;
namespace synth = ::geotorch::synth;
namespace optim = ::geotorch::optim;

GridModelConfig SmallGridConfig() {
  GridModelConfig config;
  config.channels = 2;
  config.height = 8;
  config.width = 8;
  config.len_closeness = 3;
  config.len_period = 2;
  config.len_trend = 1;
  config.hidden = 8;
  return config;
}

// A tiny periodical-representation dataset over synthetic flow.
ds::GridDataset SmallPeriodicalDataset() {
  ds::GridDataset dataset(
      synth::GenerateGridFlow(/*t=*/400, /*c=*/2, /*h=*/8, /*w=*/8,
                              /*steps_per_day=*/24, /*seed=*/5),
      /*steps_per_day=*/24);
  dataset.MinMaxNormalize();
  dataset.SetPeriodicalRepresentation(3, 2, 1);
  return dataset;
}

data::Batch MakePeriodicalBatch(const ds::GridDataset& dataset, int64_t n) {
  data::DataLoader loader(&dataset, n, /*shuffle=*/false);
  data::Batch batch;
  EXPECT_TRUE(loader.Next(&batch));
  return batch;
}

TEST(GridModelsTest, PeriodicalCnnShape) {
  ds::GridDataset dataset = SmallPeriodicalDataset();
  data::Batch batch = MakePeriodicalBatch(dataset, 4);
  PeriodicalCnn model(SmallGridConfig());
  autograd::Variable out = model.Forward(batch);
  EXPECT_EQ(out.shape(), (ts::Shape{4, 2, 8, 8}));
  EXPECT_EQ(out.shape(), batch.y.shape());
}

TEST(GridModelsTest, StResNetShape) {
  ds::GridDataset dataset = SmallPeriodicalDataset();
  data::Batch batch = MakePeriodicalBatch(dataset, 4);
  StResNet model(SmallGridConfig());
  autograd::Variable out = model.Forward(batch);
  EXPECT_EQ(out.shape(), batch.y.shape());
}

TEST(GridModelsTest, DeepStnPlusShape) {
  ds::GridDataset dataset = SmallPeriodicalDataset();
  data::Batch batch = MakePeriodicalBatch(dataset, 4);
  DeepStnPlus model(SmallGridConfig());
  autograd::Variable out = model.Forward(batch);
  EXPECT_EQ(out.shape(), batch.y.shape());
}

TEST(GridModelsTest, ConvLstmShape) {
  ds::GridDataset dataset(
      synth::GenerateGridFlow(200, 2, 8, 8, 24, 6), 24);
  dataset.MinMaxNormalize();
  dataset.SetSequentialRepresentation(/*history=*/4, /*prediction=*/1);
  data::DataLoader loader(&dataset, 3, false);
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));
  EXPECT_EQ(batch.x.shape(), (ts::Shape{3, 4, 2, 8, 8}));
  EXPECT_EQ(batch.y.shape(), (ts::Shape{3, 1, 2, 8, 8}));
  ConvLstm model(SmallGridConfig(), /*prediction_length=*/1);
  autograd::Variable out = model.Forward(batch);
  EXPECT_EQ(out.shape(), batch.y.shape());
}

TEST(GridModelsTest, ConvLstmMultiStepPrediction) {
  ds::GridDataset dataset(
      synth::GenerateGridFlow(200, 2, 8, 8, 24, 6), 24);
  dataset.SetSequentialRepresentation(/*history=*/4, /*prediction=*/3);
  data::DataLoader loader(&dataset, 2, false);
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));
  ConvLstm model(SmallGridConfig(), /*prediction_length=*/3);
  autograd::Variable out = model.Forward(batch);
  EXPECT_EQ(out.shape(), (ts::Shape{2, 3, 2, 8, 8}));
}

TEST(GridModelsTest, TrainingReducesLoss) {
  ds::GridDataset dataset = SmallPeriodicalDataset();
  data::Batch batch = MakePeriodicalBatch(dataset, 16);
  PeriodicalCnn model(SmallGridConfig());
  optim::Adam opt(model.Parameters(), 1e-2f);
  float first_loss = 0.0f;
  float last_loss = 0.0f;
  for (int step = 0; step < 30; ++step) {
    opt.ZeroGrad();
    autograd::Variable loss =
        autograd::MseLoss(model.Forward(batch), batch.y);
    loss.Backward();
    opt.Step();
    if (step == 0) first_loss = loss.value().flat(0);
    last_loss = loss.value().flat(0);
  }
  EXPECT_LT(last_loss, first_loss * 0.5f)
      << "training failed to reduce loss: " << first_loss << " -> "
      << last_loss;
}

TEST(GridModelsTest, TrainerEndToEnd) {
  ds::GridDataset dataset = SmallPeriodicalDataset();
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);
  PeriodicalCnn model(SmallGridConfig());
  TrainConfig config;
  config.max_epochs = 3;
  config.batch_size = 32;
  RegressionResult result = TrainGridModel(model, train, val, test, config);
  EXPECT_GT(result.epochs_run, 0);
  EXPECT_GT(result.rmse, 0.0f);
  EXPECT_GE(result.rmse, result.mae);  // RMSE >= MAE always
  EXPECT_LT(result.mae, 0.5f);         // data is in [0,1]
}

TEST(RasterModelsTest, SatCnnShapeAndTraining) {
  ds::RasterDatasetOptions options;
  ds::RasterClassificationDataset dataset =
      ds::MakeEuroSat(/*n=*/40, options, /*seed=*/1);
  data::DataLoader loader(&dataset, 8, false);
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));
  RasterModelConfig config;
  config.in_channels = 13;
  config.in_height = 64;
  config.in_width = 64;
  config.num_classes = 10;
  config.base_filters = 4;
  SatCnn model(config);
  autograd::Variable logits =
      model.Forward(autograd::Variable(batch.x), autograd::Variable());
  EXPECT_EQ(logits.shape(), (ts::Shape{8, 10}));
}

TEST(RasterModelsTest, DeepSatV2UsesFeatures) {
  ds::RasterDatasetOptions options;
  options.include_additional_features = true;
  ds::RasterClassificationDataset dataset =
      ds::MakeSat6(/*n=*/24, options, /*seed=*/2);
  ASSERT_GT(dataset.num_additional_features(), 0);
  data::DataLoader loader(&dataset, 6, false);
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));
  ASSERT_EQ(batch.extras.size(), 1u);

  RasterModelConfig config;
  config.in_channels = 4;
  config.in_height = 28;
  config.in_width = 28;
  config.num_classes = 6;
  config.num_filtered_features = dataset.num_additional_features();
  config.base_filters = 4;
  DeepSatV2 model(config);
  autograd::Variable logits = model.Forward(
      autograd::Variable(batch.x), autograd::Variable(batch.extras[0]));
  EXPECT_EQ(logits.shape(), (ts::Shape{6, 6}));
}

TEST(SegModelsTest, AllThreeModelsProduceFullResolutionLogits) {
  ds::RasterSegmentationDataset dataset =
      ds::MakeCloud38(/*n=*/8, /*size=*/32, {}, /*seed=*/3);
  data::DataLoader loader(&dataset, 4, false);
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));

  SegModelConfig config;
  config.in_channels = 4;
  config.num_classes = 2;
  config.base_filters = 4;

  Fcn fcn(config);
  EXPECT_EQ(fcn.Forward(autograd::Variable(batch.x)).shape(),
            (ts::Shape{4, 2, 32, 32}));
  UNet unet(config);
  EXPECT_EQ(unet.Forward(autograd::Variable(batch.x)).shape(),
            (ts::Shape{4, 2, 32, 32}));
  UNetPlusPlus unetpp(config);
  EXPECT_EQ(unetpp.Forward(autograd::Variable(batch.x)).shape(),
            (ts::Shape{4, 2, 32, 32}));
}

TEST(SegModelsTest, SegmenterLearnsCloudMask) {
  ds::RasterSegmentationDataset dataset =
      ds::MakeCloud38(/*n=*/24, /*size=*/16, {}, /*seed=*/4);
  SegModelConfig config;
  config.in_channels = 4;
  config.num_classes = 2;
  config.base_filters = 4;
  UNet model(config);
  TrainConfig tc;
  tc.max_epochs = 4;
  tc.batch_size = 8;
  tc.lr = 5e-3f;
  data::SplitIndices split = data::ChronologicalSplit(dataset.Size());
  data::SubsetDataset train(&dataset, split.train);
  data::SubsetDataset val(&dataset, split.val);
  data::SubsetDataset test(&dataset, split.test);
  ClassificationResult result = TrainSegmenter(model, train, val, test, tc);
  // Clouds are bright; even a few epochs should beat random (0.5).
  EXPECT_GT(result.accuracy, 0.6f);
}

TEST(ModelsTest, ParameterCountsArePositiveAndDistinct) {
  GridModelConfig config = SmallGridConfig();
  PeriodicalCnn cnn(config);
  StResNet resnet(config);
  DeepStnPlus deepstn(config);
  ConvLstm convlstm(config);
  EXPECT_GT(cnn.NumParameters(), 0);
  // ST-ResNet has three branches: far more parameters than the CNN.
  EXPECT_GT(resnet.NumParameters(), cnn.NumParameters());
  EXPECT_GT(deepstn.NumParameters(), 0);
  EXPECT_GT(convlstm.NumParameters(), 0);
}

TEST(DeepSatV1Test, TrainsOnFeatures) {
  ds::RasterDatasetOptions options;
  options.include_additional_features = true;
  ds::RasterClassificationDataset dataset = ds::MakeSat6(24, options);
  RasterModelConfig mc;
  mc.in_channels = 4;
  mc.in_height = 28;
  mc.in_width = 28;
  mc.num_classes = 6;
  mc.num_filtered_features = dataset.num_additional_features();
  mc.base_filters = 8;
  DeepSat model(mc);
  data::DataLoader loader(&dataset, 8, false);
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));
  autograd::Variable logits = model.Forward(
      autograd::Variable(batch.x), autograd::Variable(batch.extras[0]));
  EXPECT_EQ(logits.shape(), (ts::Shape{8, 6}));
  // One gradient step works.
  autograd::Variable loss = autograd::CrossEntropyLoss(
      logits, batch.y.Reshape({batch.y.numel()}));
  loss.Backward();
  for (auto& p : model.Parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(CnnLstmTest, ForwardShapeAndLearning) {
  ds::GridDataset dataset(
      synth::GenerateGridFlow(260, 2, 9, 11, 24, 8), 24);
  dataset.MinMaxNormalize();
  dataset.SetSequentialRepresentation(4, 1);
  data::DataLoader loader(&dataset, 6, false);
  data::Batch batch;
  ASSERT_TRUE(loader.Next(&batch));

  GridModelConfig mc;
  mc.channels = 2;
  mc.height = 9;   // odd dims exercise the stride-2 shape math
  mc.width = 11;
  mc.hidden = 8;
  CnnLstm model(mc);
  autograd::Variable out = model.Forward(batch);
  EXPECT_EQ(out.shape(), batch.y.shape());

  // A few steps reduce the loss.
  optim::Adam opt(model.Parameters(), 5e-3f);
  float first = 0.0f;
  float last = 0.0f;
  for (int step = 0; step < 15; ++step) {
    opt.ZeroGrad();
    autograd::Variable loss =
        autograd::MseLoss(model.Forward(batch), batch.y);
    loss.Backward();
    opt.Step();
    if (step == 0) first = loss.value().flat(0);
    last = loss.value().flat(0);
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace geotorch::models
