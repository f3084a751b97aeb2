#include "datasets/grid_dataset.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "datasets/benchmarks.h"
#include "datasets/raster_dataset.h"
#include "tensor/ops.h"
#include "transforms/transforms.h"

namespace geotorch::datasets {
namespace {

namespace ts = ::geotorch::tensor;

// A (T, 1, 2, 2) ramp where frame t is filled with the value t.
ts::Tensor RampData(int64_t t) {
  ts::Tensor data({t, 1, 2, 2});
  for (int64_t i = 0; i < t; ++i) {
    for (int64_t p = 0; p < 4; ++p) {
      data.flat(i * 4 + p) = static_cast<float>(i);
    }
  }
  return data;
}

TEST(GridDatasetTest, BasicRepresentation) {
  GridDataset dataset(RampData(10), /*steps_per_day=*/4, /*lead_time=*/2);
  EXPECT_EQ(dataset.Size(), 8);
  data::Sample s = dataset.Get(0);
  EXPECT_EQ(s.x.shape(), (ts::Shape{1, 2, 2}));
  EXPECT_EQ(s.x.flat(0), 0.0f);  // frame 0
  EXPECT_EQ(s.y.flat(0), 2.0f);  // frame 0 + lead 2
  data::Sample last = dataset.Get(7);
  EXPECT_EQ(last.y.flat(0), 9.0f);
}

TEST(GridDatasetTest, SequentialRepresentation) {
  GridDataset dataset(RampData(10), 4);
  dataset.SetSequentialRepresentation(/*history=*/3, /*prediction=*/2);
  // Targets run from t=3 to t=8 (y needs 2 frames) -> 6 samples.
  EXPECT_EQ(dataset.Size(), 6);
  data::Sample s = dataset.Get(0);
  EXPECT_EQ(s.x.shape(), (ts::Shape{3, 1, 2, 2}));
  EXPECT_EQ(s.y.shape(), (ts::Shape{2, 1, 2, 2}));
  // x = frames 0,1,2; y = frames 3,4.
  EXPECT_EQ(s.x.flat(0), 0.0f);
  EXPECT_EQ(s.x.flat(8), 2.0f);
  EXPECT_EQ(s.y.flat(0), 3.0f);
  EXPECT_EQ(s.y.flat(4), 4.0f);
}

TEST(GridDatasetTest, PeriodicalRepresentation) {
  // steps_per_day=4, trend period = 28 steps.
  GridDataset dataset(RampData(40), 4);
  dataset.SetPeriodicalRepresentation(/*closeness=*/2, /*period=*/1,
                                      /*trend=*/1);
  // First target = max(2, 1*4, 1*28) = 28; size = 40 - 28 = 12.
  EXPECT_EQ(dataset.Size(), 12);
  data::Sample s = dataset.Get(0);
  const int64_t target = 28;
  // Closeness = frames 26, 27 stacked along channels.
  EXPECT_EQ(s.x.shape(), (ts::Shape{2, 2, 2}));
  EXPECT_EQ(s.x.flat(0), static_cast<float>(target - 2));
  EXPECT_EQ(s.x.flat(4), static_cast<float>(target - 1));
  ASSERT_EQ(s.extras.size(), 2u);
  // Period = frame 24 (one day back).
  EXPECT_EQ(s.extras[0].flat(0), static_cast<float>(target - 4));
  // Trend = frame 0 (one week back).
  EXPECT_EQ(s.extras[1].flat(0), static_cast<float>(target - 28));
  EXPECT_EQ(s.y.flat(0), static_cast<float>(target));
}

TEST(GridDatasetTest, PeriodicalWithoutTrend) {
  GridDataset dataset(RampData(20), 4);
  dataset.SetPeriodicalRepresentation(2, 2, 0);
  // First target = max(2, 2*4) = 8.
  EXPECT_EQ(dataset.Size(), 12);
  data::Sample s = dataset.Get(0);
  EXPECT_EQ(s.extras.size(), 1u);  // period only
}

TEST(GridDatasetTest, MinMaxNormalize) {
  GridDataset dataset(RampData(5), 4);
  auto [mn, mx] = dataset.MinMaxNormalize();
  EXPECT_EQ(mn, 0.0f);
  EXPECT_EQ(mx, 4.0f);
  EXPECT_EQ(ts::MinAll(dataset.st_data()), 0.0f);
  EXPECT_EQ(ts::MaxAll(dataset.st_data()), 1.0f);
}

TEST(BenchmarkDatasetsTest, WeatherShapes) {
  GridDataset temp = MakeTemperature(/*timesteps=*/100, 8, 16, 1);
  EXPECT_EQ(temp.num_timesteps(), 100);
  EXPECT_EQ(temp.height(), 8);
  EXPECT_EQ(temp.width(), 16);
  EXPECT_EQ(temp.channels(), 1);
  EXPECT_EQ(temp.steps_per_day(), 24);
}

TEST(BenchmarkDatasetsTest, TrafficShapesMatchPaper) {
  GridDataset bike = MakeBikeNycDeepStn(/*timesteps=*/60);
  EXPECT_EQ(bike.height(), 21);
  EXPECT_EQ(bike.width(), 12);
  EXPECT_EQ(bike.channels(), 2);

  GridDataset taxi = MakeTaxiBj21(/*timesteps=*/60);
  EXPECT_EQ(taxi.height(), 32);
  EXPECT_EQ(taxi.width(), 32);
  EXPECT_EQ(taxi.steps_per_day(), 48);
}

TEST(BenchmarkDatasetsTest, YellowTripEndToEnd) {
  YellowTripConfig config;
  config.num_records = 5000;
  config.duration_sec = 2 * 86400;
  config.seed = 4;
  GridDataset dataset = MakeYellowTripNyc(config);
  EXPECT_EQ(dataset.height(), 16);
  EXPECT_EQ(dataset.width(), 12);
  EXPECT_EQ(dataset.channels(), 2);
  // All trips land somewhere: total pickups+dropoffs == records.
  EXPECT_EQ(static_cast<int64_t>(ts::SumAll(dataset.st_data())),
            config.num_records);
  // Supports every representation (the paper's selling point for this
  // dataset).
  dataset.SetSequentialRepresentation(4, 2);
  EXPECT_GT(dataset.Size(), 0);
  dataset.SetPeriodicalRepresentation(2, 1, 0);
  EXPECT_GT(dataset.Size(), 0);
}

TEST(RasterDatasetTest, EuroSatShapes) {
  RasterClassificationDataset dataset = MakeEuroSat(/*n=*/20);
  EXPECT_EQ(dataset.Size(), 20);
  EXPECT_EQ(dataset.bands(), 13);
  data::Sample s = dataset.Get(3);
  EXPECT_EQ(s.x.shape(), (ts::Shape{13, 64, 64}));
  EXPECT_EQ(s.y.numel(), 1);
  EXPECT_TRUE(s.extras.empty());
}

TEST(RasterDatasetTest, BandSelection) {
  RasterDatasetOptions options;
  options.selected_bands = {3, 2, 1};
  RasterClassificationDataset dataset = MakeEuroSat(10, options);
  EXPECT_EQ(dataset.bands(), 3);
  EXPECT_EQ(dataset.Get(0).x.shape(), (ts::Shape{3, 64, 64}));
}

TEST(RasterDatasetTest, AdditionalFeatures) {
  RasterDatasetOptions options;
  options.include_additional_features = true;
  RasterClassificationDataset dataset = MakeSat6(12, options);
  // SAT-6 has 4 bands: 3 spectral + 6 GLCM = 9 features.
  EXPECT_EQ(dataset.num_additional_features(), 9);
  data::Sample s = dataset.Get(0);
  ASSERT_EQ(s.extras.size(), 1u);
  EXPECT_EQ(s.extras[0].shape(), (ts::Shape{9}));
}

TEST(RasterDatasetTest, EuroSatFeatureCountMatchesPaper) {
  RasterDatasetOptions options;
  options.include_additional_features = true;
  RasterClassificationDataset dataset = MakeEuroSat(10, options);
  // 13 bands -> capped at 7 spectral + 6 textural = 13.
  EXPECT_EQ(dataset.num_additional_features(), 13);
}

TEST(RasterDatasetTest, TransformAppliedOnTheFly) {
  RasterDatasetOptions options;
  options.transform = transforms::AppendNormalizedDifferenceIndex(0, 1);
  RasterClassificationDataset dataset = MakeSat6(6, options);
  data::Sample s = dataset.Get(0);
  EXPECT_EQ(s.x.size(0), 5);  // 4 bands + NDI
}

TEST(RasterDatasetTest, SegmentationDataset) {
  RasterSegmentationDataset dataset = MakeCloud38(/*n=*/6, /*size=*/32);
  EXPECT_EQ(dataset.Size(), 6);
  data::Sample s = dataset.Get(2);
  EXPECT_EQ(s.x.shape(), (ts::Shape{4, 32, 32}));
  EXPECT_EQ(s.y.shape(), (ts::Shape{32, 32}));
  for (int64_t i = 0; i < s.y.numel(); ++i) {
    EXPECT_TRUE(s.y.flat(i) == 0.0f || s.y.flat(i) == 1.0f);
  }
}

TEST(RasterDatasetTest, SlumDetectionBinary) {
  RasterClassificationDataset dataset = MakeSlumDetection(8);
  for (int64_t i = 0; i < dataset.Size(); ++i) {
    const float y = dataset.Get(i).y.flat(0);
    EXPECT_TRUE(y == 0.0f || y == 1.0f);
  }
}

TEST(NewDatasetsTest, ShapesMatchTableII) {
  GridDataset taxi = MakeTaxiNycStdn(60);
  EXPECT_EQ(taxi.height(), 10);
  EXPECT_EQ(taxi.width(), 20);
  EXPECT_EQ(taxi.channels(), 4);
  EXPECT_EQ(taxi.steps_per_day(), 48);

  GridDataset bike = MakeBikeNycStdn(60);
  EXPECT_EQ(bike.height(), 10);
  EXPECT_EQ(bike.channels(), 4);

  RasterClassificationDataset sat4 = MakeSat4(8);
  EXPECT_EQ(sat4.Get(0).x.shape(), (ts::Shape{4, 28, 28}));
  float max_label = 0;
  for (int64_t i = 0; i < sat4.Size(); ++i) {
    max_label = std::max(max_label, sat4.Get(i).y.flat(0));
  }
  EXPECT_EQ(max_label, 3.0f);  // 4 classes
}

TEST(NewDatasetsTest, ExtraWeatherKinds) {
  GridDataset geo = MakeGeopotential(48, 8, 16);
  // Geopotential heights sit in the tens of thousands.
  EXPECT_GT(ts::MeanAll(geo.st_data()), 5e4);

  GridDataset solar = MakeSolarRadiation(48, 8, 16);
  EXPECT_GE(ts::MinAll(solar.st_data()), 0.0f);  // no negative radiation
  // Night frames are zero: hour 0 is night.
  ts::Tensor midnight = ts::Slice(solar.st_data(), 0, 0, 1);
  EXPECT_EQ(ts::MaxAll(midnight), 0.0f);
  // Some daytime frame has sun.
  EXPECT_GT(ts::MaxAll(solar.st_data()), 100.0f);
}

}  // namespace
}  // namespace geotorch::datasets
