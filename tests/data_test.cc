#include "data/dataset.h"

#include <gtest/gtest.h>

#include <set>

#include "data/dataloader.h"
#include "data/metrics.h"
#include "tensor/ops.h"

namespace geotorch::data {
namespace {

namespace ts = ::geotorch::tensor;

TEST(TensorDatasetTest, GetSlicesRows) {
  ts::Tensor xs = ts::Tensor::Arange(12).Reshape({4, 3});
  ts::Tensor ys = ts::Tensor::Arange(4);
  TensorDataset dataset(xs, ys);
  EXPECT_EQ(dataset.Size(), 4);
  Sample s = dataset.Get(2);
  EXPECT_EQ(s.x.shape(), (ts::Shape{3}));
  EXPECT_EQ(s.x.flat(0), 6.0f);
  EXPECT_EQ(s.y.flat(0), 2.0f);
}

TEST(TensorDatasetTest, ExtrasCarriedThrough) {
  ts::Tensor xs = ts::Tensor::Ones({3, 2});
  ts::Tensor ys = ts::Tensor::Zeros({3});
  ts::Tensor extra = ts::Tensor::Arange(6).Reshape({3, 2});
  TensorDataset dataset(xs, ys, {extra});
  Sample s = dataset.Get(1);
  ASSERT_EQ(s.extras.size(), 1u);
  EXPECT_EQ(s.extras[0].flat(0), 2.0f);
}

TEST(SubsetDatasetTest, RemapsIndices) {
  ts::Tensor xs = ts::Tensor::Arange(5).Reshape({5, 1});
  TensorDataset base(xs, ts::Tensor::Arange(5));
  SubsetDataset subset(&base, {4, 0});
  EXPECT_EQ(subset.Size(), 2);
  EXPECT_EQ(subset.Get(0).y.flat(0), 4.0f);
  EXPECT_EQ(subset.Get(1).y.flat(0), 0.0f);
}

TEST(SplitTest, ChronologicalFractions) {
  SplitIndices split = ChronologicalSplit(100, 0.8);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.val.size(), 10u);
  EXPECT_EQ(split.test.size(), 10u);
  // Chronological: train precedes val precedes test.
  EXPECT_EQ(split.train.back(), 79);
  EXPECT_EQ(split.val.front(), 80);
  EXPECT_EQ(split.test.back(), 99);
}

TEST(SplitTest, OddSizes) {
  SplitIndices split = ChronologicalSplit(7, 0.5);
  EXPECT_EQ(split.train.size() + split.val.size() + split.test.size(), 7u);
}

TEST(DataLoaderTest, BatchesAllSamples) {
  ts::Tensor xs = ts::Tensor::Arange(10).Reshape({10, 1});
  TensorDataset dataset(xs, ts::Tensor::Arange(10));
  DataLoader loader(&dataset, 3, /*shuffle=*/false);
  EXPECT_EQ(loader.NumBatches(), 4);
  Batch batch;
  int64_t seen = 0;
  int64_t batches = 0;
  while (loader.Next(&batch)) {
    seen += batch.size;
    ++batches;
    EXPECT_EQ(batch.x.size(0), batch.size);
  }
  EXPECT_EQ(seen, 10);
  EXPECT_EQ(batches, 4);
}

TEST(DataLoaderTest, DropLast) {
  ts::Tensor xs = ts::Tensor::Arange(10).Reshape({10, 1});
  TensorDataset dataset(xs, ts::Tensor::Arange(10));
  DataLoader loader(&dataset, 3, false, 0, /*drop_last=*/true);
  EXPECT_EQ(loader.NumBatches(), 3);
  Batch batch;
  int64_t batches = 0;
  while (loader.Next(&batch)) {
    EXPECT_EQ(batch.size, 3);
    ++batches;
  }
  EXPECT_EQ(batches, 3);
}

TEST(DataLoaderTest, ShuffleIsDeterministicPerSeed) {
  ts::Tensor xs = ts::Tensor::Arange(20).Reshape({20, 1});
  TensorDataset dataset(xs, ts::Tensor::Arange(20));
  auto first_batch = [&](uint64_t seed) {
    DataLoader loader(&dataset, 20, true, seed);
    Batch b;
    loader.Next(&b);
    return b.y.ToVector();
  };
  EXPECT_EQ(first_batch(7), first_batch(7));
  EXPECT_NE(first_batch(7), first_batch(8));
}

TEST(DataLoaderTest, ShuffleCoversAllOnceAndReshuffles) {
  ts::Tensor xs = ts::Tensor::Arange(16).Reshape({16, 1});
  TensorDataset dataset(xs, ts::Tensor::Arange(16));
  DataLoader loader(&dataset, 4, true, 3);
  std::multiset<float> seen;
  Batch batch;
  std::vector<float> epoch1;
  while (loader.Next(&batch)) {
    for (float v : batch.y.ToVector()) {
      seen.insert(v);
      epoch1.push_back(v);
    }
  }
  EXPECT_EQ(seen.size(), 16u);
  for (int64_t i = 0; i < 16; ++i) EXPECT_EQ(seen.count(i), 1u);

  loader.Reset();
  std::vector<float> epoch2;
  while (loader.Next(&batch)) {
    for (float v : batch.y.ToVector()) epoch2.push_back(v);
  }
  EXPECT_NE(epoch1, epoch2);  // re-shuffled
}

// Labels of every batch of one epoch, in iteration order.
std::vector<float> EpochLabels(DataLoader& loader) {
  std::vector<float> labels;
  Batch batch;
  while (loader.Next(&batch)) {
    for (float v : batch.y.ToVector()) labels.push_back(v);
  }
  return labels;
}

TEST(DataLoaderTest, PrefetchMatchesNonPrefetchShuffled) {
  ts::Tensor xs = ts::Tensor::Arange(34).Reshape({17, 2});
  TensorDataset dataset(xs, ts::Tensor::Arange(17));
  DataLoader plain(&dataset, 4, /*shuffle=*/true, /*seed=*/99,
                   /*drop_last=*/false, /*prefetch=*/false);
  DataLoader prefetched(&dataset, 4, /*shuffle=*/true, /*seed=*/99,
                        /*drop_last=*/false, /*prefetch=*/true);
  // Same seed must yield the same batch sequence whether or not batches
  // are assembled ahead of time on a worker thread — across the epoch
  // boundary too (Reset reshuffles from the same RNG stream).
  for (int epoch = 0; epoch < 2; ++epoch) {
    if (epoch > 0) {
      plain.Reset();
      prefetched.Reset();
    }
    EXPECT_EQ(EpochLabels(plain), EpochLabels(prefetched))
        << "epoch " << epoch;
  }
}

TEST(DataLoaderTest, PrefetchRaggedTailNoDropNoDup) {
  // 10 % 4 != 0: the final short batch must still arrive, and no sample
  // may be dropped or duplicated — in either of two consecutive epochs.
  ts::Tensor xs = ts::Tensor::Arange(10).Reshape({10, 1});
  TensorDataset dataset(xs, ts::Tensor::Arange(10));
  DataLoader loader(&dataset, 4, /*shuffle=*/true, /*seed=*/5,
                    /*drop_last=*/false, /*prefetch=*/true);
  for (int epoch = 0; epoch < 2; ++epoch) {
    if (epoch > 0) loader.Reset();
    std::vector<float> labels = EpochLabels(loader);
    ASSERT_EQ(labels.size(), 10u) << "epoch " << epoch;
    std::multiset<float> seen(labels.begin(), labels.end());
    for (int64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(seen.count(static_cast<float>(i)), 1u)
          << "sample " << i << " in epoch " << epoch;
    }
  }
}

TEST(DataLoaderTest, PrefetchDropLastConsistent) {
  ts::Tensor xs = ts::Tensor::Arange(10).Reshape({10, 1});
  TensorDataset dataset(xs, ts::Tensor::Arange(10));
  DataLoader plain(&dataset, 4, /*shuffle=*/false, /*seed=*/0,
                   /*drop_last=*/true, /*prefetch=*/false);
  DataLoader prefetched(&dataset, 4, /*shuffle=*/false, /*seed=*/0,
                        /*drop_last=*/true, /*prefetch=*/true);
  std::vector<float> a = EpochLabels(plain);
  std::vector<float> b = EpochLabels(prefetched);
  EXPECT_EQ(a.size(), 8u);  // 2 full batches, tail dropped
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, MaeRmse) {
  ts::Tensor pred = ts::Tensor::FromVector({4}, {1, 2, 3, 4});
  ts::Tensor target = ts::Tensor::FromVector({4}, {1, 2, 3, 8});
  EXPECT_FLOAT_EQ(Mae(pred, target), 1.0f);
  EXPECT_FLOAT_EQ(Rmse(pred, target), 2.0f);
  EXPECT_GE(Rmse(pred, target), Mae(pred, target));
}

TEST(MetricsTest, Accuracy) {
  ts::Tensor logits = ts::Tensor::FromVector(
      {3, 2}, {0.9f, 0.1f, 0.2f, 0.8f, 0.6f, 0.4f});
  ts::Tensor labels = ts::Tensor::FromVector({3}, {0, 1, 1});
  EXPECT_NEAR(Accuracy(logits, labels), 2.0f / 3.0f, 1e-6);
}

TEST(MetricsTest, PixelAccuracyAndIoU) {
  // 1 sample, 2 classes, 2x2: predicted class = argmax over dim1.
  ts::Tensor logits = ts::Tensor::FromVector(
      {1, 2, 2, 2},
      {0.9f, 0.1f, 0.9f, 0.1f,    // class-0 scores
       0.1f, 0.9f, 0.1f, 0.9f});  // class-1 scores
  // Predicted mask: {0, 1, 0, 1}; truth {0, 1, 1, 1}.
  ts::Tensor labels = ts::Tensor::FromVector({1, 2, 2}, {0, 1, 1, 1});
  EXPECT_FLOAT_EQ(PixelAccuracy(logits, labels), 0.75f);
  EXPECT_FLOAT_EQ(IoU(logits, labels, 1), 2.0f / 3.0f);
  EXPECT_FLOAT_EQ(IoU(logits, labels, 0), 0.5f);
}

TEST(RunStatsTest, MeanAndDeviation) {
  RunStats stats;
  stats.Add(1.0);
  stats.Add(2.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max_deviation(), 1.0);
  EXPECT_EQ(stats.count(), 3);
}

TEST(PrefetchTest, PrefetchingLoaderMatchesPlainLoader) {
  ts::Tensor xs = ts::Tensor::Arange(60).Reshape({20, 3});
  TensorDataset dataset(xs, ts::Tensor::Arange(20));
  DataLoader plain(&dataset, 7, /*shuffle=*/true, /*seed=*/5);
  DataLoader pre(&dataset, 7, /*shuffle=*/true, /*seed=*/5,
                 /*drop_last=*/false, /*prefetch=*/true);
  for (int epoch = 0; epoch < 3; ++epoch) {
    plain.Reset();
    pre.Reset();
    Batch a;
    Batch b;
    while (true) {
      const bool has_a = plain.Next(&a);
      const bool has_b = pre.Next(&b);
      ASSERT_EQ(has_a, has_b);
      if (!has_a) break;
      EXPECT_EQ(a.size, b.size);
      EXPECT_TRUE(ts::AllClose(a.x, b.x));
      EXPECT_TRUE(ts::AllClose(a.y, b.y));
    }
  }
}

TEST(PrefetchTest, ResetMidEpochIsSafe) {
  ts::Tensor xs = ts::Tensor::Ones({10, 2});
  TensorDataset dataset(xs, ts::Tensor::Arange(10));
  DataLoader loader(&dataset, 3, false, 0, false, /*prefetch=*/true);
  Batch batch;
  ASSERT_TRUE(loader.Next(&batch));  // leaves a batch in flight
  loader.Reset();
  int64_t rows = 0;
  while (loader.Next(&batch)) rows += batch.size;
  EXPECT_EQ(rows, 10);
}

}  // namespace
}  // namespace geotorch::data
