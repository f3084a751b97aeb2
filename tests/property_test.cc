// Property-based (parameterized) tests: each suite sweeps a parameter
// space and checks an invariant against an independent reference
// implementation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <tuple>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "datasets/grid_dataset.h"
#include "df/dataframe.h"
#include "spatial/join.h"
#include "spatial/strtree.h"
#include "tensor/conv.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"

namespace geotorch {
namespace {

namespace ts = ::geotorch::tensor;

// --- Conv2d forward and gradients against direct loop references -------

using ConvParams = std::tuple<int, int, int, int, int, int>;
// (in_channels, filters, kernel, stride, padding, size)

class ConvSweep : public ::testing::TestWithParam<ConvParams> {};

// Visits every (sample, filter, output pixel, channel, tap) term of the
// convolution whose tap lands inside the image, as
// fn(i, fi, oi, oj, ci, ki, kj, ii, jj).
template <typename Fn>
void ForEachConvTerm(const ts::Tensor& x, const ts::Tensor& w,
                     const ts::ConvSpec& spec, Fn fn) {
  const int64_t n = x.size(0);
  const int64_t c = x.size(1);
  const int64_t h = x.size(2);
  const int64_t wd = x.size(3);
  const int64_t f = w.size(0);
  const int64_t kh = w.size(2);
  const int64_t kw = w.size(3);
  const int64_t oh = ts::ConvOutSize(h, kh, spec.stride, spec.padding);
  const int64_t ow = ts::ConvOutSize(wd, kw, spec.stride, spec.padding);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t fi = 0; fi < f; ++fi) {
      for (int64_t oi = 0; oi < oh; ++oi) {
        for (int64_t oj = 0; oj < ow; ++oj) {
          for (int64_t ci = 0; ci < c; ++ci) {
            for (int64_t ki = 0; ki < kh; ++ki) {
              for (int64_t kj = 0; kj < kw; ++kj) {
                const int64_t ii = oi * spec.stride + ki - spec.padding;
                const int64_t jj = oj * spec.stride + kj - spec.padding;
                if (ii < 0 || ii >= h || jj < 0 || jj >= wd) continue;
                fn(i, fi, oi, oj, ci, ki, kj, ii, jj);
              }
            }
          }
        }
      }
    }
  }
}

ts::Tensor DirectConv(const ts::Tensor& x, const ts::Tensor& w,
                      const ts::Tensor& bias, const ts::ConvSpec& spec) {
  const int64_t oh =
      ts::ConvOutSize(x.size(2), w.size(2), spec.stride, spec.padding);
  const int64_t ow =
      ts::ConvOutSize(x.size(3), w.size(3), spec.stride, spec.padding);
  ts::Tensor out = ts::Tensor::Zeros({x.size(0), w.size(0), oh, ow});
  for (int64_t i = 0; i < out.size(0); ++i) {
    for (int64_t fi = 0; fi < out.size(1); ++fi) {
      for (int64_t p = 0; p < oh * ow; ++p) {
        out.at({i, fi, p / ow, p % ow}) = bias.flat(fi);
      }
    }
  }
  ForEachConvTerm(x, w, spec,
                  [&](int64_t i, int64_t fi, int64_t oi, int64_t oj,
                      int64_t ci, int64_t ki, int64_t kj, int64_t ii,
                      int64_t jj) {
                    out.at({i, fi, oi, oj}) +=
                        x.at({i, ci, ii, jj}) * w.at({fi, ci, ki, kj});
                  });
  return out;
}

// Each conv term y[i,fi,oi,oj] += x[i,ci,ii,jj] * w[fi,ci,ki,kj]
// sends g·w to grad_x and g·x to grad_w; the bias collects every g.
ts::Conv2dGrads DirectConvGrads(const ts::Tensor& g, const ts::Tensor& x,
                                const ts::Tensor& w,
                                const ts::ConvSpec& spec) {
  ts::Conv2dGrads grads;
  grads.grad_x = ts::Tensor::Zeros(x.shape());
  grads.grad_w = ts::Tensor::Zeros(w.shape());
  grads.grad_bias = ts::Tensor::Zeros({w.size(0)});
  ForEachConvTerm(x, w, spec,
                  [&](int64_t i, int64_t fi, int64_t oi, int64_t oj,
                      int64_t ci, int64_t ki, int64_t kj, int64_t ii,
                      int64_t jj) {
                    const float gv = g.at({i, fi, oi, oj});
                    grads.grad_x.at({i, ci, ii, jj}) +=
                        gv * w.at({fi, ci, ki, kj});
                    grads.grad_w.at({fi, ci, ki, kj}) +=
                        gv * x.at({i, ci, ii, jj});
                  });
  for (int64_t i = 0; i < g.numel(); ++i) {
    grads.grad_bias.flat((i / (g.size(2) * g.size(3))) % g.size(1)) +=
        g.flat(i);
  }
  return grads;
}

// grad_w and grad_b in the summation order Conv2dBackward defines,
// built from a materialized patch matrix: min(N, 8) partials over the
// fixed sample ranges [t·N/P, (t+1)·N/P), each the sum over its samples
// of Gemm(g_i, Im2Col(x_i)ᵀ) (the first sample overwrites) and of the
// double-accumulated bias sums, then added from zero in index order.
ts::Conv2dGrads MaterializedWeightGrads(const ts::Tensor& g,
                                        const ts::Tensor& x,
                                        const ts::Tensor& w,
                                        const ts::ConvSpec& spec) {
  const int64_t n = x.size(0);
  const int64_t f = w.size(0);
  const int64_t ck = w.numel() / f;
  const int64_t l = g.size(2) * g.size(3);
  const int64_t parts = std::min<int64_t>(n, 8);
  ts::Conv2dGrads out;
  out.grad_w = ts::Tensor::Zeros(w.shape());
  out.grad_bias = ts::Tensor::Zeros({f});
  std::vector<float> gw(f * ck);
  std::vector<float> gb(f);
  for (int64_t t = 0; t < parts; ++t) {
    const int64_t begin = t * n / parts;
    const int64_t end = (t + 1) * n / parts;
    std::fill(gb.begin(), gb.end(), 0.0f);
    for (int64_t i = begin; i < end; ++i) {
      const float* g_i = g.data() + i * f * l;
      const ts::Tensor cols = ts::Im2Col(x, i, w.size(2), w.size(3), spec);
      ts::Gemm(g_i, cols.data(), gw.data(), f, l, ck,
               {.beta = i == begin ? 0.0f : 1.0f, .trans_b = true});
      for (int64_t fi = 0; fi < f; ++fi) {
        double sum = 0.0;
        for (int64_t j = 0; j < l; ++j) sum += g_i[fi * l + j];
        gb[fi] += static_cast<float>(sum);
      }
    }
    for (int64_t e = 0; e < f * ck; ++e) out.grad_w.flat(e) += gw[e];
    for (int64_t fi = 0; fi < f; ++fi) out.grad_bias.flat(fi) += gb[fi];
  }
  return out;
}

bool SameBits(const ts::Tensor& a, const ts::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

std::string ConvLabel(const ConvParams& p) {
  auto [c, f, k, stride, padding, size] = p;
  return "c=" + std::to_string(c) + " f=" + std::to_string(f) +
         " k=" + std::to_string(k) + " s=" + std::to_string(stride) +
         " p=" + std::to_string(padding) + " size=" + std::to_string(size);
}

TEST_P(ConvSweep, ForwardMatchesDirect) {
  auto [c, f, k, stride, padding, size] = GetParam();
  Rng rng(c * 100 + f * 10 + k);
  ts::Tensor x = ts::Tensor::Randn({2, c, size, size}, rng);
  ts::Tensor w = ts::Tensor::Randn({f, c, k, k}, rng, 0.0f, 0.5f);
  ts::Tensor b = ts::Tensor::Randn({f}, rng);
  ts::ConvSpec spec{.stride = stride, .padding = padding};
  ts::Tensor fast = ts::Conv2dForward(x, w, b, spec);
  ts::Tensor slow = DirectConv(x, w, b, spec);
  EXPECT_TRUE(ts::AllClose(fast, slow, 1e-4f, 1e-4f)) << ConvLabel(GetParam());
}

TEST_P(ConvSweep, BackwardMatchesDirect) {
  auto [c, f, k, stride, padding, size] = GetParam();
  Rng rng(c * 100 + f * 10 + k + 1);
  // An odd batch, so the weight-gradient partials hold unequal sample
  // counts.
  ts::Tensor x = ts::Tensor::Randn({3, c, size, size}, rng);
  ts::Tensor w = ts::Tensor::Randn({f, c, k, k}, rng, 0.0f, 0.5f);
  ts::ConvSpec spec{.stride = stride, .padding = padding};
  const int64_t o = ts::ConvOutSize(size, k, stride, padding);
  ts::Tensor g = ts::Tensor::Randn({3, f, o, o}, rng);
  const ts::Conv2dGrads fast =
      ts::Conv2dBackward(g, x, w, /*has_bias=*/true, spec);
  const ts::Conv2dGrads slow = DirectConvGrads(g, x, w, spec);
  EXPECT_TRUE(ts::AllClose(fast.grad_x, slow.grad_x, 1e-4f, 1e-4f))
      << "grad_x " << ConvLabel(GetParam());
  EXPECT_TRUE(ts::AllClose(fast.grad_w, slow.grad_w, 1e-4f, 1e-4f))
      << "grad_w " << ConvLabel(GetParam());
  EXPECT_TRUE(ts::AllClose(fast.grad_bias, slow.grad_bias, 1e-4f, 1e-4f))
      << "grad_bias " << ConvLabel(GetParam());

  // Skipping grad_x leaves the other gradients bit for bit unchanged.
  const ts::Conv2dGrads no_x = ts::Conv2dBackward(
      g, x, w, /*has_bias=*/true, spec, /*need_grad_x=*/false);
  EXPECT_EQ(no_x.grad_x.numel(), 0);
  ASSERT_EQ(no_x.grad_w.shape(), fast.grad_w.shape());
  EXPECT_EQ(0, std::memcmp(no_x.grad_w.data(), fast.grad_w.data(),
                           sizeof(float) * fast.grad_w.numel()));
  ASSERT_EQ(no_x.grad_bias.shape(), fast.grad_bias.shape());
  EXPECT_EQ(0, std::memcmp(no_x.grad_bias.data(), fast.grad_bias.data(),
                           sizeof(float) * fast.grad_bias.numel()));
}

// The weight gradient gathers its patch rows from the image instead of
// materializing im2col, with the same K order, K blocks and partials:
// grad_w and grad_b are bitwise the materialized-im2col reduction, for
// batches that leave the partials with one sample, unequal sample
// counts, and more samples than partials.
TEST_P(ConvSweep, WeightGradMatchesMaterializedIm2Col) {
  auto [c, f, k, stride, padding, size] = GetParam();
  const ts::ConvSpec spec{.stride = stride, .padding = padding};
  const int64_t o = ts::ConvOutSize(size, k, stride, padding);
  for (const int64_t n : {3, 5, 9}) {
    Rng rng(c * 100 + f * 10 + k + n);
    const ts::Tensor x = ts::Tensor::Randn({n, c, size, size}, rng);
    const ts::Tensor w = ts::Tensor::Randn({f, c, k, k}, rng, 0.0f, 0.5f);
    const ts::Tensor g = ts::Tensor::Randn({n, f, o, o}, rng);
    const ts::Conv2dGrads fast = ts::Conv2dBackward(
        g, x, w, /*has_bias=*/true, spec, /*need_grad_x=*/false);
    const ts::Conv2dGrads ref = MaterializedWeightGrads(g, x, w, spec);
    EXPECT_TRUE(SameBits(fast.grad_w, ref.grad_w))
        << "grad_w N=" << n << " " << ConvLabel(GetParam());
    EXPECT_TRUE(SameBits(fast.grad_bias, ref.grad_bias))
        << "grad_b N=" << n << " " << ConvLabel(GetParam());
  }
}

// Stride 1 at padding 0, k/2 and k-1 takes the flipped-conv grad_x;
// the last four rows are past the GEMM reference threshold, so the
// direct kernel itself runs. Stride 2 takes the GEMM + col2im fallback.
INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvSweep,
    ::testing::Values(ConvParams{1, 1, 1, 1, 0, 4},
                      ConvParams{1, 2, 3, 1, 1, 5},
                      ConvParams{3, 4, 3, 1, 1, 8},
                      ConvParams{2, 3, 5, 1, 2, 9},
                      ConvParams{3, 4, 3, 1, 0, 7},
                      ConvParams{2, 3, 3, 1, 2, 6},
                      ConvParams{2, 2, 5, 1, 4, 6},
                      ConvParams{3, 5, 5, 1, 0, 9},
                      ConvParams{2, 2, 3, 2, 1, 8},
                      ConvParams{4, 8, 3, 2, 0, 10},
                      ConvParams{3, 2, 1, 1, 0, 6},
                      ConvParams{2, 5, 4, 2, 1, 12},
                      ConvParams{8, 16, 3, 1, 0, 16},
                      ConvParams{8, 16, 3, 1, 1, 16},
                      ConvParams{8, 16, 3, 1, 2, 16},
                      ConvParams{8, 16, 3, 2, 1, 16}));

// --- Broadcasting against an index-arithmetic reference ------------------

using BroadcastParams = std::tuple<ts::Shape, ts::Shape>;

class BroadcastSweep : public ::testing::TestWithParam<BroadcastParams> {};

TEST_P(BroadcastSweep, AddMatchesManualIndexing) {
  auto [sa, sb] = GetParam();
  Rng rng(7);
  ts::Tensor a = ts::Tensor::Randn(sa, rng);
  ts::Tensor b = ts::Tensor::Randn(sb, rng);
  ts::Tensor out = ts::Add(a, b);
  const ts::Shape os = ts::BroadcastShapes(sa, sb);
  ASSERT_EQ(out.shape(), os);

  const auto stride_a = ts::ContiguousStrides(sa);
  const auto stride_b = ts::ContiguousStrides(sb);
  const auto stride_o = ts::ContiguousStrides(os);
  for (int64_t flat = 0; flat < out.numel(); ++flat) {
    // Decompose the output index; map to each input index.
    int64_t rem = flat;
    int64_t ia = 0;
    int64_t ib = 0;
    for (size_t d = 0; d < os.size(); ++d) {
      const int64_t idx = rem / stride_o[d];
      rem %= stride_o[d];
      const int da = static_cast<int>(d) -
                     static_cast<int>(os.size() - sa.size());
      const int db = static_cast<int>(d) -
                     static_cast<int>(os.size() - sb.size());
      if (da >= 0 && sa[da] != 1) ia += idx * stride_a[da];
      if (db >= 0 && sb[db] != 1) ib += idx * stride_b[db];
    }
    EXPECT_FLOAT_EQ(out.flat(flat), a.flat(ia) + b.flat(ib));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(BroadcastParams{{4}, {1}},
                      BroadcastParams{{2, 3}, {3}},
                      BroadcastParams{{2, 3}, {2, 1}},
                      BroadcastParams{{4, 1, 3}, {2, 3}},
                      BroadcastParams{{2, 3, 4}, {1, 3, 1}},
                      BroadcastParams{{1, 5}, {4, 1}},
                      BroadcastParams{{2, 1, 4, 1}, {3, 1, 5}}));

// --- GridDataset representations: sizes and sample boundaries -------------

using GridRepParams = std::tuple<int, int, int, int>;
// (timesteps, len_closeness, len_period, len_trend)

class PeriodicalSweep : public ::testing::TestWithParam<GridRepParams> {};

TEST_P(PeriodicalSweep, SampleIndexingInvariants) {
  auto [t, lc, lp, lt] = GetParam();
  const int steps_per_day = 4;
  ts::Tensor data({t, 1, 2, 2});
  for (int64_t i = 0; i < t; ++i) {
    for (int p = 0; p < 4; ++p) data.flat(i * 4 + p) = static_cast<float>(i);
  }
  datasets::GridDataset dataset(data, steps_per_day);
  dataset.SetPeriodicalRepresentation(lc, lp, lt);

  int64_t first = lc;
  if (lp > 0) first = std::max<int64_t>(first, lp * steps_per_day);
  if (lt > 0) first = std::max<int64_t>(first, lt * 7 * steps_per_day);
  ASSERT_EQ(dataset.Size(), t - first);

  for (int64_t i : {int64_t{0}, dataset.Size() - 1}) {
    data::Sample s = dataset.Get(i);
    const float target = static_cast<float>(first + i);
    EXPECT_EQ(s.y.flat(0), target);
    // Closeness stack: most recent frame is target - 1.
    EXPECT_EQ(s.x.flat((lc - 1) * 4), target - 1);
    EXPECT_EQ(s.x.flat(0), target - lc);
    size_t extra = 0;
    if (lp > 0) {
      EXPECT_EQ(s.extras[extra].flat(0), target - lp * steps_per_day);
      ++extra;
    }
    if (lt > 0) {
      EXPECT_EQ(s.extras[extra].flat(0), target - lt * 7 * steps_per_day);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PeriodicalSweep,
                         ::testing::Values(GridRepParams{40, 1, 0, 0},
                                           GridRepParams{40, 3, 0, 0},
                                           GridRepParams{40, 2, 1, 0},
                                           GridRepParams{40, 2, 2, 1},
                                           GridRepParams{70, 4, 3, 2},
                                           GridRepParams{120, 3, 4, 4}));

// --- Spatial join strategies agree on random workloads --------------------

using JoinParams = std::tuple<int, int, int>;  // (grid_x, grid_y, points)

class JoinSweep : public ::testing::TestWithParam<JoinParams> {};

TEST_P(JoinSweep, AllStrategiesAgree) {
  auto [gx, gy, n] = GetParam();
  Rng rng(gx * 7 + gy * 3 + n);
  spatial::GridPartitioner grid(spatial::Envelope(-10, -5, 10, 5), gx, gy);
  std::vector<spatial::Polygon> cells = grid.CellPolygons();
  std::vector<spatial::Point> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(-9.99, 9.99), rng.Uniform(-4.99, 4.99)});
  }
  auto hash = spatial::PointInPolygonJoin(points, cells,
                                          spatial::JoinStrategy::kGridHash,
                                          &grid);
  auto tree = spatial::PointInPolygonJoin(points, cells,
                                          spatial::JoinStrategy::kStrTree);
  ASSERT_EQ(hash.size(), points.size());
  ASSERT_EQ(tree.size(), points.size());
  std::map<int64_t, int64_t> hash_map;
  for (const auto& p : hash) hash_map[p.point_idx] = p.polygon_idx;
  for (const auto& p : tree) {
    EXPECT_EQ(hash_map[p.point_idx], p.polygon_idx);
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, JoinSweep,
                         ::testing::Values(JoinParams{1, 1, 50},
                                           JoinParams{2, 3, 100},
                                           JoinParams{8, 8, 200},
                                           JoinParams{16, 4, 200},
                                           JoinParams{5, 20, 150}));

// --- Parallel join is row-for-row identical to serial ---------------------
// The probe-side fan-out uses per-chunk buffers concatenated in chunk
// order, so for any partition (pool) size the output must equal the
// serial join exactly — including the degenerate inputs.

using ParallelJoinParams = std::tuple<int, spatial::JoinStrategy>;
// (pool threads a.k.a. probe partitions, strategy)

class ParallelJoinSweep
    : public ::testing::TestWithParam<ParallelJoinParams> {};

TEST_P(ParallelJoinSweep, ParallelOutputIdenticalToSerial) {
  auto [threads, strategy] = GetParam();
  spatial::GridPartitioner grid(spatial::Envelope(0, 0, 8, 8), 4, 4);
  std::vector<spatial::Polygon> cells = grid.CellPolygons();
  ThreadPool pool(threads);

  Rng rng(threads * 31 + static_cast<int>(strategy));
  std::vector<std::pair<const char*, std::vector<spatial::Point>>> inputs;
  std::vector<spatial::Point> random_points;
  for (int i = 0; i < 500; ++i) {
    random_points.push_back(
        {rng.Uniform(0.01, 7.99), rng.Uniform(0.01, 7.99)});
  }
  inputs.emplace_back("random", std::move(random_points));
  inputs.emplace_back("empty", std::vector<spatial::Point>{});
  std::vector<spatial::Point> outside;
  for (int i = 0; i < 64; ++i) {
    outside.push_back({rng.Uniform(20, 30), rng.Uniform(20, 30)});
  }
  inputs.emplace_back("zero_matches", std::move(outside));
  inputs.emplace_back("single_row",
                      std::vector<spatial::Point>{{1.5, 1.5}});
  std::vector<spatial::Point> one_cell;
  for (int i = 0; i < 200; ++i) {
    one_cell.push_back({rng.Uniform(0.01, 1.99), rng.Uniform(0.01, 1.99)});
  }
  inputs.emplace_back("all_in_one_cell", std::move(one_cell));

  for (const auto& [label, points] : inputs) {
    spatial::JoinOptions serial_opts;
    serial_opts.strategy = strategy;
    serial_opts.parallel = false;
    spatial::JoinOptions parallel_opts = serial_opts;
    parallel_opts.parallel = true;
    parallel_opts.pool = &pool;
    auto serial = spatial::PointInPolygonJoin(points, cells, serial_opts,
                                              &grid);
    auto parallel = spatial::PointInPolygonJoin(points, cells,
                                                parallel_opts, &grid);
    ASSERT_EQ(serial.size(), parallel.size()) << label;
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].point_idx, parallel[i].point_idx)
          << label << " row " << i;
      EXPECT_EQ(serial[i].polygon_idx, parallel[i].polygon_idx)
          << label << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PartitionsByStrategy, ParallelJoinSweep,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(spatial::JoinStrategy::kStrTree,
                                         spatial::JoinStrategy::kGridHash)));

// --- GroupBy: packed fast path vs generic path vs manual ------------------

using GroupByParams = std::tuple<int, int64_t, bool>;
// (num rows, key cardinality, force generic path with huge keys)

class GroupBySweep : public ::testing::TestWithParam<GroupByParams> {};

TEST_P(GroupBySweep, MatchesManualAggregation) {
  auto [n, cardinality, huge_keys] = GetParam();
  Rng rng(static_cast<uint64_t>(n + cardinality));
  const int64_t offset = huge_keys ? (int64_t{1} << 40) : 0;
  std::vector<int64_t> keys(n);
  std::vector<double> values(n);
  std::map<int64_t, std::pair<int64_t, double>> manual;
  for (int i = 0; i < n; ++i) {
    keys[i] = offset + rng.UniformInt(0, cardinality - 1);
    values[i] = rng.Uniform(-1, 1);
    manual[keys[i]].first += 1;
    manual[keys[i]].second += values[i];
  }
  df::DataFrame frame =
      df::DataFrame::FromColumns({{"k", df::Column::FromInt64s(keys)},
                                  {"v", df::Column::FromDoubles(values)}})
          .Repartition(3);
  df::DataFrame agg =
      frame
          .GroupByAgg({"k"}, {{df::AggKind::kCount, "", "n"},
                              {df::AggKind::kSum, "v", "s"}})
          .SortByInt64("k");
  ASSERT_EQ(agg.NumRows(), static_cast<int64_t>(manual.size()));
  auto out_k = agg.CollectInt64("k");
  auto out_n = agg.CollectInt64("n");
  auto out_s = agg.CollectDouble("s");
  for (size_t i = 0; i < out_k.size(); ++i) {
    EXPECT_EQ(out_n[i], manual[out_k[i]].first);
    EXPECT_NEAR(out_s[i], manual[out_k[i]].second, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, GroupBySweep,
                         ::testing::Values(GroupByParams{100, 5, false},
                                           GroupByParams{1000, 50, false},
                                           GroupByParams{1000, 900, false},
                                           GroupByParams{500, 20, true},
                                           GroupByParams{2000, 2000, true}));

// --- STR-tree across node capacities ---------------------------------------

class StrTreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(StrTreeSweep, QueryMatchesBruteForceAtEveryCapacity) {
  const int capacity = GetParam();
  Rng rng(capacity);
  std::vector<spatial::StrTree::Entry> entries;
  for (int64_t i = 0; i < 150; ++i) {
    const double x = rng.Uniform(0, 50);
    const double y = rng.Uniform(0, 50);
    entries.push_back({spatial::Envelope(x, y, x + rng.Uniform(0, 3),
                                         y + rng.Uniform(0, 3)),
                       i});
  }
  spatial::StrTree tree(entries, capacity);
  for (int q = 0; q < 10; ++q) {
    const double x = rng.Uniform(0, 50);
    const double y = rng.Uniform(0, 50);
    spatial::Envelope query(x, y, x + 8, y + 8);
    auto got = tree.Query(query);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> want;
    for (const auto& e : entries) {
      if (e.envelope.Intersects(query)) want.push_back(e.id);
    }
    EXPECT_EQ(got, want) << "capacity " << capacity;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, StrTreeSweep,
                         ::testing::Values(2, 3, 4, 10, 50, 200));

// --- Pooling / upsample adjointness ---------------------------------------
// <down(x), y> == <x, up(y)> must hold for adjoint pairs — the property
// the autograd backward passes rely on.

TEST(AdjointProperty, UpsampleAndItsBackwardAreAdjoint) {
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    ts::Tensor x = ts::Tensor::Randn({2, 3, 4, 4}, rng);
    ts::Tensor y = ts::Tensor::Randn({2, 3, 8, 8}, rng);
    const float lhs = ts::SumAll(ts::Mul(ts::UpsampleNearest2x(x), y));
    const float rhs =
        ts::SumAll(ts::Mul(x, ts::UpsampleNearest2xBackward(y)));
    EXPECT_NEAR(lhs, rhs, 1e-3f);
  }
}

TEST(AdjointProperty, Im2ColAndCol2ImAreAdjoint) {
  Rng rng(10);
  ts::ConvSpec spec{.stride = 2, .padding = 1};
  ts::Tensor x = ts::Tensor::Randn({1, 2, 6, 6}, rng);
  ts::Tensor cols = ts::Im2Col(x, 0, 3, 3, spec);
  ts::Tensor y = ts::Tensor::Randn(cols.shape(), rng);
  const float lhs = ts::SumAll(ts::Mul(cols, y));
  ts::Tensor back = ts::Tensor::Zeros({1, 2, 6, 6});
  ts::Col2ImAdd(y, back, 0, 3, 3, spec);
  const float rhs = ts::SumAll(ts::Mul(x, back));
  EXPECT_NEAR(lhs, rhs, 1e-3f);
}

}  // namespace
}  // namespace geotorch
