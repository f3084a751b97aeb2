// Reproduces Table VII: training time per epoch for all nine models on
// their respective workloads (grid models on Temperature, classifiers
// on EuroSAT, segmenters on 38-Cloud). Absolute numbers differ from
// the paper's GPU testbed; the shape to check is the ordering:
// Periodical CNN fastest of the grid models and ConvLSTM by far the
// slowest; DeepSAT-V2 much faster than SatCNN; FCN < UNet < UNet++.
//
// Flags: --scale=paper for full-size datasets; --trace_json=PATH to
// dump the aggregated trace-span tree and counters of the whole run.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "bench/grid_bench_common.h"
#include "datasets/benchmarks.h"
#include "models/segmentation_models.h"
#include "obs/obs.h"

namespace geotorch::bench {
namespace {

namespace ds = ::geotorch::datasets;
namespace obs = ::geotorch::obs;

// Prints the trainer phase breakdown from the aggregated span tree and
// writes the full observability snapshot to args.trace_json. The
// per-phase times (load/forward/backward/step) should cover nearly all
// of the measured epoch wall-clock — the gap is loop overhead.
void DumpTrace(const BenchArgs& args, double measured_epoch_secs) {
  const auto roots = obs::AggregateSpans();
  const obs::SpanNode* epoch = nullptr;
  for (const auto& r : roots) {
    if (r.name == "trainer.epoch") epoch = &r;
  }
  if (epoch != nullptr) {
    std::printf("\nTrace breakdown (%lld epochs, %.3f s inside "
                "trainer.epoch, %.3f s measured):\n",
                static_cast<long long>(epoch->count),
                epoch->total_ns * 1e-9, measured_epoch_secs);
    double phase_sum_ns = 0.0;
    for (const auto& child : epoch->children) {
      phase_sum_ns += static_cast<double>(child.total_ns);
      std::printf("  %-18s %8lld calls %10.3f s\n", child.name.c_str(),
                  static_cast<long long>(child.count),
                  child.total_ns * 1e-9);
    }
    std::printf("  %-18s %19s %10.3f s (%.1f%% of measured wall-clock)\n",
                "phase sum", "", phase_sum_ns * 1e-9,
                100.0 * phase_sum_ns * 1e-9 / measured_epoch_secs);
  }
  // Patch matrices written out (Im2ColInto and the small-problem GEMM
  // fallbacks); the stride-1 conv kernels gather from the image instead.
  std::printf("  conv.im2col_bytes  %.3f MB\n",
              obs::GetCounter("conv.im2col_bytes")->value() * 1e-6);
  if (obs::WriteJsonFile(args.trace_json)) {
    std::printf("wrote %s\n", args.trace_json.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", args.trace_json.c_str());
  }
}

void Run(const BenchArgs& args) {
  // Clean capture window: only this run's activity lands in the dump.
  if (!args.trace_json.empty()) obs::Reset();
  double total_epoch_secs = 0.0;
  const int64_t weather_t = args.paper_scale ? 2000 : 400;
  const int64_t wh = args.paper_scale ? 32 : 16;
  const int64_t ww = args.paper_scale ? 64 : 32;
  const int64_t n_eurosat = args.paper_scale ? 2000 : 128;
  const int64_t n_cloud = args.paper_scale ? 200 : 24;
  const int64_t cloud_size = args.paper_scale ? 192 : 48;

  std::printf("TABLE VII: Training Time of Various Models for a Single "
              "Epoch\n");
  PrintRule();
  std::printf("%-12s %-15s %-15s %s\n", "Dataset", "Application", "Model",
              "Time/Epoch");
  PrintRule();

  // --- Grid models on Temperature -----------------------------------
  {
    ds::GridDataset base = ds::MakeTemperature(weather_t, wh, ww, 3);
    base.MinMaxNormalize();
    models::TrainConfig tc;
    tc.batch_size = 16;
    const GridModelKind kinds[] = {
        GridModelKind::kPeriodicalCnn, GridModelKind::kConvLstm,
        GridModelKind::kStResNet, GridModelKind::kDeepStnPlus};
    for (GridModelKind kind : kinds) {
      ds::GridDataset dataset = base;  // cheap copy (shared tensor)
      models::GridModelConfig mc;
      mc.channels = 1;
      mc.height = wh;
      mc.width = ww;
      mc.hidden = 16;
      if (kind == GridModelKind::kConvLstm) {
        dataset.SetSequentialRepresentation(6, 1);
      } else {
        dataset.SetPeriodicalRepresentation(3, 2, 1);
      }
      std::unique_ptr<models::GridModel> model = MakeGridModel(kind, mc);
      const double secs = models::TimeOneEpochGrid(*model, dataset, tc);
      total_epoch_secs += secs;
      std::printf("%-12s %-15s %-15s %.3f s\n", "Temperature", "Prediction",
                  GridModelName(kind), secs);
    }
  }

  // --- Classifiers on EuroSAT ------------------------------------------
  {
    models::TrainConfig tc;
    tc.batch_size = 16;
    for (const char* name : {"DeepSAT V2", "SatCNN"}) {
      const bool deepsat = std::string(name) == "DeepSAT V2";
      ds::RasterDatasetOptions options;
      options.include_additional_features = deepsat;
      ds::RasterClassificationDataset dataset =
          ds::MakeEuroSat(n_eurosat, options, 4);
      models::RasterModelConfig mc;
      mc.in_channels = 13;
      mc.in_height = 64;
      mc.in_width = 64;
      mc.num_classes = 10;
      mc.num_filtered_features =
          deepsat ? dataset.num_additional_features() : 0;
      mc.base_filters = 8;
      std::unique_ptr<models::RasterClassifier> model;
      if (deepsat) {
        model = std::make_unique<models::DeepSatV2>(mc);
      } else {
        model = std::make_unique<models::SatCnn>(mc);
      }
      const double secs =
          models::TimeOneEpochClassifier(*model, dataset, tc);
      total_epoch_secs += secs;
      std::printf("%-12s %-15s %-15s %.3f s\n", "EuroSAT", "Classification",
                  name, secs);
    }
  }

  // --- Segmenters on 38-Cloud ------------------------------------------
  {
    models::TrainConfig tc;
    tc.batch_size = 4;
    ds::RasterSegmentationDataset dataset =
        ds::MakeCloud38(n_cloud, cloud_size, {}, 5);
    models::SegModelConfig mc;
    mc.in_channels = 4;
    mc.num_classes = 2;
    mc.base_filters = 8;
    for (const char* name : {"FCN", "UNet", "UNet++"}) {
      std::unique_ptr<nn::UnaryModule> model;
      const std::string n = name;
      if (n == "FCN") {
        model = std::make_unique<models::Fcn>(mc);
      } else if (n == "UNet") {
        model = std::make_unique<models::UNet>(mc);
      } else {
        model = std::make_unique<models::UNetPlusPlus>(mc);
      }
      const double secs = models::TimeOneEpochSegmenter(*model, dataset, tc);
      total_epoch_secs += secs;
      std::printf("%-12s %-15s %-15s %.3f s\n", "38-Cloud", "Segmentation",
                  name, secs);
    }
  }
  PrintRule();
  if (!args.trace_json.empty()) DumpTrace(args, total_epoch_secs);
}

}  // namespace
}  // namespace geotorch::bench

int main(int argc, char** argv) {
  geotorch::bench::Run(geotorch::bench::BenchArgs::Parse(argc, argv));
  return 0;
}
