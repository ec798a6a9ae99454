/**
 * @file
 * Trace export: run a compacted training window with recording on,
 * then write a Chrome-trace JSON (load it in chrome://tracing or
 * ui.perfetto.dev) showing forward/backward/recompute spans per GPU
 * with memory/metric counter tracks, plus the observability bundle
 * as JSON and the per-GPU memory curves as CSV.
 *
 * Run: ./build/examples/trace_export [output.json]
 */

#include <cstdio>
#include <fstream>

#include "api/session.hh"
#include "obs/export.hh"
#include "util/strings.hh"

namespace api = mpress::api;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace obs = mpress::obs;

int
main(int argc, char **argv)
{
    const char *json_path = argc > 1 ? argv[1] : "mpress_trace.json";

    api::SessionConfig cfg;
    cfg.model = mm::presetByName("bert-0.64b");
    cfg.microbatch = 12;
    cfg.system = mpress::pipeline::SystemKind::PipeDream;
    cfg.numStages = 8;
    cfg.microbatchesPerMinibatch = 1;
    cfg.minibatches = 8;
    cfg.strategy = api::Strategy::MPressFull;
    cfg.executor.record = true;

    auto result = api::runSession(hw::Topology::dgx1V100(), cfg);
    if (result.oom) {
        std::printf("job OOMed; nothing to trace\n");
        return 1;
    }
    const auto &bundle = result.report.observability;

    std::ofstream json(json_path);
    result.report.trace.exportChromeTrace(json);
    std::printf("wrote %zu spans and %zu counter events to %s"
                " (open in chrome://tracing)\n",
                result.report.trace.size(),
                result.report.trace.counters().size(), json_path);

    std::string metrics_path =
        std::string(json_path) + ".metrics.json";
    std::ofstream metrics(metrics_path);
    obs::exportJson(metrics, bundle);
    metrics << "\n";
    std::printf("wrote %zu metric series to %s\n",
                bundle.metrics.series().size(), metrics_path.c_str());

    std::string csv_path = std::string(json_path) + ".mem.csv";
    std::ofstream csv(csv_path);
    obs::exportMemoryCsv(csv, bundle);
    std::printf("wrote memory curves for %zu GPUs to %s\n",
                bundle.memory.gpus().size(), csv_path.c_str());
    std::printf("throughput: %.1f samples/s (%.1f TFLOPS)\n",
                result.samplesPerSec, result.tflops);
    return 0;
}
