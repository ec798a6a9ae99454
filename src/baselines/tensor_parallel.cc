#include "baselines/tensor_parallel.hh"

#include <algorithm>
#include <functional>
#include <memory>

#include "sim/engine.hh"
#include "sim/stream.hh"
#include "util/logging.hh"

namespace mpress {
namespace baselines {

TensorParallelReport
runTensorParallel(const hw::Topology &topo,
                  const model::ModelConfig &model_cfg,
                  TensorParallelConfig cfg)
{
    TensorParallelReport report;
    const int n = topo.numGpus();
    model::TransformerModel mdl(model_cfg, cfg.microbatch);
    const auto precision = model_cfg.precision;

    // ---- memory (per GPU) ------------------------------------------
    // Parameters/gradients/optimizer are sliced n ways; activations
    // are mostly sliced too, but each block keeps the full-width
    // input, attention-softmax rows and the all-reduced outputs
    // replicated — roughly 1/n of the stash plus a replicated share.
    const std::int64_t params = mdl.totalParams();
    Bytes static_per_gpu = mdl.staticBytes(params) / n;
    const double replicated_share = 0.15;  // LN/dropout rows
    Bytes act = 0;
    for (const auto &layer : mdl.layers()) {
        act += static_cast<Bytes>(
            static_cast<double>(layer.activationStash) *
            (1.0 / n + replicated_share));
    }
    report.gpuPeak = static_per_gpu + act;
    const Bytes usable = topo.gpu().usableCapacity();
    if (report.gpuPeak > usable) {
        report.oom = true;
        return report;
    }

    // ---- one-iteration timeline -------------------------------------
    sim::Engine engine;
    sim::Stream compute(engine, "tp.compute");
    sim::Stream comm(engine, "tp.comm");

    int lanes = topo.symmetric() ? topo.gpu().nvlinkPorts
                                 : topo.totalLanes(0);
    auto ring_bw = topo.nvlinkSpec().peak *
                   (lanes * cfg.ringEfficiency);

    // Ring all-reduce of the full hidden activation: 2(n-1)/n of the
    // buffer crosses each GPU's links, plus 2(n-1) latency hops.
    const Bytes hidden = static_cast<Bytes>(model_cfg.seqLen) *
                         cfg.microbatch * model_cfg.hidden *
                         hw::precisionBytes(precision);
    Tick allreduce = ring_bw.transferTime(
                         hidden * 2 * (n - 1) / n) +
                     2 * (n - 1) * topo.nvlinkSpec().latency;

    const auto &gpu = topo.gpu();
    const std::size_t L = mdl.numLayers();

    // Forward then backward; each block alternates sliced compute
    // and a blocking all-reduce.  The all-reduce result feeds the
    // next operator immediately, so unlike ZeRO's gathers it cannot
    // be prefetched — the comm stream's time is exposed.
    struct Walk { std::size_t idx = 0; bool backward = false; };
    Walk walk;
    std::function<void()> run_layer = [&]() {
        if (!walk.backward && walk.idx >= L) {
            walk.backward = true;
            walk.idx = 0;
        }
        if (walk.backward && walk.idx >= L)
            return;
        std::size_t i =
            walk.backward ? L - 1 - walk.idx : walk.idx;
        const auto &layer = mdl.layer(i);
        double flops = (walk.backward ? layer.bwdFlops()
                                      : layer.fwdFlops) /
                       n;
        Tick dur = gpu.computeTime(flops, precision);
        compute.submit(dur, [&, i](util::Tick, util::Tick) {
            bool is_block = i > 0 && i + 1 < L;
            if (!is_block) {
                ++walk.idx;
                run_layer();
                return;
            }
            // Blocking all-reduces before the next layer can start.
            auto join = std::make_shared<sim::JoinCounter>(
                cfg.allReducesPerBlock, [&]() {
                    ++walk.idx;
                    run_layer();
                });
            for (int r = 0; r < cfg.allReducesPerBlock; ++r) {
                comm.submit(allreduce,
                            [join](util::Tick, util::Tick) {
                                join->arrive();
                            });
            }
        });
    };

    engine.schedule(0, [&]() { run_layer(); });
    engine.run();

    report.iterTime = engine.now();
    report.commTime = comm.busyTime();
    report.commFraction =
        static_cast<double>(report.commTime) /
        static_cast<double>(std::max<Tick>(report.iterTime, 1));

    double secs = util::toSeconds(report.iterTime);
    report.samplesPerSec = cfg.microbatch / secs;
    report.tflops = 3.0 * mdl.totalFwdFlops() / secs / 1e12;
    return report;
}

} // namespace baselines
} // namespace mpress
