#include "baselines/zero.hh"

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "sim/engine.hh"
#include "sim/stream.hh"
#include "util/logging.hh"

namespace mpress {
namespace baselines {

const char *
zeroVariantName(ZeroVariant v)
{
    return v == ZeroVariant::Offload ? "ZeRO-Offload"
                                     : "ZeRO-Infinity";
}

namespace {

/** Effective per-GPU collective bandwidth (ring over NVLink). */
util::Bandwidth
collectiveBandwidth(const hw::Topology &topo, double efficiency)
{
    int lanes = topo.symmetric() ? topo.gpu().nvlinkPorts
                                 : topo.totalLanes(0);
    return topo.nvlinkSpec().peak * (lanes * efficiency);
}

} // namespace

ZeroReport
runZero(const hw::Topology &topo, const model::ModelConfig &model_cfg,
        ZeroConfig cfg)
{
    ZeroReport report;
    const int n = topo.numGpus();
    model::TransformerModel mdl(model_cfg, cfg.microbatch);
    const auto precision = model_cfg.precision;

    // ---- static memory check (per GPU) ----------------------------
    const std::int64_t params = mdl.totalParams();
    const Bytes param_bytes = mdl.paramBytes(params);
    const Bytes grad_bytes = mdl.gradBytes(params);
    const Bytes opt_bytes = mdl.optStateBytes(params);

    // ZeRO-3 partitions parameters and gradients N ways; both
    // variants keep optimizer state off the GPU entirely.
    Bytes static_per_gpu = (param_bytes + grad_bytes) / n;

    // Working set: the two largest gathered layers (current +
    // prefetch) plus checkpointed activation boundaries for the whole
    // model plus one layer's full activation stash (recompute WAR).
    Bytes biggest_layer = 0, second_layer = 0, biggest_stash = 0;
    Bytes boundaries = 0;
    for (const auto &layer : mdl.layers()) {
        Bytes lp = mdl.paramBytes(layer.params);
        if (lp >= biggest_layer) {
            second_layer = biggest_layer;
            biggest_layer = lp;
        } else {
            second_layer = std::max(second_layer, lp);
        }
        biggest_stash = std::max(biggest_stash,
                                 layer.activationStash);
        boundaries += layer.outputBytes;
    }
    Bytes peak = static_per_gpu + biggest_layer + second_layer +
                 boundaries + biggest_stash;
    report.gpuPeak = peak;

    const Bytes usable = topo.gpu().usableCapacity();
    if (peak > usable) {
        report.oom = true;
        return report;
    }

    report.hostBytes =
        cfg.variant == ZeroVariant::Offload ? opt_bytes : 0;
    report.nvmeBytes =
        cfg.variant == ZeroVariant::Infinity ? opt_bytes : 0;
    if (cfg.variant == ZeroVariant::Infinity &&
        topo.nvmeCapacity() == 0) {
        // No SSD on this server: Infinity cannot run.
        report.oom = true;
        return report;
    }

    // ---- one-iteration timeline ------------------------------------
    sim::Engine engine;
    sim::Stream compute(engine, "zero.compute");
    sim::Stream comm(engine, "zero.comm");

    auto bw = collectiveBandwidth(topo, cfg.ringEfficiency);
    auto gather_time = [&](const model::Layer &layer) {
        // All-gather moves (N-1)/N of the layer from peers.
        Bytes bytes = mdl.paramBytes(layer.params) * (n - 1) / n;
        return bw.transferTime(bytes);
    };
    auto scatter_time = [&](const model::Layer &layer) {
        Bytes bytes = mdl.gradBytes(layer.params) * (n - 1) / n;
        return bw.transferTime(bytes);
    };

    const auto &gpu = topo.gpu();
    const std::size_t L = mdl.numLayers();

    // Forward, then backward with recompute; parameters are gathered
    // per layer on the comm stream, prefetched one layer ahead, and
    // the compute stream blocks on the gather of its current layer.
    // Tracking per-layer gather completion:
    std::vector<char> gathered(L, 0);
    std::vector<char> waiting(L, 0);

    struct Walk
    {
        std::size_t idx = 0;
        bool backward = false;
        int accumStep = 0;
    };
    Walk walk_obj;
    Walk *walk = &walk_obj;

    std::function<void()> run_layer;
    std::function<void(std::size_t)> issue_gather;

    issue_gather = [&](std::size_t i) {
        if (i >= L || gathered[i] != 0)
            return;  // already issued or complete
        gathered[i] = 2;  // issued
        comm.submit(gather_time(mdl.layer(i)),
                    [&, i](util::Tick, util::Tick) {
                        gathered[i] = 1;
                        if (waiting[i]) {
                            waiting[i] = 0;
                            run_layer();
                        }
                    });
    };

    run_layer = [&]() {
        if (walk->idx >= L && !walk->backward) {
            // Switch to backward: ZeRO-3 re-gathers layer by layer.
            walk->backward = true;
            walk->idx = 0;
            std::fill(gathered.begin(), gathered.end(), 0);
            issue_gather(L - 1);
        }
        if (walk->backward && walk->idx >= L) {
            ++walk->accumStep;
            if (walk->accumStep < cfg.gradAccumSteps) {
                walk->backward = false;
                walk->idx = 0;
                std::fill(gathered.begin(), gathered.end(), 0);
                issue_gather(0);
                run_layer();
                return;
            }
            return;  // iteration compute complete
        }

        std::size_t i = walk->backward ? L - 1 - walk->idx
                                       : walk->idx;
        if (gathered[i] != 1) {
            waiting[i] = 1;
            if (gathered[i] == 0)
                issue_gather(i);
            return;
        }
        // Prefetch the next layer's gather.
        if (walk->backward) {
            if (i > 0)
                issue_gather(i - 1);
        } else {
            issue_gather(i + 1);
        }

        const auto &layer = mdl.layer(i);
        double flops = walk->backward
                           ? layer.fwdFlops + layer.bwdFlops()
                           : layer.fwdFlops;
        flops /= cfg.computeEfficiency;
        util::Tick dur = gpu.computeTime(flops, precision);
        bool backward_now = walk->backward;
        compute.submit(dur, [&, backward_now,
                             i](util::Tick, util::Tick) {
            if (backward_now)
                comm.submit(scatter_time(mdl.layer(i)),
                            [](util::Tick, util::Tick) {});
            ++walk->idx;
            run_layer();
        });
    };

    engine.schedule(0, [&]() {
        issue_gather(0);
        run_layer();
    });
    engine.run();
    Tick compute_done = engine.now();
    report.commTime = comm.busyTime();

    // ---- optimizer step (serial tail) ------------------------------
    Tick tail = 0;
    Bytes grads_part = grad_bytes / n;
    Bytes params_part = param_bytes / n;
    // Host-side Adam is memory-bound; ~25 GB/s effective touch rate.
    auto host_bw = util::Bandwidth::fromGBps(25.0);
    Tick cpu_step = host_bw.transferTime(opt_bytes / n);

    if (cfg.variant == ZeroVariant::Offload) {
        tail = topo.pcieSpec().transferTime(grads_part) + cpu_step +
               topo.pcieSpec().transferTime(params_part);
    } else {
        // Infinity: stream optimizer state from NVMe through host,
        // step, write back.  The single SSD serves all N ranks.
        Tick nvme_rw = topo.nvmeSpec().transferTime(opt_bytes) * 2;
        tail = topo.pcieSpec().transferTime(grads_part) + cpu_step +
               topo.pcieSpec().transferTime(params_part) + nvme_rw;
    }
    report.offloadTime = tail;
    report.iterTime = compute_done + tail;

    double secs = util::toSeconds(report.iterTime);
    double samples = static_cast<double>(cfg.microbatch) * n *
                     cfg.gradAccumSteps;
    report.samplesPerSec = samples / secs;
    report.tflops = 3.0 * mdl.totalFwdFlops() * n *
                    cfg.gradAccumSteps / secs / 1e12;
    return report;
}

} // namespace baselines
} // namespace mpress
