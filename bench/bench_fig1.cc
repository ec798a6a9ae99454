/**
 * @file
 * Figure 1 reproduction: the training workflow and per-device memory
 * evolution of inter-operator training — 3 workers, minibatches of 6
 * microbatches, PipeDream (asynchronous) vs DAPPLE (synchronous) —
 * rendered as ASCII memory curves from the executor's memory event
 * log.
 *
 * The paper's claims to check: memory rises during the forward
 * build-up and falls as backwards complete; Worker 1 accumulates more
 * in-flight activation state than Worker 3 at every point; PipeDream
 * streams the next minibatch in without draining, DAPPLE drains at
 * the minibatch boundary.
 */

#include <algorithm>

#include "bench/common.hh"

namespace api = mpress::api;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace pl = mpress::pipeline;
namespace mu = mpress::util;
namespace rt = mpress::runtime;

namespace {

constexpr int kWorkers = 3;
constexpr int kColumns = 64;

void
curves(pl::SystemKind system)
{
    api::SessionConfig cfg;
    cfg.model = mm::presetByName("bert-0.35b");
    cfg.microbatch = 4;
    cfg.system = system;
    cfg.numStages = kWorkers;
    cfg.microbatchesPerMinibatch = 6;
    cfg.minibatches = 2;
    cfg.strategy = api::Strategy::None;
    cfg.executor.record = true;
    auto result = api::runSession(hw::Topology::dgx1V100(), cfg);

    // Usage after every allocation change, per GPU: a running sum of
    // the memory event log.  MemoryTimeline::curve() would collapse
    // same-tick changes and hide the spikes between them.
    std::vector<mu::Bytes> used(result.report.gpus.size(), 0);
    std::vector<std::vector<std::pair<mu::Tick, mu::Bytes>>> steps(
        used.size());
    mu::Bytes top = 1;
    for (const auto &e : result.report.observability.memory.events()) {
        auto g = static_cast<std::size_t>(e.gpu);
        used[g] += e.delta;
        steps[g].emplace_back(e.time, used[g]);
        top = std::max(top, used[g]);
    }
    mu::Tick span = result.report.makespan;

    std::printf("--- %s: per-worker memory over time (peak = %s)"
                " ---\n",
                pl::systemKindName(system),
                mu::formatBytes(top).c_str());

    for (int w = 0; w < kWorkers; ++w) {
        // Resample the step curve onto kColumns buckets (max-hold).
        std::vector<mu::Bytes> level(kColumns, 0);
        mu::Bytes current = 0;
        std::size_t idx = 0;
        const auto &events = steps[static_cast<std::size_t>(w)];
        for (int col = 0; col < kColumns; ++col) {
            mu::Tick until = span * (col + 1) / kColumns;
            mu::Bytes peak_in_bucket = current;
            while (idx < events.size() &&
                   events[idx].first <= until) {
                current = events[idx].second;
                peak_in_bucket = std::max(peak_in_bucket, current);
                ++idx;
            }
            level[static_cast<std::size_t>(col)] = peak_in_bucket;
        }
        const char *shades = " .:-=+*#%@";
        std::string row;
        for (int col = 0; col < kColumns; ++col) {
            int shade = static_cast<int>(
                9.0 * static_cast<double>(level[
                          static_cast<std::size_t>(col)]) /
                static_cast<double>(top));
            row.push_back(shades[std::clamp(shade, 0, 9)]);
        }
        std::printf("worker %d |%s| peak %s\n", w + 1, row.c_str(),
                    mu::formatBytes(
                        result.report.gpus[static_cast<std::size_t>(w)]
                            .peak)
                        .c_str());
    }

    // The Figure 1 invariant: earlier workers hold more memory.
    std::printf("peak order: worker1 %s worker2 %s worker3\n\n",
                result.report.gpus[0].peak >=
                        result.report.gpus[1].peak
                    ? ">="
                    : "< (!)",
                result.report.gpus[1].peak >=
                        result.report.gpus[2].peak
                    ? ">="
                    : "< (!)");
}

} // namespace

int
main()
{
    std::printf("Figure 1: inter-operator training memory evolution"
                " (3 workers, 6-microbatch minibatches)\n\n");
    curves(pl::SystemKind::PipeDream);
    curves(pl::SystemKind::Dapple);
    std::printf("paper: memory ramps during forward build-up, drains"
                " with backwards; worker 1 always holds the most;"
                " DAPPLE drains fully at minibatch boundaries.\n");
    return 0;
}
