/**
 * @file
 * Topology explorer: run the Figure-6 device-mapping search on the
 * DGX-1 mesh, the DGX-2 switch fabric, and a custom asymmetric
 * 4-GPU server, printing the chosen stage placement, spare-memory
 * grants and the resulting striping of a sample tensor.
 *
 * Run: ./build/examples/topology_explorer
 */

#include <cstdio>
#include <iostream>

#include "compaction/striping.hh"
#include "planner/mapper.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace pn = mpress::planner;
namespace mu = mpress::util;

namespace {

void
explore(const hw::Topology &topo,
        const std::vector<mu::Bytes> &demand, mu::Bytes capacity)
{
    std::printf("=== %s (%d GPUs, %s) ===\n", topo.name().c_str(),
                topo.numGpus(),
                topo.symmetric() ? "symmetric NVSwitch"
                                 : "asymmetric NVLink mesh");

    auto result = pn::searchDeviceMapping(topo, demand, capacity);
    std::printf("evaluated %ld placements, pruned %ld; overflow "
                "coverage %.0f%%\n",
                result.evaluated, result.pruned,
                result.coverage * 100.0);

    std::printf("stage -> GPU:");
    for (std::size_t s = 0; s < result.stageToGpu.size(); ++s)
        std::printf(" %zu->%d", s, result.stageToGpu[s]);
    std::printf("\n");

    for (const auto &[exporter, grants] : result.grants) {
        std::printf("exporter GPU%d grants:", exporter);
        for (const auto &g : grants) {
            std::printf(" GPU%d:%s (%d lanes)", g.importerGpu,
                        mu::formatBytes(g.budget).c_str(),
                        topo.nvlinkLanes(exporter, g.importerGpu));
        }
        std::printf("\n");

        // Show how a 216 MB tensor (Table III's t1) stripes out.
        auto plan = cp::makeStripePlan(topo, exporter, grants,
                                       216 * mu::kMB);
        if (!plan.empty()) {
            std::printf("  216 MB tensor stripes:");
            for (const auto &stripe : plan.stripes) {
                std::printf(" %s->GPU%d/%d-lanes",
                            mu::formatBytes(stripe.bytes).c_str(),
                            stripe.targetGpu, stripe.lanes);
            }
            std::printf("  (drain %s)\n",
                        mu::formatTime(cp::stripePlanTime(
                                           topo, exporter, plan))
                            .c_str());
        }
    }
    std::printf("\n");
}

} // namespace

int
main()
{
    // A memory-demand profile with the characteristic inter-operator
    // imbalance: early stages heavy, late stages light.
    std::vector<mu::Bytes> demand = {
        38 * mu::kGB, 33 * mu::kGB, 28 * mu::kGB, 24 * mu::kGB,
        20 * mu::kGB, 15 * mu::kGB, 11 * mu::kGB, 3 * mu::kGB};

    explore(hw::Topology::dgx1V100(), demand, 28 * mu::kGB);
    explore(hw::Topology::dgx2A100(), demand, 35 * mu::kGB);

    // A custom asymmetric 4-GPU box: GPU0-GPU1 fat (3 lanes),
    // a ring of single lanes elsewhere.
    hw::Topology custom("Custom-4GPU", hw::GpuSpec::v100(), 4);
    custom.setNvlinkLanes(0, 1, 3);
    custom.setNvlinkLanes(1, 2, 1);
    custom.setNvlinkLanes(2, 3, 1);
    custom.setNvlinkLanes(3, 0, 2);
    custom.setHostMemory(256 * mu::kGB);
    std::vector<mu::Bytes> demand4 = {40 * mu::kGB, 26 * mu::kGB,
                                      12 * mu::kGB, 6 * mu::kGB};
    explore(custom, demand4, 28 * mu::kGB);
    return 0;
}
