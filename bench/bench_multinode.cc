/**
 * @file
 * Cross-server scaling (the introduction's claim that enhanced
 * single-server performance "can be the building block for
 * accelerating cross-server giant model training"): pipeline stages
 * span the nodes of a cluster joined by one InfiniBand HDR NIC per
 * node while MPress compacts memory inside each node.
 *
 * Self-gates (exit 1 unless every claim holds):
 *  - two DGX-1s give at least 1.5x one DGX-1's throughput on the
 *    same model (only boundary activations cross the NIC);
 *  - the extra HBM raises the size ceiling: GPT-25.5B OOMs without
 *    compaction on two DGX-1s and fits with MPress;
 *  - GPT-3 175B OOMs without compaction on four DGX-2-generation
 *    servers and becomes trainable with MPress.
 */

#include "bench/common.hh"

namespace api = mpress::api;
namespace bench = mpress::bench;
namespace hw = mpress::hw;
namespace mu = mpress::util;

namespace {

api::SessionResult
runOn(const hw::Topology &topo, const std::string &preset,
      api::Strategy strategy)
{
    auto cfg = bench::gptJob(preset, strategy);
    cfg.numStages = topo.numGpus();
    return api::runSession(topo, cfg);
}

} // namespace

int
main()
{
    auto dgx1 = hw::Topology::dgx1V100();
    auto two_dgx1 = api::topologyFromName("2x-dgx1").value();
    auto four_dgx2 = api::topologyFromName("4x-dgx2").value();

    std::printf("Cross-server scaling with MPress inside each"
                " node\n\n");

    mu::TextTable table(
        {"cluster", "model", "strategy", "outcome", "TFLOPS"});
    auto add = [&](const hw::Topology &topo,
                   const std::string &preset, api::Strategy strat,
                   const char *label) {
        auto result = runOn(topo, preset, strat);
        table.addRow({topo.name(), preset, label,
                      result.oom ? "OOM" : "ok",
                      bench::tflopsCell(result)});
        return result;
    };

    auto one = add(dgx1, "gpt-10.3b", api::Strategy::MPressFull,
                   "mpress");
    auto two = add(two_dgx1, "gpt-10.3b", api::Strategy::MPressFull,
                   "mpress");
    auto gpt25_none =
        add(two_dgx1, "gpt-25.5b", api::Strategy::None, "none");
    auto gpt25_mpress =
        add(two_dgx1, "gpt-25.5b", api::Strategy::MPressFull, "mpress");
    auto gpt3_none =
        add(four_dgx2, "gpt3-175b", api::Strategy::None, "none");
    auto gpt3_mpress =
        add(four_dgx2, "gpt3-175b", api::Strategy::MPressFull, "mpress");
    table.print(std::cout);

    bool ok = true;
    if (one.oom || two.oom) {
        std::printf("\nFAIL: GPT-10.3B OOMs with MPress\n");
        ok = false;
    } else {
        double scaling = two.tflops / one.tflops;
        std::printf("\n2-node scaling on GPT-10.3B: %.2fx (ideal"
                    " 2.0x; the NIC only carries boundary"
                    " activations)\n",
                    scaling);
        if (scaling < 1.5) {
            std::printf("FAIL: 2-node scaling below 1.5x\n");
            ok = false;
        }
    }
    if (!gpt25_none.oom || gpt25_mpress.oom) {
        std::printf("FAIL: GPT-25.5B on 2x-dgx1 must OOM without"
                    " compaction and fit with MPress\n");
        ok = false;
    }
    if (!gpt3_none.oom || gpt3_mpress.oom) {
        std::printf("FAIL: GPT-3 175B on 4x-dgx2 must OOM without"
                    " compaction and fit with MPress\n");
        ok = false;
    }
    return ok ? 0 : 1;
}
