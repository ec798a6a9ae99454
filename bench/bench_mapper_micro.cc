/**
 * @file
 * Sec. IV-D device-mapping search cost: the paper reports that the
 * single-threaded search finishes an artificially complex stress case
 * in 47 s and real cases in a few seconds.  Our simulator evaluates
 * mappings with analytic drain times and prunes every placement
 * prefix whose score ceiling cannot beat the best found so far, and
 * every leaf whose drain floor cannot (before its spare is assigned,
 * or before its stripe plans are built), so the 8! sweep completes in
 * well under a second.  Besides the hand-made typical, stress and
 * re-map cases it scans the profile peaks of the three Fig. 7 Bert
 * jobs (PipeDream on DGX-1, the inputs the planner's first scan
 * sees) and of the three specs mpress-serve's warm-up plans
 * (hostbench's repeated specs).  Each row runs its scan serially a
 * fixed number of times and reports the placements evaluated and
 * pruned (their sum is the full 8! space), the minimum wall time and
 * that time per evaluated placement.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>

#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/mapper.hh"
#include "planner/planner.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace mu = mpress::util;

namespace {

/** Serial scans per row; the row reports the fastest. */
constexpr int kReps = 20;

void
timedSearch(mu::TextTable &table, const char *name,
            const hw::Topology &topo,
            const std::vector<mu::Bytes> &demand, mu::Bytes cap,
            const std::vector<mu::Bytes> &desire = {})
{
    pn::MappingResult result;
    double best_ms = 0.0;
    for (int r = 0; r < kReps; ++r) {
        auto start = std::chrono::steady_clock::now();
        result = pn::searchDeviceMapping(topo, demand, cap, {}, desire);
        auto end = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(end - start).count();
        if (r == 0 || ms < best_ms)
            best_ms = ms;
    }
    table.addRow(
        {name, mu::strformat("%ld", result.evaluated),
         mu::strformat("%ld", result.pruned),
         mu::strformat("%.3f", best_ms),
         mu::strformat("%.0f", best_ms * 1e6 /
                                   static_cast<double>(result.evaluated))});
}

/** The profile-peak scan of @p preset on PipeDream/DGX-1: 8 stages,
 *  compute-balanced, @p mb_per_mini microbatches of @p microbatch
 *  samples per minibatch over @p minibatches minibatches. */
void
profileScan(mu::TextTable &table, const std::string &name,
            const char *preset, int microbatch, int mb_per_mini,
            int minibatches)
{
    auto topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl(mm::presetByName(preset), microbatch);
    auto part = mp::partitionModel(mdl, 8, mp::Strategy::ComputeBalanced);
    auto sched = pl::buildSchedule(pl::SystemKind::PipeDream, 8,
                                   mb_per_mini, minibatches);
    auto profile = pn::profileJob(topo, mdl, part, sched);
    timedSearch(table, name.c_str(), topo, profile.stagePeak,
                profile.usableCapacity);
}

} // namespace

int
main()
{
    mu::TextTable table({"case", "placements evaluated", "pruned",
                         mu::strformat("min wall of %d (ms)", kReps),
                         "ns / evaluated"});

    // Typical case: one realistic demand profile.
    std::vector<mu::Bytes> demand = {
        45 * mu::kGB, 38 * mu::kGB, 31 * mu::kGB, 25 * mu::kGB,
        19 * mu::kGB, 14 * mu::kGB, 9 * mu::kGB, 4 * mu::kGB};
    timedSearch(table, "DGX-1 typical", hw::Topology::dgx1V100(),
                demand, 28 * mu::kGB);

    // Stress case: every stage overflowing differently (more spare
    // assignment work per placement).
    std::vector<mu::Bytes> stress = {
        80 * mu::kGB, 70 * mu::kGB, 61 * mu::kGB, 53 * mu::kGB,
        24 * mu::kGB, 12 * mu::kGB, 6 * mu::kGB, 2 * mu::kGB};
    timedSearch(table, "DGX-1 stress", hw::Topology::dgx1V100(), stress,
                28 * mu::kGB);

    // The planner's post-compaction re-map: nothing overflows any
    // more and each stage desires the bytes its compaction freed.
    std::vector<mu::Bytes> remap(8, 20 * mu::kGB);
    std::vector<mu::Bytes> desire(8, 2 * mu::kGB);
    timedSearch(table, "DGX-1 re-map", hw::Topology::dgx1V100(), remap,
                28 * mu::kGB, desire);

    // The Fig. 7 Bert jobs' profile peaks (PipeDream, microbatch 12,
    // one microbatch per minibatch, 24 minibatches).
    for (const char *preset : {"bert-1.67b", "bert-4.0b", "bert-6.2b"})
        profileScan(table, mu::strformat("%s peaks", preset), preset, 12,
                    1, 24);

    // mpress-serve's warm-up specs (microbatch / microbatches per
    // minibatch / minibatches), planned with one thread as the daemon
    // plans them.
    struct ServeSpec
    {
        const char *preset;
        int microbatch, mbPerMini, minibatches;
    };
    for (const ServeSpec &spec : {ServeSpec{"bert-0.64b", 12, 6, 2},
                                  ServeSpec{"bert-1.67b", 8, 6, 2},
                                  ServeSpec{"bert-1.67b", 12, 6, 4}}) {
        profileScan(table,
                    mu::strformat("serve %s mb%d/mpm%d/mini%d",
                                  spec.preset, spec.microbatch,
                                  spec.mbPerMini, spec.minibatches),
                    spec.preset, spec.microbatch, spec.mbPerMini,
                    spec.minibatches);
    }

    // Symmetric fabric short-circuits.
    timedSearch(table, "DGX-2 (symmetric)", hw::Topology::dgx2A100(),
                demand, 35 * mu::kGB);

    std::printf("Device-mapping search cost (Sec. IV-D; paper: 47 s"
                " stress, seconds typical on real hardware)\n\n");
    table.print(std::cout);
    return 0;
}
