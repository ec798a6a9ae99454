/**
 * @file
 * google-benchmark microbenchmarks for the static plan verifier.
 * The point of comparison is BM_EmulatedIteration: verification has
 * to be cheap relative to a single emulated training iteration so
 * that verify-on-load and per-refinement verification inside the
 * planner are effectively free.  BM_CheckPlannerPlan is what a
 * planner trial pays: the plan rules of a PlanVerifier that checked
 * the job's schedule once, outside the loop.
 */

#include <benchmark/benchmark.h>

#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/planner.hh"
#include "runtime/executor.hh"
#include "verify/verify.hh"

namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace vf = mpress::verify;

namespace {

struct Fixture {
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;

    explicit Fixture(const char *preset, int microbatch,
                     int mbPerMini)
        : mdl(mm::presetByName(preset), microbatch),
          part(mp::partitionModel(mdl, 8,
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildPipeDream(8, mbPerMini, 2))
    {
    }
};

} // namespace

static void
BM_VerifyEmptyPlan(benchmark::State &state)
{
    Fixture fx("bert-0.35b", 4, 8);
    cp::CompactionPlan plan;
    for (auto _ : state) {
        auto report = vf::verifyPlan(fx.topo, fx.mdl, fx.part,
                                     fx.sched, plan);
        benchmark::DoNotOptimize(report.errorCount());
    }
}
BENCHMARK(BM_VerifyEmptyPlan);

static void
BM_VerifyPlannerPlan(benchmark::State &state)
{
    // Representative real input: the plan the MPress planner emits
    // for a model that actually needs compaction.
    Fixture fx("bert-1.67b", 8, 8);
    auto planned = pn::planMPress(fx.topo, fx.mdl, fx.part,
                                  fx.sched, {});
    for (auto _ : state) {
        auto report = vf::verifyPlan(fx.topo, fx.mdl, fx.part,
                                     fx.sched, planned.plan);
        benchmark::DoNotOptimize(report.warningCount());
    }
}
BENCHMARK(BM_VerifyPlannerPlan);

static void
BM_CheckPlannerPlan(benchmark::State &state)
{
    // The same plan through the per-trial path of the search driver.
    Fixture fx("bert-1.67b", 8, 8);
    auto planned = pn::planMPress(fx.topo, fx.mdl, fx.part,
                                  fx.sched, {});
    vf::PlanVerifier verifier(fx.topo, fx.mdl, fx.part, fx.sched);
    for (auto _ : state) {
        auto report = verifier.check(planned.plan);
        benchmark::DoNotOptimize(report.warningCount());
    }
}
BENCHMARK(BM_CheckPlannerPlan);

static void
BM_VerifyScheduleOnly(benchmark::State &state)
{
    // DAG structure + acyclicity alone, on a deep schedule.
    auto sched = pl::buildPipeDream(8, 32, 4);
    for (auto _ : state) {
        auto report = vf::verifySchedule(sched);
        benchmark::DoNotOptimize(report.errorCount());
    }
}
BENCHMARK(BM_VerifyScheduleOnly);

static void
BM_EmulatedIteration(benchmark::State &state)
{
    // The yardstick: one full emulated training iteration of the
    // same job BM_VerifyPlannerPlan checks statically.
    Fixture fx("bert-1.67b", 8, 8);
    auto planned = pn::planMPress(fx.topo, fx.mdl, fx.part,
                                  fx.sched, {});
    for (auto _ : state) {
        auto report = rt::runTraining(fx.topo, fx.mdl, fx.part,
                                      fx.sched, planned.plan, {});
        benchmark::DoNotOptimize(report.makespan);
    }
}
BENCHMARK(BM_EmulatedIteration);

BENCHMARK_MAIN();
