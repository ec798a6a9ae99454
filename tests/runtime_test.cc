/**
 * @file
 * Integration tests for the runtime executor: end-to-end simulated
 * training with and without compaction, OOM behaviour, memory
 * imbalance, swap round-trips and overhead accounting.
 */

#include <gtest/gtest.h>

#include "compaction/plan.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "runtime/executor.hh"

namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace rt = mpress::runtime;
namespace mu = mpress::util;

namespace {

struct Job
{
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;

    Job(const std::string &preset, int mb_size,
        pl::SystemKind system, int stages = 8, int mb_per_mini = 8,
        int minibatches = 2)
        : mdl(mm::presetByName(preset), mb_size),
          part(mp::partitionModel(mdl, stages,
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildSchedule(system, stages, mb_per_mini,
                                  minibatches))
    {}

    rt::TrainingReport
    run(const cp::CompactionPlan &plan = {},
        rt::ExecutorConfig cfg = {}) const
    {
        return rt::runTraining(topo, mdl, part, sched, plan, cfg);
    }
};

/** Recompute-everything plan for @p part. */
cp::CompactionPlan
recomputeAll(const mp::Partition &part)
{
    cp::CompactionPlan plan;
    for (const auto &stage : part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l)
            plan.activations[{stage.index, static_cast<int>(l)}] =
                cp::Kind::Recompute;
    }
    return plan;
}

/** GPU-CPU-swap-everything plan. */
cp::CompactionPlan
swapAll(const mp::Partition &part)
{
    cp::CompactionPlan plan;
    for (const auto &stage : part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l)
            plan.activations[{stage.index, static_cast<int>(l)}] =
                cp::Kind::GpuCpuSwap;
    }
    return plan;
}

} // namespace

TEST(Executor, SmallModelTrainsWithoutCompaction)
{
    Job job("bert-0.35b", 12, pl::SystemKind::PipeDream);
    auto report = job.run();
    EXPECT_FALSE(report.oom);
    EXPECT_GT(report.samplesPerSec, 0.0);
    EXPECT_GT(report.tflops, 0.0);
    EXPECT_GT(report.makespan, 0);
    ASSERT_EQ(report.gpus.size(), 8u);
    for (const auto &g : report.gpus)
        EXPECT_FALSE(g.oom) << "gpu " << g.gpu;
}

TEST(Executor, MemoryImbalanceMatchesFigure2)
{
    // Early stages peak far above late stages; the paper reports up
    // to a 7.9x gap between the most and least loaded GPU.
    Job job("bert-0.35b", 12, pl::SystemKind::PipeDream);
    auto report = job.run();
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.gpus[0].peak, report.gpus[7].peak);
    double ratio = static_cast<double>(report.maxGpuPeak()) /
                   static_cast<double>(report.minGpuPeak());
    EXPECT_GT(ratio, 2.0);
}

TEST(Executor, ActivationsDominateEarlyStagePeaks)
{
    Job job("bert-0.35b", 12, pl::SystemKind::PipeDream);
    auto report = job.run();
    ASSERT_FALSE(report.oom);
    const auto &g0 = report.gpus[0];
    EXPECT_GT(g0.peakActivations, g0.peakParams);
    EXPECT_GT(g0.peakActivations, g0.peakOptState);
}

TEST(Executor, AllActivationsReleasedAtEnd)
{
    Job job("bert-0.35b", 4, pl::SystemKind::Dapple);
    auto report = job.run();
    ASSERT_FALSE(report.oom);
    // finalUsed equals the static allocation: params*versions +
    // grads + optimizer state.
    for (const auto &stage : job.part.stages) {
        int versions = job.sched.weightVersions(stage.index);
        mu::Bytes expect = stage.paramBytes * versions +
                           stage.gradBytes + stage.optStateBytes;
        EXPECT_EQ(report.gpus[static_cast<std::size_t>(stage.index)]
                      .finalUsed,
                  expect)
            << "stage " << stage.index;
    }
}

TEST(Executor, LargeModelOomsWithoutCompaction)
{
    Job job("bert-1.67b", 12, pl::SystemKind::PipeDream);
    auto report = job.run();
    EXPECT_TRUE(report.oom);
    // The OOM hits an early (high-pressure) stage GPU.
    EXPECT_LT(report.oomGpu, 4);
}

TEST(Executor, RecomputeRescuesLargeModel)
{
    Job job("bert-1.67b", 12, pl::SystemKind::PipeDream);
    auto plan = recomputeAll(job.part);
    auto report = job.run(plan);
    EXPECT_FALSE(report.oom);
    EXPECT_GT(report.savings.recompute, 0);
    // Recompute overhead shows up as extra compute time.
    mu::Tick recompute_total = 0;
    for (const auto &o : report.overheads)
        recompute_total += o.recomputeTime;
    EXPECT_GT(recompute_total, 0);
}

TEST(Executor, GpuCpuSwapRescuesLargeModelButSlower)
{
    Job job("bert-1.67b", 12, pl::SystemKind::PipeDream);
    auto recomp = job.run(recomputeAll(job.part));
    auto swap = job.run(swapAll(job.part));
    ASSERT_FALSE(recomp.oom);
    ASSERT_FALSE(swap.oom);
    EXPECT_GT(swap.savings.gpuCpuSwap, 0);
    // Paper Sec. IV-B: recomputation clearly outperforms stand-alone
    // GPU-CPU swap under PCIe pressure.
    EXPECT_GT(recomp.samplesPerSec, swap.samplesPerSec);
    // Swap-in stalls are the visible cost.
    mu::Tick stall = 0;
    for (const auto &o : swap.overheads)
        stall += o.swapInStall;
    EXPECT_GT(stall, 0);
}

TEST(Executor, RecomputeLowersThroughputVsNoCompaction)
{
    // On a model that fits either way, recompute must cost time.
    Job job("bert-0.35b", 12, pl::SystemKind::PipeDream);
    auto base = job.run();
    auto recomp = job.run(recomputeAll(job.part));
    ASSERT_FALSE(base.oom);
    ASSERT_FALSE(recomp.oom);
    EXPECT_GT(base.samplesPerSec, recomp.samplesPerSec);
    EXPECT_LT(recomp.gpus[0].peak, base.gpus[0].peak);
}

TEST(Executor, D2dSwapMovesBytesToImporters)
{
    Job job("bert-0.64b", 12, pl::SystemKind::PipeDream);
    // Recompute everywhere except stage 0, whose activations are
    // D2D-swapped to GPU3/GPU4 (direct NVLink neighbors of GPU0 on
    // the DGX-1 mesh, made light by the recompute).
    auto recomp = recomputeAll(job.part);
    auto plan = recomp;
    const auto &s0 = job.part.stages[0];
    for (std::size_t l = s0.firstLayer; l <= s0.lastLayer; ++l)
        plan.activations[{0, static_cast<int>(l)}] =
            cp::Kind::D2dSwap;
    plan.spareGrants[0] = {{3, 12 * mu::kGB}, {4, 8 * mu::kGB}};

    auto base = job.run(recomp);
    auto d2d = job.run(plan);
    ASSERT_FALSE(base.oom);
    ASSERT_FALSE(d2d.oom);
    EXPECT_GT(d2d.savings.d2dSwap, 0);
    // Importer peaks rise relative to the recompute-only run.
    EXPECT_GT(d2d.gpus[3].peak, base.gpus[3].peak);
    EXPECT_GT(d2d.gpus[4].peak, base.gpus[4].peak);
}

TEST(Executor, D2dSwapFasterThanGpuCpuSwap)
{
    // The headline claim: with spare peer memory, D2D swap costs far
    // less throughput than PCIe swap for the same tensors.
    Job job("bert-0.64b", 12, pl::SystemKind::PipeDream);
    // Both plans recompute stages 2+ identically; stages 0-1 use D2D
    // swap in one plan and GPU-CPU swap in the other.
    auto d2d_plan = recomputeAll(job.part);
    auto pcie_plan = recomputeAll(job.part);
    for (int stage = 0; stage < 2; ++stage) {
        const auto &st =
            job.part.stages[static_cast<std::size_t>(stage)];
        for (std::size_t l = st.firstLayer; l <= st.lastLayer; ++l) {
            d2d_plan.activations[{stage, static_cast<int>(l)}] =
                cp::Kind::D2dSwap;
            pcie_plan.activations[{stage, static_cast<int>(l)}] =
                cp::Kind::GpuCpuSwap;
        }
    }
    // Grants come from peers made light by the recompute: GPU0
    // reaches GPU3/GPU4 and GPU1 reaches GPU5 on the DGX-1 mesh.
    d2d_plan.spareGrants[0] = {{3, 14 * mu::kGB}, {4, 10 * mu::kGB}};
    d2d_plan.spareGrants[1] = {{5, 14 * mu::kGB}, {2, 6 * mu::kGB}};

    auto d2d = job.run(d2d_plan);
    auto pcie = job.run(pcie_plan);
    ASSERT_FALSE(d2d.oom);
    ASSERT_FALSE(pcie.oom);
    EXPECT_GT(d2d.samplesPerSec, pcie.samplesPerSec);
}

TEST(Executor, D2dOverflowFallsBackGracefully)
{
    Job job("bert-0.64b", 12, pl::SystemKind::PipeDream);
    cp::CompactionPlan plan;
    const auto &s0 = job.part.stages[0];
    for (std::size_t l = s0.firstLayer; l <= s0.lastLayer; ++l)
        plan.activations[{0, static_cast<int>(l)}] =
            cp::Kind::D2dSwap;
    // Tiny grant: most swaps cannot be placed.
    plan.spareGrants[0] = {{3, 32 * mu::kMB}};
    auto report = job.run(plan);
    EXPECT_GT(report.d2dOverflow, 0);
}

TEST(Executor, OptStateOffloadFreesGpuMemory)
{
    Job job("bert-0.35b", 4, pl::SystemKind::Dapple);
    cp::CompactionPlan plan;
    plan.offloadOptState.assign(8, true);
    auto base = job.run();
    auto off = job.run(plan);
    ASSERT_FALSE(off.oom);
    // Optimizer state no longer contributes the steady footprint.
    mu::Bytes total_opt = 0;
    for (const auto &stage : job.part.stages)
        total_opt += stage.optStateBytes;
    EXPECT_EQ(off.savings.gpuCpuSwap, total_opt);
    EXPECT_GT(off.hostPeak, base.hostPeak);
    // The swap traffic costs throughput.
    EXPECT_LT(off.samplesPerSec, base.samplesPerSec);
    mu::Tick opt_stall = 0;
    for (const auto &o : off.overheads)
        opt_stall += o.optimStall;
    EXPECT_GT(opt_stall, 0);
}

TEST(Executor, StageToGpuRemappingWorks)
{
    Job job("bert-0.35b", 4, pl::SystemKind::Dapple);
    cp::CompactionPlan plan;
    plan.stageToGpu = {7, 6, 5, 4, 3, 2, 1, 0};
    auto report = job.run(plan);
    ASSERT_FALSE(report.oom);
    // Stage 0's heavy footprint now lands on GPU 7.
    EXPECT_GT(report.gpus[7].peak, report.gpus[0].peak);
}

TEST(Executor, ProfilingRunRecordsLiveness)
{
    Job job("bert-0.35b", 4, pl::SystemKind::Dapple);
    rt::ExecutorConfig cfg;
    cfg.recordLiveness = true;
    auto report = job.run({}, cfg);
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.liveness.size(), 0u);
    // Every stage-0 layer has as many windows as microbatches.
    const auto &s0 = job.part.stages[0];
    const auto *li = report.liveness.find(
        {0, static_cast<int>(s0.firstLayer)});
    ASSERT_NE(li, nullptr);
    EXPECT_EQ(li->windows.size(),
              static_cast<std::size_t>(job.sched.totalMicrobatches()));
    EXPECT_GT(li->minInterval(), 0);

    // The key planner input: early-stage tensors live much longer
    // than late-stage ones (Fig. 1).
    const auto &last = job.part.stages.back();
    const auto *li_last = report.liveness.find(
        {7, static_cast<int>(last.firstLayer)});
    ASSERT_NE(li_last, nullptr);
    EXPECT_GT(li->minInterval(), li_last->minInterval());
}

TEST(Executor, DappleAndPipeDreamBothRun)
{
    Job pd("bert-0.35b", 4, pl::SystemKind::PipeDream);
    Job dp("bert-0.35b", 4, pl::SystemKind::Dapple);
    auto rpd = pd.run();
    auto rdp = dp.run();
    EXPECT_FALSE(rpd.oom);
    EXPECT_FALSE(rdp.oom);
    // PipeDream stashes weight versions; its parameter peak on GPU0
    // exceeds DAPPLE's.
    EXPECT_GT(rpd.gpus[0].peakParams, rdp.gpus[0].peakParams);
}

TEST(Executor, GpipeRunsAndUsesMoreActivationMemory)
{
    Job dp("bert-0.35b", 4, pl::SystemKind::Dapple, 8, 8, 2);
    Job gp("bert-0.35b", 4, pl::SystemKind::Gpipe, 8, 8, 2);
    auto rdp = dp.run();
    auto rgp = gp.run();
    ASSERT_FALSE(rdp.oom);
    ASSERT_FALSE(rgp.oom);
    // Fill-drain keeps all microbatches in flight on late stages.
    EXPECT_GT(rgp.gpus[7].peakActivations,
              rdp.gpus[7].peakActivations);
}

TEST(Executor, ThroughputScalesWithComputeDensity)
{
    Job v100("gpt-5.3b", 1, pl::SystemKind::Dapple);
    auto r1 = v100.run(recomputeAll(v100.part));

    Job a100("gpt-5.3b", 1, pl::SystemKind::Dapple);
    a100.topo = hw::Topology::dgx2A100();
    auto r2 = a100.run(recomputeAll(a100.part));

    ASSERT_FALSE(r1.oom);
    ASSERT_FALSE(r2.oom);
    // Fig. 8: the A100 server more than doubles throughput.
    EXPECT_GT(r2.tflops, 2.0 * r1.tflops);
}

TEST(Executor, MismatchedShapesAreFatal)
{
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto part =
        mp::partitionModel(mdl, 4, mp::Strategy::ComputeBalanced);
    auto sched = pl::buildDapple(8, 8, 1);
    auto topo = hw::Topology::dgx1V100();
    EXPECT_DEATH(rt::runTraining(topo, mdl, part, sched, {}),
                 "stages");
}

TEST(Executor, NvmeSpillWhenHostPoolExhausts)
{
    // A server with a tiny pinned pool but an SSD: GPU-CPU swap
    // spills past the host onto NVMe (Sec. V multi-level hierarchy)
    // instead of keeping tensors resident.
    Job job("bert-0.64b", 12, pl::SystemKind::PipeDream);
    job.topo.setHostMemory(4 * mu::kGB);
    job.topo.setNvmeCapacity(500 * mu::kGB);
    auto plan = swapAll(job.part);
    plan.offloadOptState.clear();
    plan.offloadWeightStash.clear();
    auto report = job.run(plan);
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.nvmeSpill, 0);

    // The same pool without an SSD keeps tensors resident instead;
    // both paths complete, the NVMe path swaps more bytes out.
    Job no_ssd("bert-0.64b", 12, pl::SystemKind::PipeDream);
    no_ssd.topo.setHostMemory(4 * mu::kGB);
    no_ssd.topo.setNvmeCapacity(0);
    auto resident = no_ssd.run(plan);
    EXPECT_EQ(resident.nvmeSpill, 0);
    EXPECT_GT(report.savings.gpuCpuSwap, resident.savings.gpuCpuSwap);
}

TEST(Executor, NvmeSpillSlowerThanHostSwap)
{
    Job roomy("bert-0.64b", 12, pl::SystemKind::PipeDream);
    auto plan = swapAll(roomy.part);
    auto host_only = roomy.run(plan);

    Job tight("bert-0.64b", 12, pl::SystemKind::PipeDream);
    tight.topo.setHostMemory(4 * mu::kGB);
    tight.topo.setNvmeCapacity(500 * mu::kGB);
    auto spilled = tight.run(plan);

    ASSERT_FALSE(host_only.oom);
    ASSERT_FALSE(spilled.oom);
    EXPECT_GT(host_only.samplesPerSec, spilled.samplesPerSec);
}

TEST(Executor, UtilizationStatsReflectTheTechniques)
{
    Job job("bert-1.67b", 12, pl::SystemKind::PipeDream);
    auto recomp = job.run(recomputeAll(job.part));
    auto swap = job.run(swapAll(job.part));
    ASSERT_FALSE(recomp.oom);
    ASSERT_FALSE(swap.oom);

    // Recomputation burns compute; swapping burns PCIe.
    EXPECT_GT(recomp.gpus[0].computeUtilization,
              swap.gpus[0].computeUtilization);
    EXPECT_GT(swap.pcieBusyTime, recomp.pcieBusyTime);
    // Both ship P2P activations over NVLink.
    EXPECT_GT(recomp.nvlinkBusyTime, 0);
    // Utilizations are sane fractions.
    for (const auto &g : recomp.gpus) {
        EXPECT_GE(g.computeUtilization, 0.0);
        EXPECT_LE(g.computeUtilization, 1.0);
    }
}
