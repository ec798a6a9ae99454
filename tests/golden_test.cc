/**
 * @file
 * Golden digests: simulator output pinned across commits.
 *
 * Every determinism test elsewhere compares two runs of one build, so
 * an output change that shows up in both runs passes them all.  These
 * cases pin FNV-1a-64 digests of the report, the exports and the
 * profiling liveness table for fixed hand-built plans (never planner
 * output, so a planner change cannot move them).  A change to the
 * engine, the fabric or the executor that alters any simulated byte
 * fails here.  Change a digest only in a commit that means to change
 * the simulation's output, and say why there.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "fault/scenario.hh"
#include "obs/export.hh"
#include "util/random.hh"

#include "report_bytes.hh"

namespace bench = mpress::bench;
namespace cl = mpress::cluster;
namespace cp = mpress::compaction;
namespace ft = mpress::fault;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace mu = mpress::util;

using mpress::testing::renderReportBytes;

namespace {

std::string
digestOf(const std::string &bytes)
{
    return mu::strformat(
        "%016llx",
        static_cast<unsigned long long>(mu::fnv1a64(bytes)));
}

/** The report plus the CSV exports of its observability bundle. */
std::string
exportBytes(const rt::TrainingReport &r)
{
    std::ostringstream os;
    os << renderReportBytes(r);
    mpress::obs::exportMemoryCsv(os, r.observability);
    mpress::obs::exportUtilizationCsv(os, r.observability);
    return os.str();
}

/** Bert-0.35B on PipeDream over the DGX-1 mesh, whose D2D transfers
 *  run on per-pair NVLink lanes. */
struct Dgx1Job
{
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl{mm::presetByName("bert-0.35b"), 12};
    mp::Partition part =
        mp::partitionModel(mdl, 8, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::PipeDream, 8, 4, 2);

    /** Stage 0 D2D-swapped into GPU3/GPU4 (its direct NVLink
     *  neighbours), stages 1-2 GPU-CPU-swapped. */
    cp::CompactionPlan
    plan() const
    {
        return bench::swapPlan(
            part, {{0, {{3, 12 * mu::kGB}, {4, 12 * mu::kGB}}}},
            {1, 2});
    }

    rt::TrainingReport
    run(const cp::CompactionPlan &p, rt::ExecutorConfig cfg = {}) const
    {
        return rt::runTraining(topo, mdl, part, sched, p, cfg);
    }
};

} // namespace

TEST(GoldenDigest, SwitchFabricD2dAndHostSwap)
{
    bench::SwitchFabricJob job;
    rt::TrainingReport r = rt::runTraining(job.topo, job.mdl, job.part,
                                           job.sched, job.plan, {});
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.savings.d2dSwap, 0);
    EXPECT_GT(r.savings.gpuCpuSwap, 0);
    EXPECT_EQ(digestOf(renderReportBytes(r)), "69c65e3de934e161");
}

TEST(GoldenDigest, PairLaneD2dAndHostSwap)
{
    Dgx1Job job;
    rt::TrainingReport r = job.run(job.plan());
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.savings.d2dSwap, 0);
    EXPECT_GT(r.savings.gpuCpuSwap, 0);
    EXPECT_EQ(digestOf(renderReportBytes(r)), "d36029e131d3579a");
}

TEST(GoldenDigest, HostPoolSpillsToNvme)
{
    // A pinned pool far too small for the swapped stashes: the
    // overflow streams on to the SSD and back.
    Dgx1Job job;
    job.topo.setHostMemory(4 * mu::kGB);
    job.topo.setNvmeCapacity(500 * mu::kGB);
    rt::TrainingReport r = job.run(job.plan());
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.nvmeSpill, 0);
    EXPECT_EQ(digestOf(renderReportBytes(r)), "8fa086cbb2721646");
}

TEST(GoldenDigest, FaultLadderDemotesInstances)
{
    // Swap-out stripes fail past their retries, so the ladder demotes
    // instances to GPU-CPU swap while the small host pool lasts and
    // to recompute after that; failing swap-in stripes from GPU3
    // retry and reroute through host memory.
    Dgx1Job job;
    job.topo.setHostMemory(6 * mu::kGB);
    job.topo.setNvmeCapacity(0);
    ft::Scenario sc;
    sc.name = "golden-ladder";
    sc.seed = 11;
    ft::FaultEvent fail;
    fail.kind = ft::EventKind::TransferFail;
    fail.start = 0;
    fail.end = 1000000 * mu::kMsec;
    fail.src = 0;
    fail.probability = 0.6;
    sc.events.push_back(fail);
    fail.src = 3;
    fail.probability = 0.5;
    sc.events.push_back(fail);
    rt::ExecutorConfig cfg;
    cfg.faults = &sc;
    cfg.maxTransferRetries = 1;
    rt::TrainingReport r = job.run(job.plan(), cfg);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.faults.fallbackGpuCpuSwap, 0);
    EXPECT_GT(r.faults.fallbackRecompute, 0);
    EXPECT_EQ(digestOf(renderReportBytes(r)), "83e335a70c29aa72");
}

TEST(GoldenDigest, ProfileLivenessTable)
{
    bench::SwitchFabricJob job;
    rt::ExecutorConfig cfg;
    pn::ProfileResult prof =
        pn::profileJob(job.topo, job.mdl, job.part, job.sched, cfg);
    std::ostringstream os;
    os << "usable=" << prof.usableCapacity << "\n";
    for (mu::Bytes peak : prof.stagePeak)
        os << "peak " << peak << "\n";
    for (const auto *li : prof.report.liveness.all()) {
        os << "tensor " << li->ref.stage << " " << li->ref.layer << " "
           << li->size << "\n";
        for (const auto &w : li->windows)
            os << " " << w.microbatch << " " << w.generated << " "
               << w.nextUse << "\n";
    }
    ASSERT_GT(prof.report.liveness.size(), 0u);
    EXPECT_EQ(digestOf(os.str()), "0c15d2b7883ddd80");
}

TEST(GoldenDigest, TimelineAndMetricsExports)
{
    bench::SwitchFabricJob job;
    rt::ExecutorConfig cfg;
    cfg.recordTimeline = true;
    cfg.recordMetrics = true;
    rt::TrainingReport r = rt::runTraining(job.topo, job.mdl, job.part,
                                           job.sched, job.plan, cfg);
    ASSERT_FALSE(r.oom);
    ASSERT_FALSE(r.trace.spans().empty());
    EXPECT_EQ(digestOf(exportBytes(r)), "17a076cac9e20284");
}

TEST(GoldenDigest, CrossNodeD2dAtEveryShardCount)
{
    // Two DGX-2 nodes joined by NICs: stage 0 swaps into GPU 8 on the
    // other node and stage 9 into GPU 1 back across, so both NIC legs
    // run in both directions.  The serial replay and the auto worker
    // count must give the same pinned bytes.
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    mm::TransformerModel mdl(mm::presetByName("bert-1.67b"), 12);
    mp::Partition part =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::PipeDream, 16, 1, 2);
    cp::CompactionPlan plan = bench::swapPlan(
        part, {{0, {{8, 16 * mu::kGB}}}, {9, {{1, 16 * mu::kGB}}}},
        {2, 10});
    for (int shards : {1, 0}) {
        rt::ExecutorConfig cfg;
        cfg.recordTimeline = true;
        cfg.recordMetrics = true;
        cfg.simShards = shards;
        rt::TrainingReport r =
            rt::runTraining(topo, mdl, part, sched, plan, cfg);
        ASSERT_FALSE(r.oom);
        EXPECT_GT(r.savings.d2dSwap, 0);
        EXPECT_GT(r.nicBusyTime, 0);
        EXPECT_EQ(digestOf(exportBytes(r)), "9ebd191c0fbc4d2f")
            << "shards=" << shards;
    }
}
