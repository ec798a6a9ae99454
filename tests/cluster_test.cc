/**
 * @file
 * Cluster subsystem tests: spec parsing and round-trips, preset
 * registry, node-aware topology structure, the cross-node donor axis
 * (intra-node NVLink first, NIC second, host swap last), the
 * NIC-infeasibility verify rule, and the OOM-rescue determinism
 * matrix (threads x cache produce one byte-identical plan on a
 * 2-node cluster).
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "compaction/serialize.hh"
#include "fault/scenario.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/mapper.hh"
#include "planner/planner.hh"
#include "runtime/executor.hh"
#include "util/pool.hh"
#include "verify/verify.hh"

#include "report_bytes.hh"

namespace cl = mpress::cluster;
namespace fault = mpress::fault;
namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace mu = mpress::util;
namespace vf = mpress::verify;

using mpress::testing::renderReportBytes;
using mu::Bytes;

// ---------------------------------------------------------------
// Spec parsing and round-trips
// ---------------------------------------------------------------

TEST(ClusterSpec, ParsesEveryField)
{
    auto parsed = cl::parseClusterSpec(
        "{\"name\":\"lab\",\"nodes\":4,\"node\":\"dgx1\","
        "\"nic\":\"roce100\",\"nicsPerNode\":2,\"nicGbps\":50.0,"
        "\"nicLatencyUs\":12.5,\"nodeIds\":[\"a\",\"b\",\"c\",\"d\"]}");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.spec.name, "lab");
    EXPECT_EQ(parsed.spec.nodes, 4);
    EXPECT_EQ(parsed.spec.nodePreset, "dgx1");
    EXPECT_EQ(parsed.spec.nicPreset, "roce100");
    EXPECT_EQ(parsed.spec.nicsPerNode, 2);
    EXPECT_DOUBLE_EQ(parsed.spec.nicGbps, 50.0);
    EXPECT_DOUBLE_EQ(parsed.spec.nicLatencyUs, 12.5);
    ASSERT_EQ(parsed.spec.nodeIds.size(), 4u);
    EXPECT_EQ(parsed.spec.nodeIds[2], "c");
}

TEST(ClusterSpec, DefaultsApplyToOmittedFields)
{
    auto parsed = cl::parseClusterSpec("{}");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.spec.nodes, 2);
    EXPECT_EQ(parsed.spec.nodePreset, "dgx2");
    EXPECT_EQ(parsed.spec.nicPreset, "ib-hdr");
    EXPECT_EQ(parsed.spec.nicsPerNode, 1);
}

TEST(ClusterSpec, RejectsMalformedInput)
{
    // Not an object.
    EXPECT_FALSE(cl::parseClusterSpec("[1,2]").ok);
    // Unknown member: strict surface, not silent tolerance.
    EXPECT_FALSE(cl::parseClusterSpec("{\"nodez\":2}").ok);
    // Type confusion on every typed field.
    EXPECT_FALSE(cl::parseClusterSpec("{\"nodes\":\"2\"}").ok);
    EXPECT_FALSE(cl::parseClusterSpec("{\"node\":3}").ok);
    EXPECT_FALSE(cl::parseClusterSpec("{\"nicGbps\":\"fast\"}").ok);
    EXPECT_FALSE(cl::parseClusterSpec("{\"nodeIds\":\"a\"}").ok);
    EXPECT_FALSE(cl::parseClusterSpec("{\"nodeIds\":[1]}").ok);
    // Non-integral node count.
    EXPECT_FALSE(cl::parseClusterSpec("{\"nodes\":2.5}").ok);
    // Hostile text is an error, never a crash.
    EXPECT_FALSE(cl::parseClusterSpec("").ok);
    EXPECT_FALSE(cl::parseClusterSpec("{\"nodes\":2").ok);
}

TEST(ClusterSpec, RoundTripsThroughRender)
{
    cl::ClusterSpec spec;
    spec.name = "round";
    spec.nodes = 3;
    spec.nodePreset = "hgx-h100";
    spec.nicPreset = "ib-ndr";
    spec.nicsPerNode = 4;
    spec.nicGbps = 123.5;
    spec.nicLatencyUs = 7.25;
    spec.nodeIds = {"n0", "n1", "n2"};

    auto parsed = cl::parseClusterSpec(cl::renderClusterSpec(spec));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.spec.name, spec.name);
    EXPECT_EQ(parsed.spec.nodes, spec.nodes);
    EXPECT_EQ(parsed.spec.nodePreset, spec.nodePreset);
    EXPECT_EQ(parsed.spec.nicPreset, spec.nicPreset);
    EXPECT_EQ(parsed.spec.nicsPerNode, spec.nicsPerNode);
    EXPECT_DOUBLE_EQ(parsed.spec.nicGbps, spec.nicGbps);
    EXPECT_DOUBLE_EQ(parsed.spec.nicLatencyUs, spec.nicLatencyUs);
    EXPECT_EQ(parsed.spec.nodeIds, spec.nodeIds);

    // parse -> render -> parse is a fixed point on the rendered text.
    std::string once = cl::renderClusterSpec(parsed.spec);
    auto again = cl::parseClusterSpec(once);
    ASSERT_TRUE(again.ok) << again.error;
    EXPECT_EQ(cl::renderClusterSpec(again.spec), once);
}

// ---------------------------------------------------------------
// verifyClusterSpec
// ---------------------------------------------------------------

TEST(VerifyClusterSpec, AcceptsThePresets)
{
    EXPECT_TRUE(vf::verifyClusterSpec(cl::cluster2xDgx2()).clean());
    EXPECT_TRUE(
        vf::verifyClusterSpec(cl::cluster8xHgxH100()).clean());
}

TEST(VerifyClusterSpec, RejectsNodeRange)
{
    cl::ClusterSpec spec;
    spec.nodes = 0;
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterNodeRange));
    spec.nodes = 65;
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterNodeRange));
    spec.nodes = 2;
    spec.nodePreset = "not-a-server";
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterNodeRange));
}

TEST(VerifyClusterSpec, RejectsLinkRange)
{
    cl::ClusterSpec spec;
    spec.nicsPerNode = 0;
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterLinkRange));
    spec.nicsPerNode = 9;
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterLinkRange));
    spec.nicsPerNode = 1;
    spec.nicPreset = "carrier-pigeon";
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterLinkRange));
    spec.nicPreset = "ib-hdr";
    spec.nicGbps = 1e6;
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterLinkRange));
    spec.nicGbps = 0.0;
    spec.nicLatencyUs = -1.0;
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterLinkRange));
}

TEST(VerifyClusterSpec, RejectsNodeIdProblems)
{
    cl::ClusterSpec spec;
    spec.nodes = 2;
    spec.nodeIds = {"only-one"};
    EXPECT_TRUE(vf::verifyClusterSpec(spec).hasRule(
        vf::Rule::ClusterNodeRange));
    spec.nodeIds = {"twin", "twin"};
    auto report = vf::verifyClusterSpec(spec);
    EXPECT_TRUE(report.hasRule(vf::Rule::ClusterDuplicateId));
    EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------
// Preset registry
// ---------------------------------------------------------------

TEST(ClusterPresets, FixedAndGenericNamesResolve)
{
    auto two = cl::clusterByName("2x-dgx2");
    ASSERT_TRUE(two.has_value());
    EXPECT_EQ(two->nodes, 2);
    EXPECT_EQ(two->nodePreset, "dgx2");

    auto eight = cl::clusterByName("8x-hgx-h100");
    ASSERT_TRUE(eight.has_value());
    EXPECT_EQ(eight->nodes, 8);

    auto generic = cl::clusterByName("4x-dgx1");
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->nodes, 4);
    EXPECT_EQ(generic->nodePreset, "dgx1");

    // 64 x 8 = 512 GPUs, the top of the supported range.
    auto big = cl::clusterByName("64x-hgx-h100");
    ASSERT_TRUE(big.has_value());
    EXPECT_EQ(cl::buildCluster(*big).numGpus(), 512);

    EXPECT_FALSE(cl::clusterByName("dgx1").has_value());
    EXPECT_FALSE(cl::clusterByName("0x-dgx2").has_value());
    EXPECT_FALSE(cl::clusterByName("65x-dgx2").has_value());
    EXPECT_FALSE(cl::clusterByName("2x-warp-drive").has_value());
    EXPECT_FALSE(cl::clusterByName("x-dgx2").has_value());
}

// ---------------------------------------------------------------
// Built topology structure
// ---------------------------------------------------------------

TEST(BuildCluster, TwoDgx2NodesShareOneNicEach)
{
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    EXPECT_EQ(topo.numGpus(), 16);
    EXPECT_EQ(topo.numNodes(), 2);
    EXPECT_TRUE(topo.multiNodeFabric());
    EXPECT_EQ(topo.gpusPerNode(), 8);
    EXPECT_EQ(topo.nodeOf(7), 0);
    EXPECT_EQ(topo.nodeOf(8), 1);
    EXPECT_TRUE(topo.sameNode(0, 7));
    EXPECT_FALSE(topo.sameNode(7, 8));

    // Intra-node pairs keep the node preset's NVLink; cross-node
    // pairs ride the shared NIC tier.
    EXPECT_GT(topo.pathLanes(0, 1), 0);
    EXPECT_EQ(topo.pathLanes(0, 8), 1);  // one NIC per node
    // dgx2 rides an NVSwitch plane, so assert the tier (the NIC
    // spec or not) rather than a specific intra-node link.
    EXPECT_NE(&topo.linkSpecBetween(0, 1), &topo.nicSpec());
    EXPECT_EQ(&topo.linkSpecBetween(0, 8), &topo.nicSpec());
    EXPECT_NE(&topo.linkSpecBetween(8, 15), &topo.nicSpec());

    // NVLink is strictly faster than the NIC on a 64 MiB stripe.
    Bytes stripe = 64 * mu::kMB;
    EXPECT_LT(topo.linkSpecBetween(0, 1).transferTime(stripe),
              topo.linkSpecBetween(0, 8).transferTime(stripe));

    // Per-node host pools add up across the cluster.
    hw::Topology node = cl::buildCluster([] {
        cl::ClusterSpec one = cl::cluster2xDgx2();
        one.nodes = 1;
        return one;
    }());
    EXPECT_FALSE(node.multiNodeFabric());
    EXPECT_EQ(topo.hostMemory(), 2 * node.hostMemory());
}

TEST(BuildCluster, ExtractNodeRecoversTheNodeView)
{
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    hw::Topology node = topo.extractNode(1);
    EXPECT_EQ(node.numGpus(), 8);
    EXPECT_FALSE(node.multiNodeFabric());
    EXPECT_NE(node.name().find("node1"), std::string::npos);
    EXPECT_EQ(node.nvlinkLanes(0, 1), topo.nvlinkLanes(8, 9));
}

TEST(BuildCluster, ExtractedNodeDropsTheNicTier)
{
    // Each node of a two-NIC DGX-1 cluster is the DGX-1 itself: the
    // cube-mesh lanes, the NVLink spec on every pair and one node's
    // share of host memory.  No NIC path survives the extraction.
    cl::ClusterSpec spec = *cl::clusterByName("2x-dgx1");
    spec.nicsPerNode = 2;
    hw::Topology topo = cl::buildCluster(spec);
    hw::Topology dgx1 = hw::Topology::dgx1V100();
    for (int n = 0; n < topo.numNodes(); ++n) {
        hw::Topology node = topo.extractNode(n);
        EXPECT_EQ(node.numNodes(), 1);
        EXPECT_EQ(node.nicsPerNode(), 0);
        EXPECT_EQ(node.hostMemory(), dgx1.hostMemory());
        EXPECT_DOUBLE_EQ(node.nvlinkSpec().peak.gbps(),
                         dgx1.nvlinkSpec().peak.gbps());
        for (int a = 0; a < 8; ++a) {
            for (int b = 0; b < 8; ++b) {
                EXPECT_EQ(node.pathLanes(a, b), dgx1.pathLanes(a, b));
                EXPECT_EQ(&node.linkSpecBetween(a, b),
                          &node.nvlinkSpec());
            }
        }
    }
}

// ---------------------------------------------------------------
// Donor axis: intra-node NVLink -> cross-node NIC -> host swap
// ---------------------------------------------------------------

namespace {

/** 16 stage demands on a 2x-dgx2 cluster with identity placement
 *  (symmetric intra-node fabric), one overflowing exporter on GPU 0. */
std::vector<Bytes>
demandsWith(Bytes exporter_demand, Bytes node0_rest,
            Bytes node1_rest)
{
    std::vector<Bytes> d(16, node1_rest);
    for (int s = 1; s < 8; ++s)
        d[static_cast<std::size_t>(s)] = node0_rest;
    d[0] = exporter_demand;
    return d;
}

} // namespace

TEST(DonorAxis, PrefersIntraNodeDonorsWhenSpareExists)
{
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    const Bytes cap = 10 * mu::kGB;
    // Node 0 peers have as much spare as node 1 peers: every grant
    // must stay intra-node.
    auto result = pn::searchDeviceMapping(
        topo, demandsWith(14 * mu::kGB, 2 * mu::kGB, 2 * mu::kGB),
        cap);
    ASSERT_EQ(result.grants.count(0), 1u);
    ASSERT_FALSE(result.grants.at(0).empty());
    EXPECT_DOUBLE_EQ(result.coverage, 1.0);
    for (const auto &g : result.grants.at(0))
        EXPECT_TRUE(topo.sameNode(0, g.importerGpu))
            << "grant went cross-node to gpu " << g.importerGpu
            << " while intra-node spare existed";
}

TEST(DonorAxis, DemotesToCrossNodeWhenNodeIsFull)
{
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    const Bytes cap = 10 * mu::kGB;
    // Node 0 is packed to capacity; only node 1 has spare.  The
    // exporter must reach across the NIC rather than give up.
    auto result = pn::searchDeviceMapping(
        topo, demandsWith(14 * mu::kGB, cap, 2 * mu::kGB), cap);
    ASSERT_EQ(result.grants.count(0), 1u);
    ASSERT_FALSE(result.grants.at(0).empty());
    EXPECT_DOUBLE_EQ(result.coverage, 1.0);
    for (const auto &g : result.grants.at(0))
        EXPECT_FALSE(topo.sameNode(0, g.importerGpu));
}

TEST(DonorAxis, MixedSpareOrdersIntraNodeFirst)
{
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    const Bytes cap = 10 * mu::kGB;
    // Thin intra-node spare, fat cross-node spare: the grant list
    // must *start* intra-node (the runtime stripes down the list in
    // order) even though node 1 donates more bytes in total.
    std::vector<Bytes> d(16, 2 * mu::kGB);
    for (int s = 1; s < 8; ++s)
        d[static_cast<std::size_t>(s)] =
            static_cast<Bytes>(9.8 * static_cast<double>(mu::kGB));
    d[0] = 16 * mu::kGB;
    auto result = pn::searchDeviceMapping(topo, d, cap);
    ASSERT_EQ(result.grants.count(0), 1u);
    const auto &grants = result.grants.at(0);
    ASSERT_GT(grants.size(), 1u);
    EXPECT_TRUE(topo.sameNode(0, grants.front().importerGpu));
    bool has_cross = false;
    bool seen_cross = false;
    for (const auto &g : grants) {
        bool cross = !topo.sameNode(0, g.importerGpu);
        has_cross = has_cross || cross;
        // Once the list goes cross-node it never returns intra-node:
        // the tiers are contiguous.
        if (seen_cross) {
            EXPECT_TRUE(cross);
        }
        seen_cross = seen_cross || cross;
    }
    EXPECT_TRUE(has_cross);
}

TEST(DonorAxis, NoSpareAnywhereLeavesOverflowToHostSwap)
{
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    const Bytes cap = 10 * mu::kGB;
    // Every GPU is over capacity: no donor on either tier, so the
    // mapper reports zero coverage and the planner's ladder falls
    // back to GPU-CPU swap / recompute for the overflow.
    std::vector<Bytes> d(16, 11 * mu::kGB);
    auto result = pn::searchDeviceMapping(topo, d, cap);
    EXPECT_DOUBLE_EQ(result.coverage, 0.0);
    for (const auto &[exporter, grants] : result.grants)
        EXPECT_TRUE(grants.empty()) << exporter;
}

// ---------------------------------------------------------------
// NIC infeasibility: a grant ledger that assumes intra-node
// bandwidth across a NIC must be rejected in strict mode
// ---------------------------------------------------------------

namespace {

struct ClusterJob
{
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;

    explicit ClusterJob(int minibatches = 2, int microbatch = 12)
        : mdl(mm::presetByName("bert-1.67b"), microbatch),
          part(mp::partitionModel(mdl, 16,
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildSchedule(pl::SystemKind::PipeDream, 16, 8,
                                  minibatches))
    {}
};

/** D2D-swap every layer of stage 0, drawing on one hand-written
 *  grant. */
cp::CompactionPlan
d2dStageZero(const mp::Partition &part, int importer, Bytes budget)
{
    cp::CompactionPlan plan;
    const auto &stage = part.stages[0];
    for (std::size_t l = stage.firstLayer; l <= stage.lastLayer; ++l)
        plan.activations[{0, static_cast<int>(l)}] =
            cp::Kind::D2dSwap;
    plan.spareGrants[0] = {{importer, budget}};
    return plan;
}

} // namespace

TEST(NicInfeasible, CrossNodeGrantLedgerIsRejectedInStrictMode)
{
    ClusterJob job(2, 48);  // big microbatch -> heavy stashes
    // Downgrade the fabric to a gigabit-class NIC: the ledger was
    // priced as if GPU 8 were an NVLink neighbor, and on this link
    // the round trips cannot hide behind compute — exactly the
    // pricing error the rule exists to catch.
    cl::ClusterSpec slow = cl::cluster2xDgx2();
    slow.nicGbps = 1.0;
    job.topo = cl::buildCluster(slow);
    auto plan = d2dStageZero(job.part, 8, 16 * mu::kGB);

    vf::Options strict;
    strict.strict = true;
    auto report = vf::verifyPlan(job.topo, job.mdl, job.part,
                                 job.sched, plan, strict);
    EXPECT_TRUE(report.hasRule(vf::Rule::D2dNicInfeasible));
    EXPECT_FALSE(report.ok());

    // Permissive mode surfaces it as a warning, not an error.
    auto relaxed = vf::verifyPlan(job.topo, job.mdl, job.part,
                                  job.sched, plan, {});
    ASSERT_TRUE(relaxed.hasRule(vf::Rule::D2dNicInfeasible));
    EXPECT_EQ(relaxed.findRule(vf::Rule::D2dNicInfeasible)->severity,
              vf::Severity::Warning);
}

TEST(NicInfeasible, IntraNodeGrantLedgerPasses)
{
    ClusterJob job(2, 48);
    // Same slow fabric, but the grant stays on an NVLink neighbor:
    // the stash hides behind compute and the rule stays silent.
    cl::ClusterSpec slow = cl::cluster2xDgx2();
    slow.nicGbps = 1.0;
    job.topo = cl::buildCluster(slow);
    auto plan = d2dStageZero(job.part, 1, 16 * mu::kGB);
    vf::Options strict;
    strict.strict = true;
    auto report = vf::verifyPlan(job.topo, job.mdl, job.part,
                                 job.sched, plan, strict);
    EXPECT_FALSE(report.hasRule(vf::Rule::D2dNicInfeasible));
}

// ---------------------------------------------------------------
// OOM rescue + the determinism matrix
// ---------------------------------------------------------------

namespace {

std::string
planOn2xDgx2(const ClusterJob &job, int threads, bool cache,
             bool *feasible)
{
    pn::PlannerConfig cfg;
    cfg.threads = threads;
    cfg.trialCache = cache;
    auto result =
        pn::planMPress(job.topo, job.mdl, job.part, job.sched, cfg);
    *feasible = result.feasible;
    return cp::planToText(result.plan);
}

} // namespace

TEST(ClusterDeterminism, OomRescuePlanIsByteIdenticalAcrossMatrix)
{
    // 24 in-flight minibatches of PipeDream weight stashing push the
    // uncompacted job over per-GPU capacity on every node (the
    // single-node OOM below proves the pressure is real); the
    // planner must rescue it with compaction and produce the same
    // plan bytes for every (threads, cache) combination.
    ClusterJob job(24);
    rt::TrainingReport raw = rt::runTraining(
        job.topo, job.mdl, job.part, job.sched, {}, {});
    ASSERT_TRUE(raw.oom) << "uncompacted job must OOM for this test"
                            " to mean anything";

    bool feasible = false;
    std::string golden = planOn2xDgx2(job, 1, false, &feasible);
    ASSERT_TRUE(feasible);

    for (int threads : {1, 2, 4}) {
        for (bool cache : {false, true}) {
            if (threads == 1 && !cache)
                continue;  // the golden run
            bool ok = false;
            EXPECT_EQ(planOn2xDgx2(job, threads, cache, &ok), golden)
                << "threads=" << threads << " cache=" << cache;
            EXPECT_TRUE(ok);
        }
    }

    // The rescue plan actually leans on compaction and survives
    // strict verification (including the NIC-infeasibility rule).
    auto parsed = cp::planFromText(golden);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_GT(parsed.plan.activations.size(), 0u);
    vf::Options strict;
    strict.strict = true;
    auto report = vf::verifyPlan(job.topo, job.mdl, job.part,
                                 job.sched, parsed.plan, strict);
    EXPECT_TRUE(report.ok()) << report.render();

    rt::TrainingReport rescued = rt::runTraining(
        job.topo, job.mdl, job.part, job.sched, parsed.plan, {});
    EXPECT_FALSE(rescued.oom);
}

// ---------------------------------------------------------------
// Multi-node simulation on the one node-partitioned engine
// ---------------------------------------------------------------

namespace {

/** A fault scenario stressing every cross-node mechanism: failing
 *  D2D stripes (retry ladder), a straggler, and host pressure. */
fault::Scenario
clusterFaults()
{
    fault::Scenario sc;
    sc.name = "cluster-mixed";
    sc.seed = 7;
    fault::FaultEvent fail;
    fail.kind = fault::EventKind::TransferFail;
    fail.start = 0;
    fail.end = 400 * mu::kMsec;
    fail.src = -1;
    fail.probability = 0.3;
    sc.events.push_back(fail);
    fault::FaultEvent straggle;
    straggle.kind = fault::EventKind::GpuStraggle;
    straggle.start = 0;
    straggle.end = 300 * mu::kMsec;
    straggle.gpu = 17;
    straggle.factor = 0.5;
    sc.events.push_back(straggle);
    fault::FaultEvent pressure;
    pressure.kind = fault::EventKind::HostPressure;
    pressure.start = 0;
    pressure.end = 500 * mu::kMsec;
    pressure.bytes = 8ll * mu::kGiB;
    sc.events.push_back(pressure);
    return sc;
}

} // namespace

TEST(ShardedSim, ReusedArenaReportIsByteIdentical)
{
    // An arena keeps its engine, and with it the engine's node
    // partition, across runs and topologies.  A 2-node run on an
    // arena that just ran a single-node job, and again on the
    // retained fabric, must match a self-contained run byte for byte,
    // with timeline, metrics and faults on.
    ClusterJob job(3);
    cp::CompactionPlan plan =
        d2dStageZero(job.part, 1, 4ll * mu::kGiB);
    fault::Scenario faults = clusterFaults();
    hw::Topology single = hw::Topology::dgx1V100();
    mm::TransformerModel small(mm::presetByName("bert-0.35b"), 4);
    mp::Partition small_part = mp::partitionModel(
        small, 8, mp::Strategy::ComputeBalanced);
    pl::Schedule small_sched =
        pl::buildSchedule(pl::SystemKind::PipeDream, 8, 4, 2);
    for (bool faulted : {false, true}) {
        rt::ExecutorConfig cfg;
        cfg.record = true;
        if (faulted)
            cfg.faults = &faults;
        const std::string fresh = renderReportBytes(rt::runTraining(
            job.topo, job.mdl, job.part, job.sched, plan, cfg));
        rt::ExecutorArena arena;
        rt::ExecutorConfig warm;
        warm.arena = &arena;
        rt::runTraining(single, small, small_part, small_sched, {},
                        warm);
        cfg.arena = &arena;
        for (int rerun = 0; rerun < 2; ++rerun) {
            EXPECT_EQ(renderReportBytes(rt::runTraining(
                          job.topo, job.mdl, job.part, job.sched,
                          plan, cfg)),
                      fresh)
                << "faulted=" << faulted << " rerun=" << rerun;
        }
    }
}

TEST(ShardedSim, EightNodePlanReplaysByteIdentically)
{
    // 8 x HGX-H100, GPT-25.5B: plan once, then replay the winning
    // plan twice on the one engine and require byte-identical
    // reports.
    auto spec = cl::clusterByName("8x-hgx-h100");
    ASSERT_TRUE(spec.has_value());
    hw::Topology topo = cl::buildCluster(*spec);
    mm::TransformerModel mdl(mm::presetByName("gpt-25.5b"), 2);
    mp::Partition part = mp::partitionModel(
        mdl, topo.numGpus(), mp::Strategy::ComputeBalanced);
    pl::Schedule sched = pl::buildSchedule(
        pl::SystemKind::Dapple, topo.numGpus(), 64, 2);

    pn::PlannerConfig pcfg;
    pcfg.threads = 2;
    auto planned = pn::planMPress(topo, mdl, part, sched, pcfg);
    ASSERT_TRUE(planned.feasible);

    auto run = [&] {
        rt::ExecutorConfig cfg;
        cfg.record = true;
        return rt::runTraining(topo, mdl, part, sched, planned.plan,
                               cfg);
    };
    rt::TrainingReport first = run();
    ASSERT_FALSE(first.oom);
    EXPECT_EQ(first.shardStats.size(), 1u);
    EXPECT_GT(first.simWindows, 0u);
    rt::TrainingReport again = run();
    EXPECT_EQ(renderReportBytes(again), renderReportBytes(first));
    EXPECT_EQ(again.simWindows, first.simWindows);
}

TEST(ShardedSim, SingleNodeRunsOneEngineWithoutWindows)
{
    // Single-node topologies open no windows and report one engine
    // row.
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl(mm::presetByName("bert-0.64b"), 8);
    mp::Partition part = mp::partitionModel(
        mdl, topo.numGpus(), mp::Strategy::ComputeBalanced);
    pl::Schedule sched = pl::buildSchedule(
        pl::SystemKind::Dapple, topo.numGpus(), 8, 2);
    rt::TrainingReport a = rt::runTraining(topo, mdl, part, sched, {});
    ASSERT_FALSE(a.oom);
    EXPECT_EQ(a.simWindows, 0u);
    ASSERT_EQ(a.shardStats.size(), 1u);
    EXPECT_GT(a.shardStats[0].events, 0u);
}
