/**
 * @file
 * Unit tests for the hardware model: GPU specs, link bandwidth curve,
 * topologies and the transfer fabric.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "hw/fabric.hh"
#include "hw/gpu.hh"
#include "hw/link.hh"
#include "hw/topology.hh"
#include "sim/engine.hh"
#include "util/random.hh"

namespace cl = mpress::cluster;
namespace hw = mpress::hw;
namespace mu = mpress::util;
using mpress::sim::Engine;
using mu::Tick;

TEST(Gpu, SpecSanity)
{
    auto v100 = hw::GpuSpec::v100();
    EXPECT_EQ(v100.memCapacity, 32 * mu::kGB);
    EXPECT_EQ(v100.nvlinkPorts, 6);
    auto a100 = hw::GpuSpec::a100();
    EXPECT_EQ(a100.memCapacity, 40 * mu::kGB);
    EXPECT_GT(a100.fp16Tflops, v100.fp16Tflops);
}

TEST(Gpu, ComputeTimeScalesWithFlops)
{
    auto v100 = hw::GpuSpec::v100();
    Tick t1 = v100.computeTime(1e12, hw::Precision::Fp32);
    Tick t2 = v100.computeTime(2e12, hw::Precision::Fp32);
    EXPECT_NEAR(static_cast<double>(t2),
                2.0 * static_cast<double>(t1),
                static_cast<double>(t1) * 0.01);
    // fp16 is much faster than fp32 on tensor cores.
    Tick t16 = v100.computeTime(1e12, hw::Precision::Fp16);
    EXPECT_LT(t16, t1);
    EXPECT_EQ(v100.computeTime(0.0, hw::Precision::Fp32), 0);
}

TEST(Link, EffectiveBandwidthRamps)
{
    auto nv = hw::LinkSpec::nvlink2();
    auto small = nv.effectiveBandwidth(64 * mu::kKiB);
    auto large = nv.effectiveBandwidth(256 * mu::kMiB);
    EXPECT_LT(small.gbps(), large.gbps());
    // Large transfers approach the 25 GB/s peak.
    EXPECT_GT(large.gbps(), 24.0);
    EXPECT_LT(large.gbps(), 25.0);
}

TEST(Link, SixNvlinksBeatPcieByPaperRatio)
{
    // Fig. 4: six aggregated NVLinks are ~12.5x a single PCIe link
    // for large transfers.
    auto nv = hw::LinkSpec::nvlink2();
    auto pcie = hw::LinkSpec::pcie3x16();
    mu::Bytes big = 512 * mu::kMiB;
    double nv6 = nv.effectiveBandwidth(big / 6).gbps() * 6.0;
    double p = pcie.effectiveBandwidth(big).gbps();
    EXPECT_GT(nv6 / p, 10.0);
    EXPECT_LT(nv6 / p, 14.0);
}

TEST(LinkSpec, TransferTimeIsMonotoneInBytes)
{
    // The mapper's drain floors assume more bytes never take less
    // time on one lane, in floating point, not just in real
    // arithmetic.  Probe every preset around each power of two from
    // 1 B to 1 TiB, and at seeded random sizes in between.
    const std::pair<const char *, hw::LinkSpec> presets[] = {
        {"nvlink1", hw::LinkSpec::nvlink1()},
        {"nvlink2", hw::LinkSpec::nvlink2()},
        {"nvlink4", hw::LinkSpec::nvlink4()},
        {"nvswitch3", hw::LinkSpec::nvswitch3()},
        {"pcie3x16", hw::LinkSpec::pcie3x16()},
        {"pcie4x16", hw::LinkSpec::pcie4x16()},
        {"c2c", hw::LinkSpec::c2c()},
        {"nvme", hw::LinkSpec::nvme()},
        {"ib-hdr", hw::LinkSpec::infinibandHdr()},
        {"ib-ndr", hw::LinkSpec::infinibandNdr()},
        {"roce100", hw::LinkSpec::roce100()},
    };
    std::vector<mu::Bytes> sizes = {0};
    for (int p = 0; p <= 40; ++p) {
        const mu::Bytes pow2 = mu::Bytes{1} << p;
        for (mu::Bytes d = -3; d <= 3; ++d) {
            if (pow2 + d >= 0)
                sizes.push_back(pow2 + d);
        }
    }
    mu::SplitMix64 rng(4096);
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform: a random bit width, then a size below it.
        const auto bits = rng.nextBounded(41);
        sizes.push_back(static_cast<mu::Bytes>(
            rng.nextBounded(std::uint64_t{1} << bits)));
    }
    for (const auto &[name, spec] : presets) {
        for (mu::Bytes b : sizes) {
            ASSERT_GE(spec.transferTime(b + 1), spec.transferTime(b))
                << name << " at " << b << " bytes";
        }
    }
}

TEST(Topology, Dgx1LaneMatrix)
{
    auto t = hw::Topology::dgx1V100();
    EXPECT_EQ(t.numGpus(), 8);
    EXPECT_FALSE(t.symmetric());
    // Figure 3: GPU0-GPU3 is a double link (50 GB/s).
    EXPECT_EQ(t.nvlinkLanes(0, 3), 2);
    EXPECT_EQ(t.nvlinkLanes(3, 0), 2);
    EXPECT_EQ(t.nvlinkLanes(0, 1), 1);
    // No direct link between GPU0 and GPU7.
    EXPECT_EQ(t.nvlinkLanes(0, 7), 0);
    // Every V100 uses its 6 NVLink ports.
    for (int g = 0; g < 8; ++g)
        EXPECT_EQ(t.totalLanes(g), 6) << "gpu " << g;
}

TEST(Topology, Dgx1Neighbors)
{
    auto t = hw::Topology::dgx1V100();
    auto nbhs = t.nvlinkNeighbors(0);
    EXPECT_EQ(nbhs, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Topology, Dgx2Symmetric)
{
    auto t = hw::Topology::dgx2A100();
    EXPECT_TRUE(t.symmetric());
    for (int a = 0; a < 8; ++a) {
        for (int b = 0; b < 8; ++b) {
            if (a != b) {
                EXPECT_GT(t.nvlinkLanes(a, b), 0);
            }
        }
    }
    EXPECT_EQ(t.nvlinkNeighbors(0).size(), 7u);
    EXPECT_EQ(t.totalLanes(0), 12);
}

TEST(Topology, TotalGpuMemory)
{
    auto t = hw::Topology::dgx1V100();
    EXPECT_EQ(t.totalGpuMemory(), 8 * 32 * mu::kGB);
}

TEST(Fabric, D2dFasterWithMoreLanes)
{
    auto topo = hw::Topology::dgx1V100();
    mu::Bytes size = 128 * mu::kMiB;

    Engine e1;
    hw::Fabric f1(e1, topo);
    Tick end_single = 0;
    e1.schedule(0, [&] {
        f1.d2dTransfer(0, 1, size, 0, [&] { end_single = e1.now(); });
    });
    e1.run();

    Engine e2;
    hw::Fabric f2(e2, topo);
    Tick end_double = 0;
    e2.schedule(0, [&] {
        f2.d2dTransfer(0, 3, size, 0, [&] { end_double = e2.now(); });
    });
    e2.run();

    EXPECT_GT(end_single, 0);
    EXPECT_GT(end_double, 0);
    // The 2-lane pair should be roughly twice as fast.
    double ratio = static_cast<double>(end_single) /
                   static_cast<double>(end_double);
    EXPECT_GT(ratio, 1.6);
    EXPECT_LT(ratio, 2.2);
}

TEST(Fabric, EstimateMatchesUncontendedExecution)
{
    auto topo = hw::Topology::dgx1V100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 64 * mu::kMiB;
    Tick est = fab.estimateD2d(0, 3, size, 0);
    Tick end = 0;
    eng.schedule(0, [&] {
        fab.d2dTransfer(0, 3, size, 0, [&] { end = eng.now(); });
    });
    eng.run();
    EXPECT_EQ(end, est);
}

TEST(Fabric, ContendedTransfersSerialize)
{
    auto topo = hw::Topology::dgx1V100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 64 * mu::kMiB;
    Tick first = 0, second = 0;
    eng.schedule(0, [&] {
        fab.d2dTransfer(0, 1, size, 0, [&] { first = eng.now(); });
        fab.d2dTransfer(0, 1, size, 0, [&] { second = eng.now(); });
    });
    eng.run();
    // Same single-lane pair: the second transfer waits for the first.
    EXPECT_NEAR(static_cast<double>(second),
                2.0 * static_cast<double>(first),
                static_cast<double>(first) * 0.01);
}

TEST(Fabric, DisjointPairsRunInParallel)
{
    auto topo = hw::Topology::dgx1V100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 64 * mu::kMiB;
    Tick a = 0, b = 0;
    eng.schedule(0, [&] {
        fab.d2dTransfer(0, 1, size, 0, [&] { a = eng.now(); });
        fab.d2dTransfer(2, 6, size, 0, [&] { b = eng.now(); });
    });
    eng.run();
    EXPECT_EQ(a, b);  // identical single-lane transfers, no contention
}

TEST(Fabric, SymmetricFabricParallelEgress)
{
    auto topo = hw::Topology::dgx2A100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 96 * mu::kMiB;
    // Stripe to three different peers with 4 lanes each: all twelve
    // egress lanes of GPU0 carry a share in parallel.
    Tick done_at = 0;
    int remaining = 3;
    eng.schedule(0, [&] {
        for (int peer : {1, 2, 3}) {
            fab.d2dTransfer(0, peer, size / 3, 4, [&] {
                if (--remaining == 0)
                    done_at = eng.now();
            });
        }
    });
    eng.run();
    EXPECT_EQ(remaining, 0);
    // All three transfers overlap, so the makespan is one transfer's
    // duration, not three.
    Tick single = fab.estimateD2d(0, 1, size / 3, 4);
    EXPECT_EQ(done_at, single);
}

TEST(Fabric, NvlinkBusyTimeCountsIngressLanes)
{
    // Switch fabrics occupy an egress port on the source AND an
    // ingress port on the destination per stripe; nvlinkBusyTime()
    // must report both (it used to drop the ingress side).
    auto topo = hw::Topology::dgx2A100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 96 * mu::kMiB;
    eng.schedule(0, [&] { fab.d2dTransfer(0, 1, size, 4, {}); });
    eng.run();
    Tick per_lane = fab.estimateD2d(0, 1, size, 4);
    EXPECT_EQ(fab.nvlinkBusyTime(), 8 * per_lane);

    // Pair-lane (mesh) fabrics have no separate ingress pool, so one
    // single-lane transfer accounts exactly one lane-occupancy — no
    // double-counting.
    auto mesh = hw::Topology::dgx1V100();
    Engine eng2;
    hw::Fabric fab2(eng2, mesh);
    eng2.schedule(0, [&] { fab2.d2dTransfer(0, 1, size, 1, {}); });
    eng2.run();
    EXPECT_EQ(fab2.nvlinkBusyTime(), fab2.estimateD2d(0, 1, size, 1));
}

TEST(Fabric, PcieRoundTrip)
{
    auto topo = hw::Topology::dgx1V100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 32 * mu::kMiB;
    Tick out_done = 0, back_done = 0;
    eng.schedule(0, [&] {
        fab.gpuToHost(0, size, [&] {
            out_done = eng.now();
            fab.hostToGpu(0, size, [&] { back_done = eng.now(); });
        });
    });
    eng.run();
    EXPECT_GT(out_done, 0);
    EXPECT_NEAR(static_cast<double>(back_done),
                2.0 * static_cast<double>(out_done),
                static_cast<double>(out_done) * 0.01);
}

TEST(Fabric, PcieDirectionsAreFullDuplex)
{
    // PCIe links are full duplex and GPUs have separate H2D and D2H
    // DMA copy engines: a swap-out and a swap-in issued together on
    // one GPU overlap, each finishing in one uncontended transfer
    // time.  (The old half-duplex model serialized them, which broke
    // the paper's swap-overlap claims on single-GPU stages.)
    auto topo = hw::Topology::dgx1V100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 32 * mu::kMiB;
    Tick down = 0, up = 0;
    eng.schedule(0, [&] {
        fab.gpuToHost(0, size, [&] { down = eng.now(); });
        fab.hostToGpu(0, size, [&] { up = eng.now(); });
    });
    eng.run();
    EXPECT_EQ(down, fab.estimatePcie(size));
    EXPECT_EQ(up, fab.estimatePcie(size));

    // A single direction still serializes on its copy engine.
    Tick first = 0, second = 0;
    const Tick t0 = eng.now();
    eng.schedule(t0, [&] {
        fab.gpuToHost(0, size, [&] { first = eng.now() - t0; });
        fab.gpuToHost(0, size, [&] { second = eng.now() - t0; });
    });
    eng.run();
    EXPECT_EQ(first, fab.estimatePcie(size));
    EXPECT_EQ(second, 2 * fab.estimatePcie(size));

    // Different GPUs' PCIe channels are independent.
    Tick other = 0;
    const Tick t1 = eng.now();
    eng.schedule(t1, [&] {
        fab.gpuToHost(1, size, [&] { other = eng.now() - t1; });
    });
    eng.run();
    EXPECT_EQ(other, fab.estimatePcie(size));
}

TEST(Fabric, NvmeSlowerThanPcie)
{
    auto topo = hw::Topology::dgx2A100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 256 * mu::kMiB;
    EXPECT_GT(fab.estimateNvme(size), fab.estimatePcie(size));
}

TEST(Fabric, D2dMuchFasterThanPcie)
{
    // The core D2D swap motivation: GPU-GPU via multiple NVLinks
    // beats GPU-CPU via PCIe by a large factor.
    auto topo = hw::Topology::dgx1V100();
    Engine eng;
    hw::Fabric fab(eng, topo);
    mu::Bytes size = 216 * mu::kMB;  // Table III t1/t3 size
    Tick d2d = fab.estimateD2d(0, 3, size, 0);
    Tick pcie = fab.estimatePcie(size);
    EXPECT_GT(static_cast<double>(pcie) / static_cast<double>(d2d), 3.0);
}

TEST(Topology, P100GenerationPreset)
{
    auto t = hw::Topology::dgx1P100();
    EXPECT_EQ(t.numGpus(), 8);
    EXPECT_FALSE(t.symmetric());
    // NVLink 1.0: 4 single lanes per GPU (160 GB/s bidirectional).
    for (int g = 0; g < 8; ++g)
        EXPECT_EQ(t.totalLanes(g), 4) << "gpu " << g;
    EXPECT_DOUBLE_EQ(t.nvlinkSpec().peak.gbps(), 20.0);
    EXPECT_EQ(t.gpu().memCapacity, 16 * mu::kGB);
}

TEST(Topology, HgxH100Preset)
{
    auto t = hw::Topology::hgxH100();
    EXPECT_TRUE(t.symmetric());
    EXPECT_EQ(t.totalLanes(0), 18);
    EXPECT_DOUBLE_EQ(t.nvlinkSpec().peak.gbps(), 50.0);
    EXPECT_EQ(t.gpu().memCapacity, 80 * mu::kGB);
    EXPECT_GT(t.nvmeCapacity(), 0);
}

TEST(Topology, DualA100Workstation)
{
    auto t = hw::Topology::dualA100();
    EXPECT_EQ(t.numGpus(), 2);
    EXPECT_EQ(t.nvlinkLanes(0, 1), 4);
    EXPECT_EQ(t.nvlinkNeighbors(0), (std::vector<int>{1}));
}

TEST(Topology, NvlinkGenerationsGetFaster)
{
    // Per-lane peaks: NVLink 1 < 2 < 4.
    EXPECT_LT(hw::LinkSpec::nvlink1().peak.gbps(),
              hw::LinkSpec::nvlink2().peak.gbps());
    EXPECT_LT(hw::LinkSpec::nvlink2().peak.gbps(),
              hw::LinkSpec::nvlink4().peak.gbps());
}

TEST(Topology, SingleServerHasOneLinkTier)
{
    // Without a multi-node fabric every pair, wired or not, prices at
    // the NVLink spec, and only NVLink lanes form a direct path.  A
    // one-node cluster declares a NIC tier that no pair can cross.
    auto server = hw::Topology::dgx1V100();
    auto one = cl::buildCluster(*cl::clusterByName("1x-dgx1"));
    for (const hw::Topology *t : {&server, &one}) {
        EXPECT_EQ(t->numNodes(), 1);
        EXPECT_FALSE(t->multiNodeFabric());
        for (int a = 0; a < 8; ++a) {
            for (int b = 0; b < 8; ++b) {
                EXPECT_EQ(&t->linkSpecBetween(a, b), &t->nvlinkSpec());
                EXPECT_EQ(t->pathLanes(a, b),
                          a == b ? 0 : t->nvlinkLanes(a, b));
            }
        }
        EXPECT_EQ(t->pathLanes(0, 7), 0);
    }
    EXPECT_EQ(server.nicsPerNode(), 0);
}

TEST(Topology, ClusterOfDgx1ReplicatesTheCubeMesh)
{
    // Two DGX-1s over one InfiniBand HDR NIC each: both nodes keep
    // the hybrid cube-mesh and no NVLink lane crosses a node.
    auto node = hw::Topology::dgx1V100();
    auto cluster = cl::buildCluster(*cl::clusterByName("2x-dgx1"));
    EXPECT_EQ(cluster.numGpus(), 16);
    EXPECT_EQ(cluster.numNodes(), 2);
    for (int a = 0; a < 8; ++a) {
        for (int b = 0; b < 8; ++b) {
            EXPECT_EQ(cluster.nvlinkLanes(a, b), node.nvlinkLanes(a, b));
            EXPECT_EQ(cluster.nvlinkLanes(8 + a, 8 + b),
                      node.nvlinkLanes(a, b));
            EXPECT_EQ(cluster.nvlinkLanes(a, 8 + b), 0);
            EXPECT_EQ(cluster.pathLanes(a, 8 + b), 1);
        }
    }
    // Cross-node pairs carry the HDR spec; intra-node pairs keep
    // NVLink 2.
    EXPECT_EQ(&cluster.linkSpecBetween(7, 8), &cluster.nicSpec());
    EXPECT_DOUBLE_EQ(cluster.nicSpec().peak.gbps(),
                     hw::LinkSpec::infinibandHdr().peak.gbps());
    EXPECT_GT(cluster.linkSpecBetween(7, 8).latency,
              cluster.linkSpecBetween(0, 3).latency);
    EXPECT_DOUBLE_EQ(cluster.linkSpecBetween(0, 3).peak.gbps(), 25.0);
    // Host memory doubled.
    EXPECT_EQ(cluster.hostMemory(), 2 * node.hostMemory());
}

TEST(Topology, NicSpecPricesOnlyCrossNodePairs)
{
    // Two NICs per node give the cross-node pair 7-8 as many lanes as
    // the double NVLink pair 0-3, yet InfiniBand is slower per lane.
    // A slower NIC preset moves cross-node transfers, in the fabric
    // and in the per-pair spec the mapper and analyzer read, and
    // leaves intra-node ones alone.
    auto spec = *cl::clusterByName("2x-dgx1");
    spec.nicsPerNode = 2;
    auto ib = cl::buildCluster(spec);
    spec.nicPreset = "roce100";
    auto roce = cl::buildCluster(spec);
    Engine ib_eng;
    Engine roce_eng;
    hw::Fabric ib_fab(ib_eng, ib);
    hw::Fabric roce_fab(roce_eng, roce);
    const mu::Bytes size = 64 * mu::kMiB;
    EXPECT_EQ(ib.pathLanes(7, 8), ib.nvlinkLanes(0, 3));
    EXPECT_GT(ib_fab.estimateD2d(7, 8, size, 0),
              ib_fab.estimateD2d(0, 3, size, 0));
    EXPECT_GT(roce_fab.estimateD2d(7, 8, size, 0),
              ib_fab.estimateD2d(7, 8, size, 0));
    EXPECT_EQ(roce_fab.estimateD2d(0, 3, size, 0),
              ib_fab.estimateD2d(0, 3, size, 0));
    EXPECT_GT(roce.linkSpecBetween(7, 8).transferTime(size),
              ib.linkSpecBetween(7, 8).transferTime(size));
    EXPECT_EQ(roce.linkSpecBetween(0, 3).transferTime(size),
              ib.linkSpecBetween(0, 3).transferTime(size));
}

TEST(Topology, ClusterRejectsZeroNodes)
{
    auto spec = *cl::clusterByName("2x-dgx1");
    spec.nodes = 0;
    EXPECT_DEATH(cl::buildCluster(spec), "at least one node");
}

TEST(Fabric, StripedTransferIsOneEngineEvent)
{
    // A striped transfer books every lane at issue time and runs one
    // engine event, at the latest lane end, that fires done.  The
    // lanes' occupancy and the event's place in the (tick, seq) order
    // are what a join over one event per lane produced.
    auto topo = hw::Topology::dgx2A100();
    const mu::Bytes size = 96 * mu::kMiB;
    const Tick d12 = topo.nvlinkSpec().transferTime((size + 11) / 12);
    const Tick d1 = topo.nvlinkSpec().transferTime(size);

    // Idle fabric: twelve egress and twelve ingress lanes, one event.
    {
        Engine eng;
        hw::Fabric fab(eng, topo);
        Tick done_at = -1;
        fab.d2dTransfer(0, 1, size, 12, [&] { done_at = eng.now(); });
        eng.run();
        EXPECT_EQ(eng.eventsExecuted(), 1u);
        EXPECT_EQ(done_at, d12);
    }

    // One egress lane already busy: done waits for that lane's later
    // end, and every lane's books match a hand count.
    {
        Engine eng;
        hw::Fabric fab(eng, topo);
        Tick busy_at = -1;
        Tick done_at = -1;
        fab.d2dTransfer(0, 1, size, 1, [&] { busy_at = eng.now(); });
        fab.d2dTransfer(0, 2, size, 12, [&] { done_at = eng.now(); });
        eng.run();
        EXPECT_EQ(eng.eventsExecuted(), 2u);
        EXPECT_EQ(busy_at, d1);
        EXPECT_EQ(done_at, d1 + d12);

        struct Books
        {
            Tick busyUntil = 0;
            Tick busyTime = 0;
            std::uint64_t tasks = 0;
        };
        std::map<std::string, Books> want;
        want["gpu0.out0"] = {d1 + d12, d1 + d12, 2};
        for (int l = 1; l < 12; ++l)
            want["gpu0.out" + std::to_string(l)] = {d12, d12, 1};
        want["gpu1.in0"] = {d1, d1, 1};
        for (int l = 0; l < 12; ++l)
            want["gpu2.in" + std::to_string(l)] = {d12, d12, 1};
        fab.visitStreams([&](hw::FabricResource, int, int,
                             mpress::sim::Stream &s) {
            auto it = want.find(std::string(s.name()));
            Books w = it == want.end() ? Books{} : it->second;
            EXPECT_EQ(s.busyUntil(), w.busyUntil) << s.name();
            EXPECT_EQ(s.busyTime(), w.busyTime) << s.name();
            EXPECT_EQ(s.tasks(), w.tasks) << s.name();
        });
    }

    // Same-tick order: an event scheduled before the transfer fires
    // before done, one scheduled after it fires after done.
    {
        Engine eng;
        hw::Fabric fab(eng, topo);
        std::vector<char> order;
        eng.schedule(d12, [&] { order.push_back('a'); });
        fab.d2dTransfer(0, 1, size, 12, [&] { order.push_back('d'); });
        eng.schedule(d12, [&] { order.push_back('b'); });
        eng.run();
        EXPECT_EQ(order, (std::vector<char>{'a', 'd', 'b'}));
    }

    // An empty done still moves simulated time to the end tick.
    {
        Engine eng;
        hw::Fabric fab(eng, topo);
        fab.d2dTransfer(0, 1, size, 12, {});
        eng.run();
        EXPECT_EQ(eng.eventsExecuted(), 1u);
        EXPECT_EQ(eng.now(), d12);
    }

    // Across nodes: one event per NIC leg plus the cross-node
    // message, however many NICs each leg stripes over.
    {
        auto spec = mpress::cluster::cluster2xDgx2();
        spec.nicsPerNode = 4;
        auto cluster = mpress::cluster::buildCluster(spec);
        Engine eng;
        hw::Fabric fab(eng, cluster);
        Tick done_at = -1;
        fab.d2dTransfer(0, 8, size, 0, [&] { done_at = eng.now(); });
        eng.run();
        EXPECT_EQ(eng.eventsExecuted(), 3u);
        EXPECT_EQ(done_at, fab.estimateD2d(0, 8, size, 0));
    }
}
