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

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "compaction/serialize.hh"
#include "fault/scenario.hh"
#include "obs/export.hh"
#include "sim/engine.hh"
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
namespace sim = mpress::sim;
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

namespace {

/** The profile run's capacity, stage peaks and liveness table. */
std::string
profileBytes(const hw::Topology &topo, const mm::TransformerModel &mdl,
             const mp::Partition &part, const pl::Schedule &sched)
{
    pn::ProfileResult prof = pn::profileJob(topo, mdl, part, sched, {});
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
    EXPECT_GT(prof.report.liveness.size(), 0u);
    return os.str();
}

} // namespace

TEST(GoldenDigest, ProfileLivenessTable)
{
    bench::SwitchFabricJob job;
    EXPECT_EQ(digestOf(profileBytes(job.topo, job.mdl, job.part,
                                    job.sched)),
              "0c15d2b7883ddd80");

    // CrossNodeD2d's 2 x DGX-2 job: stages on both nodes record
    // liveness.
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    mm::TransformerModel mdl(mm::presetByName("bert-1.67b"), 12);
    mp::Partition part =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::PipeDream, 16, 1, 2);
    EXPECT_EQ(digestOf(profileBytes(topo, mdl, part, sched)),
              "946cb0161262cbe1");
}

TEST(GoldenDigest, TimelineAndMetricsExports)
{
    bench::SwitchFabricJob job;
    rt::ExecutorConfig cfg;
    cfg.record = true;
    rt::TrainingReport r = rt::runTraining(job.topo, job.mdl, job.part,
                                           job.sched, job.plan, cfg);
    ASSERT_FALSE(r.oom);
    ASSERT_FALSE(r.trace.spans().empty());
    EXPECT_EQ(digestOf(exportBytes(r)), "17a076cac9e20284");
}

TEST(GoldenDigest, CrossNodeD2d)
{
    // Two DGX-2 nodes joined by NICs: stage 0 swaps into GPU 8 on the
    // other node and stage 9 into GPU 1 back across, so both NIC legs
    // run in both directions.
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    mm::TransformerModel mdl(mm::presetByName("bert-1.67b"), 12);
    mp::Partition part =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::PipeDream, 16, 1, 2);
    cp::CompactionPlan plan = bench::swapPlan(
        part, {{0, {{8, 16 * mu::kGB}}}, {9, {{1, 16 * mu::kGB}}}},
        {2, 10});
    rt::ExecutorConfig cfg;
    cfg.record = true;
    rt::TrainingReport r =
        rt::runTraining(topo, mdl, part, sched, plan, cfg);
    ASSERT_FALSE(r.oom);
    EXPECT_GT(r.savings.d2dSwap, 0);
    EXPECT_GT(r.nicBusyTime, 0);
    EXPECT_EQ(digestOf(exportBytes(r)), "9ebd191c0fbc4d2f");
}

TEST(GoldenDigest, ClusterOomStopsAtWindowEnd)
{
    // Four dual-A100 nodes, bert-4.0b: GPU 1 runs out of memory
    // mid-window.  A stop ends its own node at once, but the other
    // nodes finish the window, so the makespan lands past the OOM.
    // This is the pinned run where the window-granular stop shows.
    auto spec = cl::clusterByName("4x-dual-a100");
    ASSERT_TRUE(spec.has_value());
    hw::Topology topo = cl::buildCluster(*spec);
    mm::TransformerModel mdl(mm::presetByName("bert-4.0b"), 6);
    mp::Partition part =
        mp::partitionModel(mdl, 8, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::Dapple, 8, 9, 2);
    cp::CompactionPlan plan = bench::swapPlan(
        part, {{0, {{2, 16 * mu::kGB}}}, {6, {{1, 3 * mu::kGB}}}},
        {2, 5});
    rt::TrainingReport r =
        rt::runTraining(topo, mdl, part, sched, plan, {});
    ASSERT_TRUE(r.oom);
    EXPECT_EQ(r.oomGpu, 1);
    EXPECT_EQ(r.oomTime, 2051559365);
    EXPECT_EQ(r.makespan, 2051573573);
    EXPECT_GT(r.makespan, r.oomTime);
    std::uint64_t events = 0;
    for (const auto &st : r.shardStats)
        events += st.events;
    EXPECT_EQ(events, 277u);
    EXPECT_EQ(r.simWindows, 253u);
    EXPECT_EQ(digestOf(renderReportBytes(r)), "bb8ee84ca004c7c6");
}

namespace {

/** Failing D2D stripes, a straggler and host pressure on both nodes
 *  of a 2 x DGX-2 cluster. */
ft::Scenario
clusterFaults()
{
    ft::Scenario sc;
    sc.name = "cluster-mixed";
    sc.seed = 7;
    ft::FaultEvent fail;
    fail.kind = ft::EventKind::TransferFail;
    fail.start = 0;
    fail.end = 400 * mu::kMsec;
    fail.src = -1;
    fail.probability = 0.3;
    sc.events.push_back(fail);
    ft::FaultEvent straggle;
    straggle.kind = ft::EventKind::GpuStraggle;
    straggle.start = 0;
    straggle.end = 300 * mu::kMsec;
    straggle.gpu = 17;
    straggle.factor = 0.5;
    sc.events.push_back(straggle);
    ft::FaultEvent pressure;
    pressure.kind = ft::EventKind::HostPressure;
    pressure.start = 0;
    pressure.end = 500 * mu::kMsec;
    pressure.bytes = 8ll * mu::kGiB;
    sc.events.push_back(pressure);
    return sc;
}

} // namespace

TEST(GoldenDigest, CrossNodeFaultMatrix)
{
    // Bert-1.67B over 2 x DGX-2 with stage 0 D2D-swapped into GPU 1,
    // timeline and metrics on, with and without faults.
    hw::Topology topo = cl::buildCluster(cl::cluster2xDgx2());
    mm::TransformerModel mdl(mm::presetByName("bert-1.67b"), 12);
    mp::Partition part =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    pl::Schedule sched =
        pl::buildSchedule(pl::SystemKind::PipeDream, 16, 8, 3);
    cp::CompactionPlan plan;
    const auto &stage = part.stages[0];
    for (std::size_t l = stage.firstLayer; l <= stage.lastLayer; ++l)
        plan.activations[{0, static_cast<int>(l)}] = cp::Kind::D2dSwap;
    plan.spareGrants[0] = {{1, 4ll * mu::kGiB}};
    ft::Scenario faults = clusterFaults();
    const char *want[2] = {"615d731e1c1712a7", "9126dc3127f6de57"};
    for (int faulted = 0; faulted < 2; ++faulted) {
        rt::ExecutorConfig cfg;
        cfg.record = true;
        if (faulted)
            cfg.faults = &faults;
        rt::TrainingReport r =
            rt::runTraining(topo, mdl, part, sched, plan, cfg);
        EXPECT_GT(r.simWindows, 0u);
        EXPECT_EQ(digestOf(exportBytes(r)), want[faulted])
            << "faulted=" << faulted;
    }
}

TEST(GoldenDigest, EightNodePlanAndReplay)
{
    // 8 x HGX-H100, GPT-25.5B: the planner's cluster trials and the
    // replay of its winning plan.
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
    EXPECT_EQ(digestOf(cp::planToText(planned.plan)),
              "82098af8d695963e");
    rt::ExecutorConfig cfg;
    cfg.record = true;
    rt::TrainingReport r =
        rt::runTraining(topo, mdl, part, sched, planned.plan, cfg);
    ASSERT_FALSE(r.oom);
    EXPECT_EQ(digestOf(renderReportBytes(r)), "1d4302bd24164e43");
}

// ---------------------------------------------------------------
// Event soup: the engine's cross-node order on generated inputs
// ---------------------------------------------------------------

namespace {

/** The engine calls the soup makes, on one partitioned engine. */
class SoupBackend
{
  public:
    SoupBackend(int nodes, mu::Tick lookahead)
    {
        _engine.partition(nodes, lookahead);
    }

    mu::Tick now(int) const { return _engine.now(); }

    /** Set-up: an event on @p node at @p when, before run(). */
    void
    seed(int node, mu::Tick when, sim::EventFn fn)
    {
        _engine.scheduleOn(node, when, std::move(fn));
    }

    /** From an event on @p node: a follow-up @p delay later. */
    void
    local(int, mu::Tick delay, sim::EventFn fn)
    {
        _engine.scheduleIn(delay, std::move(fn));
    }

    /** From an event on @p src: @p fn on @p dst one lookahead on. */
    void
    post(int, int dst, sim::EventFn fn)
    {
        _engine.post(dst, std::move(fn));
    }

    void stop(int) { _engine.stop(); }
    void run() { _engine.run(); }
    mu::Tick finalTime() const { return _engine.now(); }
    std::uint64_t windows() const { return _engine.windows(); }
    std::uint64_t events() const { return _engine.eventsExecuted(); }

  private:
    sim::Engine _engine;
};

/**
 * One seeded soup.  Every event records (tick, tag) on its node, then
 * draws from its node's own generator: local follow-ups (zero delays
 * included), a message to any node, and now and then a stop of its
 * node.  Generators, tag counters and spawn budgets are per node, so
 * what a node does depends only on the order of its own events —
 * the order the engine defines.
 */
class EventSoup
{
  public:
    EventSoup(std::uint64_t seed, int nodes, mu::Tick lookahead)
        : _be(nodes, lookahead), _lookahead(lookahead),
          _trace(static_cast<std::size_t>(nodes)),
          _budget(static_cast<std::size_t>(nodes), 60),
          _nextTag(static_cast<std::size_t>(nodes), 0)
    {
        for (int n = 0; n < nodes; ++n)
            _rng.emplace_back(seed * 1000003 + static_cast<unsigned>(n));
        mu::SplitMix64 init(seed);
        for (int n = 0; n < nodes; ++n) {
            const int seeds = 1 + static_cast<int>(init.nextBounded(3));
            for (int i = 0; i < seeds; ++i) {
                const std::uint64_t tag = _nextTag[n]++;
                _be.seed(n,
                         static_cast<mu::Tick>(init.nextBounded(
                             static_cast<std::uint64_t>(3 * lookahead))),
                         [this, n, tag] { fire(n, tag); });
            }
        }
    }

    /** Run to the end and render every node's trace plus the run's
     *  final time, windows and events. */
    std::string
    render()
    {
        _be.run();
        std::ostringstream os;
        for (std::size_t n = 0; n < _trace.size(); ++n) {
            os << "node" << n << ":";
            for (const auto &[tick, tag] : _trace[n])
                os << " " << tick << "/" << tag;
            os << "\n";
        }
        os << "final=" << _be.finalTime() << " windows="
           << _be.windows() << " events=" << _be.events() << "\n";
        return os.str();
    }

  private:
    void
    fire(int node, std::uint64_t tag)
    {
        const auto n = static_cast<std::size_t>(node);
        _trace[n].emplace_back(_be.now(node), tag);
        mu::SplitMix64 &rng = _rng[n];
        const int children = static_cast<int>(rng.nextBounded(3));
        for (int i = 0; i < children && _budget[n] > 0; ++i) {
            --_budget[n];
            const std::uint64_t child = _nextTag[n]++;
            const mu::Tick delay =
                rng.nextBounded(3) == 0
                    ? 0
                    : static_cast<mu::Tick>(rng.nextBounded(
                          static_cast<std::uint64_t>(2 * _lookahead + 1)));
            _be.local(node, delay,
                      [this, node, child] { fire(node, child); });
        }
        if (_budget[n] > 0 && rng.nextBounded(3) == 0) {
            --_budget[n];
            const std::uint64_t msg = _nextTag[n]++;
            const int dst = static_cast<int>(
                rng.nextBounded(static_cast<std::uint64_t>(_trace.size())));
            _be.post(node, dst, [this, dst, msg] { fire(dst, msg); });
        }
        if (rng.nextBounded(400) == 0)
            _be.stop(node);
    }

    SoupBackend _be;
    mu::Tick _lookahead;
    std::vector<mu::SplitMix64> _rng;
    std::vector<std::vector<std::pair<mu::Tick, std::uint64_t>>> _trace;
    std::vector<int> _budget;
    std::vector<std::uint64_t> _nextTag;
};

} // namespace

TEST(GoldenDigest, EngineEventSoup)
{
    // 300 seeded soups of 2-6 nodes at lookaheads of 1-20 ticks:
    // same-tick collisions between locals and messages from several
    // sources, and node stops in the middle of a window.
    std::string all;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        mu::SplitMix64 shape(seed ^ 0x50u);
        const int nodes = 2 + static_cast<int>(shape.nextBounded(5));
        const auto lookahead =
            static_cast<mu::Tick>(1 + shape.nextBounded(20));
        EventSoup soup(seed, nodes, lookahead);
        all += soup.render();
    }
    EXPECT_EQ(digestOf(all), "fce125f8a0891e69");
}
