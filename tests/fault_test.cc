/**
 * @file
 * Tests for the fault-injection subsystem: scenario parsing, static
 * verification, the injector's deterministic draws, the runtime's
 * degradation ladder, and robustness evaluation across a matrix.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "fault/injector.hh"
#include "fault/scenario.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/search.hh"
#include "runtime/executor.hh"
#include "sim/engine.hh"
#include "util/pool.hh"
#include "verify/verify.hh"

namespace cp = mpress::compaction;
namespace ft = mpress::fault;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace sim = mpress::sim;
namespace vf = mpress::verify;
namespace mu = mpress::util;

using mu::Tick;

namespace {

constexpr Tick kMs = mu::kMsec;

/** A small training job wired for fault tests. */
struct Job
{
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;

    explicit Job(const std::string &preset = "bert-0.64b",
                 int mb_size = 12)
        : mdl(mm::presetByName(preset), mb_size),
          part(mp::partitionModel(mdl, 8,
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildSchedule(pl::SystemKind::PipeDream, 8, 8, 2))
    {}

    rt::TrainingReport
    run(const cp::CompactionPlan &plan = {},
        rt::ExecutorConfig cfg = {}) const
    {
        return rt::runTraining(topo, mdl, part, sched, plan, cfg);
    }
};

/** Recompute-everything plan. */
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

/** GPU-CPU-swap-everything plan (activations only). */
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

/** Stage 0's activations D2D-swapped into GPU3/GPU4 grants, the
 *  rest recomputed — the D2dSwapMovesBytesToImporters shape. */
cp::CompactionPlan
d2dStage0(const mp::Partition &part)
{
    auto plan = recomputeAll(part);
    const auto &s0 = part.stages[0];
    for (std::size_t l = s0.firstLayer; l <= s0.lastLayer; ++l)
        plan.activations[{0, static_cast<int>(l)}] =
            cp::Kind::D2dSwap;
    plan.spareGrants[0] = {{3, 12 * mu::kGB}, {4, 8 * mu::kGB}};
    return plan;
}

ft::FaultEvent
transferFail(int src, double p, Tick start = 0,
             Tick end = 1000000 * kMs)
{
    ft::FaultEvent e;
    e.kind = ft::EventKind::TransferFail;
    e.start = start;
    e.end = end;
    e.src = src;
    e.probability = p;
    return e;
}

ft::FaultEvent
straggle(int gpu, double factor, Tick start = 0,
         Tick end = 1000000 * kMs)
{
    ft::FaultEvent e;
    e.kind = ft::EventKind::GpuStraggle;
    e.start = start;
    e.end = end;
    e.gpu = gpu;
    e.factor = factor;
    return e;
}

/** Stable fingerprint of everything a faulted run reports. */
std::string
fingerprint(const rt::TrainingReport &r)
{
    std::ostringstream os;
    os << r.oom << ":" << r.makespan << ":" << r.samplesPerSec
       << ":" << r.savings.d2dSwap << ":" << r.savings.gpuCpuSwap
       << ":" << r.savings.recompute;
    const auto &f = r.faults;
    os << ":" << f.degradedTransfers << ":" << f.transferFailures
       << ":" << f.retries << ":" << f.fallbackGpuCpuSwap << ":"
       << f.fallbackRecompute << ":" << f.straggledTasks << ":"
       << f.hostPressureEvents << ":" << f.hostPressurePeak << ":"
       << f.healthyMinibatches << ":" << f.degradedMinibatches;
    for (const auto &g : r.gpus)
        os << ":" << g.peak << "/" << g.finalUsed;
    return os.str();
}

} // namespace

// ---- scenario parsing ---------------------------------------------

TEST(Scenario, ParsesEveryEventKind)
{
    auto parsed = ft::parseScenario(R"({
      "name": "mixed", "seed": 42,
      "events": [
        {"type": "link-degrade", "start_ms": 0, "end_ms": 50,
         "src": 0, "dst": 1, "factor": 0.25},
        {"type": "link-degrade", "start_ms": 5, "end_ms": 15,
         "gpu": 2, "factor": 0.5},
        {"type": "transfer-fail", "start_ms": 10, "end_ms": 30,
         "src": 0, "probability": 0.5},
        {"type": "gpu-straggle", "start_ms": 0, "end_ms": 80,
         "gpu": 3, "factor": 0.5},
        {"type": "host-pressure", "start_ms": 20, "end_ms": 60,
         "bytes_gb": 128}
      ]})");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const ft::Scenario &s = parsed.scenario;
    EXPECT_EQ(s.name, "mixed");
    EXPECT_EQ(s.seed, 42u);
    ASSERT_EQ(s.events.size(), 5u);
    EXPECT_EQ(s.countOf(ft::EventKind::LinkDegrade), 2);
    EXPECT_EQ(s.countOf(ft::EventKind::TransferFail), 1);
    EXPECT_EQ(s.countOf(ft::EventKind::GpuStraggle), 1);
    EXPECT_EQ(s.countOf(ft::EventKind::HostPressure), 1);

    EXPECT_EQ(s.events[0].kind, ft::EventKind::LinkDegrade);
    EXPECT_EQ(s.events[0].start, 0);
    EXPECT_EQ(s.events[0].end, 50 * kMs);
    EXPECT_EQ(s.events[0].src, 0);
    EXPECT_EQ(s.events[0].dst, 1);
    EXPECT_DOUBLE_EQ(s.events[0].factor, 0.25);
    EXPECT_EQ(s.events[1].gpu, 2);
    EXPECT_DOUBLE_EQ(s.events[2].probability, 0.5);
    EXPECT_EQ(s.events[4].bytes, 128 * mu::kGB);
}

TEST(Scenario, RejectsMalformedShapes)
{
    EXPECT_FALSE(ft::parseScenario("not json").ok);
    EXPECT_FALSE(ft::parseScenario("{}").ok);           // no events
    EXPECT_FALSE(ft::parseScenario(R"({"events": 3})").ok);
    // Unknown type.
    EXPECT_FALSE(ft::parseScenario(
                     R"({"events": [{"type": "meteor-strike",
                         "start_ms": 0, "end_ms": 1}]})")
                     .ok);
    // Missing window.
    EXPECT_FALSE(ft::parseScenario(
                     R"({"events": [{"type": "gpu-straggle",
                         "gpu": 0}]})")
                     .ok);
    // Present-but-non-numeric field.
    EXPECT_FALSE(ft::parseScenario(
                     R"({"events": [{"type": "gpu-straggle",
                         "start_ms": 0, "end_ms": 1,
                         "gpu": "zero"}]})")
                     .ok);
}

TEST(Scenario, MatrixAcceptsListOrSingleObject)
{
    auto matrix = ft::parseScenarioMatrix(R"({
      "scenarios": [
        {"name": "a", "events": [{"type": "gpu-straggle",
          "start_ms": 0, "end_ms": 1, "gpu": 0, "factor": 0.5}]},
        {"name": "b", "events": [{"type": "host-pressure",
          "start_ms": 0, "end_ms": 1, "bytes_gb": 1}]}
      ]})");
    ASSERT_TRUE(matrix.ok) << matrix.error;
    ASSERT_EQ(matrix.scenarios.size(), 2u);
    EXPECT_EQ(matrix.scenarios[0].name, "a");
    EXPECT_EQ(matrix.scenarios[1].name, "b");

    auto single = ft::parseScenarioMatrix(R"({
      "name": "solo", "events": [{"type": "gpu-straggle",
        "start_ms": 0, "end_ms": 1, "gpu": 0, "factor": 0.5}]})");
    ASSERT_TRUE(single.ok) << single.error;
    ASSERT_EQ(single.scenarios.size(), 1u);
    EXPECT_EQ(single.scenarios[0].name, "solo");

    EXPECT_FALSE(ft::parseScenarioMatrix(R"({"scenarios": []})").ok);
}

// ---- static verification ------------------------------------------

TEST(VerifyScenario, CleanScenarioPasses)
{
    ft::Scenario s;
    s.events.push_back(straggle(0, 0.5, 0, 100 * kMs));
    s.events.push_back(transferFail(1, 0.5, 0, 100 * kMs));
    auto report =
        vf::verifyScenario(hw::Topology::dgx1V100(), s);
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_TRUE(report.clean());
}

TEST(VerifyScenario, FlagsBadTimesResourcesAndValues)
{
    hw::Topology topo = hw::Topology::dgx1V100();
    ft::Scenario s;
    // Inverted window.
    s.events.push_back(straggle(0, 0.5, 100 * kMs, 50 * kMs));
    // Unknown GPU.
    s.events.push_back(straggle(99, 0.5));
    // Non-positive factor.
    s.events.push_back(straggle(0, 0.0));
    // Probability outside [0, 1].
    s.events.push_back(transferFail(0, 1.5));
    // Pressure larger than the whole host pool.
    ft::FaultEvent pressure;
    pressure.kind = ft::EventKind::HostPressure;
    pressure.end = 10 * kMs;
    pressure.bytes = topo.hostMemory() + 1;
    s.events.push_back(pressure);
    // NVLink pair with no lanes: DGX-1 GPU0 has no link to GPU5.
    ft::FaultEvent degrade;
    degrade.kind = ft::EventKind::LinkDegrade;
    degrade.end = 10 * kMs;
    degrade.src = 0;
    degrade.dst = 5;
    degrade.factor = 0.5;
    s.events.push_back(degrade);

    auto report = vf::verifyScenario(topo, s);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule(vf::Rule::FaultTimeRange));
    EXPECT_TRUE(report.hasRule(vf::Rule::FaultResourceRange));
    EXPECT_TRUE(report.hasRule(vf::Rule::FaultValueRange));
}

TEST(VerifyScenario, FlagsOverlapOnlyOnSameResource)
{
    hw::Topology topo = hw::Topology::dgx1V100();
    ft::Scenario overlapping;
    overlapping.events.push_back(straggle(0, 0.5, 0, 20 * kMs));
    overlapping.events.push_back(straggle(0, 0.5, 10 * kMs,
                                          30 * kMs));
    auto bad = vf::verifyScenario(topo, overlapping);
    EXPECT_FALSE(bad.ok());
    EXPECT_TRUE(bad.hasRule(vf::Rule::FaultOverlap));

    // Same windows on different GPUs: fine.
    ft::Scenario disjoint;
    disjoint.events.push_back(straggle(0, 0.5, 0, 20 * kMs));
    disjoint.events.push_back(straggle(1, 0.5, 10 * kMs, 30 * kMs));
    EXPECT_TRUE(vf::verifyScenario(topo, disjoint).ok());

    // Back-to-back windows on one GPU: fine (end is exclusive).
    ft::Scenario adjacent;
    adjacent.events.push_back(straggle(0, 0.5, 0, 20 * kMs));
    adjacent.events.push_back(straggle(0, 0.5, 20 * kMs, 30 * kMs));
    EXPECT_TRUE(vf::verifyScenario(topo, adjacent).ok());
}

// ---- injector -----------------------------------------------------

TEST(Injector, StretchComposesAcrossActiveWindows)
{
    ft::Scenario s;
    s.events.push_back(straggle(0, 0.5, 0, 100 * kMs));
    s.events.push_back(straggle(0, 0.5, 50 * kMs, 100 * kMs));
    sim::Engine engine;
    ft::Injector inj(s, engine);
    // At t=0 one window is active: 1 / 0.5 = 2x.
    EXPECT_DOUBLE_EQ(inj.computeStretch(0), 2.0);
    EXPECT_DOUBLE_EQ(inj.computeStretch(1), 1.0);
    // Advance into the overlap: both compose multiplicatively.
    engine.schedule(60 * kMs, [] {});
    engine.run();
    EXPECT_DOUBLE_EQ(inj.computeStretch(0), 4.0);
}

TEST(Injector, FailureDrawsAreSeededAndWindowGated)
{
    ft::Scenario s;
    s.seed = 7;
    s.events.push_back(transferFail(0, 0.5, 0, 100 * kMs));

    auto draw = [&](int n) {
        sim::Engine engine;
        ft::Injector inj(s, engine);
        std::string seq;
        for (int i = 0; i < n; ++i)
            seq += inj.failsD2dStripe(0, 3) ? 'F' : '.';
        return seq;
    };
    // Same seed, same sequence.
    EXPECT_EQ(draw(64), draw(64));
    // A different seed gives a different sequence.
    ft::Scenario other = s;
    other.seed = 8;
    sim::Engine engine;
    ft::Injector inj(other, engine);
    std::string seq;
    for (int i = 0; i < 64; ++i)
        seq += inj.failsD2dStripe(0, 3) ? 'F' : '.';
    EXPECT_NE(seq, draw(64));

    // Outside every window no PRNG state is consumed: draws made
    // before the window opens do not shift draws made inside it.
    ft::Scenario late = s;
    late.events[0].start = 50 * kMs;
    sim::Engine eng2;
    ft::Injector inj2(late, eng2);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(inj2.failsD2dStripe(0, 3));  // window closed
    // Stripes from a different exporter never match either.
    eng2.schedule(60 * kMs, [] {});
    eng2.run();
    std::string in_window;
    for (int i = 0; i < 64; ++i)
        in_window += inj2.failsD2dStripe(0, 3) ? 'F' : '.';
    EXPECT_EQ(in_window, draw(64));
}

// ---- the degradation ladder ---------------------------------------

TEST(Ladder, FallsBackToHostSwapInsteadOfOom)
{
    // Acceptance shape: every D2D stripe from GPU0 fails.  With the
    // ladder the run completes by demoting swap-outs to the host
    // path; without it the lost stripes deadlock into an OOM report.
    Job job;
    auto plan = d2dStage0(job.part);
    ft::Scenario s;
    s.events.push_back(transferFail(0, 1.0));

    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto laddered = job.run(plan, cfg);
    ASSERT_FALSE(laddered.oom);
    EXPECT_GT(laddered.faults.transferFailures, 0);
    EXPECT_GT(laddered.faults.retries, 0);
    EXPECT_GT(laddered.faults.fallbackGpuCpuSwap, 0);
    EXPECT_EQ(laddered.faults.fallbackRecompute, 0);
    // The demoted instances land as GPU-CPU swap savings.
    EXPECT_GT(laddered.savings.gpuCpuSwap, 0);
    EXPECT_EQ(laddered.savings.d2dSwap, 0);

    cfg.faultLadder = false;
    auto bare = job.run(plan, cfg);
    EXPECT_TRUE(bare.oom);
    EXPECT_GT(bare.faults.transferFailures, 0);
    EXPECT_EQ(bare.faults.retries, 0);
    EXPECT_EQ(bare.faults.fallbackGpuCpuSwap, 0);
}

TEST(Ladder, BottomRungIsRecompute)
{
    // No host pool and no SSD to demote into: the ladder's last rung
    // drops the stash and recomputes in the backward pass.
    Job job;
    job.topo.setHostMemory(0);
    job.topo.setNvmeCapacity(0);
    auto plan = d2dStage0(job.part);
    ft::Scenario s;
    s.events.push_back(transferFail(0, 1.0));

    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto report = job.run(plan, cfg);
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.faults.fallbackRecompute, 0);
    EXPECT_EQ(report.faults.fallbackGpuCpuSwap, 0);
    EXPECT_GT(report.savings.recompute, 0);
}

TEST(Ladder, TransientFailureRecoversByRetry)
{
    // A failure probability low enough that three retries almost
    // surely recover: no demotion, D2D savings intact.
    Job job;
    auto plan = d2dStage0(job.part);
    ft::Scenario s;
    s.seed = 11;
    s.events.push_back(transferFail(0, 0.3));

    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto report = job.run(plan, cfg);
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.faults.transferFailures, 0);
    EXPECT_GT(report.faults.retries, 0);
    EXPECT_GT(report.savings.d2dSwap, 0);

    // The healthy twin is untouched by the machinery being armed.
    auto healthy = job.run(plan);
    EXPECT_FALSE(healthy.faults.enabled);
    EXPECT_EQ(healthy.faults.transferFailures, 0);
}

TEST(Ladder, StraggleStretchesMakespan)
{
    Job job;
    auto plan = recomputeAll(job.part);
    ft::Scenario s;
    s.events.push_back(straggle(0, 0.5));

    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto slow = job.run(plan, cfg);
    auto fast = job.run(plan);
    ASSERT_FALSE(slow.oom);
    EXPECT_GT(slow.faults.straggledTasks, 0);
    EXPECT_GT(slow.makespan, fast.makespan);
    EXPECT_EQ(slow.faults.scheduledGpuStraggle, 1);
    EXPECT_EQ(slow.faults.healthyMinibatches, 0);
    EXPECT_EQ(slow.faults.degradedMinibatches, 2);
}

TEST(Ladder, LinkDegradeSlowsSwapTraffic)
{
    // Quarter-speed PCIe under a swap-everything plan: transfers get
    // stretched and the run takes longer.
    Job job;
    auto plan = swapAll(job.part);
    ft::Scenario s;
    ft::FaultEvent e;
    e.kind = ft::EventKind::LinkDegrade;
    e.start = 0;
    e.end = 1000000 * kMs;
    e.gpu = 0;
    e.factor = 0.25;
    s.events.push_back(e);

    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto degraded = job.run(plan, cfg);
    auto healthy = job.run(plan);
    ASSERT_FALSE(degraded.oom);
    EXPECT_GT(degraded.faults.degradedTransfers, 0);
    EXPECT_GT(degraded.makespan, healthy.makespan);
}

TEST(Ladder, HostPressureSpillsToNvme)
{
    // Shrinking the pinned pool mid-run pushes swap-outs onto the
    // SSD that a healthy run never touches.
    Job job;
    job.topo.setNvmeCapacity(500 * mu::kGB);
    auto plan = swapAll(job.part);
    plan.offloadOptState.clear();
    plan.offloadWeightStash.clear();

    auto healthy = job.run(plan);
    ASSERT_FALSE(healthy.oom);
    ASSERT_EQ(healthy.nvmeSpill, 0);

    // Withhold all but a sliver of the pool for the whole run.
    const mu::Bytes cut = job.topo.hostMemory() - 4 * mu::kGB;
    ft::Scenario s;
    ft::FaultEvent e;
    e.kind = ft::EventKind::HostPressure;
    e.start = 0;
    e.end = 1000000 * kMs;
    e.bytes = cut;
    s.events.push_back(e);

    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto squeezed = job.run(plan, cfg);
    ASSERT_FALSE(squeezed.oom);
    EXPECT_EQ(squeezed.faults.hostPressureEvents, 1);
    EXPECT_EQ(squeezed.faults.hostPressurePeak, cut);
    EXPECT_GT(squeezed.nvmeSpill, 0);
}

TEST(Ladder, CountersAccountForEveryInjectedFailure)
{
    // Conservation: with p = 1 every stripe chain runs its first
    // issue plus all maxTransferRetries retries, all failing — so
    // failures = (retries + 1)/retries per chain, i.e. with the
    // default 3 retries, 3 * failures == 4 * retries.  The number
    // of exhausted chains (failures - retries) bounds the demoted
    // instances, which each demote exactly once.
    Job job;
    auto plan = d2dStage0(job.part);
    ft::Scenario s;
    s.events.push_back(transferFail(0, 1.0));
    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto r = job.run(plan, cfg);
    ASSERT_FALSE(r.oom);
    const auto &f = r.faults;
    EXPECT_EQ(f.enabled, true);
    EXPECT_EQ(f.scheduledTransferFail, 1);
    EXPECT_EQ(3 * f.transferFailures, 4 * f.retries);
    const int chains = f.transferFailures - f.retries;
    const int demotions =
        f.fallbackGpuCpuSwap + f.fallbackRecompute;
    EXPECT_GT(demotions, 0);
    // Every chain belongs to exactly one demoted instance; an
    // instance may stripe across several importers.
    EXPECT_GE(chains, demotions);
    EXPECT_GT(f.degradedMinibatches + f.healthyMinibatches, 0);
}

TEST(Ladder, MetricsMirrorFaultCounters)
{
    Job job;
    auto plan = d2dStage0(job.part);
    ft::Scenario s;
    s.events.push_back(transferFail(0, 1.0));
    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    cfg.record = true;
    auto r = job.run(plan, cfg);
    ASSERT_FALSE(r.oom);
    const auto &metrics = r.observability.metrics;
    const auto *fails = metrics.find("fault.transfer.failures");
    ASSERT_NE(fails, nullptr);
    EXPECT_DOUBLE_EQ(fails->value,
                     static_cast<double>(r.faults.transferFailures));
    const auto *retries = metrics.find("fault.transfer.retries");
    ASSERT_NE(retries, nullptr);
    EXPECT_DOUBLE_EQ(retries->value,
                     static_cast<double>(r.faults.retries));
    const auto *fallback = metrics.find("fault.fallback.swap");
    ASSERT_NE(fallback, nullptr);
    EXPECT_DOUBLE_EQ(
        fallback->value,
        static_cast<double>(r.faults.fallbackGpuCpuSwap));
}

TEST(Ladder, FaultTraceInstantsAppearInTimeline)
{
    Job job;
    auto plan = d2dStage0(job.part);
    ft::Scenario s;
    s.events.push_back(transferFail(0, 1.0));
    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    cfg.record = true;
    auto r = job.run(plan, cfg);
    ASSERT_FALSE(r.oom);
    ASSERT_FALSE(r.trace.instants().empty());
    std::ostringstream os;
    r.trace.exportChromeTrace(os);
    EXPECT_NE(os.str().find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(os.str().find("d2d stripe fail"), std::string::npos);
}

// ---- determinism --------------------------------------------------

TEST(FaultDeterminism, SameSeedSameReport)
{
    Job job;
    auto plan = d2dStage0(job.part);
    ft::Scenario s;
    s.seed = 21;
    s.events.push_back(transferFail(0, 0.4));
    s.events.push_back(straggle(2, 0.7, 0, 300 * kMs));

    rt::ExecutorConfig cfg;
    cfg.faults = &s;
    auto a = job.run(plan, cfg);
    auto b = job.run(plan, cfg);
    EXPECT_EQ(fingerprint(a), fingerprint(b));

    ft::Scenario reseeded = s;
    reseeded.seed = 22;
    cfg.faults = &reseeded;
    auto c = job.run(plan, cfg);
    EXPECT_NE(fingerprint(a), fingerprint(c));
}

// ---- robustness evaluation ----------------------------------------

TEST(Robustness, MatrixIsDeterministicAcrossThreadCounts)
{
    Job job;
    auto plan = d2dStage0(job.part);
    std::vector<ft::Scenario> scenarios(3);
    scenarios[0].name = "flaky";
    scenarios[0].seed = 5;
    scenarios[0].events.push_back(transferFail(0, 0.5));
    scenarios[1].name = "slow";
    scenarios[1].events.push_back(straggle(0, 0.5));
    scenarios[2].name = "calm";
    scenarios[2].events.push_back(straggle(7, 0.95, 0, 1 * kMs));

    auto evaluate = [&](int threads) {
        mu::ThreadPool pool(threads);
        pn::SearchDriver driver(job.topo, job.mdl, job.part,
                                job.sched, {}, pool);
        return driver.evaluateRobustness(plan, scenarios);
    };
    auto serial = evaluate(1);
    auto threaded = evaluate(4);

    ASSERT_EQ(serial.rows.size(), 3u);
    ASSERT_EQ(threaded.rows.size(), 3u);
    for (std::size_t i = 0; i < serial.rows.size(); ++i) {
        EXPECT_EQ(serial.rows[i].scenario, threaded.rows[i].scenario);
        EXPECT_EQ(fingerprint(serial.rows[i].report),
                  fingerprint(threaded.rows[i].report));
        EXPECT_DOUBLE_EQ(serial.rows[i].throughputRatio,
                         threaded.rows[i].throughputRatio);
    }
    EXPECT_DOUBLE_EQ(serial.p50, threaded.p50);
    EXPECT_DOUBLE_EQ(serial.p10, threaded.p10);
    EXPECT_DOUBLE_EQ(serial.worst, threaded.worst);

    // Percentiles are ordered and the ratios are sane: the straggled
    // scenario is strictly slower than the near-healthy one.
    EXPECT_LE(serial.worst, serial.p10);
    EXPECT_LE(serial.p10, serial.p50);
    EXPECT_GT(serial.rows[2].throughputRatio,
              serial.rows[1].throughputRatio);
    ASSERT_FALSE(serial.baseline.oom);
    EXPECT_FALSE(serial.baseline.faults.enabled);
}

TEST(Robustness, OomScenarioScoresZero)
{
    // A pressure fault that takes the whole host pool away from a
    // swap-dependent plan: the run cannot complete, and the row
    // scores zero instead of poisoning the percentiles.
    Job job("bert-1.67b");
    auto plan = swapAll(job.part);
    std::vector<ft::Scenario> scenarios(1);
    scenarios[0].name = "total-pressure";
    ft::FaultEvent e;
    e.kind = ft::EventKind::HostPressure;
    e.start = 0;
    e.end = 1000000 * kMs;
    e.bytes = job.topo.hostMemory();
    scenarios[0].events.push_back(e);

    mu::ThreadPool pool(1);
    pn::SearchDriver driver(job.topo, job.mdl, job.part, job.sched,
                            {}, pool);
    auto result = driver.evaluateRobustness(plan, scenarios);
    ASSERT_FALSE(result.baseline.oom);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_TRUE(result.rows[0].report.oom);
    EXPECT_DOUBLE_EQ(result.rows[0].throughputRatio, 0.0);
    EXPECT_DOUBLE_EQ(result.worst, 0.0);
}
