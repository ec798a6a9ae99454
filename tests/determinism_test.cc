/**
 * @file
 * Determinism guarantees: the simulator, planner and serializer are
 * pure functions of their inputs.  The planner's emulator-feedback
 * loop compares throughputs across candidate plans, so any
 * nondeterminism would make planning unreproducible — these tests
 * pin that property.
 */

#include <gtest/gtest.h>

#include "bench/common.hh"
#include <sstream>

#include "compaction/serialize.hh"
#include "obs/export.hh"
#include "util/random.hh"

namespace api = mpress::api;
namespace bench = mpress::bench;
namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mu = mpress::util;

namespace {

/** The planner's default thread count: every usable CPU. */
const int kDefaultThreads = mpress::planner::PlannerConfig{}.threads;

} // namespace

TEST(Determinism, IdenticalRunsProduceIdenticalReports)
{
    auto run = [] {
        return api::runSession(
            hw::Topology::dgx1V100(),
            bench::bertJob("bert-0.64b", api::Strategy::GpuCpuSwap));
    };
    auto a = run();
    auto b = run();
    ASSERT_FALSE(a.oom);
    EXPECT_EQ(a.report.makespan, b.report.makespan);
    EXPECT_EQ(a.report.steadyIterTime, b.report.steadyIterTime);
    EXPECT_EQ(a.report.savings.gpuCpuSwap,
              b.report.savings.gpuCpuSwap);
    for (std::size_t g = 0; g < a.report.gpus.size(); ++g) {
        EXPECT_EQ(a.report.gpus[g].peak, b.report.gpus[g].peak);
        EXPECT_EQ(a.report.gpus[g].finalUsed,
                  b.report.gpus[g].finalUsed);
    }
}

TEST(Determinism, PlannerProducesTheSamePlanTwice)
{
    auto plan_text = [] {
        auto result = api::runSession(
            hw::Topology::dgx1V100(),
            bench::bertJob("bert-1.67b", api::Strategy::MPressFull));
        EXPECT_FALSE(result.oom);
        return cp::planToText(result.plan);
    };
    EXPECT_EQ(plan_text(), plan_text());
}

TEST(Determinism, ThreadedPlannerSearchMatchesSerial)
{
    // The parallel emulator-feedback search must be invisible in the
    // output: byte-identical serialized plan and identical report at
    // any thread count.
    auto run = [](int threads) {
        auto cfg =
            bench::bertJob("bert-1.67b", api::Strategy::MPressFull);
        cfg.planner.threads = threads;
        return api::runSession(hw::Topology::dgx1V100(), cfg);
    };
    auto serial = run(1);
    for (int threads : {4, kDefaultThreads}) {
        auto threaded = run(threads);
        ASSERT_FALSE(serial.oom);
        ASSERT_FALSE(threaded.oom);
        EXPECT_EQ(cp::planToText(serial.plan),
                  cp::planToText(threaded.plan))
            << "threads=" << threads;
        EXPECT_EQ(serial.report.makespan, threaded.report.makespan);
        EXPECT_EQ(serial.planResult.iterations,
                  threaded.planResult.iterations);
    }
}

TEST(Determinism, MapperIsStableAcrossCalls)
{
    std::vector<mu::Bytes> demand = {
        45 * mu::kGB, 38 * mu::kGB, 31 * mu::kGB, 25 * mu::kGB,
        19 * mu::kGB, 14 * mu::kGB, 9 * mu::kGB, 4 * mu::kGB};
    auto a = mpress::planner::searchDeviceMapping(
        hw::Topology::dgx1V100(), demand, 28 * mu::kGB);
    auto b = mpress::planner::searchDeviceMapping(
        hw::Topology::dgx1V100(), demand, 28 * mu::kGB);
    EXPECT_EQ(a.stageToGpu, b.stageToGpu);
    EXPECT_EQ(a.score, b.score);
}

TEST(Determinism, RandomPlansSurviveSerializationRoundTrips)
{
    mu::SplitMix64 rng(424242);
    for (int round = 0; round < 50; ++round) {
        cp::CompactionPlan plan;
        plan.d2dStriping = rng.nextBounded(2) != 0;
        int acts = static_cast<int>(rng.nextBounded(20));
        for (int i = 0; i < acts; ++i) {
            plan.activations[{static_cast<int>(rng.nextBounded(8)),
                              static_cast<int>(rng.nextBounded(64))}] =
                static_cast<cp::Kind>(1 + rng.nextBounded(3));
        }
        if (rng.nextBounded(2)) {
            for (int s = 0; s < 8; ++s)
                plan.stageToGpu.push_back(
                    static_cast<int>(rng.nextBounded(8)));
        }
        plan.offloadOptState.resize(rng.nextBounded(9));
        for (std::size_t s = 0; s < plan.offloadOptState.size(); ++s)
            plan.offloadOptState[s] = rng.nextBounded(2) != 0;
        int grants = static_cast<int>(rng.nextBounded(6));
        for (int i = 0; i < grants; ++i) {
            plan.spareGrants[static_cast<int>(rng.nextBounded(8))]
                .push_back({static_cast<int>(rng.nextBounded(8)),
                            static_cast<mu::Bytes>(
                                rng.nextBounded(1ULL << 34))});
        }

        auto text1 = cp::planToText(plan);
        auto parsed = cp::planFromText(text1);
        ASSERT_TRUE(parsed.ok) << parsed.error;
        auto text2 = cp::planToText(parsed.plan);
        // Canonical after one round trip: text is a fixpoint.
        // (offloadOptState may shrink trailing 'false' entries, so
        // compare the re-serialized forms.)
        EXPECT_EQ(text2, cp::planToText(cp::planFromText(text2).plan))
            << "round " << round;
        // And the semantic content survives.
        EXPECT_EQ(parsed.plan.activations.size(),
                  plan.activations.size());
        EXPECT_EQ(parsed.plan.d2dStriping, plan.d2dStriping);
        EXPECT_EQ(parsed.plan.stageToGpu, plan.stageToGpu);
    }
}

TEST(Determinism, FaultedSessionIsReproducible)
{
    // A seeded fault scenario keeps the simulation a pure function
    // of its inputs: two faulted runs — and a faulted run behind a
    // threaded planner search — report identically.
    mpress::fault::Scenario scenario;
    scenario.seed = 13;
    mpress::fault::FaultEvent fail;
    fail.kind = mpress::fault::EventKind::TransferFail;
    fail.start = 0;
    fail.end = 1000000 * mu::kMsec;
    fail.src = 0;
    fail.probability = 0.4;
    scenario.events.push_back(fail);
    mpress::fault::FaultEvent slow;
    slow.kind = mpress::fault::EventKind::GpuStraggle;
    slow.start = 0;
    slow.end = 500 * mu::kMsec;
    slow.gpu = 1;
    slow.factor = 0.8;
    scenario.events.push_back(slow);

    auto run = [&](int threads) {
        auto cfg =
            bench::bertJob("bert-1.67b", api::Strategy::MPressFull);
        cfg.planner.threads = threads;
        cfg.executor.faults = &scenario;
        return api::runSession(hw::Topology::dgx1V100(), cfg);
    };
    auto a = run(1);
    auto b = run(1);
    auto threaded = run(4);
    ASSERT_FALSE(a.oom);
    EXPECT_EQ(a.report.makespan, b.report.makespan);
    EXPECT_EQ(a.report.makespan, threaded.report.makespan);
    EXPECT_EQ(cp::planToText(a.plan), cp::planToText(threaded.plan));
    const auto &fa = a.report.faults;
    const auto &fc = threaded.report.faults;
    EXPECT_TRUE(fa.enabled);
    EXPECT_EQ(fa.transferFailures, fc.transferFailures);
    EXPECT_EQ(fa.retries, fc.retries);
    EXPECT_EQ(fa.fallbackGpuCpuSwap, fc.fallbackGpuCpuSwap);
    EXPECT_EQ(fa.straggledTasks, fc.straggledTasks);
    EXPECT_EQ(fa.degradedMinibatches, fc.degradedMinibatches);
    // Planning stayed fault-free: the plan matches a healthy run's.
    auto healthy_cfg =
        bench::bertJob("bert-1.67b", api::Strategy::MPressFull);
    auto healthy =
        api::runSession(hw::Topology::dgx1V100(), healthy_cfg);
    EXPECT_EQ(cp::planToText(a.plan), cp::planToText(healthy.plan));
}

TEST(Determinism, ZeroBaselineIsPure)
{
    mpress::baselines::ZeroConfig cfg;
    cfg.gradAccumSteps = 4;
    auto a = mpress::baselines::runZero(
        bench::dgx1ForZero(), mpress::model::presetByName("gpt-5.3b"),
        cfg);
    auto b = mpress::baselines::runZero(
        bench::dgx1ForZero(), mpress::model::presetByName("gpt-5.3b"),
        cfg);
    EXPECT_EQ(a.iterTime, b.iterTime);
    EXPECT_EQ(a.commTime, b.commTime);
}

TEST(Determinism, TraceAndMetricsExportsAreByteIdentical)
{
    // Full-observability GPT emulation through the pooled event
    // queue: the chrome-trace and the metrics JSON are serialized
    // event streams, so a single reordered or duplicated event shows
    // up as a byte difference here.  Planner threads vary to cover
    // the session path end to end.
    auto run = [](int threads) {
        auto cfg =
            bench::gptJob("gpt-15.4b", api::Strategy::GpuCpuSwap);
        cfg.executor.record = true;
        cfg.planner.threads = threads;
        return api::runSession(hw::Topology::dgx1V100(), cfg);
    };
    auto a = run(1);
    auto b = run(4);
    ASSERT_FALSE(a.oom);

    std::ostringstream trace_a, trace_b;
    a.report.trace.exportChromeTrace(trace_a);
    b.report.trace.exportChromeTrace(trace_b);
    EXPECT_FALSE(trace_a.str().empty());
    EXPECT_EQ(trace_a.str(), trace_b.str());

    std::ostringstream obs_a, obs_b;
    mpress::obs::exportJson(obs_a, a.report.observability);
    mpress::obs::exportJson(obs_b, b.report.observability);
    EXPECT_FALSE(obs_a.str().empty());
    EXPECT_EQ(obs_a.str(), obs_b.str());
}

TEST(Determinism, TrialCacheNeverChangesThePlan)
{
    // Memoized trials replay stored reports; if the key missed a
    // config field the cache would return a stale report and steer
    // the search differently.  On or off, serial or threaded, the
    // planner must emit byte-identical output.
    auto run = [](bool cache, int threads) {
        auto cfg =
            bench::bertJob("bert-1.67b", api::Strategy::MPressFull);
        cfg.planner.trialCache = cache;
        cfg.planner.threads = threads;
        return api::runSession(hw::Topology::dgx1V100(), cfg);
    };
    for (int threads : {1, 4, kDefaultThreads}) {
        auto on = run(true, threads);
        auto off = run(false, threads);
        ASSERT_FALSE(on.oom);
        EXPECT_EQ(cp::planToText(on.plan), cp::planToText(off.plan))
            << "threads=" << threads;
        EXPECT_EQ(on.report.makespan, off.report.makespan);
        EXPECT_EQ(on.planResult.iterations,
                  off.planResult.iterations);
        EXPECT_EQ(off.planResult.trialCacheHits, 0u);
        EXPECT_EQ(off.planResult.trialCacheMisses, 0u);
        EXPECT_GT(on.planResult.trialCacheMisses, 0u);
    }
}
