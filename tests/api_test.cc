/**
 * @file
 * End-to-end tests of the MPressSession public API: every strategy
 * runs through one code path and reports uniform results.
 */

#include <gtest/gtest.h>

#include "api/session.hh"

namespace api = mpress::api;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace pl = mpress::pipeline;
namespace mu = mpress::util;

namespace {

api::SessionConfig
baseConfig(const std::string &preset, int mb,
           pl::SystemKind system)
{
    api::SessionConfig cfg;
    cfg.model = mm::presetByName(preset);
    cfg.microbatch = mb;
    cfg.system = system;
    cfg.numStages = 8;
    cfg.microbatchesPerMinibatch = 8;
    cfg.minibatches = 2;
    return cfg;
}

} // namespace

class StrategySweep : public ::testing::TestWithParam<api::Strategy>
{};

TEST_P(StrategySweep, MediumBertRunsOrFailsCleanly)
{
    auto cfg = baseConfig("bert-0.64b", 12,
                          pl::SystemKind::PipeDream);
    cfg.strategy = GetParam();
    auto result = api::runSession(hw::Topology::dgx1V100(), cfg);
    EXPECT_EQ(result.strategy, GetParam());
    EXPECT_FALSE(result.name.empty());
    if (!result.oom) {
        EXPECT_GT(result.samplesPerSec, 0.0);
        EXPECT_GT(result.tflops, 0.0);
        EXPECT_GT(result.maxGpuPeak, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategySweep,
    ::testing::Values(api::Strategy::None, api::Strategy::Recompute,
                      api::Strategy::GpuCpuSwap,
                      api::Strategy::D2dOnly,
                      api::Strategy::MPressFull,
                      api::Strategy::ZeroOffload));

TEST(Session, Figure7MediumSizeOrdering)
{
    // Bert-0.64B on PipeDream/DGX-1 (Fig. 7 "medium"): the stock
    // system OOMs; all four memory-saving systems succeed; MPress
    // (D2D) beats recompute, which beats GPU-CPU swap.
    auto topo = hw::Topology::dgx1V100();
    auto run = [&](api::Strategy s) {
        auto cfg = baseConfig("bert-0.64b", 12,
                              pl::SystemKind::PipeDream);
        cfg.strategy = s;
        return api::runSession(topo, cfg);
    };
    auto none = run(api::Strategy::None);
    auto swap = run(api::Strategy::GpuCpuSwap);
    auto recomp = run(api::Strategy::Recompute);
    auto d2d = run(api::Strategy::D2dOnly);
    auto mpress = run(api::Strategy::MPressFull);

    EXPECT_TRUE(none.oom);
    ASSERT_FALSE(swap.oom);
    ASSERT_FALSE(recomp.oom);
    ASSERT_FALSE(d2d.oom);
    ASSERT_FALSE(mpress.oom);
    EXPECT_GT(recomp.tflops, swap.tflops);
    EXPECT_GT(d2d.tflops, recomp.tflops);
    EXPECT_GE(mpress.tflops, recomp.tflops);
}

TEST(Session, StrategyNames)
{
    EXPECT_STREQ(api::strategyName(api::Strategy::MPressFull),
                 "mpress");
    EXPECT_STREQ(api::strategyName(api::Strategy::ZeroInfinity),
                 "zero-infinity");
}

TEST(Session, AccessorsExposeJobPieces)
{
    auto cfg = baseConfig("bert-0.35b", 4, pl::SystemKind::Dapple);
    api::MPressSession session(hw::Topology::dgx1V100(), cfg);
    EXPECT_EQ(session.partition().numStages(), 8);
    EXPECT_EQ(session.schedule().system, pl::SystemKind::Dapple);
    EXPECT_EQ(session.model().microbatchSize(), 4);
    EXPECT_EQ(session.topology().numGpus(), 8);
}

TEST(Session, MemoryBalancedPartitionCostsThroughput)
{
    // Sec. II-D: memory-balanced partitioning avoids some imbalance
    // but pays in throughput (~34% on real hardware).
    auto topo = hw::Topology::dgx1V100();
    auto cfg = baseConfig("bert-0.35b", 12,
                          pl::SystemKind::PipeDream);
    cfg.strategy = api::Strategy::None;
    auto compute_balanced = api::runSession(topo, cfg);
    cfg.partition = mpress::partition::Strategy::MemoryBalanced;
    auto memory_balanced = api::runSession(topo, cfg);
    ASSERT_FALSE(compute_balanced.oom);
    ASSERT_FALSE(memory_balanced.oom);
    EXPECT_GT(compute_balanced.samplesPerSec,
              memory_balanced.samplesPerSec);
    // But it does flatten the memory profile.
    EXPECT_LT(memory_balanced.maxGpuPeak,
              compute_balanced.maxGpuPeak);
}

TEST(Session, ZeroStrategiesPopulateZeroReport)
{
    auto cfg = baseConfig("gpt-5.3b", 2, pl::SystemKind::Dapple);
    cfg.strategy = api::Strategy::ZeroOffload;
    auto result = api::runSession(hw::Topology::dgx1V100(), cfg);
    ASSERT_FALSE(result.oom);
    EXPECT_GT(result.zeroReport.iterTime, 0);
    EXPECT_EQ(result.report.gpus.size(), 0u);  // pipeline unused
}

TEST(Session, PlannerVerificationIsReusedUnderTheSameOptions)
{
    // A permissive session checks under the planner's own options, so
    // it reports the planner's verification of the plan, which renders
    // as a fresh verifyPlan() does.  Other options verify the plan
    // again: the analyzer rules add cap-unproven warnings on this plan,
    // and strict mode promotes them to errors and rejects it.
    auto topo = hw::Topology::dgx1V100();
    auto cfg = baseConfig("bert-1.67b", 12, pl::SystemKind::PipeDream);
    cfg.strategy = api::Strategy::MPressFull;
    api::MPressSession permissive(topo, cfg);
    auto result = permissive.run();
    EXPECT_TRUE(result.verification.ok());
    EXPECT_EQ(result.verification.render(),
              permissive.verifyPlan(result.plan).render());
    EXPECT_EQ(result.verification.render(),
              result.planResult.verification.render());

    cfg.verifyOptions.analysis = true;
    api::MPressSession analyzed(topo, cfg);
    auto with_analysis = analyzed.run();
    EXPECT_EQ(with_analysis.verification.render(),
              analyzed.verifyPlan(with_analysis.plan).render());
    EXPECT_GT(with_analysis.verification.warningCount(), 0);
    EXPECT_EQ(with_analysis.planResult.verification.warningCount(), 0);

    cfg.verifyMode = api::VerifyMode::Strict;
    api::MPressSession strict(topo, cfg);
    auto rejected = strict.run();
    EXPECT_TRUE(rejected.rejected);
    EXPECT_GT(rejected.verification.errorCount(), 0);
    EXPECT_TRUE(rejected.planResult.verification.ok());
}
