/**
 * @file
 * Randomized property tests: deterministic fuzzing (SplitMix64,
 * fixed seeds) of the striping planner, the device mapper, schedule
 * generation, the executor's conservation invariants, and the
 * verifier's capacity rules against the analyzer and the executor.
 */

#include <gtest/gtest.h>

#include <string>

#include "analysis/analyzer.hh"
#include "compaction/striping.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/mapper.hh"
#include "runtime/executor.hh"
#include "util/random.hh"
#include "verify/verify.hh"

namespace an = mpress::analysis;
namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace mu = mpress::util;
namespace vf = mpress::verify;

class StripingFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(StripingFuzz, InvariantsHoldForRandomInputs)
{
    mu::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()));
    auto topo = hw::Topology::dgx1V100();

    for (int round = 0; round < 200; ++round) {
        int src = static_cast<int>(rng.nextBounded(8));
        std::vector<cp::SpareGrant> grants;
        int n_grants = 1 + static_cast<int>(rng.nextBounded(5));
        for (int g = 0; g < n_grants; ++g) {
            int importer = static_cast<int>(rng.nextBounded(8));
            if (importer == src)
                continue;
            auto budget = static_cast<mu::Bytes>(
                rng.nextBounded(512) * mu::kMiB);
            grants.push_back({importer, budget});
        }
        auto size = static_cast<mu::Bytes>(
            1 + rng.nextBounded(1024ULL * mu::kMiB));
        auto plan = cp::makeStripePlan(topo, src, grants, size);

        if (plan.empty())
            continue;  // legitimately unplaceable
        // (1) Exact byte conservation.
        EXPECT_EQ(plan.totalBytes(), size);
        for (const auto &stripe : plan.stripes) {
            // (2) Every stripe targets an NVLink-reachable importer.
            EXPECT_GT(topo.nvlinkLanes(src, stripe.targetGpu), 0);
            EXPECT_GT(stripe.bytes, 0);
            EXPECT_EQ(stripe.lanes,
                      topo.nvlinkLanes(src, stripe.targetGpu));
            // (3) No stripe exceeds its grant's budget.
            mu::Bytes budget = 0;
            for (const auto &g : grants) {
                if (g.importerGpu == stripe.targetGpu)
                    budget += g.budget;
            }
            EXPECT_LE(stripe.bytes, budget);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StripingFuzz,
                         ::testing::Values(1, 2, 3));

class MapperFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(MapperFuzz, GrantsStayWithinSpareAndReachability)
{
    mu::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) + 100);
    auto topo = hw::Topology::dgx1V100();
    const mu::Bytes cap = 29 * mu::kGB;

    for (int round = 0; round < 10; ++round) {
        std::vector<mu::Bytes> demand(8);
        for (auto &d : demand)
            d = static_cast<mu::Bytes>(rng.nextBounded(60)) *
                mu::kGB;
        auto result = pn::searchDeviceMapping(topo, demand, cap);

        EXPECT_GE(result.coverage, 0.0);
        EXPECT_LE(result.coverage, 1.0);
        ASSERT_EQ(result.stageToGpu.size(), 8u);

        // The mapping is a permutation.
        std::vector<char> seen(8, 0);
        for (int gpu : result.stageToGpu) {
            ASSERT_GE(gpu, 0);
            ASSERT_LT(gpu, 8);
            EXPECT_FALSE(seen[static_cast<std::size_t>(gpu)]);
            seen[static_cast<std::size_t>(gpu)] = 1;
        }

        // Demand per GPU under the mapping.
        std::vector<mu::Bytes> on_gpu(8, 0);
        for (int s = 0; s < 8; ++s)
            on_gpu[static_cast<std::size_t>(
                result.stageToGpu[static_cast<std::size_t>(s)])] +=
                demand[static_cast<std::size_t>(s)];

        // Grants: reachable importers, never more than their spare.
        std::vector<mu::Bytes> granted_from(8, 0);
        for (const auto &[exporter, grants] : result.grants) {
            for (const auto &g : grants) {
                EXPECT_GT(topo.nvlinkLanes(exporter, g.importerGpu),
                          0);
                granted_from[static_cast<std::size_t>(
                    g.importerGpu)] += g.budget;
            }
        }
        for (int gpu = 0; gpu < 8; ++gpu) {
            mu::Bytes spare =
                on_gpu[static_cast<std::size_t>(gpu)] < cap
                    ? cap - on_gpu[static_cast<std::size_t>(gpu)]
                    : 0;
            EXPECT_LE(granted_from[static_cast<std::size_t>(gpu)],
                      spare)
                << "gpu " << gpu;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MapperFuzz, ::testing::Values(1, 2));

class ScheduleFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(ScheduleFuzz, RandomShapesValidateAndNest)
{
    mu::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) + 200);
    for (int round = 0; round < 30; ++round) {
        int stages = 1 + static_cast<int>(rng.nextBounded(8));
        int mb = 1 + static_cast<int>(rng.nextBounded(8));
        int minis = 1 + static_cast<int>(rng.nextBounded(3));
        auto kind = static_cast<pl::SystemKind>(rng.nextBounded(3));
        auto sched = pl::buildSchedule(kind, stages, mb, minis);
        sched.validate();  // panics on malformed output
        for (int s = 1; s < stages; ++s) {
            EXPECT_GE(sched.maxInFlight(s - 1), sched.maxInFlight(s));
        }
        EXPECT_EQ(sched.totalMicrobatches(), mb * minis);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz, ::testing::Values(1, 2));

namespace {

/** A random job on the DGX-1 and a random compaction plan for it. */
struct FuzzJob
{
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;
    cp::CompactionPlan plan;
};

/** Draws 2-8 stages, microbatch, schedule shape and kind, then a
 *  random technique per layer, random grants to random NVLink
 *  neighbours and random optimizer offload. */
FuzzJob
randomJob(mu::SplitMix64 &rng, const hw::Topology &topo,
          const mm::ModelConfig &model_cfg)
{
    int stages = 2 + static_cast<int>(rng.nextBounded(7));
    int microbatch = 1 + static_cast<int>(rng.nextBounded(4));
    int mb = 1 + static_cast<int>(rng.nextBounded(4));
    int minis = 1 + static_cast<int>(rng.nextBounded(2));
    auto kind = static_cast<pl::SystemKind>(rng.nextBounded(3));

    mm::TransformerModel mdl(model_cfg, microbatch);
    auto part =
        mp::partitionModel(mdl, stages, mp::Strategy::ComputeBalanced);
    FuzzJob job{std::move(mdl), std::move(part),
                pl::buildSchedule(kind, stages, mb, minis), {}};

    cp::CompactionPlan &plan = job.plan;
    for (const auto &stage : job.part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            auto k = static_cast<cp::Kind>(rng.nextBounded(4));
            if (k != cp::Kind::None)
                plan.activations[{stage.index, static_cast<int>(l)}] =
                    k;
        }
    }
    for (int g = 0; g < stages; ++g) {
        for (int nbh : topo.nvlinkNeighbors(g)) {
            if (rng.nextBounded(2)) {
                plan.spareGrants[g].push_back(
                    {nbh,
                     static_cast<mu::Bytes>(rng.nextBounded(4) + 1) *
                         mu::kGB});
            }
        }
    }
    plan.offloadOptState.resize(static_cast<std::size_t>(stages));
    for (int s = 0; s < stages; ++s)
        plan.offloadOptState[static_cast<std::size_t>(s)] =
            rng.nextBounded(2) != 0;
    return job;
}

} // namespace

class ExecutorFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(ExecutorFuzz, ConservationHoldsUnderRandomPlans)
{
    mu::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) + 300);
    auto topo = hw::Topology::dgx1V100();
    auto model_cfg = mm::presetByName("bert-0.35b");

    for (int round = 0; round < 8; ++round) {
        FuzzJob job = randomJob(rng, topo, model_cfg);
        const auto &part = job.part;
        const auto &sched = job.sched;
        const auto &plan = job.plan;
        auto report = rt::runTraining(topo, job.mdl, part, sched, plan);

        if (report.oom)
            continue;  // random plans may legitimately overload

        // Conservation: at the end only static state remains.
        for (const auto &stage : part.stages) {
            int versions = sched.weightVersions(stage.index);
            mu::Bytes expect = stage.paramBytes * versions +
                               stage.gradBytes;
            if (!plan.offloadOptState[static_cast<std::size_t>(
                    stage.index)])
                expect += stage.optStateBytes;
            EXPECT_EQ(report
                          .gpus[static_cast<std::size_t>(
                              stage.index)]
                          .finalUsed,
                      expect)
                << "round " << round << " stage " << stage.index;
        }
        EXPECT_GT(report.samplesPerSec, 0.0);
        EXPECT_GT(report.makespan, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorFuzz,
                         ::testing::Values(1, 2, 3, 4));

/** The verifier's capacity rules against the analyzer and the DES on
 *  ExecutorFuzz's generator, on models large enough that many random
 *  plans overflow. */
class CapacityFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(CapacityFuzz, StageOverflowIsTheProvedOverflow)
{
    auto topo = hw::Topology::dgx1V100();
    for (const char *preset : {"bert-4.0b", "bert-6.2b"}) {
        mu::SplitMix64 rng(static_cast<std::uint64_t>(GetParam()) +
                           300);
        auto model_cfg = mm::presetByName(preset);
        for (int round = 0; round < 8; ++round) {
            FuzzJob job = randomJob(rng, topo, model_cfg);
            auto verdict = vf::verifyPlan(topo, job.mdl, job.part,
                                          job.sched, job.plan);
            auto cert = an::analyzePlan(topo, job.mdl, job.part,
                                        job.sched, job.plan);
            auto report = rt::runTraining(topo, job.mdl, job.part,
                                          job.sched, job.plan);
            const std::string what = std::string(preset) + " round " +
                                     std::to_string(round);
            ASSERT_TRUE(cert.valid) << what;

            const bool flagged =
                verdict.hasRule(vf::Rule::CapStageOverflow);
            EXPECT_EQ(flagged, cert.provableOom) << what;
            if (flagged) {
                EXPECT_TRUE(report.oom) << what;
            }
            if (report.oom)
                continue;
            for (std::size_t g = 0; g < cert.gpus.size(); ++g) {
                EXPECT_LE(cert.gpus[g].lower, report.gpus[g].peak)
                    << what << " gpu " << g;
                EXPECT_GE(cert.gpus[g].upper, report.gpus[g].peak)
                    << what << " gpu " << g;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CapacityFuzz,
                         ::testing::Values(1, 2, 3, 4));
