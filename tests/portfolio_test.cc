/**
 * @file
 * Tests for the anytime portfolio race (planner/portfolio.*): the
 * determinism matrix — the serialized plan must be byte-identical
 * across thread counts, deadline settings that never fire and trial
 * cache on/off — plus the anytime contract (an immediately-expiring
 * deadline still returns a verified feasible plan) and the race
 * accounting surfaced through PlanResult::strategyStats.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compaction/serialize.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/planner.hh"

namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;

namespace {

struct Job
{
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;

    explicit Job(const std::string &preset, int minibatches = 24)
        : mdl(mm::presetByName(preset), 12),
          part(mp::partitionModel(mdl, 8,
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildSchedule(pl::SystemKind::PipeDream, 8, 1,
                                  minibatches))
    {}
};

pn::PlanResult
planPortfolio(const Job &job, int threads, double deadline_ms,
              bool trial_cache)
{
    pn::PlannerConfig cfg;
    cfg.portfolio = true;
    cfg.threads = threads;
    cfg.deadlineMs = deadline_ms;
    cfg.trialCache = trial_cache;
    return pn::planMPress(job.topo, job.mdl, job.part, job.sched,
                          cfg);
}

} // namespace

TEST(Portfolio, PlanIdenticalAcrossThreadsDeadlineAndCache)
{
    // The race's core contract: thread count, a deadline generous
    // enough to never fire, and the trial cache are wall-clock knobs
    // only.  Every cell of the matrix must produce the same bytes.
    Job job("bert-1.67b");
    const double kGenerousMs = 600000.0;  // ten minutes: never fires

    auto reference = planPortfolio(job, 1, 0.0, true);
    ASSERT_TRUE(reference.feasible);
    auto ref_text = cp::planToText(reference.plan);

    for (int threads : {1, 2, 4}) {
        for (double deadline : {0.0, kGenerousMs}) {
            for (bool cache : {true, false}) {
                auto r =
                    planPortfolio(job, threads, deadline, cache);
                EXPECT_TRUE(r.feasible);
                EXPECT_EQ(cp::planToText(r.plan), ref_text)
                    << "threads=" << threads
                    << " deadline=" << deadline
                    << " cache=" << cache;
                EXPECT_EQ(r.winnerStrategy,
                          reference.winnerStrategy);
                EXPECT_EQ(r.finalReport.samplesPerSec,
                          reference.finalReport.samplesPerSec);
            }
        }
    }
}

TEST(Portfolio, ExpiredDeadlineStillReturnsVerifiedPlan)
{
    // An effectively-zero budget kills the race before any strategy
    // finishes a round.  Anytime contract: the planner still returns
    // the verified seed plan, never an unfinished trial.
    Job job("bert-1.67b");
    auto r = planPortfolio(job, 1, 1e-6, true);
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.verification.ok());
    EXPECT_FALSE(r.plan.empty());
    EXPECT_GE(r.winnerStrategy, 0);
    EXPECT_GT(r.finalReport.samplesPerSec, 0.0);
    // The full race can only match or improve the cut-off run.
    auto full = planPortfolio(job, 1, 0.0, true);
    EXPECT_GE(full.finalReport.samplesPerSec,
              r.finalReport.samplesPerSec);
}

TEST(Portfolio, MatchesOrBeatsTheGreedyLadder)
{
    // Strategy 0 of the race IS the greedy ladder, so the fixed
    // winner rule can only pick something at least as good.
    Job job("bert-1.67b");
    pn::PlannerConfig greedy_cfg;
    auto greedy = pn::planMPress(job.topo, job.mdl, job.part,
                                 job.sched, greedy_cfg);
    auto race = planPortfolio(job, 1, 0.0, true);
    ASSERT_TRUE(greedy.feasible);
    ASSERT_TRUE(race.feasible);
    EXPECT_GE(race.finalReport.samplesPerSec,
              greedy.finalReport.samplesPerSec);
}

TEST(Portfolio, StrategyStatsAccountForTheRace)
{
    Job job("bert-1.67b");
    auto r = planPortfolio(job, 1, 0.0, true);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(r.strategyStats.size(), 3u);
    EXPECT_EQ(r.strategyStats[0].name, "greedy-wavefront");
    EXPECT_EQ(r.strategyStats[1].name, "simulated-anneal");
    EXPECT_EQ(r.strategyStats[2].name, "best-first");
    ASSERT_GE(r.winnerStrategy, 0);
    ASSERT_LT(r.winnerStrategy, 3);

    std::uint64_t proposed = 0;
    for (const auto &st : r.strategyStats)
        proposed += st.proposed;
    EXPECT_GT(proposed, 0u);

    // The winner's recorded best score is the final report's score,
    // and no strategy claims a better verified score than the
    // winner.
    const auto &win =
        r.strategyStats[static_cast<std::size_t>(r.winnerStrategy)];
    EXPECT_DOUBLE_EQ(win.bestScore,
                     r.finalReport.samplesPerSec);
    for (const auto &st : r.strategyStats)
        EXPECT_LE(st.bestScore, win.bestScore);
}

TEST(Portfolio, OffByDefaultRunsGreedyOnly)
{
    Job job("bert-1.67b");
    pn::PlannerConfig cfg;
    auto r = pn::planMPress(job.topo, job.mdl, job.part, job.sched,
                            cfg);
    ASSERT_TRUE(r.feasible);
    ASSERT_EQ(r.strategyStats.size(), 1u);
    EXPECT_EQ(r.strategyStats[0].name, "greedy-wavefront");
    EXPECT_EQ(r.winnerStrategy, 0);
}

TEST(Portfolio, NonPositiveDeadlineMeansNoDeadline)
{
    // Both 0 and negative deadlines disable the budget — the serve
    // layer forwards request deadlineMs verbatim, so a client
    // sending -1 must get the full (deadline-free) plan, not an
    // instantly-expired race.
    Job job("bert-1.67b");
    auto none = planPortfolio(job, 1, 0.0, true);
    auto negative = planPortfolio(job, 1, -1.0, true);
    ASSERT_TRUE(none.feasible);
    ASSERT_TRUE(negative.feasible);
    EXPECT_EQ(cp::planToText(negative.plan),
              cp::planToText(none.plan));
    EXPECT_EQ(negative.winnerStrategy, none.winnerStrategy);
    EXPECT_EQ(negative.finalReport.samplesPerSec,
              none.finalReport.samplesPerSec);
    EXPECT_EQ(negative.iterations, none.iterations);
}

TEST(Portfolio, DeadlineAppliesWithoutPortfolioRace)
{
    // deadlineMs is honored by the greedy-only path too (the race
    // wrapper runs with a single strategy): a tiny budget still
    // yields a verified feasible plan, and the untimed run can only
    // match or beat it.
    Job job("bert-1.67b");
    pn::PlannerConfig cfg;
    cfg.deadlineMs = 1e-6;  // expires immediately
    ASSERT_FALSE(cfg.portfolio);
    auto cut = pn::planMPress(job.topo, job.mdl, job.part, job.sched,
                              cfg);
    EXPECT_TRUE(cut.feasible);
    EXPECT_TRUE(cut.verification.ok());
    EXPECT_FALSE(cut.plan.empty());
    EXPECT_GT(cut.finalReport.samplesPerSec, 0.0);

    pn::PlannerConfig untimed;
    auto full = pn::planMPress(job.topo, job.mdl, job.part,
                               job.sched, untimed);
    EXPECT_GE(full.finalReport.samplesPerSec,
              cut.finalReport.samplesPerSec);
}
