/**
 * @file
 * Soundness property tests for the static plan analyzer
 * (src/analysis/): over the scenario corpus, every certificate's
 * memory interval must bracket the DES-observed peak, the latency
 * lower bound must not exceed the DES makespan, and the throughput
 * upper bound must not undercut the DES rate.  Also checks the
 * certificate the planner attaches to every PlanResult.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "compaction/serialize.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/planner.hh"
#include "runtime/executor.hh"

namespace an = mpress::analysis;
namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace mu = mpress::util;

namespace {

/** One corpus job bound to a topology. */
struct AnalysisJob
{
    hw::Topology topo;
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;

    AnalysisJob(hw::Topology t, const std::string &preset, int mb,
                pl::SystemKind sys = pl::SystemKind::PipeDream)
        : topo(std::move(t)), mdl(mm::presetByName(preset), mb),
          part(mp::partitionModel(mdl, topo.numGpus(),
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildSchedule(sys, topo.numGpus(), 8, 2))
    {}

    an::AnalysisCertificate
    analyze(const cp::CompactionPlan &plan) const
    {
        return an::analyzePlan(topo, mdl, part, sched, plan);
    }

    /** Profiling run (OOM-tolerant): allocations never block, so the
     *  reported peaks measure true demand past capacity — but the
     *  oom flag never trips. */
    rt::TrainingReport
    runProfile(const cp::CompactionPlan &plan) const
    {
        rt::ExecutorConfig cfg;
        cfg.failFastOnOom = false;
        return rt::runTraining(topo, mdl, part, sched, plan, cfg);
    }

    /** Scoring run (default fail-fast): the oom flag is meaningful
     *  and non-OOM reports carry real makespan/throughput. */
    rt::TrainingReport
    runScoring(const cp::CompactionPlan &plan) const
    {
        return rt::runTraining(topo, mdl, part, sched, plan, {});
    }
};

/** Check the full soundness contract of @p cert against a profiling
 *  run (true-demand peaks) and a fail-fast scoring run (OOM flag,
 *  real makespan/throughput) of the same tuple. */
void
expectSound(const an::AnalysisCertificate &cert,
            const rt::TrainingReport &profile,
            const rt::TrainingReport &scoring,
            const std::string &what)
{
    ASSERT_TRUE(cert.valid) << what;
    ASSERT_EQ(cert.gpus.size(), profile.gpus.size()) << what;
    for (std::size_t g = 0; g < cert.gpus.size(); ++g) {
        const an::GpuMemoryBound &b = cert.gpus[g];
        mu::Bytes peak = profile.gpus[g].peak;
        EXPECT_GE(b.upper, peak)
            << what << ": upper bound under observed peak on gpu "
            << g;
        EXPECT_LE(b.lower, peak)
            << what << ": lower bound over observed peak on gpu "
            << g;
    }
    // A proved overflow must be matched by an actual OOM.
    if (cert.provableOom) {
        EXPECT_TRUE(scoring.oom) << what << ": proved OOM but the"
                                 << " emulated run completed";
    }
    // provablyFits means no run can OOM.
    if (cert.provablyFits) {
        EXPECT_FALSE(scoring.oom) << what;
    }
    if (!scoring.oom) {
        EXPECT_LE(cert.latencyLowerBound, scoring.makespan)
            << what << ": latency bound over observed makespan";
        if (std::isfinite(cert.throughputUpperBound)) {
            EXPECT_GE(cert.throughputUpperBound,
                      scoring.samplesPerSec)
                << what << ": throughput bound under observed rate";
        }
    }
}

/** Corpus plans for one job: baselines plus the planner's output. */
std::vector<std::pair<std::string, cp::CompactionPlan>>
corpusPlans(const AnalysisJob &job)
{
    std::vector<std::pair<std::string, cp::CompactionPlan>> plans;
    plans.emplace_back("empty", cp::CompactionPlan{});
    plans.emplace_back("recompute-all",
                       pn::recomputeAllPlan(job.part));
    plans.emplace_back("gpu-cpu-swap-all",
                       pn::gpuCpuSwapAllPlan(job.part));
    auto planned = pn::planMPress(job.topo, job.mdl, job.part,
                                  job.sched);
    plans.emplace_back("mpress-planned", planned.plan);
    return plans;
}

} // namespace

TEST(AnalysisSoundness, BoundsBracketDesAcrossCorpus)
{
    struct Case
    {
        const char *topo;
        const char *preset;
        int mb;
    };
    // 0.35B Bert .. 25.5B GPT, both server generations.
    const Case cases[] = {
        {"dgx1", "bert-0.35b", 4},  {"dgx1", "bert-0.64b", 12},
        {"dgx1", "bert-1.67b", 12}, {"dgx1", "bert-6.2b", 12},
        {"dgx2", "gpt-5.3b", 8},    {"dgx2", "gpt-25.5b", 8},
    };
    for (const Case &c : cases) {
        AnalysisJob job(std::string(c.topo) == "dgx1"
                            ? hw::Topology::dgx1V100()
                            : hw::Topology::dgx2A100(),
                        c.preset, c.mb);
        for (const auto &[name, plan] : corpusPlans(job)) {
            std::string what = std::string(c.topo) + "/" + c.preset +
                               "/" + name;
            expectSound(job.analyze(plan), job.runProfile(plan),
                        job.runScoring(plan), what);
        }
    }
}

TEST(AnalysisSoundness, HoldsAcrossScheduleSystems)
{
    for (pl::SystemKind sys :
         {pl::SystemKind::PipeDream, pl::SystemKind::Dapple,
          pl::SystemKind::Gpipe}) {
        AnalysisJob job(hw::Topology::dgx1V100(), "bert-1.67b", 12,
                        sys);
        for (const auto &[name, plan] : corpusPlans(job)) {
            std::string what = std::string(pl::systemKindName(sys)) +
                               "/" + name;
            expectSound(job.analyze(plan), job.runProfile(plan),
                        job.runScoring(plan), what);
        }
    }
}

TEST(AnalysisCertificate, ProvesOomForHugeUncompactedModel)
{
    AnalysisJob job(hw::Topology::dgx1V100(), "gpt-25.5b", 8);
    an::AnalysisCertificate cert = job.analyze({});
    ASSERT_TRUE(cert.valid);
    EXPECT_TRUE(cert.provableOom);
    EXPECT_GE(cert.oomGpu, 0);
    EXPECT_FALSE(cert.provablyFits);
    // The fail-fast DES run agrees.
    EXPECT_TRUE(job.runScoring({}).oom);
}

TEST(AnalysisCertificate, SmallModelIsNotProvedToOverflow)
{
    AnalysisJob job(hw::Topology::dgx1V100(), "bert-0.35b", 4);
    an::AnalysisCertificate cert = job.analyze({});
    ASSERT_TRUE(cert.valid);
    EXPECT_FALSE(cert.provableOom);
    EXPECT_FALSE(job.runScoring({}).oom);
}

TEST(AnalysisCertificate, InvalidOnBrokenMapping)
{
    AnalysisJob job(hw::Topology::dgx1V100(), "bert-0.35b", 4);
    cp::CompactionPlan plan;
    plan.stageToGpu.assign(
        static_cast<std::size_t>(job.part.numStages()), 0);
    plan.stageToGpu.back() = 99;  // no such GPU
    an::AnalysisCertificate cert = job.analyze(plan);
    EXPECT_FALSE(cert.valid);
}

TEST(AnalysisCertificate, InvalidOnStageCountMismatch)
{
    AnalysisJob job(hw::Topology::dgx1V100(), "bert-0.35b", 4);
    pl::Schedule wrong = pl::buildSchedule(
        pl::SystemKind::PipeDream, job.topo.numGpus() - 1, 8, 2);
    an::AnalysisCertificate cert = an::analyzePlan(
        job.topo, job.mdl, job.part, wrong, {});
    EXPECT_FALSE(cert.valid);
}

TEST(AnalysisCertificate, RenderAndSummaryAreStable)
{
    AnalysisJob job(hw::Topology::dgx1V100(), "bert-0.35b", 4);
    an::AnalysisCertificate cert = job.analyze({});
    std::string text = cert.render();
    EXPECT_NE(text.find("analysis:"), std::string::npos);
    EXPECT_NE(text.find("gpu0"), std::string::npos);
    EXPECT_FALSE(cert.summary().empty());
    // Pure function: same tuple, same certificate text.
    EXPECT_EQ(text, job.analyze({}).render());
}

TEST(AnalysisCertificate, DeterministicAcrossRepeats)
{
    AnalysisJob job(hw::Topology::dgx1V100(), "bert-1.67b", 12);
    auto plan = pn::recomputeAllPlan(job.part);
    an::AnalysisCertificate a = job.analyze(plan);
    an::AnalysisCertificate b = job.analyze(plan);
    ASSERT_EQ(a.gpus.size(), b.gpus.size());
    for (std::size_t g = 0; g < a.gpus.size(); ++g) {
        EXPECT_EQ(a.gpus[g].lower, b.gpus[g].lower);
        EXPECT_EQ(a.gpus[g].upper, b.gpus[g].upper);
    }
    EXPECT_EQ(a.latencyLowerBound, b.latencyLowerBound);
    EXPECT_EQ(a.throughputUpperBound, b.throughputUpperBound);
}

TEST(AnalysisCertificate, PlannerAttachesCertificate)
{
    AnalysisJob job(hw::Topology::dgx1V100(), "bert-1.67b", 12);
    auto result = pn::planMPress(job.topo, job.mdl, job.part,
                                 job.sched);
    ASSERT_TRUE(result.feasible);
    ASSERT_TRUE(result.certificate.valid);
    // The certificate covers the plan that ran: its upper bound
    // brackets the final report's observed peaks.
    ASSERT_EQ(result.certificate.gpus.size(),
              result.finalReport.gpus.size());
    for (std::size_t g = 0; g < result.certificate.gpus.size(); ++g) {
        EXPECT_GE(result.certificate.gpus[g].upper,
                  result.finalReport.gpus[g].peak);
    }
    EXPECT_FALSE(result.certificate.provableOom);
    // An empty-plan result carries one too.
    AnalysisJob small(hw::Topology::dgx1V100(), "bert-0.35b", 4);
    auto empty = pn::planMPress(small.topo, small.mdl, small.part,
                                small.sched);
    EXPECT_TRUE(empty.plan.empty());
    EXPECT_TRUE(empty.certificate.valid);
}
