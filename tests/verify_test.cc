/**
 * @file
 * Tests for the static plan/schedule verifier: every rule in the
 * catalog is exercised with a fixture that passes it and a
 * deliberately corrupted fixture that trips it.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analyzer.hh"
#include "compaction/plan.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "runtime/executor.hh"
#include "verify/verify.hh"

namespace an = mpress::analysis;
namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace rt = mpress::runtime;
namespace mu = mpress::util;
namespace vf = mpress::verify;

using vf::Rule;

namespace {

/** A small, valid job: verification must pass without errors. */
struct VerifyJob
{
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;
    cp::CompactionPlan plan;  ///< empty by default

    explicit VerifyJob(const std::string &preset = "bert-0.35b",
                       int mb = 4)
        : mdl(mm::presetByName(preset), mb),
          part(mp::partitionModel(mdl, 8,
                                  mp::Strategy::ComputeBalanced)),
          sched(pl::buildSchedule(pl::SystemKind::PipeDream, 8, 8, 2))
    {}

    vf::Report
    verify(vf::Options opts = {}) const
    {
        return vf::verifyPlan(topo, mdl, part, sched, plan, opts);
    }
};

/** A job whose model stashes zero activation bytes per layer
 *  (degenerate sequence length), for the empty-class rule. */
struct ZeroStashJob
{
    hw::Topology topo = hw::Topology::dgx1V100();
    mm::TransformerModel mdl;
    mp::Partition part;
    pl::Schedule sched;
    cp::CompactionPlan plan;

    ZeroStashJob()
        : mdl(
              []
              {
                  mm::ModelConfig cfg;
                  cfg.name = "zero-stash";
                  cfg.numBlocks = 2;
                  cfg.hidden = 64;
                  cfg.heads = 4;
                  cfg.seqLen = 0;  // stash formulas all scale with s
                  cfg.vocab = 1000;
                  return cfg;
              }(),
              2)
    {
        // Two stages over the 4 layers (emb, block0, block1, head).
        part.stages.resize(2);
        part.stages[0].index = 0;
        part.stages[0].firstLayer = 0;
        part.stages[0].lastLayer = 1;
        part.stages[1].index = 1;
        part.stages[1].firstLayer = 2;
        part.stages[1].lastLayer = 3;
        sched = pl::buildSchedule(pl::SystemKind::PipeDream, 2, 2, 1);
    }
};

} // namespace

TEST(VerifyReport, SeverityAndRuleNames)
{
    EXPECT_STREQ(vf::severityName(vf::Severity::Error), "error");
    EXPECT_STREQ(vf::severityName(vf::Severity::Warning), "warning");
    EXPECT_STREQ(vf::ruleName(Rule::SchedCycle), "sched-cycle");
    EXPECT_STREQ(vf::ruleName(Rule::D2dOvercommit), "d2d-overcommit");
    EXPECT_STREQ(vf::ruleName(Rule::CfgStashSync), "cfg-stash-sync");
    EXPECT_EQ(vf::defaultSeverity(Rule::SchedCycle),
              vf::Severity::Error);
    EXPECT_EQ(vf::defaultSeverity(Rule::MapDuplicate),
              vf::Severity::Warning);
}

TEST(VerifyReport, CountsQueriesAndRendering)
{
    vf::Report report;
    EXPECT_TRUE(report.ok());
    EXPECT_TRUE(report.clean());

    vf::Diagnostic d;
    d.severity = vf::Severity::Warning;
    d.rule = Rule::D2dNoGrant;
    d.stage = 3;
    d.message = "msg";
    d.hint = "hint";
    report.add(d);
    EXPECT_TRUE(report.ok());
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.warningCount(), 1);
    ASSERT_TRUE(report.hasRule(Rule::D2dNoGrant));
    EXPECT_EQ(report.findRule(Rule::D2dNoGrant)->stage, 3);

    d.severity = vf::Severity::Error;
    d.rule = Rule::SchedCycle;
    report.add(d);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.errorCount(), 1);
    EXPECT_EQ(report.summary(), "1 error, 1 warning");
    auto text = report.render();
    EXPECT_NE(text.find("sched-cycle"), std::string::npos);
    EXPECT_NE(text.find("d2d-no-grant"), std::string::npos);
}

TEST(VerifyReport, PerRuleCapSuppresses)
{
    vf::Report report;
    report.setPerRuleCap(2);
    vf::Diagnostic d;
    d.rule = Rule::SwapUnknownTensor;
    for (int i = 0; i < 5; ++i)
        report.add(d);
    EXPECT_EQ(report.errorCount(), 2);
    EXPECT_EQ(report.suppressedCount(), 3);
    EXPECT_NE(report.summary().find("+3 suppressed"),
              std::string::npos);
}

TEST(Verify, ValidJobPassesWithoutErrors)
{
    VerifyJob job;
    auto report = job.verify();
    EXPECT_TRUE(report.ok()) << report.render();
    EXPECT_EQ(report.errorCount(), 0);
}

TEST(Verify, BuiltSchedulesVerifyCleanly)
{
    for (auto sys : {pl::SystemKind::PipeDream,
                     pl::SystemKind::Dapple, pl::SystemKind::Gpipe}) {
        auto sched = pl::buildSchedule(sys, 8, 8, 2);
        auto report = vf::verifySchedule(sched);
        EXPECT_TRUE(report.clean())
            << pl::systemKindName(sys) << ":\n"
            << report.render();
    }
}

TEST(VerifyRule, SchedShape)
{
    VerifyJob job;
    EXPECT_FALSE(job.verify().hasRule(Rule::SchedShape));

    // Drop one order list: counts no longer match the stage count.
    job.sched.perStageOrder.pop_back();
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::SchedShape));
    EXPECT_FALSE(report.ok());

    // A task ordered twice is also a shape violation.
    VerifyJob dup;
    dup.sched.perStageOrder[0].push_back(
        dup.sched.perStageOrder[0].front());
    EXPECT_TRUE(dup.verify().hasRule(Rule::SchedShape));
}

TEST(VerifyRule, SchedMissingTask)
{
    VerifyJob job;
    EXPECT_FALSE(job.verify().hasRule(Rule::SchedMissingTask));

    // Erase a backward by retyping it: (stage 3, mb 0) loses its bwd.
    int id = job.sched.bwdId(3, 0);
    ASSERT_GE(id, 0);
    job.sched.tasks[static_cast<std::size_t>(id)].kind =
        pl::TaskKind::OptimStep;
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::SchedMissingTask));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, SchedMissingDep)
{
    VerifyJob job;
    EXPECT_FALSE(job.verify().hasRule(Rule::SchedMissingDep));

    int id = job.sched.fwdId(4, 0);
    ASSERT_GE(id, 0);
    job.sched.tasks[static_cast<std::size_t>(id)].deps.clear();
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::SchedMissingDep));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, SchedDepRange)
{
    VerifyJob job;
    EXPECT_FALSE(job.verify().hasRule(Rule::SchedDepRange));

    job.sched.tasks[0].deps.push_back(99999);
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::SchedDepRange));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, SchedCycle)
{
    VerifyJob job;
    EXPECT_FALSE(job.verify().hasRule(Rule::SchedCycle));

    // fwd(0,0) reaches bwd(0,0) through the pipeline; closing the
    // loop makes the DAG cyclic.
    int fwd = job.sched.fwdId(0, 0);
    int bwd = job.sched.bwdId(0, 0);
    ASSERT_GE(fwd, 0);
    ASSERT_GE(bwd, 0);
    job.sched.tasks[static_cast<std::size_t>(fwd)].deps.push_back(bwd);
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::SchedCycle));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, SchedOrderHazard)
{
    VerifyJob job;
    EXPECT_FALSE(job.verify().hasRule(Rule::SchedOrderHazard));

    // Swap fwd(7,0) and bwd(7,0) in stage 7's run queue: the backward
    // would consume a stash nothing has produced.
    auto &order = job.sched.perStageOrder[7];
    auto fwd_it = std::find(order.begin(), order.end(),
                            job.sched.fwdId(7, 0));
    auto bwd_it = std::find(order.begin(), order.end(),
                            job.sched.bwdId(7, 0));
    ASSERT_NE(fwd_it, order.end());
    ASSERT_NE(bwd_it, order.end());
    std::iter_swap(fwd_it, bwd_it);
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::SchedOrderHazard));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, SchedFabricPath)
{
    // On the symmetric DGX-2 every pair is NVLink-reachable.
    VerifyJob sym;
    sym.topo = hw::Topology::dgx2A100();
    EXPECT_FALSE(sym.verify().hasRule(Rule::SchedFabricPath));

    // GPUs 0 and 5 share no NVLink on the DGX-1 cube-mesh; mapping
    // consecutive stages there bounces every hand-off through host.
    VerifyJob job;
    job.plan.stageToGpu = {0, 5, 1, 2, 3, 4, 6, 7};
    auto report = job.verify();
    ASSERT_TRUE(report.hasRule(Rule::SchedFabricPath));
    EXPECT_EQ(report.findRule(Rule::SchedFabricPath)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, MapShape)
{
    VerifyJob job;
    EXPECT_FALSE(job.verify().hasRule(Rule::MapShape));

    job.plan.stageToGpu = {0, 1, 2};  // 3 entries for 8 stages
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::MapShape));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, MapDeviceRange)
{
    VerifyJob job;
    job.plan.stageToGpu = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_FALSE(job.verify().hasRule(Rule::MapDeviceRange));

    job.plan.stageToGpu[0] = 42;
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::MapDeviceRange));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, MapDuplicate)
{
    VerifyJob job;
    job.plan.stageToGpu = {0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_FALSE(job.verify().hasRule(Rule::MapDuplicate));

    // Interleaving two stages on one GPU is legal, hence a warning.
    job.plan.stageToGpu = {0, 0, 1, 2, 3, 4, 5, 6};
    auto report = job.verify();
    ASSERT_TRUE(report.hasRule(Rule::MapDuplicate));
    EXPECT_EQ(report.findRule(Rule::MapDuplicate)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, CapStageOverflow)
{
    VerifyJob small;
    EXPECT_FALSE(small.verify().hasRule(Rule::CapStageOverflow));

    // Bert-1.67B at microbatch 12 cannot fit uncompacted (Fig. 7).
    VerifyJob big("bert-1.67b", 12);
    auto report = big.verify();
    ASSERT_TRUE(report.hasRule(Rule::CapStageOverflow));
    EXPECT_FALSE(report.ok());
    EXPECT_GE(report.findRule(Rule::CapStageOverflow)->gpu, 0);

    // The same job with every class D2D-swapped but each GPU granted
    // only 64 MiB by its lowest NVLink neighbour: the grants cover a
    // sliver of the stash, so the unfunded rest stays resident and
    // the overflow is proved, and the run does OOM.
    VerifyJob starved("bert-1.67b", 12);
    for (const auto &stage : starved.part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            starved.plan.activations[{stage.index,
                                      static_cast<int>(l)}] =
                cp::Kind::D2dSwap;
        }
    }
    for (int g = 0; g < starved.topo.numGpus(); ++g) {
        starved.plan.spareGrants[g] = {
            {starved.topo.nvlinkNeighbors(g).front(), 64 * mu::kMiB}};
    }
    report = starved.verify();
    ASSERT_TRUE(report.hasRule(Rule::CapStageOverflow))
        << report.render();
    EXPECT_EQ(report.findRule(Rule::CapStageOverflow)->severity,
              vf::Severity::Error);
    EXPECT_TRUE(rt::runTraining(starved.topo, starved.mdl, starved.part,
                                starved.sched, starved.plan)
                    .oom);

    // GPT-25.5B uncompacted: the peak lower bound alone exceeds
    // capacity, with or without the analysis rules.
    VerifyJob huge("gpt-25.5b", 8);
    for (bool analysis : {false, true}) {
        vf::Options opts;
        opts.analysis = analysis;
        report = huge.verify(opts);
        ASSERT_TRUE(report.hasRule(Rule::CapStageOverflow));
        EXPECT_EQ(report.findRule(Rule::CapStageOverflow)->severity,
                  vf::Severity::Error);
        EXPECT_GE(report.findRule(Rule::CapStageOverflow)->gpu, 0);
    }

    // Two stages on one GPU: one finding for that GPU, naming its
    // first stage.
    big.plan.stageToGpu = {0, 0, 1, 2, 3, 4, 5, 6};
    report = big.verify();
    int on_gpu0 = 0;
    for (const auto &d : report.diagnostics()) {
        if (d.rule == Rule::CapStageOverflow && d.gpu == 0) {
            ++on_gpu0;
            EXPECT_EQ(d.stage, 0);
        }
    }
    EXPECT_EQ(on_gpu0, 1);
}

TEST(VerifyRule, CapHostOverflow)
{
    // Offloading everything fits the DGX-1's 768 GB host pool...
    VerifyJob job;
    job.plan.offloadOptState.assign(8, true);
    EXPECT_FALSE(job.verify().hasRule(Rule::CapHostOverflow));

    // ...but not a 1 GiB one.
    job.topo.setHostMemory(mu::kGiB);
    auto report = job.verify();
    ASSERT_TRUE(report.hasRule(Rule::CapHostOverflow));
    EXPECT_EQ(report.findRule(Rule::CapHostOverflow)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, CapUnproven)
{
    vf::Options opts;
    opts.analysis = true;

    // A comfortably fitting job triggers neither capacity rule.
    VerifyJob small;
    auto clean = small.verify(opts);
    EXPECT_FALSE(clean.hasRule(Rule::CapUnproven));
    EXPECT_FALSE(clean.hasRule(Rule::CapStageOverflow));

    // Bert-1.67B swap-everything: the hazard-widened upper bound
    // straddles capacity while the lower bound stays under it —
    // unproven, a warning.
    VerifyJob big("bert-1.67b", 12);
    for (const auto &stage : big.part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            big.plan.activations[{stage.index,
                                  static_cast<int>(l)}] =
                cp::Kind::GpuCpuSwap;
        }
    }
    big.plan.offloadOptState.assign(8, true);
    auto report = big.verify(opts);
    if (report.hasRule(Rule::CapUnproven)) {
        EXPECT_EQ(report.findRule(Rule::CapUnproven)->severity,
                  vf::Severity::Warning);
    } else {
        // If the bound tightened enough to prove the overflow
        // instead, that rule must carry the verdict.
        EXPECT_TRUE(report.hasRule(Rule::CapStageOverflow));
    }
}

TEST(VerifyRule, D2dSelfGrant)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};
    job.plan.activations[{0, 0}] = cp::Kind::D2dSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dSelfGrant));

    job.plan.spareGrants[0] = {{0, mu::kGiB}};
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::D2dSelfGrant));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, D2dGrantRange)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};
    job.plan.activations[{0, 0}] = cp::Kind::D2dSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dGrantRange));

    job.plan.spareGrants[0] = {{99, mu::kGiB}};
    EXPECT_TRUE(job.verify().hasRule(Rule::D2dGrantRange));

    job.plan.spareGrants[0] = {{4, -mu::kGiB}};
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::D2dGrantRange));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, D2dUnreachable)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};  // 0-4 are linked
    job.plan.activations[{0, 0}] = cp::Kind::D2dSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dUnreachable));

    job.plan.spareGrants[0] = {{5, mu::kGiB}};  // 0-5 are not
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::D2dUnreachable));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, D2dOvercommit)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};
    job.plan.activations[{0, 0}] = cp::Kind::D2dSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dOvercommit));

    // Granting far more than the importer's spare.
    job.plan.spareGrants[0] = {{4, 500 * mu::kGB}};
    auto report = job.verify();
    ASSERT_TRUE(report.hasRule(Rule::D2dOvercommit));
    EXPECT_EQ(report.findRule(Rule::D2dOvercommit)->severity,
              vf::Severity::Warning);

    // The spare is usable capacity minus the importer's peak lower
    // bound: a grant of exactly that fits and one byte more does not,
    // although GPU-CPU swap widens the importer's upper bound.
    const auto &importer = job.part.stages[4];
    for (std::size_t l = importer.firstLayer; l <= importer.lastLayer;
         ++l)
        job.plan.activations[{4, static_cast<int>(l)}] =
            cp::Kind::GpuCpuSwap;
    auto bounds = an::boundMemory(job.topo, job.mdl, job.part,
                                  job.sched, job.plan);
    ASSERT_GT(bounds.gpus[4].upper, bounds.gpus[4].lower);
    const mu::Bytes spare = bounds.usableCapacity - bounds.gpus[4].lower;
    job.plan.spareGrants[0] = {{4, spare}};
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dOvercommit));
    job.plan.spareGrants[0] = {{4, spare + 1}};
    EXPECT_TRUE(job.verify().hasRule(Rule::D2dOvercommit));
}

TEST(VerifyRule, D2dGrantCycle)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};
    job.plan.activations[{0, 0}] = cp::Kind::D2dSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dGrantCycle));

    // 0 exports to 4 while 4 exports to 0: pressure shuffles in a
    // loop.  Both GPUs also evict via D2D so neither grant is dead.
    job.plan.spareGrants[4] = {{0, mu::kGiB}};
    job.plan.activations[{4, 0}] = cp::Kind::D2dSwap;
    auto report = job.verify();
    ASSERT_TRUE(report.hasRule(Rule::D2dGrantCycle));
    EXPECT_EQ(report.findRule(Rule::D2dGrantCycle)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, D2dOrphanGrant)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};
    job.plan.activations[{0, 0}] = cp::Kind::D2dSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dOrphanGrant));

    job.plan.activations.clear();  // grants now fund nothing
    auto report = job.verify();
    ASSERT_TRUE(report.hasRule(Rule::D2dOrphanGrant));
    EXPECT_EQ(report.findRule(Rule::D2dOrphanGrant)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, D2dNoGrant)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};
    job.plan.activations[{0, 0}] = cp::Kind::D2dSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::D2dNoGrant));

    job.plan.spareGrants.clear();  // class has nothing to draw on
    auto report = job.verify();
    ASSERT_TRUE(report.hasRule(Rule::D2dNoGrant));
    EXPECT_EQ(report.findRule(Rule::D2dNoGrant)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, SwapUnknownTensor)
{
    VerifyJob job;
    job.plan.activations[{0, 0}] = cp::Kind::Recompute;
    EXPECT_FALSE(job.verify().hasRule(Rule::SwapUnknownTensor));

    job.plan.activations[{9, 0}] = cp::Kind::GpuCpuSwap;
    EXPECT_TRUE(job.verify().hasRule(Rule::SwapUnknownTensor));

    // Layer outside the stage's range is equally dead.
    VerifyJob job2;
    job2.plan.activations[{0, 500}] = cp::Kind::GpuCpuSwap;
    auto report = job2.verify();
    EXPECT_TRUE(report.hasRule(Rule::SwapUnknownTensor));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, SwapEmptyClass)
{
    VerifyJob job;
    job.plan.activations[{0, 0}] = cp::Kind::Recompute;
    EXPECT_FALSE(job.verify().hasRule(Rule::SwapEmptyClass));

    ZeroStashJob zero;
    zero.plan.activations[{0, 0}] = cp::Kind::Recompute;
    auto report = vf::verifyPlan(zero.topo, zero.mdl, zero.part,
                                 zero.sched, zero.plan);
    ASSERT_TRUE(report.hasRule(Rule::SwapEmptyClass));
    EXPECT_EQ(report.findRule(Rule::SwapEmptyClass)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, SwapIntervalTight)
{
    // One swapped class hides comfortably behind a stage's compute.
    VerifyJob job;
    job.plan.activations[{0, 1}] = cp::Kind::GpuCpuSwap;
    EXPECT_FALSE(job.verify().hasRule(Rule::SwapIntervalTight));

    // Swapping every class of a Bert-1.67B stage saturates PCIe.
    VerifyJob big("bert-1.67b", 12);
    for (const auto &stage : big.part.stages) {
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            big.plan.activations[{stage.index,
                                  static_cast<int>(l)}] =
                cp::Kind::GpuCpuSwap;
        }
    }
    auto report = big.verify();
    ASSERT_TRUE(report.hasRule(Rule::SwapIntervalTight));
    EXPECT_EQ(report.findRule(Rule::SwapIntervalTight)->severity,
              vf::Severity::Warning);
}

TEST(VerifyRule, CfgShape)
{
    VerifyJob job;
    job.plan.offloadOptState.assign(8, true);
    EXPECT_FALSE(job.verify().hasRule(Rule::CfgShape));

    job.plan.offloadOptState.assign(3, true);
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::CfgShape));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, CfgShapeStageCountMismatch)
{
    // Partition and schedule disagreeing on depth is unverifiable
    // beyond the mismatch itself.
    VerifyJob job;
    job.sched = pl::buildSchedule(pl::SystemKind::PipeDream, 4, 8, 2);
    auto report = job.verify();
    EXPECT_TRUE(report.hasRule(Rule::CfgShape));
    EXPECT_FALSE(report.ok());
}

TEST(VerifyRule, CfgStashSync)
{
    VerifyJob job;
    job.plan.offloadWeightStash.assign(8, false);
    EXPECT_FALSE(job.verify().hasRule(Rule::CfgStashSync));

    // GPipe keeps no stashed weight versions; offloading the stash
    // is a configuration mismatch.
    VerifyJob gpipe;
    gpipe.sched = pl::buildSchedule(pl::SystemKind::Gpipe, 8, 8, 2);
    gpipe.plan.offloadWeightStash.assign(8, true);
    auto report = gpipe.verify();
    ASSERT_TRUE(report.hasRule(Rule::CfgStashSync));
    EXPECT_EQ(report.findRule(Rule::CfgStashSync)->severity,
              vf::Severity::Warning);
}

TEST(Verify, StrictPromotesWarningsToErrors)
{
    VerifyJob job;
    job.plan.spareGrants[0] = {{4, mu::kGiB}};  // orphan grant
    auto permissive = job.verify();
    EXPECT_TRUE(permissive.ok());
    EXPECT_GT(permissive.warningCount(), 0);

    vf::Options strict;
    strict.strict = true;
    auto report = job.verify(strict);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.warningCount(), 0);
}

TEST(Verify, MaxDiagsPerRuleCapsPlanFindings)
{
    VerifyJob job;
    for (int l = 100; l < 140; ++l)
        job.plan.activations[{0, l}] = cp::Kind::GpuCpuSwap;
    vf::Options opts;
    opts.maxDiagsPerRule = 4;
    auto report = job.verify(opts);
    EXPECT_EQ(report.errorCount(), 4);
    EXPECT_GT(report.suppressedCount(), 0);
}

TEST(Verify, CorruptScheduleDoesNotPanic)
{
    // verifySchedule must diagnose, not crash, on garbage input.
    pl::Schedule sched;
    sched.numStages = 2;
    sched.microbatchesPerMinibatch = 1;
    sched.numMinibatches = 1;
    pl::Task t;
    t.id = 7;  // id does not match its index
    t.stage = 9;
    sched.tasks.push_back(t);
    sched.perStageOrder = {{0, 3}, {-2}};
    auto report = vf::verifySchedule(sched);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.hasRule(Rule::SchedShape));
}
