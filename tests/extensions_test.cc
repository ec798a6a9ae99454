/**
 * @file
 * Tests for the extension subsystems: execution tracing, memory
 * timelines (Fig. 1 curves) and the tensor-parallel baseline.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/tensor_parallel.hh"
#include "compaction/plan.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/planner.hh"
#include "runtime/executor.hh"
#include "util/json.hh"
#include "sim/trace.hh"

namespace bl = mpress::baselines;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace rt = mpress::runtime;
namespace mu = mpress::util;

TEST(Trace, ChromeExportIsWellFormed)
{
    mpress::sim::TraceRecorder trace;
    trace.nameLane(0, "gpu0");
    trace.record("fwd s0 mb0", "compute", 0, 1000, 2000);
    trace.record("a \"quoted\" name", "swap", 1, 2000, 3000);
    std::ostringstream os;
    trace.exportChromeTrace(os);
    std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("fwd s0 mb0"), std::string::npos);
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":1"), std::string::npos);  // 1000ns=1us
}

TEST(Trace, AdversarialNamesStillProduceValidJson)
{
    // Control characters are illegal raw inside JSON strings; the
    // exporter must emit them as \u00XX (only quote and backslash
    // were escaped before).
    mpress::sim::TraceRecorder trace;
    trace.nameLane(0, "gpu\n0");
    trace.record("multi\nline\tname", "compute", 0, 0, 1000);
    trace.record(std::string("nul\0byte", 8), "swap", 0, 1000, 2000);
    trace.record("quote\" back\\slash \x01\x1f", "compute", 0, 2000,
                 3000);
    trace.recordCounter("ctr\r\n", 0, 0, 1.5);
    std::ostringstream os;
    trace.exportChromeTrace(os);
    std::string json = os.str();

    auto doc = mu::jsonParse(json);
    EXPECT_TRUE(doc.ok) << doc.error;
    EXPECT_NE(json.find("multi\\u000aline\\u0009name"),
              std::string::npos);
    EXPECT_NE(json.find("nul\\u0000byte"), std::string::npos);
    EXPECT_NE(json.find("\\u0001\\u001f"), std::string::npos);
    // No raw control characters survive anywhere in the document.
    for (char c : json)
        EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 &&
                     c != '\n');
}

namespace {

rt::TrainingReport
timelineRun()
{
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto part =
        mp::partitionModel(mdl, 3, mp::Strategy::ComputeBalanced);
    auto sched = pl::buildDapple(3, 6, 2);
    rt::ExecutorConfig ec;
    ec.record = true;
    return rt::runTraining(hw::Topology::dgx1V100(), mdl, part,
                           sched, {}, ec);
}

} // namespace

TEST(Timeline, SamplesCoverTheRunAndMatchPeaks)
{
    auto report = timelineRun();
    ASSERT_FALSE(report.oom);
    const auto &events = report.observability.memory.events();
    ASSERT_FALSE(events.empty());

    // Events are time-ordered and within the makespan.
    mu::Tick last = 0;
    std::vector<mu::Bytes> used(8, 0), max_seen(8, 0);
    for (const auto &e : events) {
        EXPECT_GE(e.time, last);
        last = e.time;
        EXPECT_LE(e.time, report.makespan);
        auto g = static_cast<std::size_t>(e.gpu);
        used[g] += e.delta;
        max_seen[g] = std::max(max_seen[g], used[g]);
    }
    // The running sum's maximum equals the tracker's recorded peak.
    for (int g = 0; g < 3; ++g) {
        EXPECT_EQ(max_seen[static_cast<std::size_t>(g)],
                  report.gpus[static_cast<std::size_t>(g)].peak)
            << "gpu " << g;
    }
}

TEST(Timeline, TraceContainsForwardAndBackwardSpans)
{
    auto report = timelineRun();
    int fwd = 0, bwd = 0;
    for (const auto &span : report.trace.spans()) {
        if (span.category == std::string("fwd"))
            ++fwd;
        if (span.category == std::string("bwd"))
            ++bwd;
        EXPECT_LE(span.start, span.end);
    }
    // 3 stages x 12 microbatches x layers >= spans of each kind.
    EXPECT_GT(fwd, 0);
    EXPECT_EQ(fwd, bwd);
}

TEST(Timeline, OffByDefault)
{
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto part =
        mp::partitionModel(mdl, 3, mp::Strategy::ComputeBalanced);
    auto sched = pl::buildDapple(3, 6, 1);
    auto report = rt::runTraining(hw::Topology::dgx1V100(), mdl,
                                  part, sched, {});
    EXPECT_EQ(report.observability.memory.size(), 0u);
    EXPECT_EQ(report.trace.size(), 0u);
}

TEST(TensorParallel, RunsAndReportsExposure)
{
    auto report = bl::runTensorParallel(
        hw::Topology::dgx1V100(), mm::presetByName("gpt-5.3b"), {});
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.tflops, 0.0);
    EXPECT_GT(report.commTime, 0);
    // All-reduces are blocking: a visible fraction of the iteration.
    EXPECT_GT(report.commFraction, 0.05);
    EXPECT_LT(report.commFraction, 0.9);
}

TEST(TensorParallel, SlicesMemoryAcrossGpus)
{
    auto model = mm::presetByName("gpt-10.3b");
    auto report =
        bl::runTensorParallel(hw::Topology::dgx1V100(), model, {});
    ASSERT_FALSE(report.oom);
    // 10.3B at 16 B/param would be 165 GB monolithic; sliced across
    // 8 GPUs plus activations it must land far below one card.
    EXPECT_LT(report.gpuPeak, 32 * mu::kGB);
}

TEST(TensorParallel, SwitchFabricReducesExposure)
{
    auto model = mm::presetByName("gpt-5.3b");
    auto dgx1 = bl::runTensorParallel(hw::Topology::dgx1V100(),
                                      model, {});
    auto dgx2 = bl::runTensorParallel(hw::Topology::dgx2A100(),
                                      model, {});
    ASSERT_FALSE(dgx1.oom);
    ASSERT_FALSE(dgx2.oom);
    // Twice the lanes per GPU -> cheaper all-reduces relative to the
    // (faster) compute is not guaranteed, but absolute comm time is.
    EXPECT_LT(dgx2.commTime, dgx1.commTime);
}

TEST(TensorParallel, InterOpShipsLessData)
{
    // The Sec. II-A argument in one assertion: per microbatch, TP
    // moves ~2 all-reduces per block while inter-op moves a single
    // boundary activation.
    auto model = mm::presetByName("gpt-5.3b");
    mu::Bytes hidden = static_cast<mu::Bytes>(model.seqLen) * 2 *
                       model.hidden * model.elemBytes();
    mu::Bytes tp_volume = hidden * 2 * 2 * model.numBlocks;
    mu::Bytes interop_volume = hidden;
    EXPECT_GT(tp_volume / interop_volume, 100);
}

namespace {

/** Round-robin interleaved mapping: stage s -> GPU s % n. */
mpress::compaction::CompactionPlan
interleavedPlan(int stages, int gpus)
{
    mpress::compaction::CompactionPlan plan;
    for (int s = 0; s < stages; ++s)
        plan.stageToGpu.push_back(s % gpus);
    return plan;
}

} // namespace

TEST(Interleaving, VirtualStagesShareGpus)
{
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto topo = hw::Topology::dgx1V100();

    auto part16 =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    auto sched16 = pl::buildDapple(16, 16, 2);
    auto report = rt::runTraining(topo, mdl, part16, sched16,
                                  interleavedPlan(16, 8));
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.samplesPerSec, 0.0);

    // All sixteen stages' static state landed on eight GPUs.
    mu::Bytes total = 0;
    for (const auto &g : report.gpus)
        total += g.finalUsed;
    mu::Bytes expect = 0;
    for (const auto &stage : part16.stages) {
        expect += stage.paramBytes *
                      sched16.weightVersions(stage.index) +
                  stage.gradBytes + stage.optStateBytes;
    }
    EXPECT_EQ(total, expect);
}

TEST(Interleaving, NaiveInterleavingDoesNotBeatPlain1F1B)
{
    // Ablation result worth pinning: doubling the virtual stages
    // under the *standard* 1F1B order deepens the pipeline (16-deep
    // fill/drain against the same 8-microbatch minibatch), so
    // throughput drops.  The gain Megatron reports needs its
    // specialized interleaved schedule, which this repository leaves
    // as an extension point; the executor support (many stages per
    // GPU) is what this test exercises.
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto topo = hw::Topology::dgx1V100();

    auto part8 =
        mp::partitionModel(mdl, 8, mp::Strategy::ComputeBalanced);
    auto plain = rt::runTraining(topo, mdl, part8,
                                 pl::buildDapple(8, 8, 2), {});

    auto part16 =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    auto inter = rt::runTraining(topo, mdl, part16,
                                 pl::buildDapple(16, 8, 2),
                                 interleavedPlan(16, 8));
    ASSERT_FALSE(plain.oom);
    ASSERT_FALSE(inter.oom);
    // Both run correctly; the naive variant pays the deeper bubble.
    EXPECT_GT(inter.samplesPerSec, 0.0);
    EXPECT_LT(inter.samplesPerSec, plain.samplesPerSec);
}

TEST(Interleaving, RequiresExplicitMapping)
{
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 4);
    auto part16 =
        mp::partitionModel(mdl, 16, mp::Strategy::ComputeBalanced);
    auto sched16 = pl::buildDapple(16, 8, 1);
    auto topo = hw::Topology::dgx1V100();
    EXPECT_DEATH(
        rt::runTraining(topo, mdl, part16, sched16, {}),
        "interleaving");
}

TEST(SingleGpu, OneStagePipelineStillWorks)
{
    // Degenerate pipeline: one Grace-Hopper device, one stage.  The
    // executor, planner and memory accounting must all handle the
    // no-P2P, no-peer case.
    auto node = hw::Topology::graceHopperNode(1);
    auto cfg = mm::presetByName("bert-0.35b");
    mm::TransformerModel mdl(cfg, 2);
    auto part =
        mp::partitionModel(mdl, 1, mp::Strategy::ComputeBalanced);
    auto sched = pl::buildDapple(1, 4, 2);
    auto report = rt::runTraining(node, mdl, part, sched, {});
    ASSERT_FALSE(report.oom);
    EXPECT_GT(report.samplesPerSec, 0.0);
    EXPECT_EQ(report.gpus.size(), 1u);

    // MPress on one GPU can only use recompute / GPU-CPU swap — no
    // peers to lend memory.  It must not crash and must report a
    // feasible (possibly empty) plan.
    auto plan_result = mpress::planner::planMPress(node, mdl, part,
                                                   sched);
    EXPECT_TRUE(plan_result.feasible);
    EXPECT_EQ(plan_result.plan.countKind(
                  mpress::compaction::Kind::D2dSwap),
              0);
}
