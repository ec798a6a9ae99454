/**
 * @file
 * Tests for the observability layer: metrics registry, memory
 * timelines, utilization recording, the exporters, and the wiring
 * through the runtime executor.
 */

#include <algorithm>
#include <sstream>

#include <gtest/gtest.h>

#include "compaction/plan.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "obs/export.hh"
#include "obs/metrics.hh"
#include "obs/observability.hh"
#include "obs/timeline.hh"
#include "obs/utilization.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "runtime/executor.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"
#include "util/json.hh"

namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace obs = mpress::obs;
namespace pl = mpress::pipeline;
namespace rt = mpress::runtime;
namespace sim = mpress::sim;
namespace mu = mpress::util;

using mm::TensorKind;
using mu::Bytes;
using mu::Tick;

namespace {

/** A small training job wired for observability tests. */
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
          sched(pl::buildSchedule(pl::SystemKind::PipeDream, 8, 4, 2))
    {}

    rt::TrainingReport
    run(const cp::CompactionPlan &plan = {},
        rt::ExecutorConfig cfg = {}) const
    {
        return rt::runTraining(topo, mdl, part, sched, plan, cfg);
    }
};

/** GPU-CPU-swap-everything plan (exercises PCIe + host pool). */
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

} // namespace

// ---- MetricsRegistry ----------------------------------------------

TEST(Metrics, CountersAccumulateAndSample)
{
    obs::MetricsRegistry reg;
    auto id = reg.counter("swap.bytes");
    ASSERT_NE(id, obs::MetricsRegistry::kInvalid);
    reg.add(id, 10, 100.0);
    reg.add(id, 20, 50.0);
    EXPECT_DOUBLE_EQ(reg.value(id), 150.0);

    const auto *series = reg.find("swap.bytes");
    ASSERT_NE(series, nullptr);
    ASSERT_EQ(series->samples.size(), 2u);
    EXPECT_EQ(series->samples[0].time, 10);
    EXPECT_DOUBLE_EQ(series->samples[0].value, 100.0);
    EXPECT_DOUBLE_EQ(series->samples[1].value, 150.0);
}

TEST(Metrics, GaugesMoveBothWays)
{
    obs::MetricsRegistry reg;
    auto id = reg.gauge("host.used");
    reg.set(id, 5, 40.0);
    reg.set(id, 9, 10.0);
    EXPECT_DOUBLE_EQ(reg.value(id), 10.0);
    EXPECT_EQ(reg.find("host.used")->samples.size(), 2u);
}

TEST(Metrics, RegistrationInternsByName)
{
    obs::MetricsRegistry reg;
    auto a = reg.counter("x");
    auto b = reg.counter("x");
    EXPECT_EQ(a, b);
    EXPECT_EQ(reg.series().size(), 1u);
}

TEST(Metrics, DisabledRegistryRecordsNothing)
{
    // An unrecorded run never registers its metrics, so its call
    // sites hold kInvalid ids.
    obs::MetricsRegistry reg;
    auto id = obs::MetricsRegistry::kInvalid;
    reg.add(id, 1, 5.0);  // must be a harmless no-op
    reg.set(id, 1, 5.0);
    EXPECT_DOUBLE_EQ(reg.value(id), 0.0);
    EXPECT_TRUE(reg.series().empty());
}

TEST(Metrics, KindMismatchIsFatal)
{
    obs::MetricsRegistry reg;
    reg.counter("m");
    EXPECT_DEATH(reg.gauge("m"), "m");
}

// ---- MemoryTimeline -----------------------------------------------

TEST(Timeline, CurveCollapsesSameTickEvents)
{
    obs::MemoryTimeline tl;
    tl.record(0, 0, TensorKind::Parameter, 100);
    tl.record(5, 0, TensorKind::Activation, 50);
    tl.record(5, 0, TensorKind::Activation, -50);
    tl.record(9, 0, TensorKind::Parameter, -100);

    auto curve = tl.curve(0);
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_EQ(curve[0].used, 100);
    EXPECT_EQ(curve[1].time, 5);
    EXPECT_EQ(curve[1].used, 100);  // alloc+free collapse
    EXPECT_EQ(curve[2].used, 0);
}

TEST(Timeline, PeakSeesIntraTickSpikes)
{
    // The tracker's peak counts the instant both tensors were live,
    // even when the free lands on the same tick; the reconstructed
    // peak must match it, not the collapsed curve.
    obs::MemoryTimeline tl;
    tl.record(5, 0, TensorKind::Activation, 80);
    tl.record(5, 0, TensorKind::Activation, -80);
    EXPECT_EQ(tl.peak(0), 80);
    EXPECT_EQ(tl.finalUsed(0), 0);
}

TEST(Timeline, PerKindPeaksAndGpuList)
{
    obs::MemoryTimeline tl;
    tl.record(1, 1, TensorKind::Parameter, 10);
    tl.record(2, 0, TensorKind::Activation, 30);
    tl.record(3, 0, TensorKind::Activation, -30);
    tl.record(4, 0, TensorKind::Activation, 20);

    EXPECT_EQ(tl.gpus(), (std::vector<int>{0, 1}));
    EXPECT_EQ(tl.peakByKind(0, TensorKind::Activation), 30);
    EXPECT_EQ(tl.peakByKind(1, TensorKind::Parameter), 10);
    EXPECT_EQ(tl.peakByKind(1, TensorKind::Activation), 0);
    EXPECT_EQ(tl.finalUsed(0), 20);
}

// ---- UtilizationRecorder ------------------------------------------

TEST(Utilization, AttachedStreamBusyMatchesIntervals)
{
    sim::Engine eng;
    sim::Stream stream(eng, "s");
    obs::UtilizationRecorder rec;
    rec.attach(stream, obs::Resource::Compute, 0);

    eng.schedule(0, [&] {
        stream.submit(10, {});
        stream.submit(5, {});
    });
    eng.schedule(30, [&] { stream.submit(7, {}); });
    eng.run();

    ASSERT_EQ(rec.channels().size(), 1u);
    const auto &ch = rec.channels()[0];
    EXPECT_EQ(ch.busy, stream.busyTime());
    Tick from_intervals = 0;
    for (const auto &iv : ch.intervals)
        from_intervals += iv.end - iv.start;
    EXPECT_EQ(from_intervals, ch.busy);
    // Back-to-back tasks queue; the detached one starts later.
    EXPECT_EQ(ch.intervals.size(), 3u);
    EXPECT_EQ(ch.intervals[2].start, 30);
}

TEST(Utilization, BusyTimeAggregatesByResourceAndGpu)
{
    obs::UtilizationRecorder rec;
    int a = rec.addChannel(obs::Resource::PcieH2D, 0, "pcie0.h2d");
    int b = rec.addChannel(obs::Resource::PcieH2D, 1, "pcie1.h2d");
    int c = rec.addChannel(obs::Resource::PcieD2H, 0, "pcie0.d2h");
    rec.recordBusy(a, 0, 10);
    rec.recordBusy(b, 0, 20);
    rec.recordBusy(c, 5, 10);
    EXPECT_EQ(rec.busyTime(obs::Resource::PcieH2D), 30);
    EXPECT_EQ(rec.busyTime(obs::Resource::PcieH2D, 1), 20);
    EXPECT_EQ(rec.busyTime(obs::Resource::PcieD2H), 5);
    EXPECT_EQ(rec.busyTime(obs::Resource::NvmeRead), 0);
}

// ---- executor integration -----------------------------------------

TEST(ObsIntegration, TimelineReconstructsTrackerPeaks)
{
    Job job;
    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto report = job.run(swapAll(job.part), cfg);
    ASSERT_FALSE(report.oom);

    const auto &mem = report.observability.memory;
    ASSERT_FALSE(mem.gpus().empty());
    for (const auto &g : report.gpus) {
        EXPECT_EQ(mem.peak(g.gpu), g.peak) << "gpu " << g.gpu;
        EXPECT_EQ(mem.finalUsed(g.gpu), g.finalUsed);
        EXPECT_EQ(mem.peakByKind(g.gpu, TensorKind::Parameter),
                  g.peakParams);
    }
}

TEST(ObsIntegration, UtilizationMatchesFabricBusyTimes)
{
    Job job;
    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto report = job.run(swapAll(job.part), cfg);
    ASSERT_FALSE(report.oom);

    const auto &util = report.observability.utilization;
    EXPECT_EQ(util.busyTime(obs::Resource::PcieH2D) +
                  util.busyTime(obs::Resource::PcieD2H),
              report.pcieBusyTime);
    EXPECT_EQ(util.busyTime(obs::Resource::NvlinkEgress) +
                  util.busyTime(obs::Resource::NvlinkIngress),
              report.nvlinkBusyTime);
    EXPECT_GT(report.pcieBusyTime, 0);

    // Per-channel busy equals the sum of its recorded intervals.
    for (const auto &ch : util.channels()) {
        Tick sum = 0;
        for (const auto &iv : ch.intervals)
            sum += iv.end - iv.start;
        EXPECT_EQ(sum, ch.busy) << ch.name;
    }

    // Compute occupancy agrees with the report's utilization figure.
    ASSERT_GT(report.observability.makespan, 0);
    for (const auto &g : report.gpus) {
        double frac =
            static_cast<double>(
                util.busyTime(obs::Resource::Compute, g.gpu)) /
            static_cast<double>(report.observability.makespan);
        EXPECT_NEAR(frac, g.computeUtilization, 1e-12);
    }
}

TEST(ObsIntegration, SwapCountersMatchReportAccounting)
{
    Job job;
    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto report = job.run(swapAll(job.part), cfg);
    ASSERT_FALSE(report.oom);

    const auto &metrics = report.observability.metrics;
    const auto *out = metrics.find("swap.out.bytes");
    ASSERT_NE(out, nullptr);
    EXPECT_GT(out->value, 0.0);
    // Every swapped-out activation is swapped back in before its
    // backward pass.
    const auto *in = metrics.find("swap.in.bytes");
    ASSERT_NE(in, nullptr);
    EXPECT_DOUBLE_EQ(in->value, out->value);
}

TEST(ObsIntegration, MetricsOffRecordsNothing)
{
    Job job;
    auto report = job.run(swapAll(job.part));  // default: record off
    ASSERT_FALSE(report.oom);
    EXPECT_EQ(report.trace.size(), 0u);
    EXPECT_TRUE(report.observability.metrics.series().empty());
    EXPECT_EQ(report.observability.memory.size(), 0u);
    EXPECT_TRUE(report.observability.utilization.channels().empty());
}

// ---- exporters ----------------------------------------------------

TEST(ObsExport, JsonBundleIsParseable)
{
    Job job;
    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto report = job.run(swapAll(job.part), cfg);
    ASSERT_FALSE(report.oom);

    std::ostringstream os;
    obs::exportJson(os, report.observability);
    auto doc = mu::jsonParse(os.str());
    EXPECT_TRUE(doc.ok) << doc.error;
    EXPECT_NE(os.str().find("\"memory\""), std::string::npos);
    EXPECT_NE(os.str().find("\"utilization\""), std::string::npos);
    EXPECT_NE(os.str().find("swap.out.bytes"), std::string::npos);
}

TEST(ObsExport, CsvDumpsHaveHeadersAndRows)
{
    Job job;
    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto report = job.run(swapAll(job.part), cfg);
    ASSERT_FALSE(report.oom);

    std::ostringstream mem_os;
    obs::exportMemoryCsv(mem_os, report.observability);
    std::string mem = mem_os.str();
    EXPECT_EQ(mem.rfind("time_ms,gpu,used_gb\n", 0), 0u);
    EXPECT_GT(std::count(mem.begin(), mem.end(), '\n'), 1);

    std::ostringstream util_os;
    obs::exportUtilizationCsv(util_os, report.observability);
    std::string util = util_os.str();
    EXPECT_EQ(util.rfind("resource,gpu,name,busy_ns,utilization\n",
                         0),
              0u);
    EXPECT_NE(util.find("compute"), std::string::npos);
}

TEST(ObsExport, TraceGainsCounterEventsWhenBothFlagsOn)
{
    Job job;
    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto report = job.run(swapAll(job.part), cfg);
    ASSERT_FALSE(report.oom);

    EXPECT_GT(report.trace.counters().size(), 0u);
    std::ostringstream os;
    report.trace.exportChromeTrace(os);
    EXPECT_NE(os.str().find("\"ph\":\"C\""), std::string::npos);
    auto doc = mu::jsonParse(os.str());
    EXPECT_TRUE(doc.ok) << doc.error;
}

TEST(ObsExport, EmptyBundleStillParses)
{
    obs::Observability o;
    std::ostringstream os;
    obs::exportJson(os, o);
    auto doc = mu::jsonParse(os.str());
    EXPECT_TRUE(doc.ok) << doc.error;
}

TEST(ObsExport, SweepReportKeepsRowOrderAndParses)
{
    std::vector<obs::SweepRow> rows(3);
    rows[0].name = "first";
    rows[0].model = "bert-0.64b";
    rows[0].samplesPerSec = 13.5;
    rows[1].name = "second \"quoted\"";
    rows[1].oom = true;
    rows[2].name = "third";
    rows[2].rejected = true;
    rows[2].planIterations = 4;
    rows[2].maxGpuPeak = 28 * mu::kGB;

    std::ostringstream js;
    obs::exportSweepJson(js, rows);
    auto doc = mu::jsonParse(js.str());
    ASSERT_TRUE(doc.ok) << doc.error;
    const auto *parsed = doc.value.find("rows");
    ASSERT_NE(parsed, nullptr);
    ASSERT_EQ(parsed->items().size(), 3u);
    // Rows come out in the order given, independent of which sweep
    // worker finished first.
    EXPECT_EQ(parsed->items()[0].stringOr("name", ""), "first");
    EXPECT_EQ(parsed->items()[1].stringOr("name", ""),
              "second \"quoted\"");
    EXPECT_EQ(parsed->items()[2].stringOr("name", ""), "third");
    EXPECT_TRUE(parsed->items()[1].boolOr("oom", false));
    EXPECT_TRUE(parsed->items()[2].boolOr("rejected", false));
    EXPECT_EQ(parsed->items()[2].numberOr("plan_iterations", 0), 4);
    EXPECT_EQ(parsed->items()[0].numberOr("samples_per_sec", 0),
              13.5);

    std::ostringstream csv;
    obs::exportSweepCsv(csv, rows);
    std::istringstream lines(csv.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line,
              "name,model,system,strategy,topology,oom,rejected,"
              "samples_per_sec,tflops,max_gpu_peak_bytes,"
              "plan_iterations,plan_ms");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("first,", 0), 0u);
    ASSERT_TRUE(std::getline(lines, line));
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("third,", 0), 0u);
    EXPECT_FALSE(std::getline(lines, line));
}

TEST(ObsExport, EmptySweepStillParses)
{
    std::ostringstream js;
    obs::exportSweepJson(js, {});
    EXPECT_EQ(js.str(), "{\"rows\":[]}");
    ASSERT_TRUE(mu::jsonParse(js.str()).ok);
}

TEST(ObsExport, CsvQuotesAdversarialNames)
{
    // RFC 4180: fields holding commas, quotes, or line breaks are
    // double-quoted with embedded quotes doubled — a scenario named
    // from user JSON must not shift every column after it.
    std::vector<obs::SweepRow> rows(3);
    rows[0].name = "plain";
    rows[1].name = "commas, break, columns";
    rows[1].model = "say \"cheese\"";
    rows[2].name = "line\nbreak";
    std::ostringstream csv;
    obs::exportSweepCsv(csv, rows);
    std::string text = csv.str();
    EXPECT_NE(text.find("\"commas, break, columns\","),
              std::string::npos);
    EXPECT_NE(text.find("\"say \"\"cheese\"\"\","),
              std::string::npos);
    EXPECT_NE(text.find("\"line\nbreak\","), std::string::npos);
    // Unquoted values keep their exact old shape.
    EXPECT_NE(text.find("plain,"), std::string::npos);

    // Every data row still has the header's column count once
    // quoted fields are honored.
    std::istringstream lines(text);
    std::string header;
    ASSERT_TRUE(std::getline(lines, header));
    auto columns = [](const std::string &line) {
        int cols = 1;
        bool quoted = false;
        for (char c : line) {
            if (c == '"')
                quoted = !quoted;
            else if (c == ',' && !quoted)
                ++cols;
        }
        return cols;
    };
    EXPECT_EQ(columns(header), 12);
    // Row 0 ("plain") and row 1 (adversarial, single-line fields).
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(columns(line), 12);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(columns(line), 12);
}

TEST(ObsExport, RobustnessReportParsesAndKeepsOrder)
{
    std::vector<obs::RobustnessRow> rows(3);
    rows[0].scenario = "healthy";
    rows[0].samplesPerSec = 13.5;
    rows[0].throughputRatio = 1.0;
    rows[1].scenario = "flaky, nvlink";
    rows[1].throughputRatio = 0.75;
    rows[1].transferFailures = 12;
    rows[1].retries = 9;
    rows[1].fallbackGpuCpuSwap = 3;
    rows[2].scenario = "dead";
    rows[2].oom = true;

    obs::RobustnessSummary summary;
    summary.baselineSamplesPerSec = 13.5;
    summary.worst = 0.0;
    summary.p10 = 0.0;
    summary.p50 = 0.75;

    std::ostringstream js;
    obs::exportRobustnessJson(js, summary, rows);
    auto doc = mu::jsonParse(js.str());
    ASSERT_TRUE(doc.ok) << doc.error;
    EXPECT_EQ(doc.value.numberOr("baseline_samples_per_sec", 0),
              13.5);
    EXPECT_EQ(doc.value.numberOr("p50", 0), 0.75);
    const auto *parsed = doc.value.find("rows");
    ASSERT_NE(parsed, nullptr);
    ASSERT_EQ(parsed->items().size(), 3u);
    EXPECT_EQ(parsed->items()[1].stringOr("scenario", ""),
              "flaky, nvlink");
    EXPECT_EQ(parsed->items()[1].numberOr("transfer_failures", 0),
              12);
    EXPECT_TRUE(parsed->items()[2].boolOr("oom", false));

    std::ostringstream csv;
    obs::exportRobustnessCsv(csv, rows);
    std::istringstream lines(csv.str());
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line,
              "scenario,oom,samples_per_sec,throughput_ratio,"
              "transfer_failures,retries,fallback_gpu_cpu_swap,"
              "fallback_recompute,straggled_tasks,"
              "host_pressure_events");
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("healthy,0,", 0), 0u);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line.rfind("\"flaky, nvlink\",0,", 0), 0u);
}

TEST(ObsIntegration, NvmeChannelsBusyUnderContention)
{
    // A tiny pinned pool forces GPU-CPU swaps onto the SSD: the
    // NvmeWrite (spill) and NvmeRead (swap-in) channels go busy, and
    // the nvme.spill.bytes counter agrees with the report.
    Job job;
    job.topo.setHostMemory(4 * mu::kGB);
    job.topo.setNvmeCapacity(500 * mu::kGB);
    rt::ExecutorConfig cfg;
    cfg.record = true;
    auto report = job.run(swapAll(job.part), cfg);
    ASSERT_FALSE(report.oom);
    ASSERT_GT(report.nvmeSpill, 0);

    const auto &util = report.observability.utilization;
    EXPECT_GT(util.busyTime(obs::Resource::NvmeWrite), 0);
    EXPECT_GT(util.busyTime(obs::Resource::NvmeRead), 0);

    const auto *spill =
        report.observability.metrics.find("nvme.spill.bytes");
    ASSERT_NE(spill, nullptr);
    EXPECT_DOUBLE_EQ(spill->value,
                     static_cast<double>(report.nvmeSpill));

    // Contention is real: all eight stages share one SSD, so the
    // write channel's intervals never overlap (serialized queue) and
    // the spill path shows up as nonzero queueing versus raw
    // transfer time.
    for (const auto &ch : util.channels()) {
        if (ch.resource != obs::Resource::NvmeWrite)
            continue;
        Tick prev_end = -1;
        for (const auto &iv : ch.intervals) {
            EXPECT_GE(iv.start, prev_end);
            prev_end = iv.end;
        }
    }
}
