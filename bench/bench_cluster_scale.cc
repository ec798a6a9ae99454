/**
 * @file
 * Cluster scale-out benchmark: GPT-25.5B on DAPPLE across 1, 2, 4,
 * and 8 HGX-H100 nodes joined by the shared-NIC fabric tier.  Each
 * row plans with the full MPress pipeline (hierarchical placement,
 * cross-node donor pricing) and reports planning wall-clock plus the
 * emulated training step time and throughput.
 *
 * Self-gates (nonzero exit on violation):
 *  - plan divergence: at every node count the serialized plan must
 *    be byte-identical between threads=1 and threads=4 — the cluster
 *    search matrix inherits the single-node determinism contract
 *  - scale sanity: every row must plan without OOM; adding nodes
 *    must never *lose* aggregate throughput (samples/s per replica
 *    may dip from NIC crossings, but the cluster total may not drop
 *    below the single-node total beyond a noise tolerance)
 *  - plan-wall scaling: doubling the cluster from 4 to 8 nodes may
 *    not blow the planning wall up superlinearly — the 8-node wall
 *    must stay under 3.5x the 4-node wall (plus a small absolute
 *    slack for timer noise on loaded CI boxes)
 *  - step-sim replay: the 8-node plan is replayed on the one
 *    node-partitioned engine twice, by a self-contained executor and
 *    on a reused arena (the planner's trial path).  The two reports
 *    must be byte-identical, the run must open conservative windows,
 *    and the arena replay must not cost more than 10% extra wall
 *    time on multi-core hosts
 *
 * Metrics tee into BENCH_cluster.json for tools/check.sh.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "cluster/cluster.hh"
#include "compaction/serialize.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "planner/planner.hh"
#include "runtime/executor.hh"
#include "util/pool.hh"
#include "util/table.hh"

namespace api = mpress::api;
namespace bench = mpress::bench;
namespace cl = mpress::cluster;
namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mp = mpress::partition;
namespace pl = mpress::pipeline;
namespace pn = mpress::planner;
namespace rt = mpress::runtime;
namespace mu = mpress::util;

namespace {

struct Row
{
    int nodes = 0;
    int gpus = 0;
    double planMs = 0.0;
    double stepMs = 0.0;
    double samplesPerSec = 0.0;
    bool feasible = false;
    bool identical = false;  // threads=1 vs threads=4 plan bytes
};

api::SessionConfig
clusterJob(int total_gpus, int threads)
{
    auto cfg = bench::gptJob("gpt-25.5b", api::Strategy::MPressFull);
    cfg.numStages = total_gpus;
    cfg.planner.threads = threads;
    return cfg;
}

Row
planAtScale(int nodes)
{
    auto spec = cl::clusterByName(
        mu::strformat("%dx-hgx-h100", nodes));
    if (!spec) {
        std::fprintf(stderr, "unknown cluster preset for %d nodes\n",
                     nodes);
        std::exit(2);
    }
    hw::Topology topo = cl::buildCluster(*spec);

    Row row;
    row.nodes = nodes;
    row.gpus = topo.numGpus();

    auto start = std::chrono::steady_clock::now();
    auto serial =
        api::runSession(topo, clusterJob(topo.numGpus(), 1));
    auto end = std::chrono::steady_clock::now();
    row.planMs =
        std::chrono::duration<double, std::milli>(end - start)
            .count();
    row.feasible = !serial.oom && !serial.rejected;
    row.samplesPerSec = serial.samplesPerSec;
    if (serial.samplesPerSec > 0.0) {
        // One minibatch = microbatch * mbPerMini samples.
        row.stepMs = 1000.0 * (2.0 * 64.0) / serial.samplesPerSec;
    }

    auto wide = api::runSession(topo, clusterJob(topo.numGpus(), 4));
    row.identical =
        cp::planToText(serial.plan) == cp::planToText(wide.plan);
    return row;
}

/** Report fingerprint for the step-sim determinism gate: every
 *  scalar the executor derives plus the per-GPU and per-stage rows.
 *  (The full-fidelity comparison — trace, metrics, timeline — lives
 *  in the ShardedSim tests and the golden digests; the bench checks
 *  the cheap core.) */
std::string
reportBytes(const rt::TrainingReport &r)
{
    std::ostringstream os;
    os << r.oom << ' ' << r.oomGpu << ' ' << r.oomTime << ' '
       << r.makespan << ' ' << r.steadyIterTime << ' '
       << r.samplesPerSec << ' ' << r.tflops << ' ' << r.hostPeak
       << ' ' << r.nvlinkBusyTime << ' ' << r.pcieBusyTime << ' '
       << r.nicBusyTime << ' ' << r.d2dOverflow << ' '
       << r.nvmeSpill << '\n';
    for (const auto &g : r.gpus)
        os << g.gpu << ' ' << g.peak << ' ' << g.peakActivations
           << ' ' << g.finalUsed << ' ' << g.computeUtilization
           << '\n';
    for (const auto &o : r.overheads)
        os << o.stage << ' ' << o.recomputeTime << ' '
           << o.swapInStall << ' ' << o.optimStall << '\n';
    return os.str();
}

struct StepSim
{
    double freshMs = 0.0;
    double arenaMs = 0.0;
    bool identical = false;
    std::uint64_t simWindows = 0;
};

/** Replay the winning 8-node plan by a self-contained executor and on
 *  a reused arena, and time both. */
StepSim
replayEightNode()
{
    auto spec = cl::clusterByName("8x-hgx-h100");
    hw::Topology topo = cl::buildCluster(*spec);
    mm::TransformerModel mdl(mm::presetByName("gpt-25.5b"), 2);
    mp::Partition part = mp::partitionModel(
        mdl, topo.numGpus(), mp::Strategy::ComputeBalanced);
    pl::Schedule sched = pl::buildSchedule(
        pl::SystemKind::Dapple, topo.numGpus(), 64, 2);
    pn::PlannerConfig pcfg;
    auto planned = pn::planMPress(topo, mdl, part, sched, pcfg);

    StepSim out;
    if (!planned.feasible)
        return out;

    auto timeRun = [&](rt::ExecutorArena *arena,
                       rt::TrainingReport &rep) {
        rt::ExecutorConfig cfg;
        cfg.arena = arena;
        double best = 0.0;
        for (int rep_no = 0; rep_no < 3; ++rep_no) {
            auto start = std::chrono::steady_clock::now();
            rep = rt::runTraining(topo, mdl, part, sched,
                                  planned.plan, cfg);
            auto end = std::chrono::steady_clock::now();
            double ms =
                std::chrono::duration<double, std::milli>(end - start)
                    .count();
            if (rep_no == 0 || ms < best)
                best = ms;
        }
        return best;
    };

    rt::ExecutorArena arena;
    rt::TrainingReport fresh, reused;
    out.freshMs = timeRun(nullptr, fresh);
    out.arenaMs = timeRun(&arena, reused);
    out.identical = reportBytes(fresh) == reportBytes(reused);
    out.simWindows = reused.simWindows;
    return out;
}

} // namespace

int
main()
{
    bench::BenchReport report("cluster");

    std::printf("Cluster scale-out: gpt-25.5b on DAPPLE, "
                "HGX-H100 nodes over ib-ndr\n\n");

    const int counts[] = {1, 2, 4, 8};
    std::vector<Row> rows;
    for (int nodes : counts)
        rows.push_back(planAtScale(nodes));

    mu::TextTable table({"nodes", "gpus", "plan (ms)", "step (ms)",
                         "samples/s", "plan parity"});
    bool ok = true;
    for (const Row &row : rows) {
        ok = ok && row.feasible && row.identical;
        table.addRow(
            {mu::strformat("%d", row.nodes),
             mu::strformat("%d", row.gpus),
             mu::strformat("%.1f", row.planMs),
             row.feasible ? mu::strformat("%.1f", row.stepMs)
                          : std::string("OOM"),
             mu::strformat("%.2f", row.samplesPerSec),
             row.identical ? "byte-identical" : "DIVERGED"});
        std::string name = mu::strformat("scale/nodes:%d", row.nodes);
        report.set(name, "plan_wall_ms", row.planMs);
        report.set(name, "step_ms", row.stepMs);
        report.set(name, "samples_per_sec", row.samplesPerSec);
        report.set(name, "feasible", row.feasible ? 1.0 : 0.0);
    }
    table.print(std::cout);

    // Aggregate throughput may not fall below the single-node total:
    // that would mean the planner prices NIC crossings so badly that
    // scale-out hurts, which the hierarchical placement exists to
    // prevent.
    double base = rows.front().samplesPerSec;
    double widest = rows.back().samplesPerSec;
    if (widest < base * 0.95) {
        std::printf("\nFAIL: 8-node throughput %.2f below "
                    "single-node %.2f\n",
                    widest, base);
        ok = false;
    }

    // Plan-wall scaling gate: node doubling may cost more trials
    // (the portfolio widens with pipeline depth) but never a
    // superlinear blow-up.  3.5x covers the trial-count growth with
    // headroom; the absolute slack absorbs timer noise on small
    // walls.
    double wall4 = rows[2].planMs;
    double wall8 = rows[3].planMs;
    double wallRatio = wall4 > 0.0 ? wall8 / wall4 : 0.0;
    report.set("scale/gate", "plan_wall_ratio_8v4", wallRatio);
    if (wall8 > wall4 * 3.5 + 50.0) {
        std::printf("\nFAIL: 8-node plan wall %.1f ms superlinear "
                    "vs 4-node %.1f ms (ratio %.2f, limit 3.5)\n",
                    wall8, wall4, wallRatio);
        ok = false;
    }

    // Step-sim replay: determinism is unconditional.  The JSON keys
    // keep their committed names (serial = self-contained, sharded =
    // reused arena) until the baselines are regenerated.
    StepSim ss = replayEightNode();
    std::printf("\nstep-sim replay (8 nodes, one engine): "
                "self-contained %.1f ms, reused arena %.1f ms, "
                "%llu windows, %s\n",
                ss.freshMs, ss.arenaMs,
                static_cast<unsigned long long>(ss.simWindows),
                ss.identical ? "byte-identical" : "DIVERGED");
    report.set("stepsim/8-node", "serial_wall_ms", ss.freshMs);
    report.set("stepsim/8-node", "sharded_wall_ms", ss.arenaMs);
    report.set("stepsim/8-node", "identical",
               ss.identical ? 1.0 : 0.0);
    report.set("stepsim/8-node", "sim_windows",
               static_cast<double>(ss.simWindows));
    if (!ss.identical || ss.simWindows == 0) {
        std::printf("FAIL: arena replay diverged from the "
                    "self-contained one\n");
        ok = false;
    }
    if (mu::ThreadPool::hardwareThreads() > 1 &&
        ss.arenaMs > ss.freshMs * 1.10 + 25.0) {
        std::printf("FAIL: arena replay %.1f ms exceeds "
                    "self-contained %.1f ms + 10%%\n",
                    ss.arenaMs, ss.freshMs);
        ok = false;
    }

    if (!report.write())
        std::fprintf(stderr, "failed to write BENCH_cluster.json\n");
    if (!ok) {
        std::printf("\nFAIL: divergence or infeasibility above\n");
        return 1;
    }
    std::printf("\nall rows feasible, plans byte-identical across "
                "threads\n");
    return 0;
}
