/**
 * @file
 * Static plan analysis: an abstract interpreter over
 * `(Model, Partition, Topology, Schedule, CompactionPlan)` tuples
 * that derives *sound* bounds without executing the plan.
 *
 * Where `verify::` checks structural rules and `runtime::runTraining`
 * measures one exact trajectory, the analyzer walks the plan IR with
 * an interval abstract domain and proves three properties in
 * microseconds:
 *
 *  - per-GPU peak-memory intervals `[lower, upper]`: the transfer
 *    function of every plan operator (keep-resident, recompute,
 *    GPU-CPU swap with its PCIe hazard window, D2D swap with grant
 *    debit/re-credit) is applied symbolically, so `lower` counts only
 *    bytes that *must* be simultaneously resident in any completed
 *    run and `upper` counts every byte that *can* be;
 *  - a critical-path latency lower bound: longest path over the
 *    schedule DAG (dependency edges plus per-stage serial order) with
 *    wire-time edge weights, maxed against per-lane bandwidth
 *    occupancy terms for compute, H2D and D2H;
 *  - a steady-state throughput upper bound derived from the same
 *    occupancy terms (the portfolio's best-first explorer ranks its
 *    frontier by it).
 *
 * The soundness contract, property-tested against the DES on the
 * scenario corpus (tests/analysis_test.cc):
 *
 *     upper(g)  >= DES-observed peak(g)          (always)
 *     lower(g)  <= DES-observed peak(g)          (completed runs)
 *     lower(g)  >  usable capacity  ==>  the DES run OOMs
 *     latencyLowerBound      <= DES makespan
 *     throughputUpperBound   >= DES samples/sec
 *
 * The result is a machine-checkable AnalysisCertificate that the
 * planner attaches to PlanResult, `verify::` turns into the
 * cap-proved-overflow / cap-unproven rules, and the CLIs print under
 * `--analyze`.
 */

#ifndef MPRESS_ANALYSIS_ANALYZER_HH
#define MPRESS_ANALYSIS_ANALYZER_HH

#include <string>
#include <vector>

#include "compaction/plan.hh"
#include "hw/topology.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"

namespace mpress {
namespace analysis {

using util::Bytes;
using util::Tick;

/** Analyzer tunables; mirror the ExecutorConfig fields that shape the
 *  memory trajectory so bounds match what would execute. */
struct AnalysisOptions
{
    /** Capacity divisor matching ExecutorConfig::memOverheadFactor:
     *  usable capacity = HBM capacity / factor. */
    double memOverheadFactor = 1.10;

    /** Swap-in prefetch depth (ExecutorConfig::swapInLookahead);
     *  widens the swap hazard window on the importing side. */
    int swapInLookahead = 4;
};

/** Peak-memory interval for one GPU. */
struct GpuMemoryBound
{
    int gpu = -1;
    /** Static (parameter/gradient/optimizer) bytes, always resident. */
    Bytes staticBytes = 0;
    /** Sound lower bound: every completed run peaks at or above it. */
    Bytes lower = 0;
    /** Sound upper bound: no run can peak above it. */
    Bytes upper = 0;
};

/**
 * The analyzer's verdict: interval memory bounds, latency/throughput
 * bounds and the derived capacity judgments.
 */
struct AnalysisCertificate
{
    /** False when the tuple is structurally unanalyzable (mapping out
     *  of range, cyclic schedule, stage-count mismatch); all other
     *  fields are meaningless then and consumers must not prune. */
    bool valid = false;

    /** Per-GPU budget the bounds are judged against. */
    Bytes usableCapacity = 0;

    std::vector<GpuMemoryBound> gpus;

    /** Pinned-host demand interval (weight-stash spill, optimizer
     *  offload, GPU-CPU swap residency). */
    Bytes hostLower = 0;
    Bytes hostUpper = 0;
    Bytes hostCapacity = 0;

    /** No run of this tuple can finish faster than this. */
    Tick latencyLowerBound = 0;

    /** No run can sustain more samples/sec than this; +infinity when
     *  the window is too short to bound steady state. */
    double throughputUpperBound = 0.0;

    /** lower(g) > usableCapacity for some g: every run OOMs. */
    bool provableOom = false;
    int oomGpu = -1;  ///< first GPU proving the overflow (-1 if none)

    /** upper(g) <= usableCapacity everywhere and the host demand fits:
     *  no run of this tuple can OOM. */
    bool provablyFits = false;

    /** Render the certificate as an aligned text table. */
    std::string render() const;

    /** One-line summary, e.g. "provably-fits lat>=1.2s". */
    std::string summary() const;
};

/**
 * Statically analyze @p plan against the tuple without executing it.
 *
 * Never panics on malformed input: structural problems clear
 * AnalysisCertificate::valid instead.  Cost is O(tasks + edges),
 * a few microseconds for the corpus schedules — cheap enough to run
 * on every planner trial.
 */
AnalysisCertificate analyzePlan(const hw::Topology &topo,
                                const model::TransformerModel &mdl,
                                const partition::Partition &part,
                                const pipeline::Schedule &sched,
                                const compaction::CompactionPlan &plan,
                                const AnalysisOptions &opts = {});

} // namespace analysis
} // namespace mpress

#endif // MPRESS_ANALYSIS_ANALYZER_HH
