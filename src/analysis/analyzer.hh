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
 * planner attaches to PlanResult and the CLIs print under
 * `--analyze`.  Its memory half, boundMemory(), is the one static
 * capacity model: `verify::` reads it for the cap-stage-overflow,
 * cap-host-overflow, d2d-overcommit and cap-unproven rules.
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
 * The memory half of the analyzer's verdict: per-GPU and host peak
 * intervals against usable capacity, and the capacity judgments
 * derived from them.
 */
struct MemoryBounds
{
    /** False when the tuple's memory cannot be bounded (stage-count
     *  mismatch, mapping out of range, a grant naming an unknown
     *  GPU); all other fields are meaningless then. */
    bool valid = false;

    /** Per-GPU budget the bounds are judged against
     *  (hw::GpuSpec::usableCapacity()). */
    Bytes usableCapacity = 0;

    std::vector<GpuMemoryBound> gpus;

    /** Pinned-host demand interval (weight-stash spill, optimizer
     *  offload, GPU-CPU swap residency). */
    Bytes hostLower = 0;
    Bytes hostUpper = 0;
    Bytes hostCapacity = 0;

    /** lower(g) > usableCapacity for some g: every run OOMs. */
    bool provableOom = false;
    int oomGpu = -1;  ///< first GPU proving the overflow (-1 if none)

    /** upper(g) <= usableCapacity everywhere and the host demand fits:
     *  no run of this tuple can OOM. */
    bool provablyFits = false;
};

/**
 * The analyzer's verdict: the memory bounds plus latency and
 * throughput bounds.  `valid` additionally requires an analyzable
 * schedule DAG (task ids in range, acyclic); consumers must not prune
 * on an invalid certificate.
 */
struct AnalysisCertificate : MemoryBounds
{
    /** No run of this tuple can finish faster than this. */
    Tick latencyLowerBound = 0;

    /** No run can sustain more samples/sec than this; +infinity when
     *  the window is too short to bound steady state. */
    double throughputUpperBound = 0.0;

    /** Render the certificate as an aligned text table. */
    std::string render() const;

    /** One-line summary, e.g. "provably-fits lat>=1.2s". */
    std::string summary() const;
};

/**
 * Bound @p plan's peak memory without executing it: the memory pass
 * of analyzePlan() alone, without the latency pass over the task DAG.
 * This is the repository's one static capacity model; the verifier's
 * capacity rules read it on every planner trial.  Never panics on
 * malformed input: structural problems clear MemoryBounds::valid.
 */
MemoryBounds boundMemory(const hw::Topology &topo,
                         const model::TransformerModel &mdl,
                         const partition::Partition &part,
                         const pipeline::Schedule &sched,
                         const compaction::CompactionPlan &plan);

/**
 * Statically analyze @p plan against the tuple without executing it:
 * boundMemory()'s bounds, then the latency and throughput bounds.
 *
 * Never panics on malformed input: structural problems clear
 * AnalysisCertificate::valid instead.  Cost is O(tasks + edges), tens
 * of microseconds on the Fig. 7 and Fig. 8 jobs, most of it the
 * latency pass over the task DAG.
 */
AnalysisCertificate analyzePlan(const hw::Topology &topo,
                                const model::TransformerModel &mdl,
                                const partition::Partition &part,
                                const pipeline::Schedule &sched,
                                const compaction::CompactionPlan &plan);

} // namespace analysis
} // namespace mpress

#endif // MPRESS_ANALYSIS_ANALYZER_HH
