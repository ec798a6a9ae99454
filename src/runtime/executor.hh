/**
 * @file
 * The MPress runtime executor.
 *
 * Replays a pipeline schedule on the discrete-event simulator:
 * per-layer forward/backward kernels on per-GPU compute queues,
 * activation/gradient hand-offs over the fabric, and the three
 * memory-compaction techniques (drop/recompute, GPU-CPU swap, D2D
 * swap with striping) as asynchronous operators on their own
 * transfer lanes — mirroring the paper's executor + memory manager +
 * compaction library split (Fig. 5).
 *
 * Every tensor allocation and release flows through per-GPU memory
 * trackers, so peak usage, imbalance (Fig. 2) and OOM crossovers
 * (Fig. 7/8) are emergent results, not inputs.
 */

#ifndef MPRESS_RUNTIME_EXECUTOR_HH
#define MPRESS_RUNTIME_EXECUTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compaction/metadata.hh"
#include "compaction/plan.hh"
#include "fault/scenario.hh"
#include "hw/fabric.hh"
#include "hw/topology.hh"
#include "memory/tracker.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"
#include "runtime/report.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"

namespace mpress {
namespace runtime {

/**
 * Reusable executor scratch: the discrete-event engine (whose pooled
 * callback slab and heap storage dominate a run's allocations) is
 * kept across runs and reset between them, and so is the fabric —
 * whose per-lane stream rings scale with the square of the GPU count,
 * a real cost on cluster topologies — and so are the swap metadata
 * tables, whose record slots keep their stripe capacity.  A run
 * without a caller's arena uses a fresh one of its own.  One arena
 * must never be shared by two live executors — the planner's
 * SearchDriver gives each running trial its own, from an idle list.
 */
struct ExecutorArena
{
    /** The engine of every run, partitioned by node by the fabric
     *  built on it. */
    sim::Engine engine;

    /** Retained fabric, rebuilt only when the topology object
     *  changes; valid while @ref fabricTopo still points at the
     *  live topology it was built from (each of the SearchDriver's
     *  trial arenas keeps one stable hw::Topology copy for exactly
     *  this). */
    std::unique_ptr<hw::Fabric> fabric;
    const hw::Topology *fabricTopo = nullptr;

    /** One swap metadata table per node, reset at the start of every
     *  run. */
    std::vector<compaction::SwapMetadataTable> swapTables;

    /** High-water shrink policy: consecutive runs whose retained
     *  slabs could hold more than twice what the run actually used.
     *  When the streak reaches the policy threshold the executor
     *  releases the retained storage, so a daemon that served one
     *  huge plan does not hold its peak arenas forever. */
    int overStreak = 0;
    /** Times the high-water policy released retained storage. */
    std::uint64_t shrinks = 0;
};

/** Executor tunables. */
struct ExecutorConfig
{
    /** Record per-tensor live intervals (profiling runs).  Separate
     *  from @ref record: every plan's profile run needs liveness and
     *  must not pay for a trace. */
    bool recordLiveness = false;

    /** Record the run: the execution trace (TrainingReport::trace,
     *  spans plus memory and metric counter tracks) and the
     *  observability bundle (TrainingReport::observability: metric
     *  series, per-GPU memory event logs — the Fig. 1 curves — and
     *  per-stream utilization).  Off by default; when off no hooks
     *  are installed and the run records nothing. */
    bool record = false;

    /** Stop the simulation at the first OOM (matches real runs); when
     *  false, keep accounting to observe the overshoot. */
    bool failFastOnOom = true;

    /** Fault scenario to inject (non-owning; null = healthy run).
     *  The scenario must outlive the executor. */
    const fault::Scenario *faults = nullptr;

    /** Degradation ladder for injected D2D failures: a failed stripe
     *  is retried with backoff (20 us, doubling per attempt), then
     *  the instance falls back to GPU-CPU swap, then to
     *  recomputation, before failFastOnOom semantics apply.  With the
     *  ladder off a failed stripe is simply lost and the run
     *  deadlocks into an OOM report. */
    bool faultLadder = true;

    /** Retries per failed D2D stripe before falling back. */
    int maxTransferRetries = 3;

    /** No effect: every topology runs on one engine.  Kept only
     *  because hostbench still sets it; it goes with the next
     *  benchmark change. */
    int simShards = 0;

    /** Reusable scratch (non-owning; null = self-contained run).  The
     *  arena must outlive the executor and must not be shared with a
     *  concurrently live executor.  Pure wall-clock/allocation
     *  optimization: the report is byte-identical either way, so the
     *  planner's trial-cache key ignores this field. */
    ExecutorArena *arena = nullptr;
};

/**
 * Replay one training window and return its report.
 *
 * @param topo     the server
 * @param mdl      instantiated model (layers with costs)
 * @param part     stage partition (stages == schedule stages)
 * @param sched    pipeline schedule to replay
 * @param plan     memory-compaction plan (may be empty)
 * @param config   tunables
 */
TrainingReport runTraining(const hw::Topology &topo,
                           const model::TransformerModel &mdl,
                           const partition::Partition &part,
                           const pipeline::Schedule &sched,
                           const compaction::CompactionPlan &plan,
                           ExecutorConfig config = {});

} // namespace runtime
} // namespace mpress

#endif // MPRESS_RUNTIME_EXECUTOR_HH
