/**
 * @file
 * MPress Static: the memory-compaction planner (Fig. 5, Sec. III-D).
 *
 * The pipeline is profile -> map -> seed -> refine:
 *
 *  1. Profiler: one emulated iteration with no compaction records
 *     per-stage peak memory and per-tensor live intervals.
 *  2. Device mapping (Fig. 6) places stages and produces spare-memory
 *     grants for D2D swap.
 *  3. Seed assignment: optimizer states of overflowing stages go to
 *     GPU-CPU swap (extremely long live intervals); activation
 *     classes are assigned Recompute or GPU-CPU swap — whichever
 *     costs less on the critical path — until the projected savings
 *     cover the stage's overflow.
 *  4. Refinement: the emulator (one-iteration executor run) measures
 *     the current plan; the most expensive assignments are flipped to
 *     D2D swap while spare budget lasts, and each step is accepted
 *     only if measured throughput improves.
 *
 * Helper constructors for the paper's baseline configurations
 * (recompute-everything, GPU-CPU-swap-everything, D2D-only) live here
 * too so that benches and examples share one implementation.
 */

#ifndef MPRESS_PLANNER_PLANNER_HH
#define MPRESS_PLANNER_PLANNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "compaction/plan.hh"
#include "planner/costmodel.hh"
#include "planner/mapper.hh"
#include "planner/search.hh"
#include "runtime/executor.hh"
#include "util/pool.hh"
#include "verify/verify.hh"

namespace mpress {
namespace planner {

/** Activation classes flipped to D2D swap per refinement step.  A
 *  step evaluates this batch plus its halvings (B, B/2, ... 1) as
 *  independent trials and keeps the best accepted one. */
constexpr int kD2dBatchPerStep = 8;

/** Extra savings margin over the measured overflow when seeding. */
constexpr double kSeedHeadroom = 0.03;

/** Required relative throughput gain to accept a refinement. */
constexpr double kAcceptGain = 0.002;

/** Planner tunables. */
struct PlannerConfig
{
    /** Refinement iterations (each evaluates a batch of trial plans,
     *  every trial costing one emulated iteration). */
    int maxIterations = 10;

    /** Worker threads for the device-mapping scan and the
     *  emulator-feedback search (trial batches and the coarse
     *  variants run concurrently, each on its own topology +
     *  executor), clamped to the CPUs the process may run on.  The
     *  default, every such CPU, plans on the process-wide
     *  util::PoolLease pool.  The plan is identical for every thread
     *  count: trial generation is serial and the winner is picked by
     *  a fixed tie-break, so threads only change wall-clock time.
     *  Callers that already run many plans at once (a sweep, the
     *  serve daemon) set 1. */
    int threads = util::ThreadPool::hardwareThreads();

    /** Forwarded to CompactionPlan::d2dStriping (Fig. 9 ablation). */
    bool d2dStriping = true;

    /** Memoize trial reports across the refinement ladders (identical
     *  plan + config + scenario → cached TrainingReport).  Purely a
     *  wall-clock optimization: the picked plan and every report are
     *  byte-identical either way (pinned by the determinism tests). */
    bool trialCache = true;

    /** Race heterogeneous refinement strategies instead of running
     *  only the greedy flip ladder: the greedy wavefront, a
     *  simulated-annealing walker and an analysis-guided best-first
     *  explorer share one SearchDriver (worker pool, trial cache)
     *  and submit their trials as one concurrent wavefront per
     *  round.  The winner is picked by the fixed (best verified
     *  throughput, lowest strategy index) rule, so the returned plan
     *  is identical for every thread count and with the trial cache
     *  on or off; it can only match or beat the greedy ladder's
     *  plan. */
    bool portfolio = false;

    /** Anytime knob: wall-clock budget for the refinement race in
     *  milliseconds, checked between wavefront rounds.  0 (default)
     *  disables the deadline.  Every deadline still returns a
     *  verified feasible plan — at worst the seed plan — because
     *  strategies improve a shared best-so-far monotonically; a
     *  tighter deadline only means fewer improvement rounds.  A
     *  deadline generous enough to never fire yields the same plan
     *  as no deadline. */
    double deadlineMs = 0.0;

    /** Optional cross-job trial cache (not owned; nullptr = each
     *  plan keeps its private per-driver cache).  Entries are scoped
     *  by a (topology, model, partition, schedule) content digest,
     *  so a long-lived daemon can keep one TrialCache resident and
     *  repeated planning requests hit it without any risk of
     *  cross-job contamination.  The cache is purely a wall-clock
     *  optimization: plans and reports stay byte-identical. */
    TrialCache *sharedCache = nullptr;

    MapperConfig mapper;
};

/** Per-strategy accounting of one refinement race, in strategy
 *  order (index 0 is always the greedy wavefront). */
struct StrategyStats
{
    std::string name;             ///< stable strategy name
    std::uint64_t proposed = 0;   ///< trials contributed to wavefronts
    std::uint64_t committed = 0;  ///< improvements it accepted
    double bestScore = 0.0;       ///< best verified samples/sec found
    bool exhausted = false;       ///< retired before the race ended
};

/** Output of a profiling run. */
struct ProfileResult
{
    runtime::TrainingReport report;   ///< includes the liveness table
    std::vector<Bytes> stagePeak;     ///< peak per stage
    Bytes usableCapacity = 0;         ///< per-GPU capacity after
                                      ///< workspace reserve
};

/** Run one uncompacted, OOM-tolerant iteration and collect stats.
 *  The run records liveness but never a trace (exec_cfg.record is
 *  ignored). */
ProfileResult profileJob(const hw::Topology &topo,
                         const model::TransformerModel &mdl,
                         const partition::Partition &part,
                         const pipeline::Schedule &sched,
                         runtime::ExecutorConfig exec_cfg = {});

/** Result of planning. */
struct PlanResult
{
    compaction::CompactionPlan plan;
    /** The report of the plan's emulated run; never recorded
     *  (planning ignores ExecutorConfig::record). */
    runtime::TrainingReport finalReport;
    MappingResult mapping;
    int iterations = 0;
    bool feasible = false;  ///< final emulated run completed w/o OOM

    /** Static verification of the returned plan.  Refinement steps
     *  whose trial plan fails verification are rejected, so a
     *  feasible result always satisfies verification.ok(). */
    verify::Report verification;

    /** Trial-cache counters of the emulator-feedback search (hits
     *  come only from genuinely repeated trials; zero when
     *  PlannerConfig::trialCache is off or planning ended before the
     *  refine loop). */
    std::uint64_t trialCacheHits = 0;
    std::uint64_t trialCacheMisses = 0;

    /** Times the executor's high-water policy released a worker
     *  arena's retained slabs during this search (long-lived daemons
     *  surface the counter through the serve stats endpoint). */
    std::uint64_t arenaShrinks = 0;

    /** Machine-checkable certificate of the returned plan from the
     *  static analyzer: per-GPU peak-memory intervals, host-memory
     *  interval, a critical-path latency lower bound, and a
     *  throughput upper bound.  Always computed (cheap); valid=false
     *  only when the tuple is structurally broken. */
    analysis::AnalysisCertificate certificate;

    /** Index of the strategy whose plan won the refinement race
     *  (0 = greedy wavefront; -1 when planning returned before the
     *  race, e.g. no overflow or an infeasible seed). */
    int winnerStrategy = -1;

    /** Per-strategy race accounting (empty when the race never
     *  ran). */
    std::vector<StrategyStats> strategyStats;
};

/** Full MPress planning: all three techniques + device mapping. */
PlanResult planMPress(const hw::Topology &topo,
                      const model::TransformerModel &mdl,
                      const partition::Partition &part,
                      const pipeline::Schedule &sched,
                      PlannerConfig cfg = {},
                      runtime::ExecutorConfig exec_cfg = {});

/** MPress restricted to D2D swap only (the Fig. 7 ablation variant).
 *  Infeasible (OOM) when spare memory cannot absorb the overflow. */
PlanResult planD2dOnly(const hw::Topology &topo,
                       const model::TransformerModel &mdl,
                       const partition::Partition &part,
                       const pipeline::Schedule &sched,
                       PlannerConfig cfg = {},
                       runtime::ExecutorConfig exec_cfg = {});

/** Baseline: recompute every activation (no swaps). */
compaction::CompactionPlan
recomputeAllPlan(const partition::Partition &part);

/** Baseline: GPU-CPU swap every activation and offload optimizer
 *  state on every stage. */
compaction::CompactionPlan
gpuCpuSwapAllPlan(const partition::Partition &part);

} // namespace planner
} // namespace mpress

#endif // MPRESS_PLANNER_PLANNER_HH
