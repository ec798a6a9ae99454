/**
 * @file
 * Anytime portfolio refinement: heterogeneous search strategies
 * racing on one shared emulator-feedback SearchDriver.
 *
 * The planner's refine loop (Fig. 5) is a sequence of trial batches
 * scored by emulated iterations.  Instead of hard-coding one greedy
 * schedule, the race groups strategies behind a small interface —
 * propose a wavefront of trial plans, observe the outcomes — and
 * evaluates the concatenation of every active strategy's proposals as
 * ONE concurrent batch per round.  Heterogeneity is the point: the
 * greedy flip ladder exploits, the simulated-annealing walker escapes
 * its plateaus, and the analysis-guided best-first explorer spends
 * certificates (throughput upper bounds) instead of emulations to
 * rank where to look next.
 *
 * Sharing one SearchDriver means strategies cooperate through the
 * trial cache — a plan one strategy already emulated is a cache hit
 * for another — and through the shared best-so-far score (an atomic,
 * readable mid-round by concurrent evaluation callbacks), which the
 * best-first explorer uses to discard frontier nodes whose
 * certificate bound proves they can never win the race.
 *
 * Determinism contract: trial generation and outcome observation run
 * serially between wavefronts; only the evaluation inside
 * SearchDriver fans out.  Every strategy is deterministic (the
 * annealer's RNG is fixed-seeded and its Metropolis draws depend only
 * on trial outcomes, which are pure), and the winner is picked by the
 * fixed (best verified throughput, lowest strategy index) rule — so
 * the race returns a byte-identical plan for every thread count and
 * with the trial cache on or off.  A wall-clock deadline is the only
 * nondeterministic input, and it is opt-in: deadlineMs=0 never stops
 * early, and any deadline that never fires leaves the result
 * unchanged.
 */

#ifndef MPRESS_PLANNER_PORTFOLIO_HH
#define MPRESS_PLANNER_PORTFOLIO_HH

#include <vector>

#include "planner/planner.hh"

namespace mpress {
namespace planner {

/** One assignable activation class with its planning statistics.
 *  Produced by the seeder from the profile; every refinement
 *  strategy evolves its own copy of the per-stage candidate table. */
struct Candidate
{
    memory::TensorRef ref;
    Bytes stash = 0;    ///< bytes per instance
    Bytes savings = 0;  ///< stash x in-flight instances
    Tick interval = 0;  ///< observed min live interval
    Tick recomputeExtra = 0;
    Tick gpuCpuExtra = 0;
    compaction::Kind chosen = compaction::Kind::None;

    Tick
    chosenExtra() const
    {
        switch (chosen) {
          case compaction::Kind::Recompute:
            return recomputeExtra;
          case compaction::Kind::GpuCpuSwap:
            return gpuCpuExtra;
          default:
            return 0;
        }
    }
};

/** The mutable compaction state a strategy evolves: the per-class
 *  technique choices plus the stage-level offload switches.  The
 *  device mapping is fixed race-wide (re-mapping happens before the
 *  race), so it is not part of the state. */
struct PlanState
{
    std::vector<std::vector<Candidate>> candidates;  ///< per stage
    std::vector<bool> offloadOpt;
    std::vector<bool> offloadStash;
};

/** Build a CompactionPlan from candidate choices + mapping. */
compaction::CompactionPlan
materializePlan(const std::vector<std::vector<Candidate>> &per_stage,
                const std::vector<bool> &offload_opt,
                const std::vector<bool> &offload_stash,
                const MappingResult &mapping, bool d2d_striping);

/** PlanState convenience overload. */
compaction::CompactionPlan
materializePlan(const PlanState &state, const MappingResult &mapping,
                bool d2d_striping);

/** Outcome of the refinement race: the winning strategy's best plan
 *  (never worse than the seed — every strategy starts from it). */
struct RaceResult
{
    compaction::CompactionPlan plan;
    runtime::TrainingReport report;
    int winner = 0;      ///< strategy index (0 = greedy wavefront)
    int iterations = 0;  ///< winner's committed improvements
    std::vector<StrategyStats> stats;
};

/**
 * Run the refinement race from the seeded plan.
 *
 * With cfg.portfolio unset only the greedy wavefront runs — the race
 * loop then degenerates to the classic sequential refine loop (one
 * strategy, one wavefront per round) and returns its exact plan.
 * With cfg.portfolio set the annealer and the best-first explorer
 * join the race.  cfg.deadlineMs bounds the race wall-clock (checked
 * between rounds); the job description and mapping must outlive the
 * call.
 */
RaceResult
racePortfolio(SearchDriver &driver, const hw::Topology &topo,
              const model::TransformerModel &mdl,
              const partition::Partition &part,
              const pipeline::Schedule &sched,
              const MappingResult &mapping, const PlannerConfig &cfg,
              const PlanState &seed_state,
              const compaction::CompactionPlan &seed_plan,
              const runtime::TrainingReport &seed_report);

} // namespace planner
} // namespace mpress

#endif // MPRESS_PLANNER_PORTFOLIO_HH
