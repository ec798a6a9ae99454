/**
 * @file
 * Inter-operator pipeline schedules.
 *
 * A Schedule is a static task DAG for a window of training: forward /
 * backward tasks per (stage, microbatch) plus per-stage optimizer
 * steps.  Cross-stage data dependencies (activation and gradient
 * hand-offs) are explicit edges; within a stage, execution follows the
 * per-stage order list, which is how 1F1B policies are expressed.
 *
 * Three generators are provided:
 *  - PipeDream: asynchronous 1F1B; minibatches overlap and stages
 *    stash one weight version per in-flight minibatch (Fig. 1a);
 *  - DAPPLE: synchronous early-backward 1F1B with a pipeline flush
 *    and optimizer step at every minibatch boundary (Fig. 1b);
 *  - GPipe: synchronous fill-drain (all forwards, then all
 *    backwards), included as an extension point.
 */

#ifndef MPRESS_PIPELINE_SCHEDULE_HH
#define MPRESS_PIPELINE_SCHEDULE_HH

#include <string>
#include <vector>

namespace mpress {
namespace pipeline {

/** Kinds of schedulable pipeline work. */
enum class TaskKind
{
    Forward,
    Backward,
    OptimStep,
};

/** One schedulable unit of pipeline work. */
struct Task
{
    int id = -1;
    TaskKind kind = TaskKind::Forward;
    int stage = 0;
    int microbatch = -1;  ///< global microbatch index (-1 for opt)
    int minibatch = 0;
    /** Cross-stage dependencies (task ids) that must complete before
     *  this task may start; same-stage ordering is implied by the
     *  per-stage order list instead. */
    std::vector<int> deps;
};

/** Scheduling policy identifier. */
enum class SystemKind
{
    PipeDream,
    Dapple,
    Gpipe,
};

/** Returns a display name for @p kind. */
const char *systemKindName(SystemKind kind);

/**
 * A complete static schedule for a training window.
 */
struct Schedule
{
    std::string name;
    SystemKind system = SystemKind::PipeDream;
    int numStages = 0;
    int microbatchesPerMinibatch = 0;
    int numMinibatches = 0;
    /** PipeDream-style asynchronous scheduling: stages stash one
     *  weight version per in-flight minibatch. */
    bool weightStashing = false;

    std::vector<Task> tasks;
    /** Execution order of task ids on each stage's device. */
    std::vector<std::vector<int>> perStageOrder;

    /** O(1) lookup tables for fwdId()/bwdId(), stage-major with
     *  stride totalMicrobatches(); -1 marks an absent task.  Built by
     *  buildIndex() (the builders call it); when empty — hand-built
     *  schedules in tests — the lookups fall back to a linear scan of
     *  the stage order.  The executor resolves a task id per task
     *  completion, so without the index the resolution cost scales
     *  with the per-stage task count and planning walls grow
     *  superlinearly in cluster size. */
    std::vector<int> fwdIndex;
    std::vector<int> bwdIndex;

    /** (Re)build fwdIndex/bwdIndex from tasks. */
    void buildIndex();

    int totalMicrobatches() const
    {
        return microbatchesPerMinibatch * numMinibatches;
    }

    const Task &task(int id) const { return tasks.at(id); }

    /** Task id of Forward(stage, mb); -1 if absent. */
    int fwdId(int stage, int mb) const;

    /** Task id of Backward(stage, mb); -1 if absent. */
    int bwdId(int stage, int mb) const;

    /**
     * Maximum number of microbatches whose forward has run on
     * @p stage but whose backward has not yet completed, under this
     * schedule's per-stage order (i.e. the activation stash depth).
     */
    int maxInFlight(int stage) const;

    /**
     * Number of weight versions stage @p stage must hold: 1 without
     * weight stashing; with stashing, one per minibatch that can be
     * simultaneously in flight.
     */
    int weightVersions(int stage) const;

    /** Validate internal consistency; panics on malformed schedules
     *  (used by tests and the rewriter). */
    void validate() const;
};

/**
 * Build a PipeDream asynchronous 1F1B schedule.
 *
 * @param num_stages  pipeline depth (== GPUs)
 * @param mb_per_mini microbatches per minibatch
 * @param minibatches number of minibatches in the window
 */
Schedule buildPipeDream(int num_stages, int mb_per_mini,
                        int minibatches);

/** Build a DAPPLE synchronous early-backward schedule. */
Schedule buildDapple(int num_stages, int mb_per_mini, int minibatches);

/** Build a GPipe fill-drain schedule. */
Schedule buildGpipe(int num_stages, int mb_per_mini, int minibatches);

/** Dispatch on @p kind. */
Schedule buildSchedule(SystemKind kind, int num_stages, int mb_per_mini,
                       int minibatches);

} // namespace pipeline
} // namespace mpress

#endif // MPRESS_PIPELINE_SCHEDULE_HH
