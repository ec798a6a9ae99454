/**
 * @file
 * Static verification of execution plans (a linter plus race/deadlock
 * detector for `(Model, Partition, Topology, Schedule, CompactionPlan)`
 * tuples).
 *
 * The planner emits a CompactionPlan and a pipeline Schedule that the
 * executor replays blindly; a malformed tuple — a D2D grant that
 * overcommits an importer's spare memory, a backward ordered before
 * the forward whose stash it consumes, a cyclic task DAG — otherwise
 * surfaces only as a crash or silently-wrong simulated throughput deep
 * inside the event loop.  verifyPlan() proves the cheap-to-check
 * invariants *before* execution and returns a structured diagnostic
 * list instead of panicking, so callers (planner refinement, session
 * plan loading, the mpress_verify CLI) can reject bad inputs with an
 * actionable report.
 *
 * Rule catalog (stable string ids via ruleName()):
 *
 *   Schedule structure
 *     sched-shape         counts/ids/order lists internally consistent
 *     sched-missing-task  every (stage, microbatch) has fwd and bwd
 *     sched-missing-dep   fwd/bwd carry their cross-stage dependency
 *     sched-dep-range     dependency ids reference existing tasks
 *     sched-cycle         task DAG + per-stage orders are acyclic
 *     sched-order-hazard  a backward ordered before its forward
 *     sched-fabric-path   cross-stage edge with no direct NVLink path
 *   Device mapping
 *     map-shape           stageToGpu sized to the stage count
 *     map-device-range    mapped GPU indices exist in the topology
 *     map-duplicate       two stages share one GPU (interleaving)
 *   Capacity (read analysis::boundMemory()'s peak intervals)
 *     cap-stage-overflow  a GPU's peak lower bound exceeds usable
 *                         capacity: the plan provably OOMs
 *     cap-host-overflow   pinned-host demand upper bound exceeds DRAM
 *     cap-unproven        a GPU's peak upper bound exceeds capacity:
 *                         the plan may OOM (Options::analysis)
 *   D2D spare grants
 *     d2d-self-grant      a GPU lends spare memory to itself
 *     d2d-grant-range     grant names an unknown GPU / negative bytes
 *     d2d-unreachable     importer not NVLink-reachable from exporter
 *     d2d-overcommit      grants exceed the importer's spare above
 *                         its peak lower bound
 *     d2d-grant-cycle     exporter/importer grant cycle
 *     d2d-orphan-grant    grants on a GPU with no D2D-swapped class
 *     d2d-no-grant        D2D-swapped class with no grant to draw on
 *   Swap hazards
 *     swap-unknown-tensor plan names a tensor outside the partition
 *     swap-empty-class    technique assigned to a zero-byte stash
 *     swap-interval-tight PCIe round trips exceed the hiding budget
 *     d2d-nic-infeasible  cross-node D2D stripes exceed the NIC
 *                         hiding budget (the grant ledger assumes
 *                         intra-node bandwidth across a NIC link)
 *   Config shape
 *     cfg-shape           offload vectors not sized to stage count
 *     cfg-stash-sync      stash offload on a non-stashing schedule
 *   Fault schedules (verifyScenario)
 *     fault-time-range    negative start or empty/inverted window
 *     fault-resource-range unknown GPU / link ids for the event kind
 *     fault-value-range   non-positive factor, probability outside
 *                         [0,1], non-positive pressure bytes
 *     fault-overlap       two windows of one kind overlap on one
 *                         resource
 *   Cluster specs (verifyClusterSpec)
 *     cluster-node-range  node count outside [1, 64] or unknown
 *                         node preset
 *     cluster-link-range  NIC count/bandwidth/latency outside sane
 *                         ranges or unknown NIC preset
 *     cluster-duplicate-id two nodes share one display id
 *
 * Severities: structural rules are errors (the executor would abort,
 * deadlock, or misaccount); heuristic/performance rules are warnings,
 * promoted to errors by Options::strict.
 */

#ifndef MPRESS_VERIFY_VERIFY_HH
#define MPRESS_VERIFY_VERIFY_HH

#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "compaction/plan.hh"
#include "fault/scenario.hh"
#include "hw/topology.hh"
#include "memory/liveness.hh"
#include "model/model.hh"
#include "partition/partition.hh"
#include "pipeline/schedule.hh"

namespace mpress {
namespace verify {

using util::Bytes;

/** Diagnostic severity; errors make Report::ok() false. */
enum class Severity
{
    Warning,
    Error,
};

/** Returns "warning" or "error". */
const char *severityName(Severity s);

/** Every check the verifier performs (see file header for the
 *  catalog).  ruleName() yields the stable kebab-case id. */
enum class Rule
{
    SchedShape,
    SchedMissingTask,
    SchedMissingDep,
    SchedDepRange,
    SchedCycle,
    SchedOrderHazard,
    SchedFabricPath,
    MapShape,
    MapDeviceRange,
    MapDuplicate,
    CapStageOverflow,
    CapHostOverflow,
    CapUnproven,
    D2dSelfGrant,
    D2dGrantRange,
    D2dUnreachable,
    D2dOvercommit,
    D2dGrantCycle,
    D2dOrphanGrant,
    D2dNoGrant,
    SwapUnknownTensor,
    SwapEmptyClass,
    SwapIntervalTight,
    D2dNicInfeasible,
    CfgShape,
    CfgStashSync,
    FaultTimeRange,
    FaultResourceRange,
    FaultValueRange,
    FaultOverlap,
    ClusterNodeRange,
    ClusterLinkRange,
    ClusterDuplicateId,
};

/** Stable string id of @p rule, e.g. "sched-cycle". */
const char *ruleName(Rule rule);

/** Built-in severity of @p rule (before strict promotion). */
Severity defaultSeverity(Rule rule);

/**
 * One finding: what went wrong, where, and how to fix it.
 *
 * Location fields are -1 / {-1, -1} when not applicable.
 */
struct Diagnostic
{
    Severity severity = Severity::Error;
    Rule rule = Rule::SchedShape;
    int stage = -1;                     ///< offending pipeline stage
    int gpu = -1;                       ///< offending GPU
    int task = -1;                      ///< offending schedule task id
    memory::TensorRef tensor{-1, -1};   ///< offending tensor class
    std::string message;                ///< what is wrong
    std::string hint;                   ///< how to fix it
};

/** Verifier tunables. */
struct Options
{
    /** Promote heuristic warnings to errors (verify-on-load in
     *  strict sessions). */
    bool strict = false;

    /** Cap on reported findings per rule; further instances are
     *  counted but suppressed (0 = unlimited). */
    int maxDiagsPerRule = 16;

    /** Also judge the peak-memory upper bounds: cap-unproven when a
     *  GPU's upper bound exceeds capacity while its lower bound does
     *  not.  Off by default — the interval bounds are deliberately
     *  conservative and most workable compaction plans sit between
     *  the two. */
    bool analysis = false;

    bool operator==(const Options &) const = default;
};

/**
 * The result of a verification pass: the diagnostic list plus
 * rendering and query helpers.
 */
class Report
{
  public:
    /** Append @p diag, honoring the per-rule suppression cap. */
    void add(Diagnostic diag);

    const std::vector<Diagnostic> &diagnostics() const
    {
        return _diags;
    }

    int errorCount() const;
    int warningCount() const;

    /** True when no error-severity diagnostics were recorded. */
    bool ok() const { return errorCount() == 0; }

    /** True when nothing at all was flagged. */
    bool clean() const { return _diags.empty() && _suppressed == 0; }

    /** True if any diagnostic (of either severity) names @p rule. */
    bool hasRule(Rule rule) const;

    /** First diagnostic naming @p rule; nullptr if absent. */
    const Diagnostic *findRule(Rule rule) const;

    /** Findings dropped by the per-rule cap. */
    int suppressedCount() const { return _suppressed; }

    /** Render the findings as an aligned text table. */
    std::string render() const;

    /** One-line summary, e.g. "2 errors, 1 warning". */
    std::string summary() const;

    /** Used by the verifiers to honor Options::maxDiagsPerRule. */
    void setPerRuleCap(int cap) { _perRuleCap = cap; }

  private:
    std::vector<Diagnostic> _diags;
    std::vector<int> _perRuleCount;
    int _perRuleCap = 0;
    int _suppressed = 0;
};

/**
 * Verify the structural invariants of @p sched alone (shape, task
 * completeness, dependency sanity, acyclicity, intra-stage ordering
 * hazards).  Never panics on malformed input — every violation
 * becomes a diagnostic.
 */
Report verifySchedule(const pipeline::Schedule &sched);

/**
 * Verifies many plans of one job, checking the job's schedule once.
 *
 * The schedule rules (sched-shape, sched-missing-task,
 * sched-missing-dep, sched-dep-range, sched-cycle, sched-order-hazard)
 * and the partition/schedule depth check read only the job and the
 * strictness, so the constructor runs them; it also collects the
 * cross-stage dependency edges that sched-fabric-path maps onto GPUs.
 * check() adds the plan rules and yields exactly verifyPlan()'s
 * report.  A planner search builds one verifier and its workers call
 * check() concurrently: it is const and shares nothing mutable.  The
 * job objects are borrowed and must outlive the verifier.
 */
class PlanVerifier
{
  public:
    PlanVerifier(const hw::Topology &topo,
                 const model::TransformerModel &mdl,
                 const partition::Partition &part,
                 const pipeline::Schedule &sched,
                 const Options &opts = {});

    /** The job's findings followed by @p plan's. */
    Report check(const compaction::CompactionPlan &plan) const;

    /** A cross-stage dependency edge: task `task` on stage `to`
     *  depends on a task of stage `from`. */
    struct StageEdge
    {
        int from;
        int to;
        int task;
    };

  private:
    const hw::Topology &_topo;
    const model::TransformerModel &_mdl;
    const partition::Partition &_part;
    const pipeline::Schedule &_sched;
    Options _opts;
    /** The findings on the job alone; every check() starts from a
     *  copy. */
    Report _jobReport;
    bool _structureOk = false;
    bool _depsSound = false;
    bool _stagesAgree = false;
    /** First edge of each (from, to) stage pair, in task and
     *  dependency order (only with sound dependencies). */
    std::vector<StageEdge> _stageEdges;
};

/**
 * Verify a complete execution tuple before running it.
 *
 * Checks everything verifySchedule() checks, then the device mapping
 * against @p topo, @p plan's peak-memory bounds
 * (analysis::boundMemory()) against the per-GPU and host budgets, D2D
 * spare-grant soundness, swap hazards, and config shape.  Analyses
 * that depend on broken structure (e.g. capacity on an inconsistent
 * mapping or on grants naming unknown GPUs) are skipped rather than
 * run on garbage.
 * Same as PlanVerifier(topo, mdl, part, sched, opts).check(plan).
 */
Report verifyPlan(const hw::Topology &topo,
                  const model::TransformerModel &mdl,
                  const partition::Partition &part,
                  const pipeline::Schedule &sched,
                  const compaction::CompactionPlan &plan,
                  const Options &opts = {});

/**
 * Verify a fault scenario against @p topo before injecting it:
 * window sanity (fault-time-range), endpoint existence for the event
 * kind (fault-resource-range), value ranges (fault-value-range), and
 * same-kind window overlap on one resource (fault-overlap).  The
 * executor replays scenarios blindly — a malformed schedule would
 * otherwise surface as a panic or silently-wrong degraded throughput.
 */
Report verifyScenario(const hw::Topology &topo,
                      const fault::Scenario &scenario,
                      const Options &opts = {});

/**
 * Verify a cluster spec before building a topology from it: node
 * count and preset existence (cluster-node-range), NIC count /
 * bandwidth / latency ranges and preset existence
 * (cluster-link-range), and display-id uniqueness
 * (cluster-duplicate-id).  buildCluster() panics on malformed specs,
 * so every untrusted spec (CLI --cluster files, mpress-serve job
 * fields) must pass through here first.
 */
Report verifyClusterSpec(const cluster::ClusterSpec &spec,
                         const Options &opts = {});

} // namespace verify
} // namespace mpress

#endif // MPRESS_VERIFY_VERIFY_HH
