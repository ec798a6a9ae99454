#include "verify/verify.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "analysis/analyzer.hh"
#include "compaction/striping.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace mpress {
namespace verify {

using compaction::CompactionPlan;
using compaction::Kind;
using compaction::SpareGrant;
using memory::TensorRef;
using pipeline::Schedule;
using pipeline::Task;
using pipeline::TaskKind;
using util::strformat;

const char *
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

const char *
ruleName(Rule rule)
{
    switch (rule) {
      case Rule::SchedShape:
        return "sched-shape";
      case Rule::SchedMissingTask:
        return "sched-missing-task";
      case Rule::SchedMissingDep:
        return "sched-missing-dep";
      case Rule::SchedDepRange:
        return "sched-dep-range";
      case Rule::SchedCycle:
        return "sched-cycle";
      case Rule::SchedOrderHazard:
        return "sched-order-hazard";
      case Rule::SchedFabricPath:
        return "sched-fabric-path";
      case Rule::MapShape:
        return "map-shape";
      case Rule::MapDeviceRange:
        return "map-device-range";
      case Rule::MapDuplicate:
        return "map-duplicate";
      case Rule::CapStageOverflow:
        return "cap-stage-overflow";
      case Rule::CapHostOverflow:
        return "cap-host-overflow";
      case Rule::CapUnproven:
        return "cap-unproven";
      case Rule::D2dSelfGrant:
        return "d2d-self-grant";
      case Rule::D2dGrantRange:
        return "d2d-grant-range";
      case Rule::D2dUnreachable:
        return "d2d-unreachable";
      case Rule::D2dOvercommit:
        return "d2d-overcommit";
      case Rule::D2dGrantCycle:
        return "d2d-grant-cycle";
      case Rule::D2dOrphanGrant:
        return "d2d-orphan-grant";
      case Rule::D2dNoGrant:
        return "d2d-no-grant";
      case Rule::SwapUnknownTensor:
        return "swap-unknown-tensor";
      case Rule::SwapEmptyClass:
        return "swap-empty-class";
      case Rule::SwapIntervalTight:
        return "swap-interval-tight";
      case Rule::D2dNicInfeasible:
        return "d2d-nic-infeasible";
      case Rule::CfgShape:
        return "cfg-shape";
      case Rule::CfgStashSync:
        return "cfg-stash-sync";
      case Rule::FaultTimeRange:
        return "fault-time-range";
      case Rule::FaultResourceRange:
        return "fault-resource-range";
      case Rule::FaultValueRange:
        return "fault-value-range";
      case Rule::FaultOverlap:
        return "fault-overlap";
      case Rule::ClusterNodeRange:
        return "cluster-node-range";
      case Rule::ClusterLinkRange:
        return "cluster-link-range";
      case Rule::ClusterDuplicateId:
        return "cluster-duplicate-id";
    }
    return "?";
}

Severity
defaultSeverity(Rule rule)
{
    switch (rule) {
      // Heuristic / performance findings: the executor survives them
      // (graceful degradation or host bounce), but throughput or
      // memory headroom suffers.
      case Rule::SchedFabricPath:
      case Rule::MapDuplicate:
      case Rule::CapHostOverflow:
      case Rule::CapUnproven:
      case Rule::D2dOvercommit:
      case Rule::D2dGrantCycle:
      case Rule::D2dOrphanGrant:
      case Rule::D2dNoGrant:
      case Rule::SwapEmptyClass:
      case Rule::SwapIntervalTight:
      case Rule::D2dNicInfeasible:
      case Rule::CfgStashSync:
        return Severity::Warning;
      default:
        return Severity::Error;
    }
}

namespace {

constexpr std::size_t kNumRules =
    static_cast<std::size_t>(Rule::ClusterDuplicateId) + 1;

} // namespace

void
Report::add(Diagnostic diag)
{
    if (_perRuleCount.empty())
        _perRuleCount.assign(kNumRules, 0);
    auto r = static_cast<std::size_t>(diag.rule);
    if (_perRuleCap > 0 && _perRuleCount[r] >= _perRuleCap) {
        ++_suppressed;
        return;
    }
    ++_perRuleCount[r];
    _diags.push_back(std::move(diag));
}

int
Report::errorCount() const
{
    int n = 0;
    for (const auto &d : _diags)
        n += d.severity == Severity::Error;
    return n;
}

int
Report::warningCount() const
{
    int n = 0;
    for (const auto &d : _diags)
        n += d.severity == Severity::Warning;
    return n;
}

bool
Report::hasRule(Rule rule) const
{
    return findRule(rule) != nullptr;
}

const Diagnostic *
Report::findRule(Rule rule) const
{
    for (const auto &d : _diags) {
        if (d.rule == rule)
            return &d;
    }
    return nullptr;
}

std::string
Report::render() const
{
    util::TextTable table(
        {"severity", "rule", "where", "message", "hint"});
    for (const auto &d : _diags) {
        std::vector<std::string> where;
        if (d.stage >= 0)
            where.push_back(strformat("stage %d", d.stage));
        if (d.gpu >= 0)
            where.push_back(strformat("gpu %d", d.gpu));
        if (d.task >= 0)
            where.push_back(strformat("task %d", d.task));
        if (d.tensor.stage >= 0 && d.tensor.layer >= 0)
            where.push_back(strformat("tensor %d.%d", d.tensor.stage,
                                      d.tensor.layer));
        table.addRow({severityName(d.severity), ruleName(d.rule),
                      where.empty() ? "-" : util::join(where, ", "),
                      d.message, d.hint});
    }
    std::ostringstream os;
    table.print(os);
    if (_suppressed > 0)
        os << strformat("(%d further findings suppressed)\n",
                        _suppressed);
    return os.str();
}

std::string
Report::summary() const
{
    int errors = errorCount();
    int warnings = warningCount();
    if (errors == 0 && warnings == 0 && _suppressed == 0)
        return "clean";
    std::string s = strformat("%d error%s, %d warning%s", errors,
                              errors == 1 ? "" : "s", warnings,
                              warnings == 1 ? "" : "s");
    if (_suppressed > 0)
        s += strformat(" (+%d suppressed)", _suppressed);
    return s;
}

namespace {

/** Builds a diagnostic fluently, adding it to the report when it goes
 *  out of scope. */
class Finding
{
  public:
    Finding(Report &report, bool strict, Rule rule)
        : _report(report)
    {
        _diag.rule = rule;
        _diag.severity = defaultSeverity(rule);
        if (strict)
            _diag.severity = Severity::Error;
    }

    ~Finding() { _report.add(std::move(_diag)); }

    Finding(const Finding &) = delete;
    Finding &operator=(const Finding &) = delete;

    Finding &msg(std::string m)
    {
        _diag.message = std::move(m);
        return *this;
    }

    Finding &hint(std::string h)
    {
        _diag.hint = std::move(h);
        return *this;
    }

    Finding &stage(int s)
    {
        _diag.stage = s;
        return *this;
    }

    Finding &gpu(int g)
    {
        _diag.gpu = g;
        return *this;
    }

    Finding &task(int t)
    {
        _diag.task = t;
        return *this;
    }

    Finding &tensor(TensorRef ref)
    {
        _diag.tensor = ref;
        return *this;
    }

  private:
    Report &_report;
    Diagnostic _diag;
};

/**
 * Schedule structure pass.  Returns true when the schedule is sound
 * enough (ids in range, orders consistent) for the downstream
 * analyses to index into it safely.
 */
bool
checkScheduleStructure(const Schedule &sched, Report &report,
                       bool strict)
{
    auto finding = [&](Rule rule) {
        return Finding(report, strict, rule);
    };

    bool sane = true;
    const auto num_tasks = static_cast<int>(sched.tasks.size());

    if (sched.numStages <= 0 || sched.microbatchesPerMinibatch <= 0 ||
        sched.numMinibatches <= 0) {
        finding(Rule::SchedShape)
            .msg(strformat("degenerate shape: %d stages, %d mb/mini,"
                           " %d minibatches",
                           sched.numStages,
                           sched.microbatchesPerMinibatch,
                           sched.numMinibatches))
            .hint("all schedule dimensions must be positive");
        return false;
    }
    if (static_cast<int>(sched.perStageOrder.size()) !=
        sched.numStages) {
        finding(Rule::SchedShape)
            .msg(strformat("%zu per-stage order lists for %d stages",
                           sched.perStageOrder.size(),
                           sched.numStages))
            .hint("emit exactly one order list per stage");
        return false;
    }

    for (int id = 0; id < num_tasks; ++id) {
        const Task &t = sched.tasks[static_cast<std::size_t>(id)];
        if (t.id != id) {
            finding(Rule::SchedShape)
                .task(id)
                .msg(strformat("task at index %d carries id %d", id,
                               t.id))
                .hint("task ids must equal their index in tasks[]");
            sane = false;
        }
        if (t.stage < 0 || t.stage >= sched.numStages) {
            finding(Rule::SchedShape)
                .task(id)
                .msg(strformat("task %d names stage %d of %d", id,
                               t.stage, sched.numStages))
                .hint("stage indices must fit the pipeline depth");
            sane = false;
        }
    }
    if (!sane)
        return false;

    std::vector<int> seen(static_cast<std::size_t>(num_tasks), 0);
    for (int s = 0; s < sched.numStages; ++s) {
        for (int id : sched.perStageOrder[static_cast<std::size_t>(s)]) {
            if (id < 0 || id >= num_tasks) {
                finding(Rule::SchedShape)
                    .stage(s)
                    .msg(strformat("stage %d order references task %d"
                                   " (have %d tasks)",
                                   s, id, num_tasks))
                    .hint("order lists may only name existing tasks");
                sane = false;
                continue;
            }
            const Task &t = sched.tasks[static_cast<std::size_t>(id)];
            if (t.stage != s) {
                finding(Rule::SchedShape)
                    .stage(s)
                    .task(id)
                    .msg(strformat("task %d (stage %d) listed in"
                                   " stage %d's order",
                                   id, t.stage, s))
                    .hint("per-stage orders are per-device run"
                          " queues; a task runs on its own stage");
                sane = false;
                continue;
            }
            ++seen[static_cast<std::size_t>(id)];
        }
    }
    for (int id = 0; id < num_tasks; ++id) {
        if (seen[static_cast<std::size_t>(id)] != 1) {
            finding(Rule::SchedShape)
                .task(id)
                .msg(strformat("task %d appears %d times across stage"
                               " orders",
                               id, seen[static_cast<std::size_t>(id)]))
                .hint("every task must be ordered exactly once — the"
                      " order lists are permutations of the per-stage"
                      " task sets");
            sane = false;
        }
    }
    return sane;
}

/** Dependency-range pass; returns true when all dep ids resolve. */
bool
checkDepRanges(const Schedule &sched, Report &report, bool strict)
{
    bool sound = true;
    const auto num_tasks = static_cast<int>(sched.tasks.size());
    for (const Task &t : sched.tasks) {
        for (int dep : t.deps) {
            if (dep < 0 || dep >= num_tasks) {
                Finding(report, strict, Rule::SchedDepRange)
                    .task(t.id)
                    .stage(t.stage)
                    .msg(strformat("task %d depends on nonexistent"
                                   " task %d",
                                   t.id, dep))
                    .hint("dependencies must name tasks in this"
                          " schedule");
                sound = false;
            }
        }
    }
    return sound;
}

/** (stage, microbatch) -> task id lookup tables built without
 *  panicking on malformed schedules. */
struct TaskTables
{
    std::vector<std::vector<int>> fwd;  // [stage][mb]
    std::vector<std::vector<int>> bwd;

    TaskTables(const Schedule &sched)
    {
        const int M = sched.totalMicrobatches();
        fwd.assign(static_cast<std::size_t>(sched.numStages),
                   std::vector<int>(static_cast<std::size_t>(M), -1));
        bwd = fwd;
        for (const Task &t : sched.tasks) {
            if (t.microbatch < 0 || t.microbatch >= M)
                continue;
            auto s = static_cast<std::size_t>(t.stage);
            auto m = static_cast<std::size_t>(t.microbatch);
            if (t.kind == TaskKind::Forward && fwd[s][m] < 0)
                fwd[s][m] = t.id;
            else if (t.kind == TaskKind::Backward && bwd[s][m] < 0)
                bwd[s][m] = t.id;
        }
    }
};

/** Task-completeness and cross-stage dependency pass. */
void
checkTaskCompleteness(const Schedule &sched, const TaskTables &tables,
                      Report &report, bool strict)
{
    const int M = sched.totalMicrobatches();
    for (int s = 0; s < sched.numStages; ++s) {
        for (int m = 0; m < M; ++m) {
            auto si = static_cast<std::size_t>(s);
            auto mi = static_cast<std::size_t>(m);
            if (tables.fwd[si][mi] < 0) {
                Finding(report, strict, Rule::SchedMissingTask)
                    .stage(s)
                    .msg(strformat("no forward task for (stage %d,"
                                   " microbatch %d)",
                                   s, m))
                    .hint("every microbatch must traverse every"
                          " stage");
            }
            if (tables.bwd[si][mi] < 0) {
                Finding(report, strict, Rule::SchedMissingTask)
                    .stage(s)
                    .msg(strformat("no backward task for (stage %d,"
                                   " microbatch %d)",
                                   s, m))
                    .hint("every forward needs its backward — the"
                          " stash it leaves behind is otherwise never"
                          " released");
            }
        }
    }

    // Cross-stage dependency completeness: a forward needs the
    // upstream forward's boundary activation; a backward needs the
    // downstream backward's gradient (or, on the last stage, its own
    // forward).
    auto has_dep = [](const Task &t, int dep) {
        return dep >= 0 && std::find(t.deps.begin(), t.deps.end(),
                                     dep) != t.deps.end();
    };
    for (const Task &t : sched.tasks) {
        if (t.microbatch < 0 || t.microbatch >= M)
            continue;
        auto mi = static_cast<std::size_t>(t.microbatch);
        if (t.kind == TaskKind::Forward && t.stage > 0) {
            int need =
                tables.fwd[static_cast<std::size_t>(t.stage - 1)][mi];
            if (!has_dep(t, need)) {
                Finding(report, strict, Rule::SchedMissingDep)
                    .task(t.id)
                    .stage(t.stage)
                    .msg(strformat("fwd(%d, %d) does not depend on"
                                   " fwd(%d, %d)",
                                   t.stage, t.microbatch, t.stage - 1,
                                   t.microbatch))
                    .hint("without the edge the executor would run"
                          " the layer before its input activation"
                          " arrives");
            }
        } else if (t.kind == TaskKind::Backward) {
            if (t.stage < sched.numStages - 1) {
                int need = tables.bwd[static_cast<std::size_t>(
                    t.stage + 1)][mi];
                if (!has_dep(t, need)) {
                    Finding(report, strict, Rule::SchedMissingDep)
                        .task(t.id)
                        .stage(t.stage)
                        .msg(strformat("bwd(%d, %d) does not depend"
                                       " on bwd(%d, %d)",
                                       t.stage, t.microbatch,
                                       t.stage + 1, t.microbatch))
                        .hint("the input gradient comes from the"
                              " downstream stage");
                }
            } else {
                int need =
                    tables.fwd[static_cast<std::size_t>(t.stage)][mi];
                if (!has_dep(t, need)) {
                    Finding(report, strict, Rule::SchedMissingDep)
                        .task(t.id)
                        .stage(t.stage)
                        .msg(strformat("last-stage bwd(%d, %d) does"
                                       " not depend on its forward",
                                       t.stage, t.microbatch))
                        .hint("the loss gradient exists only after"
                              " the forward completes");
                }
            }
        }
    }
}

/**
 * Acyclicity over the union of dependency edges and per-stage order
 * edges (consecutive entries in an order list are implicitly ordered
 * because each stage's device is a serial queue).
 */
void
checkAcyclicity(const Schedule &sched, Report &report, bool strict)
{
    const auto n = sched.tasks.size();
    std::vector<std::vector<int>> out(n);
    std::vector<int> indeg(n, 0);
    auto edge = [&](int from, int to) {
        out[static_cast<std::size_t>(from)].push_back(to);
        ++indeg[static_cast<std::size_t>(to)];
    };
    for (const Task &t : sched.tasks) {
        for (int dep : t.deps)
            edge(dep, t.id);
    }
    for (const auto &order : sched.perStageOrder) {
        for (std::size_t i = 0; i + 1 < order.size(); ++i)
            edge(order[i], order[i + 1]);
    }

    std::vector<int> ready;
    for (std::size_t id = 0; id < n; ++id) {
        if (indeg[id] == 0)
            ready.push_back(static_cast<int>(id));
    }
    std::size_t done = 0;
    while (!ready.empty()) {
        int id = ready.back();
        ready.pop_back();
        ++done;
        for (int nxt : out[static_cast<std::size_t>(id)]) {
            if (--indeg[static_cast<std::size_t>(nxt)] == 0)
                ready.push_back(nxt);
        }
    }
    if (done == n)
        return;

    // Name one task on a cycle to anchor the diagnostic.
    int sample = -1;
    for (std::size_t id = 0; id < n; ++id) {
        if (indeg[id] > 0) {
            sample = static_cast<int>(id);
            break;
        }
    }
    Finding(report, strict, Rule::SchedCycle)
        .task(sample)
        .stage(sample >= 0
                   ? sched.tasks[static_cast<std::size_t>(sample)]
                         .stage
                   : -1)
        .msg(strformat("%zu tasks form dependency/order cycles"
                       " (e.g. task %d)",
                       n - done, sample))
        .hint("the executor would deadlock: no stage cursor could"
              " ever pass the cycle");
}

/**
 * Intra-stage ordering hazards: a backward ordered before the forward
 * whose stash it consumes.  For swapped tensors this is the classic
 * use-before-swap-in race (the swap-out that populates the metadata
 * table only runs at forward completion); for resident tensors it is
 * a use of memory that was never allocated.
 */
void
checkOrderHazards(const Schedule &sched, Report &report, bool strict)
{
    for (int s = 0; s < sched.numStages; ++s) {
        std::set<int> fwd_seen;
        for (int id : sched.perStageOrder[static_cast<std::size_t>(s)]) {
            const Task &t = sched.tasks[static_cast<std::size_t>(id)];
            if (t.kind == TaskKind::Forward) {
                fwd_seen.insert(t.microbatch);
            } else if (t.kind == TaskKind::Backward &&
                       !fwd_seen.count(t.microbatch)) {
                Finding(report, strict, Rule::SchedOrderHazard)
                    .task(id)
                    .stage(s)
                    .msg(strformat("bwd(%d, %d) ordered before its"
                                   " forward",
                                   s, t.microbatch))
                    .hint("the backward would consume a stash (or"
                          " trigger a swap-in) that nothing has"
                          " produced yet");
            }
        }
    }
}

/**
 * Every schedule-only rule.  Returns true when the structure is sane
 * enough for the plan rules to index into the schedule; sets
 * @p deps_sound when, in addition, every dependency id resolves.
 */
bool
checkSchedule(const Schedule &sched, Report &report, bool strict,
              bool *deps_sound)
{
    *deps_sound = false;
    if (!checkScheduleStructure(sched, report, strict))
        return false;
    *deps_sound = checkDepRanges(sched, report, strict);
    TaskTables tables(sched);
    checkTaskCompleteness(sched, tables, report, strict);
    checkOrderHazards(sched, report, strict);
    if (*deps_sound)
        checkAcyclicity(sched, report, strict);
    return true;
}

/** Resolve the GPU hosting @p stage, assuming the mapping already
 *  passed shape/range checks. */
int
gpuForStage(const CompactionPlan &plan, int stage)
{
    if (plan.stageToGpu.empty())
        return stage;
    return plan.stageToGpu[static_cast<std::size_t>(stage)];
}

/**
 * Device-mapping pass.  Returns true when the stage->GPU assignment
 * is usable, which gates the capacity / D2D / fabric analyses.
 */
bool
checkMapping(const hw::Topology &topo, const Schedule &sched,
             const CompactionPlan &plan, Report &report, bool strict)
{
    const auto stages = static_cast<std::size_t>(sched.numStages);
    if (!plan.stageToGpu.empty() &&
        plan.stageToGpu.size() != stages) {
        Finding(report, strict, Rule::MapShape)
            .msg(strformat("stageToGpu has %zu entries for %d stages",
                           plan.stageToGpu.size(), sched.numStages))
            .hint("map every stage or leave the mapping empty for"
                  " identity");
        return false;
    }
    if (plan.stageToGpu.empty() &&
        sched.numStages > topo.numGpus()) {
        Finding(report, strict, Rule::MapShape)
            .msg(strformat("%d stages exceed %d GPUs with no explicit"
                           " mapping",
                           sched.numStages, topo.numGpus()))
            .hint("interleaved virtual stages require an explicit"
                  " stage-to-GPU mapping");
        return false;
    }

    bool usable = true;
    for (std::size_t s = 0; s < plan.stageToGpu.size(); ++s) {
        int gpu = plan.stageToGpu[s];
        if (gpu < 0 || gpu >= topo.numGpus()) {
            Finding(report, strict, Rule::MapDeviceRange)
                .stage(static_cast<int>(s))
                .gpu(gpu)
                .msg(strformat("stage %zu mapped to GPU %d of %d", s,
                               gpu, topo.numGpus()))
                .hint("mapped devices must exist in the topology");
            usable = false;
        }
    }
    if (!usable)
        return false;

    std::map<int, int> first_on_gpu;
    for (int s = 0; s < sched.numStages; ++s) {
        int gpu = gpuForStage(plan, s);
        auto [it, fresh] = first_on_gpu.emplace(gpu, s);
        if (!fresh) {
            Finding(report, strict, Rule::MapDuplicate)
                .stage(s)
                .gpu(gpu)
                .msg(strformat("stages %d and %d share GPU %d",
                               it->second, s, gpu))
                .hint("legal for interleaved virtual stages, but the"
                      " device then serializes both stages' compute"
                      " and carries both footprints");
        }
    }
    return true;
}

/** Cross-stage dependency edges that have no direct NVLink path under
 *  the mapping (the transfer bounces through host memory), one
 *  finding per GPU pair at its first edge.  An edge's GPU pair depends
 *  only on its stage pair, so @p edges, the first edge of each stage
 *  pair in task and dependency order, flag what every edge would. */
void
checkFabricPaths(const hw::Topology &topo,
                 const std::vector<PlanVerifier::StageEdge> &edges,
                 const CompactionPlan &plan, Report &report,
                 bool strict)
{
    std::set<std::pair<int, int>> flagged;
    for (const PlanVerifier::StageEdge &e : edges) {
        int a = gpuForStage(plan, e.from);
        int b = gpuForStage(plan, e.to);
        // pathLanes accepts NIC paths too: a cross-node stage boundary
        // is a real (if slower) direct path, not a host bounce.
        if (a == b || topo.pathLanes(a, b) > 0)
            continue;
        if (!flagged.emplace(std::min(a, b), std::max(a, b)).second)
            continue;
        Finding(report, strict, Rule::SchedFabricPath)
            .stage(e.to)
            .gpu(b)
            .task(e.task)
            .msg(strformat("stages %d->%d mapped to GPUs %d->%d"
                           " with no direct NVLink",
                           e.from, e.to, a, b))
            .hint("every boundary transfer bounces through host"
                  " memory over PCIe; prefer a mapping that keeps"
                  " consecutive stages NVLink-adjacent");
    }
}

/** Capacity pass over the plan's peak-memory bounds: one
 *  cap-stage-overflow per GPU whose lower bound exceeds usable
 *  capacity (at its first stage, in stage order), cap-host-overflow
 *  when the pinned-host upper bound exceeds host memory, and, with
 *  Options::analysis, cap-unproven for each GPU whose upper bound
 *  alone exceeds capacity. */
void
checkCapacity(const hw::Topology &topo,
              const partition::Partition &part,
              const CompactionPlan &plan,
              const analysis::MemoryBounds &bounds, bool analysis,
              Report &report, bool strict)
{
    const Bytes capacity = bounds.usableCapacity;
    std::vector<char> flagged(bounds.gpus.size(), 0);
    for (const auto &stage : part.stages) {
        const int gpu = gpuForStage(plan, stage.index);
        const auto g = static_cast<std::size_t>(gpu);
        const Bytes lower = bounds.gpus[g].lower;
        if (lower <= capacity || flagged[g])
            continue;
        flagged[g] = 1;
        Finding(report, strict, Rule::CapStageOverflow)
            .stage(stage.index)
            .gpu(gpu)
            .msg(strformat("peak >= %s on GPU %d exceeds usable"
                           " capacity %s: every run of this plan OOMs",
                           util::formatBytes(lower).c_str(), gpu,
                           util::formatBytes(capacity).c_str()))
            .hint("assign more activation classes to recompute or"
                  " swap, offload optimizer state, or rebalance the"
                  " partition");
    }

    Bytes host = topo.hostMemory();
    if (host > 0 && bounds.hostUpper > host) {
        Finding(report, strict, Rule::CapHostOverflow)
            .msg(strformat("pinned-host demand %s exceeds host"
                           " memory %s",
                           util::formatBytes(bounds.hostUpper).c_str(),
                           util::formatBytes(host).c_str()))
            .hint(topo.nvmeCapacity() > 0
                      ? "the overflow spills to NVMe at SSD"
                        " bandwidth"
                      : "swap-outs beyond the pool stay resident on"
                        " the GPU");
    }

    if (!analysis)
        return;
    for (const analysis::GpuMemoryBound &b : bounds.gpus) {
        if (b.lower > capacity || b.upper <= capacity)
            continue;
        Finding(report, strict, Rule::CapUnproven)
            .gpu(b.gpu)
            .msg(strformat("peak bound [%s, %s] straddles usable"
                           " capacity %s: cannot prove the plan fits",
                           util::formatBytes(b.lower).c_str(),
                           util::formatBytes(b.upper).c_str(),
                           util::formatBytes(capacity).c_str()))
            .hint("tighten swap hazard windows (more grant budget,"
                  " fewer swapped classes) to close the interval");
    }
}

/** D2D spare-grant soundness pass.  Overcommit needs the importers'
 *  peak bounds, so it is skipped when @p bounds is invalid. */
void
checkGrants(const hw::Topology &topo,
            const partition::Partition &part,
            const CompactionPlan &plan,
            const analysis::MemoryBounds &bounds, Report &report,
            bool strict)
{
    // Stages with D2D-assigned classes, keyed by their GPU.
    std::set<int> d2d_gpus;
    for (const auto &[ref, kind] : plan.activations) {
        if (kind != Kind::D2dSwap)
            continue;
        if (ref.stage >= 0 && ref.stage < part.numStages())
            d2d_gpus.insert(gpuForStage(plan, ref.stage));
    }

    std::map<int, Bytes> imported;  // importer -> total granted bytes
    std::set<std::pair<int, int>> edges;
    for (const auto &[exporter, grants] : plan.spareGrants) {
        bool exporter_ok =
            exporter >= 0 && exporter < topo.numGpus();
        if (!exporter_ok) {
            Finding(report, strict, Rule::D2dGrantRange)
                .gpu(exporter)
                .msg(strformat("grants issued for unknown exporter"
                               " GPU %d",
                               exporter))
                .hint("exporters must be GPUs of this topology");
        }
        for (const auto &g : grants) {
            if (g.budget < 0 || g.importerGpu < 0 ||
                g.importerGpu >= topo.numGpus()) {
                Finding(report, strict, Rule::D2dGrantRange)
                    .gpu(g.importerGpu)
                    .msg(strformat("grant %d->%d of %lld bytes is out"
                                   " of range",
                                   exporter, g.importerGpu,
                                   static_cast<long long>(g.budget)))
                    .hint("grants name existing GPUs and non-negative"
                          " budgets");
                continue;
            }
            if (g.importerGpu == exporter) {
                Finding(report, strict, Rule::D2dSelfGrant)
                    .gpu(exporter)
                    .msg(strformat("GPU %d grants %s of spare memory"
                                   " to itself",
                                   exporter,
                                   util::formatBytes(g.budget)
                                       .c_str()))
                    .hint("a self-grant saves nothing: the bytes stay"
                          " on the overflowing device");
                continue;
            }
            if (!exporter_ok)
                continue;
            if (topo.pathLanes(exporter, g.importerGpu) == 0) {
                Finding(report, strict, Rule::D2dUnreachable)
                    .gpu(exporter)
                    .msg(strformat("grant %d->%d crosses no NVLink"
                                   " lane or NIC path",
                                   exporter, g.importerGpu))
                    .hint("D2D swap stripes over direct NVLink or"
                          " inter-node NIC paths; grant only"
                          " reachable peers");
                continue;
            }
            if (g.budget > 0) {
                imported[g.importerGpu] += g.budget;
                edges.emplace(exporter, g.importerGpu);
            }
        }
        if (exporter_ok && !d2d_gpus.count(exporter)) {
            Finding(report, strict, Rule::D2dOrphanGrant)
                .gpu(exporter)
                .msg(strformat("GPU %d holds spare grants but no"
                               " activation class uses D2D swap"
                               " there",
                               exporter))
                .hint("dead grants pin importer spare memory that"
                      " could absorb other exporters");
        }
    }

    // D2D-assigned classes whose GPU has nothing to draw on.
    for (const auto &[ref, kind] : plan.activations) {
        if (kind != Kind::D2dSwap)
            continue;
        if (ref.stage < 0 || ref.stage >= part.numStages())
            continue;  // swap-unknown-tensor covers this
        int gpu = gpuForStage(plan, ref.stage);
        auto it = plan.spareGrants.find(gpu);
        bool funded = false;
        if (it != plan.spareGrants.end()) {
            for (const auto &g : it->second)
                funded |= g.budget > 0;
        }
        if (!funded) {
            Finding(report, strict, Rule::D2dNoGrant)
                .tensor(ref)
                .stage(ref.stage)
                .gpu(gpu)
                .msg(strformat("tensor %d.%d uses D2D swap but GPU %d"
                               " holds no spare grants",
                               ref.stage, ref.layer, gpu))
                .hint("the instances stay resident (d2dOverflow);"
                      " grant spare memory or choose another"
                      " technique");
        }
    }

    // Importer overcommit: granted bytes beyond the spare above the
    // importer's peak lower bound.
    for (const auto &[imp, bytes] : imported) {
        if (!bounds.valid)
            break;
        Bytes spare =
            bounds.usableCapacity -
            bounds.gpus[static_cast<std::size_t>(imp)].lower;
        if (spare < 0)
            spare = 0;
        if (bytes > spare) {
            Finding(report, strict, Rule::D2dOvercommit)
                .gpu(imp)
                .msg(strformat("GPU %d granted %s but has only %s"
                               " spare",
                               imp, util::formatBytes(bytes).c_str(),
                               util::formatBytes(spare).c_str()))
                .hint("imported tensors would push the importer past"
                      " capacity; shrink the grants or re-run the"
                      " mapper with fresher peaks");
        }
    }

    // Grant cycles: a GPU that exports to a peer it also imports
    // from is shuffling pressure in a loop.
    std::map<int, std::vector<int>> adj;
    for (const auto &[a, b] : edges)
        adj[a].push_back(b);
    std::map<int, int> color;  // 0 new, 1 open, 2 done
    std::vector<int> cycle_nodes;
    std::function<bool(int)> dfs = [&](int node) {
        color[node] = 1;
        for (int nxt : adj[node]) {
            if (color[nxt] == 1) {
                cycle_nodes.push_back(node);
                return true;
            }
            if (color[nxt] == 0 && dfs(nxt)) {
                cycle_nodes.push_back(node);
                return true;
            }
        }
        color[node] = 2;
        return false;
    };
    for (const auto &[node, _] : adj) {
        if (color[node] == 0 && dfs(node)) {
            Finding(report, strict, Rule::D2dGrantCycle)
                .gpu(cycle_nodes.front())
                .msg(strformat("spare-grant cycle through GPU %d"
                               " (%zu GPUs involved)",
                               cycle_nodes.front(),
                               cycle_nodes.size()))
                .hint("a GPU lending spare memory while evicting its"
                      " own tensors shuffles pressure in a loop;"
                      " break the cycle by granting in one"
                      " direction");
            break;
        }
    }
}

/** Swap-hazard pass over the plan's activation assignments. */
void
checkSwapAssignments(const hw::Topology &topo,
                     const model::TransformerModel &mdl,
                     const partition::Partition &part,
                     const CompactionPlan &plan, Report &report,
                     bool strict)
{
    // Per-stage PCIe budget heuristic mirroring the planner's seed
    // logic: each microbatch gives a stage roughly its fwd+bwd
    // compute time of channel budget.
    std::vector<util::Tick> pcie_load(
        static_cast<std::size_t>(part.numStages()), 0);

    for (const auto &[ref, kind] : plan.activations) {
        if (kind == Kind::None)
            continue;
        if (ref.stage < 0 || ref.stage >= part.numStages()) {
            Finding(report, strict, Rule::SwapUnknownTensor)
                .tensor(ref)
                .msg(strformat("plan names stage %d of %d", ref.stage,
                               part.numStages()))
                .hint("activation classes must belong to a pipeline"
                      " stage");
            continue;
        }
        const auto &stage =
            part.stages[static_cast<std::size_t>(ref.stage)];
        if (ref.layer < static_cast<int>(stage.firstLayer) ||
            ref.layer > static_cast<int>(stage.lastLayer)) {
            Finding(report, strict, Rule::SwapUnknownTensor)
                .tensor(ref)
                .stage(ref.stage)
                .msg(strformat("layer %d is outside stage %d's range"
                               " [%zu, %zu]",
                               ref.layer, ref.stage, stage.firstLayer,
                               stage.lastLayer))
                .hint("the executor would never generate this"
                      " instance, so the assignment is dead — or the"
                      " partition changed under the plan");
            continue;
        }
        const auto &layer =
            mdl.layer(static_cast<std::size_t>(ref.layer));
        if (layer.activationStash <= 0) {
            Finding(report, strict, Rule::SwapEmptyClass)
                .tensor(ref)
                .stage(ref.stage)
                .msg(strformat("tensor %d.%d has no stash bytes to"
                               " compact",
                               ref.stage, ref.layer))
                .hint("the assignment is a no-op; drop it");
        }
        if (kind == Kind::GpuCpuSwap) {
            pcie_load[static_cast<std::size_t>(ref.stage)] +=
                2 * topo.pcieSpec().transferTime(
                        layer.activationStash);
        }
    }

    for (const auto &stage : part.stages) {
        auto load = pcie_load[static_cast<std::size_t>(stage.index)];
        if (load <= 0)
            continue;
        util::Tick budget = topo.gpu().computeTime(
            3.0 * stage.fwdFlops, mdl.config().precision);
        if (load > budget) {
            Finding(report, strict, Rule::SwapIntervalTight)
                .stage(stage.index)
                .msg(strformat("GPU-CPU swap round trips need %s per"
                               " microbatch but compute hides only"
                               " %s",
                               util::formatTime(load).c_str(),
                               util::formatTime(budget).c_str()))
                .hint("the PCIe channel saturates and swap-ins stall"
                      " the backward; move classes to D2D swap or"
                      " recompute");
        }
    }

    // Cross-node D2D stripes ride the inter-node NICs, which are an
    // order of magnitude slower than NVLink: a grant ledger whose
    // cross-node round trips cannot hide behind compute assumed
    // intra-node bandwidth across a NIC link.
    if (topo.multiNodeFabric()) {
        std::vector<util::Tick> nic_load(
            static_cast<std::size_t>(part.numStages()), 0);
        for (const auto &[ref, kind] : plan.activations) {
            if (kind != Kind::D2dSwap)
                continue;
            if (ref.stage < 0 || ref.stage >= part.numStages())
                continue;
            const auto &stage =
                part.stages[static_cast<std::size_t>(ref.stage)];
            if (ref.layer < static_cast<int>(stage.firstLayer) ||
                ref.layer > static_cast<int>(stage.lastLayer))
                continue;
            const auto &layer =
                mdl.layer(static_cast<std::size_t>(ref.layer));
            if (layer.activationStash <= 0)
                continue;
            int gpu = gpuForStage(plan, ref.stage);
            if (gpu < 0 || gpu >= topo.numGpus())
                continue;
            auto it = plan.spareGrants.find(gpu);
            if (it == plan.spareGrants.end())
                continue;
            auto stripe = compaction::makeStripePlan(
                topo, gpu, it->second, layer.activationStash);
            for (const auto &s : stripe.stripes) {
                if (topo.sameNode(gpu, s.targetGpu))
                    continue;
                Bytes per_lane =
                    (s.bytes + s.lanes - 1) / s.lanes;
                nic_load[static_cast<std::size_t>(ref.stage)] +=
                    2 * topo.linkSpecBetween(gpu, s.targetGpu)
                            .transferTime(per_lane);
            }
        }
        for (const auto &stage : part.stages) {
            auto load =
                nic_load[static_cast<std::size_t>(stage.index)];
            if (load <= 0)
                continue;
            util::Tick budget = topo.gpu().computeTime(
                3.0 * stage.fwdFlops, mdl.config().precision);
            if (load > budget) {
                Finding(report, strict, Rule::D2dNicInfeasible)
                    .stage(stage.index)
                    .gpu(gpuForStage(plan, stage.index))
                    .msg(strformat(
                        "cross-node D2D round trips need %s per"
                        " microbatch over the NIC but compute hides"
                        " only %s",
                        util::formatTime(load).c_str(),
                        util::formatTime(budget).c_str()))
                    .hint("the grant ledger prices a NIC link like"
                          " NVLink; shift budget to intra-node"
                          " donors or GPU-CPU swap");
            }
        }
    }
}

/** Config-shape pass. */
void
checkConfigShape(const partition::Partition &part,
                 const Schedule &sched, const CompactionPlan &plan,
                 Report &report, bool strict)
{
    auto stages = static_cast<std::size_t>(part.numStages());
    auto check_vec = [&](const std::vector<bool> &v,
                         const char *name) {
        if (!v.empty() && v.size() != stages) {
            Finding(report, strict, Rule::CfgShape)
                .msg(strformat("%s has %zu entries for %zu stages",
                               name, v.size(), stages))
                .hint("size per-stage vectors to the stage count (or"
                      " leave them empty)");
        }
    };
    check_vec(plan.offloadOptState, "offloadOptState");
    check_vec(plan.offloadWeightStash, "offloadWeightStash");

    for (std::size_t s = 0;
         s < plan.offloadWeightStash.size() && s < stages; ++s) {
        if (!plan.offloadWeightStash[s])
            continue;
        if (!sched.weightStashing ||
            sched.weightVersions(static_cast<int>(s)) <= 2) {
            Finding(report, strict, Rule::CfgStashSync)
                .stage(static_cast<int>(s))
                .msg(strformat("stage %zu offloads its weight stash"
                               " but the schedule keeps at most 2"
                               " versions",
                               s))
                .hint("stash offload only pays off under PipeDream-"
                      "style weight stashing with >2 live versions");
        }
    }
}

} // namespace

Report
verifySchedule(const Schedule &sched)
{
    Report report;
    bool deps_sound;
    checkSchedule(sched, report, false, &deps_sound);
    return report;
}

PlanVerifier::PlanVerifier(const hw::Topology &topo,
                           const model::TransformerModel &mdl,
                           const partition::Partition &part,
                           const Schedule &sched, const Options &opts)
    : _topo(topo), _mdl(mdl), _part(part), _sched(sched), _opts(opts)
{
    _jobReport.setPerRuleCap(opts.maxDiagsPerRule);
    _structureOk =
        checkSchedule(sched, _jobReport, opts.strict, &_depsSound);
    if (_depsSound) {
        const auto stages = static_cast<std::size_t>(sched.numStages);
        std::vector<char> seen(stages * stages, 0);
        for (const Task &t : sched.tasks) {
            for (int dep : t.deps) {
                int from =
                    sched.tasks[static_cast<std::size_t>(dep)].stage;
                char &pair = seen[static_cast<std::size_t>(from) * stages +
                                  static_cast<std::size_t>(t.stage)];
                if (from != t.stage && !pair) {
                    pair = 1;
                    _stageEdges.push_back({from, t.stage, t.id});
                }
            }
        }
    }
    _stagesAgree = part.numStages() == sched.numStages;
    if (!_stagesAgree) {
        Finding(_jobReport, opts.strict, Rule::CfgShape)
            .msg(strformat("partition has %d stages, schedule %d",
                           part.numStages(), sched.numStages))
            .hint("partition and schedule must agree on pipeline"
                  " depth");
    }
}

Report
PlanVerifier::check(const CompactionPlan &plan) const
{
    Report report = _jobReport;
    if (!_stagesAgree)
        return report;
    const bool strict = _opts.strict;

    checkConfigShape(_part, _sched, plan, report, strict);
    checkSwapAssignments(_topo, _mdl, _part, plan, report, strict);

    bool mapping_ok =
        checkMapping(_topo, _sched, plan, report, strict);
    if (!mapping_ok || !_structureOk)
        return report;

    if (_depsSound)
        checkFabricPaths(_topo, _stageEdges, plan, report, strict);

    // Invalid bounds (a grant naming an unknown GPU) carry no
    // capacity facts; checkGrants flags why.
    const analysis::MemoryBounds bounds =
        analysis::boundMemory(_topo, _mdl, _part, _sched, plan);
    if (bounds.valid)
        checkCapacity(_topo, _part, plan, bounds, _opts.analysis,
                      report, strict);
    checkGrants(_topo, _part, plan, bounds, report, strict);
    return report;
}

Report
verifyPlan(const hw::Topology &topo,
           const model::TransformerModel &mdl,
           const partition::Partition &part, const Schedule &sched,
           const CompactionPlan &plan, const Options &opts)
{
    return PlanVerifier(topo, mdl, part, sched, opts).check(plan);
}

namespace {

/** The resource one fault event occupies, as a grouping key for the
 *  overlap check: same kind + same key = same resource. */
std::string
faultResourceKey(const fault::FaultEvent &e)
{
    switch (e.kind) {
      case fault::EventKind::LinkDegrade:
        if (e.gpu >= 0)
            return strformat("pcie.gpu%d", e.gpu);
        return strformat("nvlink.%d-%d", std::min(e.src, e.dst),
                         std::max(e.src, e.dst));
      case fault::EventKind::TransferFail:
        return strformat("d2d.gpu%d-%d", e.src, e.dst);
      case fault::EventKind::GpuStraggle:
        return strformat("compute.gpu%d", e.gpu);
      case fault::EventKind::HostPressure:
        return "host";
    }
    return "?";
}

void
checkFaultEvent(const hw::Topology &topo,
                const fault::FaultEvent &e, std::size_t index,
                Report &report, bool strict)
{
    const int n = topo.numGpus();
    auto where = strformat("events[%zu] (%s)", index,
                           fault::eventKindName(e.kind));

    if (e.start < 0 || e.end <= e.start) {
        Finding(report, strict, Rule::FaultTimeRange)
            .msg(strformat("%s: window [%lld, %lld) is %s",
                           where.c_str(),
                           static_cast<long long>(e.start),
                           static_cast<long long>(e.end),
                           e.start < 0 ? "negative" : "empty"))
            .hint("start_ms must be >= 0 and end_ms > start_ms");
    }

    auto bad_gpu = [n](int g) { return g < 0 || g >= n; };
    switch (e.kind) {
      case fault::EventKind::LinkDegrade:
        if (e.gpu >= 0) {
            // PCIe variant.
            if (e.gpu >= n) {
                Finding(report, strict, Rule::FaultResourceRange)
                    .gpu(e.gpu)
                    .msg(strformat("%s: unknown GPU %d",
                                   where.c_str(), e.gpu))
                    .hint(strformat("topology has %d GPUs", n));
            }
        } else if (bad_gpu(e.src) || bad_gpu(e.dst) ||
                   e.src == e.dst) {
            Finding(report, strict, Rule::FaultResourceRange)
                .msg(strformat("%s: link (%d, %d) is not a valid GPU"
                               " pair",
                               where.c_str(), e.src, e.dst))
                .hint("name an NVLink pair via src/dst or a PCIe"
                      " link via gpu");
        } else if (topo.nvlinkLanes(e.src, e.dst) == 0) {
            Finding(report, strict, Rule::FaultResourceRange)
                .msg(strformat("%s: no NVLink between GPU %d and"
                               " GPU %d",
                               where.c_str(), e.src, e.dst))
                .hint("degrade an existing link, or the event can"
                      " never fire");
        }
        if (!(e.factor > 0.0)) {
            Finding(report, strict, Rule::FaultValueRange)
                .msg(strformat("%s: factor %g is not positive",
                               where.c_str(), e.factor))
                .hint("factor is a bandwidth multiplier in (0, 1]");
        }
        break;
      case fault::EventKind::TransferFail:
        if (bad_gpu(e.src)) {
            Finding(report, strict, Rule::FaultResourceRange)
                .gpu(e.src)
                .msg(strformat("%s: unknown exporter GPU %d",
                               where.c_str(), e.src))
                .hint(strformat("topology has %d GPUs", n));
        } else if (e.dst >= 0 &&
                   (e.dst >= n || e.dst == e.src ||
                    topo.nvlinkLanes(e.src, e.dst) == 0)) {
            Finding(report, strict, Rule::FaultResourceRange)
                .msg(strformat("%s: (%d, %d) is not an NVLink pair",
                               where.c_str(), e.src, e.dst))
                .hint("dst is optional; when given it must name a"
                      " peer reachable from src");
        }
        if (e.probability < 0.0 || e.probability > 1.0) {
            Finding(report, strict, Rule::FaultValueRange)
                .msg(strformat("%s: probability %g outside [0, 1]",
                               where.c_str(), e.probability))
                .hint("per-stripe failure probability");
        }
        break;
      case fault::EventKind::GpuStraggle:
        if (bad_gpu(e.gpu)) {
            Finding(report, strict, Rule::FaultResourceRange)
                .gpu(e.gpu)
                .msg(strformat("%s: unknown GPU %d", where.c_str(),
                               e.gpu))
                .hint(strformat("topology has %d GPUs", n));
        }
        if (!(e.factor > 0.0)) {
            Finding(report, strict, Rule::FaultValueRange)
                .msg(strformat("%s: factor %g is not positive",
                               where.c_str(), e.factor))
                .hint("factor is a compute-speed multiplier in"
                      " (0, 1]");
        }
        break;
      case fault::EventKind::HostPressure:
        if (e.bytes <= 0) {
            Finding(report, strict, Rule::FaultValueRange)
                .msg(strformat("%s: pressure of %lld bytes",
                               where.c_str(),
                               static_cast<long long>(e.bytes)))
                .hint("bytes_gb must be positive");
        } else if (e.bytes > topo.hostMemory()) {
            Finding(report, strict, Rule::FaultResourceRange)
                .msg(strformat("%s: pressure exceeds the %lld-byte"
                               " host pool",
                               where.c_str(),
                               static_cast<long long>(
                                   topo.hostMemory())))
                .hint("a cut larger than the pool clamps to zero"
                      " capacity; shrink it");
        }
        break;
    }
}

} // namespace

Report
verifyScenario(const hw::Topology &topo,
               const fault::Scenario &scenario, const Options &opts)
{
    Report report;
    report.setPerRuleCap(opts.maxDiagsPerRule);
    const bool strict = opts.strict;

    for (std::size_t i = 0; i < scenario.events.size(); ++i)
        checkFaultEvent(topo, scenario.events[i], i, report, strict);

    // Overlap: two windows of the same kind on the same resource.
    // (The injector composes overlapping windows multiplicatively,
    // which is almost never what a scenario author meant.)
    struct Window
    {
        util::Tick start;
        util::Tick end;
        std::size_t index;
    };
    std::map<std::string, std::vector<Window>> byResource;
    for (std::size_t i = 0; i < scenario.events.size(); ++i) {
        const auto &e = scenario.events[i];
        if (e.start < 0 || e.end <= e.start)
            continue;  // already flagged
        byResource[strformat("%s:%s", fault::eventKindName(e.kind),
                             faultResourceKey(e).c_str())]
            .push_back({e.start, e.end, i});
    }
    for (auto &[key, windows] : byResource) {
        std::sort(windows.begin(), windows.end(),
                  [](const Window &a, const Window &b) {
                      if (a.start != b.start)
                          return a.start < b.start;
                      return a.index < b.index;
                  });
        for (std::size_t i = 1; i < windows.size(); ++i) {
            if (windows[i].start < windows[i - 1].end) {
                Finding(report, strict, Rule::FaultOverlap)
                    .msg(strformat(
                        "events[%zu] and events[%zu] overlap on %s",
                        windows[i - 1].index, windows[i].index,
                        key.c_str()))
                    .hint("merge the windows or separate them in"
                          " time");
            }
        }
    }
    return report;
}

Report
verifyClusterSpec(const cluster::ClusterSpec &spec,
                  const Options &opts)
{
    Report report;
    report.setPerRuleCap(opts.maxDiagsPerRule);
    const bool strict = opts.strict;

    if (spec.nodes < 1 || spec.nodes > 64) {
        Finding(report, strict, Rule::ClusterNodeRange)
            .msg(strformat("node count %d outside [1, 64]",
                           spec.nodes))
            .hint("the simulator supports 1..64 nodes (up to 512"
                  " GPUs)");
    }
    auto node = cluster::nodeByName(spec.nodePreset);
    if (!node) {
        Finding(report, strict, Rule::ClusterNodeRange)
            .msg(strformat("unknown node preset \"%s\"",
                           spec.nodePreset.c_str()))
            .hint("known presets: dgx1, dgx1-p100, dgx2, hgx-h100,"
                  " dual-a100");
    }

    if (spec.nicsPerNode < 1 || spec.nicsPerNode > 8) {
        Finding(report, strict, Rule::ClusterLinkRange)
            .msg(strformat("NIC count %d per node outside [1, 8]",
                           spec.nicsPerNode))
            .hint("a node exposes between one and eight NICs");
    }
    if (!cluster::nicByName(spec.nicPreset)) {
        Finding(report, strict, Rule::ClusterLinkRange)
            .msg(strformat("unknown NIC preset \"%s\"",
                           spec.nicPreset.c_str()))
            .hint("known presets: ib-hdr, ib-ndr, roce100");
    }
    if (spec.nicGbps < 0.0 || spec.nicGbps > 3200.0) {
        Finding(report, strict, Rule::ClusterLinkRange)
            .msg(strformat("NIC bandwidth %g Gb/s outside [0, 3200]",
                           spec.nicGbps))
            .hint("0 keeps the preset bandwidth");
    }
    if (spec.nicLatencyUs < 0.0 || spec.nicLatencyUs > 100000.0) {
        Finding(report, strict, Rule::ClusterLinkRange)
            .msg(strformat("NIC latency %g us outside [0, 100000]",
                           spec.nicLatencyUs))
            .hint("0 keeps the preset latency");
    }

    if (!spec.nodeIds.empty()) {
        if (static_cast<int>(spec.nodeIds.size()) != spec.nodes) {
            Finding(report, strict, Rule::ClusterNodeRange)
                .msg(strformat("%zu node ids for %d nodes",
                               spec.nodeIds.size(), spec.nodes))
                .hint("give exactly one display id per node, or"
                      " none");
        }
        std::set<std::string> seen;
        for (std::size_t i = 0; i < spec.nodeIds.size(); ++i) {
            if (!seen.insert(spec.nodeIds[i]).second) {
                Finding(report, strict, Rule::ClusterDuplicateId)
                    .msg(strformat("node id \"%s\" appears more than"
                                   " once",
                                   spec.nodeIds[i].c_str()))
                    .hint("node ids must be unique");
            }
        }
    }
    return report;
}

} // namespace verify
} // namespace mpress
