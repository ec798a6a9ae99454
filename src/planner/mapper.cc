#include "planner/mapper.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "compaction/striping.hh"
#include "util/logging.hh"
#include "util/pool.hh"

namespace mpress {
namespace planner {

namespace {

using compaction::SpareGrant;

/** Stable insertion sort for the scan's tiny (<= numGpus) arrays:
 *  the same order std::stable_sort produces, without its temporary
 *  merge buffer — two of these run per evaluated placement. */
template <typename T, typename Less>
void
stableSortSmall(std::vector<T> &v, Less less)
{
    for (std::size_t i = 1; i < v.size(); ++i) {
        T val = v[i];
        std::size_t j = i;
        while (j > 0 && less(val, v[j - 1])) {
            v[j] = v[j - 1];
            --j;
        }
        v[j] = std::move(val);
    }
}

/** Dense lane-count matrix, read-only during the scan.  The topology
 *  accessor is cheap but sits in the innermost loops (contention is
 *  O(n^2) lookups per placement, x 40320 placements); one flat copy
 *  keeps the scan in cache.  Lane counts come from pathLanes(), so on
 *  a cluster a cross-node pair shows its (thin) NIC path instead of
 *  zero — cross-node donors are reachable, just unattractive.  Each
 *  connected pair's link spec is cached too (the topology outlives
 *  the scan): linkSpecBetween() is a std::map lookup, and the drain
 *  floors read it at every leaf. */
struct LaneMatrix
{
    int n = 0;
    std::vector<int> lanes;
    std::vector<int> node;
    std::vector<const hw::LinkSpec *> specs;

    explicit LaneMatrix(const hw::Topology &topo)
        : n(topo.numGpus()),
          lanes(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
          node(static_cast<std::size_t>(n)),
          specs(lanes.size())
    {
        for (int a = 0; a < n; ++a) {
            node[static_cast<std::size_t>(a)] = topo.nodeOf(a);
            for (int b = 0; b < n; ++b) {
                lanes[idx(a, b)] = topo.pathLanes(a, b);
                if (lanes[idx(a, b)] > 0)
                    specs[idx(a, b)] = &topo.linkSpecBetween(a, b);
            }
        }
    }

    std::size_t
    idx(int a, int b) const
    {
        return static_cast<std::size_t>(a) *
                   static_cast<std::size_t>(n) +
               static_cast<std::size_t>(b);
    }

    int at(int a, int b) const { return lanes[idx(a, b)]; }

    /** Link spec of a pair with lanes; nullptr for the others. */
    const hw::LinkSpec *spec(int a, int b) const
    {
        return specs[idx(a, b)];
    }

    bool sameNode(int a, int b) const
    {
        return node[static_cast<std::size_t>(a)] ==
               node[static_cast<std::size_t>(b)];
    }
};

/** Coverage and worst-exporter drain time for a candidate. */
struct Evaluation
{
    double coverage = 1.0;
    Tick worstDrain = 0;
    int brokenAdjacency = 0;
};

/**
 * Preallocated buffers for one placement evaluation, reused across a
 * whole scan chunk.  The original implementation built five vectors
 * and a std::map per permutation (8! placements -> hundreds of
 * thousands of allocations per mapping call), which dominated the
 * planner's wall time; with the scratch the steady-state scan is
 * allocation-free, stripe plans included.
 */
struct Scratch
{
    std::vector<Bytes> demandOnGpu;
    std::vector<Bytes> desire;
    std::vector<Bytes> spare;
    std::vector<int> contention;
    std::vector<int> exporters;
    std::vector<int> importers;
    /** Per-exporter grant lists (indexed by GPU, cleared per eval). */
    std::vector<std::vector<SpareGrant>> grantList;
    /** The GPUs floor A's lead exporter could draw spare from. */
    std::vector<SpareGrant> reach;
    std::vector<int> stageToGpu;
    /** finishEval()'s stripe plans and their working storage. */
    compaction::StripePlan stripes;
    compaction::StripeScratch stripeScratch;

    explicit Scratch(int n)
        : demandOnGpu(static_cast<std::size_t>(n)),
          desire(static_cast<std::size_t>(n)),
          spare(static_cast<std::size_t>(n)),
          contention(static_cast<std::size_t>(n)),
          grantList(static_cast<std::size_t>(n))
    {
        exporters.reserve(static_cast<std::size_t>(n));
        importers.reserve(static_cast<std::size_t>(n));
        reach.reserve(static_cast<std::size_t>(n));
        stageToGpu.reserve(static_cast<std::size_t>(n));
    }
};

/** Bytes a GPU holding @p demand may lend: its headroom below
 *  @p capacity, less the safety margin. */
Bytes
grantableSpare(Bytes demand, Bytes capacity)
{
    Bytes spare = demand < capacity ? capacity - demand : 0;
    return static_cast<Bytes>(static_cast<double>(spare) *
                              kSpareSafety);
}

/** Budget an exporter overflowing by @p over bytes asks for when no
 *  explicit desire is given: comfortably more than its raw overflow,
 *  because swap classes are whole layers with all in-flight instances
 *  resident on importers at once, so the concurrent footprint exceeds
 *  the peak overshoot.  0 when nothing overflows. */
Bytes
overflowDesire(Bytes over)
{
    return over > 0 ? 2 * over + 2 * util::kGB : 0;
}

/**
 * Assign importer spare budgets to exporters for a fixed placement.
 *
 * Each importer's usable spare is split among the NVLink-reachable
 * exporters in proportion to (exporter overflow x lane count), which
 * both drains big exporters faster and prefers fat links — the
 * "assign_mem" step of Figure 6, with the per-GPU plans combined by
 * proportional sharing instead of exhaustive permutation.  Results
 * land in @p ws (demandOnGpu and grantList feed the evaluation).
 */
void
assignSpareInto(Scratch &ws, const LaneMatrix &lanes,
                const std::vector<int> &stage_to_gpu,
                const std::vector<Bytes> &stage_demand, Bytes capacity,
                const std::vector<Bytes> &stage_desire)
{
    const int n = lanes.n;
    const int num_stages = static_cast<int>(stage_demand.size());
    std::fill(ws.demandOnGpu.begin(), ws.demandOnGpu.end(), 0);
    for (int s = 0; s < num_stages; ++s) {
        ws.demandOnGpu[static_cast<std::size_t>(
            stage_to_gpu[static_cast<std::size_t>(s)])] +=
            stage_demand[static_cast<std::size_t>(s)];
    }

    auto overflow_of = [&](int gpu) {
        Bytes d = ws.demandOnGpu[static_cast<std::size_t>(gpu)];
        return d > capacity ? d - capacity : 0;
    };

    // An explicit desire vector (the planner's post-compaction
    // re-map) overrides the overflow heuristic.
    std::fill(ws.desire.begin(), ws.desire.end(), 0);
    if (stage_desire.empty()) {
        for (int exp = 0; exp < n; ++exp)
            ws.desire[static_cast<std::size_t>(exp)] =
                overflowDesire(overflow_of(exp));
    } else {
        for (int s = 0; s < num_stages; ++s) {
            ws.desire[static_cast<std::size_t>(
                stage_to_gpu[static_cast<std::size_t>(s)])] +=
                stage_desire[static_cast<std::size_t>(s)];
        }
    }

    // Remaining spare per importer and its contention (how many
    // exporters can reach it).
    for (int imp = 0; imp < n; ++imp) {
        ws.spare[static_cast<std::size_t>(imp)] = grantableSpare(
            ws.demandOnGpu[static_cast<std::size_t>(imp)], capacity);
        int c = 0;
        for (int exp = 0; exp < n; ++exp) {
            if (ws.desire[static_cast<std::size_t>(exp)] > 0 &&
                lanes.at(exp, imp) > 0)
                ++c;
        }
        ws.contention[static_cast<std::size_t>(imp)] = c;
    }

    // Exporter-major greedy, big demands first; each exporter drains
    // its least-contended importers before touching shared pools, so
    // exporters with few reachable peers are not starved.
    ws.exporters.clear();
    for (int exp = 0; exp < n; ++exp) {
        if (ws.desire[static_cast<std::size_t>(exp)] > 0)
            ws.exporters.push_back(exp);
    }
    stableSortSmall(ws.exporters, [&](int a, int b) {
        return ws.desire[static_cast<std::size_t>(a)] >
               ws.desire[static_cast<std::size_t>(b)];
    });

    for (auto &list : ws.grantList)
        list.clear();
    for (int exp : ws.exporters) {
        ws.importers.clear();
        for (int imp = 0; imp < n; ++imp) {
            if (lanes.at(exp, imp) > 0 &&
                ws.spare[static_cast<std::size_t>(imp)] > 0)
                ws.importers.push_back(imp);
        }
        stableSortSmall(ws.importers, [&](int a, int b) {
            // Donor-axis priority: an intra-node importer always
            // outranks a cross-node one — every NVLink lane beats the
            // shared NIC tier, and cross-node grants also contend
            // with pipeline activation traffic on the same NICs.  On
            // a single node every pair ties here, so the pre-cluster
            // ordering (contention asc, spare desc) is unchanged.
            bool la = lanes.sameNode(exp, a);
            bool lb = lanes.sameNode(exp, b);
            if (la != lb)
                return la;
            auto ca = ws.contention[static_cast<std::size_t>(a)];
            auto cb = ws.contention[static_cast<std::size_t>(b)];
            if (ca != cb)
                return ca < cb;
            return ws.spare[static_cast<std::size_t>(a)] >
                   ws.spare[static_cast<std::size_t>(b)];
        });
        auto &want = ws.desire[static_cast<std::size_t>(exp)];
        for (int imp : ws.importers) {
            if (want <= 0)
                break;
            Bytes take = std::min(
                ws.spare[static_cast<std::size_t>(imp)], want);
            if (take <= 0)
                continue;
            ws.spare[static_cast<std::size_t>(imp)] -= take;
            want -= take;
            ws.grantList[static_cast<std::size_t>(exp)].push_back(
                {imp, take});
        }
    }

    // Order each exporter's grants intra-node first, then by lane
    // count (fat links first) so the runtime's striping prefers them.
    // A cross-node grant can show more raw lanes (many NICs) than a
    // sparse NVLink hop, but each NIC lane is slower and shared.
    for (int exp = 0; exp < n; ++exp) {
        auto &list = ws.grantList[static_cast<std::size_t>(exp)];
        if (list.size() > 1) {
            stableSortSmall(
                list, [&](const SpareGrant &a, const SpareGrant &b) {
                    bool la = lanes.sameNode(exp, a.importerGpu);
                    bool lb = lanes.sameNode(exp, b.importerGpu);
                    if (la != lb)
                        return la;
                    return lanes.at(exp, a.importerGpu) >
                           lanes.at(exp, b.importerGpu);
                });
        }
    }
}

/**
 * Lower bound on the drain time of @p placed bytes striped out of
 * @p exp towards some of @p importers (only their GPUs are read): the
 * stripes use at most the importers' summed lane count L, so the worst
 * stripe takes at least transferTime(ceil(placed / L)) on the fastest
 * of their link specs (see scoreCeiling).  0 when nothing is placed.
 */
Tick
drainFloor(const LaneMatrix &lanes, int exp, Bytes placed,
           const std::vector<SpareGrant> &importers)
{
    if (placed <= 0)
        return 0;
    Bytes total_lanes = 0;
    for (const auto &g : importers)
        total_lanes += lanes.at(exp, g.importerGpu);
    const Bytes per_lane = (placed + total_lanes - 1) / total_lanes;
    Tick floor = std::numeric_limits<Tick>::max();
    const hw::LinkSpec *last = nullptr;
    for (const auto &g : importers) {
        const hw::LinkSpec *spec = lanes.spec(exp, g.importerGpu);
        if (spec != last)  // neighbours mostly share one spec
            floor = std::min(floor, spec->transferTime(per_lane));
        last = spec;
    }
    return floor;
}

/** The cheap part of the evaluation, read off the current ws grant
 *  lists: the exact overflow coverage, and in place of the worst
 *  drain its floor B, each exporter's drainFloor() over its own
 *  grants (see scoreCeiling).  Adjacency is left at 0. */
Evaluation
grantBound(const Scratch &ws, const LaneMatrix &lanes, Bytes capacity)
{
    Evaluation bound;
    Bytes total_overflow = 0, covered = 0;
    for (int gpu = 0; gpu < lanes.n; ++gpu) {
        Bytes d = ws.demandOnGpu[static_cast<std::size_t>(gpu)];
        if (d <= capacity)
            continue;
        Bytes over = d - capacity;
        total_overflow += over;
        const auto &gl = ws.grantList[static_cast<std::size_t>(gpu)];
        if (gl.empty())
            continue;
        Bytes granted = 0;
        for (const auto &g : gl)
            granted += g.budget;
        Bytes placed = std::min(over, granted);
        covered += placed;
        bound.worstDrain = std::max(bound.worstDrain,
                                    drainFloor(lanes, gpu, placed, gl));
    }
    bound.coverage = total_overflow == 0
                         ? 1.0
                         : static_cast<double>(covered) /
                               static_cast<double>(total_overflow);
    return bound;
}

/** The expensive half of the evaluation: stripe-plan drain times and
 *  pipeline adjacency, run only for candidates whose grantBound() can
 *  still beat the chunk's best score. */
Evaluation
finishEval(const hw::Topology &topo, const LaneMatrix &lanes,
           Scratch &ws, const std::vector<int> &stage_to_gpu,
           Bytes capacity, double coverage)
{
    Evaluation ev;
    ev.coverage = coverage;
    const int n = lanes.n;
    const int num_stages = static_cast<int>(stage_to_gpu.size());
    for (int gpu = 0; gpu < n; ++gpu) {
        Bytes d = ws.demandOnGpu[static_cast<std::size_t>(gpu)];
        if (d <= capacity)
            continue;
        Bytes over = d - capacity;
        const auto &gl = ws.grantList[static_cast<std::size_t>(gpu)];
        if (gl.empty())
            continue;
        Bytes granted = 0;
        for (const auto &g : gl)
            granted += g.budget;
        Bytes placed = std::min(over, granted);
        if (placed > 0) {
            compaction::makeStripePlan(topo, gpu, gl, placed,
                                       ws.stripes, ws.stripeScratch);
            if (!ws.stripes.empty()) {
                ev.worstDrain = std::max(
                    ev.worstDrain,
                    compaction::stripePlanTime(topo, gpu, ws.stripes));
            }
        }
    }
    for (int s = 0; s + 1 < num_stages; ++s) {
        int a = stage_to_gpu[static_cast<std::size_t>(s)];
        int b = stage_to_gpu[static_cast<std::size_t>(s + 1)];
        if (lanes.at(a, b) == 0)
            ++ev.brokenAdjacency;
    }
    return ev;
}

double
scoreOf(const Evaluation &ev)
{
    // Coverage dominates; among full-coverage mappings the fastest
    // drain wins (the reciprocal-of-max-cost score of Figure 6);
    // broken pipeline adjacency is charged like extra drain time.
    double drain_ms = util::toMs(ev.worstDrain) +
                      kAdjacencyPenaltyMs * ev.brokenAdjacency;
    return ev.coverage * 1e6 - drain_ms;
}

/**
 * Upper bound on scoreOf() for any evaluation whose coverage is at
 * most @p coverage, whose worst drain is at least @p drain_floor and
 * whose broken adjacencies are at least @p broken: scoreOf() itself,
 * with the bounds in place of the evaluation.  The scan feeds it the
 * coverage ceiling (ScanBounds) or a leaf's exact coverage, and no
 * drain floor (0) or one of two, both drainFloor() of some exporter:
 *
 *  - floor A, at a leaf before any spare is assigned: the lead
 *    exporter (the unique stage of largest desire, if it overflows)
 *    is served first from spare nobody has touched, so it is granted
 *    exactly min(desire, spare of its reachable GPUs with spare > 0)
 *    whatever the other stages do, and stripes over some of them;
 *  - floor B, after assignSpareInto(): every exporter over its own
 *    grant list (grantBound()).
 *
 * Sound in floating point, not just in real arithmetic:
 *  1. An exporter places B = min(overflow, granted) bytes in stripes
 *     whose lanes sum to at most L.  The stripes' bytes sum to B, so
 *     some stripe's bytes-per-lane is at least B / L, and
 *     stripePlanTime() rounds per-lane bytes up: that stripe carries at
 *     least ceil(B / L) bytes per lane.  Its time is its own spec's
 *     transferTime() of that many bytes or more, hence at least the
 *     minimum over the candidate specs — given (2).
 *  2. LinkSpec::transferTime() is monotone in bytes on the doubles.
 *     Exactly it is latency + 1e9 (b + ramp) / peak ns, so one byte
 *     adds 1e9 / peak ns.  Its five rounded operations move the value
 *     by under 6 * 2^-53 relative; for peak <= 500 GB/s (the
 *     presets stop at 64) and times under 1000 s the two values'
 *     errors sum to under 1.4e-3 ns, below the 2e-3 ns step, so the
 *     computed values keep their order, and trunc, the 1-tick clamp
 *     and the integer latency add keep it too
 *     (LinkSpec.TransferTimeIsMonotoneInBytes checks the presets).
 *  3. scoreOf() is monotone in each field: coverage <= ceiling holds
 *     on the doubles (same integer-to-double division), and int64 to
 *     double, the division in toMs(), the add of a fixed non-negative
 *     penalty and the final subtraction are IEEE round-to-nearest
 *     operations, each monotone.  So each rounded step of scoreOf()
 *     on the evaluation stays at or below the matching step here.
 */
double
scoreCeiling(double coverage, Tick drain_floor, int broken)
{
    return scoreOf({coverage, drain_floor, broken});
}

/** Placement-independent inputs of the scan's bounds, computed once
 *  per search. */
struct ScanBounds
{
    /**
     * Ceiling on a leaf's coverage.  Each GPU hosts at most one stage,
     * so the total overflow is the same for every placement, and
     * every grant is carved out of some GPU's grantableSpare() (a GPU
     * hosting no stage lends capacity x kSpareSafety).  Covered bytes
     * can therefore never exceed min(total overflow, total spare).
     * 1.0 when nothing overflows.
     */
    double ceiling = 1.0;
    /** Floor A's lead exporter: the unique stage of largest desire, if
     *  it overflows; -1 otherwise.  On a tie the stable sort in
     *  assignSpareInto() serves the lower GPU first, which depends on
     *  the placement, so floor A is off. */
    int lead = -1;
    Bytes leadOver = 0;
    Bytes leadDesire = 0;
    /** grantableSpare() of each stage's GPU, and of a GPU with none. */
    std::vector<Bytes> stageSpare;
    Bytes idleSpare = 0;
};

ScanBounds
scanBounds(const std::vector<Bytes> &stage_demand, int num_gpus,
           Bytes capacity, const std::vector<Bytes> &stage_desire)
{
    ScanBounds b;
    b.idleSpare = grantableSpare(0, capacity);
    Bytes total_overflow = 0, total_spare = 0, top = 0;
    bool tied = false;
    for (std::size_t s = 0; s < stage_demand.size(); ++s) {
        Bytes d = stage_demand[s];
        Bytes over = d > capacity ? d - capacity : 0;
        total_overflow += over;
        b.stageSpare.push_back(grantableSpare(d, capacity));
        total_spare += b.stageSpare.back();
        // The desire assignSpareInto() gives the stage's GPU.
        Bytes desire =
            stage_desire.empty() ? overflowDesire(over) : stage_desire[s];
        if (desire > top) {
            top = desire;
            tied = false;
            b.lead = static_cast<int>(s);
            b.leadOver = over;
            b.leadDesire = desire;
        } else if (desire > 0 && desire == top) {
            tied = true;
        }
    }
    if (tied || b.leadOver == 0)
        b.lead = -1;
    const auto idle =
        static_cast<Bytes>(num_gpus) -
        static_cast<Bytes>(stage_demand.size());
    total_spare += idle * b.idleSpare;
    b.ceiling = total_overflow == 0
                    ? 1.0
                    : static_cast<double>(
                          std::min(total_overflow, total_spare)) /
                          static_cast<double>(total_overflow);
    return b;
}

/** Floor A (see scoreCeiling): the lead exporter's drainFloor() over
 *  every GPU it reaches with spare, read off the stage each one hosts
 *  (@p gpu_stage, -1 for none) before any spare is assigned. */
Tick
leadDrainFloor(Scratch &ws, const LaneMatrix &lanes,
               const ScanBounds &bounds,
               const std::vector<int> &gpu_stage)
{
    const int exp =
        ws.stageToGpu[static_cast<std::size_t>(bounds.lead)];
    ws.reach.clear();
    Bytes spare = 0;
    for (int imp = 0; imp < lanes.n; ++imp) {
        if (lanes.at(exp, imp) == 0)
            continue;
        const int s = gpu_stage[static_cast<std::size_t>(imp)];
        Bytes lend = s < 0 ? bounds.idleSpare
                           : bounds.stageSpare[static_cast<std::size_t>(s)];
        if (lend <= 0)
            continue;
        ws.reach.push_back({imp, lend});
        spare += lend;
    }
    Bytes placed =
        std::min(bounds.leadOver, std::min(bounds.leadDesire, spare));
    return drainFloor(lanes, exp, placed, ws.reach);
}

/** Best candidate of one scan chunk, in chunk-lexicographic order. */
struct ChunkBest
{
    bool have = false;
    double score = 0.0;
    std::vector<int> stageToGpu;
    long evaluated = 0;
    long pruned = 0;
};

/**
 * Scan every placement that starts with @p prefix: the remaining
 * stage positions take the unused GPUs in lexicographic order, so
 * concatenating the chunks (prefixes in lexicographic order) yields
 * exactly the serial enumeration — the winner and its lowest-index
 * tie-break are independent of how chunks are scheduled on threads.
 *
 * The walk is a branch-and-bound against the chunk's own best score
 * (never another chunk's, so the counts do not depend on scheduling
 * either).  A prefix whose scoreCeiling() over the coverage ceiling
 * and its broken adjacencies so far cannot strictly beat it is skipped
 * with its whole subtree; so is a leaf whose floor A cannot, before
 * any spare is assigned.  A leaf whose grantBound() (exact coverage,
 * floor B) cannot is evaluated but never striped.  Ties keep the
 * earlier placement, exactly as the full walk would.
 */
ChunkBest
scanChunk(const hw::Topology &topo, const LaneMatrix &lanes,
          const std::vector<int> &prefix,
          const std::vector<Bytes> &stage_demand, Bytes capacity,
          const std::vector<Bytes> &stage_desire,
          const ScanBounds &bounds)
{
    const int n = lanes.n;
    const int k = static_cast<int>(stage_demand.size());
    ChunkBest best;
    Scratch ws(n);
    ws.stageToGpu.assign(static_cast<std::size_t>(k), -1);
    // The stage on each GPU, -1 while it is free.
    std::vector<int> gpu_stage(static_cast<std::size_t>(n), -1);
    int broken = 0;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        ws.stageToGpu[i] = prefix[i];
        gpu_stage[static_cast<std::size_t>(prefix[i])] =
            static_cast<int>(i);
        if (i > 0 && lanes.at(prefix[i - 1], prefix[i]) == 0)
            ++broken;
    }

    // Placements below a depth-d prefix: (n-d)! / (n-k)!.
    std::vector<long> subtree(static_cast<std::size_t>(k) + 1, 1);
    for (int d = k - 1; d >= 0; --d)
        subtree[static_cast<std::size_t>(d)] =
            subtree[static_cast<std::size_t>(d) + 1] * (n - d);

    auto visit = [&](int leaf_broken) {
        if (best.have && bounds.lead >= 0 &&
            scoreCeiling(bounds.ceiling,
                         leadDrainFloor(ws, lanes, bounds, gpu_stage),
                         leaf_broken) <= best.score) {
            ++best.pruned;
            return;
        }
        assignSpareInto(ws, lanes, ws.stageToGpu, stage_demand,
                        capacity, stage_desire);
        Evaluation bound = grantBound(ws, lanes, capacity);
        ++best.evaluated;
        // The grant lists tighten the bound before any stripe plan is
        // built.
        if (best.have &&
            scoreCeiling(bound.coverage, bound.worstDrain, leaf_broken) <=
                best.score)
            return;
        Evaluation ev = finishEval(topo, lanes, ws, ws.stageToGpu,
                                   capacity, bound.coverage);
        double score = scoreOf(ev);
        if (!best.have || score > best.score) {
            best.have = true;
            best.score = score;
            best.stageToGpu = ws.stageToGpu;
        }
    };

    // Lexicographic enumeration of the unused GPUs over the tail
    // positions.  Stages beyond num_stages do not exist: placements
    // are k-permutations, so each distinct mapping is evaluated
    // exactly once (the old full-n! scan evaluated duplicate prefixes
    // (n-k)! times and kept the first — same winner, more work).
    auto walk = [&](auto &&self, int depth, int prefix_broken) -> void {
        if (best.have &&
            scoreCeiling(bounds.ceiling, 0, prefix_broken) <=
                best.score) {
            best.pruned += subtree[static_cast<std::size_t>(depth)];
            return;
        }
        if (depth == k) {
            visit(prefix_broken);
            return;
        }
        const int prev =
            ws.stageToGpu[static_cast<std::size_t>(depth - 1)];
        for (int g = 0; g < n; ++g) {
            auto &slot = gpu_stage[static_cast<std::size_t>(g)];
            if (slot >= 0)
                continue;
            slot = depth;
            ws.stageToGpu[static_cast<std::size_t>(depth)] = g;
            self(self, depth + 1,
                 prefix_broken + (lanes.at(prev, g) == 0 ? 1 : 0));
            slot = -1;
        }
    };
    walk(walk, static_cast<int>(prefix.size()), broken);
    return best;
}

} // namespace

MappingResult
evaluatePlacement(const hw::Topology &topo,
                  const std::vector<int> &stage_to_gpu,
                  const std::vector<Bytes> &stage_demand,
                  Bytes capacity,
                  const std::vector<Bytes> &stage_desire)
{
    const LaneMatrix lanes(topo);
    Scratch ws(lanes.n);
    assignSpareInto(ws, lanes, stage_to_gpu, stage_demand, capacity,
                    stage_desire);
    Evaluation ev =
        finishEval(topo, lanes, ws, stage_to_gpu, capacity,
                   grantBound(ws, lanes, capacity).coverage);
    MappingResult result;
    result.stageToGpu = stage_to_gpu;
    for (int exp = 0; exp < lanes.n; ++exp) {
        auto &list = ws.grantList[static_cast<std::size_t>(exp)];
        if (!list.empty())
            result.grants.emplace(exp, std::move(list));
    }
    result.coverage = ev.coverage;
    result.score = scoreOf(ev);
    result.evaluated = 1;
    return result;
}

MappingResult
searchDeviceMapping(const hw::Topology &topo,
                    const std::vector<Bytes> &stage_demand,
                    Bytes capacity, MapperConfig config,
                    const std::vector<Bytes> &stage_desire,
                    util::ThreadPool *pool)
{
    const int num_stages = static_cast<int>(stage_demand.size());
    if (num_stages > topo.numGpus())
        util::fatal("more stages (%d) than GPUs (%d)", num_stages,
                    topo.numGpus());

    auto finalize = [&](const std::vector<int> &stage_to_gpu,
                        long evaluated, long pruned) {
        MappingResult best =
            evaluatePlacement(topo, stage_to_gpu, stage_demand,
                              capacity, stage_desire);
        best.evaluated = evaluated;
        best.pruned = pruned;
        return best;
    };

    // Hierarchical cluster placement: an asymmetric multi-node fabric
    // would otherwise fall into the identity short-circuit below (the
    // factorial over 16+ GPUs is hopeless).  Stages are dealt out as
    // contiguous blocks, one block per node — pipeline order follows
    // the node chain so only one boundary per node pair crosses a NIC
    // — and each block is placed by an independent intra-node scan on
    // the extracted node view.  Grants are finalized globally on the
    // full topology, so cross-node donors remain available to stages
    // whose own node has no spare left.  Node scans run serially in
    // node order (each may use the pool internally), keeping the
    // result byte-identical across thread counts.
    if (topo.multiNodeFabric() && !topo.symmetric() &&
        config.searchPlacement && topo.gpusPerNode() <= 8 &&
        num_stages % topo.numNodes() == 0) {
        const int nodes = topo.numNodes();
        const int per = num_stages / nodes;
        const int gpn = topo.gpusPerNode();
        std::vector<int> assembled(
            static_cast<std::size_t>(num_stages));
        long evaluated = 0, pruned = 0;
        for (int node = 0; node < nodes; ++node) {
            hw::Topology sub = topo.extractNode(node);
            auto base = static_cast<std::size_t>(node) *
                        static_cast<std::size_t>(per);
            std::vector<Bytes> demand(
                stage_demand.begin() + static_cast<long>(base),
                stage_demand.begin() + static_cast<long>(base) + per);
            std::vector<Bytes> desire;
            if (!stage_desire.empty())
                desire.assign(
                    stage_desire.begin() + static_cast<long>(base),
                    stage_desire.begin() + static_cast<long>(base) +
                        per);
            MappingResult r = searchDeviceMapping(
                sub, demand, capacity, config, desire, pool);
            for (int s = 0; s < per; ++s)
                assembled[base + static_cast<std::size_t>(s)] =
                    node * gpn +
                    r.stageToGpu[static_cast<std::size_t>(s)];
            evaluated += r.evaluated;
            pruned += r.pruned;
        }
        return finalize(assembled, evaluated, pruned);
    }

    // 8! placements are cheap; beyond 8 GPUs the factorial explodes,
    // so symmetric clusters keep the identity placement (stages
    // already follow the node chain; every intra-node slot is
    // equivalent).
    if (topo.symmetric() || !config.searchPlacement ||
        topo.numGpus() > 8) {
        // Switch fabrics make every placement equivalent; with the
        // search disabled we likewise keep the identity mapping.
        // Either way all spare memory is granted (Sec. III-C).
        std::vector<int> identity(
            static_cast<std::size_t>(num_stages));
        std::iota(identity.begin(), identity.end(), 0);
        return finalize(identity, 1, 0);
    }

    // Chunked scan: fix the first min(2, k) stage positions per chunk
    // (56 chunks on an 8-GPU server) and enumerate the tails
    // independently.  Chunk boundaries are a property of the problem,
    // not of the thread count, so the reduction below — first chunk
    // in lexicographic order wins score ties — selects the same
    // placement whether the chunks run serially or on the pool.
    const int n = topo.numGpus();
    const LaneMatrix lanes(topo);
    const ScanBounds bounds =
        scanBounds(stage_demand, n, capacity, stage_desire);
    std::vector<std::vector<int>> prefixes;
    if (num_stages >= 2) {
        for (int a = 0; a < n; ++a) {
            for (int b = 0; b < n; ++b) {
                if (b != a)
                    prefixes.push_back({a, b});
            }
        }
    } else {
        for (int a = 0; a < n; ++a)
            prefixes.push_back({a});
    }

    std::vector<ChunkBest> results(prefixes.size());
    auto scan_one = [&](std::size_t c) {
        results[c] =
            scanChunk(topo, lanes, prefixes[c], stage_demand, capacity,
                      stage_desire, bounds);
    };
    if (pool != nullptr && pool->threads() > 1)
        pool->parallelFor(prefixes.size(), scan_one);
    else {
        for (std::size_t c = 0; c < prefixes.size(); ++c)
            scan_one(c);
    }

    long evaluated = 0, pruned = 0;
    const ChunkBest *winner = nullptr;
    for (const auto &r : results) {
        evaluated += r.evaluated;
        pruned += r.pruned;
        if (r.have && (winner == nullptr || r.score > winner->score))
            winner = &r;
    }
    if (winner == nullptr)
        util::fatal("placement scan found no candidate");
    return finalize(winner->stageToGpu, evaluated, pruned);
}

} // namespace planner
} // namespace mpress
