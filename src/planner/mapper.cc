#include "planner/mapper.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>

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

/** Dense lane-count matrix and neighbour lists, read-only during the
 *  scan.  The topology accessor is cheap but sits in the innermost
 *  loops (x 40320 placements); one flat copy keeps the scan in cache.
 *  Lane counts come from pathLanes(), so on a cluster a cross-node
 *  pair shows its (thin) NIC path instead of zero — cross-node donors
 *  are reachable, just unattractive.  Each GPU's neighbours (the GPUs
 *  it has lanes to, in index order) are listed once: a DGX-1 GPU has
 *  4 of 8, and the scan's per-placement loops walk only those.  Each
 *  connected pair's link spec is cached too (the topology outlives
 *  the scan): on a cluster a pair's spec depends on whether it
 *  crosses a node, and the drain floors read it at every leaf. */
struct LaneMatrix
{
    int n = 0;
    std::vector<int> lanes;
    std::vector<int> node;
    std::vector<const hw::LinkSpec *> specs;
    /** GPU a's neighbours are nbr[nbrStart[a]] .. nbr[nbrStart[a+1]-1]. */
    std::vector<int> nbrStart;
    std::vector<int> nbr;

    explicit LaneMatrix(const hw::Topology &topo)
        : n(topo.numGpus()),
          lanes(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
          node(static_cast<std::size_t>(n)),
          specs(lanes.size()),
          nbrStart(static_cast<std::size_t>(n) + 1)
    {
        nbr.reserve(lanes.size());
        for (int a = 0; a < n; ++a) {
            node[static_cast<std::size_t>(a)] = topo.nodeOf(a);
            nbrStart[static_cast<std::size_t>(a)] =
                static_cast<int>(nbr.size());
            for (int b = 0; b < n; ++b) {
                lanes[idx(a, b)] = topo.pathLanes(a, b);
                if (lanes[idx(a, b)] > 0) {
                    specs[idx(a, b)] = &topo.linkSpecBetween(a, b);
                    nbr.push_back(b);
                }
            }
        }
        nbrStart[static_cast<std::size_t>(n)] = static_cast<int>(nbr.size());
    }

    std::size_t
    idx(int a, int b) const
    {
        return static_cast<std::size_t>(a) *
                   static_cast<std::size_t>(n) +
               static_cast<std::size_t>(b);
    }

    int at(int a, int b) const { return lanes[idx(a, b)]; }

    /** The GPUs @p a has lanes to, in index order. */
    std::span<const int>
    neighbours(int a) const
    {
        const auto i = static_cast<std::size_t>(a);
        return {nbr.data() + nbrStart[i],
                static_cast<std::size_t>(nbrStart[i + 1] - nbrStart[i])};
    }

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
 *  - floor B, after assignSpare(): every exporter over its own
 *    grant list (grantDrainFloor()).
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
 * The stage table: everything about the stages that no placement
 * changes, computed once per search and read (never copied) by every
 * scan chunk.  A GPU hosts at most one stage, so a stage's demand, its
 * desire and the spare its GPU may lend travel with it, and a GPU
 * hosting no stage lends idleSpare.  The rest feeds the scan's bounds.
 */
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
    /** scoreCeiling() of a prefix with b broken adjacencies: the
     *  coverage ceiling and no drain floor, for b = 0 .. k. */
    std::vector<double> prefixCeiling;
    /** Sum of every stage's overflow. */
    Bytes totalOverflow = 0;
    /** Floor A's lead exporter: the unique stage of largest desire, if
     *  it overflows; -1 otherwise.  On a tie assignSpare() serves the
     *  lower GPU first, which depends on the placement, so floor A is
     *  off. */
    int lead = -1;
    Bytes leadOver = 0;
    Bytes leadDesire = 0;
    /** Per stage: its demand; its desire, the D2D bytes assignSpare()
     *  grants it (the explicit stage_desire, else overflowDesire()); and
     *  the grantableSpare() of its GPU. */
    std::vector<Bytes> demand;
    std::vector<Bytes> desire;
    std::vector<Bytes> stageSpare;
    /** grantableSpare() of a GPU that hosts no stage. */
    Bytes idleSpare = 0;
    /** The exporters (stages of positive desire) in the order
     *  assignSpare() serves them: largest desire first, ties by stage
     *  index. */
    std::vector<int> exporters;
    /** Two exporters tie in desire.  assignSpare() then serves the one
     *  on the lower GPU first, which depends on the placement. */
    bool desireTies = false;
};

ScanBounds
scanBounds(const std::vector<Bytes> &stage_demand, int num_gpus,
           Bytes capacity, const std::vector<Bytes> &stage_desire)
{
    ScanBounds b;
    b.demand = stage_demand;
    b.idleSpare = grantableSpare(0, capacity);
    Bytes total_spare = 0, top = 0;
    bool tied = false;
    for (std::size_t s = 0; s < stage_demand.size(); ++s) {
        Bytes d = stage_demand[s];
        Bytes over = d > capacity ? d - capacity : 0;
        b.totalOverflow += over;
        b.stageSpare.push_back(grantableSpare(d, capacity));
        total_spare += b.stageSpare.back();
        // An explicit desire vector (the planner's post-compaction
        // re-map) overrides the overflow heuristic.
        Bytes desire =
            stage_desire.empty() ? overflowDesire(over) : stage_desire[s];
        b.desire.push_back(desire);
        if (desire > 0)
            b.exporters.push_back(static_cast<int>(s));
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
    stableSortSmall(b.exporters, [&](int x, int y) {
        return b.desire[static_cast<std::size_t>(x)] >
               b.desire[static_cast<std::size_t>(y)];
    });
    for (std::size_t i = 1; i < b.exporters.size(); ++i) {
        b.desireTies |=
            b.desire[static_cast<std::size_t>(b.exporters[i])] ==
            b.desire[static_cast<std::size_t>(b.exporters[i - 1])];
    }
    const auto idle =
        static_cast<Bytes>(num_gpus) -
        static_cast<Bytes>(stage_demand.size());
    total_spare += idle * b.idleSpare;
    b.ceiling = b.totalOverflow == 0
                    ? 1.0
                    : static_cast<double>(
                          std::min(b.totalOverflow, total_spare)) /
                          static_cast<double>(b.totalOverflow);
    for (std::size_t broken = 0; broken <= stage_demand.size(); ++broken)
        b.prefixCeiling.push_back(
            scoreCeiling(b.ceiling, 0, static_cast<int>(broken)));
    return b;
}

/**
 * One placement's per-GPU state plus the buffers its evaluation
 * reuses.  The scan keeps one per chunk: place() and remove() keep the
 * state current as the walk moves, so a leaf runs only the greedy
 * grant loop, and evaluatePlacement() places its stages one by one.
 * With the buffers reused across a chunk the steady-state scan is
 * allocation-free, stripe plans included (8! placements would
 * otherwise allocate hundreds of thousands of times per search).
 */
struct Scratch
{
    /** Each stage's GPU (-1 while unplaced) and each GPU's stage (-1
     *  while free). */
    std::vector<int> stageToGpu;
    std::vector<int> gpuStage;
    /** Each GPU's stage demand (0 while free). */
    std::vector<Bytes> demandOnGpu;
    /** grantableSpare() of each GPU as placed. */
    std::vector<Bytes> lend;
    /** How many placed exporters reach each GPU. */
    std::vector<int> contention;

    /** assignSpare()'s working copy of lend. */
    std::vector<Bytes> spare;
    std::vector<int> exporters;
    std::vector<int> importers;
    /** Per-exporter grant lists (indexed by GPU, cleared per eval). */
    std::vector<std::vector<SpareGrant>> grantList;
    /** The GPUs floor A's lead exporter could draw spare from. */
    std::vector<SpareGrant> reach;
    /** finishEval()'s stripe plans and their working storage. */
    compaction::StripePlan stripes;
    compaction::StripeScratch stripeScratch;

    Scratch(int n, const ScanBounds &table)
        : stageToGpu(table.demand.size(), -1),
          gpuStage(static_cast<std::size_t>(n), -1),
          demandOnGpu(static_cast<std::size_t>(n)),
          lend(static_cast<std::size_t>(n), table.idleSpare),
          contention(static_cast<std::size_t>(n)),
          spare(static_cast<std::size_t>(n)),
          grantList(static_cast<std::size_t>(n))
    {
        exporters.reserve(table.exporters.size());
        importers.reserve(static_cast<std::size_t>(n));
        reach.reserve(static_cast<std::size_t>(n));
    }

    /** Put stage @p s on the free GPU @p g. */
    void
    place(const LaneMatrix &lanes, const ScanBounds &table, int s, int g)
    {
        const auto si = static_cast<std::size_t>(s);
        const auto gi = static_cast<std::size_t>(g);
        stageToGpu[si] = g;
        gpuStage[gi] = s;
        demandOnGpu[gi] = table.demand[si];
        lend[gi] = table.stageSpare[si];
        if (table.desire[si] > 0) {
            for (int imp : lanes.neighbours(g))
                ++contention[static_cast<std::size_t>(imp)];
        }
    }

    /** Undo place() of stage @p s. */
    void
    remove(const LaneMatrix &lanes, const ScanBounds &table, int s)
    {
        const auto si = static_cast<std::size_t>(s);
        const int g = stageToGpu[si];
        const auto gi = static_cast<std::size_t>(g);
        stageToGpu[si] = -1;
        gpuStage[gi] = -1;
        demandOnGpu[gi] = 0;
        lend[gi] = table.idleSpare;
        if (table.desire[si] > 0) {
            for (int imp : lanes.neighbours(g))
                --contention[static_cast<std::size_t>(imp)];
        }
    }
};

/**
 * Assign importer spare budgets to exporters for the placement in
 * @p ws, the one routine behind both the scan and evaluatePlacement().
 *
 * Each importer's usable spare is split among the NVLink-reachable
 * exporters in proportion to (exporter overflow x lane count), which
 * both drains big exporters faster and prefers fat links — the
 * "assign_mem" step of Figure 6, with the per-GPU plans combined by
 * proportional sharing instead of exhaustive permutation.  The grants
 * land in ws.grantList, which feeds the evaluation.
 */
void
assignSpare(Scratch &ws, const LaneMatrix &lanes, const ScanBounds &table)
{
    ws.spare = ws.lend;
    for (auto &list : ws.grantList)
        list.clear();

    // Exporter-major greedy, big demands first (ties on the lower GPU
    // first); each exporter drains its least-contended importers
    // before touching shared pools, so exporters with few reachable
    // peers are not starved.
    ws.exporters = table.exporters;
    if (table.desireTies) {
        stableSortSmall(ws.exporters, [&](int a, int b) {
            const auto da = table.desire[static_cast<std::size_t>(a)];
            const auto db = table.desire[static_cast<std::size_t>(b)];
            if (da != db)
                return da > db;
            return ws.stageToGpu[static_cast<std::size_t>(a)] <
                   ws.stageToGpu[static_cast<std::size_t>(b)];
        });
    }

    for (int s : ws.exporters) {
        const int exp = ws.stageToGpu[static_cast<std::size_t>(s)];
        ws.importers.clear();
        for (int imp : lanes.neighbours(exp)) {
            if (ws.spare[static_cast<std::size_t>(imp)] > 0)
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
        auto &list = ws.grantList[static_cast<std::size_t>(exp)];
        Bytes want = table.desire[static_cast<std::size_t>(s)];
        for (int imp : ws.importers) {
            if (want <= 0)
                break;
            Bytes take = std::min(
                ws.spare[static_cast<std::size_t>(imp)], want);
            if (take <= 0)
                continue;
            ws.spare[static_cast<std::size_t>(imp)] -= take;
            want -= take;
            list.push_back({imp, take});
        }

        // Order the grants intra-node first, then by lane count (fat
        // links first) so the runtime's striping prefers them.  A
        // cross-node grant can show more raw lanes (many NICs) than a
        // sparse NVLink hop, but each NIC lane is slower and shared.
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

/** Bytes the exporter on @p gpu places in its grants, min(overflow,
 *  granted): 0 unless it overflows and holds grants. */
Bytes
placedBytes(const Scratch &ws, Bytes capacity, int gpu)
{
    const Bytes d = ws.demandOnGpu[static_cast<std::size_t>(gpu)];
    const auto &gl = ws.grantList[static_cast<std::size_t>(gpu)];
    if (d <= capacity || gl.empty())
        return 0;
    Bytes granted = 0;
    for (const auto &g : gl)
        granted += g.budget;
    return std::min(d - capacity, granted);
}

/** The exact overflow coverage of the ws grant lists.  Only exporters
 *  hold grants, and the total overflow is the same for every
 *  placement. */
double
grantCoverage(const Scratch &ws, const ScanBounds &table, Bytes capacity)
{
    if (table.totalOverflow == 0)
        return 1.0;
    Bytes covered = 0;
    for (int s : table.exporters) {
        covered += placedBytes(ws, capacity,
                               ws.stageToGpu[static_cast<std::size_t>(s)]);
    }
    return static_cast<double>(covered) /
           static_cast<double>(table.totalOverflow);
}

/** Floor B (see scoreCeiling), read off the ws grant lists: the
 *  largest drainFloor() of an exporter over its own grants. */
Tick
grantDrainFloor(const Scratch &ws, const LaneMatrix &lanes,
                const ScanBounds &table, Bytes capacity)
{
    Tick floor = 0;
    for (int s : table.exporters) {
        const int gpu = ws.stageToGpu[static_cast<std::size_t>(s)];
        floor = std::max(
            floor, drainFloor(lanes, gpu, placedBytes(ws, capacity, gpu),
                              ws.grantList[static_cast<std::size_t>(gpu)]));
    }
    return floor;
}

/** The expensive half of the evaluation: stripe-plan drain times and
 *  pipeline adjacency, run only for candidates whose exact coverage
 *  and floor B can still beat the chunk's best score. */
Evaluation
finishEval(const hw::Topology &topo, const LaneMatrix &lanes,
           const ScanBounds &table, Scratch &ws, Bytes capacity,
           double coverage)
{
    Evaluation ev;
    ev.coverage = coverage;
    for (int s : table.exporters) {
        const int gpu = ws.stageToGpu[static_cast<std::size_t>(s)];
        const Bytes placed = placedBytes(ws, capacity, gpu);
        if (placed <= 0)
            continue;
        compaction::makeStripePlan(
            topo, gpu, ws.grantList[static_cast<std::size_t>(gpu)], placed,
            ws.stripes, ws.stripeScratch);
        if (!ws.stripes.empty()) {
            ev.worstDrain = std::max(
                ev.worstDrain,
                compaction::stripePlanTime(topo, gpu, ws.stripes));
        }
    }
    const std::vector<int> &stage_to_gpu = ws.stageToGpu;
    for (std::size_t s = 0; s + 1 < stage_to_gpu.size(); ++s) {
        if (lanes.at(stage_to_gpu[s], stage_to_gpu[s + 1]) == 0)
            ++ev.brokenAdjacency;
    }
    return ev;
}

/** Floor A (see scoreCeiling): the lead exporter's drainFloor() over
 *  every neighbour with spare to lend, read off the placement in
 *  @p ws before any spare is assigned. */
Tick
leadDrainFloor(Scratch &ws, const LaneMatrix &lanes,
               const ScanBounds &table)
{
    const int exp =
        ws.stageToGpu[static_cast<std::size_t>(table.lead)];
    ws.reach.clear();
    Bytes spare = 0;
    for (int imp : lanes.neighbours(exp)) {
        const Bytes lend = ws.lend[static_cast<std::size_t>(imp)];
        if (lend <= 0)
            continue;
        ws.reach.push_back({imp, lend});
        spare += lend;
    }
    Bytes placed =
        std::min(table.leadOver, std::min(table.leadDesire, spare));
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
 * any spare is assigned.  A leaf whose exact coverage, or failing
 * that floor B, cannot is evaluated but never striped.  Ties keep the
 * earlier placement, exactly as the full walk would.
 */
ChunkBest
scanChunk(const hw::Topology &topo, const LaneMatrix &lanes,
          const std::vector<int> &prefix, Bytes capacity,
          const ScanBounds &table)
{
    const int n = lanes.n;
    const int k = static_cast<int>(table.demand.size());
    ChunkBest best;
    Scratch ws(n, table);
    int broken = 0;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        ws.place(lanes, table, static_cast<int>(i), prefix[i]);
        if (i > 0 && lanes.at(prefix[i - 1], prefix[i]) == 0)
            ++broken;
    }

    // Placements below a depth-d prefix: (n-d)! / (n-k)!.
    std::vector<long> subtree(static_cast<std::size_t>(k) + 1, 1);
    for (int d = k - 1; d >= 0; --d)
        subtree[static_cast<std::size_t>(d)] =
            subtree[static_cast<std::size_t>(d) + 1] * (n - d);

    auto visit = [&](int leaf_broken) {
        if (best.have && table.lead >= 0 &&
            scoreCeiling(table.ceiling, leadDrainFloor(ws, lanes, table),
                         leaf_broken) <= best.score) {
            ++best.pruned;
            return;
        }
        assignSpare(ws, lanes, table);
        ++best.evaluated;
        // The grant lists tighten the bound before any stripe plan is
        // built: the exact coverage first, then floor B.
        const double coverage = grantCoverage(ws, table, capacity);
        if (best.have &&
            (scoreCeiling(coverage, 0, leaf_broken) <= best.score ||
             scoreCeiling(coverage,
                          grantDrainFloor(ws, lanes, table, capacity),
                          leaf_broken) <= best.score))
            return;
        Evaluation ev =
            finishEval(topo, lanes, table, ws, capacity, coverage);
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
            table.prefixCeiling[static_cast<std::size_t>(prefix_broken)] <=
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
            if (ws.gpuStage[static_cast<std::size_t>(g)] >= 0)
                continue;
            ws.place(lanes, table, depth, g);
            self(self, depth + 1,
                 prefix_broken + (lanes.at(prev, g) == 0 ? 1 : 0));
            ws.remove(lanes, table, depth);
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
    const ScanBounds table =
        scanBounds(stage_demand, lanes.n, capacity, stage_desire);
    Scratch ws(lanes.n, table);
    if (stage_to_gpu.size() != stage_demand.size())
        util::panic("placement covers %zu of %zu stages",
                    stage_to_gpu.size(), stage_demand.size());
    for (std::size_t s = 0; s < stage_to_gpu.size(); ++s) {
        const int g = stage_to_gpu[s];
        if (g < 0 || g >= lanes.n ||
            ws.gpuStage[static_cast<std::size_t>(g)] >= 0)
            util::panic("placement is not injective: stage %zu on GPU %d",
                        s, g);
        ws.place(lanes, table, static_cast<int>(s), g);
    }
    assignSpare(ws, lanes, table);
    Evaluation ev = finishEval(topo, lanes, table, ws, capacity,
                               grantCoverage(ws, table, capacity));
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
    const ScanBounds table =
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
            scanChunk(topo, lanes, prefixes[c], capacity, table);
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
