#include "planner/mapper.hh"

#include <algorithm>
#include <cmath>
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
 *  zero — cross-node donors are reachable, just unattractive. */
struct LaneMatrix
{
    int n = 0;
    std::vector<int> lanes;
    std::vector<int> node;

    explicit LaneMatrix(const hw::Topology &topo)
        : n(topo.numGpus()),
          lanes(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
          node(static_cast<std::size_t>(n))
    {
        for (int a = 0; a < n; ++a) {
            node[static_cast<std::size_t>(a)] = topo.nodeOf(a);
            for (int b = 0; b < n; ++b)
                lanes[idx(a, b)] = topo.pathLanes(a, b);
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
 * allocation-free except for stripe plans of contending candidates.
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
    std::vector<int> stageToGpu;

    explicit Scratch(int n)
        : demandOnGpu(static_cast<std::size_t>(n)),
          desire(static_cast<std::size_t>(n)),
          spare(static_cast<std::size_t>(n)),
          contention(static_cast<std::size_t>(n)),
          grantList(static_cast<std::size_t>(n))
    {
        exporters.reserve(static_cast<std::size_t>(n));
        importers.reserve(static_cast<std::size_t>(n));
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

    // Each exporter wants comfortably more budget than its raw
    // overflow: swap classes are whole layers with all in-flight
    // instances resident on importers at once, so the concurrent
    // footprint exceeds the peak overshoot.  An explicit desire
    // vector (the planner's post-compaction re-map) overrides the
    // overflow heuristic.
    std::fill(ws.desire.begin(), ws.desire.end(), 0);
    if (stage_desire.empty()) {
        for (int exp = 0; exp < n; ++exp) {
            Bytes over = overflow_of(exp);
            if (over > 0)
                ws.desire[static_cast<std::size_t>(exp)] =
                    2 * over + 2 * util::kGB;
        }
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

/** Overflow coverage of the current ws grant assignment — the cheap
 *  part of the evaluation, and an upper bound on the score (drain
 *  time and adjacency penalties only subtract). */
double
coverageOf(const Scratch &ws, Bytes capacity)
{
    Bytes total_overflow = 0, covered = 0;
    const int n = static_cast<int>(ws.demandOnGpu.size());
    for (int gpu = 0; gpu < n; ++gpu) {
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
        covered += std::min(over, granted);
    }
    return total_overflow == 0
               ? 1.0
               : static_cast<double>(covered) /
                     static_cast<double>(total_overflow);
}

/** The expensive half of the evaluation: stripe-plan drain times and
 *  pipeline adjacency, run only for candidates whose coverage bound
 *  can still beat the chunk's best score. */
Evaluation
finishEval(const hw::Topology &topo, const LaneMatrix &lanes,
           const Scratch &ws, const std::vector<int> &stage_to_gpu,
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
            auto plan =
                compaction::makeStripePlan(topo, gpu, gl, placed);
            if (!plan.empty()) {
                ev.worstDrain = std::max(
                    ev.worstDrain,
                    compaction::stripePlanTime(topo, gpu, plan));
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
 * most @p coverage and whose broken adjacencies are at least
 * @p broken.  Sound in floating point, not just in real arithmetic:
 * coverage <= ceiling holds on the doubles (same integer-to-double
 * division), the drain term is >= 0 and the penalty is a fixed
 * constant >= 0, and IEEE round-to-nearest is monotone in every
 * operation used, so each rounded step of scoreOf() stays at or
 * below the matching step here.
 */
double
scoreCeiling(double coverage, int broken)
{
    return coverage * 1e6 - kAdjacencyPenaltyMs * broken;
}

/**
 * Placement-independent ceiling on coverageOf().  Each GPU hosts at
 * most one stage, so the total overflow is the same for every
 * placement, and every grant is carved out of some GPU's
 * grantableSpare() (a GPU hosting no stage lends capacity x
 * kSpareSafety).  Covered bytes can therefore never exceed
 * min(total overflow, total spare).  1.0 when nothing overflows.
 */
double
coverageCeiling(const std::vector<Bytes> &stage_demand, int num_gpus,
                Bytes capacity)
{
    Bytes total_overflow = 0, total_spare = 0;
    for (Bytes d : stage_demand) {
        total_overflow += d > capacity ? d - capacity : 0;
        total_spare += grantableSpare(d, capacity);
    }
    const auto idle =
        static_cast<Bytes>(num_gpus) -
        static_cast<Bytes>(stage_demand.size());
    total_spare += idle * grantableSpare(0, capacity);
    return total_overflow == 0
               ? 1.0
               : static_cast<double>(
                     std::min(total_overflow, total_spare)) /
                     static_cast<double>(total_overflow);
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
 * either): a prefix whose scoreCeiling(@p ceiling, broken adjacencies
 * so far) cannot strictly beat it is skipped with its whole subtree.
 * Ties keep the earlier placement, exactly as the full walk would.
 */
ChunkBest
scanChunk(const hw::Topology &topo, const LaneMatrix &lanes,
          const std::vector<int> &prefix,
          const std::vector<Bytes> &stage_demand, Bytes capacity,
          const std::vector<Bytes> &stage_desire, double ceiling)
{
    const int n = lanes.n;
    const int k = static_cast<int>(stage_demand.size());
    ChunkBest best;
    Scratch ws(n);
    ws.stageToGpu.assign(static_cast<std::size_t>(k), -1);
    std::vector<char> used(static_cast<std::size_t>(n), 0);
    int broken = 0;
    for (std::size_t i = 0; i < prefix.size(); ++i) {
        ws.stageToGpu[i] = prefix[i];
        used[static_cast<std::size_t>(prefix[i])] = 1;
        if (i > 0 && lanes.at(prefix[i - 1], prefix[i]) == 0)
            ++broken;
    }

    // Placements below a depth-d prefix: (n-d)! / (n-k)!.
    std::vector<long> subtree(static_cast<std::size_t>(k) + 1, 1);
    for (int d = k - 1; d >= 0; --d)
        subtree[static_cast<std::size_t>(d)] =
            subtree[static_cast<std::size_t>(d) + 1] * (n - d);

    auto visit = [&](int leaf_broken) {
        assignSpareInto(ws, lanes, ws.stageToGpu, stage_demand,
                        capacity, stage_desire);
        double coverage = coverageOf(ws, capacity);
        ++best.evaluated;
        // The exact coverage tightens the bound before any stripe
        // plan is built.
        if (best.have &&
            scoreCeiling(coverage, leaf_broken) <= best.score)
            return;
        Evaluation ev = finishEval(topo, lanes, ws, ws.stageToGpu,
                                   capacity, coverage);
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
            scoreCeiling(ceiling, prefix_broken) <= best.score) {
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
            if (used[static_cast<std::size_t>(g)])
                continue;
            used[static_cast<std::size_t>(g)] = 1;
            ws.stageToGpu[static_cast<std::size_t>(depth)] = g;
            self(self, depth + 1,
                 prefix_broken + (lanes.at(prev, g) == 0 ? 1 : 0));
            used[static_cast<std::size_t>(g)] = 0;
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
    Evaluation ev = finishEval(topo, lanes, ws, stage_to_gpu, capacity,
                               coverageOf(ws, capacity));
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
    const double ceiling = coverageCeiling(stage_demand, n, capacity);
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
                      stage_desire, ceiling);
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
