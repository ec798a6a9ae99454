/**
 * @file
 * Stage-to-device mapping search (the paper's Figure 6 algorithm).
 *
 * Given per-stage memory demand, the mapper places stages on GPUs so
 * that overflowing ("exporter") stages sit next to NVLink neighbors
 * with spare memory, and assigns each importer's spare capacity to
 * the exporters that can reach it.  Mappings are scored by the
 * reciprocal of the worst exporter's D2D drain time (higher is
 * better), with full overflow coverage taking precedence and a
 * penalty for separating consecutive pipeline stages from a direct
 * NVLink path.  The placement scan prunes every prefix whose score
 * ceiling cannot beat the best placement found so far.  At each
 * placement two exact drain floors run ahead of the two halves of its
 * cost: the lead exporter's floor before any spare is assigned, and
 * every exporter's floor read off its grants before stripe plans are
 * built.  The stages' demands, desires and lendable spare are tabled
 * once per search, and the walk keeps each GPU's state current as it
 * places and removes stages, so a placement pays only for its greedy
 * grant loop, which evaluatePlacement() shares.
 *
 * For symmetric (switch-based) fabrics the search short-circuits:
 * every placement is equivalent, so the identity mapping is used and
 * all spare memory is aggressively granted (Sec. III-C).
 *
 * On multi-node clusters the placement decomposes hierarchically:
 * contiguous stage blocks are dealt to nodes in pipeline order (one
 * NIC crossing per node boundary) and each block is placed by an
 * independent intra-node scan on the extracted node view, with spare
 * grants finalized globally — importers are tiered intra-node first,
 * then cross-node over the NIC, before the planner falls back to host
 * swap.
 */

#ifndef MPRESS_PLANNER_MAPPER_HH
#define MPRESS_PLANNER_MAPPER_HH

#include <map>
#include <vector>

#include "compaction/plan.hh"
#include "hw/topology.hh"

namespace mpress {
namespace util {
class ThreadPool;
}
namespace planner {

using util::Bytes;
using util::Tick;

/** Tunables for the mapping search. */
struct MapperConfig
{
    /** When false, skip the placement search and keep the base
     *  system's suggested (identity) mapping — the Figure 9
     *  ablation baseline.  Spare-memory grants are still computed. */
    bool searchPlacement = true;
};

/** Fraction of an importer's spare bytes that may be granted (the
 *  rest is headroom against estimation error). */
constexpr double kSpareSafety = 0.85;

/** Score penalty (in ms of equivalent drain time) per pair of
 *  consecutive stages without a direct NVLink, reflecting the P2P
 *  activation traffic that would bounce through the host.  A fixed
 *  non-negative constant: the scan's branch-and-bound relies on the
 *  penalty only ever lowering a score. */
constexpr double kAdjacencyPenaltyMs = 50.0;

/** Result of the mapping search. */
struct MappingResult
{
    std::vector<int> stageToGpu;
    std::map<int, std::vector<compaction::SpareGrant>> grants;
    double score = 0.0;
    /** Fraction of total overflow the grants can absorb. */
    double coverage = 0.0;
    /** Number of placements evaluated (spare assigned, coverage
     *  computed), whether or not their stripe plans were then built:
     *  1 for the identity short-circuit.  The scan visits
     *  k-permutations of the n GPUs, so evaluated + pruned equals
     *  n!/(n-k)! (8! = 40320 on an 8-stage DGX-1); a hierarchical
     *  cluster placement sums its per-node scans. */
    long evaluated = 0;
    /** Number of placements the scan's branch-and-bound skipped
     *  before assigning spare: no completion of their prefix could
     *  beat the chunk's best score, or, at a full placement, the lead
     *  exporter's drain floor showed it could not; 0 for the identity
     *  short-circuit. */
    long pruned = 0;
};

/**
 * Search the stage-to-device mapping.
 *
 * @param topo          the server
 * @param stage_demand  peak memory demand per stage (profile output)
 * @param capacity      usable per-GPU capacity
 * @param stage_desire  optional explicit per-stage D2D byte demand;
 *        when empty, each overflowing stage desires 2x its overflow
 *        (the pre-compaction call).  The planner's post-compaction
 *        re-map passes the flippable savings per stage here so spare
 *        memory revealed by compaction can be granted even though no
 *        stage overflows anymore.
 * @param pool          optional worker pool: the placement scan is
 *        split into fixed chunks (leading stage positions) evaluated
 *        concurrently.  The chunk layout, the per-chunk pruning bound
 *        and the lowest-index tie-break are independent of the thread
 *        count, so the returned mapping (and its evaluated/pruned
 *        counts) is byte-identical with or without a pool.
 *
 * The scan is an exact branch-and-bound: it returns the same
 * placement as scoring every k-permutation with evaluatePlacement()
 * and keeping the first best in lexicographic order.
 */
MappingResult searchDeviceMapping(const hw::Topology &topo,
                                  const std::vector<Bytes>
                                      &stage_demand,
                                  Bytes capacity,
                                  MapperConfig config = {},
                                  const std::vector<Bytes>
                                      &stage_desire = {},
                                  util::ThreadPool *pool = nullptr);

/**
 * Score one fixed placement: assign spare grants, then compute its
 * coverage and score exactly as the scan does (evaluated = 1).  The
 * scan finalizes its winner through this function, so an exhaustive
 * loop over it is the reference the scan must match.
 *
 * @param stage_to_gpu  injective stage -> GPU placement
 */
MappingResult evaluatePlacement(const hw::Topology &topo,
                                const std::vector<int> &stage_to_gpu,
                                const std::vector<Bytes> &stage_demand,
                                Bytes capacity,
                                const std::vector<Bytes>
                                    &stage_desire = {});

} // namespace planner
} // namespace mpress

#endif // MPRESS_PLANNER_MAPPER_HH
