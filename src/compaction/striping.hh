/**
 * @file
 * D2D data striping (Sec. III-C).
 *
 * A swap-out tensor is partitioned into sub-blocks transmitted in
 * parallel over disjoint NVLink paths to one or more importer GPUs.
 * On symmetric fabrics (DGX-2) sub-blocks are equal-sized; on
 * asymmetric fabrics (DGX-1) sub-block sizes are proportional to the
 * lane count toward each importer, so that all paths finish together.
 * Importer spare-memory budgets cap each share.
 */

#ifndef MPRESS_COMPACTION_STRIPING_HH
#define MPRESS_COMPACTION_STRIPING_HH

#include <vector>

#include "compaction/plan.hh"
#include "hw/topology.hh"

namespace mpress {
namespace compaction {

using util::Tick;

/** One sub-block of a striped tensor. */
struct Stripe
{
    int targetGpu = -1;
    Bytes bytes = 0;
    int lanes = 0;   ///< NVLink lanes used toward the target
};

/** The striping of one tensor across importer GPUs. */
struct StripePlan
{
    std::vector<Stripe> stripes;

    Bytes
    totalBytes() const
    {
        Bytes total = 0;
        for (const auto &s : stripes)
            total += s.bytes;
        return total;
    }

    bool empty() const { return stripes.empty(); }
};

/** Working storage of makeStripePlan(): the reachable candidates,
 *  their shares and capped flags.  A caller that plans many tensors
 *  keeps one and reuses its capacity. */
struct StripeScratch
{
    struct Candidate
    {
        int gpu;
        Bytes budget;
        int lanes;
    };
    std::vector<Candidate> cands;
    std::vector<Bytes> share;
    std::vector<char> capped;
};

/**
 * Compute the striping of a @p bytes tensor exported by @p src.
 *
 * @param topo    the server topology (lane counts / symmetry)
 * @param src     exporter GPU
 * @param grants  importer budgets in preference order; shares are
 *                lane-weighted but never exceed a grant's budget
 * @param bytes   tensor size
 *
 * Returns an empty plan when the grants cannot absorb the tensor
 * (callers then fall back to other techniques) or when no importer
 * is NVLink-reachable.  Otherwise the stripes sum to exactly
 * @p bytes.
 */
StripePlan makeStripePlan(const hw::Topology &topo, int src,
                          const std::vector<SpareGrant> &grants,
                          Bytes bytes);

/** The same plan, written into @p out (its capacity kept) with
 *  @p scratch as working storage: allocation-free once both have
 *  grown to the largest grant list. */
void makeStripePlan(const hw::Topology &topo, int src,
                    const std::vector<SpareGrant> &grants, Bytes bytes,
                    StripePlan &out, StripeScratch &scratch);

/**
 * Uncontended duration of executing @p plan from @p src: the slowest
 * stripe's transfer time, each stripe striped over its lanes.
 */
Tick stripePlanTime(const hw::Topology &topo, int src,
                    const StripePlan &plan);

} // namespace compaction
} // namespace mpress

#endif // MPRESS_COMPACTION_STRIPING_HH
