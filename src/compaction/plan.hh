/**
 * @file
 * Memory-compaction plan types shared by the planner (which produces
 * them) and the runtime executor (which enacts them).
 *
 * A plan assigns one of the three techniques of Sec. III to each
 * activation tensor class, selects per-stage optimizer-state
 * offloading, fixes the stage-to-GPU device mapping, and carries the
 * spare-memory assignment that D2D swap draws on.
 */

#ifndef MPRESS_COMPACTION_PLAN_HH
#define MPRESS_COMPACTION_PLAN_HH

#include <map>
#include <vector>

#include "memory/liveness.hh"
#include "util/units.hh"

namespace mpress {
namespace compaction {

using memory::TensorRef;
using util::Bytes;

/** Memory-saving technique applied to a tensor class. */
enum class Kind
{
    None,        ///< keep resident
    Recompute,   ///< drop after forward, recompute before backward
    GpuCpuSwap,  ///< swap to pinned host memory over PCIe
    D2dSwap,     ///< swap to a peer GPU's spare memory over NVLink
};

/** Returns a short display name for @p kind. */
const char *kindName(Kind kind);

/** Swap-ins the executor keeps in flight ahead of a stage's backward
 *  pass; the analyzer's swap hazard window assumes the same depth. */
constexpr int kSwapInLookahead = 4;

/** Spare-memory grant: an importer GPU lends bytes to an exporter. */
struct SpareGrant
{
    int importerGpu = -1;
    Bytes budget = 0;
};

/**
 * The complete memory-saving plan for a training job.
 */
struct CompactionPlan
{
    /** Technique per activation tensor class; classes absent from the
     *  map default to Kind::None. */
    std::map<TensorRef, Kind> activations;

    /** Per stage: swap optimizer state to host between steps. */
    std::vector<bool> offloadOptState;

    /** Per stage: keep stashed weight versions (PipeDream async
     *  scheduling) in host memory, holding only the active version
     *  plus the one in use on the GPU.  Each microbatch then pays a
     *  parameter-sized PCIe round trip (version retire + fetch).
     *  GPU-CPU swap "applies to all model data" — this is its
     *  parameter/version form. */
    std::vector<bool> offloadWeightStash;

    /** Stage index -> GPU device index. Identity when empty. */
    std::vector<int> stageToGpu;

    /** Per exporter GPU: spare-memory grants from importer peers,
     *  in preference order. */
    std::map<int, std::vector<SpareGrant>> spareGrants;

    /** Data striping (Sec. III-C): when false, each D2D-swapped
     *  tensor travels whole to a single importer over one lane —
     *  the Figure 9 ablation baseline. */
    bool d2dStriping = true;

    /** Technique assigned to @p ref (None when unassigned). */
    Kind
    kindFor(TensorRef ref) const
    {
        auto it = activations.find(ref);
        return it == activations.end() ? Kind::None : it->second;
    }

    /** GPU hosting @p stage under this plan. */
    int
    gpuForStage(int stage) const
    {
        if (stageToGpu.empty())
            return stage;
        return stageToGpu.at(static_cast<std::size_t>(stage));
    }

    /** True if any technique is assigned anywhere. */
    bool
    empty() const
    {
        if (!activations.empty())
            return false;
        for (bool b : offloadOptState) {
            if (b)
                return false;
        }
        for (bool b : offloadWeightStash) {
            if (b)
                return false;
        }
        return true;
    }

    /** Whether @p stage offloads its weight-version stash. */
    bool
    stashOffloaded(int stage) const
    {
        auto s = static_cast<std::size_t>(stage);
        return s < offloadWeightStash.size() && offloadWeightStash[s];
    }

    /** Count of activation classes assigned @p kind. */
    int countKind(Kind kind) const;

    /** GPUs hosting a D2D-swapped class, ascending: the only GPUs
     *  whose spare grants the executor reads (on a D2D instance's
     *  swap-out, demotion and swap-in).  Any other GPU's grants are
     *  dead. */
    std::vector<int> d2dGpus() const;
};

} // namespace compaction
} // namespace mpress

#endif // MPRESS_COMPACTION_PLAN_HH
