#include "compaction/striping.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mpress {
namespace compaction {

const char *
kindName(Kind kind)
{
    switch (kind) {
      case Kind::None:
        return "none";
      case Kind::Recompute:
        return "recompute";
      case Kind::GpuCpuSwap:
        return "gpu-cpu-swap";
      case Kind::D2dSwap:
        return "d2d-swap";
    }
    return "?";
}

int
CompactionPlan::countKind(Kind kind) const
{
    int n = 0;
    for (const auto &[ref, k] : activations) {
        if (k == kind)
            ++n;
    }
    return n;
}

std::vector<int>
CompactionPlan::d2dGpus() const
{
    std::vector<int> gpus;
    for (const auto &[ref, k] : activations) {
        if (k == Kind::D2dSwap)
            gpus.push_back(gpuForStage(ref.stage));
    }
    std::sort(gpus.begin(), gpus.end());
    gpus.erase(std::unique(gpus.begin(), gpus.end()), gpus.end());
    return gpus;
}

StripePlan
makeStripePlan(const hw::Topology &topo, int src,
               const std::vector<SpareGrant> &grants, Bytes bytes)
{
    StripePlan plan;
    StripeScratch scratch;
    makeStripePlan(topo, src, grants, bytes, plan, scratch);
    return plan;
}

void
makeStripePlan(const hw::Topology &topo, int src,
               const std::vector<SpareGrant> &grants, Bytes bytes,
               StripePlan &out, StripeScratch &scratch)
{
    out.stripes.clear();
    if (bytes <= 0)
        return;

    // Reachable importers with nonzero budget, keeping grant order.
    auto &cands = scratch.cands;
    cands.clear();
    for (const auto &g : grants) {
        if (g.budget <= 0)
            continue;
        int lanes = topo.pathLanes(src, g.importerGpu);
        if (lanes <= 0)
            continue;
        cands.push_back({g.importerGpu, g.budget, lanes});
    }
    if (cands.empty())
        return;

    // Lane-weighted shares (equal on symmetric fabrics where all
    // lane counts match), with budget-capped water-filling: any
    // overflow from a capped importer is re-spread over the rest.
    auto &share = scratch.share;
    share.assign(cands.size(), 0);
    Bytes remaining = bytes;
    auto &capped = scratch.capped;
    capped.assign(cands.size(), 0);
    while (remaining > 0) {
        int lanes_open = 0;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (!capped[i])
                lanes_open += cands[i].lanes;
        }
        if (lanes_open == 0)
            return;  // budgets cannot absorb the tensor

        // The integer-division remainder goes to the last *open*
        // candidate: a capped tail importer must not be handed the
        // round-off (it has no room), nor silently skipped so the
        // residue drifts to whichever importer the fallback below
        // visits first.
        std::size_t last_open = 0;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (!capped[i])
                last_open = i;
        }

        Bytes distributed = 0;
        bool newly_capped = false;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (capped[i])
                continue;
            Bytes want = remaining * cands[i].lanes / lanes_open;
            if (i == last_open)
                want = remaining - distributed;
            Bytes room = cands[i].budget - share[i];
            if (want >= room) {
                share[i] += room;
                distributed += room;
                capped[i] = 1;
                newly_capped = true;
            } else {
                share[i] += want;
                distributed += want;
            }
        }
        remaining -= distributed;
        if (remaining > 0 && !newly_capped) {
            // All open candidates took their lane-weighted share but
            // a residue survived (the remainder-taker capped at its
            // room in an earlier round); spread it from the last
            // open candidate backwards, consistent with the
            // remainder policy above.
            for (std::size_t i = cands.size(); i > 0 && remaining > 0;
                 --i) {
                if (capped[i - 1])
                    continue;
                Bytes room = cands[i - 1].budget - share[i - 1];
                Bytes take = std::min(room, remaining);
                share[i - 1] += take;
                remaining -= take;
                if (share[i - 1] == cands[i - 1].budget)
                    capped[i - 1] = 1;
            }
            if (remaining > 0)
                return;
        }
    }

    for (std::size_t i = 0; i < cands.size(); ++i) {
        if (share[i] > 0)
            out.stripes.push_back(
                {cands[i].gpu, share[i], cands[i].lanes});
    }
}

Tick
stripePlanTime(const hw::Topology &topo, int src,
               const StripePlan &plan)
{
    Tick worst = 0;
    for (const auto &s : plan.stripes) {
        Bytes per_lane = (s.bytes + s.lanes - 1) / s.lanes;
        Tick t = topo.linkSpecBetween(src, s.targetGpu)
                     .transferTime(per_lane);
        worst = std::max(worst, t);
    }
    return worst;
}

} // namespace compaction
} // namespace mpress
