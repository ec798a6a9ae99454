#include "analysis/analyzer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/strings.hh"

namespace mpress {
namespace analysis {

using compaction::Kind;
using hw::Precision;
using memory::TensorRef;
using util::Flops;

namespace {

/** Per-stage figures shared by the memory and latency passes. */
struct StageCosts
{
    int gpu = 0;
    int inFlight = 0;        ///< schedule stash depth
    Tick fwdTime = 0;        ///< per-microbatch forward compute
    Tick bwdTime = 0;        ///< per-microbatch backward compute
    Tick recomputeTime = 0;  ///< extra forward compute per microbatch
    Tick optimTime = 0;      ///< per-minibatch on-GPU optimizer step
    bool optOffloaded = false;
    bool stashOffloaded = false;
    Bytes swapD2hPerMb = 0;  ///< PCIe D2H bytes per microbatch (swap)
    Bytes d2dPerMb = 0;      ///< NVLink export bytes per microbatch
};

bool
optOffloaded(const compaction::CompactionPlan &plan, int stage)
{
    auto s = static_cast<std::size_t>(stage);
    return s < plan.offloadOptState.size() && plan.offloadOptState[s];
}

/** Queue-depth estimate for a swap lane: microbatches whose stash can
 *  be simultaneously resident while waiting for (or undergoing) their
 *  swap-out, given per-microbatch service time @p service against the
 *  minimum inter-arrival time @p arrival, clamped to the schedule's
 *  in-flight cap @p in_flight. */
int
hazardDepth(Tick service, Tick arrival, int in_flight)
{
    // Swap-out side: one in-forward + one in-transfer, plus backlog
    // when the lane cannot keep up with back-to-back warmup forwards.
    int out = 2;
    if (service > arrival && arrival > 0) {
        double deficit = 1.0 - static_cast<double>(arrival) /
                                   static_cast<double>(service);
        out += static_cast<int>(std::ceil(
            static_cast<double>(in_flight) * deficit));
    }
    // Swap-in side: the prefetch window keeps up to
    // kSwapInLookahead instances (plus the one feeding the running
    // backward) resident again ahead of their backward passes.
    int in = compaction::kSwapInLookahead + 1;
    int depth = out + in;
    return depth < in_flight ? depth : in_flight;
}

/**
 * The memory pass shared by boundMemory() and analyzePlan(): fills
 * every field of @p bounds but `valid`, and @p costs for the latency
 * pass.  False when the tuple's memory cannot be bounded.
 */
bool
memoryPass(const hw::Topology &topo, const model::TransformerModel &mdl,
           const partition::Partition &part,
           const pipeline::Schedule &sched,
           const compaction::CompactionPlan &plan, MemoryBounds &bounds,
           std::vector<StageCosts> &costs)
{
    const int num_stages = part.numStages();
    const int num_gpus = topo.numGpus();
    if (num_stages <= 0 || num_gpus <= 0 ||
        sched.numStages != num_stages)
        return false;
    if (!plan.stageToGpu.empty() &&
        static_cast<int>(plan.stageToGpu.size()) != num_stages)
        return false;
    for (int s = 0; s < num_stages; ++s) {
        int gpu = plan.gpuForStage(s);
        if (gpu < 0 || gpu >= num_gpus)
            return false;
    }

    const hw::GpuSpec &gpu_spec = topo.gpu();
    const Precision prec = mdl.config().precision;
    const hw::LinkSpec &pcie = topo.pcieSpec();

    bounds.usableCapacity = gpu_spec.usableCapacity();
    bounds.hostCapacity = topo.hostMemory();

    // ---- Per-stage cost model --------------------------------------
    costs.assign(static_cast<std::size_t>(num_stages), StageCosts{});
    for (int s = 0; s < num_stages; ++s) {
        const partition::Stage &stage =
            part.stages[static_cast<std::size_t>(s)];
        StageCosts &c = costs[static_cast<std::size_t>(s)];
        c.gpu = plan.gpuForStage(s);
        c.inFlight = sched.maxInFlight(s);
        c.optOffloaded = optOffloaded(plan, s);
        c.stashOffloaded = plan.stashOffloaded(s);
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            const model::Layer &layer = mdl.layer(l);
            c.fwdTime += gpu_spec.computeTime(layer.fwdFlops, prec);
            c.bwdTime += gpu_spec.computeTime(layer.bwdFlops(), prec);
            Kind kind = plan.kindFor({s, static_cast<int>(l)});
            if (kind == Kind::Recompute)
                c.recomputeTime +=
                    gpu_spec.computeTime(layer.fwdFlops, prec);
            else if (kind == Kind::GpuCpuSwap)
                c.swapD2hPerMb += layer.activationStash;
            else if (kind == Kind::D2dSwap)
                c.d2dPerMb += layer.activationStash;
        }
        if (!c.optOffloaded)
            c.optimTime = gpu_spec.hbm.transferTime(
                stage.paramBytes + stage.gradBytes +
                stage.optStateBytes);
    }

    // ---- Grant ledger ----------------------------------------------
    // exportBudget: spare bytes GPU g may debit on peers (bounds how
    // much of g's D2D demand can leave the device).  importGrant:
    // bytes g has promised to host for peers (bounds the extra
    // residency imported stripes can pin on g).
    std::vector<Bytes> export_budget(
        static_cast<std::size_t>(num_gpus), 0);
    std::vector<Bytes> import_grant(
        static_cast<std::size_t>(num_gpus), 0);
    for (const auto &entry : plan.spareGrants) {
        if (entry.first < 0 || entry.first >= num_gpus)
            return false;
        for (const compaction::SpareGrant &grant : entry.second) {
            if (grant.budget <= 0)
                continue;
            if (grant.importerGpu < 0 ||
                grant.importerGpu >= num_gpus)
                return false;
            export_budget[static_cast<std::size_t>(entry.first)] +=
                grant.budget;
            import_grant[static_cast<std::size_t>(
                grant.importerGpu)] += grant.budget;
        }
    }

    // ---- Memory intervals ------------------------------------------
    // Transfer functions per plan operator (see docs/architecture.md):
    //   None        lower += stash*F            upper += stash*F
    //   Recompute   lower += min(stash,out)*F   upper += out*F
    //               (+ one rematerialized stash per stage in upper)
    //   GpuCpuSwap  lower += 0                  upper += stash*hazard
    //   D2dSwap     lower += max(0, demand-budget)  (aggregate)
    //               upper += stash*hazard + shortfall + import grants
    bounds.gpus.resize(static_cast<std::size_t>(num_gpus));
    std::vector<Bytes> d2d_demand(
        static_cast<std::size_t>(num_gpus), 0);
    for (int g = 0; g < num_gpus; ++g)
        bounds.gpus[static_cast<std::size_t>(g)].gpu = g;

    Bytes host_static = 0;
    Bytes host_swap = 0;
    for (int s = 0; s < num_stages; ++s) {
        const partition::Stage &stage =
            part.stages[static_cast<std::size_t>(s)];
        const StageCosts &c = costs[static_cast<std::size_t>(s)];
        GpuMemoryBound &b =
            bounds.gpus[static_cast<std::size_t>(c.gpu)];
        const Bytes in_flight = c.inFlight;

        int versions = sched.weightVersions(s);
        int eff_versions = versions;
        if (c.stashOffloaded && versions > 2) {
            host_static +=
                stage.paramBytes * static_cast<Bytes>(versions - 2);
            eff_versions = 2;
        }
        b.staticBytes +=
            stage.paramBytes * static_cast<Bytes>(eff_versions) +
            stage.gradBytes;
        if (c.optOffloaded)
            host_static += stage.optStateBytes;
        else
            b.staticBytes += stage.optStateBytes;

        // Shared-lane hazard depths for this stage's swap traffic.
        Tick swap_service = 0;
        if (c.swapD2hPerMb > 0)
            swap_service += pcie.transferTime(c.swapD2hPerMb);
        if (c.stashOffloaded)
            swap_service += pcie.transferTime(stage.paramBytes);
        int pcie_hazard =
            hazardDepth(swap_service, c.fwdTime, c.inFlight);
        // Pessimistic single-lane service keeps the D2D hazard an
        // upper estimate even for unstriped plans.  On a cluster the
        // stripes may ride an inter-node NIC, which is slower than
        // any NVLink lane; price the worst tier the plan could use.
        Tick d2d_service = 0;
        if (c.d2dPerMb > 0) {
            d2d_service = topo.nvlinkSpec().transferTime(c.d2dPerMb);
            if (topo.multiNodeFabric())
                d2d_service = std::max(
                    d2d_service,
                    topo.nicSpec().transferTime(c.d2dPerMb));
        }
        int d2d_hazard =
            hazardDepth(d2d_service, c.fwdTime, c.inFlight);

        Bytes recompute_stash_max = 0;
        for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
             ++l) {
            const model::Layer &layer = mdl.layer(l);
            Bytes stash = layer.activationStash;
            Bytes out = layer.outputBytes;
            switch (plan.kindFor({s, static_cast<int>(l)})) {
              case Kind::None:
                b.lower += stash * in_flight;
                b.upper += stash * in_flight;
                break;
              case Kind::Recompute:
                b.lower += std::min(stash, out) * in_flight;
                b.upper += out * in_flight;
                recompute_stash_max =
                    std::max(recompute_stash_max, stash);
                break;
              case Kind::GpuCpuSwap:
                b.upper += stash * pcie_hazard;
                host_swap += stash * in_flight;
                break;
              case Kind::D2dSwap:
                d2d_demand[static_cast<std::size_t>(c.gpu)] +=
                    stash * in_flight;
                b.upper += stash * d2d_hazard;
                break;
            }
        }
        // One rematerialized stash can overlap its own held output
        // while the backward chain runs (tasks serialize per stage).
        b.upper += recompute_stash_max;
    }

    for (int g = 0; g < num_gpus; ++g) {
        auto gi = static_cast<std::size_t>(g);
        GpuMemoryBound &b = bounds.gpus[gi];
        // D2D demand that no grant can fund stays resident on the
        // exporter; funded residency on importers is grant-bounded.
        Bytes shortfall =
            std::max<Bytes>(0, d2d_demand[gi] - export_budget[gi]);
        b.lower += b.staticBytes + shortfall;
        b.upper += b.staticBytes + shortfall + import_grant[gi];
    }

    bounds.hostLower = host_static;
    bounds.hostUpper = host_static + host_swap;

    for (int g = 0; g < num_gpus; ++g) {
        if (bounds.gpus[static_cast<std::size_t>(g)].lower >
            bounds.usableCapacity) {
            bounds.provableOom = true;
            bounds.oomGpu = g;
            break;
        }
    }
    bounds.provablyFits = !bounds.provableOom;
    for (int g = 0; g < num_gpus && bounds.provablyFits; ++g) {
        if (bounds.gpus[static_cast<std::size_t>(g)].upper >
            bounds.usableCapacity)
            bounds.provablyFits = false;
    }
    if (bounds.hostUpper > bounds.hostCapacity)
        bounds.provablyFits = false;
    return true;
}

} // namespace

MemoryBounds
boundMemory(const hw::Topology &topo, const model::TransformerModel &mdl,
            const partition::Partition &part,
            const pipeline::Schedule &sched,
            const compaction::CompactionPlan &plan)
{
    MemoryBounds bounds;
    std::vector<StageCosts> costs;
    bounds.valid = memoryPass(topo, mdl, part, sched, plan, bounds, costs);
    return bounds;
}

AnalysisCertificate
analyzePlan(const hw::Topology &topo, const model::TransformerModel &mdl,
            const partition::Partition &part,
            const pipeline::Schedule &sched,
            const compaction::CompactionPlan &plan)
{
    AnalysisCertificate cert;
    cert.throughputUpperBound =
        std::numeric_limits<double>::infinity();
    std::vector<StageCosts> costs;
    if (!memoryPass(topo, mdl, part, sched, plan, cert, costs))
        return cert;

    const int num_stages = part.numStages();
    const int num_gpus = topo.numGpus();
    const hw::LinkSpec &pcie = topo.pcieSpec();

    // ---- Occupancy terms -------------------------------------------
    // Whole-window busy-time lower bounds per serial resource.  Wire
    // time at peak bandwidth (no ramp, no launch latency) so the
    // terms undercut whatever the fabric actually charges.
    const Tick total_mb = sched.totalMicrobatches();
    const Tick minis = sched.numMinibatches;
    std::vector<Tick> compute_busy(
        static_cast<std::size_t>(num_gpus), 0);
    std::vector<Tick> d2h_busy(static_cast<std::size_t>(num_gpus), 0);
    std::vector<Tick> h2d_busy(static_cast<std::size_t>(num_gpus), 0);
    std::vector<Tick> compute_per_mb(
        static_cast<std::size_t>(num_gpus), 0);
    std::vector<Tick> d2h_per_mb(
        static_cast<std::size_t>(num_gpus), 0);
    std::vector<Tick> h2d_per_mb(
        static_cast<std::size_t>(num_gpus), 0);

    // GPU-CPU swap traffic is guaranteed to reach PCIe only when the
    // pinned pool provably absorbs every instance (otherwise swap-outs
    // may fail resident and move no bytes — counting them would
    // overshoot the lower bound).
    const bool swap_counts =
        cert.hostCapacity > 0 && cert.hostUpper <= cert.hostCapacity;
    for (int s = 0; s < num_stages; ++s) {
        const partition::Stage &stage =
            part.stages[static_cast<std::size_t>(s)];
        const StageCosts &c = costs[static_cast<std::size_t>(s)];
        auto gi = static_cast<std::size_t>(c.gpu);
        Tick mb_compute = c.fwdTime + c.bwdTime + c.recomputeTime;
        compute_per_mb[gi] += mb_compute;
        compute_busy[gi] += total_mb * mb_compute;
        compute_busy[gi] += minis * c.optimTime;
        if (swap_counts && c.swapD2hPerMb > 0) {
            Tick wire = pcie.peak.transferTime(c.swapD2hPerMb);
            d2h_per_mb[gi] += wire;
            h2d_per_mb[gi] += wire;
        }
        if (c.stashOffloaded) {
            Tick wire = pcie.peak.transferTime(stage.paramBytes);
            d2h_per_mb[gi] += wire;
            h2d_per_mb[gi] += wire;
        }
        if (c.optOffloaded) {
            d2h_busy[gi] += minis * pcie.peak.transferTime(
                                        stage.gradBytes);
            h2d_busy[gi] += minis * pcie.peak.transferTime(
                                        stage.paramBytes);
        }
    }
    for (int g = 0; g < num_gpus; ++g) {
        auto gi = static_cast<std::size_t>(g);
        d2h_busy[gi] += total_mb * d2h_per_mb[gi];
        h2d_busy[gi] += total_mb * h2d_per_mb[gi];
    }

    // ---- Critical path over the schedule DAG -----------------------
    const auto num_tasks = sched.tasks.size();
    std::vector<Tick> node_weight(num_tasks, 0);
    for (std::size_t t = 0; t < num_tasks; ++t) {
        const pipeline::Task &task = sched.tasks[t];
        if (task.stage < 0 || task.stage >= num_stages)
            return cert;
        const StageCosts &c =
            costs[static_cast<std::size_t>(task.stage)];
        if (task.kind == pipeline::TaskKind::Forward)
            node_weight[t] = c.fwdTime;
        else if (task.kind == pipeline::TaskKind::Backward)
            node_weight[t] = c.bwdTime;
    }

    // Lower bound on the delay a cross-stage dependency edge imposes
    // on its consumer: zero intra-GPU, single-lane wire time over a
    // direct NVLink or inter-node NIC (pathLanes + linkSpecBetween
    // price the right tier), two serial PCIe wire legs for a host
    // bounce.  It depends only on the two stages, so each stage pair
    // is priced once, on its first edge.
    const auto stages = static_cast<std::size_t>(num_stages);
    std::vector<Tick> pair_weight(stages * stages, -1);
    auto edge_weight = [&](int from, int to) -> Tick {
        Tick &w = pair_weight[static_cast<std::size_t>(from) * stages +
                              static_cast<std::size_t>(to)];
        if (w >= 0)
            return w;
        int a = costs[static_cast<std::size_t>(from)].gpu;
        int b = costs[static_cast<std::size_t>(to)].gpu;
        Bytes bytes = part.stages[static_cast<std::size_t>(
                                      std::min(from, to))]
                          .outputBytes;
        if (a == b || bytes <= 0)
            w = 0;
        else if (topo.pathLanes(a, b) > 0)
            w = topo.linkSpecBetween(a, b).peak.transferTime(bytes);
        else
            w = 2 * pcie.peak.transferTime(bytes);
        return w;
    };

    // The DAG's successor lists, flat (CSR): the dependency edges in
    // task order, then the per-stage order edges.  One pass counts
    // and validates, the second fills.
    auto in_range = [&](int t) {
        return t >= 0 && static_cast<std::size_t>(t) < num_tasks;
    };
    std::vector<std::size_t> succ_begin(num_tasks + 1, 0);
    for (const pipeline::Task &task : sched.tasks) {
        for (int dep : task.deps) {
            if (!in_range(dep))
                return cert;
            ++succ_begin[static_cast<std::size_t>(dep) + 1];
        }
    }
    for (const auto &order : sched.perStageOrder) {
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            if (!in_range(order[i]) || !in_range(order[i + 1]))
                return cert;
            ++succ_begin[static_cast<std::size_t>(order[i]) + 1];
        }
    }
    for (std::size_t t = 0; t < num_tasks; ++t)
        succ_begin[t + 1] += succ_begin[t];
    std::vector<int> succs(succ_begin[num_tasks]);
    std::vector<std::size_t> fill(succ_begin.begin(),
                                  succ_begin.end() - 1);
    std::vector<int> indegree(num_tasks, 0);
    for (std::size_t t = 0; t < num_tasks; ++t) {
        for (int dep : sched.tasks[t].deps) {
            succs[fill[static_cast<std::size_t>(dep)]++] =
                static_cast<int>(t);
            ++indegree[t];
        }
    }
    for (const auto &order : sched.perStageOrder) {
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            succs[fill[static_cast<std::size_t>(order[i])]++] =
                order[i + 1];
            ++indegree[static_cast<std::size_t>(order[i + 1])];
        }
    }

    std::vector<Tick> finish(num_tasks, 0);
    std::vector<int> ready;
    ready.reserve(num_tasks);
    for (std::size_t t = 0; t < num_tasks; ++t) {
        if (indegree[t] == 0)
            ready.push_back(static_cast<int>(t));
    }
    Tick critical_path = 0;
    std::size_t processed = 0;
    for (std::size_t head = 0; head < ready.size(); ++head) {
        int u = ready[head];
        auto ui = static_cast<std::size_t>(u);
        ++processed;
        finish[ui] += node_weight[ui];
        critical_path = std::max(critical_path, finish[ui]);
        const pipeline::Task &ut = sched.tasks[ui];
        for (std::size_t k = succ_begin[ui]; k < succ_begin[ui + 1];
             ++k) {
            int v = succs[k];
            auto vi = static_cast<std::size_t>(v);
            Tick arrive = finish[ui];
            const pipeline::Task &vt = sched.tasks[vi];
            if (vt.stage != ut.stage)
                arrive += edge_weight(ut.stage, vt.stage);
            finish[vi] = std::max(finish[vi], arrive);
            if (--indegree[vi] == 0)
                ready.push_back(v);
        }
    }
    if (processed != num_tasks)
        return cert;  // cyclic: leave the certificate invalid

    cert.latencyLowerBound = critical_path;
    for (int g = 0; g < num_gpus; ++g) {
        auto gi = static_cast<std::size_t>(g);
        cert.latencyLowerBound = std::max(
            {cert.latencyLowerBound, compute_busy[gi], d2h_busy[gi],
             h2d_busy[gi]});
    }

    // Per-node NIC occupancy: every cross-node stage boundary moves
    // its activation forward and its gradient backward once per
    // microbatch, and all cross-node traffic of a node serializes on
    // its NICs.  Aggregate-peak wire time is a sound lower bound
    // (effective bandwidth never exceeds peak).
    if (topo.multiNodeFabric()) {
        const int nodes = topo.numNodes();
        std::vector<Bytes> nic_out(static_cast<std::size_t>(nodes),
                                   0);
        std::vector<Bytes> nic_in(static_cast<std::size_t>(nodes),
                                  0);
        for (int s = 0; s + 1 < num_stages; ++s) {
            int a = costs[static_cast<std::size_t>(s)].gpu;
            int b = costs[static_cast<std::size_t>(s + 1)].gpu;
            if (a == b || topo.sameNode(a, b))
                continue;
            Bytes cross =
                total_mb *
                part.stages[static_cast<std::size_t>(s)].outputBytes;
            auto na = static_cast<std::size_t>(topo.nodeOf(a));
            auto nb = static_cast<std::size_t>(topo.nodeOf(b));
            nic_out[na] += cross;  // forward activations
            nic_in[nb] += cross;
            nic_out[nb] += cross;  // backward gradients
            nic_in[na] += cross;
        }
        util::Bandwidth agg =
            topo.nicSpec().peak *
            static_cast<double>(topo.nicsPerNode());
        for (int n = 0; n < nodes; ++n) {
            auto ni = static_cast<std::size_t>(n);
            cert.latencyLowerBound = std::max(
                {cert.latencyLowerBound,
                 agg.transferTime(nic_out[ni]),
                 agg.transferTime(nic_in[ni])});
        }
    }

    // ---- Steady-state throughput upper bound -----------------------
    // samplesPerSec divides the per-minibatch samples by the marginal
    // minibatch time; each serial resource lower-bounds that time by
    // its per-microbatch work over the steady window, minus a warmup
    // haircut for work the pipeline can complete before the first
    // minibatch retires.
    if (minis >= 2) {
        int max_in_flight = 0;
        for (int s = 0; s < num_stages; ++s)
            max_in_flight = std::max(
                max_in_flight,
                costs[static_cast<std::size_t>(s)].inFlight);
        const Tick m0 = sched.microbatchesPerMinibatch;
        const Tick slack =
            2 * static_cast<Tick>(max_in_flight) + m0;
        const Tick window_mb = m0 * (minis - 1) - slack;
        if (window_mb > 0) {
            Tick steady_lb = 0;
            for (int g = 0; g < num_gpus; ++g) {
                auto gi = static_cast<std::size_t>(g);
                Tick worst = std::max(
                    {compute_per_mb[gi], d2h_per_mb[gi],
                     h2d_per_mb[gi]});
                steady_lb = std::max(
                    steady_lb, worst * window_mb / (minis - 1));
            }
            if (steady_lb > 0) {
                double samples_per_mini =
                    static_cast<double>(m0) *
                    static_cast<double>(mdl.samplesPerMicrobatch());
                cert.throughputUpperBound =
                    samples_per_mini / util::toSeconds(steady_lb);
            }
        }
    }

    cert.valid = true;
    return cert;
}

std::string
AnalysisCertificate::summary() const
{
    if (!valid)
        return "invalid (unanalyzable tuple)";
    const char *fit = provableOom     ? "provably-oom"
                      : provablyFits  ? "provably-fits"
                                      : "unproven";
    std::string out = util::strformat(
        "%s lat>=%s", fit,
        util::formatTime(latencyLowerBound).c_str());
    if (std::isfinite(throughputUpperBound))
        out += util::strformat(" sps<=%.2f", throughputUpperBound);
    return out;
}

std::string
AnalysisCertificate::render() const
{
    if (!valid)
        return "analysis: invalid (unanalyzable tuple)\n";
    std::string out;
    out += util::strformat(
        "analysis: usable capacity %s/GPU, host %s\n",
        util::formatBytes(usableCapacity).c_str(),
        util::formatBytes(hostCapacity).c_str());
    for (const GpuMemoryBound &b : gpus) {
        const char *mark = b.lower > usableCapacity ? " OVERFLOW"
                           : b.upper > usableCapacity
                               ? " unproven"
                               : "";
        out += util::strformat(
            "  gpu%-2d static %10s  peak in [%10s, %10s]%s\n", b.gpu,
            util::formatBytes(b.staticBytes).c_str(),
            util::formatBytes(b.lower).c_str(),
            util::formatBytes(b.upper).c_str(), mark);
    }
    out += util::strformat(
        "  host  demand in [%s, %s]\n",
        util::formatBytes(hostLower).c_str(),
        util::formatBytes(hostUpper).c_str());
    out += util::strformat(
        "  latency >= %s",
        util::formatTime(latencyLowerBound).c_str());
    if (std::isfinite(throughputUpperBound))
        out += util::strformat("  throughput <= %.2f samples/s",
                               throughputUpperBound);
    out += util::strformat("  verdict: %s\n",
                           provableOom    ? "provably-oom"
                           : provablyFits ? "provably-fits"
                                          : "unproven");
    return out;
}

} // namespace analysis
} // namespace mpress
