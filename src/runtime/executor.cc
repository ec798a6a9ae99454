#include "runtime/executor.hh"

#include <algorithm>
#include <deque>
#include <map>
#include <utility>

#include "fault/injector.hh"
#include "obs/export.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace mpress {
namespace runtime {

using compaction::InstanceKey;
using compaction::Kind;
using compaction::SwapState;
using memory::TensorRef;
using model::TensorKind;
using pipeline::TaskKind;
using util::Tick;

namespace {

/** Per-instance swap-in tracking state. */
enum class InState : std::uint8_t
{
    NotNeeded,
    Pending,   ///< instance offloaded, swap-in not yet issued
    InFlight,  ///< swap-in issued
    Done,
};

/** Instance::kindOverride until the fault ladder demotes the
 *  instance. */
constexpr std::uint8_t kNoOverride = 0xff;

/** Consecutive over-water runs before an arena releases slabs. */
constexpr int kShrinkAfter = 8;

/** Delay before the first retry of a failed D2D stripe; doubles per
 *  attempt. */
constexpr Tick kRetryBackoff = 20 * util::kUsec;

/** The state of one training run: built by runTraining(), run once,
 *  and moved out as the report. */
struct TrainingRun
{
    const hw::Topology &topo;
    const model::TransformerModel &mdl;
    const partition::Partition &part;
    const pipeline::Schedule &sched;
    const compaction::CompactionPlan &plan;
    ExecutorConfig cfg;

    /** The arena of a self-contained run; unused (and empty) when
     *  cfg.arena supplies one. */
    ExecutorArena ownArena;
    /** The engine in use, partitioned by node: the arena's. */
    sim::Engine *engine = nullptr;
    /** topo.numNodes() when the topology has an inter-node fabric,
     *  else 1. */
    int numNodes = 1;

    /** The fabric in use: the arena's, reset at construction. */
    hw::Fabric *fabric = nullptr;

    std::vector<std::unique_ptr<sim::Stream>> compute;
    std::vector<std::unique_ptr<memory::DeviceMemoryTracker>> gpuMem;

    /** Spare-capacity grants, keyed by exporter GPU.  The map's
     *  structure is frozen after construction (lookups use find());
     *  each exporter's budgets are only mutated from events on the
     *  exporter's own node. */
    std::map<int, std::vector<compaction::SpareGrant>> grantsLeft;

    // Schedule progress.  Element g/s/id is only written by events on
    // its owning node; cross-node reads of taskDone happen strictly
    // after the paired arrival message.
    std::vector<char> taskDone;
    std::vector<char> arrivalDone;
    std::vector<std::size_t> cursor;
    std::vector<char> stageBusy;

    TrainingReport report;
    /** Minibatch completion times merged across nodes in finalize(). */
    std::vector<Tick> minibatchDone;

    /** The backward task running on one stage.  stageBusy admits one
     *  at a time, so every stage has one chain, reused task after
     *  task.  Its layers run last to first: step i is layer
     *  lastLayer - i. */
    struct BwdChain
    {
        const pipeline::Task *task = nullptr;  ///< null when idle
        std::size_t lastLayer = 0;
        std::size_t numLayers = 0;
        std::size_t next = 0;
        std::size_t nextPrefetch = 0;
        int inflightSwapIns = 0;
        Tick stallStart = -1;

        std::size_t layerAt(std::size_t i) const { return lastLayer - i; }
    };

    /**
     * Everything a node mutates from its own events.  An instance's
     * exporter GPU fixes the node that owns its swap metadata, fault
     * draws, trace and observability records.  On single-node
     * topologies there is exactly one NodeState.
     */
    struct NodeState
    {
        int node = 0;

        /** This node's slice of the cluster host pool / NVMe. */
        std::unique_ptr<memory::PinnedHostPool> host;
        Bytes baseHost = 0;
        Bytes nvmeCap = 0;
        Bytes nvmeUsed = 0;
        /** Sum of currently active host-pressure cuts (this node's
         *  share); node 0 additionally tracks the cluster-wide total
         *  for the report. */
        Bytes hostPressureCut = 0;
        Bytes totalPressureCut = 0;

        /** The arena's table for this node. */
        compaction::SwapMetadataTable *swapTable = nullptr;

        /** Per-node injector (seed salted by node id; node 0 draws
         *  the exact unsalted stream). */
        std::unique_ptr<fault::Injector> injector;

        SavingsBreakdown savings;
        Bytes d2dOverflow = 0;
        Bytes nvmeSpill = 0;
        /** Dynamic fault counters; summed into the report. */
        FaultSummary faults;

        // First OOM observed on this node (candidate; merged in
        // finalize, earliest across nodes wins).
        bool oom = false;
        int oomGpu = -1;
        Tick oomTime = 0;

        sim::TraceRecorder trace;
        obs::Observability obsData;

        /** Completion time of each minibatch's last local OptimStep
         *  and the count of local stages still pending per minibatch
         *  (global done-time = max over nodes). */
        std::vector<Tick> lastOptim;
        std::vector<int> optRemaining;
    };

    /** Fixed after construction; lambdas capture element pointers. */
    std::vector<NodeState> nodes;

    /** Executor state of one activation instance (layer x
     *  microbatch).  A trial holds one per (layer, microbatch) slot
     *  of the window, so every field is a byte. */
    struct Instance
    {
        InState inState = InState::NotNeeded;
        /** The fault ladder's demotion of the planned kind, or
         *  kNoOverride. */
        std::uint8_t kindOverride = kNoOverride;
        /** The stage's backward chain (bwdChains[stage]) is stalled
         *  on this instance. */
        bool blocked = false;
    };
    static_assert(sizeof(Instance) <= 4);

    /** Every instance of the run at slot(key), sized once at
     *  construction.  An instance belongs to one stage, so only that
     *  stage's node ever writes it. */
    std::vector<Instance> instances;

    /** Forward finish tick per instance slot, -1 until then (a
     *  FLOP-free layer can finish at tick 0).  Only liveness
     *  recording reads it, so it is empty unless cfg.recordLiveness
     *  is set. */
    std::vector<Tick> genTimes;

    /** Planned kind per layer: plan.kindFor() resolved once. */
    std::vector<Kind> layerKind;

    /** One backward chain per stage; only the stage's node writes
     *  it.  A blocked instance of stage s stalls bwdChains[s]. */
    std::vector<BwdChain> bwdChains;

    /** Weight-version fetch progress per task id, for the backward
     *  tasks of stash-offloaded stages: 0 = not issued, 1 = in
     *  flight, 2 = landed. */
    std::vector<char> versionFetch;

    /** Working storage of every D2D swap-out's stripe plan. */
    compaction::StripeScratch stripeScratch;

    /** Index of @p key in instances and genTimes: layer x
     *  totalMicrobatches() + microbatch. */
    std::size_t
    slot(InstanceKey key) const
    {
        return static_cast<std::size_t>(key.ref.layer) *
                   static_cast<std::size_t>(sched.totalMicrobatches()) +
               static_cast<std::size_t>(key.microbatch);
    }

    Instance &inst(InstanceKey key) { return instances[slot(key)]; }

    /** The chain stalled on @p key, clearing its blocked flag; null
     *  when none is. */
    BwdChain *
    unblock(InstanceKey key)
    {
        Instance &in = inst(key);
        if (!std::exchange(in.blocked, false))
            return nullptr;
        return &bwdChains[static_cast<std::size_t>(key.ref.stage)];
    }

    // Metric ids are identical in every node's registry (same
    // registration order), so one set of handles serves all nodes.
    obs::MetricsRegistry::Id mSwapOut = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mSwapIn = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mD2dOut = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mD2dIn = obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mNvmeSpill =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mRecompute =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mAllocStalls =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mHostUsed =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultFail =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultRetry =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultFallbackSwap =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultFallbackRecompute =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultStraggle =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultDegraded =
        obs::MetricsRegistry::kInvalid;
    obs::MetricsRegistry::Id mFaultPressure =
        obs::MetricsRegistry::kInvalid;

    hw::Precision precision;

    // ---- node helpers ----------------------------------------------

    int gpuOf(int stage) const { return plan.gpuForStage(stage); }

    int
    nodeOfGpu(int g) const
    {
        return numNodes > 1 ? topo.nodeOf(g) : 0;
    }

    bool
    sameNode(int a, int b) const
    {
        return nodeOfGpu(a) == nodeOfGpu(b);
    }

    NodeState &
    nsOf(int gpu)
    {
        return nodes[static_cast<std::size_t>(nodeOfGpu(gpu))];
    }

    NodeState &nsOfStage(int stage) { return nsOf(gpuOf(stage)); }

    bool
    anyOom() const
    {
        for (const auto &ns : nodes) {
            if (ns.oom)
                return true;
        }
        return false;
    }

    // Scheduled events, tracker observers and stream hooks hold
    // `this`, so a run never moves.
    TrainingRun(const TrainingRun &) = delete;
    TrainingRun &operator=(const TrainingRun &) = delete;

    TrainingRun(const hw::Topology &t,
                const model::TransformerModel &m,
                const partition::Partition &p,
                const pipeline::Schedule &s,
                const compaction::CompactionPlan &pl, ExecutorConfig c)
        : topo(t), mdl(m), part(p), sched(s), plan(pl), cfg(c)
    {
        if (part.numStages() != sched.numStages)
            util::fatal("partition has %d stages, schedule %d",
                        part.numStages(), sched.numStages);
        if (sched.numStages > topo.numGpus()) {
            // More stages than GPUs is legal only with an explicit
            // stage-to-GPU mapping (interleaved virtual stages, as in
            // Megatron's interleaved 1F1B): several stages then share
            // one device's compute queue and memory.
            if (static_cast<int>(plan.stageToGpu.size()) !=
                sched.numStages)
                util::fatal("schedule needs %d GPUs, topology has %d"
                            " (interleaving requires an explicit"
                            " stage-to-GPU mapping)",
                            sched.numStages, topo.numGpus());
        }
        for (int g : plan.stageToGpu) {
            if (g < 0 || g >= topo.numGpus())
                util::fatal("stage mapped to invalid GPU %d", g);
        }

        if (cfg.maxTransferRetries < 0)
            util::fatal("maxTransferRetries must be >= 0, got %d",
                        cfg.maxTransferRetries);

        numNodes = topo.multiNodeFabric() ? topo.numNodes() : 1;
        precision = mdl.config().precision;
        setupEngines();

        const Bytes effective = topo.gpu().usableCapacity();
        for (int g = 0; g < topo.numGpus(); ++g) {
            compute.push_back(std::make_unique<sim::Stream>(
                *engine, util::strformat("gpu%d.compute", g)));
            gpuMem.push_back(
                std::make_unique<memory::DeviceMemoryTracker>(
                    util::strformat("gpu%d", g), effective));
        }

        // Split the cluster host pool and NVMe along the node
        // boundary (a node swaps to its own pinned memory and SSDs);
        // a single node keeps the whole pool, exactly as before.
        nodes.resize(static_cast<std::size_t>(numNodes));
        const Bytes host_total = topo.hostMemory();
        const Bytes host_share =
            host_total / static_cast<Bytes>(numNodes);
        const Bytes nvme_total = topo.nvmeCapacity();
        const Bytes nvme_share =
            nvme_total / static_cast<Bytes>(numNodes);
        for (int n = 0; n < numNodes; ++n) {
            NodeState &ns = nodes[static_cast<std::size_t>(n)];
            ns.node = n;
            ns.baseHost =
                host_share +
                (n == 0 ? host_total -
                              host_share * static_cast<Bytes>(numNodes)
                        : 0);
            ns.host =
                std::make_unique<memory::PinnedHostPool>(ns.baseHost);
            ns.nvmeCap =
                nvme_share +
                (n == 0 ? nvme_total -
                              nvme_share * static_cast<Bytes>(numNodes)
                        : 0);
            ns.swapTable = &arena().swapTables[static_cast<std::size_t>(n)];
            ns.swapTable->reset(static_cast<int>(mdl.numLayers()),
                                sched.totalMicrobatches());
            ns.lastOptim.assign(
                static_cast<std::size_t>(sched.numMinibatches), 0);
            ns.optRemaining.assign(
                static_cast<std::size_t>(sched.numMinibatches), 0);
        }
        for (int st = 0; st < sched.numStages; ++st) {
            for (auto &rem : nsOfStage(st).optRemaining)
                ++rem;
        }

        allocQueue.resize(static_cast<std::size_t>(topo.numGpus()));
        pendingFreeBytes.assign(
            static_cast<std::size_t>(topo.numGpus()), 0);

        grantsLeft = plan.spareGrants;

        instances.assign(mdl.numLayers() *
                             static_cast<std::size_t>(
                                 sched.totalMicrobatches()),
                         Instance{});
        if (cfg.recordLiveness)
            genTimes.assign(instances.size(), -1);
        layerKind.assign(mdl.numLayers(), Kind::None);
        for (const auto &stage : part.stages) {
            for (std::size_t l = stage.firstLayer; l <= stage.lastLayer;
                 ++l)
                layerKind[l] =
                    plan.kindFor({stage.index, static_cast<int>(l)});
        }

        bwdChains.resize(static_cast<std::size_t>(sched.numStages));
        versionFetch.assign(sched.tasks.size(), 0);
        taskDone.assign(sched.tasks.size(), 0);
        arrivalDone.assign(sched.tasks.size(), 0);
        for (const auto &t2 : sched.tasks) {
            bool needs_transfer =
                (t2.kind == TaskKind::Forward && t2.stage > 0) ||
                (t2.kind == TaskKind::Backward &&
                 t2.stage < sched.numStages - 1);
            arrivalDone[static_cast<std::size_t>(t2.id)] =
                needs_transfer ? 0 : 1;
        }
        cursor.assign(static_cast<std::size_t>(sched.numStages), 0);
        stageBusy.assign(static_cast<std::size_t>(sched.numStages), 0);

        report.jobName = util::strformat(
            "%s/%s/%s", mdl.config().name.c_str(), sched.name.c_str(),
            topo.name().c_str());
        report.overheads.resize(
            static_cast<std::size_t>(sched.numStages));
        for (int st = 0; st < sched.numStages; ++st)
            report.overheads[static_cast<std::size_t>(st)].stage = st;

        if (cfg.record)
            setupObservability();
        if (cfg.faults)
            setupFaults();
    }

    ExecutorArena &arena() { return cfg.arena ? *cfg.arena : ownArena; }

    /**
     * Select and reset the arena's engine and fabric, building the
     * fabric on first use or for a new topology.  The fabric
     * partitions the engine by node.
     */
    void
    setupEngines()
    {
        ExecutorArena &ar = arena();
        // Sample the high-water ratio before reset() zeroes the
        // per-run slot count (reservedSlots survives).
        const bool over =
            ar.engine.reservedSlots() >
            std::max<std::size_t>(2 * ar.engine.poolSlots(), 1024);
        ar.engine.reset();
        engine = &ar.engine;
        if (ar.fabric == nullptr || ar.fabricTopo != &topo) {
            // Build against this exact topology object (the arena
            // owner keeps one stable copy per worker); the reset
            // above already cleared every pending completion the
            // fabric streams could reference.
            ar.fabric = std::make_unique<hw::Fabric>(ar.engine, topo);
            ar.fabricTopo = &topo;
        } else {
            ar.fabric->reset();
        }
        fabric = ar.fabric.get();
        applyShrinkPolicy(over);
        ar.swapTables.resize(static_cast<std::size_t>(numNodes));
    }

    /** High-water policy: after kShrinkAfter consecutive runs whose
     *  retained slabs could hold over twice what was actually used,
     *  release the engine's, fabric's and swap tables' retained
     *  storage so a long-lived daemon does not hold one huge plan's
     *  peak arenas forever.  The engine was reset above, so its heap
     *  is empty (a shrink() precondition). */
    void
    applyShrinkPolicy(bool over)
    {
        ExecutorArena &ar = arena();
        if (!over) {
            ar.overStreak = 0;
            return;
        }
        if (++ar.overStreak < kShrinkAfter)
            return;
        ar.overStreak = 0;
        ++ar.shrinks;
        engine->shrink();
        fabric->shrink();
        ar.swapTables.clear();
    }

    /** Arm the injectors: count the schedule, install the fabric
     *  shaper for link-degrade windows, and schedule host-pressure
     *  windows on every node. */
    void
    setupFaults()
    {
        const fault::Scenario &sc = *cfg.faults;
        report.faults.enabled = true;
        report.faults.scheduledLinkDegrade =
            sc.countOf(fault::EventKind::LinkDegrade);
        report.faults.scheduledTransferFail =
            sc.countOf(fault::EventKind::TransferFail);
        report.faults.scheduledGpuStraggle =
            sc.countOf(fault::EventKind::GpuStraggle);
        report.faults.scheduledHostPressure =
            sc.countOf(fault::EventKind::HostPressure);

        if (cfg.record) {
            for (auto &ns : nodes) {
                mFaultFail = ns.obsData.metrics.counter(
                    "fault.transfer.failures");
                mFaultRetry = ns.obsData.metrics.counter(
                    "fault.transfer.retries");
                mFaultFallbackSwap = ns.obsData.metrics.counter(
                    "fault.fallback.swap");
                mFaultFallbackRecompute = ns.obsData.metrics.counter(
                    "fault.fallback.recompute");
                mFaultStraggle = ns.obsData.metrics.counter(
                    "fault.straggle.tasks");
                mFaultDegraded = ns.obsData.metrics.counter(
                    "fault.degraded.transfers");
                mFaultPressure = ns.obsData.metrics.gauge(
                    "fault.host.pressure.bytes");
            }
        }

        for (auto &ns : nodes) {
            ns.injector = std::make_unique<fault::Injector>(
                sc, *engine, static_cast<std::uint64_t>(ns.node));
        }

        fabric->setTransferShaper(
            [this](hw::FabricResource res, int node, int a, int b,
                   Bytes, Tick dur) {
                // The query runs on the node executing the shaped leg;
                // route it to that node's injector so every draw stays
                // in its own node's deterministic order.
                NodeState &ns =
                    nodes[node < 0 ? 0
                                   : static_cast<std::size_t>(node)];
                double stretch =
                    ns.injector->transferStretch(res, a, b);
                if (stretch <= 1.0)
                    return dur;
                ++ns.faults.degradedTransfers;
                ns.obsData.metrics.add(mFaultDegraded,
                                       engine->now(), 1.0);
                return static_cast<Tick>(
                    static_cast<double>(dur) * stretch);
            });

        // Host pressure cuts every node's pool slice proportionally;
        // node 0 additionally keeps the cluster-wide running total
        // for the report and metric (on one node, share == bytes and
        // the mutation order matches the historical handler exactly).
        const auto nn = static_cast<Bytes>(nodes.size());
        for (const auto &e : sc.events) {
            if (e.kind != fault::EventKind::HostPressure)
                continue;
            const Bytes base_share = e.bytes / nn;
            for (auto &node_state : nodes) {
                NodeState *np = &node_state;
                const Bytes share =
                    base_share +
                    (np->node == 0 ? e.bytes - base_share * nn : 0);
                engine->scheduleOn(np->node, e.start, [this, np, share,
                                                       e]() {
                    np->hostPressureCut += share;
                    if (np->node == 0) {
                        np->totalPressureCut += e.bytes;
                        ++np->faults.hostPressureEvents;
                        np->faults.hostPressurePeak =
                            std::max(np->faults.hostPressurePeak,
                                     np->totalPressureCut);
                    }
                    np->host->setCapacity(np->baseHost -
                                          np->hostPressureCut);
                    if (np->node == 0) {
                        np->obsData.metrics.set(
                            mFaultPressure, engine->now(),
                            static_cast<double>(
                                np->totalPressureCut));
                    }
                    traceInstant(*np, "fault: host-pressure on", -1);
                });
                engine->scheduleOn(np->node, e.end, [this, np, share,
                                                     e]() {
                    np->hostPressureCut -= share;
                    if (np->node == 0)
                        np->totalPressureCut -= e.bytes;
                    np->host->setCapacity(np->baseHost -
                                          np->hostPressureCut);
                    if (np->node == 0) {
                        np->obsData.metrics.set(
                            mFaultPressure, engine->now(),
                            static_cast<double>(
                                np->totalPressureCut));
                    }
                    traceInstant(*np, "fault: host-pressure off", -1);
                });
            }
        }
    }

    /** Emit a fault marker into @p ns's trace (lane -1 = host-wide).
     *  An unrecorded run builds no string. */
    void
    traceInstant(NodeState &ns, const char *name, int lane)
    {
        if (!cfg.record)
            return;
        ns.trace.recordInstant(name, "fault", lane < 0 ? 0 : lane,
                               engine->now());
    }

    /** The marker "fault: <what> s<stage> mb<microbatch>" of a fault
     *  on instance @p key, on @p gpu's lane. */
    void
    traceFault(NodeState &ns, const char *what, InstanceKey key, int gpu)
    {
        if (!cfg.record)
            return;
        ns.trace.recordInstant(util::strformat("fault: %s s%d mb%d", what,
                                               key.ref.stage,
                                               key.microbatch),
                               "fault", gpu, engine->now());
    }

    /** Apply any active straggle window to a compute duration. */
    Tick
    computeDur(int gpu, Tick dur)
    {
        NodeState &ns = nsOf(gpu);
        if (!ns.injector)
            return dur;
        double stretch = ns.injector->computeStretch(gpu);
        if (stretch <= 1.0)
            return dur;
        ++ns.faults.straggledTasks;
        ns.obsData.metrics.add(mFaultStraggle, engine->now(), 1.0);
        return static_cast<Tick>(static_cast<double>(dur) * stretch);
    }

    /** Register every node's metrics and hook every tracker and
     *  stream.  With ExecutorConfig::record off none of this runs, the
     *  metric ids stay kInvalid, and the instrumented call sites below
     *  are no-ops.  Every node registers the same metrics in the same
     *  order, so one set of ids addresses all per-node registries. */
    void
    setupObservability()
    {
        for (auto &ns : nodes) {
            mSwapOut = ns.obsData.metrics.counter("swap.out.bytes");
            mSwapIn = ns.obsData.metrics.counter("swap.in.bytes");
            mD2dOut = ns.obsData.metrics.counter("d2d.out.bytes");
            mD2dIn = ns.obsData.metrics.counter("d2d.in.bytes");
            mNvmeSpill =
                ns.obsData.metrics.counter("nvme.spill.bytes");
            mRecompute =
                ns.obsData.metrics.counter("recompute.ticks");
            mAllocStalls = ns.obsData.metrics.counter("alloc.stalls");
            mHostUsed =
                ns.obsData.metrics.gauge("host.pinned.used.bytes");
        }

        for (int g = 0; g < topo.numGpus(); ++g) {
            gpuMem[static_cast<std::size_t>(g)]->setObserver(
                [this, g](TensorKind kind, Bytes delta) {
                    NodeState &ns = nsOf(g);
                    ns.obsData.memory.record(engine->now(), g,
                                             kind, delta);
                });
            nsOf(g).obsData.utilization.attach(
                *compute[static_cast<std::size_t>(g)],
                obs::Resource::Compute, g);
        }
        for (auto &ns : nodes) {
            NodeState *np = &ns;
            ns.host->setObserver([this, np](TensorKind, Bytes) {
                np->obsData.metrics.set(
                    mHostUsed, engine->now(),
                    static_cast<double>(np->host->used()));
            });
        }
        fabric->visitStreams([this](hw::FabricResource res, int node,
                                    int gpu, sim::Stream &stream) {
            NodeState &ns =
                nodes[node < 0 ? 0 : static_cast<std::size_t>(node)];
            ns.obsData.utilization.attach(stream, obsResource(res),
                                          gpu);
        });
    }

    static obs::Resource
    obsResource(hw::FabricResource res)
    {
        switch (res) {
          case hw::FabricResource::NvlinkEgress:
            return obs::Resource::NvlinkEgress;
          case hw::FabricResource::NvlinkIngress:
            return obs::Resource::NvlinkIngress;
          case hw::FabricResource::PcieH2D:
            return obs::Resource::PcieH2D;
          case hw::FabricResource::PcieD2H:
            return obs::Resource::PcieD2H;
          case hw::FabricResource::NvmeWrite:
            return obs::Resource::NvmeWrite;
          case hw::FabricResource::NvmeRead:
            return obs::Resource::NvmeRead;
          case hw::FabricResource::NicEgress:
            return obs::Resource::NicEgress;
          case hw::FabricResource::NicIngress:
            return obs::Resource::NicIngress;
        }
        return obs::Resource::Compute;
    }

    // ---- trace ----------------------------------------------------

    void
    traceSpan(const char *kind, int stage, int mb, int gpu,
              Tick start, Tick end)
    {
        if (!cfg.record)
            return;
        nsOf(gpu).trace.record(
            util::strformat("%s s%d mb%d", kind, stage, mb),
            kind, gpu, start, end);
    }

    // ---- memory helpers -------------------------------------------

    void
    gpuAlloc(int gpu, TensorKind kind, Bytes bytes)
    {
        bool ok = gpuMem[static_cast<std::size_t>(gpu)]->alloc(kind,
                                                               bytes);
        NodeState &ns = nsOf(gpu);
        if (!ok && cfg.failFastOnOom && !ns.oom) {
            ns.oom = true;
            ns.oomGpu = gpu;
            ns.oomTime = engine->now();
            // Window-granular on multi-node runs: the other nodes
            // finish the current window (see sim::Engine::run()).
            engine->stop();
        }
    }

    void
    gpuFree(int gpu, TensorKind kind, Bytes bytes)
    {
        gpuMem[static_cast<std::size_t>(gpu)]->free(kind, bytes);
        drainAllocQueue(gpu);
    }

    // ---- allocation backpressure ----------------------------------
    //
    // The memory manager blocks a requester when the allocation does
    // not fit but in-flight swap-outs will free memory soon — this is
    // what lets swap-everything plans run arbitrarily large models at
    // reduced speed instead of crashing (Fig. 7's GPU-CPU swap bars).
    // A request that cannot ever be satisfied (no pending frees) is a
    // genuine OOM.

    struct PendingAlloc
    {
        TensorKind kind;
        Bytes bytes;
        sim::EventFn fn;
    };
    std::vector<std::deque<PendingAlloc>> allocQueue;
    std::vector<Bytes> pendingFreeBytes;

    /** Allocate, stalling the continuation until memory frees.
     *  A request that can never be satisfied leaves the simulation
     *  deadlocked with the waiter queued; run() detects the drained
     *  event queue with unfinished work and reports it as OOM —
     *  mirroring a real allocator that blocks on pending frees and
     *  raises OOM only when none can arrive. */
    void
    gpuAllocBlocking(int gpu, TensorKind kind, Bytes bytes,
                     sim::EventFn fn)
    {
        auto g = static_cast<std::size_t>(gpu);
        auto &mem = *gpuMem[g];
        if (!cfg.failFastOnOom) {
            // Profiling mode measures true demand: never block.
            gpuAlloc(gpu, kind, bytes);
            fn();
            return;
        }
        if (allocQueue[g].empty() && mem.available() >= bytes) {
            mem.alloc(kind, bytes);
            fn();
            return;
        }
        NodeState &ns = nsOf(gpu);
        ns.obsData.metrics.add(mAllocStalls, engine->now(), 1.0);
        allocQueue[g].push_back({kind, bytes, std::move(fn)});
    }

    void
    drainAllocQueue(int gpu)
    {
        auto g = static_cast<std::size_t>(gpu);
        auto &mem = *gpuMem[g];
        while (!allocQueue[g].empty() &&
               mem.available() >= allocQueue[g].front().bytes) {
            PendingAlloc req = std::move(allocQueue[g].front());
            allocQueue[g].pop_front();
            mem.alloc(req.kind, req.bytes);
            req.fn();
        }
    }

    // ---- P2P stage-to-stage transfers -----------------------------

    /** Ship a stage's boundary tensor (an activation downstream or a
     *  gradient upstream) to @p dst_stage, whose task @p nxt then
     *  counts it arrived. */
    void
    shipBoundary(int src_stage, int dst_stage, Bytes bytes, int nxt)
    {
        const int src_gpu = gpuOf(src_stage);
        const int dst_gpu = gpuOf(dst_stage);
        auto arrive = [this, nxt, dst_stage]() {
            arrivalDone[static_cast<std::size_t>(nxt)] = 1;
            tryAdvance(dst_stage);
        };
        if (bytes <= 0 || src_gpu == dst_gpu) {
            if (sameNode(src_gpu, dst_gpu)) {
                engine->scheduleIn(0, arrive);
            } else {
                // Degenerate cross-node hand-off: even an empty
                // message takes the lookahead.
                engine->post(nodeOfGpu(dst_gpu), arrive);
            }
            return;
        }
        if (fabric->lanesBetween(src_gpu, dst_gpu) > 0) {
            // Direct lanes: NVLink within a node, the NIC path across
            // nodes (arrive then fires on the destination node).
            fabric->d2dTransfer(src_gpu, dst_gpu, bytes, 1, arrive);
        } else {
            // No direct NVLink: bounce through host memory.
            fabric->gpuToHost(src_gpu, bytes,
                              [this, dst_gpu, bytes, arrive]() {
                                  fabric->hostToGpu(dst_gpu, bytes,
                                                    arrive);
                              });
        }
    }

    // ---- schedule driving -----------------------------------------

    bool
    eligible(const pipeline::Task &t) const
    {
        // Arrival first: for tasks fed from another node, the arrival
        // message is the happens-before edge that makes the producing
        // task's done flag safe to read.
        if (arrivalDone[static_cast<std::size_t>(t.id)] == 0)
            return false;
        for (int dep : t.deps) {
            if (!taskDone[static_cast<std::size_t>(dep)])
                return false;
        }
        return true;
    }

    void
    tryAdvance(int stage)
    {
        auto s = static_cast<std::size_t>(stage);
        if (stageBusy[s])
            return;
        const auto &order = sched.perStageOrder[s];
        if (cursor[s] >= order.size())
            return;
        const pipeline::Task &t = sched.task(order[cursor[s]]);
        // Stash-offloaded backward tasks need their weight version
        // fetched from the host; the fetch is independent of the
        // gradient arrival, so issue it as soon as the task reaches
        // the queue head and let it overlap the wait.
        if (t.kind == TaskKind::Backward &&
            plan.stashOffloaded(t.stage)) {
            char &fetch = versionFetch[static_cast<std::size_t>(t.id)];
            if (fetch == 0) {
                fetch = 1;
                const int gpu = gpuOf(t.stage);
                const auto &stage_part =
                    part.stages[static_cast<std::size_t>(t.stage)];
                fabric->gpuToHost(gpu, stage_part.paramBytes, [] {});
                fabric->hostToGpu(
                    gpu, stage_part.paramBytes, [this, &t]() {
                        versionFetch[static_cast<std::size_t>(t.id)] = 2;
                        tryAdvance(t.stage);
                    });
                return;
            }
            if (fetch != 2)
                return;
        }
        if (!eligible(t))
            return;
        ++cursor[s];
        stageBusy[s] = 1;
        switch (t.kind) {
          case TaskKind::Forward:
            launchForward(t);
            break;
          case TaskKind::Backward:
            launchBackward(t);
            break;
          case TaskKind::OptimStep:
            launchOptim(t);
            break;
        }
    }

    void
    finishTask(const pipeline::Task &t)
    {
        taskDone[static_cast<std::size_t>(t.id)] = 1;
        stageBusy[static_cast<std::size_t>(t.stage)] = 0;

        if (t.kind == TaskKind::Forward &&
            t.stage < sched.numStages - 1) {
            // Ship the boundary activation downstream.
            shipBoundary(t.stage, t.stage + 1,
                         part.stages[static_cast<std::size_t>(t.stage)]
                             .outputBytes,
                         sched.fwdId(t.stage + 1, t.microbatch));
        } else if (t.kind == TaskKind::Backward && t.stage > 0) {
            // Ship the input gradient upstream (same size as the
            // upstream stage's boundary activation).
            shipBoundary(
                t.stage, t.stage - 1,
                part.stages[static_cast<std::size_t>(t.stage - 1)]
                    .outputBytes,
                sched.bwdId(t.stage - 1, t.microbatch));
        } else if (t.kind == TaskKind::OptimStep) {
            NodeState &ns = nsOfStage(t.stage);
            auto k = static_cast<std::size_t>(t.minibatch);
            if (--ns.optRemaining[k] == 0)
                ns.lastOptim[k] = engine->now();
        }

        tryAdvance(t.stage);
    }

    // ---- forward pass ---------------------------------------------

    /** True when this instance's activation-saving bytes should count
     *  toward the per-iteration savings breakdown (one steady
     *  minibatch is sampled to avoid warmup skew). */
    bool
    countsForSavings(int minibatch) const
    {
        int sample = sched.numMinibatches > 1 ? 1 : 0;
        return minibatch == sample;
    }

    void
    launchForward(const pipeline::Task &t)
    {
        runFwdLayer(t,
                    part.stages[static_cast<std::size_t>(t.stage)]
                        .firstLayer);
    }

    void
    runFwdLayer(const pipeline::Task &t, std::size_t pos)
    {
        const auto &stage =
            part.stages[static_cast<std::size_t>(t.stage)];
        if (pos > stage.lastLayer) {
            finishTask(t);
            return;
        }
        const model::Layer &layer = mdl.layer(pos);
        const int gpu = gpuOf(t.stage);

        // Allocation may stall behind in-flight swap-outs; the layer
        // kernel launches once the stash fits.
        gpuAllocBlocking(
            gpu, TensorKind::Activation, layer.activationStash,
            [this, &t, pos, gpu, &layer]() {
                Tick dur = computeDur(
                    gpu, topo.gpu().computeTime(layer.fwdFlops,
                                                precision));
                compute[static_cast<std::size_t>(gpu)]->submit(
                    dur, [this, &t, pos, gpu](Tick a, Tick b) {
                        traceSpan("fwd", t.stage, t.microbatch, gpu,
                                  a, b);
                        onFwdLayerDone(t, pos);
                    });
            });
    }

    void
    onFwdLayerDone(const pipeline::Task &t, std::size_t pos)
    {
        InstanceKey key{{t.stage, static_cast<int>(pos)},
                        t.microbatch};
        NodeState &ns = nsOfStage(t.stage);
        Instance &in = inst(key);
        if (cfg.recordLiveness)
            genTimes[slot(key)] = engine->now();

        const model::Layer &layer = mdl.layer(pos);
        const int gpu = gpuOf(t.stage);

        switch (layerKind[pos]) {
          case Kind::None:
            break;
          case Kind::Recompute: {
            // Drop the stash, keep the segment boundary.
            gpuFree(gpu, TensorKind::Activation,
                    layer.activationStash);
            gpuAlloc(gpu, TensorKind::Activation, layer.outputBytes);
            in.inState = InState::NotNeeded;
            if (countsForSavings(t.minibatch)) {
                ns.savings.recompute +=
                    layer.activationStash - layer.outputBytes;
            }
            break;
          }
          case Kind::GpuCpuSwap: {
            // When neither the host pool nor the NVMe can take the
            // stash, it simply stays resident.
            startHostSwapOut(key, gpu, layer.activationStash,
                             t.minibatch);
            break;
          }
          case Kind::D2dSwap: {
            startD2dSwapOut(key, gpu, layer.activationStash);
            break;
          }
        }

        runFwdLayer(t, pos + 1);
    }

    /** Minibatch of an instance: its forward task's. */
    int
    minibatchOf(InstanceKey key) const
    {
        return sched.task(sched.fwdId(key.ref.stage, key.microbatch))
            .minibatch;
    }

    void
    startD2dSwapOut(InstanceKey key, int gpu, Bytes bytes)
    {
        NodeState &ns = nsOf(gpu);
        auto it = grantsLeft.find(gpu);
        if (it == grantsLeft.end()) {
            ns.d2dOverflow += bytes;
            return;
        }
        // The stripes are planned straight into the record.
        auto &rec = ns.swapTable->beginSwapOut(key, Kind::D2dSwap, bytes);
        auto &stripes = rec.plan.stripes;
        if (plan.d2dStriping) {
            compaction::makeStripePlan(topo, gpu, it->second, bytes,
                                       rec.plan, stripeScratch);
        } else {
            // Figure 9 ablation baseline: the whole tensor goes to
            // one importer over a single lane.
            for (const auto &grant : it->second) {
                if (grant.budget >= bytes &&
                    topo.pathLanes(gpu, grant.importerGpu) > 0) {
                    stripes.push_back({grant.importerGpu, bytes, 1});
                    break;
                }
            }
        }
        if (stripes.empty()) {
            ns.swapTable->abort(key);
            ns.d2dOverflow += bytes;
            return;
        }
        // Debit budgets; same-node importers reserve their memory at
        // issue.  A cross-node stripe's reservation is made on the
        // importer's own node when the data lands (issueSwapOutStripe)
        // — the importer's budget is still debited here, exporter-side.
        rec.landed.assign(stripes.size(), 0);
        for (std::size_t i = 0; i < stripes.size(); ++i) {
            const auto &stripe = stripes[i];
            for (auto &grant : it->second) {
                if (grant.importerGpu == stripe.targetGpu) {
                    grant.budget -= stripe.bytes;
                    break;
                }
            }
            if (sameNode(gpu, stripe.targetGpu)) {
                gpuAlloc(stripe.targetGpu, TensorKind::Activation,
                         stripe.bytes);
                rec.landed[i] = 1;
            }
        }
        ns.obsData.metrics.add(mD2dOut, engine->now(),
                               static_cast<double>(bytes));
        inst(key).inState = InState::Pending;
        pendingFreeBytes[static_cast<std::size_t>(gpu)] += bytes;

        // The stripes resolve independently (possibly after retries);
        // the instance settles when the last one does.
        rec.remaining = static_cast<int>(stripes.size());
        for (std::size_t i = 0; i < stripes.size(); ++i)
            issueSwapOutStripe(key, static_cast<int>(i), 0);
    }

    void
    issueSwapOutStripe(InstanceKey key, int idx, int try_no)
    {
        const int gpu = gpuOf(key.ref.stage);
        NodeState &ns = nsOf(gpu);
        const compaction::Stripe stripe =
            ns.swapTable->find(key)
                ->plan.stripes[static_cast<std::size_t>(idx)];
        // Draw the failure at issue time so the PRNG consumption
        // order follows the exporter node's deterministic event
        // order.  A failed stripe still occupies its lanes for the
        // full duration — the data just never lands.
        const bool fails =
            ns.injector &&
            ns.injector->failsD2dStripe(gpu, stripe.targetGpu);
        if (fails) {
            ++ns.faults.transferFailures;
            ns.obsData.metrics.add(mFaultFail, engine->now(), 1.0);
            traceFault(ns, "d2d stripe fail", key, gpu);
        }
        if (sameNode(gpu, stripe.targetGpu)) {
            fabric->d2dTransfer(
                gpu, stripe.targetGpu, stripe.bytes, stripe.lanes,
                [this, key, idx, try_no, fails]() {
                    resolveSwapOutStripe(key, idx, try_no, !fails);
                });
            return;
        }
        // Cross-node stripe: the transfer's completion fires on the
        // importer's node, which reserves the landed bytes on its own
        // memory tracker and acknowledges back to the exporter with a
        // message.
        const int src_node = nodeOfGpu(gpu);
        const int target = stripe.targetGpu;
        const Bytes sb = stripe.bytes;
        fabric->d2dTransfer(
            gpu, target, sb, stripe.lanes,
            [this, key, idx, try_no, fails, src_node, target, sb]() {
                if (!fails)
                    gpuAlloc(target, TensorKind::Activation, sb);
                engine->post(src_node, [this, key, idx, try_no, fails]() {
                    resolveSwapOutStripe(key, idx, try_no, !fails);
                });
            });
    }

    /** Exporter-side settlement of one swap-out stripe (called
     *  directly for same-node stripes, via the ack message for
     *  cross-node ones). */
    void
    resolveSwapOutStripe(InstanceKey key, int idx, int try_no, bool ok)
    {
        NodeState &ns = nsOfStage(key.ref.stage);
        compaction::SwapRecord &rec = *ns.swapTable->find(key);
        if (ok) {
            rec.landed[static_cast<std::size_t>(idx)] = 1;
            swapOutStripeResolved(key, rec);
            return;
        }
        if (!cfg.faultLadder) {
            // Ladder disabled: the stripe is lost, the swap-out never
            // completes, and the backward deadlocks into an OOM
            // report.
            return;
        }
        if (try_no < cfg.maxTransferRetries) {
            ++ns.faults.retries;
            ns.obsData.metrics.add(mFaultRetry, engine->now(),
                                   1.0);
            engine->scheduleIn(kRetryBackoff << try_no,
                               [this, key, idx, try_no]() {
                                   issueSwapOutStripe(key, idx,
                                                      try_no + 1);
                               });
            return;
        }
        rec.anyFailed = true;
        swapOutStripeResolved(key, rec);
    }

    void
    swapOutStripeResolved(InstanceKey key, compaction::SwapRecord &rec)
    {
        if (--rec.remaining > 0)
            return;
        if (!rec.anyFailed) {
            finishD2dSwapOut(key, rec.bytes);
            return;
        }
        demoteFailedD2d(key, rec);
    }

    void
    finishD2dSwapOut(InstanceKey key, Bytes bytes)
    {
        const int gpu = gpuOf(key.ref.stage);
        NodeState &ns = nsOf(gpu);
        pendingFreeBytes[static_cast<std::size_t>(gpu)] -= bytes;
        gpuFree(gpu, TensorKind::Activation, bytes);
        ns.swapTable->markResident(key);
        if (countsForSavings(minibatchOf(key)))
            ns.savings.d2dSwap += bytes;
        wakeIfBlocked(key);
    }

    /** A stripe exhausted its retries: undo the whole D2D swap-out
     *  (free landed importer reservations, re-credit grants) and walk
     *  the instance down the ladder — GPU-CPU swap, then recompute. */
    void
    demoteFailedD2d(InstanceKey key, const compaction::SwapRecord &rec)
    {
        const int gpu = gpuOf(key.ref.stage);
        NodeState &ns = nsOf(gpu);
        const Bytes bytes = rec.bytes;
        auto git = grantsLeft.find(gpu);
        for (std::size_t i = 0; i < rec.plan.stripes.size(); ++i) {
            const auto &stripe = rec.plan.stripes[i];
            if (rec.landed[i]) {
                if (sameNode(gpu, stripe.targetGpu)) {
                    gpuFree(stripe.targetGpu, TensorKind::Activation,
                            stripe.bytes);
                } else {
                    const int target = stripe.targetGpu;
                    const Bytes sb = stripe.bytes;
                    engine->post(nodeOfGpu(target), [this, target, sb]() {
                        gpuFree(target, TensorKind::Activation, sb);
                    });
                }
            }
            if (git != grantsLeft.end()) {
                for (auto &grant : git->second) {
                    if (grant.importerGpu == stripe.targetGpu) {
                        grant.budget += stripe.bytes;
                        break;
                    }
                }
            }
        }
        pendingFreeBytes[static_cast<std::size_t>(gpu)] -= bytes;
        ns.swapTable->abort(key);
        Instance &in = inst(key);
        in.inState = InState::NotNeeded;

        const int minibatch = minibatchOf(key);
        if (startHostSwapOut(key, gpu, bytes, minibatch)) {
            in.kindOverride = static_cast<std::uint8_t>(Kind::GpuCpuSwap);
            ++ns.faults.fallbackGpuCpuSwap;
            ns.obsData.metrics.add(mFaultFallbackSwap,
                                   engine->now(), 1.0);
            traceFault(ns, "fallback swap", key, gpu);
            return;
        }

        // Bottom rung: drop the stash and recompute in the backward
        // pass, exactly like a planned Kind::Recompute instance.
        const model::Layer &layer =
            mdl.layer(static_cast<std::size_t>(key.ref.layer));
        in.kindOverride = static_cast<std::uint8_t>(Kind::Recompute);
        ++ns.faults.fallbackRecompute;
        ns.obsData.metrics.add(mFaultFallbackRecompute,
                               engine->now(), 1.0);
        traceFault(ns, "fallback recompute", key, gpu);
        gpuFree(gpu, TensorKind::Activation, layer.activationStash);
        gpuAlloc(gpu, TensorKind::Activation, layer.outputBytes);
        in.inState = InState::NotNeeded;
        if (countsForSavings(minibatch)) {
            ns.savings.recompute +=
                layer.activationStash - layer.outputBytes;
        }

        // A backward chain may already be stalled on the old swap-in;
        // the tensor will now be recomputed, so resume it.
        if (BwdChain *chain = unblock(key)) {
            if (chain->stallStart >= 0) {
                report
                    .overheads[static_cast<std::size_t>(
                        chain->task->stage)]
                    .swapInStall +=
                    engine->now() - chain->stallStart;
                chain->stallStart = -1;
            }
            runBwdLayer(*chain);
        }
    }

    /**
     * Issue a GPU-CPU swap-out (the planned Kind::GpuCpuSwap path and
     * the ladder's first fallback).  Returns false — with no side
     * effects beyond the host-pool probe — when neither the node's
     * host-pool slice nor its NVMe can take the bytes; the stash then
     * stays resident.
     */
    bool
    startHostSwapOut(InstanceKey key, int gpu, Bytes bytes,
                     int minibatch)
    {
        NodeState &ns = nsOf(gpu);
        bool to_nvme = false;
        if (!ns.host->reserve(bytes)) {
            ns.host->release(bytes);
            // Host pool exhausted: spill to NVMe when the server
            // has one (Sec. V multi-level hierarchy), otherwise
            // keep resident.
            if (ns.nvmeUsed + bytes <= ns.nvmeCap) {
                to_nvme = true;
                ns.nvmeUsed += bytes;
                ns.nvmeSpill += bytes;
                ns.obsData.metrics.add(mNvmeSpill, engine->now(),
                                       static_cast<double>(bytes));
            } else {
                return false;
            }
        }
        ns.obsData.metrics.add(mSwapOut, engine->now(),
                               static_cast<double>(bytes));
        ns.swapTable->beginSwapOut(key, Kind::GpuCpuSwap, bytes).onNvme =
            to_nvme;
        inst(key).inState = InState::Pending;
        pendingFreeBytes[static_cast<std::size_t>(gpu)] += bytes;
        fabric->gpuToHost(
            gpu, bytes, [this, key, gpu, minibatch]() {
                NodeState &n2 = nsOf(gpu);
                auto *rec = n2.swapTable->find(key);
                pendingFreeBytes[static_cast<std::size_t>(gpu)] -=
                    rec->bytes;
                gpuFree(gpu, TensorKind::Activation, rec->bytes);
                if (countsForSavings(minibatch))
                    n2.savings.gpuCpuSwap += rec->bytes;
                if (!rec->onNvme) {
                    n2.swapTable->markResident(key);
                    wakeIfBlocked(key);
                    return;
                }
                // Second leg: stream through to the SSD.
                fabric->hostToNvme(
                    n2.node, rec->bytes, [this, key, gpu]() {
                        nsOf(gpu).swapTable->markResident(key);
                        wakeIfBlocked(key);
                    });
            });
        return true;
    }

    // ---- backward pass --------------------------------------------

    void
    launchBackward(const pipeline::Task &t)
    {
        const auto &stage =
            part.stages[static_cast<std::size_t>(t.stage)];
        BwdChain &chain = bwdChains[static_cast<std::size_t>(t.stage)];
        chain = BwdChain{};
        chain.task = &t;
        chain.lastLayer = stage.lastLayer;
        chain.numLayers = stage.lastLayer + 1 > stage.firstLayer
                              ? stage.lastLayer + 1 - stage.firstLayer
                              : 0;
        issuePrefetches(chain);
        runBwdLayer(chain);
    }

    void
    issuePrefetches(BwdChain &chain)
    {
        while (chain.nextPrefetch < chain.numLayers &&
               chain.inflightSwapIns < compaction::kSwapInLookahead) {
            std::size_t pos = chain.layerAt(chain.nextPrefetch);
            InstanceKey key{{chain.task->stage,
                             static_cast<int>(pos)},
                            chain.task->microbatch};
            ++chain.nextPrefetch;
            if (inst(key).inState != InState::Pending)
                continue;
            issueSwapIn(chain, key);
        }
    }

    void
    issueSwapIn(BwdChain &chain, InstanceKey key)
    {
        NodeState &ns = nsOfStage(chain.task->stage);
        auto *rec = ns.swapTable->find(key);
        if (!rec || rec->state != SwapState::Resident)
            return;  // swap-out still in flight; will stall later
        inst(key).inState = InState::InFlight;
        ++chain.inflightSwapIns;
        ns.obsData.metrics.add(rec->kind == Kind::D2dSwap ? mD2dIn
                                                          : mSwapIn,
                               engine->now(),
                               static_cast<double>(rec->bytes));
        ns.swapTable->markSwappingIn(key);
        const int gpu = gpuOf(chain.task->stage);

        // Re-materialize the stash on the exporter GPU; the transfer
        // waits if the allocation must stall behind pending frees.
        gpuAllocBlocking(
            gpu, TensorKind::Activation, rec->bytes,
            [this, key, gpu]() {
                NodeState &n2 = nsOf(gpu);
                auto *r = n2.swapTable->find(key);
                if (r->kind == Kind::GpuCpuSwap && r->onNvme) {
                    fabric->nvmeToHost(
                        n2.node, r->bytes, [this, key, gpu]() {
                            const auto *rec2 =
                                nsOf(gpu).swapTable->find(key);
                            fabric->hostToGpu(gpu, rec2->bytes,
                                              [this, key]() {
                                                  onSwapInDone(key);
                                              });
                        });
                } else if (r->kind == Kind::GpuCpuSwap) {
                    fabric->hostToGpu(gpu, r->bytes, [this, key]() {
                        onSwapInDone(key);
                    });
                } else {
                    // Completes when every stripe has been fetched
                    // back from its importer.
                    const auto n = static_cast<int>(r->plan.stripes.size());
                    r->remaining = n;
                    for (int i = 0; i < n; ++i)
                        issueSwapInStripe(key, i, 0);
                }
            });
    }

    void
    issueSwapInStripe(InstanceKey key, int idx, int try_no)
    {
        const int gpu = gpuOf(key.ref.stage);
        NodeState &ns = nsOf(gpu);
        const compaction::Stripe stripe =
            ns.swapTable->find(key)
                ->plan.stripes[static_cast<std::size_t>(idx)];
        // The draw stays on the exporter's node even for cross-node
        // stripes, keeping the consumption order deterministic.
        const bool fails =
            ns.injector &&
            ns.injector->failsD2dStripe(stripe.targetGpu, gpu);
        if (fails) {
            ++ns.faults.transferFailures;
            ns.obsData.metrics.add(mFaultFail, engine->now(), 1.0);
            traceFault(ns, "d2d stripe fail", key, gpu);
        }
        // The completion runs on the transfer's destination — the
        // exporter's own node — so it may touch ns state freely.
        if (sameNode(stripe.targetGpu, gpu)) {
            fabric->d2dTransfer(stripe.targetGpu, gpu, stripe.bytes,
                                stripe.lanes,
                                [this, key, idx, try_no, fails]() {
                                    swapInStripeLanded(key, idx, try_no,
                                                       fails);
                                });
            return;
        }
        // Cross-node pull: the transfer must be issued from the
        // importer's node (it occupies the importer's egress NICs), so
        // send it a pull-request message; the two-leg completion then
        // lands back here on the exporter's node.
        engine->post(
            nodeOfGpu(stripe.targetGpu),
            [this, key, stripe, idx, try_no, gpu, fails]() {
                fabric->d2dTransfer(stripe.targetGpu, gpu, stripe.bytes,
                                    stripe.lanes,
                                    [this, key, idx, try_no, fails]() {
                                        swapInStripeLanded(key, idx,
                                                           try_no, fails);
                                    });
            });
    }

    /** One swap-in stripe's transfer finished on the exporter's node:
     *  count it in, or walk the failed stripe down the ladder. */
    void
    swapInStripeLanded(InstanceKey key, int idx, int try_no, bool fails)
    {
        if (!fails) {
            swapInStripeArrived(key);
            return;
        }
        if (!cfg.faultLadder) {
            // Ladder disabled: the stripe never arrives and the
            // blocked backward deadlocks into OOM.
            return;
        }
        const int gpu = gpuOf(key.ref.stage);
        NodeState &ns = nsOf(gpu);
        if (try_no < cfg.maxTransferRetries) {
            ++ns.faults.retries;
            ns.obsData.metrics.add(mFaultRetry, engine->now(), 1.0);
            engine->scheduleIn(kRetryBackoff << try_no,
                               [this, key, idx, try_no]() {
                                   issueSwapInStripe(key, idx,
                                                     try_no + 1);
                               });
            return;
        }
        // Retries exhausted on the direct link: the data still lives
        // on the importer, so reroute the stripe through host memory
        // over PCIe — the swap-in's GPU-CPU fallback rung.
        ++ns.faults.fallbackGpuCpuSwap;
        ns.obsData.metrics.add(mFaultFallbackSwap, engine->now(), 1.0);
        traceFault(ns, "stripe reroute via host", key, gpu);
        rerouteSwapInStripe(key, idx);
    }

    void
    swapInStripeArrived(InstanceKey key)
    {
        if (--nsOfStage(key.ref.stage).swapTable->find(key)->remaining ==
            0)
            onSwapInDone(key);
    }

    /** Ladder reroute of one swap-in stripe via host memory: D2H on
     *  the importer, then H2D on the exporter, hopping nodes by
     *  message when the two differ. */
    void
    rerouteSwapInStripe(InstanceKey key, int idx)
    {
        const int gpu = gpuOf(key.ref.stage);
        const compaction::Stripe &stripe =
            nsOf(gpu).swapTable->find(key)
                ->plan.stripes[static_cast<std::size_t>(idx)];
        const int target = stripe.targetGpu;
        const Bytes sb = stripe.bytes;
        if (sameNode(target, gpu)) {
            fabric->gpuToHost(target, sb, [this, key, gpu, sb]() {
                fabric->hostToGpu(gpu, sb, [this, key]() {
                    swapInStripeArrived(key);
                });
            });
            return;
        }
        const int exp_node = nodeOfGpu(gpu);
        engine->post(
            nodeOfGpu(target), [this, key, gpu, target, sb, exp_node]() {
                fabric->gpuToHost(
                    target, sb, [this, key, gpu, sb, exp_node]() {
                        engine->post(exp_node, [this, key, gpu, sb]() {
                            fabric->hostToGpu(gpu, sb, [this, key]() {
                                swapInStripeArrived(key);
                            });
                        });
                    });
            });
    }

    /** A swap-out just finished: if a backward chain is already
     *  stalled on this instance, issue its swap-in immediately. */
    void
    wakeIfBlocked(InstanceKey key)
    {
        const Instance &in = inst(key);
        if (in.blocked && in.inState == InState::Pending)
            issueSwapIn(bwdChains[static_cast<std::size_t>(key.ref.stage)],
                        key);
    }

    void
    onSwapInDone(InstanceKey key)
    {
        NodeState &ns = nsOfStage(key.ref.stage);
        auto *rec = ns.swapTable->find(key);
        const int gpu = gpuOf(key.ref.stage);
        if (rec->kind == Kind::GpuCpuSwap) {
            if (rec->onNvme)
                ns.nvmeUsed -= rec->bytes;
            else
                ns.host->release(rec->bytes);
        } else {
            auto git = grantsLeft.find(gpu);
            for (const auto &stripe : rec->plan.stripes) {
                if (sameNode(gpu, stripe.targetGpu)) {
                    gpuFree(stripe.targetGpu, TensorKind::Activation,
                            stripe.bytes);
                } else {
                    const int target = stripe.targetGpu;
                    const Bytes sb = stripe.bytes;
                    engine->post(nodeOfGpu(target), [this, target, sb]() {
                        gpuFree(target, TensorKind::Activation, sb);
                    });
                }
                if (git != grantsLeft.end()) {
                    for (auto &grant : git->second) {
                        if (grant.importerGpu == stripe.targetGpu) {
                            grant.budget += stripe.bytes;
                            break;
                        }
                    }
                }
            }
        }
        ns.swapTable->complete(key);
        inst(key).inState = InState::Done;

        if (BwdChain *chain = unblock(key)) {
            --chain->inflightSwapIns;
            if (chain->stallStart >= 0) {
                report
                    .overheads[static_cast<std::size_t>(
                        chain->task->stage)]
                    .swapInStall +=
                    engine->now() - chain->stallStart;
                chain->stallStart = -1;
            }
            issuePrefetches(*chain);
            runBwdLayer(*chain);
        } else {
            // Not blocked: the stage's running chain issued this
            // swap-in; decrement its counter.
            BwdChain &running =
                bwdChains[static_cast<std::size_t>(key.ref.stage)];
            if (running.task &&
                running.task->microbatch == key.microbatch) {
                --running.inflightSwapIns;
                issuePrefetches(running);
            }
        }
    }

    void
    runBwdLayer(BwdChain &chain)
    {
        const pipeline::Task &t = *chain.task;
        NodeState &ns = nsOfStage(t.stage);
        if (chain.next >= chain.numLayers) {
            chain.task = nullptr;
            finishTask(t);
            return;
        }
        std::size_t pos = chain.layerAt(chain.next);
        InstanceKey key{{t.stage, static_cast<int>(pos)},
                        t.microbatch};
        Instance &in = inst(key);
        InState st = in.inState;

        if (st == InState::Pending || st == InState::InFlight) {
            // Needed tensor is off-device: stall the compute queue.
            if (st == InState::Pending) {
                // Prefetch window missed it (e.g. swap-out was still
                // in flight); issue now.
                auto *rec = ns.swapTable->find(key);
                if (rec && rec->state == SwapState::Resident)
                    issueSwapIn(chain, key);
            }
            chain.stallStart = engine->now();
            in.blocked = true;
            return;
        }

        // Captured by pointer: model::Layer holds a std::string, so a
        // by-value capture would heap-allocate per backward event.
        // The model outlives the run, so the pointer is stable.
        const model::Layer *layer = &mdl.layer(pos);
        const int gpu = gpuOf(t.stage);
        // Planned kind, unless the fault ladder demoted the instance.
        Kind kind = in.kindOverride == kNoOverride
                        ? layerKind[pos]
                        : static_cast<Kind>(in.kindOverride);

        if (cfg.recordLiveness && genTimes[slot(key)] >= 0) {
            report.liveness.record(key.ref, layer->activationStash,
                                   t.microbatch, genTimes[slot(key)],
                                   engine->now());
        }

        auto submit_bwd = [this, &chain, gpu, layer]() {
            Tick dur = computeDur(
                gpu,
                topo.gpu().computeTime(layer->bwdFlops(), precision));
            compute[static_cast<std::size_t>(gpu)]->submit(
                dur, [this, &chain, gpu, layer](Tick a, Tick b) {
                    traceSpan("bwd", chain.task->stage,
                              chain.task->microbatch, gpu, a, b);
                    gpuFree(gpu, TensorKind::Activation,
                            layer->activationStash);
                    ++chain.next;
                    issuePrefetches(chain);
                    runBwdLayer(chain);
                });
        };

        if (kind == Kind::Recompute) {
            // Re-run the forward pass on the compute queue, then do
            // the backward.
            Tick redo = computeDur(
                gpu,
                topo.gpu().computeTime(layer->fwdFlops, precision));
            report.overheads[static_cast<std::size_t>(t.stage)]
                .recomputeTime += redo;
            ns.obsData.metrics.add(mRecompute, engine->now(),
                                   static_cast<double>(redo));
            compute[static_cast<std::size_t>(gpu)]->submit(
                redo,
                [this, &chain, gpu, layer, submit_bwd](Tick a,
                                                       Tick b) {
                    traceSpan("recompute", chain.task->stage,
                              chain.task->microbatch, gpu, a, b);
                    gpuAlloc(gpu, TensorKind::Activation,
                             layer->activationStash);
                    gpuFree(gpu, TensorKind::Activation,
                            layer->outputBytes);
                    submit_bwd();
                });
        } else {
            submit_bwd();
        }
    }

    // ---- optimizer step -------------------------------------------

    void
    launchOptim(const pipeline::Task &t)
    {
        const auto &stage =
            part.stages[static_cast<std::size_t>(t.stage)];
        const int gpu = gpuOf(t.stage);
        // Adam is memory-bound: touches params, grads and state.
        Bytes touched = stage.paramBytes + stage.gradBytes +
                        stage.optStateBytes;
        Tick dur = topo.gpu().hbm.transferTime(touched);

        bool offload =
            static_cast<std::size_t>(t.stage) <
                plan.offloadOptState.size() &&
            plan.offloadOptState[static_cast<std::size_t>(t.stage)];

        if (!offload) {
            compute[static_cast<std::size_t>(gpu)]->submit(
                computeDur(gpu, dur),
                [this, &t](Tick, Tick) { finishTask(t); });
            return;
        }

        // Optimizer state lives on the host permanently; the step
        // runs on the CPU (gradients down, fresh parameters up),
        // which moves 1/3 the bytes of a state round-trip — the same
        // mechanism ZeRO-Offload uses.  The CPU-side Adam is
        // host-memory-bound.
        (void)dur;
        const Tick t0 = engine->now();
        const Bytes grad_bytes = stage.gradBytes;
        const Bytes param_bytes = stage.paramBytes;
        const Tick cpu_step = util::Bandwidth::fromGBps(25.0)
                                  .transferTime(stage.optStateBytes);
        fabric->gpuToHost(gpu, grad_bytes, [this, &t, gpu, t0,
                                            param_bytes, cpu_step]() {
            engine->scheduleIn(cpu_step, [this, &t, gpu, t0,
                                          param_bytes]() {
                fabric->hostToGpu(gpu, param_bytes, [this, &t, t0]() {
                    report.overheads[static_cast<std::size_t>(t.stage)]
                        .optimStall +=
                        engine->now() - t0;
                    finishTask(t);
                });
            });
        });
    }

    // ---- top level -------------------------------------------------

    void
    allocateStatic()
    {
        for (const auto &stage : part.stages) {
            const int gpu = gpuOf(stage.index);
            NodeState &ns = nsOf(gpu);
            int versions = sched.weightVersions(stage.index);
            if (plan.stashOffloaded(stage.index) && versions > 2) {
                // Older versions live in host memory; the GPU keeps
                // the active version plus the one being consumed.
                ns.host->reserve(stage.paramBytes * (versions - 2));
                ns.savings.gpuCpuSwap +=
                    stage.paramBytes * (versions - 2);
                versions = 2;
            }
            gpuAlloc(gpu, TensorKind::Parameter,
                     stage.paramBytes * versions);
            gpuAlloc(gpu, TensorKind::Gradient, stage.gradBytes);

            bool offload =
                static_cast<std::size_t>(stage.index) <
                    plan.offloadOptState.size() &&
                plan.offloadOptState[static_cast<std::size_t>(
                    stage.index)];
            if (offload) {
                ns.host->reserve(stage.optStateBytes);
                ns.savings.gpuCpuSwap += stage.optStateBytes;
            } else {
                gpuAlloc(gpu, TensorKind::OptimizerState,
                         stage.optStateBytes);
            }
        }
    }

    TrainingReport
    run()
    {
        allocateStatic();
        if (!anyOom()) {
            for (auto &node_state : nodes) {
                NodeState *np = &node_state;
                engine->scheduleOn(np->node, 0, [this, np]() {
                    for (int s = 0; s < sched.numStages; ++s) {
                        if (nodeOfGpu(gpuOf(s)) == np->node)
                            tryAdvance(s);
                    }
                });
            }
            engine->run();
            detectDeadlock();
        }
        finalize();
        return std::move(report);
    }

    /** The event queues drained but work remains: an allocation is
     *  blocked with no free ever coming — memory exhaustion. */
    void
    detectDeadlock()
    {
        if (anyOom())
            return;
        bool complete = true;
        for (int s = 0; s < sched.numStages; ++s) {
            complete &=
                cursor[static_cast<std::size_t>(s)] ==
                    sched.perStageOrder[static_cast<std::size_t>(s)]
                        .size() &&
                !stageBusy[static_cast<std::size_t>(s)];
        }
        if (complete)
            return;
        report.oom = true;
        report.oomTime = engine->now();
        for (std::size_t g = 0; g < allocQueue.size(); ++g) {
            if (!allocQueue[g].empty()) {
                report.oomGpu = static_cast<int>(g);
                break;
            }
        }
    }

    void
    finalize()
    {
        // Merge per-node OOM candidates (earliest wins, ties broken
        // by GPU id) unless detectDeadlock already filled the report.
        if (!report.oom) {
            for (const auto &ns : nodes) {
                if (!ns.oom)
                    continue;
                if (!report.oom || ns.oomTime < report.oomTime ||
                    (ns.oomTime == report.oomTime &&
                     ns.oomGpu < report.oomGpu)) {
                    report.oom = true;
                    report.oomTime = ns.oomTime;
                    report.oomGpu = ns.oomGpu;
                }
            }
        }

        report.makespan = engine->now();

        if (cfg.record) {
            for (auto &ns : nodes) {
                ns.obsData.makespan = report.makespan;
                obs::mergeCounterEvents(ns.obsData, ns.trace);
            }
            if (numNodes == 1) {
                report.trace = std::move(nodes[0].trace);
            } else {
                // Deterministic merge: concatenate per-node streams
                // in node order (the exporters sort by time anyway).
                for (auto &ns : nodes) {
                    for (const auto &sp : ns.trace.spans())
                        report.trace.record(sp.name, sp.category,
                                            sp.lane, sp.start,
                                            sp.end);
                    for (const auto &in : ns.trace.instants())
                        report.trace.recordInstant(in.name,
                                                   in.category,
                                                   in.lane, in.time);
                    for (const auto &ct : ns.trace.counters())
                        report.trace.recordCounter(ct.name, ct.lane,
                                                   ct.time, ct.value);
                }
            }
            for (int g = 0; g < topo.numGpus(); ++g) {
                report.trace.nameLane(
                    g, util::strformat("gpu%d", g));
            }
        }

        for (int g = 0; g < topo.numGpus(); ++g) {
            const auto &mem = *gpuMem[static_cast<std::size_t>(g)];
            GpuMemStats stats;
            stats.gpu = g;
            stats.capacity = topo.gpu().memCapacity;
            if (report.makespan > 0) {
                stats.computeUtilization =
                    static_cast<double>(
                        compute[static_cast<std::size_t>(g)]
                            ->busyTime()) /
                    static_cast<double>(report.makespan);
            }
            stats.peak = mem.peak();
            stats.peakActivations =
                mem.peakByKind(TensorKind::Activation);
            stats.peakParams = mem.peakByKind(TensorKind::Parameter);
            stats.peakGrads = mem.peakByKind(TensorKind::Gradient);
            stats.peakOptState =
                mem.peakByKind(TensorKind::OptimizerState);
            stats.finalUsed = mem.used();
            stats.oom = mem.oomOccurred();
            report.gpus.push_back(stats);
        }
        report.hostPeak = 0;
        for (const auto &ns : nodes)
            report.hostPeak += ns.host->peak();
        report.nvlinkBusyTime = fabric->nvlinkBusyTime();
        report.pcieBusyTime = fabric->pcieBusyTime();
        report.nicBusyTime = fabric->nicBusyTime();

        if (cfg.record) {
            if (numNodes == 1) {
                report.observability = std::move(nodes[0].obsData);
            } else {
                obs::Observability merged;
                merged.makespan = report.makespan;
                for (auto &ns : nodes) {
                    merged.metrics.absorb(
                        ns.obsData.metrics,
                        util::strformat("node%d/", ns.node));
                    for (const auto &ev :
                         ns.obsData.memory.events()) {
                        merged.memory.record(ev.time, ev.gpu,
                                             ev.kind, ev.delta);
                    }
                    for (const auto &ch :
                         ns.obsData.utilization.channels()) {
                        int id = merged.utilization.addChannel(
                            ch.resource, ch.gpu, ch.name);
                        for (const auto &b : ch.intervals)
                            merged.utilization.recordBusy(id, b.start,
                                                          b.end);
                    }
                }
                report.observability = std::move(merged);
            }
        }

        ShardStat st;
        st.events = engine->eventsExecuted();
        st.poolSlots = static_cast<std::uint64_t>(engine->poolSlots());
        st.queuePeak = static_cast<std::uint64_t>(engine->queuePeak());
        report.shardStats.push_back(st);
        report.simWindows = engine->windows();

        for (const auto &ns : nodes) {
            report.savings.recompute += ns.savings.recompute;
            report.savings.gpuCpuSwap += ns.savings.gpuCpuSwap;
            report.savings.d2dSwap += ns.savings.d2dSwap;
            report.d2dOverflow += ns.d2dOverflow;
            report.nvmeSpill += ns.nvmeSpill;
            if (report.faults.enabled) {
                report.faults.degradedTransfers +=
                    ns.faults.degradedTransfers;
                report.faults.transferFailures +=
                    ns.faults.transferFailures;
                report.faults.retries += ns.faults.retries;
                report.faults.fallbackGpuCpuSwap +=
                    ns.faults.fallbackGpuCpuSwap;
                report.faults.fallbackRecompute +=
                    ns.faults.fallbackRecompute;
                report.faults.straggledTasks +=
                    ns.faults.straggledTasks;
                report.faults.hostPressureEvents +=
                    ns.faults.hostPressureEvents;
                report.faults.hostPressurePeak =
                    std::max(report.faults.hostPressurePeak,
                             ns.faults.hostPressurePeak);
            }
        }

        if (report.oom)
            return;

        // Global minibatch completion = latest local OptimStep across
        // nodes (every node saw its own last step; the max is the
        // cluster-wide finish).
        minibatchDone.assign(
            static_cast<std::size_t>(sched.numMinibatches), 0);
        for (const auto &ns : nodes) {
            for (std::size_t k = 0; k < minibatchDone.size(); ++k)
                minibatchDone[k] =
                    std::max(minibatchDone[k], ns.lastOptim[k]);
        }

        const int n = sched.numMinibatches;
        Tick steady;
        if (n > 1) {
            steady = (minibatchDone[static_cast<std::size_t>(n - 1)] -
                      minibatchDone[0]) /
                     static_cast<Tick>(n - 1);
        } else {
            steady = report.makespan;
        }
        if (steady <= 0)
            steady = report.makespan;
        report.steadyIterTime = steady;

        double secs = util::toSeconds(steady);
        double samples_per_mini =
            static_cast<double>(sched.microbatchesPerMinibatch) *
            mdl.microbatchSize();
        report.samplesPerSec = samples_per_mini / secs;

        double flops_per_mini =
            3.0 * mdl.totalFwdFlops() *
            sched.microbatchesPerMinibatch;
        report.tflops = flops_per_mini / secs / 1e12;

        if (report.faults.enabled)
            splitFaultThroughput(samples_per_mini);
    }

    /** Classify each minibatch as healthy or degraded by whether its
     *  window overlapped any scheduled fault event, and report the
     *  throughput of both populations. */
    void
    splitFaultThroughput(double samples_per_mini)
    {
        auto overlaps_fault = [this](Tick s, Tick e) {
            for (const auto &ev : cfg.faults->events) {
                if (ev.start < e && s < ev.end)
                    return true;
            }
            return false;
        };
        Tick healthy_time = 0;
        Tick degraded_time = 0;
        Tick prev = 0;
        for (Tick done : minibatchDone) {
            if (overlaps_fault(prev, done)) {
                ++report.faults.degradedMinibatches;
                degraded_time += done - prev;
            } else {
                ++report.faults.healthyMinibatches;
                healthy_time += done - prev;
            }
            prev = done;
        }
        if (healthy_time > 0) {
            report.faults.healthySamplesPerSec =
                samples_per_mini * report.faults.healthyMinibatches /
                util::toSeconds(healthy_time);
        }
        if (degraded_time > 0) {
            report.faults.degradedSamplesPerSec =
                samples_per_mini *
                report.faults.degradedMinibatches /
                util::toSeconds(degraded_time);
        }
    }
};

} // namespace

TrainingReport
runTraining(const hw::Topology &topo,
            const model::TransformerModel &mdl,
            const partition::Partition &part,
            const pipeline::Schedule &sched,
            const compaction::CompactionPlan &plan,
            ExecutorConfig config)
{
    return TrainingRun(topo, mdl, part, sched, plan, config).run();
}

Bytes
TrainingReport::maxGpuPeak() const
{
    Bytes best = 0;
    for (const auto &g : gpus)
        best = std::max(best, g.peak);
    return best;
}

Bytes
TrainingReport::minGpuPeak() const
{
    if (gpus.empty())
        return 0;
    Bytes best = gpus.front().peak;
    for (const auto &g : gpus) {
        if (g.peak > 0)
            best = std::min(best, g.peak);
    }
    return best;
}

Bytes
TrainingReport::totalGpuPeak() const
{
    Bytes total = 0;
    for (const auto &g : gpus)
        total += g.peak;
    return total;
}

} // namespace runtime
} // namespace mpress
