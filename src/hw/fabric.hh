/**
 * @file
 * The simulated interconnect fabric: executes D2D (NVLink), GPU-host
 * (PCIe/C2C) and host-NVMe transfers on the discrete-event engine with
 * real lane occupancy, so that contention and compute/transfer overlap
 * emerge from the simulation rather than being assumed.
 *
 * Lanes are modelled as in-order streams.  A transfer striped over k
 * lanes places bytes/k on each lane and completes when the slowest
 * lane finishes — exactly the data-striping execution model of
 * Sec. III-C.  Every lane is booked when the transfer is issued, so
 * the slowest lane's end is known then: the transfer (each NIC leg of
 * a cross-node one) costs a single engine event, not one per lane.
 *
 * A multi-node fabric partitions its engine by node, with the NIC
 * launch latency as the lookahead (sim::Engine::partition()).  A
 * cross-node transfer runs as two legs: wire time on the source
 * node's egress NICs, a message that lands one lookahead later
 * (sim::Engine::post()), then wire time on the destination node's
 * ingress NICs.
 */

#ifndef MPRESS_HW_FABRIC_HH
#define MPRESS_HW_FABRIC_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "hw/topology.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"

namespace mpress {
namespace hw {

/** Classification of a fabric lane stream, for observability. */
enum class FabricResource
{
    NvlinkEgress,  ///< NVLink lane leaving a GPU (pair lanes too)
    NvlinkIngress, ///< NVLink switch-port lane entering a GPU
    PcieH2D,       ///< host-to-device PCIe copy engine
    PcieD2H,       ///< device-to-host PCIe copy engine
    NvmeWrite,
    NvmeRead,
    NicEgress,     ///< inter-node NIC leaving a node
    NicIngress,    ///< inter-node NIC entering a node
};

/** Runtime transfer engine bound to one Topology and one Engine. */
class Fabric
{
  public:
    /** Per-transfer completion; shares the engine's inline-callable
     *  type so it moves into the transfer's one engine event without
     *  a wrap. */
    using Done = sim::EventFn;

    /** Visitor over fabric streams:
     *  (class, owning node, owning GPU or -1, lane). */
    using StreamVisitor =
        std::function<void(FabricResource, int, int, sim::Stream &)>;

    /**
     * Hook shaping the duration of every transfer as it is issued:
     * (resource, node, endpoint a, endpoint b, bytes, nominal
     * duration) -> effective duration.  @p node is the node that
     * executes the shaped leg — the fault layer routes the query to
     * that node's injector.  NVLink passes the (src, dst)
     * GPU pair, PCIe passes (gpu, -1), NVMe passes (-1, -1), NIC legs
     * pass the (src, dst) GPU pair with the leg's node.
     */
    using TransferShaper =
        std::function<Tick(FabricResource, int, int, int, Bytes, Tick)>;

    /** Every stream binds to @p engine, which is partitioned into
     *  topo.numNodes() nodes with lookaheadFor(topo). */
    Fabric(sim::Engine &engine, const Topology &topo);

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /** The conservative lookahead the two-leg NIC model guarantees:
     *  no cross-node effect lands sooner than this many ticks after
     *  the event that caused it (0 for single-node topologies). */
    static Tick lookaheadFor(const Topology &topo);

    /**
     * Move @p bytes from GPU @p src to GPU @p dst striped over
     * @p lanes NVLink lanes.  @p lanes is clamped to the lanes
     * available between the pair.  Fires @p done when the slowest
     * stripe lands.  Passing lanes <= 0 uses all available lanes.
     * For cross-node pairs @p done fires on the destination node.
     */
    void d2dTransfer(int src, int dst, Bytes bytes, int lanes,
                     Done done);

    /** GPU -> host over the GPU's PCIe down-link. */
    void gpuToHost(int gpu, Bytes bytes, Done done);

    /** Host -> GPU over the GPU's PCIe up-link. */
    void hostToGpu(int gpu, Bytes bytes, Done done);

    /** Host memory -> NVMe on @p node's channel. */
    void hostToNvme(int node, Bytes bytes, Done done);

    /** NVMe -> host memory on @p node's channel. */
    void nvmeToHost(int node, Bytes bytes, Done done);

    /**
     * Uncontended D2D latency estimate matching the executed striping
     * math; the tests' reference for the executed transfer.
     * Cross-node pairs price the two-leg model: lookahead + 2x
     * per-leg wire time.
     */
    Tick estimateD2d(int src, int dst, Bytes bytes, int lanes) const;

    /** Uncontended PCIe one-way estimate. */
    Tick estimatePcie(Bytes bytes) const;

    /** Uncontended NVMe one-way estimate. */
    Tick estimateNvme(Bytes bytes) const;

    /** Lanes available between @p src and @p dst: direct NVLink
     *  within a node, the node NIC count across nodes. */
    int lanesBetween(int src, int dst) const;

    /** Accumulated busy time over all NVLink lanes (for stats).
     *  On switch fabrics both the egress and ingress port occupancy
     *  count — a transfer holds ports on both sides. */
    Tick nvlinkBusyTime() const;

    /** Accumulated busy time over all PCIe engines, both
     *  directions (for stats). */
    Tick pcieBusyTime() const;

    /** Accumulated busy time over all inter-node NICs, both
     *  directions (for stats; 0 on single-node fabrics). */
    Tick nicBusyTime() const;

    /**
     * Visit every lane stream with its resource class, owning node
     * and owning GPU (-1 for the per-node NVMe channels and NIC
     * pools, whose owner is the node itself).  The observability
     * layer uses this to attach per-stream utilization recording.
     */
    void visitStreams(const StreamVisitor &fn);

    /** Install @p shaper (empty resets to nominal durations). */
    void setTransferShaper(TransferShaper shaper)
    {
        _shaper = std::move(shaper);
    }

    /**
     * Return every lane stream to its just-constructed state and drop
     * the shaper, keeping all pools allocated: arena reuse across
     * planner trials.  The caller must reset the engine first (see
     * sim::Stream::reset()).
     */
    void reset();

    /** Release every stream's retained ring storage (after reset()):
     *  the arena high-water policy's fabric leg. */
    void shrink();

    const Topology &topology() const { return _topo; }

  private:
    /** Lane pool shared by transfers in one direction of a resource. */
    struct LanePool
    {
        std::vector<std::unique_ptr<sim::Stream>> lanes;
    };

    /** Shared state of an in-flight cross-node two-leg transfer. */
    struct CrossXfer
    {
        Fabric *fab = nullptr;
        int src = 0;
        int dst = 0;
        int lanes = 0;
        Bytes bytes = 0;
        Tick wire = 0;  ///< nominal per-leg wire time
        Done done;
    };

    /** Write the @p k least-busy lanes of @p pool into @p picked, in
     *  the order a stable sort by busyUntil() gives (ties keep pool
     *  order).  @p picked is fabric-owned scratch, so a pick
     *  allocates nothing once it has held a whole pool. */
    static void pickLanes(const LanePool &pool, int k,
                          std::vector<sim::Stream *> &picked);

    void build();

    void stripedTransfer(FabricResource res, int src, int dst,
                         const std::vector<sim::Stream *> &out_lanes,
                         const std::vector<sim::Stream *> &in_lanes,
                         const LinkSpec &spec, Bytes bytes, Done done);

    void crossNodeTransfer(int src, int dst, Bytes bytes, int lanes,
                           Done done);
    void ingressLeg(const std::shared_ptr<CrossXfer> &xfer);

    /** Apply the installed shaper (if any) to a nominal duration. */
    Tick shaped(FabricResource res, int node, int a, int b,
                Bytes bytes, Tick dur) const;

    sim::Engine &_engine;
    const Topology &_topo;
    Tick _lookahead = 0;  ///< cross-node message delay (multi-node)
    TransferShaper _shaper;

    // Asymmetric fabrics: per ordered pair (src,dst) a pool with one
    // stream per physical lane.
    std::map<std::pair<int, int>, LanePool> _pairLanes;

    // Symmetric fabrics: per-GPU egress and ingress port pools.
    std::vector<LanePool> _egress;
    std::vector<LanePool> _ingress;

    // Multi-node fabrics: per-node NIC pools, one stream per NIC and
    // direction.  Every cross-node transfer leaving a node occupies
    // that node's egress NICs, so concurrent cross-node traffic of
    // one node contends here — the shared-NIC bottleneck.
    std::vector<LanePool> _nicOut;
    std::vector<LanePool> _nicIn;

    // Per-GPU, per-direction PCIe engines.  Real GPUs expose separate
    // H2D and D2H DMA copy engines, so a swap-out streams concurrently
    // with a swap-in on the same device — the full-duplex overlap the
    // paper's swap pipelining (Sec. III-B) depends on.  Traffic in one
    // direction still serializes on its engine, which is what keeps
    // stand-alone GPU-CPU swap as expensive as Sec. II-D measures.
    std::vector<std::unique_ptr<sim::Stream>> _pcieDown;  ///< D2H
    std::vector<std::unique_ptr<sim::Stream>> _pcieUp;    ///< H2D

    // One NVMe channel pair per node (a node swaps to its own SSDs).
    std::vector<std::unique_ptr<sim::Stream>> _nvmeWrite;
    std::vector<std::unique_ptr<sim::Stream>> _nvmeRead;

    /** pickLanes() output for the sending and the receiving side of
     *  one transfer; each is consumed before the next pick. */
    std::vector<sim::Stream *> _pickOut;
    std::vector<sim::Stream *> _pickIn;
};

} // namespace hw
} // namespace mpress

#endif // MPRESS_HW_FABRIC_HH
