/**
 * @file
 * Server topology description: GPUs, the NVLink adjacency between
 * them, PCIe host links, host memory and NVMe storage.
 *
 * Two stock builders replicate the paper's testbeds:
 *   - dgx1V100(): 8x V100, asymmetric hybrid cube-mesh NVLink 2.0
 *     (Figure 3; GPU pairs have 0, 1 or 2 lanes).
 *   - dgx2A100(): 8x A100 behind NVSwitch, symmetric all-to-all.
 */

#ifndef MPRESS_HW_TOPOLOGY_HH
#define MPRESS_HW_TOPOLOGY_HH

#include <string>
#include <vector>

#include "hw/gpu.hh"
#include "hw/link.hh"

namespace mpress {
namespace hw {

/**
 * A single multi-GPU server.
 *
 * The NVLink fabric is described by a per-pair lane-count matrix.  For
 * switch-based (symmetric) servers the matrix is full and the
 * @ref symmetric flag is set, which the device mapper uses to skip its
 * mapping search (Sec. III-C).
 */
class Topology
{
  public:
    /**
     * @param name      display name of the server
     * @param gpu       spec shared by all GPUs
     * @param num_gpus  number of GPUs
     */
    Topology(std::string name, GpuSpec gpu, int num_gpus);

    /** Declare @p lanes NVLink lanes between @p a and @p b (both
     *  directions). Replaces any previous declaration for the pair. */
    void setNvlinkLanes(int a, int b, int lanes);

    /** Mark the fabric as switch-based symmetric with @p lanes usable
     *  lanes per GPU port (fills the lane matrix implicitly). */
    void setSymmetric(int lanes_per_gpu);

    const std::string &name() const { return _name; }
    const GpuSpec &gpu() const { return _gpu; }
    int numGpus() const { return _numGpus; }
    bool symmetric() const { return _symmetric; }

    /**
     * Declare this server to really be a cluster of equal-sized
     * nodes joined by an inter-node NIC tier: GPUs [0, gpn) form
     * node 0, [gpn, 2*gpn) node 1, and so on.  Any NVLink lanes
     * previously declared across a node boundary are cleared (the
     * intra-node fabric never spans nodes), and every cross-node GPU
     * pair is instead reachable over the owning nodes' NICs:
     * pathLanes() reports @p nics_per_node lanes and
     * linkSpecBetween() reports @p nic_spec for such pairs.  All
     * cross-node traffic of one node contends for that node's NIC
     * lanes (shared-NIC contention), which the Fabric models with
     * per-node NIC lane pools.
     */
    void setInterNodeFabric(int gpus_per_node, int nics_per_node,
                            const LinkSpec &nic_spec);

    /** Nodes in the cluster (1 for a single server). */
    int numNodes() const;

    /** GPUs per node (numGpus() for a single server). */
    int gpusPerNode() const
    {
        return _gpusPerNode > 0 ? _gpusPerNode : _numGpus;
    }

    /** Node owning GPU @p g. */
    int nodeOf(int g) const;

    /** True when @p a and @p b sit in the same node. */
    bool sameNode(int a, int b) const
    {
        return nodeOf(a) == nodeOf(b);
    }

    /** True when an inter-node fabric was declared and the cluster
     *  actually spans more than one node. */
    bool multiNodeFabric() const
    {
        return _gpusPerNode > 0 && _gpusPerNode < _numGpus;
    }

    /** NICs per node of the inter-node fabric (0 when single-node). */
    int nicsPerNode() const { return _nicsPerNode; }

    /** Per-NIC link spec of the inter-node fabric. */
    const LinkSpec &nicSpec() const { return _nicSpec; }

    /**
     * Lanes usable for a direct GPU-to-GPU path between @p a and
     * @p b: NVLink lanes within a node, the node NIC count across a
     * node boundary (0 when no inter-node fabric is declared).  The
     * striping planner, the mapper and the executor all route
     * through this, so cross-node donors work exactly like NVLink
     * donors — just over fewer, slower lanes.
     */
    int pathLanes(int a, int b) const;

    /** NVLink lanes directly connecting @p a and @p b (0 if none).
     *  For symmetric fabrics this is the per-pair usable lane cap. */
    int nvlinkLanes(int a, int b) const;

    /** Total NVLink lanes on GPU @p a (its port count in use). */
    int totalLanes(int a) const;

    /** GPUs reachable from @p a over at least one NVLink lane. */
    std::vector<int> nvlinkNeighbors(int a) const;

    /** Per-lane GPU-GPU link spec. */
    const LinkSpec &nvlinkSpec() const { return _nvlinkSpec; }
    void setNvlinkSpec(const LinkSpec &spec) { _nvlinkSpec = spec; }

    /** Per-lane spec between @p a and @p b: the NIC spec for
     *  cross-node pairs of a multi-node fabric, the fabric-wide
     *  NVLink spec otherwise. */
    const LinkSpec &linkSpecBetween(int a, int b) const;

    /** GPU<->host PCIe spec (per GPU). */
    const LinkSpec &pcieSpec() const { return _pcieSpec; }
    void setPcieSpec(const LinkSpec &spec) { _pcieSpec = spec; }

    /** Host<->NVMe channel spec. */
    const LinkSpec &nvmeSpec() const { return _nvmeSpec; }
    void setNvmeSpec(const LinkSpec &spec) { _nvmeSpec = spec; }

    Bytes hostMemory() const { return _hostMemory; }
    void setHostMemory(Bytes bytes) { _hostMemory = bytes; }

    Bytes nvmeCapacity() const { return _nvmeCapacity; }
    void setNvmeCapacity(Bytes bytes) { _nvmeCapacity = bytes; }

    /** Total GPU memory of the server. */
    Bytes totalGpuMemory() const;

    /** The paper's DGX-1 testbed (AWS p3dn.24xlarge equivalent). */
    static Topology dgx1V100();

    /** First-generation DGX-1 with P100s and NVLink 1.0 (the 2016
     *  hardware Sec. II-E opens with). */
    static Topology dgx1P100();

    /** HGX-H100 8-GPU baseboard: NVLink 4 through NVSwitch. */
    static Topology hgxH100();

    /** Two-GPU workstation: a pair of A100s joined by an NVLink
     *  bridge, no switch. */
    static Topology dualA100();

    /** The paper's DGX-2 generation testbed (8x A100, NVSwitch). */
    static Topology dgx2A100();

    /** Section V projection: Grace-Hopper node (NVLink-C2C host). */
    static Topology graceHopperNode(int num_gpus);

    /**
     * The single-node topology of one node of this cluster: the
     * intra-node lane matrix, link specs and per-node host/NVMe
     * shares, without the inter-node fabric.  For a single server
     * this is a plain copy.  The hierarchical mapper searches
     * per-node placements on this view.
     */
    Topology extractNode(int node) const;

  private:
    void checkGpu(int idx) const;

    std::string _name;
    GpuSpec _gpu;
    int _numGpus;
    bool _symmetric = false;
    std::vector<std::vector<int>> _lanes;
    int _gpusPerNode = 0;   ///< 0 = single server
    int _nicsPerNode = 0;
    LinkSpec _nicSpec;
    LinkSpec _nvlinkSpec;
    LinkSpec _pcieSpec;
    LinkSpec _nvmeSpec;
    Bytes _hostMemory = 0;
    Bytes _nvmeCapacity = 0;
};

} // namespace hw
} // namespace mpress

#endif // MPRESS_HW_TOPOLOGY_HH
