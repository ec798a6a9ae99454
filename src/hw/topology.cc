#include "hw/topology.hh"

#include "util/logging.hh"
#include "util/strings.hh"

namespace mpress {
namespace hw {

Topology::Topology(std::string name, GpuSpec gpu, int num_gpus)
    : _name(std::move(name)), _gpu(std::move(gpu)), _numGpus(num_gpus),
      _lanes(num_gpus, std::vector<int>(num_gpus, 0)),
      _nvlinkSpec(LinkSpec::nvlink2()),
      _pcieSpec(LinkSpec::pcie3x16()),
      _nvmeSpec(LinkSpec::nvme())
{
    if (num_gpus <= 0)
        util::fatal("topology needs at least one GPU");
}

void
Topology::checkGpu(int idx) const
{
    if (idx < 0 || idx >= _numGpus)
        util::panic("GPU index %d out of range [0, %d)", idx, _numGpus);
}

void
Topology::setNvlinkLanes(int a, int b, int lanes)
{
    checkGpu(a);
    checkGpu(b);
    if (a == b)
        util::panic("cannot connect GPU %d to itself", a);
    if (lanes < 0)
        util::panic("negative lane count");
    _lanes[a][b] = lanes;
    _lanes[b][a] = lanes;
}

void
Topology::setSymmetric(int lanes_per_gpu)
{
    _symmetric = true;
    for (int a = 0; a < _numGpus; ++a) {
        for (int b = 0; b < _numGpus; ++b)
            _lanes[a][b] = (a == b) ? 0 : lanes_per_gpu;
    }
}

void
Topology::setInterNodeFabric(int gpus_per_node, int nics_per_node,
                             const LinkSpec &nic_spec)
{
    if (gpus_per_node <= 0 || _numGpus % gpus_per_node != 0)
        util::panic("gpus_per_node %d does not divide %d GPUs",
                    gpus_per_node, _numGpus);
    if (nics_per_node <= 0)
        util::panic("a node needs at least one NIC");
    _gpusPerNode = gpus_per_node;
    _nicsPerNode = nics_per_node;
    _nicSpec = nic_spec;
    // The intra-node fabric never crosses a node boundary; clear any
    // lanes a prior setSymmetric() filled across it so cross-node
    // paths are NIC-only.
    for (int a = 0; a < _numGpus; ++a) {
        for (int b = 0; b < _numGpus; ++b) {
            if (!sameNode(a, b))
                _lanes[a][b] = 0;
        }
    }
}

int
Topology::numNodes() const
{
    return _gpusPerNode > 0 ? _numGpus / _gpusPerNode : 1;
}

int
Topology::nodeOf(int g) const
{
    checkGpu(g);
    return _gpusPerNode > 0 ? g / _gpusPerNode : 0;
}

int
Topology::pathLanes(int a, int b) const
{
    checkGpu(a);
    checkGpu(b);
    if (a == b)
        return 0;
    if (multiNodeFabric() && !sameNode(a, b))
        return _nicsPerNode;
    return _lanes[a][b];
}

int
Topology::nvlinkLanes(int a, int b) const
{
    checkGpu(a);
    checkGpu(b);
    return _lanes[a][b];
}

int
Topology::totalLanes(int a) const
{
    checkGpu(a);
    if (_symmetric)
        return _gpu.nvlinkPorts;
    int total = 0;
    for (int b = 0; b < _numGpus; ++b)
        total += _lanes[a][b];
    return total;
}

std::vector<int>
Topology::nvlinkNeighbors(int a) const
{
    checkGpu(a);
    std::vector<int> out;
    for (int b = 0; b < _numGpus; ++b) {
        if (b != a && _lanes[a][b] > 0)
            out.push_back(b);
    }
    return out;
}

const LinkSpec &
Topology::linkSpecBetween(int a, int b) const
{
    if (multiNodeFabric() && a != b && !sameNode(a, b))
        return _nicSpec;
    return _nvlinkSpec;
}

Bytes
Topology::totalGpuMemory() const
{
    return _gpu.memCapacity * _numGpus;
}

Topology
Topology::dgx1V100()
{
    Topology t("DGX-1-V100", GpuSpec::v100(), 8);
    // Hybrid cube-mesh of the DGX-1V (Figure 3).  Pairs with two
    // lanes reach 50 GB/s per direction; single-lane pairs 25 GB/s.
    t.setNvlinkLanes(0, 1, 1);
    t.setNvlinkLanes(0, 2, 1);
    t.setNvlinkLanes(0, 3, 2);
    t.setNvlinkLanes(0, 4, 2);
    t.setNvlinkLanes(1, 2, 2);
    t.setNvlinkLanes(1, 3, 1);
    t.setNvlinkLanes(1, 5, 2);
    t.setNvlinkLanes(2, 3, 2);
    t.setNvlinkLanes(2, 6, 1);
    t.setNvlinkLanes(3, 7, 1);
    t.setNvlinkLanes(4, 5, 1);
    t.setNvlinkLanes(4, 6, 1);
    t.setNvlinkLanes(4, 7, 2);
    t.setNvlinkLanes(5, 6, 2);
    t.setNvlinkLanes(5, 7, 1);
    t.setNvlinkLanes(6, 7, 2);
    t.setNvlinkSpec(LinkSpec::nvlink2());
    t.setPcieSpec(LinkSpec::pcie3x16());
    t.setHostMemory(768 * util::kGB);
    t.setNvmeCapacity(0);  // p3dn NVMe not provisioned for swap
    return t;
}

Topology
Topology::dgx1P100()
{
    Topology t("DGX-1-P100", GpuSpec::p100(), 8);
    // Same hybrid cube-mesh shape as the V100 board but with 4
    // NVLink-1 ports per GPU: the four single-lane edges only.
    t.setNvlinkLanes(0, 1, 1);
    t.setNvlinkLanes(0, 2, 1);
    t.setNvlinkLanes(0, 3, 1);
    t.setNvlinkLanes(0, 4, 1);
    t.setNvlinkLanes(1, 2, 1);
    t.setNvlinkLanes(1, 3, 1);
    t.setNvlinkLanes(1, 5, 1);
    t.setNvlinkLanes(2, 3, 1);
    t.setNvlinkLanes(2, 6, 1);
    t.setNvlinkLanes(3, 7, 1);
    t.setNvlinkLanes(4, 5, 1);
    t.setNvlinkLanes(4, 6, 1);
    t.setNvlinkLanes(4, 7, 1);
    t.setNvlinkLanes(5, 6, 1);
    t.setNvlinkLanes(5, 7, 1);
    t.setNvlinkLanes(6, 7, 1);
    t.setNvlinkSpec(LinkSpec::nvlink1());
    t.setPcieSpec(LinkSpec::pcie3x16());
    t.setHostMemory(512 * util::kGB);
    return t;
}

Topology
Topology::hgxH100()
{
    Topology t("HGX-H100", GpuSpec::h100(), 8);
    t.setSymmetric(18);
    t.setNvlinkSpec(LinkSpec::nvlink4());
    t.setPcieSpec(LinkSpec::pcie4x16());
    t.setHostMemory(2000 * util::kGB);
    t.setNvmeCapacity(16000 * util::kGB);
    LinkSpec fast_nvme = LinkSpec::nvme();
    fast_nvme.peak = Bandwidth::fromGBps(25.0);
    t.setNvmeSpec(fast_nvme);
    return t;
}

Topology
Topology::dualA100()
{
    Topology t("Dual-A100", GpuSpec::a100(), 2);
    t.setNvlinkLanes(0, 1, 4);  // NVLink bridge
    t.setNvlinkSpec(LinkSpec::nvswitch3());
    t.setPcieSpec(LinkSpec::pcie4x16());
    t.setHostMemory(256 * util::kGB);
    return t;
}

Topology
Topology::dgx2A100()
{
    Topology t("DGX-2-A100", GpuSpec::a100(), 8);
    // NVSwitch all-to-all fabric: any pair can use up to 12 lanes,
    // bounded by the per-GPU port count tracked by the fabric.
    t.setSymmetric(12);
    t.setNvlinkSpec(LinkSpec::nvswitch3());
    t.setPcieSpec(LinkSpec::pcie4x16());
    t.setHostMemory(948 * util::kGB);
    t.setNvmeCapacity(6000 * util::kGB);
    // The paper notes the rented DGX-2's SSD bandwidth was
    // significantly lower than the DGX-1 generation expectations;
    // model that with a slower NVMe channel.
    LinkSpec slow_nvme = LinkSpec::nvme();
    slow_nvme.peak = Bandwidth::fromGBps(1.6);
    t.setNvmeSpec(slow_nvme);
    return t;
}

Topology
Topology::graceHopperNode(int num_gpus)
{
    Topology t("GraceHopper", GpuSpec::graceHopper(), num_gpus);
    if (num_gpus > 1)
        t.setSymmetric(18);
    t.setNvlinkSpec(LinkSpec::nvswitch3());
    t.setPcieSpec(LinkSpec::c2c());
    t.setHostMemory(static_cast<Bytes>(num_gpus) * 512 * util::kGB);
    t.setNvmeCapacity(8000 * util::kGB);
    return t;
}

Topology
Topology::extractNode(int node) const
{
    const int g = gpusPerNode();
    const int nodes = numNodes();
    if (node < 0 || node >= nodes)
        util::panic("node %d out of range [0, %d)", node, nodes);
    Topology t(util::strformat("%s/node%d", _name.c_str(), node),
               _gpu, g);
    const int base = node * g;
    if (_symmetric) {
        // Per-pair lane caps are uniform inside a node; reuse one.
        t.setSymmetric(g > 1 ? _lanes[base][base + 1] : 0);
    } else {
        for (int a = 0; a < g; ++a) {
            for (int b = a + 1; b < g; ++b) {
                int lanes = _lanes[base + a][base + b];
                if (lanes > 0)
                    t.setNvlinkLanes(a, b, lanes);
            }
        }
    }
    t.setNvlinkSpec(_nvlinkSpec);
    t.setPcieSpec(_pcieSpec);
    t.setNvmeSpec(_nvmeSpec);
    t.setHostMemory(_hostMemory / nodes);
    t.setNvmeCapacity(_nvmeCapacity / nodes);
    return t;
}

} // namespace hw
} // namespace mpress
