#include "hw/fabric.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strings.hh"

namespace mpress {
namespace hw {

namespace {

/** Book @p dur on each of @p lanes in order; returns the latest end
 *  tick, or @p end if that is later. */
Tick
occupyLanes(const std::vector<sim::Stream *> &lanes, Tick dur, Tick end)
{
    for (sim::Stream *lane : lanes)
        end = std::max(end, lane->occupy(dur));
    return end;
}

} // namespace

Tick
Fabric::lookaheadFor(const Topology &topo)
{
    if (!topo.multiNodeFabric())
        return 0;
    // A cross-node effect is delayed by at least the NIC launch
    // latency.  Clamp to one tick, the least lookahead a partitioned
    // engine takes, even with a degenerate zero-latency NIC spec.
    return std::max<Tick>(topo.nicSpec().latency, 1);
}

Fabric::Fabric(sim::Engine &engine, const Topology &topo)
    : _engine(engine), _topo(topo), _lookahead(lookaheadFor(topo))
{
    _engine.partition(topo.numNodes(), _lookahead);
    build();
}

void
Fabric::build()
{
    const int n = _topo.numGpus();

    if (_topo.symmetric()) {
        _egress.resize(n);
        _ingress.resize(n);
        const int ports = _topo.gpu().nvlinkPorts;
        for (int g = 0; g < n; ++g) {
            for (int p = 0; p < ports; ++p) {
                _egress[g].lanes.push_back(std::make_unique<sim::Stream>(
                    _engine, util::strformat("gpu%d.out%d", g, p)));
                _ingress[g].lanes.push_back(std::make_unique<sim::Stream>(
                    _engine, util::strformat("gpu%d.in%d", g, p)));
            }
        }
    } else {
        for (int a = 0; a < n; ++a) {
            for (int b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                int lanes = _topo.nvlinkLanes(a, b);
                if (lanes == 0)
                    continue;
                LanePool pool;
                for (int l = 0; l < lanes; ++l) {
                    pool.lanes.push_back(std::make_unique<sim::Stream>(
                        _engine,
                        util::strformat("nv%d-%d.%d", a, b, l)));
                }
                _pairLanes.emplace(std::make_pair(a, b),
                                   std::move(pool));
            }
        }
    }

    if (_topo.multiNodeFabric()) {
        const int nodes = _topo.numNodes();
        const int nics = _topo.nicsPerNode();
        _nicOut.resize(nodes);
        _nicIn.resize(nodes);
        for (int nd = 0; nd < nodes; ++nd) {
            for (int c = 0; c < nics; ++c) {
                _nicOut[nd].lanes.push_back(
                    std::make_unique<sim::Stream>(
                        _engine,
                        util::strformat("node%d.nic%d.out", nd, c)));
                _nicIn[nd].lanes.push_back(
                    std::make_unique<sim::Stream>(
                        _engine,
                        util::strformat("node%d.nic%d.in", nd, c)));
            }
        }
    }

    for (int g = 0; g < n; ++g) {
        _pcieDown.push_back(std::make_unique<sim::Stream>(
            _engine, util::strformat("pcie%d.d2h", g)));
        _pcieUp.push_back(std::make_unique<sim::Stream>(
            _engine, util::strformat("pcie%d.h2d", g)));
    }
    const int nodes = _topo.numNodes();
    for (int nd = 0; nd < nodes; ++nd) {
        // Single-node keeps the historical channel names.
        std::string wr = nodes == 1
                             ? std::string("nvme.write")
                             : util::strformat("node%d.nvme.write", nd);
        std::string rd = nodes == 1
                             ? std::string("nvme.read")
                             : util::strformat("node%d.nvme.read", nd);
        _nvmeWrite.push_back(
            std::make_unique<sim::Stream>(_engine, std::move(wr)));
        _nvmeRead.push_back(
            std::make_unique<sim::Stream>(_engine, std::move(rd)));
    }
}

void
Fabric::pickLanes(const LanePool &pool, int k,
                  std::vector<sim::Stream *> &picked)
{
    // Insertion sort: stable, in place, and cheap for a pool's few
    // lanes (a GPU's ports, a GPU pair's links or a node's NICs).
    picked.clear();
    for (const auto &lane : pool.lanes) {
        sim::Stream *s = lane.get();
        std::size_t i = picked.size();
        picked.push_back(s);
        while (i > 0 && s->busyUntil() < picked[i - 1]->busyUntil()) {
            picked[i] = picked[i - 1];
            --i;
        }
        picked[i] = s;
    }
    if (static_cast<int>(picked.size()) > k)
        picked.resize(static_cast<std::size_t>(k));
}

Tick
Fabric::shaped(FabricResource res, int node, int a, int b, Bytes bytes,
               Tick dur) const
{
    if (!_shaper)
        return dur;
    Tick out = _shaper(res, node, a, b, bytes, dur);
    return out < 0 ? dur : out;
}

void
Fabric::stripedTransfer(FabricResource res, int src, int dst,
                        const std::vector<sim::Stream *> &out_lanes,
                        const std::vector<sim::Stream *> &in_lanes,
                        const LinkSpec &spec, Bytes bytes, Done done)
{
    const int k = static_cast<int>(out_lanes.size());
    if (k == 0) {
        util::panic("striped transfer with no lanes");
    }
    Bytes per_lane = (bytes + k - 1) / k;
    Tick dur = shaped(res, _topo.nodeOf(src), src, dst, bytes,
                      spec.transferTime(per_lane));

    // The transfer completes when every occupied lane finishes.  The
    // ingress side (switch fabrics) is occupied for the same duration.
    // Every lane is booked now, at issue time, and one engine event
    // at the latest lane end runs done.  That is byte-identical to
    // one event per lane joined by a counter: those lane events only
    // counted down, and done ran inside the last of them to fire —
    // the latest end tick, ties going to the lane booked last.  They
    // all took consecutive sequence numbers inside this call, so one
    // event scheduled here at that tick keeps the same place in the
    // engine's (tick, seq) order relative to every other event.  An
    // empty done still gets its event: a run's makespan is its
    // engine's final now().
    Tick end = occupyLanes(out_lanes, dur, 0);
    end = occupyLanes(in_lanes, dur, end);
    _engine.schedule(end, std::move(done));
}

void
Fabric::ingressLeg(const std::shared_ptr<CrossXfer> &xfer)
{
    const int dst_node = _topo.nodeOf(xfer->dst);
    pickLanes(_nicIn[dst_node], xfer->lanes, _pickIn);
    Tick dur = shaped(FabricResource::NicIngress, dst_node, xfer->src,
                      xfer->dst, xfer->bytes, xfer->wire);
    // One event per leg, for the reason given in stripedTransfer().
    _engine.schedule(occupyLanes(_pickIn, dur, 0),
                     std::move(xfer->done));
}

void
Fabric::crossNodeTransfer(int src, int dst, Bytes bytes, int lanes,
                          Done done)
{
    // Store-and-forward two-leg model: the payload occupies the
    // source node's egress NICs for one wire time, crosses the node
    // boundary as a message delayed by the NIC launch latency (the
    // engine's lookahead), then occupies the destination node's
    // ingress NICs for another wire time.  Each leg is shaped on its
    // own node, and the completion fires on the destination node —
    // no instantaneous cross-node side effects.
    const int src_node = _topo.nodeOf(src);
    const int dst_node = _topo.nodeOf(dst);
    const LinkSpec &spec = _topo.nicSpec();
    Bytes per_lane = (bytes + lanes - 1) / lanes;
    Tick wire = spec.transferTime(per_lane) - spec.latency;
    if (wire < 0)
        wire = 0;

    auto xfer = std::make_shared<CrossXfer>();
    xfer->fab = this;
    xfer->src = src;
    xfer->dst = dst;
    xfer->lanes = lanes;
    xfer->bytes = bytes;
    xfer->wire = wire;
    xfer->done = std::move(done);

    pickLanes(_nicOut[src_node], lanes, _pickOut);
    Tick out_dur = shaped(FabricResource::NicEgress, src_node, src,
                          dst, bytes, wire);
    const Tick out_end = occupyLanes(_pickOut, out_dur, 0);
    _engine.schedule(out_end, [xfer, dst_node] {
        xfer->fab->_engine.post(
            dst_node, [xfer] { xfer->fab->ingressLeg(xfer); });
    });
}

void
Fabric::d2dTransfer(int src, int dst, Bytes bytes, int lanes, Done done)
{
    int avail = lanesBetween(src, dst);
    if (avail == 0) {
        util::panic("no NVLink path between GPU %d and GPU %d",
                    src, dst);
    }
    if (lanes <= 0 || lanes > avail)
        lanes = avail;

    if (_topo.multiNodeFabric() && !_topo.sameNode(src, dst)) {
        // Cross-node: two NIC legs joined by a latency-delayed
        // message.  The pools are per node, not per GPU, so every
        // concurrent cross-node transfer of a node queues on the
        // same NICs.
        crossNodeTransfer(src, dst, bytes, lanes, std::move(done));
    } else if (_topo.symmetric()) {
        pickLanes(_egress[src], lanes, _pickOut);
        pickLanes(_ingress[dst], lanes, _pickIn);
        stripedTransfer(FabricResource::NvlinkEgress, src, dst,
                        _pickOut, _pickIn, _topo.nvlinkSpec(), bytes,
                        std::move(done));
    } else {
        auto it = _pairLanes.find({src, dst});
        pickLanes(it->second, lanes, _pickOut);
        _pickIn.clear();
        stripedTransfer(FabricResource::NvlinkEgress, src, dst,
                        _pickOut, _pickIn,
                        _topo.linkSpecBetween(src, dst), bytes,
                        std::move(done));
    }
}

void
Fabric::gpuToHost(int gpu, Bytes bytes, Done done)
{
    Tick dur = shaped(FabricResource::PcieD2H, _topo.nodeOf(gpu), gpu,
                      -1, bytes, _topo.pcieSpec().transferTime(bytes));
    _pcieDown[gpu]->submit(dur, [cb = std::move(done)](Tick, Tick) mutable {
        if (cb)
            cb();
    });
}

void
Fabric::hostToGpu(int gpu, Bytes bytes, Done done)
{
    Tick dur = shaped(FabricResource::PcieH2D, _topo.nodeOf(gpu), gpu,
                      -1, bytes, _topo.pcieSpec().transferTime(bytes));
    _pcieUp[gpu]->submit(dur, [cb = std::move(done)](Tick, Tick) mutable {
        if (cb)
            cb();
    });
}

void
Fabric::hostToNvme(int node, Bytes bytes, Done done)
{
    Tick dur = shaped(FabricResource::NvmeWrite, node, -1, -1, bytes,
                      _topo.nvmeSpec().transferTime(bytes));
    _nvmeWrite[node]->submit(dur,
                             [cb = std::move(done)](Tick, Tick) mutable {
                                 if (cb)
                                     cb();
                             });
}

void
Fabric::nvmeToHost(int node, Bytes bytes, Done done)
{
    Tick dur = shaped(FabricResource::NvmeRead, node, -1, -1, bytes,
                      _topo.nvmeSpec().transferTime(bytes));
    _nvmeRead[node]->submit(dur,
                            [cb = std::move(done)](Tick, Tick) mutable {
                                if (cb)
                                    cb();
                            });
}

Tick
Fabric::estimateD2d(int src, int dst, Bytes bytes, int lanes) const
{
    int avail = lanesBetween(src, dst);
    if (avail == 0)
        return -1;
    if (lanes <= 0 || lanes > avail)
        lanes = avail;
    Bytes per_lane = (bytes + lanes - 1) / lanes;
    if (_topo.multiNodeFabric() && !_topo.sameNode(src, dst)) {
        // Two-leg store-and-forward pricing, matching
        // crossNodeTransfer exactly.
        const LinkSpec &spec = _topo.nicSpec();
        Tick wire = spec.transferTime(per_lane) - spec.latency;
        if (wire < 0)
            wire = 0;
        return _lookahead + 2 * wire;
    }
    return _topo.linkSpecBetween(src, dst).transferTime(per_lane);
}

Tick
Fabric::estimatePcie(Bytes bytes) const
{
    return _topo.pcieSpec().transferTime(bytes);
}

Tick
Fabric::estimateNvme(Bytes bytes) const
{
    return _topo.nvmeSpec().transferTime(bytes);
}

int
Fabric::lanesBetween(int src, int dst) const
{
    if (src == dst)
        return 0;
    return _topo.pathLanes(src, dst);
}

Tick
Fabric::nvlinkBusyTime() const
{
    Tick total = 0;
    for (const auto &[key, pool] : _pairLanes) {
        for (const auto &lane : pool.lanes)
            total += lane->busyTime();
    }
    // Switch fabrics occupy an egress port on the source and an
    // ingress port on the destination for every stripe; both are real
    // lane-seconds.  Pair-lane (mesh) fabrics keep these pools empty,
    // so nothing is double-counted.
    for (const auto &pool : _egress) {
        for (const auto &lane : pool.lanes)
            total += lane->busyTime();
    }
    for (const auto &pool : _ingress) {
        for (const auto &lane : pool.lanes)
            total += lane->busyTime();
    }
    return total;
}

Tick
Fabric::pcieBusyTime() const
{
    Tick total = 0;
    for (const auto &lane : _pcieDown)
        total += lane->busyTime();
    for (const auto &lane : _pcieUp)
        total += lane->busyTime();
    return total;
}

Tick
Fabric::nicBusyTime() const
{
    Tick total = 0;
    for (const auto &pool : _nicOut) {
        for (const auto &lane : pool.lanes)
            total += lane->busyTime();
    }
    for (const auto &pool : _nicIn) {
        for (const auto &lane : pool.lanes)
            total += lane->busyTime();
    }
    return total;
}

void
Fabric::visitStreams(const StreamVisitor &fn)
{
    for (auto &[key, pool] : _pairLanes) {
        for (auto &lane : pool.lanes)
            fn(FabricResource::NvlinkEgress, _topo.nodeOf(key.first),
               key.first, *lane);
    }
    for (std::size_t g = 0; g < _egress.size(); ++g) {
        for (auto &lane : _egress[g].lanes)
            fn(FabricResource::NvlinkEgress,
               _topo.nodeOf(static_cast<int>(g)), static_cast<int>(g),
               *lane);
    }
    for (std::size_t g = 0; g < _ingress.size(); ++g) {
        for (auto &lane : _ingress[g].lanes)
            fn(FabricResource::NvlinkIngress,
               _topo.nodeOf(static_cast<int>(g)), static_cast<int>(g),
               *lane);
    }
    // NIC pools are owned by a node, not a GPU; the owner index is
    // the node id.
    for (std::size_t nd = 0; nd < _nicOut.size(); ++nd) {
        for (auto &lane : _nicOut[nd].lanes)
            fn(FabricResource::NicEgress, static_cast<int>(nd),
               static_cast<int>(nd), *lane);
    }
    for (std::size_t nd = 0; nd < _nicIn.size(); ++nd) {
        for (auto &lane : _nicIn[nd].lanes)
            fn(FabricResource::NicIngress, static_cast<int>(nd),
               static_cast<int>(nd), *lane);
    }
    for (std::size_t g = 0; g < _pcieDown.size(); ++g)
        fn(FabricResource::PcieD2H,
           _topo.nodeOf(static_cast<int>(g)), static_cast<int>(g),
           *_pcieDown[g]);
    for (std::size_t g = 0; g < _pcieUp.size(); ++g)
        fn(FabricResource::PcieH2D,
           _topo.nodeOf(static_cast<int>(g)), static_cast<int>(g),
           *_pcieUp[g]);
    for (std::size_t nd = 0; nd < _nvmeWrite.size(); ++nd)
        fn(FabricResource::NvmeWrite, static_cast<int>(nd), -1,
           *_nvmeWrite[nd]);
    for (std::size_t nd = 0; nd < _nvmeRead.size(); ++nd)
        fn(FabricResource::NvmeRead, static_cast<int>(nd), -1,
           *_nvmeRead[nd]);
}

void
Fabric::reset()
{
    _shaper = TransferShaper();
    for (auto &[key, pool] : _pairLanes) {
        for (auto &lane : pool.lanes)
            lane->reset();
    }
    for (auto *pools : {&_egress, &_ingress, &_nicOut, &_nicIn}) {
        for (auto &pool : *pools) {
            for (auto &lane : pool.lanes)
                lane->reset();
        }
    }
    for (auto &lane : _pcieDown)
        lane->reset();
    for (auto &lane : _pcieUp)
        lane->reset();
    for (auto &lane : _nvmeWrite)
        lane->reset();
    for (auto &lane : _nvmeRead)
        lane->reset();
}

void
Fabric::shrink()
{
    for (auto &[key, pool] : _pairLanes) {
        for (auto &lane : pool.lanes)
            lane->shrink();
    }
    for (auto *pools : {&_egress, &_ingress, &_nicOut, &_nicIn}) {
        for (auto &pool : *pools) {
            for (auto &lane : pool.lanes)
                lane->shrink();
        }
    }
    for (auto &lane : _pcieDown)
        lane->shrink();
    for (auto &lane : _pcieUp)
        lane->shrink();
    for (auto &lane : _nvmeWrite)
        lane->shrink();
    for (auto &lane : _nvmeRead)
        lane->shrink();
}

} // namespace hw
} // namespace mpress
