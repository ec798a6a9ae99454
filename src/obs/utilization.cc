#include "obs/utilization.hh"

namespace mpress {
namespace obs {

const char *
resourceName(Resource r)
{
    switch (r) {
      case Resource::Compute:
        return "compute";
      case Resource::NvlinkEgress:
        return "nvlink.egress";
      case Resource::NvlinkIngress:
        return "nvlink.ingress";
      case Resource::PcieH2D:
        return "pcie.h2d";
      case Resource::PcieD2H:
        return "pcie.d2h";
      case Resource::NvmeWrite:
        return "nvme.write";
      case Resource::NvmeRead:
        return "nvme.read";
      case Resource::NicEgress:
        return "nic.egress";
      case Resource::NicIngress:
        return "nic.ingress";
    }
    return "?";
}

int
UtilizationRecorder::addChannel(Resource res, int gpu,
                                std::string name)
{
    int id = static_cast<int>(_channels.size());
    _channels.push_back({res, gpu, std::move(name), 0, {}});
    return id;
}

void
UtilizationRecorder::recordBusy(int channel, Tick start, Tick end)
{
    auto &ch = _channels[static_cast<std::size_t>(channel)];
    ch.busy += end - start;
    if (end > start)
        ch.intervals.push_back({start, end});
}

void
UtilizationRecorder::attach(sim::Stream &stream, Resource res,
                            int gpu)
{
    int id = addChannel(res, gpu, std::string(stream.name()));
    stream.setTaskHook([this, id](Tick start, Tick end) {
        recordBusy(id, start, end);
    });
}

Tick
UtilizationRecorder::busyTime(Resource res) const
{
    Tick total = 0;
    for (const auto &ch : _channels) {
        if (ch.resource == res)
            total += ch.busy;
    }
    return total;
}

Tick
UtilizationRecorder::busyTime(Resource res, int gpu) const
{
    Tick total = 0;
    for (const auto &ch : _channels) {
        if (ch.resource == res && ch.gpu == gpu)
            total += ch.busy;
    }
    return total;
}

} // namespace obs
} // namespace mpress
