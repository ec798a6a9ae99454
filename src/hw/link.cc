#include "hw/link.hh"

namespace mpress {
namespace hw {

LinkSpec
LinkSpec::nvlink1()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(20.0);
    s.rampBytes = 4 * util::kMiB;
    s.latency = 10 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::nvlink2()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(25.0);
    s.rampBytes = 4 * util::kMiB;
    s.latency = 10 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::nvswitch3()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(25.0);
    s.rampBytes = 4 * util::kMiB;
    s.latency = 12 * util::kUsec;  // one switch hop
    return s;
}

LinkSpec
LinkSpec::nvlink4()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(50.0);
    s.rampBytes = 4 * util::kMiB;
    s.latency = 10 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::pcie3x16()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(11.7);
    s.rampBytes = 2 * util::kMiB;
    s.latency = 15 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::pcie4x16()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(23.0);
    s.rampBytes = 2 * util::kMiB;
    s.latency = 15 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::c2c()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(64.0);
    s.rampBytes = 4 * util::kMiB;
    s.latency = 5 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::nvme()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(3.0);
    s.rampBytes = 8 * util::kMiB;
    s.latency = 80 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::infinibandHdr()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(25.0);  // 200 Gb/s HDR
    s.rampBytes = 16 * util::kMiB;       // RDMA setup costs more
    s.latency = 30 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::infinibandNdr()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(50.0);  // 400 Gb/s NDR
    s.rampBytes = 16 * util::kMiB;
    s.latency = 25 * util::kUsec;
    return s;
}

LinkSpec
LinkSpec::roce100()
{
    LinkSpec s;
    s.peak = Bandwidth::fromGBps(12.5);  // 100 Gb/s Ethernet
    s.rampBytes = 32 * util::kMiB;       // lossy fabric ramps slower
    s.latency = 50 * util::kUsec;
    return s;
}

} // namespace hw
} // namespace mpress
