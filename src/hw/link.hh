/**
 * @file
 * Link specifications and the size-dependent effective-bandwidth model.
 *
 * Real interconnects only approach their peak bandwidth for large
 * transfers; small transfers are dominated by launch latency.  MPress
 * models this with a first-order ramp
 *
 *     bw_eff(S) = peak * S / (S + ramp_bytes)
 *
 * plus a fixed per-transfer latency.  With the default ramp of 4 MiB
 * per lane this reproduces the shape of the paper's Figure 4 (PCIe vs
 * 2/4/6 aggregated NVLinks across transfer sizes).
 */

#ifndef MPRESS_HW_LINK_HH
#define MPRESS_HW_LINK_HH

#include "util/units.hh"

namespace mpress {
namespace hw {

using util::Bandwidth;
using util::Bytes;
using util::Tick;

/**
 * Static parameters of a single link lane.
 */
struct LinkSpec
{
    Bandwidth peak;              ///< unidirectional peak
    Bytes rampBytes = 4 * util::kMiB;  ///< half-speed transfer size
    Tick latency = 10 * util::kUsec;   ///< per-transfer launch latency

    /** Effective bandwidth for a transfer of @p bytes. */
    Bandwidth
    effectiveBandwidth(Bytes bytes) const
    {
        if (bytes <= 0)
            return Bandwidth(0.0);
        double s = static_cast<double>(bytes);
        double r = static_cast<double>(rampBytes);
        return Bandwidth(peak.bytesPerSec() * s / (s + r));
    }

    /** Total time (latency + wire time) for @p bytes on this lane. */
    Tick
    transferTime(Bytes bytes) const
    {
        if (bytes <= 0)
            return 0;
        return latency + effectiveBandwidth(bytes).transferTime(bytes);
    }

    /** NVLink 1.0 lane: 20 GB/s per direction (P100 generation;
     *  "up to 160 GB/s bidirectional" over 4 lanes, Sec. II-E). */
    static LinkSpec nvlink1();

    /** NVLink 2.0 lane: 25 GB/s per direction (V100 generation). */
    static LinkSpec nvlink2();

    /** NVLink 4 lane through NVSwitch (H100 generation, 50 GB/s). */
    static LinkSpec nvlink4();

    /** NVLink 3.0 lane through NVSwitch (A100 generation). */
    static LinkSpec nvswitch3();

    /** PCIe 3.0 x16, ~11.7 GB/s effective. */
    static LinkSpec pcie3x16();

    /** PCIe 4.0 x16, ~23 GB/s effective. */
    static LinkSpec pcie4x16();

    /** NVLink-C2C: 64 GB/s per direction per the Grace-Hopper paper
     *  discussion in Section V. */
    static LinkSpec c2c();

    /** One NVMe SSD channel (datacenter-class, ~3 GB/s). */
    static LinkSpec nvme();

    /** One 200 Gb/s InfiniBand HDR NIC (GPUDirect RDMA path). */
    static LinkSpec infinibandHdr();

    /** One 400 Gb/s InfiniBand NDR NIC. */
    static LinkSpec infinibandNdr();

    /** One 100 Gb/s RoCEv2 NIC (commodity Ethernet fabric). */
    static LinkSpec roce100();
};

} // namespace hw
} // namespace mpress

#endif // MPRESS_HW_LINK_HH
