/**
 * @file
 * GPU device specifications: memory capacity, compute throughput per
 * precision, and NVLink port counts, with the stock specs used in the
 * paper's evaluation (V100 for the DGX-1 server, A100 for the DGX-2
 * generation server) plus the Grace-Hopper parts used by the paper's
 * Section V hardware-insight projection.
 */

#ifndef MPRESS_HW_GPU_HH
#define MPRESS_HW_GPU_HH

#include <string>

#include "util/units.hh"

namespace mpress {
namespace hw {

using util::Bytes;
using util::Flops;
using util::Tick;

/** Arithmetic precision of a training job's kernels. */
enum class Precision
{
    Fp32,
    Fp16,
};

/** Bytes per element for a precision. */
constexpr Bytes
precisionBytes(Precision p)
{
    return p == Precision::Fp32 ? 4 : 2;
}

/**
 * Static description of one GPU model.
 *
 * Throughput figures are peak numbers from the vendor spec sheet; the
 * @ref mfu factor (model FLOPs utilization) converts them into the
 * sustained throughput a transformer training kernel actually sees,
 * which is what the simulator charges for compute tasks.
 */
struct GpuSpec
{
    std::string name;
    Bytes memCapacity = 0;       ///< HBM capacity
    double fp32Tflops = 0.0;     ///< peak fp32 TFLOPS
    double fp16Tflops = 0.0;     ///< peak fp16 tensor-core TFLOPS
    double mfu = 0.45;           ///< sustained fraction of peak
    int nvlinkPorts = 0;         ///< NVLink lanes on the device
    util::Bandwidth hbm;         ///< HBM bandwidth (optimizer steps
                                 ///< are memory-bound)

    /** Sustained FLOPs per second at @p p after applying mfu. */
    double
    sustainedFlops(Precision p) const
    {
        double peak = (p == Precision::Fp32 ? fp32Tflops : fp16Tflops);
        return peak * 1e12 * mfu;
    }

    /** Simulated duration of a kernel doing @p flops at @p p. */
    Tick
    computeTime(Flops flops, Precision p) const
    {
        if (flops <= 0.0)
            return 0;
        double secs = flops / sustainedFlops(p);
        Tick t = static_cast<Tick>(secs * static_cast<double>(util::kSec));
        return t < 1 ? 1 : t;
    }

    /** HBM a training job may fill.  The rest, a tenth of this
     *  budget, is held back for framework workspace, fragmentation
     *  and communication buffers.  The executor's OOM line, the
     *  analyzer's and verifier's capacity rules, the planner and the
     *  baselines all judge memory against this one budget. */
    Bytes
    usableCapacity() const
    {
        return static_cast<Bytes>(static_cast<double>(memCapacity) /
                                  1.10);
    }

    /** Tesla P100 16 GB (the first NVLink generation, Sec. II-E). */
    static GpuSpec p100();

    /** Tesla V100 SXM2 32 GB (DGX-1 generation). */
    static GpuSpec v100();

    /** A100 SXM4 40 GB (DGX-2 generation server in the paper). */
    static GpuSpec a100();

    /** H100 SXM 80 GB (Section V discussion). */
    static GpuSpec h100();

    /** Hopper GPU inside a Grace-Hopper superchip, 96 GB HBM. */
    static GpuSpec graceHopper();
};

} // namespace hw
} // namespace mpress

#endif // MPRESS_HW_GPU_HH
