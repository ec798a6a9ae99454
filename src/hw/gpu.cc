#include "hw/gpu.hh"

namespace mpress {
namespace hw {

GpuSpec
GpuSpec::p100()
{
    GpuSpec s;
    s.name = "P100-SXM2-16GB";
    s.memCapacity = 16 * util::kGB;
    s.fp32Tflops = 10.6;
    s.fp16Tflops = 21.2;  // no tensor cores: 2x fp32
    s.mfu = 0.45;
    s.nvlinkPorts = 4;
    s.hbm = util::Bandwidth::fromGBps(732.0);
    return s;
}

GpuSpec
GpuSpec::v100()
{
    GpuSpec s;
    s.name = "V100-SXM2-32GB";
    s.memCapacity = 32 * util::kGB;
    s.fp32Tflops = 15.7;
    s.fp16Tflops = 112.0;
    s.mfu = 0.45;
    s.nvlinkPorts = 6;
    s.hbm = util::Bandwidth::fromGBps(900.0);
    return s;
}

GpuSpec
GpuSpec::a100()
{
    GpuSpec s;
    s.name = "A100-SXM4-40GB";
    s.memCapacity = 40 * util::kGB;
    s.fp32Tflops = 19.5;
    s.fp16Tflops = 312.0;
    // Sparse peak excluded; dense tensor-core utilization on large
    // transformer GEMMs is somewhat lower than V100's.
    s.mfu = 0.40;
    s.nvlinkPorts = 12;
    s.hbm = util::Bandwidth::fromGBps(1555.0);
    return s;
}

GpuSpec
GpuSpec::h100()
{
    GpuSpec s;
    s.name = "H100-SXM5-80GB";
    s.memCapacity = 80 * util::kGB;
    s.fp32Tflops = 67.0;
    s.fp16Tflops = 989.0;
    s.mfu = 0.35;
    s.nvlinkPorts = 18;
    s.hbm = util::Bandwidth::fromGBps(3350.0);
    return s;
}

GpuSpec
GpuSpec::graceHopper()
{
    GpuSpec s = h100();
    s.name = "GH200-96GB";
    s.memCapacity = 96 * util::kGB;
    return s;
}

} // namespace hw
} // namespace mpress
