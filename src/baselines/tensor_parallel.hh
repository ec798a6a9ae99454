/**
 * @file
 * Intra-operator (tensor) parallelism baseline (Sec. II-A).
 *
 * Megatron-style: every transformer block's GEMMs are sliced across
 * all GPUs; each layer needs an all-reduce of the full hidden
 * activation in the forward pass and another in the backward pass,
 * sitting on the critical path ("requiring heavy communication to
 * gather and aggregate partial results", Sec. II-A).  The paper uses
 * this cost profile to motivate choosing inter-operator parallelism;
 * this baseline lets the repository quantify that argument
 * (`bench_parallelism_comparison`).
 *
 * The simulation mirrors the ZeRO baseline's structure: one
 * representative GPU timeline with a compute stream and a collective
 * stream, but unlike ZeRO-3's prefetchable gathers, tensor-parallel
 * all-reduces block the next layer's computation.
 */

#ifndef MPRESS_BASELINES_TENSOR_PARALLEL_HH
#define MPRESS_BASELINES_TENSOR_PARALLEL_HH

#include "hw/topology.hh"
#include "model/model.hh"

namespace mpress {
namespace baselines {

using util::Bytes;
using util::Tick;

/** Tensor-parallel baseline configuration. */
struct TensorParallelConfig
{
    int microbatch = 2;     ///< per-replica microbatch size
    /** NCCL-style collective efficiency vs aggregate NVLink peak. */
    double ringEfficiency = 0.7;
    /** All-reduces per block per direction (Megatron uses 2). */
    int allReducesPerBlock = 2;
};

/** Result of one simulated tensor-parallel iteration. */
struct TensorParallelReport
{
    bool oom = false;
    Tick iterTime = 0;
    double samplesPerSec = 0.0;
    double tflops = 0.0;     ///< aggregate useful TFLOPS
    Bytes gpuPeak = 0;
    Tick commTime = 0;       ///< exposed collective time
    double commFraction = 0; ///< exposed comm / iteration time
};

/** Simulate one training iteration of Megatron-style TP over all the
 *  GPUs of @p topo. */
TensorParallelReport runTensorParallel(
    const hw::Topology &topo, const model::ModelConfig &model_cfg,
    TensorParallelConfig cfg);

} // namespace baselines
} // namespace mpress

#endif // MPRESS_BASELINES_TENSOR_PARALLEL_HH
