/**
 * @file
 * Training-run reports produced by the executor: throughput, per-GPU
 * memory statistics, per-technique memory savings and overhead
 * breakdowns.  Every number the paper's tables and figures plot is
 * derived from these records.
 */

#ifndef MPRESS_RUNTIME_REPORT_HH
#define MPRESS_RUNTIME_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "memory/liveness.hh"
#include "memory/tracker.hh"
#include "obs/observability.hh"
#include "sim/trace.hh"
#include "util/units.hh"

namespace mpress {
namespace runtime {

using util::Bytes;
using util::Tick;

/** Memory statistics for one GPU after a run. */
struct GpuMemStats
{
    int gpu = 0;
    Bytes capacity = 0;
    /** Fraction of the makespan the compute queue was busy. */
    double computeUtilization = 0.0;
    Bytes peak = 0;
    Bytes peakActivations = 0;
    Bytes peakParams = 0;
    Bytes peakGrads = 0;
    Bytes peakOptState = 0;
    /** Bytes still allocated when the window ended; equals the static
     *  allocation when every activation was properly released. */
    Bytes finalUsed = 0;
    bool oom = false;
};

/** Per-stage overhead attribution. */
struct StageOverhead
{
    int stage = 0;
    Tick recomputeTime = 0;   ///< extra forward compute
    Tick swapInStall = 0;     ///< backward blocked on swap-in
    Tick optimStall = 0;      ///< optimizer blocked on state swap
};

/** Per-technique memory-saving accounting (Table IV columns). */
struct SavingsBreakdown
{
    Bytes recompute = 0;   ///< activation bytes dropped per iteration
    Bytes gpuCpuSwap = 0;  ///< bytes offloaded to host per iteration
    Bytes d2dSwap = 0;     ///< bytes offloaded to peers per iteration

    Bytes total() const { return recompute + gpuCpuSwap + d2dSwap; }
};

/**
 * Fault-injection accounting (ExecutorConfig::faults): what the
 * scenario scheduled, what actually fired, and how the degradation
 * ladder absorbed it.
 */
struct FaultSummary
{
    bool enabled = false;

    /** Events in the scenario, by kind. */
    int scheduledLinkDegrade = 0;
    int scheduledTransferFail = 0;
    int scheduledGpuStraggle = 0;
    int scheduledHostPressure = 0;

    int degradedTransfers = 0;  ///< transfers stretched by a window
    int transferFailures = 0;   ///< injected D2D stripe failures
    int retries = 0;            ///< stripes re-issued after a failure
    /** D2D work demoted to the host path: whole swap-outs demoted to
     *  GPU-CPU swap plus swap-in stripes rerouted over PCIe. */
    int fallbackGpuCpuSwap = 0;
    int fallbackRecompute = 0;  ///< instances demoted to recompute
    int straggledTasks = 0;     ///< compute tasks stretched
    int hostPressureEvents = 0; ///< pressure windows applied
    Bytes hostPressurePeak = 0; ///< largest concurrent budget cut

    /** Minibatches whose window overlapped no fault event vs. the
     *  rest, and the throughput of each population (0 when empty). */
    int healthyMinibatches = 0;
    int degradedMinibatches = 0;
    double healthySamplesPerSec = 0.0;
    double degradedSamplesPerSec = 0.0;
};

/** The discrete-event engine's statistics after a run: arena growth
 *  and queue pressure.  mpress-serve's stats endpoint exports them so
 *  operators can see how much pooled storage the engine holds. */
struct ShardStat
{
    int shard = 0;                ///< always 0: every run has one engine
    std::uint64_t events = 0;     ///< events executed
    std::uint64_t poolSlots = 0;  ///< callback-slab high water
    std::uint64_t queuePeak = 0;  ///< event-queue high water
};

/**
 * The outcome of one simulated training window.
 */
struct TrainingReport
{
    std::string jobName;

    bool oom = false;
    int oomGpu = -1;
    Tick oomTime = 0;

    Tick makespan = 0;          ///< whole window, includes warmup
    Tick steadyIterTime = 0;    ///< marginal time per minibatch
    double samplesPerSec = 0.0;
    double tflops = 0.0;        ///< aggregate sustained TFLOPS

    std::vector<GpuMemStats> gpus;
    Bytes hostPeak = 0;

    SavingsBreakdown savings;
    Bytes d2dOverflow = 0;      ///< bytes that missed spare budgets
    Bytes nvmeSpill = 0;        ///< swap bytes that overflowed the
                                ///< host pool onto NVMe

    /** Aggregate busy time across all NVLink lanes (P2P + D2D). */
    Tick nvlinkBusyTime = 0;
    /** Aggregate busy time across all PCIe channels. */
    Tick pcieBusyTime = 0;
    /** Aggregate busy time across all inter-node NICs (zero on a
     *  single-node topology). */
    Tick nicBusyTime = 0;

    std::vector<StageOverhead> overheads;

    memory::LivenessTable liveness;  ///< filled in profiling runs

    /** Execution trace: compute/swap spans per device lane, fault
     *  instants, and memory/metric counter tracks
     *  (ExecutorConfig::record). */
    sim::TraceRecorder trace;

    /** Metrics registry, per-GPU memory event logs (the Fig. 1
     *  curves) and per-stream utilization (ExecutorConfig::record). */
    obs::Observability observability;

    /** Fault-injection accounting (ExecutorConfig::faults). */
    FaultSummary faults;

    /** Engine statistics: one row, for the run's one engine. */
    std::vector<ShardStat> shardStats;
    /** Conservative windows the run opened (0 on one node; see
     *  sim::Engine::run()). */
    std::uint64_t simWindows = 0;

    /** Highest per-GPU peak across devices. */
    Bytes maxGpuPeak() const;

    /** Lowest per-GPU peak across devices. */
    Bytes minGpuPeak() const;

    /** Sum of per-GPU peaks (Table II "total" analogue). */
    Bytes totalGpuPeak() const;
};

} // namespace runtime
} // namespace mpress

#endif // MPRESS_RUNTIME_REPORT_HH
