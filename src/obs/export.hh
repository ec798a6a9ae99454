/**
 * @file
 * Exporters for the observability bundle: a JSON document (metrics,
 * memory timelines, utilization), CSV dumps of the memory curves and
 * per-channel utilization, and Chrome-trace counter events merged
 * into a TraceRecorder so Perfetto shows memory/metric curves
 * alongside the execution spans.
 */

#ifndef MPRESS_OBS_EXPORT_HH
#define MPRESS_OBS_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "obs/observability.hh"
#include "sim/trace.hh"

namespace mpress {
namespace obs {

/**
 * Emit the whole bundle as one JSON document:
 *
 *   { "makespan_ns": N,
 *     "metrics":   [ {"name","kind","value","samples":[[t,v],..]} ],
 *     "memory":    [ {"gpu","peak_bytes","final_bytes",
 *                     "curve":[[t,bytes],..]} ],
 *     "utilization":[ {"resource","gpu","name","busy_ns",
 *                      "utilization","intervals":[[s,e],..]} ] }
 */
void exportJson(std::ostream &os, const Observability &o);

/** Memory curves as CSV: time_ms,gpu,used_gb (header included). */
void exportMemoryCsv(std::ostream &os, const Observability &o);

/** Per-channel utilization as CSV:
 *  resource,gpu,name,busy_ns,utilization. */
void exportUtilizationCsv(std::ostream &os, const Observability &o);

/**
 * Append Chrome-trace counter events ("ph":"C") to @p trace: one
 * per-GPU memory series (decimal GB, on the GPU's lane) and one
 * series per registry metric.
 */
void mergeCounterEvents(const Observability &o,
                        sim::TraceRecorder &trace);

/**
 * One scenario's outcome in a sweep report (mpress_cli --sweep).
 * Plain strings and numbers so the exporters stay independent of the
 * session/planner layers; rows are emitted in the order given, which
 * the sweep driver keeps equal to spec order regardless of which
 * worker finished first.
 */
struct SweepRow
{
    std::string name;      ///< scenario name from the spec
    std::string model;
    std::string system;
    std::string strategy;
    std::string topology;
    bool oom = false;
    bool rejected = false; ///< plan failed strict verification
    double samplesPerSec = 0.0;
    double tflops = 0.0;
    util::Bytes maxGpuPeak = 0;
    int planIterations = 0;  ///< accepted refinement steps
    double planMs = 0.0;     ///< wall-clock planning+run time
};

/** Sweep report as one JSON document:
 *  { "rows": [ {"name",...,"samples_per_sec",...}, ... ] } */
void exportSweepJson(std::ostream &os,
                     const std::vector<SweepRow> &rows);

/** Sweep report as CSV (header included), one row per scenario.
 *  Fields follow RFC 4180: values containing commas, quotes, or
 *  newlines are double-quoted with embedded quotes doubled. */
void exportSweepCsv(std::ostream &os,
                    const std::vector<SweepRow> &rows);

/**
 * One fault scenario's outcome in a robustness report (mpress_cli
 * --robustness).  Plain strings and numbers, like SweepRow, so the
 * exporters stay independent of the planner layer; the CLI flattens
 * planner::RobustnessRow + FaultSummary into this.
 */
struct RobustnessRow
{
    std::string scenario;       ///< fault::Scenario::name
    bool oom = false;
    double samplesPerSec = 0.0;
    double throughputRatio = 0.0;  ///< vs. the healthy baseline
    int transferFailures = 0;
    int retries = 0;
    int fallbackGpuCpuSwap = 0;
    int fallbackRecompute = 0;
    int straggledTasks = 0;
    int hostPressureEvents = 0;
};

/** Percentile summary attached to a robustness report. */
struct RobustnessSummary
{
    double baselineSamplesPerSec = 0.0;
    double worst = 0.0;
    double p10 = 0.0;
    double p50 = 0.0;
};

/** Robustness report as one JSON document:
 *  { "baseline_samples_per_sec": B, "worst": W, "p10": ..,
 *    "p50": .., "rows": [ {"scenario",...}, ... ] } */
void exportRobustnessJson(std::ostream &os,
                          const RobustnessSummary &summary,
                          const std::vector<RobustnessRow> &rows);

/** Robustness report as CSV (header included, RFC 4180 quoting),
 *  one row per scenario. */
void exportRobustnessCsv(std::ostream &os,
                         const std::vector<RobustnessRow> &rows);

} // namespace obs
} // namespace mpress

#endif // MPRESS_OBS_EXPORT_HH
