/**
 * @file
 * The observability bundle one simulated run produces: a metrics
 * registry, per-GPU memory timelines and per-stream utilization
 * intervals, plus the makespan they are normalized against.
 *
 * The executor owns the live bundle during a run (hooks on trackers
 * and streams feed it, only when ExecutorConfig::record is set) and
 * moves it into TrainingReport afterwards; everything inside is
 * copyable plain data.
 */

#ifndef MPRESS_OBS_OBSERVABILITY_HH
#define MPRESS_OBS_OBSERVABILITY_HH

#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "obs/utilization.hh"

namespace mpress {
namespace obs {

/** Everything the observability layer recorded for one run. */
struct Observability
{
    Tick makespan = 0;

    MetricsRegistry metrics;
    MemoryTimeline memory;
    UtilizationRecorder utilization;
};

} // namespace obs
} // namespace mpress

#endif // MPRESS_OBS_OBSERVABILITY_HH
