/**
 * @file
 * MetricsRegistry — named counters and gauges sampled on simulated
 * time.
 *
 * The runtime increments counters (monotonic totals: bytes swapped,
 * stall counts) and sets gauges (instantaneous levels: host-pool
 * usage) as the simulation executes; every mutation appends a
 * timestamped sample, so each metric doubles as a time series.
 * Mutations through kInvalid are no-ops, so instrumented code whose
 * metrics were never registered (an unrecorded run) pays one integer
 * compare on the hot path.
 */

#ifndef MPRESS_OBS_METRICS_HH
#define MPRESS_OBS_METRICS_HH

#include <map>
#include <string>
#include <vector>

#include "util/units.hh"

namespace mpress {
namespace obs {

using util::Tick;

/** Counter values only grow; gauges move both ways. */
enum class MetricKind
{
    Counter,
    Gauge,
};

/** Returns "counter" / "gauge". */
const char *metricKindName(MetricKind k);

/** One timestamped observation of a metric's value. */
struct MetricSample
{
    Tick time = 0;
    double value = 0.0;
};

/** A named metric with its full sample history. */
struct MetricSeries
{
    std::string name;
    MetricKind kind = MetricKind::Counter;
    double value = 0.0;  ///< latest value (counters: running total)
    std::vector<MetricSample> samples;
};

/**
 * The registry.  Copyable plain data, so a finished run's registry
 * travels inside TrainingReport by value.
 */
class MetricsRegistry
{
  public:
    /** Stable handle for a registered metric. */
    using Id = int;
    static constexpr Id kInvalid = -1;

    /** Register (or look up) a counter named @p name. */
    Id counter(const std::string &name);

    /** Register (or look up) a gauge named @p name. */
    Id gauge(const std::string &name);

    /** Add @p delta to a counter at simulated time @p now.  No-op on
     *  kInvalid, so call sites need no recording checks. */
    void add(Id id, Tick now, double delta);

    /** Set a gauge to @p value at simulated time @p now. */
    void set(Id id, Tick now, double value);

    /** Latest value of @p id (0.0 for kInvalid). */
    double value(Id id) const;

    /** Lookup by name; nullptr when absent. */
    const MetricSeries *find(const std::string &name) const;

    const std::vector<MetricSeries> &series() const
    {
        return _series;
    }

    /**
     * Copy every series of @p src into this registry under
     * @p prefix + its name, appending samples and adopting the source
     * value.  Used to merge per-node registries into one report
     * ("node0/swap.out.bytes", ...); series are absorbed in @p src
     * registration order, so the merge is deterministic.
     */
    void absorb(const MetricsRegistry &src, const std::string &prefix);

  private:
    Id intern(const std::string &name, MetricKind kind);

    std::vector<MetricSeries> _series;
    std::map<std::string, Id> _byName;
};

} // namespace obs
} // namespace mpress

#endif // MPRESS_OBS_METRICS_HH
