/**
 * @file
 * Execution tracing: named spans on named lanes, exportable as a
 * Chrome-trace JSON file (chrome://tracing, Perfetto) for visual
 * inspection of pipeline schedules, swap streams and link occupancy.
 */

#ifndef MPRESS_SIM_TRACE_HH
#define MPRESS_SIM_TRACE_HH

#include <ostream>
#include <string>
#include <vector>

#include "util/units.hh"

namespace mpress {
namespace sim {

using util::Tick;

/** One traced span. */
struct TraceSpan
{
    std::string name;      ///< e.g. "fwd s0 mb3"
    std::string category;  ///< e.g. "compute", "swap", "p2p"
    int lane = 0;          ///< row in the viewer (device/stream id)
    Tick start = 0;
    Tick end = 0;
};

/** One instant event ("ph":"i"): a point-in-time marker, used for
 *  injected faults and runtime fallback decisions. */
struct TraceInstant
{
    std::string name;      ///< e.g. "fault: stripe retry s0 mb2"
    std::string category;  ///< e.g. "fault"
    int lane = 0;
    Tick time = 0;
};

/** One sample of a counter series ("ph":"C" in Chrome trace). */
struct TraceCounter
{
    std::string name;  ///< counter track, e.g. "gpu0 memory"
    int lane = 0;      ///< tid grouping the counter with its device
    Tick time = 0;
    double value = 0.0;
};

/**
 * Collects spans, instants and counter samples.  The executor writes
 * one only when ExecutorConfig::record is set.
 */
class TraceRecorder
{
  public:
    /** Record a finished span. */
    void
    record(std::string name, std::string category, int lane,
           Tick start, Tick end)
    {
        _spans.push_back({std::move(name), std::move(category), lane,
                          start, end});
    }

    /** Record one counter sample.  Exported as a Chrome-trace counter
     *  event, rendered by Perfetto as a stepwise curve alongside the
     *  span rows. */
    void
    recordCounter(std::string name, int lane, Tick time, double value)
    {
        _counters.push_back({std::move(name), lane, time, value});
    }

    /** Record an instant marker.  Rendered by the trace viewers as a
     *  flag pinned to its lane. */
    void
    recordInstant(std::string name, std::string category, int lane,
                  Tick time)
    {
        _instants.push_back(
            {std::move(name), std::move(category), lane, time});
    }

    const std::vector<TraceSpan> &spans() const { return _spans; }
    const std::vector<TraceCounter> &counters() const
    {
        return _counters;
    }
    const std::vector<TraceInstant> &instants() const
    {
        return _instants;
    }
    std::size_t size() const { return _spans.size(); }

    /** Emit Chrome-trace JSON ("traceEvents" array of X events;
     *  timestamps in microseconds). */
    void exportChromeTrace(std::ostream &os) const;

    /** Register a display name for @p lane in the exported trace. */
    void
    nameLane(int lane, std::string name)
    {
        if (static_cast<std::size_t>(lane) >= _laneNames.size())
            _laneNames.resize(static_cast<std::size_t>(lane) + 1);
        _laneNames[static_cast<std::size_t>(lane)] = std::move(name);
    }

  private:
    std::vector<TraceSpan> _spans;
    std::vector<TraceCounter> _counters;
    std::vector<TraceInstant> _instants;
    std::vector<std::string> _laneNames;
};

} // namespace sim
} // namespace mpress

#endif // MPRESS_SIM_TRACE_HH
