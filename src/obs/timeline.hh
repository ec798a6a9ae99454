/**
 * @file
 * Per-GPU memory timelines: the raw allocation/free event log of each
 * DeviceMemoryTracker, timestamped on simulated time and tagged with
 * the TensorKind.  The stepwise usage curve (the paper's Figure 1),
 * per-GPU peaks and per-kind breakdowns are all reconstructable from
 * the log, so recording costs one vector push per allocation change.
 */

#ifndef MPRESS_OBS_TIMELINE_HH
#define MPRESS_OBS_TIMELINE_HH

#include <vector>

#include "model/model.hh"
#include "util/units.hh"

namespace mpress {
namespace obs {

using model::TensorKind;
using util::Bytes;
using util::Tick;

/** One allocation change: positive delta = alloc, negative = free. */
struct MemoryEvent
{
    Tick time = 0;
    int gpu = 0;
    TensorKind kind = TensorKind::Activation;
    Bytes delta = 0;
};

/** One point of a reconstructed stepwise usage curve. */
struct MemoryPoint
{
    Tick time = 0;
    Bytes used = 0;
};

/**
 * The event log plus reconstruction helpers.  Copyable plain data.
 */
class MemoryTimeline
{
  public:
    /** Append one event. */
    void
    record(Tick time, int gpu, TensorKind kind, Bytes delta)
    {
        _events.push_back({time, gpu, kind, delta});
    }

    const std::vector<MemoryEvent> &events() const { return _events; }
    std::size_t size() const { return _events.size(); }

    /** GPU ids that appear in the log, ascending. */
    std::vector<int> gpus() const;

    /**
     * Stepwise usage curve for @p gpu: cumulative byte total after
     * each event.  Events at the same tick collapse into the final
     * value at that tick.
     */
    std::vector<MemoryPoint> curve(int gpu) const;

    /** Highest point of @p gpu's curve. */
    Bytes peak(int gpu) const;

    /** Highest per-kind total for @p gpu over the run. */
    Bytes peakByKind(int gpu, TensorKind kind) const;

    /** Live bytes on @p gpu after the last event. */
    Bytes finalUsed(int gpu) const;

  private:
    std::vector<MemoryEvent> _events;
};

} // namespace obs
} // namespace mpress

#endif // MPRESS_OBS_TIMELINE_HH
