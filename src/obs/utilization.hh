/**
 * @file
 * Per-stream utilization recording: busy intervals for every compute
 * queue, NVLink lane, PCIe copy engine and NVMe channel, attached to
 * sim::Stream task hooks.  This is what turns "the run took N ms"
 * into "GPU0's D2H engine was 83% occupied while its compute queue
 * idled" — the overlap evidence the paper's claims rest on.
 */

#ifndef MPRESS_OBS_UTILIZATION_HH
#define MPRESS_OBS_UTILIZATION_HH

#include <string>
#include <vector>

#include "sim/stream.hh"
#include "util/units.hh"

namespace mpress {
namespace obs {

using util::Tick;

/** The resource classes a stream can represent. */
enum class Resource
{
    Compute,
    NvlinkEgress,
    NvlinkIngress,
    PcieH2D,
    PcieD2H,
    NvmeWrite,
    NvmeRead,
    NicEgress,
    NicIngress,
};

constexpr std::size_t kNumResources = 9;

/** Returns a display name ("compute", "pcie.h2d", ...). */
const char *resourceName(Resource r);

/** One contiguous busy interval of a channel. */
struct BusyInterval
{
    Tick start = 0;
    Tick end = 0;
};

/** One recorded stream: identity plus its occupancy history. */
struct Channel
{
    Resource resource = Resource::Compute;
    int gpu = -1;  ///< owning device; -1 for host-wide resources
    std::string name;
    Tick busy = 0;  ///< total occupied time; equals the stream's
                    ///< busyTime() when attached for the whole run
    std::vector<BusyInterval> intervals;
};

/**
 * The recorder.  Copyable plain data; task hooks installed by
 * attach() hold a pointer to this object, so attach streams only to
 * the instance that lives for the whole simulation and move it into
 * a report after the engine drains.
 */
class UtilizationRecorder
{
  public:
    /** Register a channel; returns its id. */
    int addChannel(Resource res, int gpu, std::string name);

    /** Append a busy interval to @p channel (zero-length intervals
     *  are dropped). */
    void recordBusy(int channel, Tick start, Tick end);

    /**
     * Register @p stream as a channel and install a task hook that
     * records every submitted task's occupancy.  The hook captures
     * `this`; see the class comment on lifetime.
     */
    void attach(sim::Stream &stream, Resource res, int gpu);

    const std::vector<Channel> &channels() const { return _channels; }

    /** Total busy time across channels of @p res (all GPUs). */
    Tick busyTime(Resource res) const;

    /** Total busy time of @p res channels owned by @p gpu. */
    Tick busyTime(Resource res, int gpu) const;

  private:
    std::vector<Channel> _channels;
};

} // namespace obs
} // namespace mpress

#endif // MPRESS_OBS_UTILIZATION_HH
