/**
 * @file
 * Shared test helper: a byte rendering of everything a TrainingReport
 * observes about a run, for byte-identity and golden-digest tests.
 */

#ifndef MPRESS_TESTS_REPORT_BYTES_HH
#define MPRESS_TESTS_REPORT_BYTES_HH

#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hh"
#include "runtime/report.hh"

namespace mpress {
namespace testing {

/** Serialize everything a TrainingReport observes about a run: the
 *  scalar outcome, per-GPU peaks, the memory curves, the execution
 *  trace and the observability bundle.  One reordered event anywhere
 *  shows up as a byte difference here. */
inline std::string
renderReportBytes(const runtime::TrainingReport &r)
{
    std::ostringstream os;
    os << "oom=" << r.oom << " gpu=" << r.oomGpu << " t="
       << r.oomTime << " makespan=" << r.makespan << " steady="
       << r.steadyIterTime << " sps=" << r.samplesPerSec
       << " tflops=" << r.tflops << " host=" << r.hostPeak
       << " nvl=" << r.nvlinkBusyTime << " pcie=" << r.pcieBusyTime
       << " nic=" << r.nicBusyTime << " d2dovf=" << r.d2dOverflow
       << " nvme=" << r.nvmeSpill << " sav=" << r.savings.recompute
       << "/" << r.savings.gpuCpuSwap << "/" << r.savings.d2dSwap
       << "\n";
    for (const auto &g : r.gpus) {
        os << "gpu" << g.gpu << " peak=" << g.peak << " act="
           << g.peakActivations << " final=" << g.finalUsed
           << " util=" << g.computeUtilization << "\n";
    }
    for (const auto &o : r.overheads) {
        os << "stage" << o.stage << " rc=" << o.recomputeTime
           << " si=" << o.swapInStall << " op=" << o.optimStall
           << "\n";
    }
    os << "faults " << r.faults.degradedTransfers << " "
       << r.faults.transferFailures << " " << r.faults.retries << " "
       << r.faults.fallbackGpuCpuSwap << " "
       << r.faults.fallbackRecompute << " "
       << r.faults.straggledTasks << " "
       << r.faults.hostPressureEvents << "\n";
    // Usage after every allocation change: a running per-GPU sum of
    // the memory event log (not MemoryTimeline::curve(), which
    // collapses same-tick changes).
    std::vector<util::Bytes> used(r.gpus.size(), 0);
    for (const auto &e : r.observability.memory.events()) {
        util::Bytes &u = used[static_cast<std::size_t>(e.gpu)];
        u += e.delta;
        os << "mem " << e.time << " " << e.gpu << " " << u << "\n";
    }
    r.trace.exportChromeTrace(os);
    obs::exportJson(os, r.observability);
    return os.str();
}

} // namespace testing
} // namespace mpress

#endif // MPRESS_TESTS_REPORT_BYTES_HH
