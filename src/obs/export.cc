#include "obs/export.hh"

#include "util/strings.hh"
#include "util/units.hh"

namespace mpress {
namespace obs {

namespace {

/** JSON string escaping (same rules as the trace exporter). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char raw : s) {
        auto c = static_cast<unsigned char>(raw);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(raw);
        } else if (c < 0x20) {
            out += util::strformat("\\u%04x", c);
        } else {
            out.push_back(raw);
        }
    }
    return out;
}

double
utilizationOf(Tick busy, Tick makespan)
{
    if (makespan <= 0)
        return 0.0;
    return static_cast<double>(busy) /
           static_cast<double>(makespan);
}

/** RFC 4180 CSV field: quote when the value contains a comma, a
 *  double quote, or a line break, doubling embedded quotes.  Plain
 *  values pass through unchanged so existing numeric columns keep
 *  their exact shape. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

} // namespace

void
exportJson(std::ostream &os, const Observability &o)
{
    os << "{\"makespan_ns\":" << o.makespan;

    os << ",\"metrics\":[";
    bool first = true;
    for (const auto &m : o.metrics.series()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"name\":\"" << escape(m.name) << "\",\"kind\":\""
           << metricKindName(m.kind) << "\",\"value\":" << m.value
           << ",\"samples\":[";
        for (std::size_t i = 0; i < m.samples.size(); ++i) {
            if (i)
                os << ",";
            os << "[" << m.samples[i].time << ","
               << m.samples[i].value << "]";
        }
        os << "]}";
    }
    os << "]";

    os << ",\"memory\":[";
    first = true;
    for (int gpu : o.memory.gpus()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"gpu\":" << gpu
           << ",\"peak_bytes\":" << o.memory.peak(gpu)
           << ",\"final_bytes\":" << o.memory.finalUsed(gpu)
           << ",\"curve\":[";
        auto curve = o.memory.curve(gpu);
        for (std::size_t i = 0; i < curve.size(); ++i) {
            if (i)
                os << ",";
            os << "[" << curve[i].time << "," << curve[i].used
               << "]";
        }
        os << "]}";
    }
    os << "]";

    os << ",\"utilization\":[";
    first = true;
    for (const auto &ch : o.utilization.channels()) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"resource\":\"" << resourceName(ch.resource)
           << "\",\"gpu\":" << ch.gpu << ",\"name\":\""
           << escape(ch.name) << "\",\"busy_ns\":" << ch.busy
           << ",\"utilization\":"
           << utilizationOf(ch.busy, o.makespan)
           << ",\"intervals\":[";
        for (std::size_t i = 0; i < ch.intervals.size(); ++i) {
            if (i)
                os << ",";
            os << "[" << ch.intervals[i].start << ","
               << ch.intervals[i].end << "]";
        }
        os << "]}";
    }
    os << "]}";
}

void
exportMemoryCsv(std::ostream &os, const Observability &o)
{
    os << "time_ms,gpu,used_gb\n";
    for (int gpu : o.memory.gpus()) {
        for (const auto &p : o.memory.curve(gpu)) {
            os << util::strformat("%.3f,%d,%.3f\n",
                                  util::toMs(p.time), gpu,
                                  util::toGB(p.used));
        }
    }
}

void
exportUtilizationCsv(std::ostream &os, const Observability &o)
{
    os << "resource,gpu,name,busy_ns,utilization\n";
    for (const auto &ch : o.utilization.channels()) {
        os << util::strformat(
            "%s,%d,%s,%lld,%.4f\n",
            csvField(resourceName(ch.resource)).c_str(), ch.gpu,
            csvField(ch.name).c_str(),
            static_cast<long long>(ch.busy),
            utilizationOf(ch.busy, o.makespan));
    }
}

void
mergeCounterEvents(const Observability &o, sim::TraceRecorder &trace)
{
    for (int gpu : o.memory.gpus()) {
        std::string name = util::strformat("gpu%d mem (GB)", gpu);
        for (const auto &p : o.memory.curve(gpu))
            trace.recordCounter(name, gpu, p.time,
                                util::toGB(p.used));
    }
    for (const auto &m : o.metrics.series()) {
        for (const auto &s : m.samples)
            trace.recordCounter(m.name, 0, s.time, s.value);
    }
}

void
exportSweepJson(std::ostream &os, const std::vector<SweepRow> &rows)
{
    os << "{\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow &r = rows[i];
        if (i)
            os << ",";
        os << "{\"name\":\"" << escape(r.name) << "\",\"model\":\""
           << escape(r.model) << "\",\"system\":\""
           << escape(r.system) << "\",\"strategy\":\""
           << escape(r.strategy) << "\",\"topology\":\""
           << escape(r.topology) << "\",\"oom\":"
           << (r.oom ? "true" : "false") << ",\"rejected\":"
           << (r.rejected ? "true" : "false")
           << util::strformat(",\"samples_per_sec\":%.6g",
                              r.samplesPerSec)
           << util::strformat(",\"tflops\":%.6g", r.tflops)
           << ",\"max_gpu_peak_bytes\":" << r.maxGpuPeak
           << ",\"plan_iterations\":" << r.planIterations
           << util::strformat(",\"plan_ms\":%.3f", r.planMs)
           << "}";
    }
    os << "]}";
}

void
exportSweepCsv(std::ostream &os, const std::vector<SweepRow> &rows)
{
    os << "name,model,system,strategy,topology,oom,rejected,"
          "samples_per_sec,tflops,max_gpu_peak_bytes,"
          "plan_iterations,plan_ms\n";
    for (const SweepRow &r : rows) {
        os << util::strformat(
            "%s,%s,%s,%s,%s,%d,%d,%.6g,%.6g,%lld,%d,%.3f\n",
            csvField(r.name).c_str(), csvField(r.model).c_str(),
            csvField(r.system).c_str(), csvField(r.strategy).c_str(),
            csvField(r.topology).c_str(), r.oom ? 1 : 0,
            r.rejected ? 1 : 0, r.samplesPerSec, r.tflops,
            static_cast<long long>(r.maxGpuPeak), r.planIterations,
            r.planMs);
    }
}

void
exportRobustnessJson(std::ostream &os,
                     const RobustnessSummary &summary,
                     const std::vector<RobustnessRow> &rows)
{
    os << util::strformat("{\"baseline_samples_per_sec\":%.6g",
                          summary.baselineSamplesPerSec)
       << util::strformat(",\"worst\":%.6g", summary.worst)
       << util::strformat(",\"p10\":%.6g", summary.p10)
       << util::strformat(",\"p50\":%.6g", summary.p50)
       << ",\"rows\":[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const RobustnessRow &r = rows[i];
        if (i)
            os << ",";
        os << "{\"scenario\":\"" << escape(r.scenario)
           << "\",\"oom\":" << (r.oom ? "true" : "false")
           << util::strformat(",\"samples_per_sec\":%.6g",
                              r.samplesPerSec)
           << util::strformat(",\"throughput_ratio\":%.6g",
                              r.throughputRatio)
           << ",\"transfer_failures\":" << r.transferFailures
           << ",\"retries\":" << r.retries
           << ",\"fallback_gpu_cpu_swap\":" << r.fallbackGpuCpuSwap
           << ",\"fallback_recompute\":" << r.fallbackRecompute
           << ",\"straggled_tasks\":" << r.straggledTasks
           << ",\"host_pressure_events\":" << r.hostPressureEvents
           << "}";
    }
    os << "]}";
}

void
exportRobustnessCsv(std::ostream &os,
                    const std::vector<RobustnessRow> &rows)
{
    os << "scenario,oom,samples_per_sec,throughput_ratio,"
          "transfer_failures,retries,fallback_gpu_cpu_swap,"
          "fallback_recompute,straggled_tasks,"
          "host_pressure_events\n";
    for (const RobustnessRow &r : rows) {
        os << util::strformat(
            "%s,%d,%.6g,%.6g,%d,%d,%d,%d,%d,%d\n",
            csvField(r.scenario).c_str(), r.oom ? 1 : 0,
            r.samplesPerSec, r.throughputRatio, r.transferFailures,
            r.retries, r.fallbackGpuCpuSwap, r.fallbackRecompute,
            r.straggledTasks, r.hostPressureEvents);
    }
}

} // namespace obs
} // namespace mpress
