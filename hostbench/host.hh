/**
 * @file
 * Host block and process sampling for the benchmark.
 *
 * Every result is stamped with the machine it ran on: hardware threads,
 * CPU model, compiler, build type, IPO, and calib_ns, the median wall
 * time of a fixed dependent integer loop.  Two runs whose calib_ns
 * differ ran on CPUs of different speed; a run with nproc 1 cannot
 * show any thread effect.  Threads and memory of the process come from
 * /proc/self/status.
 */

#ifndef HOSTBENCH_HOST_HH
#define HOSTBENCH_HOST_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/pool.hh"
#include "util/strings.hh"

namespace hostbench {

struct HostInfo
{
    int nproc = 1;
    std::string cpuModel;
    std::string compiler;
    std::string buildType;
    bool ipo = false;
    double calibNs = 0.0;
};

/** Median wall time (ns) of 2^22 dependent 64-bit mix steps. */
inline double
calibrationNs()
{
    std::vector<double> runs;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < 5; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL + sink;
        for (int i = 0; i < (1 << 22); ++i) {
            x ^= x >> 31;
            x *= 0xbf58476d1ce4e5b9ULL;
            x += static_cast<std::uint64_t>(i);
        }
        sink += x;
        runs.push_back(std::chrono::duration<double, std::nano>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
    // Keep the loop observable so it cannot be folded away.
    if (sink == 42)
        runs.push_back(0.0);
    std::sort(runs.begin(), runs.end());
    return runs[runs.size() / 2];
}

inline std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            std::size_t start = line.find_first_not_of(" \t:", 10);
            if (start != std::string::npos)
                return line.substr(start);
        }
    }
    return "unknown";
}

inline HostInfo
probeHost()
{
    HostInfo h;
    h.nproc = mpress::util::ThreadPool::hardwareThreads();
    h.cpuModel = cpuModel();
    h.compiler = HOSTBENCH_COMPILER;
    h.buildType = HOSTBENCH_BUILD_TYPE;
    h.ipo = HOSTBENCH_IPO != 0;
    h.calibNs = calibrationNs();
    return h;
}

inline std::string
hostJson(const HostInfo &h)
{
    using mpress::util::jsonQuote;
    return mpress::util::strformat(
        "{\"nproc\":%d,\"single_cpu\":%s,\"cpu_model\":%s,"
        "\"compiler\":%s,\"build_type\":%s,\"ipo\":%s,"
        "\"calib_ns\":%.17g}",
        h.nproc, h.nproc == 1 ? "true" : "false",
        jsonQuote(h.cpuModel).c_str(), jsonQuote(h.compiler).c_str(),
        jsonQuote(h.buildType).c_str(), h.ipo ? "true" : "false",
        h.calibNs);
}

/** Threads and memory of this process from /proc/self/status. */
struct ProcStatus
{
    long threads = 0;
    double rssMb = 0.0;  ///< VmRSS
    double hwmMb = 0.0;  ///< VmHWM, the peak resident set
};

inline ProcStatus
readProcStatus()
{
    ProcStatus st;
    std::ifstream in("/proc/self/status");
    std::string line;
    auto kb_field = [&line](const char *key, double *mb) {
        if (line.rfind(key, 0) == 0)
            *mb = std::stod(line.substr(std::string(key).size())) /
                  1024.0;
    };
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            st.threads = std::stol(line.substr(8));
        kb_field("VmRSS:", &st.rssMb);
        kb_field("VmHWM:", &st.hwmMb);
    }
    return st;
}

} // namespace hostbench

#endif // HOSTBENCH_HOST_HH
