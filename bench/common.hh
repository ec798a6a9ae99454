/**
 * @file
 * Shared helpers for the paper-reproduction benchmark harnesses.
 *
 * Conventions (Sec. IV-A of the paper):
 *  - Bert variants train on PipeDream at microbatch 12, fp32.  The
 *    scheduling unit of PipeDream is a minibatch, so each pipeline
 *    slot is one minibatch (mbPerMini = 1) and weight stashing holds
 *    one version per in-flight minibatch.
 *  - GPT variants train on DAPPLE at microbatch 2, fp16, with
 *    64-microbatch minibatches (large-batch GPT training amortizing
 *    the synchronous pipeline's fill/drain bubble).
 *  - The ZeRO baselines run on servers provisioned with host memory
 *    and an NVMe array (the paper could not run them on the stock
 *    EC2 instance), accumulating gradients over the same 64
 *    microbatches.
 */

#ifndef MPRESS_BENCH_COMMON_HH
#define MPRESS_BENCH_COMMON_HH

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "api/session.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace mpress {
namespace bench {

/**
 * Machine-readable benchmark sink: collects (benchmark, metric, value)
 * triples and writes them as BENCH_<suite>.json so CI (tools/check.sh)
 * can diff runs against a committed baseline.
 *
 * The file lands in $MPRESS_BENCH_DIR, else next to the bench
 * executable (never in the working directory, which is often the
 * repository root with its committed baselines), and write() prints
 * the path.  It carries the git revision and date the harness
 * exports via $MPRESS_GIT_REV / $MPRESS_BENCH_DATE.  When an override is absent
 * the revision falls back to `git rev-parse --short HEAD` and the
 * date to the current UTC day, so ad-hoc runs stamp real provenance;
 * "unknown" appears only outside a git checkout.  Maps keep the
 * output sorted and therefore diffable.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string suite) : _suite(std::move(suite))
    {}

    void
    set(const std::string &bench, const std::string &metric,
        double value)
    {
        _metrics[bench][metric] = value;
    }

    /** Write BENCH_<suite>.json and print where; returns false on I/O
     *  failure. */
    bool
    write() const
    {
        std::string path =
            outputDir() + "/BENCH_" + _suite + ".json";
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\n";
        out << "  \"suite\": \"" << escaped(_suite) << "\",\n";
        out << "  \"git_rev\": \"" << escaped(gitRev()) << "\",\n";
        out << "  \"date\": \"" << escaped(benchDate()) << "\",\n";
        out << "  \"benchmarks\": {";
        const char *bench_sep = "\n";
        for (const auto &[bench, metrics] : _metrics) {
            out << bench_sep << "    \"" << escaped(bench)
                << "\": {";
            bench_sep = ",\n";
            const char *metric_sep = "\n";
            for (const auto &[metric, value] : metrics) {
                out << metric_sep << "      \"" << escaped(metric)
                    << "\": " << util::strformat("%.17g", value);
                metric_sep = ",\n";
            }
            out << "\n    }";
        }
        out << "\n  }\n}\n";
        out.close();
        if (!out)
            return false;
        std::fprintf(stderr, "wrote %s\n", path.c_str());
        return true;
    }

  private:
    /** $MPRESS_BENCH_DIR, else the directory of the running
     *  executable, else "." when /proc/self/exe cannot be read. */
    static std::string
    outputDir()
    {
        std::string dir = envOr("MPRESS_BENCH_DIR", "");
        if (!dir.empty())
            return dir;
        std::error_code ec;
        std::filesystem::path exe =
            std::filesystem::read_symlink("/proc/self/exe", ec);
        if (ec || !exe.has_parent_path())
            return ".";
        return exe.parent_path().string();
    }

    static std::string
    envOr(const char *name, const char *fallback)
    {
        const char *v = std::getenv(name);
        return (v != nullptr && *v != '\0') ? v : fallback;
    }

    /** $MPRESS_GIT_REV, else the checkout's short HEAD revision,
     *  else "unknown" (not a git checkout / git unavailable).  The
     *  git output is trusted only when the command exited 0 AND the
     *  trimmed output looks like a hex revision — a failing or
     *  misbehaving git must never stamp garbage (its error text, a
     *  partial line) into BENCH_*.json provenance. */
    static std::string
    gitRev()
    {
        std::string rev = envOr("MPRESS_GIT_REV", "");
        if (!rev.empty())
            return rev;
        FILE *p = ::popen("git rev-parse --short HEAD 2>/dev/null",
                          "r");
        if (p != nullptr) {
            char buf[64] = {};
            if (std::fgets(buf, sizeof buf, p) != nullptr)
                rev.assign(buf);
            // pclose reports the command's exit status; nonzero (or
            // -1: no child status) means whatever was read is not a
            // revision.
            if (::pclose(p) != 0)
                rev.clear();
        }
        // Trim surrounding whitespace, then accept only plausible
        // abbreviated-hash output: non-empty, all lowercase hex.
        while (!rev.empty() &&
               std::isspace(static_cast<unsigned char>(rev.back())))
            rev.pop_back();
        while (!rev.empty() &&
               std::isspace(static_cast<unsigned char>(rev.front())))
            rev.erase(rev.begin());
        bool plausible = !rev.empty();
        for (char c : rev) {
            plausible &= (c >= '0' && c <= '9') ||
                         (c >= 'a' && c <= 'f');
        }
        return plausible ? rev : "unknown";
    }

    /** $MPRESS_BENCH_DATE, else the current UTC day. */
    static std::string
    benchDate()
    {
        std::string date = envOr("MPRESS_BENCH_DATE", "");
        if (!date.empty())
            return date;
        std::time_t now = std::time(nullptr);
        std::tm tm{};
        if (gmtime_r(&now, &tm) != nullptr) {
            char buf[16];
            if (std::strftime(buf, sizeof buf, "%Y-%m-%d", &tm) > 0)
                return buf;
        }
        return "unknown";
    }

    static std::string
    escaped(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    std::string _suite;
    std::map<std::string, std::map<std::string, double>> _metrics;
};

/** Bert-on-PipeDream session config (Fig. 7 conventions). */
inline api::SessionConfig
bertJob(const std::string &preset, api::Strategy strategy)
{
    api::SessionConfig cfg;
    cfg.model = model::presetByName(preset);
    cfg.microbatch = 12;
    cfg.system = pipeline::SystemKind::PipeDream;
    cfg.numStages = 8;
    cfg.microbatchesPerMinibatch = 1;  // PipeDream: minibatch units
    cfg.minibatches = 24;
    cfg.strategy = strategy;
    return cfg;
}

/** GPT-on-DAPPLE session config (Fig. 8 conventions). */
inline api::SessionConfig
gptJob(const std::string &preset, api::Strategy strategy)
{
    api::SessionConfig cfg;
    cfg.model = model::presetByName(preset);
    cfg.microbatch = 2;
    cfg.system = pipeline::SystemKind::Dapple;
    cfg.numStages = 8;
    cfg.microbatchesPerMinibatch = 64;
    cfg.minibatches = 2;
    cfg.zero.gradAccumSteps = 64;
    cfg.strategy = strategy;
    return cfg;
}

/**
 * A hand-built compaction plan: every layer of each stage keyed in
 * @p grants is D2D-swapped into those spare-memory grants (stage s
 * runs on GPU s), and every layer of each stage in @p host_stages is
 * GPU-CPU-swapped.  The rest stays resident.
 */
inline compaction::CompactionPlan
swapPlan(const partition::Partition &part,
         const std::map<int, std::vector<compaction::SpareGrant>> &grants,
         const std::vector<int> &host_stages)
{
    compaction::CompactionPlan plan;
    auto assign = [&](int stage, compaction::Kind kind) {
        const auto &st = part.stages[static_cast<std::size_t>(stage)];
        for (std::size_t l = st.firstLayer; l <= st.lastLayer; ++l)
            plan.activations[{stage, static_cast<int>(l)}] = kind;
    };
    for (const auto &[stage, list] : grants)
        assign(stage, compaction::Kind::D2dSwap);
    for (int stage : host_stages)
        assign(stage, compaction::Kind::GpuCpuSwap);
    plan.spareGrants = grants;
    return plan;
}

/**
 * A fixed D2D-plus-swap job on the NVSwitch DGX-2 (A100, 12 lanes
 * between any GPU pair): GPT-5.3B on DAPPLE over 8 stages, stages 0-1
 * D2D-swapped into spare memory on GPUs 4-7, so every stripe fans out
 * over 12 egress and 12 ingress lanes, and stages 2-3 GPU-CPU-swapped.
 * BM_FullIterationSwitchFabric replays it and the golden-digest tests
 * pin its output, so the bench row times exactly the pinned run.
 */
struct SwitchFabricJob
{
    hw::Topology topo = hw::Topology::dgx2A100();
    model::TransformerModel mdl{model::presetByName("gpt-5.3b"), 2};
    partition::Partition part = partition::partitionModel(
        mdl, 8, partition::Strategy::ComputeBalanced);
    pipeline::Schedule sched =
        pipeline::buildSchedule(pipeline::SystemKind::Dapple, 8, 16, 2);
    compaction::CompactionPlan plan =
        swapPlan(part,
                 {{0, {{7, 24 * util::kGB}, {6, 24 * util::kGB}}},
                  {1, {{5, 24 * util::kGB}, {4, 24 * util::kGB}}}},
                 {2, 3});
};

/** DGX-1 server provisioned for the ZeRO baselines (Sec. IV-C). */
inline hw::Topology
dgx1ForZero()
{
    auto topo = hw::Topology::dgx1V100();
    topo.setNvmeCapacity(2000 * util::kGB);
    auto fast_nvme = hw::LinkSpec::nvme();
    fast_nvme.peak = util::Bandwidth::fromGBps(25.0);
    topo.setNvmeSpec(fast_nvme);
    return topo;
}

/** "x.y" or "OOM" cell for a session result. */
inline std::string
tflopsCell(const api::SessionResult &result)
{
    if (result.oom)
        return "OOM";
    return util::strformat("%.1f", result.tflops);
}

} // namespace bench
} // namespace mpress

#endif // MPRESS_BENCH_COMMON_HH
