/**
 * @file
 * mpress_cli — command-line driver for the simulator.
 *
 *   mpress_cli [options]
 *     --model <preset>        bert-0.35b..6.2b, gpt-5.3b..25.5b,
 *                             gpt3-175b            [bert-0.64b]
 *     --system <name>         pipedream|dapple|gpipe [pipedream]
 *     --strategy <name>       none|recompute|gpu-cpu-swap|d2d-only|
 *                             mpress|zero-offload|zero-infinity
 *                                                  [mpress]
 *     --topology <name>       dgx1|dgx2, or a cluster preset such as
 *                             2x-dgx2, 8x-hgx-h100 or any
 *                             <N>x-<node> with N in 1..64 [dgx1]
 *     --cluster <spec|name>   build a multi-node cluster topology
 *                             from a JSON spec file or a preset name
 *                             (overrides --topology); the spec is
 *                             statically verified and rejected
 *                             (exit 3) on errors.  Spec fields:
 *                             {"name","nodes","node","nic",
 *                              "nicsPerNode","nicGbps",
 *                              "nicLatencyUs","nodeIds":[...]}
 *                             with node in dgx1|dgx1-p100|dgx2|
 *                             hgx-h100|dual-a100 and nic in
 *                             ib-hdr|ib-ndr|roce100
 *     --microbatch <n>        per-microbatch samples [12]
 *     --mb-per-mini <n>       microbatches per minibatch [8]
 *     --minibatches <n>       training window length [2]
 *     --threads <n>           worker threads for the planner's
 *                             mapping scan and emulator-feedback
 *                             search, and for running sweep
 *                             scenarios (whose plans each run
 *                             serially) [every CPU the process may
 *                             run on]
 *     --analyze               print the static analysis certificate
 *                             of the executed plan (per-GPU
 *                             peak-memory intervals, latency lower
 *                             bound, throughput upper bound)
 *     --portfolio             planner strategies only: race the
 *                             greedy wavefront against a
 *                             simulated-annealing walker and an
 *                             analysis-guided best-first explorer
 *                             on the --threads pool; prints one
 *                             accounting row per strategy
 *     --deadline-ms <ms>      anytime budget for the refinement
 *                             race, checked between wavefront
 *                             rounds; always returns a verified
 *                             plan [0 = no deadline]
 *     --save-plan <file>      write the executed plan (plan format)
 *     --load-plan <file>      run a previously saved plan instead of
 *                             planning (forces a custom strategy)
 *     --verify-mode <name>    off|permissive|strict [permissive];
 *                             loaded plans are statically verified
 *                             and rejected on errors (strict also
 *                             rejects on warnings)
 *     --timeline <file>       write a chrome-trace JSON (spans plus
 *                             memory and metric counter tracks)
 *     --metrics <file>        write the observability bundle as JSON
 *                             (metrics, per-GPU memory timelines,
 *                             per-stream utilization)
 *                             Either flag records the whole run; the
 *                             planner strategies plan unrecorded,
 *                             then replay the finished plan once.
 *                             Neither combines with --robustness or
 *                             --sweep (exit 1).
 *     --faults <spec.json>    inject a fault scenario into the run
 *                             (see below); the scenario is statically
 *                             verified against the topology first and
 *                             rejected (exit 3) on errors
 *     --no-fault-ladder       disable the degradation ladder: an
 *                             injected transfer failure is terminal
 *                             instead of retried / demoted
 *
 *   Fault spec — {"name","seed","events":[...]} where each event is
 *     {"type":"link-degrade",  "start_ms","end_ms","src","dst",
 *      "factor"}                bandwidth multiplier on one NVLink
 *     {"type":"link-degrade",  "start_ms","end_ms","gpu","factor"}
 *                               ... or on one GPU's PCIe lanes
 *     {"type":"transfer-fail", "start_ms","end_ms","src"[,"dst"],
 *      "probability"}           D2D stripes fail with probability p
 *     {"type":"gpu-straggle",  "start_ms","end_ms","gpu","factor"}
 *                               compute slowdown on one GPU
 *     {"type":"host-pressure", "start_ms","end_ms","bytes_gb"}
 *                               shrink the pinned-host pool
 *
 *   Robustness mode — replay one plan across a scenario matrix:
 *     --robustness <file>     {"scenarios":[<fault spec>,...]}; plans
 *                             fault-free, then replays the final plan
 *                             under every scenario on the --threads
 *                             pool and prints a JSON report (rows in
 *                             spec order, nearest-rank percentiles)
 *     --robustness-out <file> write the JSON report here instead
 *     --robustness-csv <file> also write the report as CSV
 *
 *   Sweep mode — plan/emulate many configurations in one process:
 *     --sweep <spec.json>     run every scenario in the spec across
 *                             the --threads pool and print a combined
 *                             JSON report to stdout
 *     --sweep-out <file>      write the JSON report here instead
 *     --sweep-csv <file>      also write the report as CSV
 *
 *   The spec is {"scenarios":[{...},...]}; each scenario object may
 *   set "name", "model", "system", "strategy", "topology",
 *   "microbatch", "mbPerMini", "minibatches", "verifyMode" — any
 *   omitted field inherits the corresponding command-line option.
 *   Report rows keep spec order whatever the thread count.
 *
 * Exit status: 0 on success, 3 on plan rejected by verification,
 * 1 on usage/spec errors, 2 on a malformed flag value (a numeric
 * flag that does not parse or is out of range) — and 2 on OOM of a
 * single run (a malformed flag never starts a run, so the phases
 * cannot be confused).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/session.hh"
#include "cluster/cluster.hh"
#include "compaction/serialize.hh"
#include "fault/scenario.hh"
#include "obs/export.hh"
#include "planner/search.hh"
#include "util/json.hh"
#include "util/pool.hh"
#include "util/strings.hh"
#include "verify/verify.hh"

namespace api = mpress::api;
namespace cp = mpress::compaction;
namespace ft = mpress::fault;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace mu = mpress::util;
namespace pl = mpress::pipeline;
namespace rt = mpress::runtime;
namespace vf = mpress::verify;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "mpress_cli: %s (see file header for"
                         " options)\n",
                 msg);
    std::exit(1);
}

/** Malformed flag *values* exit 2 (vs 1 for unknown flags), so
 *  scripts can tell "you typo'd an option" from "that value does not
 *  parse". */
[[noreturn]] void
badValue(const char *flag, const std::string &got)
{
    std::fprintf(stderr,
                 "mpress_cli: %s: malformed value '%s' (expected a"
                 " number in range)\n",
                 flag, got.c_str());
    std::exit(2);
}

/** Checked std::stoi replacement: a malformed or out-of-range value
 *  is a usage error, never an uncaught std::invalid_argument. */
int
parseIntFlag(const char *flag, const std::string &text)
{
    int value = 0;
    if (!mu::parseInt(text, &value))
        badValue(flag, text);
    return value;
}

double
parseDoubleFlag(const char *flag, const std::string &text)
{
    double value = 0.0;
    if (!mu::parseDouble(text, &value))
        badValue(flag, text);
    return value;
}

pl::SystemKind
parseSystem(const std::string &name)
{
    pl::SystemKind kind;
    if (!api::systemKindFromName(name, &kind))
        usage("unknown --system");
    return kind;
}

api::Strategy
parseStrategy(const std::string &name)
{
    api::Strategy strategy;
    if (!api::strategyFromName(name, &strategy))
        usage("unknown --strategy");
    return strategy;
}

api::VerifyMode
parseVerifyMode(const std::string &name)
{
    api::VerifyMode mode;
    if (!api::verifyModeFromName(name, &mode))
        usage("unknown --verify-mode");
    return mode;
}

hw::Topology
parseTopology(const std::string &name)
{
    std::optional<hw::Topology> topo = api::topologyFromName(name);
    if (!topo)
        usage("--topology must be dgx1, dgx2 or a cluster preset"
              " (e.g. 2x-dgx2)");
    return *topo;
}

namespace cl = mpress::cluster;

std::string readFile(const std::string &path, const char *what);

/**
 * Resolve --cluster: a preset name or a JSON spec file, gated by
 * verify::verifyClusterSpec exactly like --faults gates scenarios —
 * findings go to stderr and a rejected spec exits 3 without building
 * anything.
 */
hw::Topology
parseCluster(const std::string &arg)
{
    cl::ClusterSpec spec;
    if (std::optional<cl::ClusterSpec> preset =
            cl::clusterByName(arg)) {
        spec = *preset;
    } else {
        cl::ParsedClusterSpec parsed = cl::parseClusterSpec(
            readFile(arg, "cannot read --cluster file"));
        if (!parsed.ok) {
            std::fprintf(stderr,
                         "mpress_cli: bad cluster spec: %s\n",
                         parsed.error.c_str());
            std::exit(1);
        }
        spec = parsed.spec;
    }
    vf::Report report = vf::verifyClusterSpec(spec);
    if (!report.clean())
        std::fputs(report.render().c_str(), stderr);
    if (!report.ok()) {
        std::fprintf(stderr, "cluster spec \"%s\" rejected: %s\n",
                     spec.name.c_str(), report.summary().c_str());
        std::exit(3);
    }
    return cl::buildCluster(spec);
}

/** One sweep scenario: the base CLI options overridden by one spec
 *  object's fields. */
struct Scenario
{
    std::string name;
    std::string model, system, strategy, topology, verifyMode;
    int microbatch, mbPerMini, minibatches;
};

/** Parse the --sweep spec; exits with a message on malformed input. */
std::vector<Scenario>
parseSweepSpec(const std::string &path, const Scenario &defaults)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read --sweep file");
    std::stringstream buf;
    buf << in.rdbuf();
    mu::ParsedJson doc = mu::jsonParse(buf.str());
    if (!doc.ok) {
        std::fprintf(stderr, "mpress_cli: bad sweep spec: %s\n",
                     doc.error.c_str());
        std::exit(1);
    }
    const mu::JsonValue *list = doc.value.find("scenarios");
    if (!list || !list->isArray() || list->items().empty())
        usage("sweep spec needs a non-empty \"scenarios\" array");

    std::vector<Scenario> out;
    for (const auto &item : list->items()) {
        if (!item.isObject())
            usage("every sweep scenario must be a JSON object");
        Scenario s = defaults;
        s.model = item.stringOr("model", defaults.model);
        s.system = item.stringOr("system", defaults.system);
        s.strategy = item.stringOr("strategy", defaults.strategy);
        s.topology = item.stringOr("topology", defaults.topology);
        s.verifyMode =
            item.stringOr("verifyMode", defaults.verifyMode);
        s.microbatch = static_cast<int>(item.numberOr(
            "microbatch", defaults.microbatch));
        s.mbPerMini = static_cast<int>(
            item.numberOr("mbPerMini", defaults.mbPerMini));
        s.minibatches = static_cast<int>(item.numberOr(
            "minibatches", defaults.minibatches));
        s.name = item.stringOr(
            "name", s.model + "/" + s.system + "/" + s.strategy +
                        "/" + s.topology);
        out.push_back(std::move(s));
    }
    return out;
}

/** Run every scenario across the pool; rows come back in spec order
 *  regardless of which worker finished first. */
std::vector<mpress::obs::SweepRow>
runSweep(const std::vector<Scenario> &scenarios, int threads)
{
    std::vector<mpress::obs::SweepRow> rows(scenarios.size());
    mu::ThreadPool pool(threads);
    pool.parallelFor(scenarios.size(), [&](std::size_t i) {
        const Scenario &s = scenarios[i];
        // Each scenario builds its own topology and session; the
        // planner inside runs serially — the sweep parallelizes
        // across scenarios, not within one.
        hw::Topology topo = parseTopology(s.topology);
        api::SessionConfig cfg;
        cfg.planner.threads = 1;
        cfg.model = mm::presetByName(s.model);
        cfg.microbatch = s.microbatch;
        cfg.system = parseSystem(s.system);
        cfg.numStages = topo.numGpus();
        cfg.microbatchesPerMinibatch = s.mbPerMini;
        cfg.minibatches = s.minibatches;
        cfg.strategy = parseStrategy(s.strategy);
        cfg.verifyMode = parseVerifyMode(s.verifyMode);

        auto t0 = std::chrono::steady_clock::now();
        api::SessionResult result = api::runSession(topo, cfg);
        auto t1 = std::chrono::steady_clock::now();

        mpress::obs::SweepRow &row = rows[i];
        row.name = s.name;
        row.model = s.model;
        row.system = s.system;
        row.strategy = s.strategy;
        row.topology = s.topology;
        row.oom = result.oom;
        row.rejected = result.rejected;
        row.samplesPerSec = result.samplesPerSec;
        row.tflops = result.tflops;
        row.maxGpuPeak = result.maxGpuPeak;
        row.planIterations = result.planResult.iterations;
        row.planMs =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
    });
    return rows;
}

/** Slurp @p path; exits with @p what in the message on failure. */
std::string
readFile(const std::string &path, const char *what)
{
    std::ifstream in(path);
    if (!in)
        usage(what);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Statically verify @p scenario; prints findings and exits 3 when
 *  the schedule is rejected. */
void
gateScenario(const hw::Topology &topo, const ft::Scenario &scenario)
{
    vf::Report report = vf::verifyScenario(topo, scenario);
    if (!report.clean())
        std::fputs(report.render().c_str(), stderr);
    if (!report.ok()) {
        std::fprintf(stderr,
                     "fault scenario \"%s\" rejected: %s\n",
                     scenario.name.c_str(),
                     report.summary().c_str());
        std::exit(3);
    }
}

/** One-line resilience digest after a fault-injected run. */
void
printFaultSummary(const rt::FaultSummary &f)
{
    std::printf("faults: %d failed transfers, %d retries,"
                " %d swap fallbacks, %d recompute fallbacks,"
                " %d straggled tasks, %d pressure windows\n",
                f.transferFailures, f.retries, f.fallbackGpuCpuSwap,
                f.fallbackRecompute, f.straggledTasks,
                f.hostPressureEvents);
    std::printf("faults: %d healthy minibatches (%.1f samples/s),"
                " %d degraded (%.1f samples/s)\n",
                f.healthyMinibatches, f.healthySamplesPerSec,
                f.degradedMinibatches, f.degradedSamplesPerSec);
}

/** Flatten the planner's robustness rows into the exporter shape. */
std::vector<mpress::obs::RobustnessRow>
toObsRows(const std::vector<mpress::planner::RobustnessRow> &rows)
{
    std::vector<mpress::obs::RobustnessRow> out;
    out.reserve(rows.size());
    for (const auto &r : rows) {
        mpress::obs::RobustnessRow o;
        o.scenario = r.scenario;
        o.oom = r.report.oom;
        o.samplesPerSec = r.report.samplesPerSec;
        o.throughputRatio = r.throughputRatio;
        o.transferFailures = r.report.faults.transferFailures;
        o.retries = r.report.faults.retries;
        o.fallbackGpuCpuSwap = r.report.faults.fallbackGpuCpuSwap;
        o.fallbackRecompute = r.report.faults.fallbackRecompute;
        o.straggledTasks = r.report.faults.straggledTasks;
        o.hostPressureEvents = r.report.faults.hostPressureEvents;
        out.push_back(std::move(o));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model = "bert-0.64b";
    std::string system = "pipedream";
    std::string strategy = "mpress";
    std::string topology = "dgx1";
    std::string save_plan, load_plan, timeline, metrics;
    std::string sweep, sweep_out, sweep_csv;
    std::string faults, robustness, robustness_out, robustness_csv;
    std::string cluster_arg;
    std::string verify_mode = "permissive";
    int microbatch = 12, mb_per_mini = 8, minibatches = 2;
    int threads = mu::ThreadPool::hardwareThreads();
    bool fault_ladder = true;
    bool analyze = false;
    bool portfolio = false;
    double deadline_ms = 0.0;

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage(flag);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--model"))
            model = need("--model needs a value");
        else if (!std::strcmp(argv[i], "--system"))
            system = need("--system needs a value");
        else if (!std::strcmp(argv[i], "--strategy"))
            strategy = need("--strategy needs a value");
        else if (!std::strcmp(argv[i], "--topology"))
            topology = need("--topology needs a value");
        else if (!std::strcmp(argv[i], "--cluster"))
            cluster_arg = need("--cluster needs a value");
        else if (!std::strcmp(argv[i], "--microbatch"))
            microbatch =
                parseIntFlag("--microbatch", need("--microbatch"));
        else if (!std::strcmp(argv[i], "--mb-per-mini"))
            mb_per_mini =
                parseIntFlag("--mb-per-mini", need("--mb-per-mini"));
        else if (!std::strcmp(argv[i], "--minibatches"))
            minibatches =
                parseIntFlag("--minibatches", need("--minibatches"));
        else if (!std::strcmp(argv[i], "--threads"))
            threads = parseIntFlag("--threads", need("--threads"));
        else if (!std::strcmp(argv[i], "--sweep"))
            sweep = need("--sweep");
        else if (!std::strcmp(argv[i], "--sweep-out"))
            sweep_out = need("--sweep-out");
        else if (!std::strcmp(argv[i], "--sweep-csv"))
            sweep_csv = need("--sweep-csv");
        else if (!std::strcmp(argv[i], "--save-plan"))
            save_plan = need("--save-plan");
        else if (!std::strcmp(argv[i], "--load-plan"))
            load_plan = need("--load-plan");
        else if (!std::strcmp(argv[i], "--verify-mode"))
            verify_mode = need("--verify-mode");
        else if (!std::strcmp(argv[i], "--timeline"))
            timeline = need("--timeline");
        else if (!std::strcmp(argv[i], "--metrics"))
            metrics = need("--metrics");
        else if (!std::strcmp(argv[i], "--faults"))
            faults = need("--faults");
        else if (!std::strcmp(argv[i], "--no-fault-ladder"))
            fault_ladder = false;
        else if (!std::strcmp(argv[i], "--analyze"))
            analyze = true;
        else if (!std::strcmp(argv[i], "--portfolio"))
            portfolio = true;
        else if (!std::strcmp(argv[i], "--deadline-ms"))
            deadline_ms = parseDoubleFlag("--deadline-ms",
                                          need("--deadline-ms"));
        else if (!std::strcmp(argv[i], "--robustness"))
            robustness = need("--robustness");
        else if (!std::strcmp(argv[i], "--robustness-out"))
            robustness_out = need("--robustness-out");
        else if (!std::strcmp(argv[i], "--robustness-csv"))
            robustness_csv = need("--robustness-csv");
        else
            usage("unknown option");
    }

    if (threads < 1)
        usage("--threads must be >= 1");
    // A robustness matrix and a sweep write their own reports, not
    // the trace or metrics of one run.
    if ((!timeline.empty() || !metrics.empty()) &&
        (!robustness.empty() || !sweep.empty()))
        usage("--timeline and --metrics do not combine with"
              " --robustness or --sweep");

    if (!sweep.empty()) {
        Scenario defaults{"",         model,      system,
                          strategy,   topology,   verify_mode,
                          microbatch, mb_per_mini, minibatches};
        auto scenarios = parseSweepSpec(sweep, defaults);
        auto rows = runSweep(scenarios, threads);
        if (!sweep_csv.empty()) {
            std::ofstream out(sweep_csv);
            mpress::obs::exportSweepCsv(out, rows);
            std::fprintf(stderr, "sweep CSV written to %s\n",
                         sweep_csv.c_str());
        }
        if (!sweep_out.empty()) {
            std::ofstream out(sweep_out);
            mpress::obs::exportSweepJson(out, rows);
            out << "\n";
            std::fprintf(stderr, "sweep report written to %s\n",
                         sweep_out.c_str());
        } else {
            std::stringstream report;
            mpress::obs::exportSweepJson(report, rows);
            std::printf("%s\n", report.str().c_str());
        }
        return 0;
    }

    hw::Topology topo = cluster_arg.empty()
                            ? parseTopology(topology)
                            : parseCluster(cluster_arg);

    api::SessionConfig cfg;
    cfg.model = mm::presetByName(model);
    cfg.microbatch = microbatch;
    cfg.system = parseSystem(system);
    cfg.numStages = topo.numGpus();
    cfg.microbatchesPerMinibatch = mb_per_mini;
    cfg.minibatches = minibatches;
    cfg.strategy = parseStrategy(strategy);
    cfg.verifyMode = parseVerifyMode(verify_mode);
    cfg.planner.threads = threads;
    cfg.planner.portfolio = portfolio;
    cfg.planner.deadlineMs = deadline_ms;
    if (deadline_ms < 0)
        usage("--deadline-ms must be >= 0");
    cfg.executor.record = !timeline.empty() || !metrics.empty();
    cfg.executor.faultLadder = fault_ladder;

    // The scenario must outlive every executor that reads it
    // (ExecutorConfig::faults is non-owning).
    ft::Scenario scenario;
    if (!faults.empty()) {
        if (!robustness.empty())
            usage("--faults and --robustness are exclusive");
        ft::ParsedScenario parsed = ft::parseScenario(
            readFile(faults, "cannot read --faults file"));
        if (!parsed.ok) {
            std::fprintf(stderr, "mpress_cli: bad fault spec: %s\n",
                         parsed.error.c_str());
            return 1;
        }
        scenario = parsed.scenario;
        gateScenario(topo, scenario);
        cfg.executor.faults = &scenario;
    }

    if (!robustness.empty()) {
        if (cfg.strategy == api::Strategy::ZeroOffload ||
            cfg.strategy == api::Strategy::ZeroInfinity)
            usage("--robustness needs a pipeline strategy");
        ft::ParsedScenarioMatrix matrix = ft::parseScenarioMatrix(
            readFile(robustness, "cannot read --robustness file"));
        if (!matrix.ok) {
            std::fprintf(stderr,
                         "mpress_cli: bad robustness spec: %s\n",
                         matrix.error.c_str());
            return 1;
        }
        if (matrix.scenarios.empty())
            usage("robustness spec has no scenarios");
        for (const auto &s : matrix.scenarios)
            gateScenario(topo, s);

        // Plan (and baseline) fault-free, then replay the finished
        // plan under every scenario across the pool.
        api::MPressSession session(topo, cfg);
        api::SessionResult planned = session.run();
        if (planned.rejected) {
            std::fputs(planned.verification.render().c_str(),
                       stderr);
            return 3;
        }
        mu::PoolLease lease(threads);
        mpress::planner::SearchDriver driver(
            topo, session.model(), session.partition(),
            session.schedule(), cfg.executor, lease.pool());
        mpress::planner::RobustnessResult rr =
            driver.evaluateRobustness(planned.plan,
                                      matrix.scenarios);

        mpress::obs::RobustnessSummary summary;
        summary.baselineSamplesPerSec = rr.baseline.samplesPerSec;
        summary.worst = rr.worst;
        summary.p10 = rr.p10;
        summary.p50 = rr.p50;
        auto rows = toObsRows(rr.rows);
        if (!robustness_csv.empty()) {
            std::ofstream out(robustness_csv);
            mpress::obs::exportRobustnessCsv(out, rows);
            std::fprintf(stderr, "robustness CSV written to %s\n",
                         robustness_csv.c_str());
        }
        if (!robustness_out.empty()) {
            std::ofstream out(robustness_out);
            mpress::obs::exportRobustnessJson(out, summary, rows);
            out << "\n";
            std::fprintf(stderr, "robustness report written to %s\n",
                         robustness_out.c_str());
        } else {
            std::stringstream report;
            mpress::obs::exportRobustnessJson(report, summary, rows);
            std::printf("%s\n", report.str().c_str());
        }
        std::fprintf(stderr,
                     "robustness over %zu scenarios: worst %.2f,"
                     " p10 %.2f, p50 %.2f of baseline\n",
                     matrix.scenarios.size(), rr.worst, rr.p10,
                     rr.p50);
        return 0;
    }

    api::SessionResult result;
    if (!load_plan.empty()) {
        // Run the saved plan directly through the executor.
        std::ifstream in(load_plan);
        if (!in)
            usage("cannot read --load-plan file");
        std::stringstream buf;
        buf << in.rdbuf();
        auto parsed = cp::planFromText(buf.str());
        if (!parsed.ok) {
            std::fprintf(stderr, "bad plan: %s\n",
                         parsed.error.c_str());
            return 1;
        }
        api::MPressSession session(topo, cfg);
        if (cfg.verifyMode != api::VerifyMode::Off) {
            result.verification = session.verifyPlan(parsed.plan);
            if (!result.verification.clean())
                std::fputs(result.verification.render().c_str(),
                           stderr);
            if (!result.verification.ok()) {
                std::fprintf(stderr, "plan rejected: %s\n",
                             result.verification.summary().c_str());
                return 3;
            }
        }
        result.plan = parsed.plan;
        result.report = rt::runTraining(
            topo, session.model(), session.partition(),
            session.schedule(), parsed.plan, cfg.executor);
        result.oom = result.report.oom;
        result.samplesPerSec = result.report.samplesPerSec;
        result.tflops = result.report.tflops;
        result.maxGpuPeak = result.report.maxGpuPeak();
        result.name = model + "/" + system + "/loaded-plan";
    } else {
        result = api::runSession(topo, cfg);
        if (result.rejected) {
            std::fputs(result.verification.render().c_str(), stderr);
            std::fprintf(stderr, "plan rejected: %s\n",
                         result.verification.summary().c_str());
            return 3;
        }
    }

    std::printf("%s on %s: ", result.name.c_str(),
                topo.name().c_str());
    if (result.oom) {
        std::printf("OOM (gpu %d)\n", result.report.oomGpu);
        if (result.report.faults.enabled)
            printFaultSummary(result.report.faults);
        return 2;
    }
    std::printf("%.1f samples/s, %.1f TFLOPS, max GPU peak %s\n",
                result.samplesPerSec, result.tflops,
                mu::formatBytes(result.maxGpuPeak).c_str());
    if (result.report.faults.enabled)
        printFaultSummary(result.report.faults);

    if (!result.planResult.strategyStats.empty()) {
        for (std::size_t i = 0;
             i < result.planResult.strategyStats.size(); ++i) {
            const auto &s = result.planResult.strategyStats[i];
            std::printf(
                "strategy %zu %-16s %3llu trials, %2llu commits, "
                "best %.1f samples/s%s%s\n",
                i, s.name.c_str(),
                static_cast<unsigned long long>(s.proposed),
                static_cast<unsigned long long>(s.committed),
                s.bestScore,
                static_cast<int>(i) ==
                        result.planResult.winnerStrategy
                    ? " [winner]"
                    : "",
                s.exhausted ? "" : " (cut off by deadline)");
        }
    }

    if (analyze) {
        // ZeRO baselines carry no plan to analyze.
        if (cfg.strategy == api::Strategy::ZeroOffload ||
            cfg.strategy == api::Strategy::ZeroInfinity) {
            std::fprintf(stderr,
                         "--analyze needs a pipeline strategy\n");
        } else {
            api::MPressSession session(topo, cfg);
            std::fputs(
                session.analyzePlan(result.plan).render().c_str(),
                stdout);
        }
    }
    if (!save_plan.empty()) {
        std::ofstream out(save_plan);
        out << cp::planToText(result.plan);
        std::printf("plan written to %s\n", save_plan.c_str());
    }
    if (!timeline.empty()) {
        std::ofstream out(timeline);
        result.report.trace.exportChromeTrace(out);
        std::printf("trace written to %s\n", timeline.c_str());
    }
    if (!metrics.empty()) {
        std::ofstream out(metrics);
        mpress::obs::exportJson(out, result.report.observability);
        out << "\n";
        std::printf("metrics written to %s\n", metrics.c_str());
    }
    return 0;
}
