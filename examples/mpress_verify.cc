/**
 * @file
 * mpress_verify — static plan checker ("linter") CLI.
 *
 * Verifies a serialized compaction plan against a job description
 * without running the simulator, printing the diagnostic table on any
 * findings:
 *
 *   mpress_verify --plan <file> [options]
 *     --plan <file>           plan to check (required; plan format)
 *     --model <preset>        bert-0.35b..gpt3-175b [bert-0.64b]
 *     --system <name>         pipedream|dapple|gpipe [pipedream]
 *     --topology <name>       dgx1|dgx2            [dgx1]
 *     --microbatch <n>        per-microbatch samples [12]
 *     --mb-per-mini <n>       microbatches per minibatch [8]
 *     --minibatches <n>       training window length [2]
 *     --strict                promote warnings to errors
 *     --analyze               also run the static plan analyzer:
 *                             prints the certificate (per-GPU
 *                             peak-memory intervals, latency lower
 *                             bound, throughput upper bound) and adds
 *                             the cap-unproven rule to the
 *                             verification pass
 *
 * Exit status: 0 when the plan verifies clean of errors, 3 when it is
 * rejected, 1 on usage errors.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "api/session.hh"
#include "compaction/serialize.hh"

namespace api = mpress::api;
namespace cp = mpress::compaction;
namespace hw = mpress::hw;
namespace mm = mpress::model;
namespace pl = mpress::pipeline;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr, "mpress_verify: %s (see file header for"
                         " options)\n",
                 msg);
    std::exit(1);
}

pl::SystemKind
parseSystem(const std::string &name)
{
    if (name == "pipedream")
        return pl::SystemKind::PipeDream;
    if (name == "dapple")
        return pl::SystemKind::Dapple;
    if (name == "gpipe")
        return pl::SystemKind::Gpipe;
    usage("unknown --system");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string model = "bert-0.64b";
    std::string system = "pipedream";
    std::string topology = "dgx1";
    std::string plan_file;
    int microbatch = 12, mb_per_mini = 8, minibatches = 2;
    bool strict = false;
    bool analyze = false;

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                usage(flag);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--plan"))
            plan_file = need("--plan needs a value");
        else if (!std::strcmp(argv[i], "--model"))
            model = need("--model needs a value");
        else if (!std::strcmp(argv[i], "--system"))
            system = need("--system needs a value");
        else if (!std::strcmp(argv[i], "--topology"))
            topology = need("--topology needs a value");
        else if (!std::strcmp(argv[i], "--microbatch"))
            microbatch = std::stoi(need("--microbatch"));
        else if (!std::strcmp(argv[i], "--mb-per-mini"))
            mb_per_mini = std::stoi(need("--mb-per-mini"));
        else if (!std::strcmp(argv[i], "--minibatches"))
            minibatches = std::stoi(need("--minibatches"));
        else if (!std::strcmp(argv[i], "--strict"))
            strict = true;
        else if (!std::strcmp(argv[i], "--analyze"))
            analyze = true;
        else
            usage("unknown option");
    }
    if (plan_file.empty())
        usage("--plan is required");

    hw::Topology topo = topology == "dgx2"
                            ? hw::Topology::dgx2A100()
                            : hw::Topology::dgx1V100();
    if (topology != "dgx1" && topology != "dgx2")
        usage("--topology must be dgx1 or dgx2");

    std::ifstream in(plan_file);
    if (!in)
        usage("cannot read --plan file");
    std::stringstream buf;
    buf << in.rdbuf();
    auto parsed = cp::planFromText(buf.str());
    if (!parsed.ok) {
        std::fprintf(stderr, "bad plan: %s\n", parsed.error.c_str());
        return 3;
    }

    api::SessionConfig cfg;
    cfg.model = mm::presetByName(model);
    cfg.microbatch = microbatch;
    cfg.system = parseSystem(system);
    cfg.numStages = topo.numGpus();
    cfg.microbatchesPerMinibatch = mb_per_mini;
    cfg.minibatches = minibatches;
    cfg.verifyMode = strict ? api::VerifyMode::Strict
                            : api::VerifyMode::Permissive;
    cfg.verifyOptions.analysis = analyze;

    api::MPressSession session(topo, cfg);
    if (analyze)
        std::fputs(session.analyzePlan(parsed.plan).render().c_str(),
                   stdout);
    auto report = session.verifyPlan(parsed.plan);
    if (!report.clean())
        std::fputs(report.render().c_str(), stdout);
    std::printf("%s: %s\n", plan_file.c_str(),
                report.summary().c_str());
    return report.ok() ? 0 : 3;
}
