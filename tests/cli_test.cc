/**
 * @file
 * Regression tests driving the real mpress_cli binary (path injected
 * as MPRESS_CLI_PATH at compile time).
 *
 * The exit-code contract is part of the CLI's interface:
 *   0  success
 *   1  usage/spec errors (unknown flag, unknown name)
 *   2  malformed flag *value* — the bug class this pins: a numeric
 *      flag that does not parse used to throw std::invalid_argument
 *      out of std::stoi and crash with an uncaught exception
 *   3  plan rejected by verification
 *
 * The serve/CLI byte-identity acceptance also lives here: a plan
 * served over the daemon socket must equal, byte for byte, what
 * `mpress_cli --save-plan` writes for the same job.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

#include <gtest/gtest.h>

#include "serve/client.hh"
#include "serve/server.hh"
#include "util/json.hh"

namespace mu = mpress::util;
namespace sv = mpress::serve;

namespace {

struct RunResult
{
    int exitCode = -1;
    std::string output;  ///< stdout + stderr, interleaved
};

/** Run the CLI with @p args, capturing output and exit status. */
RunResult
runCli(const std::string &args)
{
    RunResult res;
    std::string cmd =
        std::string(MPRESS_CLI_PATH) + " " + args + " 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    if (p == nullptr) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return res;
    }
    char buf[512];
    while (std::fgets(buf, sizeof buf, p) != nullptr)
        res.output += buf;
    int status = ::pclose(p);
    if (WIFEXITED(status))
        res.exitCode = WEXITSTATUS(status);
    return res;
}

/** The whole contents of @p path (empty when unreadable). */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

TEST(CliExitCodes, MalformedIntFlagValueExits2)
{
    // Each of these used to throw std::invalid_argument /
    // std::out_of_range from std::stoi and die with SIGABRT.
    for (const char *args :
         {"--microbatch banana", "--microbatch ''",
          "--microbatch 2x", "--microbatch 99999999999999999999",
          "--mb-per-mini 1.5", "--minibatches --threads",
          "--threads 0x10"}) {
        RunResult res = runCli(args);
        EXPECT_EQ(res.exitCode, 2) << args << "\n" << res.output;
        EXPECT_NE(res.output.find("malformed value"),
                  std::string::npos)
            << args << "\n" << res.output;
    }
}

TEST(CliExitCodes, MalformedDoubleFlagValueExits2)
{
    for (const char *args :
         {"--deadline-ms soon", "--deadline-ms 1e999",
          "--deadline-ms nan", "--deadline-ms 5ms"}) {
        RunResult res = runCli(args);
        EXPECT_EQ(res.exitCode, 2) << args << "\n" << res.output;
    }
}

TEST(CliExitCodes, UsageErrorsExit1)
{
    EXPECT_EQ(runCli("--frobnicate").exitCode, 1);
    EXPECT_EQ(runCli("--model").exitCode, 1);          // missing value
    EXPECT_EQ(runCli("--strategy warp-drive").exitCode, 1);
    EXPECT_EQ(runCli("--topology dgx9").exitCode, 1);
    EXPECT_EQ(runCli("--threads 0").exitCode, 1);      // parses, invalid
    EXPECT_EQ(runCli("--deadline-ms -1").exitCode, 1); // parses, invalid

    // A robustness matrix or a sweep writes its own report, never a
    // run's trace or metrics, so either output flag is refused there.
    // The specs are valid: without the output flags both modes run.
    const std::string dir = ::testing::TempDir() + "cli_usage_";
    std::ofstream(dir + "matrix.json")
        << R"({"scenarios":[{"name":"slow","seed":1,"events":[)"
           R"({"type":"gpu-straggle","start_ms":0,"end_ms":1000,)"
           R"("gpu":0,"factor":0.5}]}]})";
    std::ofstream(dir + "sweep.json")
        << R"({"scenarios":[{"model":"bert-0.35b",)"
           R"("strategy":"recompute","minibatches":1,"mbPerMini":2}]})";
    const std::string robustness =
        "--model bert-0.35b --minibatches 1 --mb-per-mini 2"
        " --robustness " + dir + "matrix.json";
    const std::string sweep = "--sweep " + dir + "sweep.json";
    for (const std::string &mode : {robustness, sweep}) {
        for (const char *flag : {" --timeline ", " --metrics "}) {
            RunResult res = runCli(mode + flag + dir + "out.json");
            EXPECT_EQ(res.exitCode, 1) << mode << flag << res.output;
            EXPECT_NE(res.output.find("do not combine"),
                      std::string::npos)
                << res.output;
        }
    }
    std::remove((dir + "matrix.json").c_str());
    std::remove((dir + "sweep.json").c_str());
}

TEST(CliExitCodes, WellFormedRunExits0)
{
    RunResult res = runCli(
        "--model bert-0.35b --strategy recompute --minibatches 1"
        " --mb-per-mini 2");
    EXPECT_EQ(res.exitCode, 0) << res.output;
    EXPECT_NE(res.output.find("samples/s"), std::string::npos);
}

TEST(CliRecording, TimelineAloneCarriesCounterTracks)
{
    // Either output flag records the whole run, so a trace written
    // without --metrics still carries the memory and metric counter
    // tracks beside the spans.
    std::string trace = ::testing::TempDir() + "cli_timeline_only.json";
    RunResult res = runCli("--model bert-0.35b --mb-per-mini 2"
                           " --timeline " + trace);
    ASSERT_EQ(res.exitCode, 0) << res.output;
    std::string text = readFile(trace);
    std::remove(trace.c_str());
    mu::ParsedJson doc = mu::jsonParse(text);
    ASSERT_TRUE(doc.ok) << doc.error;
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
}

TEST(CliRecording, PlannedRunWritesWhatItsPlanReplays)
{
    // The planner plans unrecorded and the session replays the
    // finished plan once, so a planning run writes the same trace and
    // metrics as a --load-plan replay of the plan it saved.
    const std::string dir = ::testing::TempDir() + "cli_recording_";
    const std::string job =
        "--model bert-1.67b --microbatch 8 --mb-per-mini 6";
    RunResult planned =
        runCli(job + " --save-plan " + dir + "plan.txt --timeline " +
               dir + "t1.json --metrics " + dir + "m1.json");
    ASSERT_EQ(planned.exitCode, 0) << planned.output;
    RunResult replayed =
        runCli(job + " --load-plan " + dir + "plan.txt --timeline " +
               dir + "t2.json --metrics " + dir + "m2.json");
    ASSERT_EQ(replayed.exitCode, 0) << replayed.output;
    const std::string t1 = readFile(dir + "t1.json");
    const std::string m1 = readFile(dir + "m1.json");
    EXPECT_NE(t1.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(m1.find("\"utilization\""), std::string::npos);
    EXPECT_EQ(t1, readFile(dir + "t2.json"));
    EXPECT_EQ(m1, readFile(dir + "m2.json"));
    for (const char *f : {"plan.txt", "t1.json", "m1.json", "t2.json",
                          "m2.json"})
        std::remove((dir + f).c_str());
}

TEST(ServeCliParity, ServedPlanEqualsSavedPlanBytes)
{
    // The acceptance contract of the daemon: a plan served over the
    // socket is byte-identical to what the CLI writes for the same
    // job (both go through the identical api:: parse + plan path,
    // and the daemon's resident cache may only change wall-clock).
    std::string plan_file =
        ::testing::TempDir() + "serve_cli_parity_plan.txt";
    RunResult cli = runCli("--save-plan " + plan_file);
    ASSERT_EQ(cli.exitCode, 0) << cli.output;
    std::string cli_plan = readFile(plan_file);
    ASSERT_FALSE(cli_plan.empty());
    std::remove(plan_file.c_str());

    sv::Server server({});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    sv::Client client;
    ASSERT_TRUE(client.connect(server.port(), &error)) << error;
    std::string response;
    ASSERT_TRUE(client.call("{\"op\":\"plan\",\"id\":\"parity\"}",
                            &response, &error))
        << error;
    server.stop();

    mu::ParsedJson doc = mu::jsonParse(response);
    ASSERT_TRUE(doc.ok) << doc.error;
    ASSERT_TRUE(doc.value.boolOr("ok", false)) << response;
    const mu::JsonValue *result = doc.value.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->stringOr("planText", "<missing>"), cli_plan);
}
