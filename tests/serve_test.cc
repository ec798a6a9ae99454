/**
 * @file
 * Tests for the planning daemon (src/serve/): the wire protocol's
 * typed-error hardening, request/CLI plan equivalence, the resident
 * cross-request trial cache, bounded admission, the per-request
 * anytime deadline, and daemon lifecycle.  Every test runs a real
 * Server on an ephemeral 127.0.0.1 port and talks to it through the
 * blocking Client, so the socket path itself is under test.
 */

#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/session.hh"
#include "compaction/serialize.hh"
#include "model/model.hh"
#include "pipeline/schedule.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "util/json.hh"
#include "util/strings.hh"

namespace api = mpress::api;
namespace cp = mpress::compaction;
namespace mu = mpress::util;
namespace sv = mpress::serve;

namespace {

/** A started server + connected client, torn down in order. */
struct Harness
{
    sv::Server server;
    sv::Client client;

    explicit Harness(sv::ServerConfig cfg = {}) : server(std::move(cfg))
    {
        std::string error;
        if (!server.start(&error))
            ADD_FAILURE() << "server start failed: " << error;
        else if (!client.connect(server.port(), &error))
            ADD_FAILURE() << "client connect failed: " << error;
    }

    ~Harness()
    {
        client.close();
        server.stop();
    }

    /** One round trip, parsed; fails the test on transport errors. */
    mu::JsonValue call(const std::string &request)
    {
        std::string response, error;
        if (!client.call(request, &response, &error)) {
            ADD_FAILURE() << "call failed: " << error;
            return {};
        }
        mu::ParsedJson doc = mu::jsonParse(response);
        EXPECT_TRUE(doc.ok) << doc.error << " in: " << response;
        return doc.value;
    }
};

/** error.kind of a response (empty when the response is ok). */
std::string
errorKind(const mu::JsonValue &response)
{
    const mu::JsonValue *err = response.find("error");
    return err ? err->stringOr("kind", "") : "";
}

} // namespace

// ---------------------------------------------------------------
// Protocol hardening: hostile input gets typed errors, not crashes
// ---------------------------------------------------------------

TEST(ServeProtocol, TypedErrorsForHostileInput)
{
    Harness h;

    // Not JSON at all.
    EXPECT_EQ(errorKind(h.call("not json")), "parse-error");
    // Truncated document.
    EXPECT_EQ(errorKind(h.call("{\"op\":\"ping\"")), "parse-error");
    // A leading zero is not JSON.
    EXPECT_EQ(
        errorKind(h.call("{\"op\":\"plan\",\"microbatch\":012}")),
        "parse-error");
    // Valid JSON, wrong shape.
    EXPECT_EQ(errorKind(h.call("[1,2,3]")), "bad-request");
    EXPECT_EQ(errorKind(h.call("{\"op\":\"explode\"}")),
              "bad-request");
    EXPECT_EQ(errorKind(h.call("{}")), "bad-request");
    // Type confusion on a field.
    EXPECT_EQ(errorKind(h.call(
                  "{\"op\":\"plan\",\"microbatch\":\"12\"}")),
              "bad-request");
    EXPECT_EQ(
        errorKind(h.call("{\"op\":\"plan\",\"microbatch\":1.5}")),
        "bad-request");
    EXPECT_EQ(errorKind(h.call("{\"op\":\"plan\",\"id\":7}")),
              "bad-request");
    // Out-of-range resource asks.
    EXPECT_EQ(
        errorKind(h.call("{\"op\":\"plan\",\"minibatches\":1e9}")),
        "bad-request");
    EXPECT_EQ(
        errorKind(h.call("{\"op\":\"plan\",\"deadlineMs\":-1}")),
        "bad-request");

    // Nesting bomb: 64 levels against the 32-level default bound.
    std::string bomb = "{\"op\":";
    for (int i = 0; i < 64; ++i)
        bomb += "[";
    EXPECT_EQ(errorKind(h.call(bomb)), "parse-error");

    // The connection must survive all of the above.
    mu::JsonValue pong = h.call("{\"op\":\"ping\",\"id\":\"still\"}");
    EXPECT_TRUE(pong.boolOr("ok", false));
    EXPECT_EQ(pong.stringOr("id", ""), "still");
}

TEST(ServeProtocol, BadNamesRejectedAtExecution)
{
    Harness h;
    EXPECT_EQ(errorKind(h.call(
                  "{\"op\":\"plan\",\"model\":\"bert-999b\"}")),
              "bad-request");
    EXPECT_EQ(errorKind(h.call(
                  "{\"op\":\"plan\",\"topology\":\"tpu-pod\"}")),
              "bad-request");
    EXPECT_EQ(errorKind(h.call(
                  "{\"op\":\"plan\",\"strategy\":\"magic\"}")),
              "bad-request");
    EXPECT_EQ(errorKind(h.call(
                  "{\"op\":\"plan\",\"system\":\"megatron\"}")),
              "bad-request");
}

TEST(ServeProtocol, OversizedLineIsRejected)
{
    sv::ServerConfig cfg;
    cfg.requestLimits.maxBytes = 1024;
    Harness h(cfg);

    // A syntactically fine request padded past the byte bound.
    std::string fat = "{\"op\":\"ping\",\"id\":\"";
    fat += std::string(4096, 'x');
    fat += "\"}";
    mu::JsonValue resp = h.call(fat);
    EXPECT_EQ(errorKind(resp), "parse-error");
}

TEST(ServeProtocol, RequestIdEchoedOnErrors)
{
    Harness h;
    mu::JsonValue resp =
        h.call("{\"op\":\"plan\",\"id\":\"req-7\",\"threads\":0}");
    EXPECT_FALSE(resp.boolOr("ok", true));
    EXPECT_EQ(resp.stringOr("id", ""), "req-7");
}

TEST(ServeProtocol, ParseRequestDefaultsMatchCli)
{
    // The daemon's defaults must equal the mpress_cli flag defaults;
    // the byte-identity contract silently depends on it.
    sv::ParsedRequest parsed =
        sv::parseRequest("{\"op\":\"plan\"}");
    ASSERT_TRUE(parsed.ok);
    EXPECT_EQ(parsed.request.job.model, "bert-0.64b");
    EXPECT_EQ(parsed.request.job.topology, "dgx1");
    EXPECT_EQ(parsed.request.job.system, "pipedream");
    EXPECT_EQ(parsed.request.job.strategy, "mpress");
    EXPECT_EQ(parsed.request.job.verifyMode, "permissive");
    EXPECT_EQ(parsed.request.job.microbatch, 12);
    EXPECT_EQ(parsed.request.job.mbPerMini, 8);
    EXPECT_EQ(parsed.request.job.minibatches, 2);
    EXPECT_EQ(parsed.request.job.threads, 1);
    EXPECT_FALSE(parsed.request.job.portfolio);
    EXPECT_EQ(parsed.request.job.deadlineMs, 0.0);
}

TEST(ServeProtocol, UnknownJobFieldsAreIgnored)
{
    // Retired and misspelled job fields, at the top level or inside
    // "job", are ignored: the request plans exactly the job it would
    // plan without them, so old clients keep working when a field
    // is removed.
    sv::ParsedRequest top =
        sv::parseRequest("{\"op\":\"plan\",\"noSuchField\":true}");
    ASSERT_TRUE(top.ok) << top.error;
    EXPECT_EQ(top.request.job.model, "bert-0.64b");
    Harness h;
    mu::JsonValue with = h.call(
        "{\"op\":\"plan\",\"id\":\"w\",\"job\":{\"model\":"
        "\"bert-0.35b\",\"noSuchField\":true}}");
    mu::JsonValue without = h.call(
        "{\"op\":\"plan\",\"id\":\"o\",\"job\":{\"model\":"
        "\"bert-0.35b\"}}");
    ASSERT_TRUE(with.boolOr("ok", false)) << errorKind(with);
    ASSERT_TRUE(without.boolOr("ok", false)) << errorKind(without);
    const mu::JsonValue *rw = with.find("result");
    const mu::JsonValue *ro = without.find("result");
    ASSERT_NE(rw, nullptr);
    ASSERT_NE(ro, nullptr);
    EXPECT_EQ(rw->stringOr("planText", "1"),
              ro->stringOr("planText", "2"));
    EXPECT_EQ(rw->numberOr("samplesPerSec", -1.0),
              ro->numberOr("samplesPerSec", -2.0));
}

TEST(ServeProtocol, NestedJobObjectIsHonored)
{
    // The canonical request shape nests job fields under "job".
    // Regression: these used to be read off the top level only, so
    // a nested spec silently planned the *default* job.
    sv::ParsedRequest parsed = sv::parseRequest(
        "{\"op\":\"plan\",\"job\":{\"model\":\"bert-0.35b\","
        "\"strategy\":\"recompute\",\"threads\":2,"
        "\"minibatches\":4}}");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.request.job.model, "bert-0.35b");
    EXPECT_EQ(parsed.request.job.strategy, "recompute");
    EXPECT_EQ(parsed.request.job.threads, 2);
    EXPECT_EQ(parsed.request.job.minibatches, 4);
    // Unset nested fields keep their defaults.
    EXPECT_EQ(parsed.request.job.topology, "dgx1");
    EXPECT_EQ(parsed.request.job.microbatch, 12);

    // Malformed values inside "job" are typed errors, never a
    // fall-through to defaults.
    EXPECT_FALSE(sv::parseRequest(
                     "{\"op\":\"plan\",\"job\":{\"threads\":"
                     "\"banana\"}}")
                     .ok);
    EXPECT_FALSE(
        sv::parseRequest(
            "{\"op\":\"plan\",\"job\":{\"threads\":0}}")
            .ok);
    // A present-but-non-object "job" is rejected outright.
    sv::ParsedRequest bad =
        sv::parseRequest("{\"op\":\"plan\",\"job\":7}");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.errorKind, sv::ErrorKind::BadRequest);
}

TEST(ServePlan, NestedJobPlansTheRequestedModel)
{
    // End to end: the nested spec must reach the planner (a
    // different model produces a different result name).
    Harness h;
    mu::JsonValue resp = h.call(
        "{\"op\":\"plan\",\"id\":\"nested\",\"job\":{\"model\":"
        "\"bert-0.35b\",\"strategy\":\"recompute\"}}");
    ASSERT_TRUE(resp.boolOr("ok", false));
    const mu::JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_NE(result->stringOr("name", "").find("bert-0.35b"),
              std::string::npos)
        << result->stringOr("name", "<missing>");
}

// ---------------------------------------------------------------
// Served plans: identical to the library (= CLI) path, cached
// across requests
// ---------------------------------------------------------------

namespace {

/** The library-path session the daemon must reproduce bit-for-bit
 *  for the default request (also exactly what mpress_cli runs). */
api::SessionResult
defaultJobDirect()
{
    auto topo = *api::topologyFromName("dgx1");
    api::SessionConfig cfg;
    cfg.model = mpress::model::presetByName("bert-0.64b");
    cfg.microbatch = 12;
    cfg.system = mpress::pipeline::SystemKind::PipeDream;
    cfg.numStages = topo.numGpus();
    cfg.microbatchesPerMinibatch = 8;
    cfg.minibatches = 2;
    cfg.strategy = api::Strategy::MPressFull;
    return api::runSession(topo, cfg);
}

} // namespace

TEST(ServePlan, ServedPlanMatchesLibraryPathByteForByte)
{
    Harness h;
    mu::JsonValue resp = h.call("{\"op\":\"plan\",\"id\":\"p\"}");
    ASSERT_TRUE(resp.boolOr("ok", false));
    const mu::JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);

    api::SessionResult direct = defaultJobDirect();
    EXPECT_EQ(result->stringOr("planText", "<missing>"),
              cp::planToText(direct.plan));
    EXPECT_EQ(result->numberOr("samplesPerSec", -1.0),
              direct.samplesPerSec);
    EXPECT_EQ(result->numberOr("tflops", -1.0), direct.tflops);
    EXPECT_FALSE(result->boolOr("oom", true));
}

TEST(ServePlan, RepeatedRequestHitsResidentCache)
{
    Harness h;
    mu::JsonValue first = h.call("{\"op\":\"plan\",\"id\":\"a\"}");
    mu::JsonValue second = h.call("{\"op\":\"plan\",\"id\":\"b\"}");
    ASSERT_TRUE(first.boolOr("ok", false));
    ASSERT_TRUE(second.boolOr("ok", false));

    const mu::JsonValue *r1 = first.find("result");
    const mu::JsonValue *r2 = second.find("result");
    ASSERT_NE(r1, nullptr);
    ASSERT_NE(r2, nullptr);

    // The first request does real work; the repeat is served
    // entirely from the resident cache — and returns the identical
    // plan and throughput (memoization can never change results).
    EXPECT_GT(r1->numberOr("trialCacheMisses", 0.0), 0.0);
    EXPECT_GT(r2->numberOr("trialCacheHits", 0.0), 0.0);
    EXPECT_EQ(r2->numberOr("trialCacheMisses", -1.0), 0.0);
    EXPECT_EQ(r1->stringOr("planText", "1"),
              r2->stringOr("planText", "2"));
    EXPECT_EQ(r1->numberOr("samplesPerSec", -1.0),
              r2->numberOr("samplesPerSec", -2.0));

    sv::ServerStats stats = h.server.stats();
    EXPECT_GT(stats.cacheHits, 0u);
    EXPECT_GT(stats.cacheEntries, 0u);
}

TEST(ServePlan, DeadlineRequestStillReturnsFeasiblePlan)
{
    Harness h;
    // An (almost) immediately-expiring anytime budget: the race is
    // cut off but the daemon must still return a feasible plan.
    mu::JsonValue resp = h.call(
        "{\"op\":\"plan\",\"id\":\"d\",\"portfolio\":true,"
        "\"deadlineMs\":0.001,\"verifyMode\":\"strict\"}");
    ASSERT_TRUE(resp.boolOr("ok", false))
        << errorKind(resp);
    const mu::JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_FALSE(result->boolOr("oom", true));
    EXPECT_GT(result->numberOr("samplesPerSec", 0.0), 0.0);
}

TEST(ServePlan, AnalyzeReturnsCertificate)
{
    Harness h;
    mu::JsonValue resp =
        h.call("{\"op\":\"analyze\",\"id\":\"c\"}");
    ASSERT_TRUE(resp.boolOr("ok", false));
    const mu::JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_NE(result->stringOr("certificate", ""), "");

    // ZeRO carries no plan to analyze.
    mu::JsonValue zero = h.call(
        "{\"op\":\"analyze\",\"strategy\":\"zero-offload\"}");
    EXPECT_EQ(errorKind(zero), "bad-request");
}

TEST(ServeRobustness, ReplaysScenarioMatrix)
{
    Harness h;
    const char *req =
        "{\"op\":\"robustness\",\"id\":\"r\",\"scenarios\":["
        "{\"name\":\"straggler\",\"events\":[{\"type\":"
        "\"gpu-straggle\",\"start_ms\":0,\"end_ms\":100,"
        "\"gpu\":0,\"factor\":1.5}]},"
        "{\"name\":\"clean\",\"events\":[]}]}";
    mu::JsonValue resp = h.call(req);
    ASSERT_TRUE(resp.boolOr("ok", false)) << errorKind(resp);
    const mu::JsonValue *result = resp.find("result");
    ASSERT_NE(result, nullptr);
    const mu::JsonValue *rows = result->find("rows");
    ASSERT_NE(rows, nullptr);
    ASSERT_TRUE(rows->isArray());
    ASSERT_EQ(rows->items().size(), 2u);
    // Rows keep spec order.
    EXPECT_EQ(rows->items()[0].stringOr("scenario", ""),
              "straggler");
    EXPECT_EQ(rows->items()[1].stringOr("scenario", ""), "clean");
    // The clean replay matches the baseline exactly.
    EXPECT_EQ(rows->items()[1].numberOr("throughputRatio", 0.0),
              1.0);
    EXPECT_GT(result->numberOr("baselineSamplesPerSec", 0.0), 0.0);

    // A scenario naming a GPU outside the topology is rejected with
    // a typed error, not executed.
    const char *bad =
        "{\"op\":\"robustness\",\"scenarios\":[{\"events\":"
        "[{\"type\":\"gpu-straggle\",\"start_ms\":0,"
        "\"end_ms\":1,\"gpu\":64,\"factor\":2.0}]}]}";
    EXPECT_EQ(errorKind(h.call(bad)), "bad-request");
}

TEST(ServeRobustness, NicOnlyClusterJobsDoNotShareReports)
{
    // Every request shares the daemon's one trial cache.  Two cluster
    // jobs that differ only in the NIC get the same topology name, so
    // only the fabric content in the job key stops the second job
    // from being answered with the first job's cached baseline.
    auto request = [](const char *nic) {
        return std::string(
                   "{\"op\":\"robustness\",\"model\":\"gpt-5.3b\","
                   "\"system\":\"dapple\",\"strategy\":\"recompute\","
                   "\"microbatch\":2,\"mbPerMini\":16,"
                   "\"cluster\":{\"nodes\":2,\"node\":\"dgx2\","
                   "\"nic\":\"") +
               nic +
               "\"},\"scenarios\":[{\"name\":\"clean\","
               "\"events\":[]}]}";
    };
    auto baseline = [](const mu::JsonValue &resp) {
        EXPECT_TRUE(resp.boolOr("ok", false)) << errorKind(resp);
        const mu::JsonValue *result = resp.find("result");
        return result ? result->numberOr("baselineSamplesPerSec", -1.0)
                      : -1.0;
    };

    Harness shared;
    double roce = baseline(shared.call(request("roce100")));
    double ndr = baseline(shared.call(request("ib-ndr")));
    Harness fresh;
    double ndr_alone = baseline(fresh.call(request("ib-ndr")));

    EXPECT_GT(ndr_alone, 0.0);
    EXPECT_EQ(ndr, ndr_alone);
    EXPECT_NE(ndr, roce);
}

namespace {

/** VmSize of this process in KiB, from /proc/self/status (0 when
 *  unreadable). */
long
vmSizeKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmSize:", 0) == 0)
            return std::stol(line.substr(7));
    }
    return 0;
}

} // namespace

TEST(ServeRobustness, ConnectionChurnKeepsMemoryFlat)
{
    // Every closed connection's reader thread must be joined while
    // the server runs, not only at stop(): an unjoined thread keeps
    // its whole stack mapped, so churn would grow the address space
    // by one stack per connection ever accepted.  A warm-up first
    // lets the allocator map the per-thread arenas (64 MiB of
    // address space each, reused once a thread exits) that the few
    // concurrently live readers need; the 500 cycles after it are
    // what is measured.
    sv::Server server{sv::ServerConfig{}};
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    auto cycle = [&] {
        sv::Client client;
        ASSERT_TRUE(client.connect(server.port(), &error)) << error;
        std::string response;
        ASSERT_TRUE(client.call("{\"op\":\"ping\"}", &response,
                                &error))
            << error;
        client.close();
    };
    for (int i = 0; i < 50; ++i)
        cycle();
    const long before = vmSizeKb();
    ASSERT_GT(before, 0);
    for (int i = 0; i < 500; ++i)
        cycle();
    const long growth_kb = vmSizeKb() - before;
    server.stop();
    EXPECT_LT(growth_kb, 256 * 1024) << "VmSize grew " << growth_kb
                                     << " KiB over 500 connections";
}

// ---------------------------------------------------------------
// Admission control and lifecycle
// ---------------------------------------------------------------

namespace {

/** Poll the stats op until @p pred or ~2s elapse. */
bool
waitForStats(Harness &h,
             const std::function<bool(const mu::JsonValue &)> &pred)
{
    for (int i = 0; i < 200; ++i) {
        mu::JsonValue stats = h.call("{\"op\":\"stats\"}");
        const mu::JsonValue *result = stats.find("result");
        if (result != nullptr && pred(*result))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
}

} // namespace

TEST(ServeAdmission, QueueFullGetsTypedOverloadError)
{
    sv::ServerConfig cfg;
    cfg.workers = 1;
    cfg.maxQueue = 0;  // nothing may wait: 1 in flight is the cap
    cfg.allowStall = true;
    Harness h(cfg);

    // Occupy the only worker deterministically...
    ASSERT_TRUE(h.client.sendLine(
        "{\"op\":\"stall\",\"id\":\"holder\",\"ms\":1500}"));
    ASSERT_TRUE(waitForStats(h, [](const mu::JsonValue &s) {
        return s.numberOr("inFlight", 0.0) == 1.0;
    }));

    // ...then the next admission must be refused, typed, instantly.
    mu::JsonValue refused =
        h.call("{\"op\":\"stall\",\"id\":\"late\",\"ms\":1}");
    EXPECT_EQ(errorKind(refused), "overloaded");
    EXPECT_EQ(refused.stringOr("id", ""), "late");

    // Inline ops bypass the queue even under full load.
    mu::JsonValue pong = h.call("{\"op\":\"ping\"}");
    EXPECT_TRUE(pong.boolOr("ok", false));

    // The holder's response eventually arrives on this connection.
    std::string line;
    ASSERT_TRUE(h.client.recvLine(&line));
    EXPECT_NE(line.find("\"holder\""), std::string::npos);

    sv::ServerStats stats = h.server.stats();
    EXPECT_GE(stats.overloaded, 1u);
}

TEST(ServeAdmission, StallRequiresOptIn)
{
    Harness h;  // allowStall defaults off
    mu::JsonValue resp =
        h.call("{\"op\":\"stall\",\"ms\":1}");
    EXPECT_EQ(errorKind(resp), "unsupported");
}

TEST(ServeLifecycle, ShutdownRequestStopsTheServer)
{
    sv::ServerConfig cfg;
    auto h = std::make_unique<Harness>(cfg);
    int port = h->server.port();

    mu::JsonValue resp = h->call("{\"op\":\"shutdown\"}");
    EXPECT_TRUE(resp.boolOr("ok", false));
    h->server.wait();  // returns: the request triggered teardown
    h.reset();

    // The port no longer accepts connections.
    sv::Client probe;
    EXPECT_FALSE(probe.connect(port));
}

TEST(ServeLifecycle, ConcurrentClientsAllGetAnswers)
{
    sv::ServerConfig cfg;
    cfg.workers = 4;
    Harness h(cfg);

    constexpr int kClients = 6;
    std::vector<std::thread> threads;
    std::vector<std::string> plans(kClients);
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            sv::Client client;
            std::string error;
            if (!client.connect(h.server.port(), &error))
                return;
            std::string response;
            if (!client.call(mu::strformat(
                                 "{\"op\":\"plan\",\"id\":\"c%d\"}",
                                 c),
                             &response, &error))
                return;
            mu::ParsedJson doc = mu::jsonParse(response);
            if (doc.ok && doc.value.boolOr("ok", false)) {
                const mu::JsonValue *r = doc.value.find("result");
                if (r)
                    plans[c] = r->stringOr("planText", "");
            }
        });
    }
    for (auto &t : threads)
        t.join();

    // Every client got the same (byte-identical) plan: concurrent
    // identical requests race on the shared cache yet results can
    // never diverge.
    for (int c = 0; c < kClients; ++c) {
        ASSERT_FALSE(plans[c].empty()) << "client " << c;
        EXPECT_EQ(plans[c], plans[0]) << "client " << c;
    }
}
