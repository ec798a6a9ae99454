#include "serve/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <utility>

#include "api/session.hh"
#include "cluster/cluster.hh"
#include "compaction/serialize.hh"
#include "fault/scenario.hh"
#include "model/model.hh"
#include "util/strings.hh"
#include "verify/verify.hh"

namespace mpress {
namespace serve {

namespace {

/** A request's job bound to concrete objects. */
struct BuiltJob
{
    hw::Topology topo;
    api::SessionConfig cfg;
};

/**
 * Resolve a JobSpec into a topology + session config, through the
 * same checked name parsers the CLI flags use (api::*FromName,
 * model::findPreset) — a served job and the equivalent command line
 * can never drift apart.  nullopt (with @p err) on any unknown name.
 */
/**
 * Resolve a JobSpec's "cluster" field — a preset name or canonical
 * spec text (the protocol layer re-rendered any inline object) —
 * through the strict spec parser and verifyClusterSpec, exactly the
 * gate mpress_cli --cluster applies.  nullopt (with @p err) on any
 * rejection; malformed or hostile specs become typed bad-request
 * errors, never a fatal inside buildCluster().
 */
std::optional<hw::Topology>
clusterFromJob(const std::string &text, std::string *err)
{
    cluster::ClusterSpec spec;
    if (std::optional<cluster::ClusterSpec> preset =
            cluster::clusterByName(text)) {
        spec = *preset;
    } else {
        cluster::ParsedClusterSpec parsed =
            cluster::parseClusterSpec(text);
        if (!parsed.ok) {
            *err = "bad cluster spec: " + parsed.error;
            return std::nullopt;
        }
        spec = parsed.spec;
    }
    verify::Report report = verify::verifyClusterSpec(spec);
    if (!report.ok()) {
        *err = "cluster spec rejected: " + report.summary();
        return std::nullopt;
    }
    return cluster::buildCluster(spec);
}

std::optional<BuiltJob>
buildJob(const JobSpec &job, planner::TrialCache *shared_cache,
         std::string *err)
{
    std::optional<hw::Topology> topo;
    if (!job.cluster.empty()) {
        topo = clusterFromJob(job.cluster, err);
        if (!topo)
            return std::nullopt;
    } else {
        topo = api::topologyFromName(job.topology);
        if (!topo) {
            *err = "unknown topology \"" + job.topology + "\"";
            return std::nullopt;
        }
    }
    api::SessionConfig cfg;
    if (!model::findPreset(job.model, &cfg.model)) {
        *err = "unknown model preset \"" + job.model + "\"";
        return std::nullopt;
    }
    if (!api::systemKindFromName(job.system, &cfg.system)) {
        *err = "unknown system \"" + job.system + "\"";
        return std::nullopt;
    }
    if (!api::strategyFromName(job.strategy, &cfg.strategy)) {
        *err = "unknown strategy \"" + job.strategy + "\"";
        return std::nullopt;
    }
    if (!api::verifyModeFromName(job.verifyMode, &cfg.verifyMode)) {
        *err = "unknown verifyMode \"" + job.verifyMode + "\"";
        return std::nullopt;
    }
    cfg.microbatch = job.microbatch;
    cfg.numStages = topo->numGpus();
    cfg.microbatchesPerMinibatch = job.mbPerMini;
    cfg.minibatches = job.minibatches;
    cfg.planner.threads = job.threads;
    cfg.planner.portfolio = job.portfolio;
    cfg.planner.deadlineMs = job.deadlineMs;
    // The daemon's one resident cache serves every request; the job
    // content key keeps different jobs' entries disjoint, so this is
    // invisible except in wall-clock time and the hit counters.
    cfg.planner.sharedCache = shared_cache;
    return BuiltJob{std::move(*topo), std::move(cfg)};
}

bool
isPipelineStrategy(api::Strategy s)
{
    return s != api::Strategy::ZeroOffload &&
           s != api::Strategy::ZeroInfinity;
}

/** Shared response fields of a finished session run. */
std::string
runBody(const api::SessionResult &result)
{
    return util::strformat(
        "\"name\":%s,\"oom\":%s,\"samplesPerSec\":%.17g,"
        "\"tflops\":%.17g,\"maxGpuPeakBytes\":%lld,"
        "\"iterations\":%d,\"trialCacheHits\":%llu,"
        "\"trialCacheMisses\":%llu,\"winnerStrategy\":%d",
        util::jsonQuote(result.name).c_str(),
        result.oom ? "true" : "false", result.samplesPerSec,
        result.tflops, static_cast<long long>(result.maxGpuPeak),
        result.planResult.iterations,
        static_cast<unsigned long long>(
            result.planResult.trialCacheHits),
        static_cast<unsigned long long>(
            result.planResult.trialCacheMisses),
        result.planResult.winnerStrategy);
}

} // namespace

Server::Server(ServerConfig cfg) : _cfg(std::move(cfg))
{
    if (_cfg.workers < 1)
        _cfg.workers = 1;
    if (_cfg.maxQueue < 0)
        _cfg.maxQueue = 0;
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *error)
{
    _listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (_listenFd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    int one = 1;
    ::setsockopt(_listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(_cfg.port));
    if (::bind(_listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(_listenFd, 64) != 0) {
        if (error)
            *error = std::string("bind/listen: ") +
                     std::strerror(errno);
        ::close(_listenFd);
        _listenFd = -1;
        return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(_listenFd, reinterpret_cast<sockaddr *>(&addr),
                      &len) == 0)
        _port = ntohs(addr.sin_port);

    _pool = std::make_unique<util::ThreadPool>(_cfg.workers);
    _dispatchThread = std::thread([this] {
        // Request-level parallelism: every pool worker (and this
        // thread) becomes one long-running queue drainer.  Planning
        // requests then layer their own trial-level pools inside.
        _pool->parallelFor(
            static_cast<std::size_t>(_cfg.workers),
            [this](std::size_t) { workerLoop(); });
    });
    _acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    while (true) {
        int fd = ::accept(_listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return;  // listener closed by stop()
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(_mu);
        if (_stopping) {
            ::close(fd);
            return;
        }
        // Join readers whose loop has returned: an unjoined thread
        // keeps its stack mapped, so without this every connection
        // ever accepted would hold one until stop().
        std::erase_if(_readers, [](Reader &r) {
            if (!r.conn->readerDone)
                return false;
            r.thread.join();
            return true;
        });
        _readers.push_back(
            {std::thread([this, conn] { readerLoop(conn); }), conn});
    }
}

void
Server::readerLoop(std::shared_ptr<Connection> conn)
{
    // A line may not exceed the request size bound by much: without
    // this cap a client could stream an unbounded newline-free line
    // into our buffer.  Past the cap the connection is dropped after
    // a typed error.
    const std::size_t cap =
        (_cfg.requestLimits.maxBytes > 0
             ? _cfg.requestLimits.maxBytes
             : (1u << 20)) +
        4096;
    std::string buf;
    char chunk[4096];
    bool drop = false;
    while (!drop) {
        ssize_t n = ::recv(conn->fd, chunk, sizeof chunk, 0);
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t i = buf.find('\n', start);
             i != std::string::npos; i = buf.find('\n', start)) {
            std::string line = buf.substr(start, i - start);
            start = i + 1;
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (!line.empty())
                dispatchLine(conn, line);
        }
        buf.erase(0, start);
        if (buf.size() > cap) {
            writeLine(*conn,
                      errorResponse("", ErrorKind::ParseError,
                                    "request line exceeds size"
                                    " limit"));
            drop = true;
        }
    }
    std::lock_guard<std::mutex> lock(conn->writeMu);
    conn->open = false;
    ::close(conn->fd);
    conn->fd = -1;
    conn->readerDone = true;
}

void
Server::writeLine(Connection &conn, const std::string &line)
{
    std::lock_guard<std::mutex> lock(conn.writeMu);
    if (!conn.open)
        return;  // client went away; the response has no reader
    std::string out = line;
    out.push_back('\n');
    std::size_t sent = 0;
    while (sent < out.size()) {
        // MSG_NOSIGNAL: a disconnected client must produce EPIPE,
        // not a process-killing SIGPIPE.
        ssize_t n = ::send(conn.fd, out.data() + sent,
                           out.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return;
        sent += static_cast<std::size_t>(n);
    }
}

void
Server::dispatchLine(const std::shared_ptr<Connection> &conn,
                     const std::string &line)
{
    _requests.fetch_add(1, std::memory_order_relaxed);
    ParsedRequest parsed = parseRequest(line, _cfg.requestLimits);
    if (!parsed.ok) {
        _parseErrors.fetch_add(1, std::memory_order_relaxed);
        writeLine(*conn, errorResponse(parsed.id, parsed.errorKind,
                                       parsed.error));
        return;
    }
    const Request &req = parsed.request;
    switch (req.op) {
      case RequestOp::Ping:
        writeLine(*conn, okResponse(req.id, req.op,
                                    "{\"pong\":true}"));
        return;
      case RequestOp::Stats:
        writeLine(*conn, okResponse(req.id, req.op, statsBody()));
        return;
      case RequestOp::Shutdown:
        // Answered inline (never queued) so shutdown works even
        // when the admission queue is saturated.
        writeLine(*conn, okResponse(req.id, req.op,
                                    "{\"stopping\":true}"));
        {
            std::lock_guard<std::mutex> lock(_mu);
            _shutdownRequested = true;
        }
        _shutdownWake.notify_all();
        return;
      case RequestOp::Stall:
        if (!_cfg.allowStall) {
            writeLine(*conn,
                      errorResponse(req.id, ErrorKind::Unsupported,
                                    "stall is disabled (start the"
                                    " server with allowStall)"));
            return;
        }
        break;
      case RequestOp::Plan:
      case RequestOp::Analyze:
      case RequestOp::Robustness:
        break;
    }

    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_stopping)
            return;
        // Admission bound: `workers` requests in flight plus
        // `maxQueue` waiting.  Counting in-flight work here (not
        // just queue length) keeps the bound exact even in the
        // window where a worker has popped a task but not finished
        // it.
        if (static_cast<std::size_t>(_inFlight) + _queue.size() >=
            static_cast<std::size_t>(_cfg.workers + _cfg.maxQueue)) {
            _overloaded.fetch_add(1, std::memory_order_relaxed);
            writeLine(*conn,
                      errorResponse(
                          req.id, ErrorKind::Overloaded,
                          util::strformat(
                              "admission queue full (%d in flight,"
                              " %zu waiting); retry later",
                              _inFlight, _queue.size())));
            return;
        }
        _queue.push_back(Task{req, conn});
    }
    _queueWake.notify_one();
}

void
Server::workerLoop()
{
    while (true) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(_mu);
            _queueWake.wait(lock, [&] {
                return _stopping || !_queue.empty();
            });
            if (_stopping)
                return;  // pending tasks die with their connections
            task = std::move(_queue.front());
            _queue.pop_front();
            ++_inFlight;
        }
        std::string response = runTask(task);
        {
            std::lock_guard<std::mutex> lock(_mu);
            --_inFlight;
        }
        // The slot is freed before the response is written, so a
        // client that has read its reply can immediately send the
        // next request without being shed by a slot its finished
        // request still holds.
        writeLine(*task.conn, response);
    }
}

std::string
Server::runTask(const Task &task)
{
    const Request &req = task.request;
    std::string response;
    try {
        switch (req.op) {
          case RequestOp::Plan:
            _planRequests.fetch_add(1, std::memory_order_relaxed);
            response = handlePlan(req);
            break;
          case RequestOp::Analyze:
            _planRequests.fetch_add(1, std::memory_order_relaxed);
            response = handleAnalyze(req);
            break;
          case RequestOp::Robustness:
            _planRequests.fetch_add(1, std::memory_order_relaxed);
            response = handleRobustness(req);
            break;
          case RequestOp::Stall: {
            auto ms = static_cast<std::int64_t>(req.stallMs);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(ms));
            response = okResponse(req.id, req.op,
                                  "{\"stalled\":true}");
            break;
          }
          default:
            response = errorResponse(req.id, ErrorKind::Internal,
                                     "op cannot be queued");
            break;
        }
    } catch (const std::exception &e) {
        response = errorResponse(
            req.id, ErrorKind::Internal,
            std::string("request failed: ") + e.what());
    } catch (...) {
        response = errorResponse(req.id, ErrorKind::Internal,
                                 "request failed");
    }
    return response;
}

std::string
Server::handlePlan(const Request &req)
{
    std::string err;
    std::optional<BuiltJob> job =
        buildJob(req.job, &_trialCache, &err);
    if (!job)
        return errorResponse(req.id, ErrorKind::BadRequest, err);
    api::MPressSession session(job->topo, job->cfg);
    api::SessionResult result = session.run();
    {
        // Record the run's simulation-engine footprint for the stats
        // endpoint: the engine's slab/heap high waters of the reported
        // run plus cumulative arena high-water releases.
        std::lock_guard<std::mutex> lock(_mu);
        _lastShards = result.report.shardStats;
        _lastSimWindows = result.report.simWindows;
        _arenaShrinks += result.planResult.arenaShrinks;
    }
    if (result.rejected) {
        return errorResponse(
            req.id, ErrorKind::RejectedPlan,
            "plan rejected: " + result.verification.summary());
    }
    std::string body = "{" + runBody(result);
    // The plan in the exact serialization mpress_cli --save-plan
    // writes; tests diff the two byte-for-byte.
    body += ",\"planText\":";
    body += util::jsonQuote(compaction::planToText(result.plan));
    body += "}";
    return okResponse(req.id, req.op, body);
}

std::string
Server::handleAnalyze(const Request &req)
{
    std::string err;
    std::optional<BuiltJob> job =
        buildJob(req.job, &_trialCache, &err);
    if (!job)
        return errorResponse(req.id, ErrorKind::BadRequest, err);
    if (!isPipelineStrategy(job->cfg.strategy)) {
        return errorResponse(req.id, ErrorKind::BadRequest,
                             "analyze needs a pipeline strategy");
    }
    api::MPressSession session(job->topo, job->cfg);
    api::SessionResult result = session.run();
    if (result.rejected) {
        return errorResponse(
            req.id, ErrorKind::RejectedPlan,
            "plan rejected: " + result.verification.summary());
    }
    analysis::AnalysisCertificate cert =
        session.analyzePlan(result.plan);
    std::string body = "{" + runBody(result);
    body += ",\"certificate\":";
    body += util::jsonQuote(cert.render());
    body += "}";
    return okResponse(req.id, req.op, body);
}

std::string
Server::handleRobustness(const Request &req)
{
    std::string err;
    std::optional<BuiltJob> job =
        buildJob(req.job, &_trialCache, &err);
    if (!job)
        return errorResponse(req.id, ErrorKind::BadRequest, err);
    if (!isPipelineStrategy(job->cfg.strategy)) {
        return errorResponse(req.id, ErrorKind::BadRequest,
                             "robustness needs a pipeline strategy");
    }
    fault::ParsedScenarioMatrix matrix =
        fault::parseScenarioMatrix(req.scenariosText);
    if (!matrix.ok) {
        return errorResponse(req.id, ErrorKind::BadRequest,
                             "bad scenario spec: " + matrix.error);
    }
    for (const auto &scenario : matrix.scenarios) {
        verify::Report report =
            verify::verifyScenario(job->topo, scenario);
        if (!report.ok()) {
            return errorResponse(
                req.id, ErrorKind::BadRequest,
                "scenario \"" + scenario.name +
                    "\" rejected: " + report.summary());
        }
    }

    // Mirror the CLI's --robustness path: plan (and baseline)
    // fault-free, then replay the finished plan under every scenario
    // across the request's pool.
    api::MPressSession session(job->topo, job->cfg);
    api::SessionResult planned = session.run();
    if (planned.rejected) {
        return errorResponse(
            req.id, ErrorKind::RejectedPlan,
            "plan rejected: " + planned.verification.summary());
    }
    util::ThreadPool pool(req.job.threads);
    planner::SearchDriver driver(job->topo, session.model(),
                                 session.partition(),
                                 session.schedule(),
                                 job->cfg.executor, pool);
    driver.setSharedCache(&_trialCache);
    planner::RobustnessResult rr =
        driver.evaluateRobustness(planned.plan, matrix.scenarios);

    std::string body = util::strformat(
        "{\"baselineSamplesPerSec\":%.17g,\"worst\":%.17g,"
        "\"p10\":%.17g,\"p50\":%.17g,\"rows\":[",
        rr.baseline.samplesPerSec, rr.worst, rr.p10, rr.p50);
    const char *sep = "";
    for (const auto &row : rr.rows) {
        body += util::strformat(
            "%s{\"scenario\":%s,\"oom\":%s,"
            "\"samplesPerSec\":%.17g,\"throughputRatio\":%.17g}",
            sep, util::jsonQuote(row.scenario).c_str(),
            row.report.oom ? "true" : "false",
            row.report.samplesPerSec, row.throughputRatio);
        sep = ",";
    }
    body += "]}";
    return okResponse(req.id, req.op, body);
}

std::string
Server::statsBody() const
{
    ServerStats s = stats();
    std::size_t queued = 0;
    int in_flight = 0;
    std::vector<runtime::ShardStat> shards;
    std::uint64_t sim_windows = 0;
    std::uint64_t shrinks = 0;
    {
        std::lock_guard<std::mutex> lock(_mu);
        queued = _queue.size();
        in_flight = _inFlight;
        shards = _lastShards;
        sim_windows = _lastSimWindows;
        shrinks = _arenaShrinks;
    }
    std::string body = util::strformat(
        "{\"requests\":%llu,\"planRequests\":%llu,"
        "\"overloaded\":%llu,\"parseErrors\":%llu,"
        "\"cacheHits\":%llu,\"cacheMisses\":%llu,"
        "\"cacheEntries\":%llu,\"queueDepth\":%zu,"
        "\"inFlight\":%d,\"workers\":%d",
        static_cast<unsigned long long>(s.requests),
        static_cast<unsigned long long>(s.planRequests),
        static_cast<unsigned long long>(s.overloaded),
        static_cast<unsigned long long>(s.parseErrors),
        static_cast<unsigned long long>(s.cacheHits),
        static_cast<unsigned long long>(s.cacheMisses),
        static_cast<unsigned long long>(s.cacheEntries), queued,
        in_flight, _cfg.workers);
    body += util::strformat(
        ",\"simWindows\":%llu,\"arenaShrinks\":%llu,\"shards\":[",
        static_cast<unsigned long long>(sim_windows),
        static_cast<unsigned long long>(shrinks));
    for (std::size_t i = 0; i < shards.size(); ++i) {
        if (i)
            body += ',';
        body += util::strformat(
            "{\"shard\":%d,\"events\":%llu,\"poolSlots\":%llu,"
            "\"queueDepth\":%llu}",
            shards[i].shard,
            static_cast<unsigned long long>(shards[i].events),
            static_cast<unsigned long long>(shards[i].poolSlots),
            static_cast<unsigned long long>(shards[i].queuePeak));
    }
    body += "]}";
    return body;
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.requests = _requests.load(std::memory_order_relaxed);
    s.planRequests = _planRequests.load(std::memory_order_relaxed);
    s.overloaded = _overloaded.load(std::memory_order_relaxed);
    s.parseErrors = _parseErrors.load(std::memory_order_relaxed);
    planner::TrialCacheStats cache = _trialCache.stats();
    s.cacheHits = cache.hits;
    s.cacheMisses = cache.misses;
    s.cacheEntries = _trialCache.size();
    return s;
}

void
Server::wait()
{
    {
        std::unique_lock<std::mutex> lock(_mu);
        _shutdownWake.wait(lock, [&] {
            return _shutdownRequested || _stopping;
        });
    }
    stop();
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_stopping) {
            // Already torn down (or tearing down on another thread);
            // the first caller owns the joins.
            return;
        }
        _stopping = true;
    }
    _queueWake.notify_all();
    _shutdownWake.notify_all();

    // Unblock accept(): take the fd atomically (the accept thread
    // re-loads it every iteration), then closing it makes a blocked
    // accept() fail.
    int listen_fd = _listenFd.exchange(-1);
    if (listen_fd >= 0) {
        ::shutdown(listen_fd, SHUT_RDWR);
        ::close(listen_fd);
    }
    if (_acceptThread.joinable())
        _acceptThread.join();

    // Unblock readers: a read-side shutdown makes recv() return 0.
    // Readers own the close.
    {
        std::lock_guard<std::mutex> lock(_mu);
        for (auto &reader : _readers) {
            std::lock_guard<std::mutex> wl(reader.conn->writeMu);
            if (reader.conn->open)
                ::shutdown(reader.conn->fd, SHUT_RD);
        }
    }
    for (auto &reader : _readers) {
        if (reader.thread.joinable())
            reader.thread.join();
    }
    if (_dispatchThread.joinable())
        _dispatchThread.join();
}

} // namespace serve
} // namespace mpress
