/**
 * @file
 * mpress-serve — planning as a service.
 *
 * Planning a billion-scale job is interactive-fast here (the search
 * is emulation-driven, not hardware-driven), but every mpress_cli
 * invocation still pays process start-up, preset construction and —
 * dominating on repeated what-if queries — a cold trial cache.  The
 * daemon keeps all three resident: topologies and model presets are
 * built per request from names (cheap), and one shared
 * planner::TrialCache outlives requests, so the trial emulations of
 * request N hit on the work of requests 1..N-1.  Cross-job safety
 * comes from the cache's job content key (see
 * planner::SearchDriver::jobKey()); sharing is purely a wall-clock
 * optimization and never changes a plan — a served plan is
 * byte-identical to what mpress_cli prints for the same job.
 *
 * Concurrency is layered: request-level parallelism is a
 * util::ThreadPool whose workers drain a bounded admission queue
 * (`workers` requests in flight, `maxQueue` waiting; beyond that the
 * daemon answers a typed "overloaded" error immediately instead of
 * queueing unboundedly), and each planning request then runs its own
 * trial-level pool (`threads` in the request) exactly as the CLI
 * would.  Each connection gets a reader thread that answers
 * ping/stats inline and enqueues the rest, so a client can keep many
 * requests in flight on one socket; responses carry the request id
 * and may complete out of order.  The accept loop joins the readers
 * of closed connections, so churn does not accumulate threads.
 *
 * Deadlines: a request's deadlineMs maps onto the planner's anytime
 * contract (PlannerConfig::deadlineMs) — the refinement race is cut
 * off at the budget but still returns a verified feasible plan, so
 * a latency-bounded service degrades plan quality, never
 * correctness.
 *
 * The listener binds 127.0.0.1 only: the protocol has no
 * authentication and is meant for same-machine clients (notebooks,
 * sweep scripts, the load driver in bench/bench_serve_load.cc).
 */

#ifndef MPRESS_SERVE_SERVER_HH
#define MPRESS_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "planner/search.hh"
#include "runtime/report.hh"
#include "serve/protocol.hh"
#include "util/json.hh"
#include "util/pool.hh"

namespace mpress {
namespace serve {

/** Daemon tunables. */
struct ServerConfig
{
    /** TCP port on 127.0.0.1; 0 picks an ephemeral port (read it
     *  back from Server::port()). */
    int port = 0;

    /** Request-level workers: planning requests in flight at once.
     *  Each request may additionally run its own trial-level pool. */
    int workers = 2;

    /** Admission-queue bound: requests waiting beyond the ones in
     *  flight.  A request arriving past the bound is answered with a
     *  typed "overloaded" error immediately. */
    int maxQueue = 32;

    /** Enable the test-only "stall" op (holds a worker busy for a
     *  caller-chosen time; used to fill the queue deterministically
     *  in tests).  Off by default: a stall is a trivial
     *  denial-of-service lever. */
    bool allowStall = false;

    /** Hardening bounds applied to every request line. */
    util::JsonLimits requestLimits{/*maxDepth=*/32,
                                   /*maxBytes=*/1 << 20};
};

/** Daemon counters (see the "stats" op). */
struct ServerStats
{
    std::uint64_t requests = 0;       ///< lines parsed into requests
    std::uint64_t planRequests = 0;   ///< plan/analyze/robustness run
    std::uint64_t overloaded = 0;     ///< rejected at admission
    std::uint64_t parseErrors = 0;    ///< typed parse/bad-request
    std::uint64_t cacheHits = 0;      ///< resident trial-cache hits
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEntries = 0;   ///< resident entries right now
};

/**
 * The daemon.  start() binds and spawns the accept loop and the
 * worker pool; wait() blocks until a shutdown request (or stop())
 * and tears everything down.  One Server owns one resident
 * planner::TrialCache.
 */
class Server
{
  public:
    explicit Server(ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind 127.0.0.1, listen, spawn accept + worker threads.
     *  False (with @p error) when the socket cannot be set up. */
    bool start(std::string *error);

    /** Actual listening port (after an ephemeral bind). */
    int port() const { return _port; }

    /** Block until a shutdown request or stop(), then tear down. */
    void wait();

    /** Idempotent teardown; unblocks wait(). */
    void stop();

    ServerStats stats() const;

  private:
    /** One client connection.  Workers and the reader both write
     *  responses, serialized by the connection's mutex; the struct is
     *  shared_ptr-held so a response to a task outliving its reader
     *  finds the fd state alive (writes after close are dropped). */
    struct Connection
    {
        int fd = -1;
        std::mutex writeMu;
        bool open = true;
        /** Set by the reader as it returns, so its thread can be
         *  joined at once. */
        std::atomic<bool> readerDone{false};
    };

    /** A connection and the thread reading it. */
    struct Reader
    {
        std::thread thread;
        std::shared_ptr<Connection> conn;
    };

    /** One admitted unit of work. */
    struct Task
    {
        Request request;
        std::shared_ptr<Connection> conn;
    };

    void acceptLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void workerLoop();
    void writeLine(Connection &conn, const std::string &line);

    /** Handle one request line; answers inline or enqueues. */
    void dispatchLine(const std::shared_ptr<Connection> &conn,
                      const std::string &line);

    /** Execute an admitted task on a worker; the caller writes the
     *  returned response after freeing the worker slot. */
    std::string runTask(const Task &task);

    std::string handlePlan(const Request &req);
    std::string handleAnalyze(const Request &req);
    std::string handleRobustness(const Request &req);
    std::string statsBody() const;

    ServerConfig _cfg;
    int _port = 0;
    /** Atomic: stop() hands the fd out from under a blocked
     *  accept() on the accept thread (exchange to -1, then close). */
    std::atomic<int> _listenFd{-1};

    /** The resident cross-request trial cache. */
    planner::TrialCache _trialCache;

    std::thread _acceptThread;
    /** Runs pool.parallelFor(workers, workerLoop) — the request-level
     *  ThreadPool layer. */
    std::thread _dispatchThread;
    std::unique_ptr<util::ThreadPool> _pool;

    mutable std::mutex _mu;
    std::condition_variable _queueWake;     ///< workers wait for tasks
    std::condition_variable _shutdownWake;  ///< wait() waits here
    std::deque<Task> _queue;
    int _inFlight = 0;
    bool _stopping = false;
    bool _shutdownRequested = false;
    /** Readers not yet joined: acceptLoop joins and drops the
     *  finished ones on every accept, stop() joins the rest. */
    std::vector<Reader> _readers;

    std::atomic<std::uint64_t> _requests{0};
    std::atomic<std::uint64_t> _planRequests{0};
    std::atomic<std::uint64_t> _overloaded{0};
    std::atomic<std::uint64_t> _parseErrors{0};

    /** Simulation-engine footprint of the most recent completed plan
     *  request (guarded by _mu): the engine's pooled-slab and event-heap
     *  high waters, conservative windows run, and cumulative arena
     *  high-water releases — so operators can see how much retained
     *  storage the daemon's planning runs touch. */
    std::vector<runtime::ShardStat> _lastShards;
    std::uint64_t _lastSimWindows = 0;
    std::uint64_t _arenaShrinks = 0;
};

} // namespace serve
} // namespace mpress

#endif // MPRESS_SERVE_SERVER_HH
