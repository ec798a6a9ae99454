/**
 * @file
 * Wire protocol of mpress-serve: line-delimited JSON over a local
 * TCP socket.
 *
 * A client sends one JSON object per line; the daemon answers with
 * one JSON object per line carrying the request's "id" so responses
 * can be matched even when concurrent requests complete out of
 * order.  The grammar is deliberately small:
 *
 *   {"op":"ping"|"stats"|"plan"|"analyze"|"robustness"|"shutdown"
 *         |"stall",
 *    "id":"<echoed verbatim>",
 *    ... op-specific fields ...}
 *
 * plan / analyze / robustness describe one training job with the
 * same vocabulary as the mpress_cli flags (model preset, topology
 * preset, system, strategy, microbatch, mbPerMini, minibatches,
 * threads, deadlineMs, portfolio, verifyMode) and the same
 * defaults, so a served request and the equivalent command line are
 * the same job — the byte-identical-plan contract in
 * tests/serve_test.cc depends on it.  Unknown job fields are
 * ignored.  robustness additionally takes
 * "scenarios": an inline fault-scenario array in the --robustness
 * file format.  stall ("ms": sleep duration) exists only for tests
 * and is rejected unless the server enables it.
 *
 * Every response is either
 *   {"id":...,"ok":true,"op":...,"result":{...}}        or
 *   {"id":...,"ok":false,"error":{"kind":...,"message":...}}
 * where kind is a stable enum name (parse-error, bad-request,
 * overloaded, unsupported, rejected-plan, internal) — malformed or
 * hostile input must produce a typed error, never a crash or a
 * silent disconnect.
 */

#ifndef MPRESS_SERVE_PROTOCOL_HH
#define MPRESS_SERVE_PROTOCOL_HH

#include <string>

#include "util/json.hh"

namespace mpress {
namespace serve {

/** Operations a request line can name. */
enum class RequestOp
{
    Ping,        ///< liveness probe, answered inline
    Stats,       ///< daemon counters + trial-cache occupancy
    Plan,        ///< plan one job, return plan text + throughput
    Analyze,     ///< plan one job, return the analysis certificate
    Robustness,  ///< plan, then replay across a scenario matrix
    Stall,       ///< test-only: hold a worker for "ms" milliseconds
    Shutdown,    ///< stop the daemon after answering
};

/** Returns the wire name of @p op ("ping", "plan", ...). */
const char *requestOpName(RequestOp op);

/** Typed failure classes of the protocol. */
enum class ErrorKind
{
    None,
    ParseError,    ///< request line is not acceptable JSON
    BadRequest,    ///< unknown op / name, field out of range
    Overloaded,    ///< admission queue full, retry later
    Unsupported,   ///< op disabled on this server (stall)
    RejectedPlan,  ///< strict verification rejected the plan
    Internal,      ///< unexpected server-side failure
};

/** Returns the stable wire name of @p kind ("parse-error", ...). */
const char *errorKindName(ErrorKind kind);

/** One training job as described by a plan/analyze/robustness
 *  request.  Defaults mirror the mpress_cli flag defaults. */
struct JobSpec
{
    std::string model = "bert-0.64b";
    std::string topology = "dgx1";

    /** Multi-node cluster selector; empty = use @ref topology.  On
     *  the wire "cluster" is either a string (a preset name such as
     *  "2x-dgx2") or an inline spec object, which is re-rendered to
     *  canonical text here so the server can push it through the
     *  strict cluster-spec parser and verifyClusterSpec. */
    std::string cluster;
    std::string system = "pipedream";
    std::string strategy = "mpress";
    std::string verifyMode = "permissive";
    int microbatch = 12;
    int mbPerMini = 8;
    int minibatches = 2;
    int threads = 1;
    bool portfolio = false;
    double deadlineMs = 0.0;
};

/** One decoded request line. */
struct Request
{
    RequestOp op = RequestOp::Ping;
    std::string id;
    JobSpec job;

    /** Robustness only: the request's "scenarios" array re-rendered
     *  as a {"scenarios":[...]} document for
     *  fault::parseScenarioMatrix. */
    std::string scenariosText;

    /** Stall only: how long to hold a worker. */
    double stallMs = 0.0;
};

/** Result of parseRequest(). */
struct ParsedRequest
{
    bool ok = false;
    Request request;

    /** Set when !ok. */
    ErrorKind errorKind = ErrorKind::None;
    std::string error;

    /** Best-effort "id" echo: recovered even from requests rejected
     *  for a bad field, so the client can still match the error. */
    std::string id;
};

/**
 * Decode and validate one request line under @p limits.  Every
 * rejection carries a typed kind: hostile input (deep nesting,
 * oversized lines, type confusion, out-of-range numbers) must map to
 * parse-error / bad-request, never to a crash — this is the
 * network-facing hardening boundary of the daemon.
 */
ParsedRequest parseRequest(const std::string &line,
                           const util::JsonLimits &limits = {});

/** Render the error response line (no trailing newline). */
std::string errorResponse(const std::string &id, ErrorKind kind,
                          const std::string &message);

/** Render the success response prefix + @p resultBody (a complete
 *  JSON object text) as a response line (no trailing newline). */
std::string okResponse(const std::string &id, RequestOp op,
                       const std::string &resultBody);

} // namespace serve
} // namespace mpress

#endif // MPRESS_SERVE_PROTOCOL_HH
