#include "serve/protocol.hh"

#include <cmath>

#include "util/strings.hh"

namespace mpress {
namespace serve {

namespace {

/** Map the wire op name; false on an unknown op. */
bool
opFromName(const std::string &name, RequestOp *out)
{
    if (name == "ping")
        *out = RequestOp::Ping;
    else if (name == "stats")
        *out = RequestOp::Stats;
    else if (name == "plan")
        *out = RequestOp::Plan;
    else if (name == "analyze")
        *out = RequestOp::Analyze;
    else if (name == "robustness")
        *out = RequestOp::Robustness;
    else if (name == "stall")
        *out = RequestOp::Stall;
    else if (name == "shutdown")
        *out = RequestOp::Shutdown;
    else
        return false;
    return true;
}

/** Field extraction helpers.  Each returns false (with a message)
 *  when the member exists but has the wrong type or an out-of-range
 *  value; an absent member keeps the default and succeeds.  Strict
 *  typing here is the point: a request that says {"microbatch":
 *  "12"} is malformed, not coercible. */
bool
getString(const util::JsonValue &doc, const char *key,
          std::string *out, std::string *err)
{
    const util::JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    if (!v->isString()) {
        *err = util::strformat("\"%s\" must be a string", key);
        return false;
    }
    *out = v->str();
    return true;
}

bool
getBool(const util::JsonValue &doc, const char *key, bool *out,
        std::string *err)
{
    const util::JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    if (!v->isBool()) {
        *err = util::strformat("\"%s\" must be a boolean", key);
        return false;
    }
    *out = v->boolean();
    return true;
}

/** Integer in [lo, hi]; rejects non-integral numbers ("1.5"). */
bool
getInt(const util::JsonValue &doc, const char *key, int lo, int hi,
       int *out, std::string *err)
{
    const util::JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    double n = v->isNumber() ? v->number() : std::nan("");
    if (!(n == std::floor(n)) || n < lo || n > hi) {
        *err = util::strformat(
            "\"%s\" must be an integer in [%d, %d]", key, lo, hi);
        return false;
    }
    *out = static_cast<int>(n);
    return true;
}

/** Finite double in [lo, hi]. */
bool
getDouble(const util::JsonValue &doc, const char *key, double lo,
          double hi, double *out, std::string *err)
{
    const util::JsonValue *v = doc.find(key);
    if (v == nullptr)
        return true;
    double n = v->isNumber() ? v->number() : std::nan("");
    if (!std::isfinite(n) || n < lo || n > hi) {
        *err = util::strformat(
            "\"%s\" must be a number in [%g, %g]", key, lo, hi);
        return false;
    }
    *out = n;
    return true;
}

/** "cluster" is either a preset name (string) or an inline spec
 *  object; the object form is re-rendered to canonical text so the
 *  server-side strict spec parser + verifyClusterSpec see exactly
 *  what the client sent.  Anything else is a typed error. */
bool
getCluster(const util::JsonValue &doc, std::string *out,
           std::string *err)
{
    const util::JsonValue *v = doc.find("cluster");
    if (v == nullptr)
        return true;
    if (v->isString()) {
        *out = v->str();
        return true;
    }
    if (v->isObject()) {
        *out = util::jsonRender(*v);
        return true;
    }
    *err = "\"cluster\" must be a preset name or a spec object";
    return false;
}

/** Decode the job-description fields shared by plan / analyze /
 *  robustness. */
bool
parseJob(const util::JsonValue &doc, JobSpec *job, std::string *err)
{
    // Upper bounds are sanity rails against absurd resource asks
    // ("minibatches": 1e9 would emulate for hours), not semantic
    // validation — unknown preset names etc. are caught when the
    // server builds the job.
    return getString(doc, "model", &job->model, err) &&
           getCluster(doc, &job->cluster, err) &&
           getString(doc, "topology", &job->topology, err) &&
           getString(doc, "system", &job->system, err) &&
           getString(doc, "strategy", &job->strategy, err) &&
           getString(doc, "verifyMode", &job->verifyMode, err) &&
           getInt(doc, "microbatch", 1, 4096, &job->microbatch,
                  err) &&
           getInt(doc, "mbPerMini", 1, 4096, &job->mbPerMini, err) &&
           getInt(doc, "minibatches", 1, 4096, &job->minibatches,
                  err) &&
           getInt(doc, "threads", 1, 256, &job->threads, err) &&
           getBool(doc, "portfolio", &job->portfolio, err) &&
           getDouble(doc, "deadlineMs", 0.0, 1e9, &job->deadlineMs,
                     err);
}

} // namespace

const char *
requestOpName(RequestOp op)
{
    switch (op) {
      case RequestOp::Ping:
        return "ping";
      case RequestOp::Stats:
        return "stats";
      case RequestOp::Plan:
        return "plan";
      case RequestOp::Analyze:
        return "analyze";
      case RequestOp::Robustness:
        return "robustness";
      case RequestOp::Stall:
        return "stall";
      case RequestOp::Shutdown:
        return "shutdown";
    }
    return "?";
}

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::None:
        return "none";
      case ErrorKind::ParseError:
        return "parse-error";
      case ErrorKind::BadRequest:
        return "bad-request";
      case ErrorKind::Overloaded:
        return "overloaded";
      case ErrorKind::Unsupported:
        return "unsupported";
      case ErrorKind::RejectedPlan:
        return "rejected-plan";
      case ErrorKind::Internal:
        return "internal";
    }
    return "?";
}

ParsedRequest
parseRequest(const std::string &line, const util::JsonLimits &limits)
{
    ParsedRequest out;
    util::ParsedJson doc = util::jsonParse(line, limits);
    if (!doc.ok) {
        out.errorKind = ErrorKind::ParseError;
        out.error = util::strformat(
            "%s: %s", util::jsonErrorKindName(doc.errorKind),
            doc.error.c_str());
        return out;
    }
    if (!doc.value.isObject()) {
        out.errorKind = ErrorKind::BadRequest;
        out.error = "request must be a JSON object";
        return out;
    }

    // Echo "id" even when a later field is rejected, so the client
    // can still match the error to its request.
    std::string err;
    if (!getString(doc.value, "id", &out.request.id, &err)) {
        out.errorKind = ErrorKind::BadRequest;
        out.error = err;
        return out;
    }
    out.id = out.request.id;

    const util::JsonValue *op = doc.value.find("op");
    if (op == nullptr || !op->isString() ||
        !opFromName(op->str(), &out.request.op)) {
        out.errorKind = ErrorKind::BadRequest;
        out.error = "unknown or missing \"op\"";
        return out;
    }

    // Job fields live in a nested "job" object (the canonical
    // shape); bare top-level fields are accepted as shorthand.  A
    // present-but-non-object "job" is a typed error, not a silent
    // fall-through to the default job.
    const util::JsonValue *job_node = doc.value.find("job");
    if (job_node != nullptr && !job_node->isObject()) {
        out.errorKind = ErrorKind::BadRequest;
        out.error = "\"job\" must be an object";
        return out;
    }
    const util::JsonValue &job_src =
        job_node != nullptr ? *job_node : doc.value;

    switch (out.request.op) {
      case RequestOp::Plan:
      case RequestOp::Analyze:
      case RequestOp::Robustness:
        if (!parseJob(job_src, &out.request.job, &err)) {
            out.errorKind = ErrorKind::BadRequest;
            out.error = err;
            return out;
        }
        if (out.request.op == RequestOp::Robustness) {
            const util::JsonValue *sc = doc.value.find("scenarios");
            if (sc == nullptr || !sc->isArray() ||
                sc->items().empty()) {
                out.errorKind = ErrorKind::BadRequest;
                out.error = "robustness needs a non-empty"
                            " \"scenarios\" array";
                return out;
            }
            // Hand the subtree to the text-based scenario parser in
            // the same shape the --robustness file uses.
            out.request.scenariosText =
                "{\"scenarios\":" + util::jsonRender(*sc) + "}";
        }
        break;
      case RequestOp::Stall:
        if (!getDouble(doc.value, "ms", 0.0, 60000.0,
                       &out.request.stallMs, &err)) {
            out.errorKind = ErrorKind::BadRequest;
            out.error = err;
            return out;
        }
        break;
      case RequestOp::Ping:
      case RequestOp::Stats:
      case RequestOp::Shutdown:
        break;
    }
    out.ok = true;
    return out;
}

std::string
errorResponse(const std::string &id, ErrorKind kind,
              const std::string &message)
{
    return util::strformat(
        "{\"id\":%s,\"ok\":false,\"error\":{\"kind\":%s,"
        "\"message\":%s}}",
        util::jsonQuote(id).c_str(),
        util::jsonQuote(errorKindName(kind)).c_str(),
        util::jsonQuote(message).c_str());
}

std::string
okResponse(const std::string &id, RequestOp op,
           const std::string &resultBody)
{
    return util::strformat(
        "{\"id\":%s,\"ok\":true,\"op\":%s,\"result\":%s}",
        util::jsonQuote(id).c_str(),
        util::jsonQuote(requestOpName(op)).c_str(),
        resultBody.c_str());
}

} // namespace serve
} // namespace mpress
