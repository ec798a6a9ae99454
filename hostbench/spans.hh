/**
 * @file
 * Outside-in span recorder for the traced benchmark run.
 *
 * Spans are opened and closed by the benchmark around its calls into
 * the library's public API (no span lives inside the library).  Each
 * span carries its name, start and end in microseconds since the
 * recorder was built, the span that was open when it started (its
 * parent) and a job id shared by every span of one job.  Spans stay in
 * memory; the run writes them out once, at the end, as a Chrome trace
 * and as a per-layer table (calls, total, self time, share of the run).
 *
 * Recording is single-threaded: only the benchmark's main thread opens
 * spans.  A disabled recorder records nothing and costs one branch.
 */

#ifndef HOSTBENCH_SPANS_HH
#define HOSTBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p start. */
inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

struct Span
{
    std::string name;
    int job = 0;
    int parent = -1;
    double startUs = 0.0;
    double endUs = 0.0;

    double durUs() const { return endUs - startUs; }
};

/** One row of the per-layer table. */
struct LayerRow
{
    std::string name;
    int calls = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
    double share = 0.0;  ///< self time over the root spans' time
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled)
        : _enabled(enabled), _origin(Clock::now())
    {}

    bool enabled() const { return _enabled; }

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, int id) : _rec(rec), _id(id) {}
        ~Scope() { end(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Close the span now rather than at the end of scope. */
        void
        end()
        {
            _rec.close(_id);
            _id = -1;
        }

      private:
        SpanRecorder &_rec;
        int _id;
    };

    /** Open a span named @p name for job @p job under the innermost
     *  open span; it closes when the returned scope ends. */
    [[nodiscard]] Scope
    scope(const std::string &name, int job = 0)
    {
        return Scope(*this, open(name, job));
    }

    /** Wall time spent inside the recorder itself (tracing cost). */
    double overheadMs() const { return _overheadUs / 1000.0; }

    const std::vector<Span> &spans() const { return _spans; }

    /** Per-layer table: spans grouped by name, in first-seen order.
     *  Self time is a span's duration minus its children's. */
    std::vector<LayerRow>
    layerTable() const
    {
        std::vector<double> child_us(_spans.size(), 0.0);
        double root_us = 0.0;
        for (const Span &s : _spans) {
            if (s.parent >= 0)
                child_us[static_cast<std::size_t>(s.parent)] +=
                    s.durUs();
            else
                root_us += s.durUs();
        }
        std::vector<LayerRow> rows;
        std::map<std::string, std::size_t> index;
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            auto [it, fresh] = index.emplace(s.name, rows.size());
            if (fresh)
                rows.push_back(LayerRow{s.name});
            LayerRow &row = rows[it->second];
            row.calls += 1;
            row.totalMs += s.durUs() / 1000.0;
            row.selfMs += (s.durUs() - child_us[i]) / 1000.0;
        }
        for (LayerRow &row : rows)
            row.share = root_us > 0.0 ? row.selfMs * 1000.0 / root_us
                                      : 0.0;
        return rows;
    }

    /** Write the spans as a Chrome trace (one track per job) with
     *  @p host_json attached as trace metadata. */
    bool
    writeChromeTrace(const std::string &path,
                     const std::string &host_json) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "{\"otherData\":{\"host\":%s},\"traceEvents\":[",
                     host_json.c_str());
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f,
                         "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d,"
                         "\"job\":%d}}",
                         i ? "," : "", s.name.c_str(), s.job, s.startUs,
                         s.durUs(), i, s.parent, s.job);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         _origin)
            .count();
    }

    int
    open(const std::string &name, int job)
    {
        if (!_enabled)
            return -1;
        double t0 = nowUs();
        Span s;
        s.name = name;
        s.job = job;
        s.parent = _stack.empty() ? -1 : _stack.back();
        int id = static_cast<int>(_spans.size());
        _spans.push_back(std::move(s));
        _stack.push_back(id);
        double t1 = nowUs();
        _spans.back().startUs = t1;
        _overheadUs += t1 - t0;
        return id;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        double t0 = nowUs();
        _spans[static_cast<std::size_t>(id)].endUs = t0;
        _stack.erase(std::find(_stack.begin(), _stack.end(), id));
        _overheadUs += nowUs() - t0;
    }

    bool _enabled;
    Clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<int> _stack;
    double _overheadUs = 0.0;
};

} // namespace hostbench

#endif // HOSTBENCH_SPANS_HH
