/**
 * @file
 * In-order execution streams, the building block for simulated GPU
 * compute queues, copy engines, NVLink lanes, PCIe lanes and NVMe
 * channels.
 *
 * A Stream serializes submitted work items: a task starts at
 * max(submission time, previous task's end) and occupies the stream
 * for its duration.  This mirrors CUDA stream semantics, which is
 * exactly what MPress' runtime relies on for overlapping swap traffic
 * with computation.
 *
 * Hot-path note: completions are kept in a stream-internal FIFO ring,
 * and the engine event is just `[this] { finishHead(); }` — an
 * 8-byte capture that always fits the engine's inline slot.  The FIFO
 * is correct because a stream is in-order: task end ticks are
 * monotonically non-decreasing and same-tick completions keep
 * submission order via the engine's sequence tie-break, so completion
 * events pop heads in exactly submission order.  The engine-visible
 * schedule (end tick and sequence per submit) is unchanged from the
 * capture-the-callback formulation, so simulations are byte-identical.
 *
 * The cheapest event is the one never scheduled: occupy() books a
 * task without an event, so a transfer striped over k lanes costs
 * one engine event rather than k (see hw::Fabric).
 */

#ifndef MPRESS_SIM_STREAM_HH
#define MPRESS_SIM_STREAM_HH

#include <string>
#include <string_view>
#include <vector>

#include "sim/engine.hh"
#include "util/inline_function.hh"
#include "util/units.hh"

namespace mpress {
namespace sim {

/** Inline capacity of a Stream completion: sized so a whole EventFn
 *  (e.g. a fabric Done) nests inline with room to spare. */
inline constexpr std::size_t kCompletionCapacity = 96;
static_assert(sizeof(EventFn) <= kCompletionCapacity,
              "an EventFn must nest inline in a Stream::Completion");

/**
 * An in-order, single-server execution resource attached to an Engine.
 *
 * A Stream with pending tasks must outlive its Engine's pending
 * events (completion events reference the stream).  All owners in
 * this codebase declare the engine before its streams, so the streams
 * are destroyed first and their pending events are only ever
 * destructed, never invoked.
 */
class Stream
{
  public:
    /** Callback fired when a task completes: (start_tick, end_tick). */
    using Completion =
        util::InlineFunction<void(Tick, Tick), kCompletionCapacity>;

    /** Observer fired synchronously for every submitted task with its
     *  computed (start_tick, end_tick) occupancy interval.  Used by
     *  the observability layer to record per-stream utilization
     *  without growing the event queue. */
    using TaskHook = util::InlineFunction<void(Tick, Tick), 48>;

    Stream(Engine &engine, std::string name)
        : _engine(engine), _name(std::move(name))
    {}

    Stream(const Stream &) = delete;
    Stream &operator=(const Stream &) = delete;

    /**
     * Submit a task of @p duration ticks.  The task begins at
     * max(now, busyUntil) and @p on_complete fires at its end.
     * Zero-duration tasks are legal and complete at their start tick.
     */
    void
    submit(Tick duration, Completion on_complete)
    {
        Tick end = occupy(duration);
        pushPending(end - duration, end, std::move(on_complete));
        _engine.schedule(end, [this] { finishHead(); });
    }

    /**
     * Book a task of @p duration ticks exactly as submit() does —
     * start at max(now, busyUntil), busy time, task count, TaskHook —
     * but schedule no event; returns the end tick.  A caller that
     * joins several lanes (the fabric's striped transfers) schedules
     * one event of its own at the latest end.
     */
    Tick
    occupy(Tick duration)
    {
        Tick start = std::max(_engine.now(), _busyUntil);
        Tick end = start + duration;
        _busyUntil = end;
        _busyTime += duration;
        ++_tasks;
        if (_hook)
            _hook(start, end);
        return end;
    }

    /** Install (or clear) the per-task occupancy observer. */
    void setTaskHook(TaskHook hook) { _hook = std::move(hook); }

    /**
     * Return the stream to its just-constructed state, keeping the
     * ring's capacity (no deallocation).  Pending completions are
     * destroyed, never invoked.  Only legal after the owning engine's
     * event queue has been reset too — a live finishHead event
     * pointing at a reset stream would pop a cleared ring.  Arena
     * reuse (runtime::ExecutorArena) resets the engine first, then
     * every retained stream.
     */
    void
    reset()
    {
        _hook = TaskHook();
        for (std::size_t i = 0; i < _pendingCount; ++i) {
            _ring[(_head + i) & (_ring.size() - 1)].fn = Completion();
        }
        _head = 0;
        _pendingCount = 0;
        _busyUntil = 0;
        _busyTime = 0;
        _tasks = 0;
    }

    /**
     * Release the completion ring's storage entirely.  Only legal
     * after reset() (no pending completions); the ring re-grows on
     * the next submit.  Part of the arena high-water policy — see
     * Engine::shrink().
     */
    void
    shrink()
    {
        _ring.clear();
        _ring.shrink_to_fit();
        _head = 0;
    }

    /** Tick at which the last submitted task ends. */
    Tick busyUntil() const { return _busyUntil; }

    /** Total busy (occupied) time accumulated across tasks. */
    Tick busyTime() const { return _busyTime; }

    /** Number of tasks submitted. */
    std::uint64_t tasks() const { return _tasks; }

    /** The name is owned by the stream; no copy on access. */
    std::string_view name() const { return _name; }

  private:
    struct Pending
    {
        Tick start = 0;
        Tick end = 0;
        Completion fn;
    };

    void
    pushPending(Tick start, Tick end, Completion &&fn)
    {
        if (_pendingCount == _ring.size())
            growRing();
        Pending &p =
            _ring[(_head + _pendingCount) & (_ring.size() - 1)];
        p.start = start;
        p.end = end;
        p.fn = std::move(fn);
        ++_pendingCount;
    }

    void
    finishHead()
    {
        Pending &p = _ring[_head];
        Completion fn = std::move(p.fn);
        Tick start = p.start;
        Tick end = p.end;
        _head = (_head + 1) & (_ring.size() - 1);
        --_pendingCount;
        if (fn)
            fn(start, end);
    }

    void
    growRing()
    {
        // Power-of-two capacity so the index mask stays a single AND.
        std::vector<Pending> bigger(
            _ring.empty() ? 4 : _ring.size() * 2);
        for (std::size_t i = 0; i < _pendingCount; ++i) {
            bigger[i] =
                std::move(_ring[(_head + i) & (_ring.size() - 1)]);
        }
        _ring = std::move(bigger);
        _head = 0;
    }

    Engine &_engine;
    std::string _name;
    TaskHook _hook;
    std::vector<Pending> _ring;  ///< FIFO of in-flight completions
    std::size_t _head = 0;
    std::size_t _pendingCount = 0;
    Tick _busyUntil = 0;
    Tick _busyTime = 0;
    std::uint64_t _tasks = 0;
};

/**
 * Fires a callback once a fixed number of dependencies have completed,
 * each in an engine event of its own (the tensor-parallel baseline
 * joins its all-reduces this way).  The fabric's striped transfers do
 * not use it: every lane is booked at issue time, so the join's tick
 * is known up front and one event suffices (Stream::occupy()).
 */
class JoinCounter
{
  public:
    JoinCounter(int count, EventFn fn) : _remaining(count)
    {
        // A pre-satisfied join fires immediately and never stores the
        // callable at all (the old code copied it into the member
        // first and invoked from there).
        if (count <= 0) {
            if (fn)
                fn();
            return;
        }
        _fn = std::move(fn);
    }

    /** Mark one dependency complete; fires the callback on the last. */
    void
    arrive()
    {
        if (--_remaining == 0 && _fn)
            _fn();
    }

    int remaining() const { return _remaining; }

  private:
    int _remaining;
    EventFn _fn;
};

} // namespace sim
} // namespace mpress

#endif // MPRESS_SIM_STREAM_HH
