/**
 * @file
 * Unit tests for the discrete-event engine, streams and join counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/engine.hh"
#include "sim/stream.hh"

using mpress::sim::Engine;
using mpress::sim::JoinCounter;
using mpress::sim::Stream;
using mpress::util::Tick;

TEST(Engine, RunsEventsInTimeOrder)
{
    Engine eng;
    std::vector<int> order;
    eng.schedule(30, [&] { order.push_back(3); });
    eng.schedule(10, [&] { order.push_back(1); });
    eng.schedule(20, [&] { order.push_back(2); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eng.now(), 30);
    EXPECT_EQ(eng.eventsExecuted(), 3u);
}

TEST(Engine, SameTickFifoOrder)
{
    Engine eng;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eng.schedule(100, [&order, i] { order.push_back(i); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsCanScheduleEvents)
{
    Engine eng;
    int fired = 0;
    eng.schedule(5, [&] {
        eng.scheduleIn(10, [&] {
            ++fired;
            EXPECT_EQ(eng.now(), 15);
        });
    });
    eng.run();
    EXPECT_EQ(fired, 1);
}

TEST(Engine, StopInterruptsRun)
{
    Engine eng;
    int fired = 0;
    eng.schedule(1, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule(2, [&] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 1);
    eng.run();  // resumes with remaining events
    EXPECT_EQ(fired, 2);
}

TEST(Engine, ResetClearsState)
{
    Engine eng;
    eng.schedule(50, [] {});
    eng.run();
    EXPECT_EQ(eng.now(), 50);
    eng.reset();
    EXPECT_EQ(eng.now(), 0);
    EXPECT_TRUE(eng.empty());
    EXPECT_EQ(eng.eventsExecuted(), 0u);
}

TEST(Engine, PastSchedulingPanics)
{
    Engine eng;
    eng.schedule(10, [&] {
        EXPECT_DEATH(eng.schedule(5, [] {}), "past");
    });
    eng.run();
}

TEST(Stream, SerializesTasks)
{
    Engine eng;
    Stream s(eng, "test");
    std::vector<std::pair<Tick, Tick>> spans;
    eng.schedule(0, [&] {
        s.submit(10, [&](Tick a, Tick b) { spans.emplace_back(a, b); });
        s.submit(5, [&](Tick a, Tick b) { spans.emplace_back(a, b); });
    });
    eng.run();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0], (std::pair<Tick, Tick>{0, 10}));
    EXPECT_EQ(spans[1], (std::pair<Tick, Tick>{10, 15}));
    EXPECT_EQ(s.busyTime(), 15);
    EXPECT_EQ(s.tasks(), 2u);
}

TEST(Stream, IdleGapBeforeLateSubmission)
{
    Engine eng;
    Stream s(eng, "test");
    Tick started = -1;
    eng.schedule(100, [&] {
        s.submit(10, [&](Tick a, Tick) { started = a; });
    });
    eng.run();
    EXPECT_EQ(started, 100);
    EXPECT_EQ(s.busyUntil(), 110);
    EXPECT_EQ(s.busyTime(), 10);  // idle time not counted
}

TEST(Stream, ZeroDurationTask)
{
    Engine eng;
    Stream s(eng, "test");
    Tick end = -1;
    eng.schedule(7, [&] { s.submit(0, [&](Tick, Tick b) { end = b; }); });
    eng.run();
    EXPECT_EQ(end, 7);
}

TEST(JoinCounter, FiresAfterAllArrivals)
{
    int fired = 0;
    JoinCounter j(3, [&] { ++fired; });
    j.arrive();
    j.arrive();
    EXPECT_EQ(fired, 0);
    j.arrive();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(j.remaining(), 0);
}

TEST(JoinCounter, ZeroCountFiresImmediately)
{
    int fired = 0;
    JoinCounter j(0, [&] { ++fired; });
    EXPECT_EQ(fired, 1);
}

TEST(StreamAndEngine, InterleavedStreamsOverlap)
{
    // Two independent streams run concurrently; total makespan is the
    // max of the two, not the sum — this is the property the D2D swap
    // overlap argument rests on.
    Engine eng;
    Stream compute(eng, "compute");
    Stream copy(eng, "copy");
    Tick compute_end = 0, copy_end = 0;
    eng.schedule(0, [&] {
        compute.submit(100, [&](Tick, Tick b) { compute_end = b; });
        copy.submit(60, [&](Tick, Tick b) { copy_end = b; });
    });
    eng.run();
    EXPECT_EQ(compute_end, 100);
    EXPECT_EQ(copy_end, 60);
    EXPECT_EQ(eng.now(), 100);
}

// ---------------------------------------------------------------
// Fast-path queue semantics (pooled slots, inline callables)
// ---------------------------------------------------------------

TEST(Engine, StopLeavesRemainderQueued)
{
    Engine eng;
    int fired = 0;
    eng.schedule(1, [&] {
        ++fired;
        eng.stop();
    });
    eng.schedule(2, [&] { ++fired; });
    eng.schedule(3, [&] { ++fired; });
    eng.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eng.queueDepth(), 2u);
    eng.run();
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(eng.empty());
}

TEST(Engine, ResetRewindsAndReleasesPendingCallbacks)
{
    Engine eng;
    eng.schedule(5, [] {});
    eng.run();
    // A pending event with an owning capture: reset() must destroy
    // it (the ASan leg catches a leak here).
    eng.schedule(10, [p = std::make_unique<int>(7)] { (void)*p; });
    eng.reset();
    EXPECT_EQ(eng.now(), 0);
    EXPECT_EQ(eng.eventsExecuted(), 0u);
    EXPECT_EQ(eng.queueDepth(), 0u);
    EXPECT_EQ(eng.poolSlots(), 0u);
    // The engine is fully reusable, including same-tick FIFO order
    // from a rewound sequence counter.
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        eng.schedule(3, [&order, i] { order.push_back(i); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

namespace {

/** Self-rescheduling closure used to pin the slot-recycling
 *  guarantee: a chain must not grow the slab. */
struct ChainHop
{
    Engine *eng;
    int *count;
    int left;
    void
    operator()()
    {
        ++*count;
        if (--left > 0)
            eng->scheduleIn(1, *this);
    }
};

} // namespace

TEST(Engine, SelfSchedulingChainPlateausThePool)
{
    Engine eng;
    int count = 0;
    eng.scheduleIn(1, ChainHop{&eng, &count, 10000});
    eng.run();
    EXPECT_EQ(count, 10000);
    // The executing hop's slot is recycled right after it runs, so a
    // chain alternates between at most two slots.
    EXPECT_LE(eng.poolSlots(), 2u);
    EXPECT_EQ(eng.eventsExecuted(), 10000u);
}

TEST(Engine, MoveOnlyCaptureRoundTrips)
{
    // std::function required copyable callables; the pooled queue
    // must accept move-only captures and destroy them exactly once.
    Engine eng;
    int out = 0;
    auto p = std::make_unique<int>(41);
    eng.schedule(1, [&out, p = std::move(p)] { out = *p + 1; });
    eng.run();
    EXPECT_EQ(out, 42);
}

TEST(Stream, CompletionCanResubmitToTheSameStream)
{
    // Reentrancy through the internal completion ring: a completion
    // firing at the ring head submits more work to the same stream.
    Engine eng;
    Stream stream(eng, "reentrant");
    Tick final_end = 0;
    eng.schedule(0, [&] {
        stream.submit(10, [&](Tick, Tick) {
            stream.submit(5, [&](Tick, Tick b) { final_end = b; });
        });
    });
    eng.run();
    EXPECT_EQ(final_end, 15);
    EXPECT_EQ(stream.tasks(), 2u);
}

TEST(Stream, NameIsAViewOfOwnedStorage)
{
    Engine eng;
    std::string name = "pcie.d2h.gpu0";
    Stream stream(eng, name);
    name.clear();  // the stream owns its copy
    EXPECT_EQ(stream.name(), "pcie.d2h.gpu0");
}

// ---------------------------------------------------------------
// A node-partitioned engine: messages, windows and node stops
// ---------------------------------------------------------------

TEST(Engine, PartitionRejectsBadShapes)
{
    Engine eng;
    EXPECT_DEATH(eng.partition(0, 10), "1\\.\\.16384 nodes");
    EXPECT_DEATH(eng.partition(Engine::kMaxNodes + 1, 10),
                 "1\\.\\.16384 nodes");
    EXPECT_DEATH(eng.partition(2, 0), "lookahead");
    eng.schedule(5, [] {});
    EXPECT_DEATH(eng.partition(2, 10), "1 events pending");
    eng.reset();
    // The edges are legal, and one node needs no lookahead.
    eng.partition(1, 0);
    eng.partition(Engine::kMaxNodes, 1);
    EXPECT_EQ(eng.nodes(), Engine::kMaxNodes);
}

TEST(PartitionedEngine, CrossNodeMessageFiresAtItsTick)
{
    Engine eng;
    eng.partition(2, 10);
    std::vector<std::pair<int, Tick>> fired;
    eng.scheduleOn(0, 5, [&] {
        fired.push_back({0, eng.now()});
        eng.post(1, [&] { fired.push_back({1, eng.now()}); });
    });
    eng.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], (std::pair<int, Tick>{0, 5}));
    EXPECT_EQ(fired[1], (std::pair<int, Tick>{1, 15}));
    EXPECT_EQ(eng.windows(), 2u);
}

TEST(PartitionedEngine, MessageExactlyAtTheLookaheadHorizonFires)
{
    // A message lands exactly one lookahead on: the first tick of the
    // *next* window.  A window bound that was inclusive where it
    // should be exclusive (or vice versa) either loses the window or
    // counts one too many.
    Engine eng;
    eng.partition(2, 7);
    Tick fired_at = -1;
    eng.scheduleOn(1, 100, [] {});
    eng.scheduleOn(0, 3, [&] {
        eng.post(1, [&] { fired_at = eng.now(); });
    });
    eng.run();
    EXPECT_EQ(fired_at, 10);
    EXPECT_EQ(eng.now(), 100);
    // Windows open at 3, 10 and 100.
    EXPECT_EQ(eng.windows(), 3u);
}

TEST(PartitionedEngine, ZeroLatencySelfScheduleStaysLocal)
{
    // An event may schedule another at its own tick on its own node,
    // exactly as on an unpartitioned engine; only post() pays the
    // lookahead.
    Engine eng;
    eng.partition(2, 10);
    std::vector<int> order;
    eng.scheduleOn(0, 4, [&] {
        order.push_back(1);
        eng.schedule(eng.now(), [&] { order.push_back(2); });
        eng.scheduleIn(0, [&] { order.push_back(3); });
    });
    eng.scheduleOn(1, 50, [] {});
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(PartitionedEngine, StopMidWindowIsWindowGranular)
{
    // A node's stop ends that node at once, while the other nodes
    // finish the window; nothing in a later window runs.
    Engine eng;
    eng.partition(2, 10);
    std::vector<int> fired;
    eng.scheduleOn(0, 1, [&] {
        fired.push_back(1);
        eng.stop();
    });
    // Same window (ticks [1, 11)) on the stopped node: dropped.
    eng.scheduleOn(0, 3, [&] { fired.push_back(2); });
    // Same window on the other node: runs, and may schedule within it.
    eng.scheduleOn(1, 5, [&] {
        fired.push_back(3);
        eng.scheduleIn(5, [&] { fired.push_back(4); });
        eng.scheduleIn(6, [&] { fired.push_back(5); });
    });
    // Next window: stays queued.
    eng.scheduleOn(1, 40, [&] { fired.push_back(6); });
    eng.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 3, 4}));
    EXPECT_EQ(eng.now(), 10);
    EXPECT_EQ(eng.windows(), 1u);
    EXPECT_EQ(eng.eventsExecuted(), 3u);
    EXPECT_EQ(eng.queueDepth(), 2u);
}

TEST(PartitionedEngine, TwoNodesStopInOneWindow)
{
    // Node 1 stops while node 0's stop is finishing the window: both
    // lose the rest of it, node 2 still runs all of it.
    Engine eng;
    eng.partition(3, 10);
    std::vector<int> fired;
    eng.scheduleOn(0, 0, [&] {
        fired.push_back(1);
        eng.stop();
    });
    eng.scheduleOn(1, 2, [&] {
        fired.push_back(2);
        eng.stop();
    });
    eng.scheduleOn(0, 4, [&] { fired.push_back(3); });
    eng.scheduleOn(1, 5, [&] { fired.push_back(4); });
    eng.scheduleOn(2, 6, [&] { fired.push_back(5); });
    eng.scheduleOn(2, 9, [&] { fired.push_back(6); });
    eng.scheduleOn(2, 10, [&] { fired.push_back(7); });
    eng.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 5, 6}));
    EXPECT_EQ(eng.now(), 9);
    EXPECT_EQ(eng.queueDepth(), 1u);
}

TEST(PartitionedEngine, MergeOrderIsWhenThenSourceThenSeq)
{
    // Messages from different nodes landing on one node at the same
    // tick fire in (source, post order), whatever order the sources
    // ran in, and before the destination's local events at that tick.
    Engine eng;
    eng.partition(3, 5);
    std::vector<int> order;
    eng.scheduleOn(1, 5, [&] {
        eng.post(2, [&] { order.push_back(10); });
        eng.post(2, [&] { order.push_back(11); });
    });
    eng.scheduleOn(0, 5, [&] {
        eng.post(2, [&] { order.push_back(0); });
        eng.post(2, [&] { order.push_back(1); });
    });
    eng.scheduleOn(2, 10, [&] { order.push_back(99); });
    eng.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 99}));
}

TEST(PartitionedEngine, ResetRetainsSlabsAndReplaysIdentically)
{
    Engine eng;
    eng.partition(2, 4);
    auto load = [&](std::vector<Tick> *fired) {
        eng.scheduleOn(0, 0, [&, fired] {
            fired->push_back(eng.now());
            eng.post(1, [&, fired] { fired->push_back(eng.now()); });
        });
    };
    std::vector<Tick> first, second;
    load(&first);
    eng.run();
    EXPECT_EQ(eng.windows(), 2u);
    eng.reset();
    EXPECT_EQ(eng.now(), 0);
    EXPECT_EQ(eng.windows(), 0u);
    EXPECT_EQ(eng.nodes(), 2);  // the partition survives reset()
    load(&second);
    eng.run();
    EXPECT_EQ(first, second);
    EXPECT_EQ(first, (std::vector<Tick>{0, 4}));
    eng.reset();
    eng.shrink();
    EXPECT_EQ(eng.reservedSlots(), 0u);
}

// ---------------------------------------------------------------
// The queue against a reference order
// ---------------------------------------------------------------

namespace {

/**
 * Drives an engine with seeded random schedules, posts, chains and
 * stops, and replays every step on a reference model: a std::set of
 * the pending events in the documented firing order, with the run
 * loop's window and stop rules spelled out.  Every event the engine
 * fires must be the model's next one, and queueDepth(), queuePeak(),
 * poolSlots(), windows() and eventsExecuted() must equal the model's.
 */
class QueueDiff
{
  public:
    QueueDiff(int nodes, Tick lookahead, std::uint64_t seed)
        : _nodes(nodes), _lookahead(lookahead), _rng(seed),
          _stopped(static_cast<std::size_t>(nodes), 0)
    {
        if (nodes > 1)
            eng.partition(nodes, lookahead);
        rewind();
    }

    Engine eng;

    // What a fired event does, drawn from the seed.
    int maxChildren = 2;       ///< local events or posts: 0..max
    Tick maxDelay = 20;        ///< a local child lands [0, max] later
    double postOdds = 0.3;     ///< a child is a post (several nodes)
    double stopOdds = 0.0;     ///< the event stops its node
    double chainOdds = 0.1;    ///< a set-up event starts a chain
    int chainHops = 50;        ///< hops of a chain, 0 or 1 tick apart
    std::uint64_t budget = 3000;  ///< fired events that may spawn

    /** Schedule @p count set-up events on random nodes, at ticks
     *  drawn from [now, now + span]. */
    void
    load(int count, Tick span)
    {
        std::uniform_int_distribution<int> node(0, _nodes - 1);
        std::uniform_int_distribution<Tick> at(0, span);
        std::bernoulli_distribution chain(chainOdds);
        for (int i = 0; i < count; ++i) {
            int hops = chain(_rng) ? chainHops : 0;
            local(node(_rng), eng.now() + at(_rng), hops, true);
        }
    }

    /** One run(), checked step by step against the model. */
    void
    run()
    {
        _stopping = false;
        std::fill(_stopped.begin(), _stopped.end(), 0);
        eng.run();
        // The model must agree that the run is over.
        std::optional<int> extra = next();
        if (extra && !_failed) {
            ADD_FAILURE() << "run() returned before event " << *extra;
            _failed = true;
        }
        expectCounters();
    }

    /** run() until the queue drains (stops leave events queued). */
    void
    drain()
    {
        for (int i = 0; i < 100000 && !eng.empty() && !_failed; ++i)
            run();
        EXPECT_TRUE(eng.empty());
    }

    /** reset() the engine (events may be pending) and the model. */
    void
    reset()
    {
        eng.reset();
        rewind();
        expectCounters();
        EXPECT_EQ(eng.now(), 0);
    }

    std::uint64_t executed() const { return _executed; }
    bool failed() const { return _failed; }

  private:
    /** Firing order: tick; then messages (band 0) before local events
     *  (band 1); messages by (source node, post order), local events
     *  by scheduling order; last the event id. */
    using Key = std::tuple<Tick, int, int, std::uint64_t, int>;

    struct Event
    {
        int node;
        Tick when;
        int hops;  ///< chain hops still to schedule
    };

    void
    rewind()
    {
        _pending.clear();
        _locals = 0;
        _messages = 0;
        _peak = 0;
        _slots = 0;
        _windows = 0;
        _executed = 0;
        _horizon = _nodes > 1 ? 0 : std::numeric_limits<Tick>::max();
    }

    void
    expectCounters()
    {
        EXPECT_EQ(eng.queueDepth(), _pending.size());
        EXPECT_EQ(eng.queuePeak(), _peak);
        EXPECT_EQ(eng.poolSlots(), _slots);
        EXPECT_EQ(eng.windows(), _windows);
        EXPECT_EQ(eng.eventsExecuted(), _executed);
    }

    /** A new pending event: the queue's depth and the slots in use
     *  (the running event still holds its own) may peak. */
    void
    note(const Key &key)
    {
        _pending.insert(key);
        _peak = std::max(_peak, _pending.size());
        _slots = std::max(_slots, _pending.size() + (_inEvent ? 1 : 0));
    }

    int
    newEvent(int node, Tick when, int hops)
    {
        _events.push_back(Event{node, when, hops});
        return static_cast<int>(_events.size()) - 1;
    }

    /** A local event: from set-up code on @p node, or from the running
     *  event on its own node. */
    void
    local(int node, Tick when, int hops, bool setup)
    {
        int id = newEvent(node, when, hops);
        note(Key{when, 1, 0, _locals++, id});
        if (setup)
            eng.scheduleOn(node, when, [this, id] { fire(id); });
        else
            eng.schedule(when, [this, id] { fire(id); });
    }

    void
    post(int src, int dst)
    {
        Tick when = eng.now() + _lookahead;
        int id = newEvent(dst, when, 0);
        note(Key{when, 0, src, _messages++, id});
        eng.post(dst, [this, id] { fire(id); });
    }

    /** The model's next event to run, dropping what a stop drops;
     *  nullopt where run() must return. */
    std::optional<int>
    next()
    {
        while (!_pending.empty()) {
            auto it = _pending.begin();
            const Tick when = std::get<0>(*it);
            const int id = std::get<4>(*it);
            if (_stopping) {
                // One node returns at once; several finish the window.
                if (_nodes == 1 || when >= _horizon)
                    return std::nullopt;
                _pending.erase(it);
                if (_stopped[static_cast<std::size_t>(
                        _events[static_cast<std::size_t>(id)].node)])
                    continue;
                return id;
            }
            _pending.erase(it);
            if (when >= _horizon) {
                _horizon = when + _lookahead;
                ++_windows;
            }
            return id;
        }
        return std::nullopt;
    }

    void
    fire(int id)
    {
        if (_failed)
            return;
        std::optional<int> want = next();
        const Event ev = _events[static_cast<std::size_t>(id)];
        if (!want || *want != id || eng.now() != ev.when) {
            ADD_FAILURE() << "engine fired event " << id << " at tick "
                          << eng.now() << ", the reference order "
                          << (want ? std::to_string(*want) : "nothing")
                          << " (after " << _executed << " events)";
            _failed = true;
            return;
        }
        ++_executed;
        if (eng.queueDepth() != _pending.size()) {
            ADD_FAILURE() << "queueDepth() " << eng.queueDepth()
                          << " against " << _pending.size();
            _failed = true;
            return;
        }
        _inEvent = true;
        if (ev.hops > 0) {
            std::uniform_int_distribution<Tick> gap(0, 1);
            local(ev.node, eng.now() + gap(_rng), ev.hops - 1, false);
        }
        if (_executed <= budget) {
            std::uniform_int_distribution<int> kids(0, maxChildren);
            std::uniform_int_distribution<Tick> delay(0, maxDelay);
            std::uniform_int_distribution<int> node(0, _nodes - 1);
            std::bernoulli_distribution is_post(_nodes > 1 ? postOdds
                                                           : 0.0);
            for (int k = kids(_rng); k > 0; --k) {
                if (is_post(_rng))
                    post(ev.node, node(_rng));
                else
                    local(ev.node, eng.now() + delay(_rng), 0, false);
            }
        }
        if (stopOdds > 0.0 &&
            std::bernoulli_distribution(stopOdds)(_rng)) {
            eng.stop();
            _stopping = true;
            _stopped[static_cast<std::size_t>(ev.node)] = 1;
        }
        _inEvent = false;
    }

    const int _nodes;
    const Tick _lookahead;
    std::mt19937_64 _rng;
    std::vector<Event> _events;
    std::set<Key> _pending;
    std::uint64_t _locals = 0;
    std::uint64_t _messages = 0;
    std::size_t _peak = 0;
    std::size_t _slots = 0;
    std::uint64_t _windows = 0;
    std::uint64_t _executed = 0;
    Tick _horizon = 0;
    bool _stopping = false;
    std::vector<char> _stopped;
    bool _inEvent = false;
    bool _failed = false;
};

} // namespace

TEST(Engine, QueueMatchesReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        QueueDiff q(1, 0, seed);
        q.load(40, 30);
        q.drain();
        EXPECT_GT(q.executed(), 1000u);
        // Stops leave the rest queued; the next run() resumes it.
        QueueDiff stops(1, 0, seed);
        stops.stopOdds = 0.01;
        stops.load(40, 30);
        stops.drain();
        EXPECT_FALSE(stops.failed());
    }
}

TEST(Engine, QueueMatchesReferenceOrderAcrossResetAndShrink)
{
    QueueDiff q(1, 0, 11);
    q.stopOdds = 0.02;
    q.load(60, 100);
    q.run();
    ASSERT_FALSE(q.eng.empty());
    // reset() with events pending, then reuse.
    q.reset();
    q.load(60, 100);
    q.drain();
    q.reset();
    q.eng.shrink();
    EXPECT_EQ(q.eng.reservedSlots(), 0u);
    q.stopOdds = 0.0;
    q.load(60, 100);
    q.drain();
    EXPECT_FALSE(q.failed());
}

TEST(Engine, DeepQueueMatchesReferenceOrder)
{
    // 10^4 pending events at random ticks, and every fired event
    // inserts up to two more at random depths.
    QueueDiff q(1, 0, 21);
    q.chainOdds = 0.0;
    q.maxDelay = 1000000;
    q.budget = 10000;
    q.load(10000, 1000000);
    q.drain();
    EXPECT_GE(q.eng.queuePeak(), 10000u);
    EXPECT_FALSE(q.failed());
}

TEST(PartitionedEngine, QueueMatchesReferenceOrder)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        QueueDiff q(3, 7, seed);
        q.load(40, 30);
        q.drain();
        EXPECT_GT(q.eng.windows(), 10u);
        // A stop is window-granular: the stopped node loses the rest
        // of the window, later windows stay queued.
        QueueDiff stops(3, 7, seed);
        stops.stopOdds = 0.01;
        stops.load(40, 30);
        stops.drain();
        stops.reset();
        stops.load(40, 30);
        stops.drain();
        EXPECT_FALSE(stops.failed());
    }
}
