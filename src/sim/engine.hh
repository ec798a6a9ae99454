/**
 * @file
 * Discrete-event simulation engine.
 *
 * The engine owns a time-ordered event queue.  Events scheduled for the
 * same tick fire in scheduling order (a monotonically increasing
 * sequence number breaks ties), which makes every simulation fully
 * deterministic.
 *
 * One engine runs every topology.  A multi-node simulation partitions
 * it by node (partition()): every event carries the node it runs on,
 * and anything that crosses nodes is a message (post()) that lands
 * exactly one lookahead — the inter-node NIC latency floor — after the
 * event that sends it.  Conservative time windows [W, W + lookahead)
 * are bookkeeping only: they decide where a stop lands and are counted
 * in windows(), and no thread ever runs one.
 *
 * Fast-path internals: callbacks live in a chunked slab of pooled
 * slots (recycled through a freelist, so a steady-state simulation
 * reuses a handful of slots forever) and the queue is one sorted run
 * of plain {when, seq, slot, node} records: earliest tick first, ties
 * broken by lowest sequence number.  A pop takes the run's head in
 * O(1).  An insertion walks back from the tail past every record that
 * runs after the inserted one, shifting each up a place, so it costs
 * O(pending events later than it) and a monotone schedule appends in
 * O(1).  The queues are shallow.  Replaying each reference job's
 * winning plan, queuePeak() is 18 on gpt-25.5b/DGX-2, 29 / 34 on
 * bert-1.67b / bert-4.0b on DGX-1 and 24 / 50 on the 2- and 8-node
 * HGX jobs, and an inserted event has on average 2.0, 5.2 and 14.9
 * pending events after it on gpt-25.5b/DGX-2, bert-1.67b and the
 * 8-node job.  A deep queue whose insertions land early would pay
 * O(depth) each; no run in this repository comes near one.
 * schedule() is a template that constructs the closure directly in
 * its slot (no intermediate callable object, no move), chunks never
 * move so callbacks are invoked in place, and callbacks are
 * util::InlineFunction, so captures up to the inline capacity never
 * touch the allocator.
 */

#ifndef MPRESS_SIM_ENGINE_HH
#define MPRESS_SIM_ENGINE_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "util/inline_function.hh"
#include "util/units.hh"

namespace mpress {
namespace sim {

using util::Tick;

/** Event callback.  The 64-byte capacity is graded to the largest
 *  hot-path capture in the runtime (the executor's striped-swap retry
 *  closures); bigger captures still work via heap fallback. */
using EventFn = util::InlineFunction<void(), 64>;

/**
 * The event-driven simulation core.
 *
 * Usage: schedule closures at absolute ticks (or relative via
 * scheduleIn), then run() to drain the queue.  Closures may schedule
 * further events; the simulation ends when the queue empties or an
 * explicit stop() is requested.
 *
 * Why one partitioned engine runs events in the order that one engine
 * per node did, with messages merged at each window's barrier in
 * (tick, source node, per-source order) and fired before the
 * destination's local events at their tick:
 *  - Every cross-node effect goes through post().  So by induction
 *    each node schedules, and then runs, its own events in the same
 *    order as its own engine did: a local event's sequence number is
 *    a scheduling counter, which grows in the node's own order.
 *  - Messages that reach a node at tick t were all posted at
 *    t - lookahead, so they were posted in one window.  The barrier
 *    delivered them in (tick, source, per-source order), and that is
 *    the order of the message key (source << 48 | post counter).
 *    That key sits below every local sequence number, so they still
 *    run before the node's local events at t.
 *  - Events of different nodes touch no common state except through
 *    messages, so how nodes interleave at equal ticks cannot be
 *    observed.  One engine per node never defined it either.
 */
class Engine
{
  public:
    using Callback = EventFn;

    /** Nodes the 14-bit source field of a message key can name. */
    static constexpr int kMaxNodes = 1 << 14;

    Engine() = default;

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p fn at absolute tick @p when (>= now()) on the
     *  running event's node.  The closure is constructed directly in
     *  its pooled slot. */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        Slot &slot = slotRef(pushEntry(when, _nextSeq++, _node));
        slot.fn.emplace(std::forward<F>(fn));
    }

    /** Schedule @p fn at @p when on @p node.  For set-up code outside
     *  run() (a node's first event, timed fault windows); an event
     *  schedules on its own node with schedule(). */
    template <typename F>
    void
    scheduleOn(int node, Tick when, F &&fn)
    {
        Slot &slot = slotRef(
            pushEntry(when, _nextSeq++, checkedNode(node)));
        slot.fn.emplace(std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(_now + delay, std::forward<F>(fn));
    }

    /**
     * Send a message from the running event's node: @p fn runs on
     * node @p dst exactly one lookahead after now().  At its tick a
     * message fires before every local event, and messages fire in
     * (source node, post order).
     */
    template <typename F>
    void
    post(int dst, F &&fn)
    {
        Slot &slot = slotRef(postEntry(checkedNode(dst)));
        slot.fn.emplace(std::forward<F>(fn));
    }

    /**
     * Split the engine into @p nodes nodes whose messages take
     * @p lookahead ticks.  Survives reset().  Panics if @p nodes is
     * below 1 or above kMaxNodes, if @p lookahead < 1 with more than
     * one node, or if events are pending.  A default engine has one
     * node.
     */
    void partition(int nodes, Tick lookahead);

    int nodes() const { return static_cast<int>(_stopped.size()); }

    /**
     * Run until the event queue drains or stop() is called.  With one
     * node, run() returns after the stopping event and leaves the
     * rest queued.  With more, a stop is window-granular: the other
     * nodes finish the current window, the stopped nodes' remaining
     * events in it are dropped, and later windows stay queued.
     */
    void run();

    /** Stop the running event's node (see run()). */
    void
    stop()
    {
        _stopping = true;
        _stopped[_node] = 1;
    }

    /** Number of events executed since construction or reset(). */
    std::uint64_t eventsExecuted() const { return _eventsExecuted; }

    /** Conservative windows opened since construction or reset(); 0
     *  with one node. */
    std::uint64_t windows() const { return _windows; }

    /** True if no events remain. */
    bool empty() const { return _head == _queue.size(); }

    /** Clear all pending events and rewind time to zero.  Pending
     *  callbacks are destroyed but the slab chunks and queue capacity
     *  are retained, so a reused engine runs allocation-free up to
     *  its previous high-water mark (executor-arena reuse).  Must not
     *  be called from inside a running event: the event's own closure
     *  lives in a slot being recycled. */
    void reset();

    /**
     * Release the retained slab chunks and queue storage entirely.
     * Only legal when the queue is empty (reset() first); the next
     * simulation re-grows from nothing.  This is the arena high-water
     * policy's lever: a serving process that just ran a 512-GPU job
     * calls shrink() instead of holding peak-sized pools forever.
     */
    void shrink();

    /** Slab size of the callback pool (high-water mark of events
     *  simultaneously pending; steady-state chains plateau). */
    std::size_t poolSlots() const { return _slotCount; }

    /** Events currently pending. */
    std::size_t queueDepth() const { return _queue.size() - _head; }

    /** Deepest the event queue ever got since construction or
     *  reset(). */
    std::size_t queuePeak() const { return _queuePeak; }

    /** Slots the retained slab chunks can hold without allocating
     *  (survives reset(); shrink() drops it to zero). */
    std::size_t
    reservedSlots() const
    {
        return _chunks.size() * kChunkSize;
    }

  private:
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

    /** First sequence number of locally scheduled events.  Messages
     *  draw from [0, kLocalSeqBase) as (source node << kMsgShift) |
     *  post counter; locals from [kLocalSeqBase, ...). */
    static constexpr std::uint64_t kLocalSeqBase = std::uint64_t{1}
                                                   << 62;
    static constexpr int kMsgShift = 48;
    static constexpr Tick kNoHorizon = std::numeric_limits<Tick>::max();

    /** Slots per slab chunk.  Chunks are never reallocated, so a
     *  callback's address stays valid while it executes even if it
     *  schedules further events. */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

    struct Slot
    {
        Callback fn;
        std::uint32_t next = kNoSlot;  ///< freelist link
    };

    /** Queue record; plain data so insertion shifts never move
     *  callbacks around.  The node fills what was padding: 24 bytes. */
    struct QueueEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t node;
    };

    /** True if @p a runs after @p b. */
    static bool
    later(const QueueEntry &a, const QueueEntry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    Slot &
    slotRef(std::uint32_t s)
    {
        return _chunks[s >> kChunkShift][s & (kChunkSize - 1)];
    }

    /** Validate @p when, reserve a slot, insert the queue record; the
     *  caller fills the slot's callback in place. */
    std::uint32_t pushEntry(Tick when, std::uint64_t seq,
                            std::uint32_t node);
    /** pushEntry() for a message from the running node. */
    std::uint32_t postEntry(std::uint32_t dst);
    std::uint32_t checkedNode(int node) const;
    std::uint32_t acquireSlot();
    /** Take the earliest pending record (the queue is not empty). */
    QueueEntry popFront();
    /** Run the event in @p slot and recycle the slot. */
    void invoke(std::uint32_t slot);
    /** Destroy @p slot's callback and return it to the freelist. */
    void release(std::uint32_t slot);
    /** After a stop: finish the window for the nodes still running. */
    void finishWindow();

    /** Pending records sorted by (when, seq) in [_head, size());
     *  the prefix before _head is consumed. */
    std::vector<QueueEntry> _queue;
    std::size_t _head = 0;
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::uint32_t _slotCount = 0;  ///< slots ever handed out
    std::uint32_t _freeHead = kNoSlot;
    std::size_t _queuePeak = 0;
    Tick _now = 0;
    std::uint32_t _node = 0;  ///< node of the running event
    std::uint64_t _nextSeq = kLocalSeqBase;
    std::uint64_t _nextMsgSeq = 0;
    std::uint64_t _eventsExecuted = 0;
    Tick _lookahead = 0;
    /** Exclusive end of the current window; the maximum tick with
     *  one node, so it never opens one. */
    Tick _horizon = kNoHorizon;
    std::uint64_t _windows = 0;
    bool _stopping = false;
    /** Per node: stopped during this run(); its size is the node
     *  count. */
    std::vector<char> _stopped = std::vector<char>(1, 0);
};

} // namespace sim
} // namespace mpress

#endif // MPRESS_SIM_ENGINE_HH
