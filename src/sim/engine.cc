#include "sim/engine.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mpress {
namespace sim {

std::uint32_t
Engine::acquireSlot()
{
    if (_freeHead != kNoSlot) {
        std::uint32_t slot = _freeHead;
        _freeHead = slotRef(slot).next;
        return slot;
    }
    if ((_slotCount & (kChunkSize - 1)) == 0 &&
        (_slotCount >> kChunkShift) == _chunks.size()) {
        // Default-init, not make_unique: value-initialization would
        // zero every slot's whole inline buffer (a memset of the full
        // chunk); the default constructors only set the real fields.
        // After reset() the chunks survive, so a reused engine walks
        // back into its old slabs without touching the allocator.
        _chunks.emplace_back(new Slot[kChunkSize]); // lint-hotpath: allow (cold slab growth)
    }
    return _slotCount++;
}

std::uint32_t
Engine::pushEntry(Tick when, std::uint64_t seq, std::uint32_t node)
{
    if (when < _now) {
        util::panic("event scheduled in the past (%lld < %lld)",
                    static_cast<long long>(when),
                    static_cast<long long>(_now));
    }
    std::uint32_t slot = acquireSlot();
    const QueueEntry ev{when, seq, slot, node};
    // Before the vector would grow, drop the consumed prefix if it is
    // at least as long as the pending run.  Storage then stays within
    // four times the peak depth, and a compaction moves no more
    // entries than were popped since the last one (amortized O(1)).
    const std::size_t depth = _queue.size() - _head;
    if (_queue.size() == _queue.capacity() && _head >= depth) {
        _queue.erase(_queue.begin(),
                     _queue.begin() + static_cast<std::ptrdiff_t>(_head));
        _head = 0;
    }
    _queue.push_back(ev);
    // Walk back from the tail past the events that run after @p ev,
    // shifting each up a place.
    QueueEntry *first = _queue.data() + _head;
    QueueEntry *pos = _queue.data() + _queue.size() - 1;
    while (pos != first && later(pos[-1], ev)) {
        *pos = pos[-1];
        --pos;
    }
    *pos = ev;
    if (depth + 1 > _queuePeak)
        _queuePeak = depth + 1;
    return slot;
}

std::uint32_t
Engine::postEntry(std::uint32_t dst)
{
    if (_nextMsgSeq >> kMsgShift != 0)
        util::panic("message sequence band exhausted");
    return pushEntry(_now + _lookahead,
                     std::uint64_t{_node} << kMsgShift | _nextMsgSeq++,
                     dst);
}

std::uint32_t
Engine::checkedNode(int node) const
{
    if (node < 0 || node >= nodes())
        util::panic("node %d out of range (%d nodes)", node, nodes());
    return static_cast<std::uint32_t>(node);
}

void
Engine::partition(int nodes, Tick lookahead)
{
    if (nodes < 1 || nodes > kMaxNodes)
        util::panic("engine partition needs 1..%d nodes (got %d)",
                    kMaxNodes, nodes);
    if (nodes > 1 && lookahead < 1)
        util::panic("engine partition of %d nodes needs a lookahead "
                    ">= 1 tick (got %lld)",
                    nodes, static_cast<long long>(lookahead));
    // Pending events and the running node name nodes of the old
    // partition.
    if (!empty())
        util::panic("engine partition with %zu events pending",
                    queueDepth());
    _node = 0;
    _stopped.assign(static_cast<std::size_t>(nodes), 0);
    _lookahead = lookahead;
    _horizon = nodes > 1 ? 0 : kNoHorizon;
}

Engine::QueueEntry
Engine::popFront()
{
    return _queue[_head++];
}

void
Engine::invoke(std::uint32_t s)
{
    // Invoke in place: chunks never move, so the slot reference stays
    // valid even if the callback schedules further events (which can
    // only draw from the freelist or new chunks, never this
    // still-held slot).  The slot is recycled after the call, so a
    // self-scheduling chain alternates between two slots.
    Slot &slot = slotRef(s);
    ++_eventsExecuted;
    if (slot.fn)
        slot.fn();
    release(s);
}

void
Engine::release(std::uint32_t s)
{
    Slot &slot = slotRef(s);
    slot.fn = nullptr;
    slot.next = _freeHead;
    _freeHead = s;
}

void
Engine::run()
{
    _stopping = false;
    std::fill(_stopped.begin(), _stopped.end(), 0);
    while (!empty()) {
        QueueEntry ev = popFront();
        if (ev.when >= _horizon) {
            _horizon = ev.when + _lookahead;
            ++_windows;
        }
        _now = ev.when;
        _node = ev.node;
        invoke(ev.slot);
        if (_stopping) {
            if (nodes() > 1)
                finishWindow();
            return;
        }
    }
}

void
Engine::finishWindow()
{
    while (!empty() && _queue[_head].when < _horizon) {
        QueueEntry ev = popFront();
        if (_stopped[ev.node]) {
            release(ev.slot);
            continue;
        }
        _now = ev.when;
        _node = ev.node;
        invoke(ev.slot);
    }
}

void
Engine::reset()
{
    // Destroy pending callbacks (they may own resources) but keep the
    // slab chunks and the queue vector's capacity: a reset engine
    // replays its next simulation at the old high-water mark without
    // a single allocation, which is what makes per-worker executor
    // arenas worth reusing across planner trials.
    for (std::size_t i = _head; i < _queue.size(); ++i)
        slotRef(_queue[i].slot).fn = nullptr;
    _queue.clear();
    _head = 0;
    _slotCount = 0;
    _freeHead = kNoSlot;
    _now = 0;
    _node = 0;
    _nextSeq = kLocalSeqBase;
    _nextMsgSeq = 0;
    _queuePeak = 0;
    _eventsExecuted = 0;
    _horizon = nodes() > 1 ? 0 : kNoHorizon;
    _windows = 0;
    _stopping = false;
}

void
Engine::shrink()
{
    if (!empty())
        util::panic("Engine::shrink() with %zu events pending",
                    queueDepth());
    _chunks.clear();
    _chunks.shrink_to_fit();
    _queue.clear();
    _queue.shrink_to_fit();
    _head = 0;
    _slotCount = 0;
    _freeHead = kNoSlot;
    _queuePeak = 0;
}

} // namespace sim
} // namespace mpress
