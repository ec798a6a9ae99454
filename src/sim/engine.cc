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
    _heap.push_back(HeapEntry{when, seq, slot, node});
    std::push_heap(_heap.begin(), _heap.end(), later);
    if (_heap.size() > _heapPeak)
        _heapPeak = _heap.size();
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
    if (!_heap.empty())
        util::panic("engine partition with %zu events pending",
                    _heap.size());
    _node = 0;
    _stopped.assign(static_cast<std::size_t>(nodes), 0);
    _lookahead = lookahead;
    _horizon = nodes > 1 ? 0 : kNoHorizon;
}

Engine::HeapEntry
Engine::popTop()
{
    std::pop_heap(_heap.begin(), _heap.end(), later);
    HeapEntry ev = _heap.back();
    _heap.pop_back();
    return ev;
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
    while (!_heap.empty()) {
        HeapEntry ev = popTop();
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
    while (!_heap.empty() && _heap.front().when < _horizon) {
        HeapEntry ev = popTop();
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
    // slab chunks and the heap vector's capacity: a reset engine
    // replays its next simulation at the old high-water mark without
    // a single allocation, which is what makes per-worker executor
    // arenas worth reusing across planner trials.
    for (const HeapEntry &ev : _heap)
        slotRef(ev.slot).fn = nullptr;
    _heap.clear();
    _slotCount = 0;
    _freeHead = kNoSlot;
    _now = 0;
    _node = 0;
    _nextSeq = kLocalSeqBase;
    _nextMsgSeq = 0;
    _heapPeak = 0;
    _eventsExecuted = 0;
    _horizon = nodes() > 1 ? 0 : kNoHorizon;
    _windows = 0;
    _stopping = false;
}

void
Engine::shrink()
{
    if (!_heap.empty())
        util::panic("Engine::shrink() with %zu events pending",
                    _heap.size());
    _chunks.clear();
    _chunks.shrink_to_fit();
    _heap.shrink_to_fit();
    _slotCount = 0;
    _freeHead = kNoSlot;
    _heapPeak = 0;
}

} // namespace sim
} // namespace mpress
