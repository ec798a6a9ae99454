#include "compaction/metadata.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mpress {
namespace compaction {

void
SwapMetadataTable::reset(int layers, int microbatches)
{
    _layers = layers;
    _microbatches = microbatches;
    _index.assign(static_cast<std::size_t>(layers) *
                      static_cast<std::size_t>(microbatches),
                  kNoSlot);
    _free.clear();
    for (std::size_t slot = _slots.size(); slot > 0; --slot)
        _free.push_back(static_cast<std::int32_t>(slot - 1));
    _live = 0;
}

void
SwapMetadataTable::grow(int layers, int microbatches)
{
    const std::vector<std::int32_t> old = std::move(_index);
    _layers = std::max(layers, _layers);
    _microbatches = std::max(microbatches, _microbatches);
    _index.assign(static_cast<std::size_t>(_layers) *
                      static_cast<std::size_t>(_microbatches),
                  kNoSlot);
    for (std::int32_t slot : old) {
        if (slot != kNoSlot) {
            const InstanceKey key =
                _slots[static_cast<std::size_t>(slot)].key;
            _index[static_cast<std::size_t>(position(key))] = slot;
        }
    }
}

std::ptrdiff_t
SwapMetadataTable::position(InstanceKey key) const
{
    if (key.ref.layer < 0 || key.ref.layer >= _layers ||
        key.microbatch < 0 || key.microbatch >= _microbatches)
        return -1;
    return static_cast<std::ptrdiff_t>(key.ref.layer) * _microbatches +
           key.microbatch;
}

SwapRecord &
SwapMetadataTable::beginSwapOut(InstanceKey key, Kind kind,
                                const StripePlan &plan, Bytes bytes)
{
    SwapRecord &rec = beginSwapOut(key, kind, bytes);
    rec.plan.stripes.assign(plan.stripes.begin(), plan.stripes.end());
    return rec;
}

SwapRecord &
SwapMetadataTable::beginSwapOut(InstanceKey key, Kind kind, Bytes bytes)
{
    if (key.ref.layer < 0 || key.microbatch < 0) {
        util::panic("swap-out of tensor (%d,%d) mb %d: negative index",
                    key.ref.stage, key.ref.layer, key.microbatch);
    }
    if (position(key) < 0)
        grow(key.ref.layer + 1, key.microbatch + 1);
    std::int32_t &entry = _index[static_cast<std::size_t>(position(key))];
    if (entry != kNoSlot) {
        // A layer belongs to one stage, so (layer, microbatch) names
        // the instance.
        util::panic("double swap-out of tensor (%d,%d) mb %d",
                    key.ref.stage, key.ref.layer, key.microbatch);
    }
    if (_free.empty()) {
        _free.push_back(static_cast<std::int32_t>(_slots.size()));
        _slots.emplace_back();
    }
    entry = _free.back();
    _free.pop_back();
    ++_live;

    SwapRecord &rec = _slots[static_cast<std::size_t>(entry)];
    rec.key = key;
    rec.kind = kind;
    rec.plan.stripes.clear();
    rec.bytes = bytes;
    rec.state = SwapState::SwappingOut;
    rec.onNvme = false;
    rec.remaining = 0;
    rec.anyFailed = false;
    rec.landed.clear();
    return rec;
}

std::int32_t
SwapMetadataTable::slotOf(InstanceKey key) const
{
    const std::ptrdiff_t pos = position(key);
    if (pos < 0)
        return kNoSlot;
    const std::int32_t slot = _index[static_cast<std::size_t>(pos)];
    if (slot == kNoSlot ||
        !(_slots[static_cast<std::size_t>(slot)].key.ref == key.ref))
        return kNoSlot;
    return slot;
}

SwapRecord *
SwapMetadataTable::find(InstanceKey key)
{
    const std::int32_t slot = slotOf(key);
    return slot == kNoSlot ? nullptr
                           : &_slots[static_cast<std::size_t>(slot)];
}

const SwapRecord *
SwapMetadataTable::find(InstanceKey key) const
{
    const std::int32_t slot = slotOf(key);
    return slot == kNoSlot ? nullptr
                           : &_slots[static_cast<std::size_t>(slot)];
}

SwapRecord &
SwapMetadataTable::require(InstanceKey key)
{
    SwapRecord *rec = find(key);
    if (!rec) {
        util::panic("swap record (%d,%d) mb %d not found",
                    key.ref.stage, key.ref.layer, key.microbatch);
    }
    return *rec;
}

void
SwapMetadataTable::markResident(InstanceKey key)
{
    require(key).state = SwapState::Resident;
}

void
SwapMetadataTable::markSwappingIn(InstanceKey key)
{
    require(key).state = SwapState::SwappingIn;
}

void
SwapMetadataTable::complete(InstanceKey key)
{
    require(key);
    std::int32_t &entry = _index[static_cast<std::size_t>(position(key))];
    _free.push_back(entry);
    entry = kNoSlot;
    --_live;
}

void
SwapMetadataTable::abort(InstanceKey key)
{
    complete(key);
}

} // namespace compaction
} // namespace mpress
