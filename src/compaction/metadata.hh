/**
 * @file
 * Swap metadata table (Sec. III-C).
 *
 * For every tensor instance that goes through D2D swap, MPress
 * records the number of sub-blocks, their sizes and their target
 * devices before the swap-out executes; the swap-in operator is
 * driven from this record and retires it on completion.  The same
 * table tracks GPU-CPU swapped instances (a single "stripe" to the
 * host) so that the executor has one lookup path.
 *
 * Storage is flat.  A dense index holds one slot number per instance
 * at layer x microbatches + microbatch, the executor's instance
 * order; the records sit in a pool of slots that grows only to the
 * most records ever live at once.  complete() and abort() return a
 * slot to the pool, reset() returns them all, and a recycled slot
 * keeps the capacity of its stripe and landed vectors.  So once the
 * pool has grown, beginning, finding and retiring a record allocates
 * nothing, and a table kept across runs of one job (the executor
 * arena's) allocates nothing at all.  Memory is one int32 per
 * instance plus one record per swap ever in flight at once.
 *
 * A record lives from beginSwapOut() until complete() or abort(),
 * and its address is stable for that whole span: later swap-outs
 * never move it.  After complete(), abort() or reset() the slot may
 * be handed to the next swap-out, so a pointer kept past them is
 * stale.
 */

#ifndef MPRESS_COMPACTION_METADATA_HH
#define MPRESS_COMPACTION_METADATA_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "compaction/striping.hh"
#include "memory/liveness.hh"

namespace mpress {
namespace compaction {

/** Key of one swapped tensor instance: tensor class + microbatch. */
struct InstanceKey
{
    TensorRef ref;
    int microbatch = 0;

    bool
    operator<(const InstanceKey &o) const
    {
        if (!(ref == o.ref))
            return ref < o.ref;
        return microbatch < o.microbatch;
    }
};

/** Lifecycle states of a swapped tensor instance. */
enum class SwapState
{
    SwappingOut,  ///< swap-out issued, sub-blocks in flight
    Resident,     ///< fully offloaded (host or peer GPUs)
    SwappingIn,   ///< swap-in issued
};

/** One record in the metadata table. */
struct SwapRecord
{
    InstanceKey key;
    Kind kind = Kind::None;  ///< GpuCpuSwap or D2dSwap
    StripePlan plan;         ///< empty for GPU-CPU swap
    Bytes bytes = 0;
    SwapState state = SwapState::SwappingOut;
    /** GPU-CPU swap spilled past the host pool onto NVMe (the
     *  multi-level hierarchy of Sec. V). */
    bool onNvme = false;

    // The one transfer in flight for this instance: a D2D swap-out's
    // stripes, or a D2D swap-in's.  An instance never has both.

    /** Stripes of the in-flight transfer not yet settled. */
    int remaining = 0;
    /** A swap-out stripe exhausted its retries. */
    bool anyFailed = false;
    /** Per swap-out stripe: the importer's memory is reserved, so
     *  undoing the swap-out frees exactly what was taken. */
    std::vector<char> landed;
};

/**
 * Registry of in-flight and offloaded swap instances.
 */
class SwapMetadataTable
{
  public:
    /**
     * Retire every record and size the index for layers
     * [0, @p layers) and microbatches [0, @p microbatches), one run's
     * instances.  The slots stay, and are handed out again in the
     * order a new table would create them.  A key outside the index
     * grows it in beginSwapOut().
     */
    void reset(int layers, int microbatches);

    /** Create a record as the swap-out operator is issued; panics if
     *  the instance is already tracked (double swap-out).  The record
     *  holds a copy of @p plan's stripes. */
    SwapRecord &beginSwapOut(InstanceKey key, Kind kind,
                             const StripePlan &plan, Bytes bytes);

    /** The same with no stripes yet: the caller writes them into the
     *  record's plan, whose recycled capacity it reuses. */
    SwapRecord &beginSwapOut(InstanceKey key, Kind kind, Bytes bytes);

    /** Look up a record; nullptr if absent. */
    SwapRecord *find(InstanceKey key);
    const SwapRecord *find(InstanceKey key) const;

    /** Mark an instance fully offloaded. */
    void markResident(InstanceKey key);

    /** Mark a swap-in issued. */
    void markSwappingIn(InstanceKey key);

    /** Retire a record once the swap-in lands; panics if absent. */
    void complete(InstanceKey key);

    /**
     * Drop a record whose swap-out was undone (the fault ladder
     * demoting a failed D2D swap to another kind re-registers the
     * instance under the fallback kind); panics if absent.
     */
    void abort(InstanceKey key);

    std::size_t size() const { return _live; }
    bool empty() const { return _live == 0; }

  private:
    static constexpr std::int32_t kNoSlot = -1;

    /** Widen the index to at least @p layers x @p microbatches,
     *  keeping the live records. */
    void grow(int layers, int microbatches);
    /** Index position of @p key, or -1 outside the index. */
    std::ptrdiff_t position(InstanceKey key) const;
    /** Slot holding @p key's record, or kNoSlot. */
    std::int32_t slotOf(InstanceKey key) const;

    SwapRecord &require(InstanceKey key);

    /** Slot number per instance, kNoSlot when none; _layers rows of
     *  _microbatches entries. */
    std::vector<std::int32_t> _index;
    int _layers = 0;
    int _microbatches = 0;

    /** Record slots; a deque so records never move. */
    std::deque<SwapRecord> _slots;
    std::vector<std::int32_t> _free;
    std::size_t _live = 0;
};

} // namespace compaction
} // namespace mpress

#endif // MPRESS_COMPACTION_METADATA_HH
