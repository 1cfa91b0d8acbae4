/**
 * @file
 * Bounded FIFO channel. This models the triangle FIFO "ahead of the
 * texture mapping engine" whose size Section 8 of the paper studies:
 * the geometry feeder blocks while any destination FIFO is full,
 * which is the mechanism that turns one slow node into *local* load
 * imbalance for all the others.
 */

#ifndef TEXDIST_SIM_FIFO_HH
#define TEXDIST_SIM_FIFO_HH

#include <cstddef>
#include <deque>

#include "sim/logging.hh"

namespace texdist
{

/**
 * A bounded FIFO with occupancy statistics. Not an active component:
 * producers and consumers are responsible for their own scheduling;
 * the FIFO only enforces capacity and order.
 */
template <typename T>
class BoundedFifo
{
  public:
    /** @param capacity maximum number of entries (> 0) */
    explicit BoundedFifo(size_t capacity) : _capacity(capacity)
    {
        if (capacity == 0)
            texdist_fatal("FIFO capacity must be positive");
    }

    size_t capacity() const { return _capacity; }
    size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }
    bool full() const { return entries.size() >= _capacity; }

    /** Free slots remaining (zero while overfilled by forcePush). */
    size_t
    space() const
    {
        return entries.size() >= _capacity
                   ? 0
                   : _capacity - entries.size();
    }

    /** Push one entry; the FIFO must not be full. */
    void
    push(const T &value)
    {
        if (full())
            texdist_panic("push to full FIFO");
        entries.push_back(value);
        if (entries.size() > _maxOccupancy)
            _maxOccupancy = entries.size();
    }

    /**
     * Push ignoring the capacity limit. Used only by graceful
     * degradation, which migrates a dead node's queued work onto the
     * survivors: real hardware would flow-control the migration, but
     * modelling that adds nothing to the timing (the receiving node
     * drains the entries at its normal rate either way). Overflow
     * still shows in maxOccupancy().
     */
    void
    forcePush(const T &value)
    {
        entries.push_back(value);
        if (entries.size() > _maxOccupancy)
            _maxOccupancy = entries.size();
    }

    /** Front entry; the FIFO must not be empty. */
    const T &
    front() const
    {
        if (empty())
            texdist_panic("front of empty FIFO");
        return entries.front();
    }

    /** Pop the front entry; the FIFO must not be empty. */
    T
    pop()
    {
        if (empty())
            texdist_panic("pop from empty FIFO");
        T value = entries.front();
        entries.pop_front();
        return value;
    }

    /** High-water mark since construction/reset. */
    size_t maxOccupancy() const { return _maxOccupancy; }

    /**
     * Fold an occupancy level observed *outside* the FIFO into the
     * high-water mark. The frame engine routes triangle streams
     * around the FIFO object (push and pop ticks are computed, not
     * enacted) but still models the occupancy a queue would have
     * seen; this keeps the statistic and its checkpoint
     * representation in one place.
     */
    void
    noteOccupancy(size_t occupancy)
    {
        if (occupancy > _maxOccupancy)
            _maxOccupancy = occupancy;
    }

    /**
     * The queued entries in order, front first — read-only access
     * for checkpoint serialization and diagnostics.
     */
    const std::deque<T> &contents() const { return entries; }

    /**
     * Restore the high-water mark from a checkpoint (>= current
     * occupancy; callers refill contents with push/forcePush first).
     */
    void
    restoreHighWater(size_t high_water)
    {
        if (high_water < entries.size())
            texdist_panic("FIFO high-water below occupancy");
        _maxOccupancy = high_water;
    }

    void
    clear()
    {
        entries.clear();
        _maxOccupancy = 0;
    }

  private:
    size_t _capacity;
    size_t _maxOccupancy = 0;
    std::deque<T> entries;
};

} // namespace texdist

#endif // TEXDIST_SIM_FIFO_HH
