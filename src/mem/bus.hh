/**
 * @file
 * External texture-memory bus model.
 *
 * Following Section 3.1 of the paper, the bus is characterized only
 * by the maximum texel-to-fragment ratio it can sustain: a node draws
 * at most one fragment per cycle, so a ratio of R means the bus
 * delivers R texels per engine cycle (R = 1 corresponds to e.g. a
 * 400 Mpixel/s engine fed by 200 MHz SDRAM on a 64-bit bus). Memory
 * *latency* is assumed fully recoverable by prefetching [Igehy 98],
 * so only occupancy is modelled: a missed 64-byte line (16 texels)
 * holds the bus for 16/R cycles, and transfers are served strictly
 * in order.
 */

#ifndef TEXDIST_MEM_BUS_HH
#define TEXDIST_MEM_BUS_HH

#include <cstdint>

#include "sim/checkpoint.hh"
#include "sim/tick.hh"

namespace texdist
{

/**
 * A per-node texture bus. Stateless apart from the time at which the
 * last transfer completes; the fragment prefetch queue that hides the
 * latency lives in the node model.
 */
class TextureBus
{
  public:
    /**
     * @param texels_per_cycle sustained bandwidth (the paper studies
     *        1 and 2); must be > 0
     */
    explicit TextureBus(double texels_per_cycle);

    /**
     * Enqueue a transfer of @p texels texels requested at
     * @p issue_tick. Transfers are serialized in request order.
     *
     * @return the tick at which the data has fully arrived
     */
    Tick transfer(Tick issue_tick, uint32_t texels);

    /** Tick at which the bus becomes idle. */
    Tick freeAt() const;

    /**
     * Inject a blackout: transfers that would start inside
     * [from, until) are pushed to @p until (a DRAM refresh storm or
     * lost arbitration — the fault layer's bus-stall fault). Only
     * the most recent blackout window is kept.
     */
    void stall(Tick from, Tick until);

    /** Transfers delayed by an injected blackout. */
    uint64_t stalledTransfers() const { return _stalledTransfers; }

    /** Configured bandwidth in texels per cycle. */
    double bandwidth() const { return texelsPerCycle; }

    uint64_t texelsTransferred() const { return _texelsTransferred; }
    uint64_t transfers() const { return _transfers; }

    /** Total cycles the bus spent transferring data. */
    double busyCycles() const { return _busyCycles; }

    /**
     * Fraction of @p elapsed cycles the bus was busy; the paper's
     * saturation discussions are about this reaching 1.
     */
    double
    utilization(Tick elapsed) const
    {
        return elapsed ? _busyCycles / double(elapsed) : 0.0;
    }

    void reset();

    /** Serialize the bus position and counters (checkpointing). */
    void serialize(CheckpointWriter &w) const;

    /** Restore from a checkpoint of a bus with equal bandwidth. */
    void unserialize(CheckpointReader &r);

  private:
    double texelsPerCycle;
    // Completion time of the last transfer. Kept as double so that
    // non-integer bandwidths accumulate without quantization drift.
    double freeTime = 0.0;
    double stallFrom = 0.0;
    double stallUntil = 0.0; ///< no blackout while == stallFrom
    double _busyCycles = 0.0;
    uint64_t _texelsTransferred = 0;
    uint64_t _transfers = 0;
    uint64_t _stalledTransfers = 0;
};

} // namespace texdist

#endif // TEXDIST_MEM_BUS_HH
