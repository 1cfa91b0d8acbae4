/**
 * @file
 * Simulation time. Every frame runs on the two-phase frame engine
 * (core/frame_engine.hh), which computes the ticks at which the
 * paper's event-driven machine would have acted with direct clock
 * arithmetic.
 */

#ifndef TEXDIST_SIM_TICK_HH
#define TEXDIST_SIM_TICK_HH

#include <cstdint>

namespace texdist
{

/** Simulation time, in cycles. */
using Tick = uint64_t;

/** A large sentinel tick (never reached by real simulations). */
constexpr Tick maxTick = UINT64_MAX;

} // namespace texdist

#endif // TEXDIST_SIM_TICK_HH
