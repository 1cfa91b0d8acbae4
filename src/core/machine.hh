/**
 * @file
 * What running a frame of the parallel sort-middle machine of
 * Figure 4 measures — the numbers the paper's figures are built
 * from — and the one-call entry point for a single frame. The
 * machine itself (a distribution, P texture-mapping nodes with
 * private caches and texture memories, the idealized geometry
 * feeder) is SequenceMachine; a single frame is a one-frame
 * sequence.
 */

#ifndef TEXDIST_CORE_MACHINE_HH
#define TEXDIST_CORE_MACHINE_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "scene/scene.hh"

namespace texdist
{

/** Per-node measurements of one frame. */
struct NodeResult
{
    uint64_t pixels = 0;
    uint64_t triangles = 0;
    Tick finishTime = 0;
    uint64_t cacheAccesses = 0;
    uint64_t cacheMisses = 0;
    uint64_t texelsFetched = 0;
    uint64_t stallCycles = 0;
    uint64_t idleCycles = 0;
    uint64_t setupBoundTriangles = 0;
    uint64_t setupWaitCycles = 0;
    size_t fifoMaxOccupancy = 0;
    double busUtilization = 0.0;
};

/** Whole-frame measurements. */
struct FrameResult
{
    Tick frameTime = 0; ///< cycles until the last node finished
    std::vector<NodeResult> nodes;

    uint64_t totalPixels = 0;       ///< fragments drawn (all nodes)
    uint64_t totalTexelsFetched = 0;
    uint64_t trianglesDispatched = 0;

    /**
     * Texels fetched from the external memories per fragment drawn —
     * the paper's texel-to-fragment ratio (Figure 6).
     */
    double texelToFragmentRatio = 0.0;

    /**
     * Percent extra work on the busiest node:
     * (max - mean) / mean * 100 over per-node pixel counts — the
     * measure of Figure 5's top graphs.
     */
    double pixelImbalancePercent = 0.0;

    /** Same measure over node finish times. */
    double timeImbalancePercent = 0.0;

    /** Longest FIFO occupancy across nodes. */
    size_t fifoMaxOccupancy = 0;

    /** Mean bus utilization across nodes (0 without a bus). */
    double meanBusUtilization = 0.0;

    /**
     * The frame completed but at least one node was declared dead
     * and its work redistributed to the survivors.
     */
    bool degraded = false;

    /**
     * The watchdog abandoned the frame: no progress while work
     * remained and degradation was impossible or disabled. The
     * measurements above cover only the work done before the stall.
     */
    bool failed = false;

    /** Why the frame failed (empty when it didn't). */
    std::string failureReason;

    /**
     * Structured per-node state dump captured at the moment of
     * failure or first watchdog detection (empty otherwise).
     */
    std::string diagnostic;

    /** Fault-injection and recovery counters for the frame. */
    FaultStats faultStats;

    /**
     * The frame ran functionally for sampled fast-forward (--sample
     * warm frames): the work and cache counters are exact, but every
     * timing field is 0. Deliberately not part of the frame digest —
     * digests are only defined for detailed frames.
     */
    bool estimated = false;

    /** Human-readable dump. */
    void print(std::ostream &os) const;
};

/** (max - mean) / mean in percent; 0 for empty or all-zero input. */
double imbalancePercent(const std::vector<uint64_t> &values);

class SceneRaster;

/**
 * Build a machine and run one frame of @p scene on it, cold. Single
 * frames report the FIFO high-water mark under the single-frame tie
 * rule (see FrameEntry).
 * @param raster a shared rasterization of @p scene to bucket instead
 *        of rasterizing (same result); null rasterizes
 */
FrameResult runFrame(const Scene &scene, const MachineConfig &config,
                     const SceneRaster *raster = nullptr);

} // namespace texdist

#endif // TEXDIST_CORE_MACHINE_HH
