/**
 * @file
 * Sort-last comparator machine.
 *
 * The paper studies sort-middle, but frames it against the other
 * parallel-rendering organization from Molnar's taxonomy that the
 * same authors analysed in their companion papers [13, 14]: a
 * *sort-last* machine distributes whole triangles (objects) across
 * the nodes; every node renders its subset over the full screen into
 * a private color/Z image, and the images are composited at the end.
 *
 * For the texture cache the trade-off mirrors sort-middle's:
 *
 *  - Load balance comes from the triangle assignment (round-robin
 *    over triangles balances pixel work statistically, with no tile
 *    granularity effects at all).
 *  - Texture locality depends on how *object-coherent* the
 *    assignment is: round-robin splits every surface's consecutive
 *    triangles across all caches (each node samples a sparse
 *    scattering of every texture — poor reuse), while chunked
 *    assignment keeps runs of consecutive triangles (usually the
 *    same surface/character, hence the same texture region) on one
 *    node — the kind of scheme [14] proposes to repair sort-last
 *    texture caching.
 *  - There is no triangle-FIFO coupling between nodes: every node
 *    owns its stream end to end (the geometry stage is parallel by
 *    construction), so Section 8's local-imbalance effect does not
 *    exist here. The price is the composition pass.
 *
 * The node pipeline (setup engine, scan, cache, bus, prefetch
 * queue) is the sort-middle TextureNode, reused unchanged; only the
 * work distribution and the composition model differ. The machine
 * is SequenceMachine's sort-last form: the frame engine's phase 0
 * deals whole triangles by this triangle-to-node owner map and
 * phase 1 has nothing to couple.
 */

#ifndef TEXDIST_CORE_SORTLAST_HH
#define TEXDIST_CORE_SORTLAST_HH

#include <vector>

#include "core/machine.hh"

namespace texdist
{

/** How triangles are dealt to sort-last nodes. */
enum class SortLastAssign
{
    RoundRobin, ///< triangle i -> node i mod P
    Chunked,    ///< runs of chunkSize consecutive triangles
};

const char *to_string(SortLastAssign assign);

/** Configuration of the sort-last machine. */
struct SortLastConfig
{
    /** Node parameters (cache, bus, setup, prefetch) are shared
     * with the sort-middle MachineConfig; dist/tileParam/buffer are
     * ignored. */
    MachineConfig node;

    SortLastAssign assign = SortLastAssign::RoundRobin;

    /** Consecutive triangles per node under Chunked assignment. */
    uint32_t chunkSize = 32;

    /**
     * Composition network bandwidth in pixels per cycle per link;
     * 0 models an ideal (free) compositor, isolating the texture
     * stage as the paper does for its own geometry/network.
     * Composition is modelled as a pipelined binary tree: latency
     * ceil(log2 P) * screenArea / bandwidth after the last node
     * finishes.
     */
    double compositePixelsPerCycle = 0.0;
};

/** Results of a sort-last frame (shares NodeResult with FrameResult). */
struct SortLastResult
{
    Tick frameTime = 0;        ///< includes composition
    Tick renderTime = 0;       ///< max node finish
    Tick compositionCycles = 0;
    std::vector<NodeResult> nodes;
    uint64_t totalPixels = 0;
    uint64_t totalTexelsFetched = 0;
    double texelToFragmentRatio = 0.0;
    double pixelImbalancePercent = 0.0;
};

/** Build a sort-last machine and run one frame of @p scene. */
SortLastResult runSortLastFrame(const Scene &scene,
                                const SortLastConfig &config);

} // namespace texdist

#endif // TEXDIST_CORE_SORTLAST_HH
