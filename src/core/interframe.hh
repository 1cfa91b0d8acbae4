/**
 * @file
 * Inter-frame texture locality — the paper's closing question.
 *
 * "The user often translates the viewpoint between frames. If this
 * translation was greater than the tile size, the L2 would reload
 * different textures in the next frame and the efficiency would be
 * reduced." This module provides the pieces to run that experiment:
 * derive frame N+1 from frame N by a screen-space camera pan (the
 * textures stay attached to the geometry, so the same texels appear
 * at shifted pixels), then measure each node's external traffic on
 * the second frame with caches left warm from the first.
 */

#ifndef TEXDIST_CORE_INTERFRAME_HH
#define TEXDIST_CORE_INTERFRAME_HH

#include <cstdint>

#include "core/config.hh"
#include "scene/scene.hh"

namespace texdist
{

/**
 * Frame N+1 after a camera pan of (dx, dy) pixels: every triangle
 * translated on screen, texture coordinates untouched (the texture
 * is bound to the surfaces, so a node that kept its texels cached
 * only benefits if the same texels still fall in its tiles). The
 * texture set is cloned at identical addresses.
 */
Scene translateScene(const Scene &scene, float dx, float dy);

/** Per-frame external traffic of a warm-cache two-frame run. */
struct InterFrameResult
{
    double frame1Ratio = 0.0; ///< texels fetched / fragment, frame 1
    double frame2Ratio = 0.0; ///< same for frame 2 with warm caches
    uint64_t frame1Fragments = 0;
    uint64_t frame2Fragments = 0;

    /** frame2Ratio / frame1Ratio: < 1 means inter-frame reuse. */
    double
    reuseFactor() const
    {
        return frame1Ratio > 0.0 ? frame2Ratio / frame1Ratio : 0.0;
    }
};

/**
 * Run @p frame1 (cold) and then @p frame2 functionally on one
 * machine of @p config, so frame 2 sees the caches frame 1 left.
 * Both frames must share the screen size and a common texture
 * address space (translateScene guarantees both).
 */
InterFrameResult measureInterFrame(const Scene &frame1,
                                   const Scene &frame2,
                                   const MachineConfig &config);

} // namespace texdist

#endif // TEXDIST_CORE_INTERFRAME_HH
