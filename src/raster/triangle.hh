/**
 * @file
 * Screen-space textured triangles — the unit of work that flows from
 * the geometry stage to the texture mapping stage in the paper's
 * sort-middle machine, and the record type of our triangle traces
 * (the analogue of the traces the authors extracted from Mesa).
 */

#ifndef TEXDIST_RASTER_TRIANGLE_HH
#define TEXDIST_RASTER_TRIANGLE_HH

#include <cstdint>

#include "texture/texture.hh"

namespace texdist
{

/**
 * A post-transform vertex: screen position in pixels, the reciprocal
 * homogeneous w for perspective-correct interpolation (1.0 for
 * affine/2D content), and normalized texture coordinates.
 */
struct TexVertex
{
    float x = 0.0f;    ///< pixel x (floating point, subpixel precise)
    float y = 0.0f;    ///< pixel y, increasing downwards
    float invW = 1.0f; ///< 1 / clip-space w
    float u = 0.0f;    ///< texture s coordinate (normalized)
    float v = 0.0f;    ///< texture t coordinate (normalized)

    bool operator==(const TexVertex &) const = default;
};

/** A textured screen-space triangle. */
struct TexTriangle
{
    TexVertex v[3];
    TextureId tex = 0;

    bool operator==(const TexTriangle &) const = default;
};

/**
 * One rasterized fragment: the pixel plus everything the texture
 * unit needs to generate its eight texel addresses, and the
 * interpolated 1/w the image renderer uses for depth testing.
 */
struct Fragment
{
    int32_t x = 0;
    int32_t y = 0;
    float u = 0.0f;    ///< perspective-correct normalized s
    float v = 0.0f;    ///< perspective-correct normalized t
    float lod = 0.0f;  ///< mip level of detail (may be negative)
    float invW = 1.0f; ///< interpolated 1/w (depth; larger = nearer)
};

} // namespace texdist

#endif // TEXDIST_RASTER_TRIANGLE_HH
