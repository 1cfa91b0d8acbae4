/**
 * @file
 * Internal interface between TriangleRaster and its span kernels:
 * coverage (rowCoverage) and perspective interpolation
 * (interpolateRow). Every AVX2 kernel is bit-identical to its scalar
 * reference, so the emitted fragments — positions, order and
 * attribute bits, and therefore the shared-edge tie decisions and
 * every texel address downstream — cannot depend on the tier.
 *
 * Coverage: both paths evaluate the same bias-adjusted integer edge
 * functions. There is no SSE2 tier: SSE2 lacks a signed 64-bit
 * compare, and the edge values genuinely need 64 bits, so below AVX2
 * the scalar loop is the fast path.
 *
 * Interpolation: the scalar reference (raster_kernels.cc) and the
 * AVX2 kernel evaluate the same double expressions in the same
 * order, with no contraction (both TUs build with
 * -ffp-contract=off), and call the same libm log2f per lane. SSE2
 * holds only two doubles, so it runs the scalar reference too.
 */

#ifndef TEXDIST_RASTER_RASTER_KERNELS_HH
#define TEXDIST_RASTER_RASTER_KERNELS_HH

#include <cstdint>

namespace texdist
{
namespace detail
{

/**
 * One row's edge state, bias-adjusted so that a pixel is covered
 * exactly when all three values are non-negative (the tie-break rule
 * is folded into the bias): edge[e] is E_e at the first pixel centre
 * minus (acceptsZero ? 0 : 1).
 */
struct RowCoverage
{
    int64_t edge[3];
    int64_t step[3]; ///< per-pixel x increment of each edge value
};

/**
 * Fill ceil(n/64) little-endian words of coverage bits for n pixels.
 * False when this build has no AVX2 kernel (caller runs the scalar
 * loop).
 */
bool rowCoverageAvx2(const RowCoverage &rc, int32_t n,
                     uint64_t *bits);

/**
 * A triangle's interpolation planes f(x, y) = base + x*dx + y*dy at
 * pixel centres, for u/w, v/w and 1/w, plus the level-0 texture size
 * that scales the level of detail to texels.
 */
struct InterpPlanes
{
    double uwBase, uwDx, uwDy;
    double vwBase, vwDx, vwDy;
    double wBase, wDx, wDy;
    float texW, texH;
};

/**
 * Where a span's interpolated attributes go: one array per
 * attribute, entry i for the span's i-th covered pixel.
 */
struct SpanAttrs
{
    float *u;    ///< perspective-correct normalized s
    float *v;    ///< perspective-correct normalized t
    float *lod;  ///< mip level of detail
    float *invW; ///< interpolated 1/w
};

/**
 * Scalar reference: perspective-correct u, v, 1/w and level of
 * detail at the n pixel centres (xs[i] + .5, y + .5), written to
 * entries [0, n) of @p out.
 */
void interpolateRowScalar(const InterpPlanes &p, int32_t y,
                          const int32_t *xs, int32_t n,
                          const SpanAttrs &out);

/**
 * interpolateRowScalar() four pixels at a time, bit-identical to it.
 * False when this build has no AVX2 kernel (caller runs the scalar
 * reference).
 */
bool interpolateRowAvx2(const InterpPlanes &p, int32_t y,
                        const int32_t *xs, int32_t n,
                        const SpanAttrs &out);

} // namespace detail
} // namespace texdist

#endif // TEXDIST_RASTER_RASTER_KERNELS_HH
