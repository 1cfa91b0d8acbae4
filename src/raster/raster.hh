/**
 * @file
 * Watertight triangle rasterizer.
 *
 * The texture-mapping engines of the paper scan triangles pixel by
 * pixel after a setup stage computes the edge slopes. This module is
 * that scan stage: fixed-point edge functions (28.4 subpixel
 * precision) with a consistent tie-break rule, so that triangles
 * sharing an edge cover every pixel exactly once — the property the
 * paper's depth-complexity accounting relies on — plus
 * perspective-correct interpolation of texture coordinates and an
 * analytic per-pixel level of detail for mip-map selection.
 *
 * Rasterization is deliberately independent of the machine
 * distribution: the simulator assigns each emitted fragment to the
 * node owning its pixel, which models the paper's "clipping while
 * drawing" (a node spends cycles only on the pixels of its tiles).
 */

#ifndef TEXDIST_RASTER_RASTER_HH
#define TEXDIST_RASTER_RASTER_HH

#include <bit>
#include <cstdint>

#include "geom/rect.hh"
#include "raster/triangle.hh"

namespace texdist
{

/** Subpixel bits of the fixed-point snapping grid. */
constexpr int subpixelBits = 4;

/** One pixel in fixed-point units. */
constexpr int32_t subpixelOne = 1 << subpixelBits;

/**
 * Per-triangle setup: edge equations, interpolation planes and
 * bounding box. Construct once, then rasterize() against any number
 * of scissor rectangles.
 */
class TriangleRaster
{
  public:
    /**
     * @param tri screen-space triangle
     * @param tex_w, tex_h level-0 texture dimensions, used to express
     *        the level of detail in texel units
     */
    TriangleRaster(const TexTriangle &tri, uint32_t tex_w,
                   uint32_t tex_h);

    /** True when the snapped triangle has zero area. */
    bool degenerate() const { return _degenerate; }

    /** Pixel bounding box of the snapped triangle (half-open). */
    const Rect &bbox() const { return _bbox; }

    /**
     * Exact signed area of the snapped triangle in pixel units
     * (positive after the orientation normalization).
     */
    double areaPixels() const { return _areaPixels; }

    /**
     * Visit every pixel whose centre is covered, restricted to
     * @p scissor, in raster order (y-major), without interpolating
     * anything — for callers that only need to know which pixels a
     * triangle covers.
     *
     * Coverage is computed a span at a time into a bitmask by
     * rowCoverage() (scalar or AVX2, bit-identical either way) and
     * then walked bit by bit, so visit() runs for exactly the
     * covered pixels, in exactly the order the pixel-by-pixel loop
     * produced.
     *
     * @tparam Visit callable as visit(int32_t x, int32_t y)
     */
    template <typename Visit>
    void
    cover(const Rect &scissor, Visit &&visit) const
    {
        if (_degenerate)
            return;
        Rect r = _bbox.intersect(scissor);
        if (r.empty())
            return;

        uint64_t bits[coverageWords];
        int32_t width = r.x1 - r.x0;
        for (int32_t y = r.y0; y < r.y1; ++y) {
            for (int32_t cx = 0; cx < width; cx += coverageSpan) {
                int32_t n = width - cx < coverageSpan
                                ? width - cx
                                : coverageSpan;
                rowCoverage(y, r.x0 + cx, n, bits);
                int32_t words = (n + 63) >> 6;
                for (int32_t w = 0; w < words; ++w) {
                    uint64_t m = bits[w];
                    while (m) {
                        int b = std::countr_zero(m);
                        m &= m - 1;
                        visit(r.x0 + cx + w * 64 + b, y);
                    }
                }
            }
        }
    }

    /**
     * Scan all pixels whose centre is covered, restricted to
     * @p scissor, emitting interpolated fragments in cover() order.
     *
     * @tparam Emit callable as emit(const Fragment &)
     */
    template <typename Emit>
    void
    rasterize(const Rect &scissor, Emit &&emit) const
    {
        Fragment frag;
        cover(scissor, [&](int32_t x, int32_t y) {
            frag.x = x;
            frag.y = y;
            interpolate(x, y, frag);
            emit(frag);
        });
    }

    /** Number of covered pixels inside @p scissor. */
    int64_t countPixels(const Rect &scissor) const;

  private:
    /** Pixels per rowCoverage() call (bounds the stack bitmask). */
    static constexpr int32_t coverageSpan = 512;

    /** 64-bit words needed for one coverage span. */
    static constexpr int32_t coverageWords = coverageSpan / 64;

    /** Edge function value at pixel centre (x + .5, y + .5). */
    int64_t
    edgeAt(int e, int32_t x, int32_t y) const
    {
        int64_t px = int64_t(x) * subpixelOne + subpixelOne / 2;
        int64_t py = int64_t(y) * subpixelOne + subpixelOne / 2;
        return edgeA[e] * px + edgeB[e] * py + edgeC[e];
    }

    /** Coverage test with the tie-break rule for shared edges. */
    bool
    inside(int e, int64_t value) const
    {
        return value > 0 || (value == 0 && edgeAcceptsZero[e]);
    }

    /**
     * Coverage bits for @p n pixels (at most coverageSpan) starting
     * at pixel centre (x0 + .5, y + .5), written to ceil(n/64)
     * little-endian words of @p bits. Dispatches to the AVX2 kernel
     * when available; scalar and vector results are bit-identical.
     */
    void rowCoverage(int32_t y, int32_t x0, int32_t n,
                     uint64_t *bits) const;

    /** Perspective-correct attribute evaluation at a pixel centre. */
    void interpolate(int32_t x, int32_t y, Fragment &frag) const;

    // Edge functions E(p) = A*px + B*py + C in subpixel units.
    int64_t edgeA[3];
    int64_t edgeB[3];
    int64_t edgeC[3];
    int64_t stepX[3]; ///< edge increment for one pixel step in x
    bool edgeAcceptsZero[3];

    // Interpolation planes f(x, y) = base + x*dx + y*dy at pixel
    // centres, for u/w, v/w and 1/w.
    double uwBase, uwDx, uwDy;
    double vwBase, vwDx, vwDy;
    double wBase, wDx, wDy;

    float texW, texH;
    Rect _bbox;
    double _areaPixels = 0.0;
    bool _degenerate = true;
};

} // namespace texdist

#endif // TEXDIST_RASTER_RASTER_HH
