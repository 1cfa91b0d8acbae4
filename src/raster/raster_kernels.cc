/**
 * @file
 * Scalar reference for perspective interpolation. It serves the
 * scalar and SSE2 tiers and every build without the AVX2 kernel, and
 * it defines the bits the AVX2 kernel must reproduce; this TU is
 * pinned to -ffp-contract=off so that no compiler may fuse its
 * mul+add pairs where the vector kernel rounds twice.
 */

#include <algorithm>
#include <cmath>

#include "raster/raster_kernels.hh"

namespace texdist
{
namespace detail
{

void
interpolateRowScalar(const InterpPlanes &p, int32_t y,
                     const int32_t *xs, int32_t n,
                     const SpanAttrs &out)
{
    double py = y + 0.5;
    for (int32_t i = 0; i < n; ++i) {
        double px = xs[i] + 0.5;

        double cur_uw = p.uwBase + p.uwDx * px + p.uwDy * py;
        double cur_vw = p.vwBase + p.vwDx * px + p.vwDy * py;
        double cur_w = p.wBase + p.wDx * px + p.wDy * py;

        if (cur_w <= 1e-12) {
            // Should not happen for properly clipped input; degrade
            // gracefully rather than emit NaNs.
            out.u[i] = 0.0f;
            out.v[i] = 0.0f;
            out.lod[i] = 0.0f;
            out.invW[i] = 0.0f;
            continue;
        }

        out.invW[i] = float(cur_w);
        double inv = 1.0 / cur_w;
        out.u[i] = float(cur_uw * inv);
        out.v[i] = float(cur_vw * inv);

        // Analytic screen-space derivatives of u and v via the
        // quotient rule: d(U/W) = (U' W - U W') / W^2.
        double inv2 = inv * inv;
        float dudx = float((p.uwDx * cur_w - cur_uw * p.wDx) * inv2);
        float dvdx = float((p.vwDx * cur_w - cur_vw * p.wDx) * inv2);
        float dudy = float((p.uwDy * cur_w - cur_uw * p.wDy) * inv2);
        float dvdy = float((p.vwDy * cur_w - cur_vw * p.wDy) * inv2);

        float sx = dudx * p.texW;
        float tx = dvdx * p.texH;
        float sy = dudy * p.texW;
        float ty = dvdy * p.texH;
        float rho2 = std::max(sx * sx + tx * tx, sy * sy + ty * ty);
        out.lod[i] = rho2 > 0.0f ? 0.5f * std::log2(rho2) : -126.0f;
    }
}

} // namespace detail
} // namespace texdist
