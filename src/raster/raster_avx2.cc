/**
 * @file
 * 4-wide AVX2 kernels for TriangleRaster's two span loops.
 *
 * Coverage (rowCoverage): the edge functions are 64-bit integers
 * (28.4 fixed point over the full screen), so four pixels per vector
 * is the AVX2 width. Coverage of a lane is the sign test of the OR of
 * its three biased edge values; vmovmskpd extracts the four sign bits
 * in one instruction, and the scalar loop computes exactly the same
 * ORs, so the masks are bit-identical by construction.
 *
 * Interpolation (interpolateRow): four pixels per vector of doubles.
 * Each lane evaluates the scalar reference's expressions
 * (raster_kernels.cc) in its order, one IEEE operation per
 * intrinsic and no FMA, so every rounding is the same:
 *  - plane values as (base + dx*px) + dy*py, the row's dy*py being
 *    one product per row in either path;
 *  - the cur_w <= 1e-12 fallback as an ordered compare, false for
 *    NaN exactly as the scalar branch is;
 *  - std::max(a, b), i.e. (a < b ? b : a), as _mm_max_ps(b, a),
 *    which returns its second operand on a tie or a NaN just as
 *    std::max returns its first.
 * log2f stays scalar per lane: the lane calls the same libm function
 * the reference does, which keeps the level of detail bit-identical
 * without a vector log2 of its own to prove. It runs in a second pass
 * over the span, so no vector register is live across the calls,
 * and it is skipped when a pixel's rho2 has its predecessor's bits.
 *
 * Built with -mavx2 and reached only through simd::dispatch().
 */

#include "raster/raster_kernels.hh"

#if defined(__AVX2__) && !defined(TEXDIST_NO_SIMD)

#include <bit>
#include <cmath>

#include <immintrin.h>

namespace texdist
{
namespace detail
{

bool
rowCoverageAvx2(const RowCoverage &rc, int32_t n, uint64_t *bits)
{
    __m256i e[3], step4[3];
    for (int i = 0; i < 3; ++i) {
        e[i] = _mm256_setr_epi64x(rc.edge[i],
                                  rc.edge[i] + rc.step[i],
                                  rc.edge[i] + 2 * rc.step[i],
                                  rc.edge[i] + 3 * rc.step[i]);
        step4[i] = _mm256_set1_epi64x(4 * rc.step[i]);
    }

    int32_t words = (n + 63) >> 6;
    for (int32_t w = 0; w < words; ++w) {
        uint64_t m = 0;
        int32_t limit = n - w * 64 < 64 ? n - w * 64 : 64;
        for (int32_t j = 0; j < limit; j += 4) {
            __m256i ored =
                _mm256_or_si256(_mm256_or_si256(e[0], e[1]), e[2]);
            // Sign bit set == outside; invert for coverage.
            int outside =
                _mm256_movemask_pd(_mm256_castsi256_pd(ored));
            uint64_t in4 = uint64_t(outside ^ 0xf);
            if (limit - j < 4)
                in4 &= (uint64_t(1) << (limit - j)) - 1;
            m |= in4 << j;
            e[0] = _mm256_add_epi64(e[0], step4[0]);
            e[1] = _mm256_add_epi64(e[1], step4[1]);
            e[2] = _mm256_add_epi64(e[2], step4[2]);
        }
        bits[w] = m;
    }
    return true;
}

bool
interpolateRowAvx2(const InterpPlanes &p, int32_t y, const int32_t *xs,
                   int32_t n, const SpanAttrs &out)
{
    // Lane masks for a partial last group: tail + 4 - lanes starts
    // with `lanes` all-ones entries.
    static const int32_t tail[8] = {-1, -1, -1, -1, 0, 0, 0, 0};
    const double py = y + 0.5;
    const __m256d uw_base = _mm256_set1_pd(p.uwBase);
    const __m256d uw_dx = _mm256_set1_pd(p.uwDx);
    const __m256d uw_dy = _mm256_set1_pd(p.uwDy);
    const __m256d uw_row = _mm256_set1_pd(p.uwDy * py);
    const __m256d vw_base = _mm256_set1_pd(p.vwBase);
    const __m256d vw_dx = _mm256_set1_pd(p.vwDx);
    const __m256d vw_dy = _mm256_set1_pd(p.vwDy);
    const __m256d vw_row = _mm256_set1_pd(p.vwDy * py);
    const __m256d w_base = _mm256_set1_pd(p.wBase);
    const __m256d w_dx = _mm256_set1_pd(p.wDx);
    const __m256d w_dy = _mm256_set1_pd(p.wDy);
    const __m256d w_row = _mm256_set1_pd(p.wDy * py);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d one = _mm256_set1_pd(1.0);
    const __m256d eps = _mm256_set1_pd(1e-12);
    const __m128 tex_w = _mm_set1_ps(p.texW);
    const __m128 tex_h = _mm_set1_ps(p.texH);
    const __m128 fallback_rho = _mm_set1_ps(-1.0f);
    // Low dword of each 64-bit compare mask, packed into 4 lanes.
    const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);

    // Pass 1, four pixels per step: everything but the logarithm.
    // The lod array holds each pixel's rho2 for pass 2, or -1 for a
    // cur_w <= 1e-12 fallback lane (a real rho2 is a max of sums of
    // squares, never negative).
    for (int32_t i = 0; i < n; i += 4) {
        const bool full = n - i >= 4;
        const __m128i lane_mask =
            full ? _mm_set1_epi32(-1)
                 : _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                       tail + 4 - (n - i)));
        const __m128i xi = _mm_maskload_epi32(xs + i, lane_mask);
        const __m256d px = _mm256_add_pd(_mm256_cvtepi32_pd(xi), half);

        const __m256d cur_uw = _mm256_add_pd(
            _mm256_add_pd(uw_base, _mm256_mul_pd(uw_dx, px)), uw_row);
        const __m256d cur_vw = _mm256_add_pd(
            _mm256_add_pd(vw_base, _mm256_mul_pd(vw_dx, px)), vw_row);
        const __m256d cur_w = _mm256_add_pd(
            _mm256_add_pd(w_base, _mm256_mul_pd(w_dx, px)), w_row);
        const __m128 fallback = _mm_castsi128_ps(_mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(
                _mm256_castpd_si256(
                    _mm256_cmp_pd(cur_w, eps, _CMP_LE_OQ)),
                low_dwords)));

        const __m256d inv = _mm256_div_pd(one, cur_w);
        const __m128 inv_w =
            _mm_andnot_ps(fallback, _mm256_cvtpd_ps(cur_w));
        const __m128 u = _mm_andnot_ps(
            fallback, _mm256_cvtpd_ps(_mm256_mul_pd(cur_uw, inv)));
        const __m128 v = _mm_andnot_ps(
            fallback, _mm256_cvtpd_ps(_mm256_mul_pd(cur_vw, inv)));

        // Quotient-rule derivatives, (F' W - F W') * inv^2.
        const __m256d inv2 = _mm256_mul_pd(inv, inv);
        auto deriv = [&](__m256d f_d, __m256d cur_f, __m256d w_d) {
            return _mm256_cvtpd_ps(_mm256_mul_pd(
                _mm256_sub_pd(_mm256_mul_pd(f_d, cur_w),
                              _mm256_mul_pd(cur_f, w_d)),
                inv2));
        };
        const __m128 sx = _mm_mul_ps(deriv(uw_dx, cur_uw, w_dx), tex_w);
        const __m128 tx = _mm_mul_ps(deriv(vw_dx, cur_vw, w_dx), tex_h);
        const __m128 sy = _mm_mul_ps(deriv(uw_dy, cur_uw, w_dy), tex_w);
        const __m128 ty = _mm_mul_ps(deriv(vw_dy, cur_vw, w_dy), tex_h);
        const __m128 rho_x =
            _mm_add_ps(_mm_mul_ps(sx, sx), _mm_mul_ps(tx, tx));
        const __m128 rho_y =
            _mm_add_ps(_mm_mul_ps(sy, sy), _mm_mul_ps(ty, ty));
        const __m128 rho = _mm_blendv_ps(_mm_max_ps(rho_y, rho_x),
                                         fallback_rho, fallback);

        // Plain stores where they can be: masked stores are
        // microcoded on some x86 cores.
        if (full) {
            _mm_storeu_ps(out.u + i, u);
            _mm_storeu_ps(out.v + i, v);
            _mm_storeu_ps(out.lod + i, rho);
            _mm_storeu_ps(out.invW + i, inv_w);
        } else {
            _mm_maskstore_ps(out.u + i, lane_mask, u);
            _mm_maskstore_ps(out.v + i, lane_mask, v);
            _mm_maskstore_ps(out.lod + i, lane_mask, rho);
            _mm_maskstore_ps(out.invW + i, lane_mask, inv_w);
        }
    }

    // Pass 2: the level of detail, with the libm log2f the scalar
    // reference calls and no vector state live across the calls.
    // log2f is a pure function of its input's bits, so a pixel whose
    // rho2 repeats its predecessor's reuses that result; an affine
    // triangle (1/w constant) has one rho2 for every pixel, and then
    // a span costs one call. The memo starts at +0, which never
    // reaches log2f.
    uint32_t memo_rho2 = 0;
    float memo_lod = 0.0f;
    for (int32_t i = 0; i < n; ++i) {
        const float rho2 = out.lod[i];
        if (rho2 > 0.0f) {
            const uint32_t bits = std::bit_cast<uint32_t>(rho2);
            if (bits != memo_rho2) {
                memo_rho2 = bits;
                memo_lod = 0.5f * std::log2(rho2);
            }
            out.lod[i] = memo_lod;
        } else {
            out.lod[i] = rho2 < 0.0f ? 0.0f : -126.0f;
        }
    }
    return true;
}

} // namespace detail
} // namespace texdist

#else // !__AVX2__ || TEXDIST_NO_SIMD

namespace texdist
{
namespace detail
{

bool
rowCoverageAvx2(const RowCoverage &, int32_t, uint64_t *)
{
    return false; // simd::dispatch() never selects AVX2 here
}

bool
interpolateRowAvx2(const InterpPlanes &, int32_t, const int32_t *,
                   int32_t, const SpanAttrs &)
{
    return false;
}

} // namespace detail
} // namespace texdist

#endif
