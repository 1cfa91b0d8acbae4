/** @file
 * Cross-validation of the fixed-point rasterizer against a
 * brute-force per-pixel half-space reference evaluated in exact
 * integer arithmetic on the same snapped coordinates, plus
 * robustness fuzzing on degenerate input.
 */

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "geom/rng.hh"
#include "raster/raster.hh"

namespace texdist
{
namespace
{

/** Exact reference coverage for the snapped triangle. */
std::set<std::pair<int, int>>
referenceCoverage(const TexTriangle &tri, const Rect &scissor)
{
    // Snap exactly as the rasterizer does.
    int64_t xs[3], ys[3];
    for (int i = 0; i < 3; ++i) {
        xs[i] = llround(double(tri.v[i].x) * subpixelOne);
        ys[i] = llround(double(tri.v[i].y) * subpixelOne);
    }
    int64_t area2 = (xs[1] - xs[0]) * (ys[2] - ys[0]) -
                    (xs[2] - xs[0]) * (ys[1] - ys[0]);
    std::set<std::pair<int, int>> cover;
    if (area2 == 0)
        return cover;
    if (area2 < 0) {
        std::swap(xs[1], xs[2]);
        std::swap(ys[1], ys[2]);
    }

    auto inside = [&](int64_t px, int64_t py) {
        for (int e = 0; e < 3; ++e) {
            int a = e, b = (e + 1) % 3;
            int64_t dx = xs[b] - xs[a];
            int64_t dy = ys[b] - ys[a];
            int64_t value =
                dx * (py - ys[a]) - dy * (px - xs[a]);
            bool accepts_zero = dy < 0 || (dy == 0 && dx > 0);
            if (value < 0 || (value == 0 && !accepts_zero))
                return false;
        }
        return true;
    };

    for (int32_t y = scissor.y0; y < scissor.y1; ++y) {
        for (int32_t x = scissor.x0; x < scissor.x1; ++x) {
            int64_t px = int64_t(x) * subpixelOne + subpixelOne / 2;
            int64_t py = int64_t(y) * subpixelOne + subpixelOne / 2;
            if (inside(px, py))
                cover.insert({x, y});
        }
    }
    return cover;
}

class RasterReference : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RasterReference, MatchesBruteForceHalfSpaces)
{
    Rng rng(GetParam());
    Rect scissor(0, 0, 72, 72);
    for (int iter = 0; iter < 200; ++iter) {
        TexTriangle tri;
        for (int k = 0; k < 3; ++k) {
            tri.v[k].x = float(rng.uniform(-8.0, 80.0));
            tri.v[k].y = float(rng.uniform(-8.0, 80.0));
            tri.v[k].invW = 1.0f;
        }
        TriangleRaster raster(tri, 64, 64);
        std::set<std::pair<int, int>> got;
        raster.rasterize(scissor, [&](const Fragment &f) {
            got.insert({f.x, f.y});
        });
        std::set<std::pair<int, int>> expected =
            referenceCoverage(tri, scissor);
        ASSERT_EQ(got, expected) << "iter " << iter;
        ASSERT_EQ(raster.countPixels(scissor),
                  int64_t(expected.size()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RasterReference,
                         ::testing::Values(11, 22, 33, 44));

TEST(RasterFuzz, GarbageTrianglesNeverEscapeOrCrash)
{
    // Extreme, tiny, collinear and off-screen triangles: fragments
    // must stay in the scissor and attributes must be finite.
    Rng rng(999);
    Rect scissor(0, 0, 64, 64);
    for (int iter = 0; iter < 500; ++iter) {
        TexTriangle tri;
        for (int k = 0; k < 3; ++k) {
            double magnitude = rng.uniform(0.01, 10000.0);
            tri.v[k].x = float(rng.uniform(-magnitude, magnitude));
            tri.v[k].y = float(rng.uniform(-magnitude, magnitude));
            tri.v[k].invW = float(rng.uniform(0.001, 4.0));
            tri.v[k].u = float(rng.uniform(-100.0, 100.0));
            tri.v[k].v = float(rng.uniform(-100.0, 100.0));
        }
        if (rng.chance(0.2))
            tri.v[2] = tri.v[1]; // force degenerate
        TriangleRaster raster(tri, 128, 128);
        raster.rasterize(scissor, [&](const Fragment &f) {
            ASSERT_TRUE(scissor.contains(f.x, f.y));
            ASSERT_TRUE(std::isfinite(f.u));
            ASSERT_TRUE(std::isfinite(f.v));
            ASSERT_TRUE(std::isfinite(f.lod));
            ASSERT_TRUE(std::isfinite(f.invW));
        });
    }
}

} // namespace
} // namespace texdist
