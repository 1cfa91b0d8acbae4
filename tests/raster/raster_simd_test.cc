/**
 * @file
 * Scalar-vs-SIMD parity for the rasterizer's span kernels. Coverage
 * (rowCoverage) and interpolation (interpolateRow) may run on their
 * AVX2 kernels; every emitted fragment — position, order and the
 * bits of every interpolated attribute — must be identical to the
 * scalar path, including the fill-rule tie decisions on shared
 * edges, perspective division, the cur_w <= 1e-12 fallback and the
 * rho2 == 0 level of detail.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "geom/rng.hh"
#include "raster/raster.hh"
#include "sim/simd.hh"

namespace texdist
{
namespace
{

class ForcedKernel
{
  public:
    explicit ForcedKernel(simd::Kernel kernel)
        : ok(simd::forceKernel(kernel))
    {
    }
    ~ForcedKernel() { simd::clearForcedKernel(); }
    ForcedKernel(const ForcedKernel &) = delete;
    ForcedKernel &operator=(const ForcedKernel &) = delete;
    bool supported() const { return ok; }

  private:
    bool ok;
};

/** A triangle with u = x and v = y at its corners; 1/w = w0..w2. */
TexTriangle
makeTri(float x0, float y0, float x1, float y1, float x2, float y2,
        float w0 = 1.0f, float w1 = 1.0f, float w2 = 1.0f)
{
    TexTriangle tri;
    tri.v[0] = {x0, y0, w0, 0.0f, 0.0f};
    tri.v[1] = {x1, y1, w1, 1.0f, 0.0f};
    tri.v[2] = {x2, y2, w2, 0.0f, 1.0f};
    return tri;
}

/** The bits of @p f: unlike ==, tells -0 from +0 and matches NaNs. */
uint32_t
bits(float f)
{
    return std::bit_cast<uint32_t>(f);
}

std::vector<Fragment>
collect(const TriangleRaster &raster, const Rect &scissor,
        simd::Kernel kernel)
{
    ForcedKernel force(kernel);
    EXPECT_TRUE(force.supported());
    std::vector<Fragment> out;
    raster.rasterize(scissor,
                     [&](const Fragment &f) { out.push_back(f); });
    return out;
}

void
expectIdenticalFragments(const TriangleRaster &raster,
                         const Rect &scissor)
{
    std::vector<Fragment> ref =
        collect(raster, scissor, simd::Kernel::Scalar);
    {
        ForcedKernel force(simd::Kernel::Scalar);
        ASSERT_TRUE(force.supported());
        EXPECT_EQ(raster.countPixels(scissor),
                  int64_t(ref.size()));
    }
    for (simd::Kernel k : {simd::Kernel::SSE2, simd::Kernel::AVX2}) {
        if (!simd::kernelSupported(k))
            continue;
        std::vector<Fragment> got = collect(raster, scissor, k);
        ASSERT_EQ(ref.size(), got.size()) << simd::to_string(k);
        for (size_t i = 0; i < ref.size(); ++i) {
            // Exact raster emit order and bit-identical attributes.
            ASSERT_EQ(ref[i].x, got[i].x)
                << simd::to_string(k) << " fragment " << i;
            ASSERT_EQ(ref[i].y, got[i].y)
                << simd::to_string(k) << " fragment " << i;
            ASSERT_EQ(bits(ref[i].u), bits(got[i].u))
                << simd::to_string(k) << " fragment " << i;
            ASSERT_EQ(bits(ref[i].v), bits(got[i].v))
                << simd::to_string(k) << " fragment " << i;
            ASSERT_EQ(bits(ref[i].lod), bits(got[i].lod))
                << simd::to_string(k) << " fragment " << i;
            ASSERT_EQ(bits(ref[i].invW), bits(got[i].invW))
                << simd::to_string(k) << " fragment " << i;
        }
        ForcedKernel force(k);
        ASSERT_TRUE(force.supported());
        EXPECT_EQ(raster.countPixels(scissor),
                  int64_t(ref.size()))
            << simd::to_string(k);
    }
}

const Rect bigScissor(-1000, -1000, 2000, 2000);

TEST(RasterSimd, BasicTrianglesMatchScalar)
{
    const TexTriangle tris[] = {
        makeTri(0, 0, 10, 0, 10, 10),
        makeTri(0, 0, 10, 10, 0, 10),
        makeTri(3.2f, 1.7f, 97.4f, 22.9f, 41.0f, 88.8f),
        makeTri(-20.5f, -7.25f, 130.0f, 3.0f, 55.5f, 140.0f),
        // Thin sliver: mostly-empty coverage rows.
        makeTri(0.1f, 0.1f, 200.0f, 1.4f, 100.0f, 0.9f),
    };
    for (const TexTriangle &tri : tris) {
        TriangleRaster raster(tri, 64, 64);
        if (raster.degenerate())
            continue;
        expectIdenticalFragments(raster, bigScissor);
    }
}

TEST(RasterSimd, SharedEdgeTieDecisionsMatch)
{
    // A quad split along its diagonal: the shared edge is where the
    // fill rule's tie-break decides ownership. Both halves must make
    // identical decisions under every kernel, covering each pixel
    // exactly once.
    TexTriangle a = makeTri(0, 0, 40, 0, 40, 40);
    TexTriangle b = makeTri(0, 0, 40, 40, 0, 40);
    TriangleRaster ra(a, 64, 64);
    TriangleRaster rb(b, 64, 64);
    expectIdenticalFragments(ra, bigScissor);
    expectIdenticalFragments(rb, bigScissor);

    for (simd::Kernel k : {simd::Kernel::Scalar, simd::Kernel::SSE2,
                           simd::Kernel::AVX2}) {
        if (!simd::kernelSupported(k))
            continue;
        ForcedKernel force(k);
        ASSERT_TRUE(force.supported());
        EXPECT_EQ(ra.countPixels(bigScissor) +
                      rb.countPixels(bigScissor),
                  40 * 40)
            << simd::to_string(k);
    }
}

TEST(RasterSimd, WideTrianglesCrossCoverageSpans)
{
    // Wider than one 512-pixel coverage span, so the span loop and
    // the ragged last word of the bitmask are exercised.
    TexTriangle tri =
        makeTri(-10.0f, 0.0f, 1400.0f, 5.0f, 600.0f, 300.0f);
    TriangleRaster raster(tri, 64, 64);
    ASSERT_FALSE(raster.degenerate());
    expectIdenticalFragments(raster,
                             Rect(-100, -100, 1500, 400));
}

TEST(RasterSimd, RandomTrianglesAndScissors)
{
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        TexTriangle tri = makeTri(float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)));
        TriangleRaster raster(tri, 128, 128);
        if (raster.degenerate())
            continue;
        expectIdenticalFragments(raster, bigScissor);
        // Scissors that slice the bbox mid-span.
        int32_t sx = int32_t(rng.uniformInt(-10, 200));
        int32_t sy = int32_t(rng.uniformInt(-10, 200));
        expectIdenticalFragments(
            raster, Rect(sx, sy, sx + int32_t(rng.uniformInt(1, 150)),
                         sy + int32_t(rng.uniformInt(1, 150))));
    }
}

/** Fragments per row of @p frags. */
std::map<int32_t, int32_t>
rowCounts(const std::vector<Fragment> &frags)
{
    std::map<int32_t, int32_t> rows;
    for (const Fragment &f : frags)
        ++rows[f.y];
    return rows;
}

TEST(RasterSimd, PerspectiveTrianglesMatchScalar)
{
    // 1/w varies across the vertices, so every pixel has its own
    // divide, its own derivatives and its own rho2.
    Rng rng(11);
    int tested = 0;
    for (int i = 0; i < 40; ++i) {
        TexTriangle tri = makeTri(float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(-30.0, 300.0)),
                                  float(rng.uniform(0.05, 2.0)),
                                  float(rng.uniform(0.05, 2.0)),
                                  float(rng.uniform(0.05, 2.0)));
        for (TexVertex &v : tri.v) {
            v.u = float(rng.uniform(-2.0, 3.0));
            v.v = float(rng.uniform(-2.0, 3.0));
        }
        TriangleRaster raster(tri, 256, 64);
        if (raster.degenerate())
            continue;
        std::vector<Fragment> frags =
            collect(raster, bigScissor, simd::Kernel::Scalar);
        if (frags.size() < 2)
            continue;
        bool varies = false;
        for (const Fragment &f : frags)
            varies |= bits(f.invW) != bits(frags.front().invW);
        EXPECT_TRUE(varies) << "triangle " << i;
        expectIdenticalFragments(raster, bigScissor);
        ++tested;
    }
    EXPECT_GT(tested, 20);
}

TEST(RasterSimd, FallbackLanesMixWithNormalLanes)
{
    // 1/w crosses zero inside the triangle, so a row runs from
    // normal pixels into cur_w <= 1e-12 ones, which take the zeroed
    // fallback. Moving the crossing moves it through every lane of a
    // 4-pixel group.
    int mixed_groups = 0;
    for (int shift = 0; shift < 8; ++shift) {
        TexTriangle tri = makeTri(0.0f, 0.0f, 60.0f + float(shift), 0.0f,
                                  0.0f, 48.0f, 1.0f, -1.0f, 1.0f);
        TriangleRaster raster(tri, 64, 64);
        ASSERT_FALSE(raster.degenerate());
        std::vector<Fragment> frags =
            collect(raster, bigScissor, simd::Kernel::Scalar);
        // Every row here is one span starting at its first covered
        // pixel, so a fragment's index in its row is its lane.
        std::map<int32_t, std::vector<const Fragment *>> rows;
        for (const Fragment &f : frags)
            rows[f.y].push_back(&f);
        for (const auto &[y, row] : rows) {
            for (size_t g = 0; g < row.size(); g += 4) {
                int fallback = 0, normal = 0;
                for (size_t k = g; k < row.size() && k < g + 4; ++k) {
                    const Fragment &f = *row[k];
                    if (bits(f.invW) == 0) {
                        ++fallback;
                        EXPECT_EQ(bits(f.u), 0u);
                        EXPECT_EQ(bits(f.v), 0u);
                        EXPECT_EQ(bits(f.lod), 0u);
                    } else {
                        ++normal;
                    }
                }
                mixed_groups += fallback > 0 && normal > 0;
            }
        }
        expectIdenticalFragments(raster, bigScissor);
    }
    EXPECT_GT(mixed_groups, 8);
}

TEST(RasterSimd, ZeroRho2GivesMinus126)
{
    // Constant texture coordinates: every derivative is zero, so
    // rho2 == 0 and the level of detail is the -126 floor, in an
    // affine and in a perspective triangle.
    for (float w2 : {1.0f, 0.25f}) {
        TexTriangle tri =
            makeTri(2.5f, 1.0f, 90.0f, 7.0f, 30.0f, 70.0f, 1.0f, 0.5f, w2);
        for (TexVertex &v : tri.v) {
            v.u = 0.0f;
            v.v = 0.0f;
        }
        TriangleRaster raster(tri, 128, 128);
        ASSERT_FALSE(raster.degenerate());
        std::vector<Fragment> frags =
            collect(raster, bigScissor, simd::Kernel::Scalar);
        ASSERT_FALSE(frags.empty());
        for (const Fragment &f : frags)
            ASSERT_EQ(bits(f.lod), bits(-126.0f));
        expectIdenticalFragments(raster, bigScissor);
    }
}

TEST(RasterSimd, NanInverseWTakesTheScalarBranch)
{
    // A NaN cur_w fails `cur_w <= 1e-12` in scalar code, so it is not
    // a fallback lane: the kernel's compare must be ordered.
    TexTriangle tri = makeTri(0.0f, 0.0f, 30.0f, 0.0f, 0.0f, 30.0f, 1.0f,
                              std::numeric_limits<float>::quiet_NaN(),
                              1.0f);
    TriangleRaster raster(tri, 64, 64);
    ASSERT_FALSE(raster.degenerate());
    std::vector<Fragment> frags =
        collect(raster, bigScissor, simd::Kernel::Scalar);
    ASSERT_FALSE(frags.empty());
    for (const Fragment &f : frags)
        ASSERT_TRUE(std::isnan(f.invW));
    expectIdenticalFragments(raster, bigScissor);
}

TEST(RasterSimd, SpansOfOneToThreePixelsRunTheTail)
{
    // Narrow scissors leave 1-3 covered pixels per span: only the
    // kernel's partial last group runs.
    TexTriangle flat = makeTri(-5.0f, -5.0f, 200.0f, 10.0f, 40.0f, 180.0f);
    TexTriangle persp = makeTri(-5.0f, -5.0f, 200.0f, 10.0f, 40.0f,
                                180.0f, 1.0f, 0.3f, 1.7f);
    for (const TexTriangle &tri : {flat, persp}) {
        TriangleRaster raster(tri, 64, 64);
        ASSERT_FALSE(raster.degenerate());
        for (int32_t width = 1; width <= 3; ++width) {
            for (int32_t x = 0; x < 120; x += 17) {
                Rect scissor(x, 0, x + width, 200);
                std::vector<Fragment> frags =
                    collect(raster, scissor, simd::Kernel::Scalar);
                ASSERT_FALSE(frags.empty());
                for (const auto &[y, count] : rowCounts(frags))
                    ASSERT_LE(count, width) << "row " << y;
                expectIdenticalFragments(raster, scissor);
            }
        }
    }
}

TEST(RasterSimd, SpansWiderThan512Pixels)
{
    // Rows of more than coverageSpan covered pixels are interpolated
    // in several batches; perspective makes each batch's values
    // distinct.
    TexTriangle tri = makeTri(-10.0f, 0.0f, 1500.0f, 3.0f, 700.0f, 200.0f,
                              1.0f, 0.2f, 0.6f);
    TriangleRaster raster(tri, 512, 512);
    ASSERT_FALSE(raster.degenerate());
    Rect scissor(-20, -20, 1600, 240);
    std::vector<Fragment> frags =
        collect(raster, scissor, simd::Kernel::Scalar);
    int32_t widest = 0;
    for (const auto &[y, count] : rowCounts(frags))
        widest = std::max(widest, count);
    EXPECT_GT(widest, 1024);
    expectIdenticalFragments(raster, scissor);
}

} // namespace
} // namespace texdist
