/** @file Tests for the Table 1 benchmark generators. */

#include <cmath>

#include <gtest/gtest.h>

#include "scene/benchmarks.hh"
#include "scene/stats.hh"

namespace texdist
{
namespace
{

TEST(Benchmarks, SevenScenesInTableOrder)
{
    const auto &names = benchmarkNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names[0], "room3");
    EXPECT_EQ(names[1], "teapot.full");
    EXPECT_EQ(names[2], "quake");
    EXPECT_EQ(names[3], "massive11255");
    EXPECT_EQ(names[4], "32massive11255");
    EXPECT_EQ(names[5], "blowout775");
    EXPECT_EQ(names[6], "truc640");
}

TEST(Benchmarks, SpecsMatchPaperTable1)
{
    const BenchmarkSpec &room3 = benchmarkSpec("room3");
    EXPECT_EQ(room3.screenWidth, 1280u);
    EXPECT_EQ(room3.screenHeight, 1024u);
    EXPECT_DOUBLE_EQ(room3.paperDepth, 9.9);
    EXPECT_EQ(room3.paperTriangles, 163000u);

    const BenchmarkSpec &quake = benchmarkSpec("quake");
    EXPECT_EQ(quake.screenWidth, 1152u);
    EXPECT_EQ(quake.screenHeight, 870u);
    EXPECT_EQ(quake.paperTextures, 954u);

    const BenchmarkSpec &truc = benchmarkSpec("truc640");
    EXPECT_EQ(truc.screenWidth, 1600u);
    EXPECT_DOUBLE_EQ(truc.paperUniqueTF, 0.15);
}

TEST(BenchmarksDeath, UnknownNameFatal)
{
    EXPECT_EXIT((void)benchmarkSpec("doom"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
    EXPECT_EXIT((void)makeBenchmark("doom"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(Benchmarks, Deterministic)
{
    Scene a = makeBenchmark("blowout775", 0.2);
    Scene b = makeBenchmark("blowout775", 0.2);
    ASSERT_EQ(a.triangles.size(), b.triangles.size());
    for (size_t i = 0; i < a.triangles.size(); i += 97)
        EXPECT_EQ(a.triangles[i], b.triangles[i]);
    EXPECT_EQ(a.textures.totalBytes(), b.textures.totalBytes());
}

/** Each benchmark's measured stats land near its Table 1 targets. */
class BenchmarkFidelity
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BenchmarkFidelity, MatchesSpecAtQuarterScale)
{
    const std::string &name = GetParam();
    const BenchmarkSpec &spec = benchmarkSpec(name);
    const double scale = 0.25;
    Scene scene = makeBenchmark(name, scale);
    SceneStats stats = measureScene(scene);

    EXPECT_EQ(scene.name, name);
    EXPECT_EQ(scene.screenWidth,
              uint32_t(std::lround(spec.screenWidth * scale)));

    // Depth complexity is scale-invariant: within 25% of the paper.
    EXPECT_NEAR(stats.depthComplexity, spec.paperDepth,
                spec.paperDepth * 0.25)
        << name;

    // Triangle count scales with scale^2, within 25%.
    double tri_target = spec.paperTriangles * scale * scale;
    EXPECT_NEAR(double(stats.numTriangles), tri_target,
                tri_target * 0.25)
        << name;

    // The unique-texel ratio is the hardest target; demand the right
    // order of magnitude (factor ~2 band) so the benchmark keeps its
    // bandwidth class.
    EXPECT_GT(stats.uniqueTexelPerScreenPixel,
              spec.paperUniqueTF * 0.4)
        << name;
    EXPECT_LT(stats.uniqueTexelPerScreenPixel,
              spec.paperUniqueTF * 2.5)
        << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllScenes, BenchmarkFidelity,
    ::testing::Values("room3", "teapot.full", "quake",
                      "massive11255", "32massive11255", "blowout775",
                      "truc640"));

TEST(Benchmarks, RelativeOrderingOfUniqueRatios)
{
    // The paper's ordering between the texture-hungry and
    // texture-light scenes must be preserved: teapot/quake high,
    // blowout/massive low, 32massive well above massive.
    const double scale = 0.25;
    auto utf = [&](const std::string &n) {
        return measureScene(makeBenchmark(n, scale))
            .uniqueTexelPerScreenPixel;
    };
    double teapot = utf("teapot.full");
    double quake = utf("quake");
    double massive = utf("massive11255");
    double massive32 = utf("32massive11255");
    double blowout = utf("blowout775");

    EXPECT_GT(teapot, massive32);
    EXPECT_GT(quake, massive32);
    EXPECT_GT(massive32, 2.0 * massive);
    EXPECT_LT(blowout, 0.3 * quake);
}

TEST(Benchmarks, ClusteredDepthComplexity)
{
    // The massive frames are deathmatch scenes: load must clump.
    SceneStats s =
        measureScene(makeBenchmark("32massive11255", 0.25));
    EXPECT_GT(s.tileLoadMaxOverMean, 1.5);
}

TEST(Benchmarks, TeapotIsSingleTextureMesh)
{
    Scene scene = makeBenchmark("teapot.full", 0.25);
    EXPECT_EQ(scene.textures.count(), 1u);
    for (const TexTriangle &tri : scene.triangles)
        EXPECT_EQ(tri.tex, 0u);
    // Perspective content: invW varies.
    float min_w = 1e9f, max_w = -1e9f;
    for (const TexTriangle &tri : scene.triangles) {
        for (const TexVertex &v : tri.v) {
            min_w = std::min(min_w, v.invW);
            max_w = std::max(max_w, v.invW);
        }
    }
    EXPECT_LT(min_w, max_w * 0.9f);
}

} // namespace
} // namespace texdist
