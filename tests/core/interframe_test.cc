/** @file Tests for scene translation and inter-frame traffic. */

#include <gtest/gtest.h>

#include "core/interframe.hh"
#include "scene/builder.hh"
#include "scene/stats.hh"

namespace texdist
{
namespace
{

Scene
wallScene()
{
    SceneBuilder b("wall", 128, 128, 21);
    auto pool = b.makeTexturePool(6, 32, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    return b.take();
}

/** @p procs nodes, block-16 tiles, 16 KB L1 + 1 MB L2 each. */
MachineConfig
twoLevelConfig(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.tileParam = 16;
    cfg.hasL2 = true;
    cfg.l2Geom = CacheGeometry{1024 * 1024, 8, 64};
    return cfg;
}

TEST(TranslateScene, ShiftsGeometryOnly)
{
    Scene scene = wallScene();
    Scene panned = translateScene(scene, 10.0f, -4.0f);
    ASSERT_EQ(panned.triangles.size(), scene.triangles.size());
    for (size_t i = 0; i < scene.triangles.size(); ++i) {
        for (int k = 0; k < 3; ++k) {
            EXPECT_FLOAT_EQ(panned.triangles[i].v[k].x,
                            scene.triangles[i].v[k].x + 10.0f);
            EXPECT_FLOAT_EQ(panned.triangles[i].v[k].y,
                            scene.triangles[i].v[k].y - 4.0f);
            EXPECT_EQ(panned.triangles[i].v[k].u,
                      scene.triangles[i].v[k].u);
            EXPECT_EQ(panned.triangles[i].v[k].v,
                      scene.triangles[i].v[k].v);
        }
    }
    // Identical texture address space.
    ASSERT_EQ(panned.textures.count(), scene.textures.count());
    for (uint32_t t = 0; t < scene.textures.count(); ++t)
        EXPECT_EQ(panned.textures.get(t).baseAddr(),
                  scene.textures.get(t).baseAddr());
}

TEST(TranslateScene, ZeroPanSamplesSameTexels)
{
    Scene scene = wallScene();
    Scene same = translateScene(scene, 0.0f, 0.0f);
    SceneStats a = measureScene(scene);
    SceneStats b = measureScene(same);
    EXPECT_EQ(a.uniqueTexels, b.uniqueTexels);
    EXPECT_EQ(a.pixelsRendered, b.pixelsRendered);
}

TEST(InterFrame, ZeroPanIsFree)
{
    // With a big enough L2 the identical second frame costs nothing
    // at the external interface.
    Scene f1 = wallScene();
    Scene f2 = translateScene(f1, 0.0f, 0.0f);
    InterFrameResult r = measureInterFrame(f1, f2, twoLevelConfig(4));
    EXPECT_GT(r.frame1Ratio, 0.0);
    EXPECT_DOUBLE_EQ(r.frame2Ratio, 0.0);
    EXPECT_DOUBLE_EQ(r.reuseFactor(), 0.0);
}

TEST(InterFrame, SingleProcessorImmuneToPan)
{
    // One node's L2 holds the whole frame: panning costs almost
    // nothing (only texels that scroll into view for the first
    // time; wrap-around textures mostly re-use).
    Scene f1 = wallScene();
    Scene f2 = translateScene(f1, 48.0f, 0.0f);
    InterFrameResult r = measureInterFrame(f1, f2, twoLevelConfig(1));
    EXPECT_LT(r.reuseFactor(), 0.35);
}

TEST(InterFrame, MultiprocessorLosesReuseWithLargePan)
{
    // The Section 9 prediction: on a multiprocessor, a pan larger
    // than the tile moves pixels to nodes that never cached their
    // texels.
    Scene f1 = wallScene();
    Scene small_pan = translateScene(f1, 4.0f, 0.0f);
    Scene big_pan = translateScene(f1, 48.0f, 0.0f);
    InterFrameResult small =
        measureInterFrame(f1, small_pan, twoLevelConfig(16));
    InterFrameResult big =
        measureInterFrame(f1, big_pan, twoLevelConfig(16));
    EXPECT_GT(big.frame2Ratio, small.frame2Ratio);
}

TEST(InterFrame, FragmentsCountedPerFrame)
{
    Scene f1 = wallScene();
    Scene f2 = translateScene(f1, 64.0f, 0.0f); // half scrolls out
    InterFrameResult r = measureInterFrame(f1, f2, twoLevelConfig(4));
    EXPECT_EQ(r.frame1Fragments, 128u * 128u);
    EXPECT_EQ(r.frame2Fragments, 64u * 128u);
}

} // namespace
} // namespace texdist
