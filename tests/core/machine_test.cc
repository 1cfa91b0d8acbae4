/** @file Integration tests: node timing closed forms and machine
 * invariants. */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "core/machine.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

/** A scene with a single axis-aligned quad of exact pixel count. */
Scene
quadScene(uint32_t screen, float x0, float y0, float x1, float y1,
          double density = 1.0, uint32_t tex_size = 64)
{
    SceneBuilder b("quad", screen, screen, 77);
    TextureId tex = b.makeTexture(tex_size, tex_size);
    b.addQuad(x0, y0, x1, y1, tex, density);
    return b.take();
}

MachineConfig
perfectConfig(uint32_t procs = 1)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    return cfg;
}

TEST(Machine, PerfectCacheScanBound)
{
    // 40x40 quad = 1600 fragments in two triangles, each > 25 px:
    // a single perfect-cache node takes exactly 1600 cycles.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    FrameResult r = runFrame(scene, perfectConfig());
    EXPECT_EQ(r.totalPixels, 1600u);
    EXPECT_EQ(r.frameTime, 1600u);
    EXPECT_EQ(r.trianglesDispatched, 2u);
    EXPECT_EQ(r.texelToFragmentRatio, 0.0);
}

TEST(Machine, SetupBoundSmallTriangles)
{
    // 30 tiny triangles (< 25 px each): the setup engine limits the
    // node to one triangle per 25 cycles.
    SceneBuilder b("tiny", 64, 64, 5);
    TextureId tex = b.makeTexture(32, 32);
    for (int i = 0; i < 30; ++i) {
        TexTriangle tri;
        float x = float(2 * (i % 16));
        float y = float(4 * (i / 16));
        tri.v[0] = {x, y, 1.0f, 0.0f, 0.0f};
        tri.v[1] = {x + 2.0f, y, 1.0f, 0.1f, 0.0f};
        tri.v[2] = {x, y + 2.0f, 1.0f, 0.0f, 0.1f};
        tri.tex = tex;
        b.addTriangle(tri);
    }
    Scene scene = b.take();
    FrameResult r = runFrame(scene, perfectConfig());
    EXPECT_EQ(r.frameTime, 30u * 25u);
    EXPECT_EQ(r.nodes[0].setupBoundTriangles, 30u);
}

TEST(Machine, MixedSetupAndScan)
{
    // One big quad (1600 px) then a tiny triangle: 1600 + 25.
    SceneBuilder b("mix", 64, 64, 5);
    TextureId tex = b.makeTexture(32, 32);
    b.addQuad(0, 0, 40, 40, tex, 1.0);
    TexTriangle tri;
    tri.v[0] = {50, 50, 1.0f, 0, 0};
    tri.v[1] = {53, 50, 1.0f, 0.1f, 0};
    tri.v[2] = {50, 53, 1.0f, 0, 0.1f};
    tri.tex = tex;
    b.addTriangle(tri);
    Scene scene = b.take();
    FrameResult r = runFrame(scene, perfectConfig());
    EXPECT_EQ(r.frameTime, 1600u + 25u);
}

TEST(Machine, CachelessBusBound)
{
    // No cache: every fragment fetches 8 single texels. At 4
    // texels/cycle the bus needs 2 cycles per fragment: the frame is
    // bus-bound at ~2x the scan time.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg;
    cfg.cacheKind = CacheKind::None;
    cfg.busTexelsPerCycle = 4.0;
    FrameResult r = runFrame(scene, cfg);
    EXPECT_EQ(r.totalTexelsFetched, 8u * 1600u);
    EXPECT_NEAR(double(r.frameTime), 3200.0, 70.0);
    EXPECT_NEAR(r.texelToFragmentRatio, 8.0, 1e-9);
    EXPECT_GT(r.nodes[0].stallCycles, 1000u);
    EXPECT_NEAR(r.meanBusUtilization, 1.0, 0.05);
}

TEST(Machine, CachelessFastBusNotBound)
{
    // At 8 texels/cycle the cacheless node never stalls.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg;
    cfg.cacheKind = CacheKind::None;
    cfg.busTexelsPerCycle = 8.0;
    FrameResult r = runFrame(scene, cfg);
    EXPECT_EQ(r.frameTime, 1600u);
    EXPECT_EQ(r.nodes[0].stallCycles, 0u);
}

TEST(Machine, CacheCutsTraffic)
{
    // Real 16KB cache on a coherent quad: traffic far below 8
    // texels/fragment; the 1-texel/cycle bus suffices.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.busTexelsPerCycle = 1.0;
    FrameResult r = runFrame(scene, cfg);
    EXPECT_LT(r.texelToFragmentRatio, 3.0);
    EXPECT_GT(r.totalTexelsFetched, 0u);
    // Scan-bound or nearly so.
    EXPECT_LT(r.frameTime, 3200u);
}

TEST(Machine, InfiniteBusNeverStalls)
{
    Scene scene = quadScene(64, 0, 0, 40, 40, 2.0);
    MachineConfig cfg;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.infiniteBus = true;
    FrameResult r = runFrame(scene, cfg);
    EXPECT_EQ(r.frameTime, 1600u);
    EXPECT_EQ(r.nodes[0].stallCycles, 0u);
    EXPECT_GT(r.totalTexelsFetched, 0u); // traffic still measured
}

TEST(Machine, FragmentConservationAcrossConfigs)
{
    SceneBuilder b("cons", 128, 128, 9);
    auto pool = b.makeTexturePool(3, 16, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addCluster(60, 60, 20, 100, 30.0, pool[0], 1.0);
    Scene scene = b.take();

    uint64_t expected = runFrame(scene, perfectConfig()).totalPixels;
    for (uint32_t procs : {2u, 4u, 8u}) {
        for (DistKind kind : {DistKind::Block, DistKind::SLI}) {
            MachineConfig cfg = perfectConfig(procs);
            cfg.dist = kind;
            cfg.tileParam = kind == DistKind::Block ? 8 : 2;
            FrameResult r = runFrame(scene, cfg);
            EXPECT_EQ(r.totalPixels, expected)
                << procs << " procs " << to_string(kind);
        }
    }
}

TEST(Machine, SpeedupBounded)
{
    SceneBuilder b("sp", 128, 128, 21);
    auto pool = b.makeTexturePool(4, 16, 64);
    b.addBackgroundLayer(pool, 16, 16, 1.0);
    b.addBackgroundLayer(pool, 16, 16, 1.0);
    Scene scene = b.take();
    FrameLab lab(scene);

    MachineConfig cfg = perfectConfig(4);
    cfg.tileParam = 16;
    auto res = lab.runWithSpeedup(cfg);
    EXPECT_GT(res.speedup, 1.0);
    EXPECT_LE(res.speedup, 4.0 + 1e-9);
}

TEST(Machine, DeterministicAcrossRuns)
{
    SceneBuilder b("det", 96, 96, 33);
    auto pool = b.makeTexturePool(3, 16, 64);
    b.addBackgroundLayer(pool, 24, 24, 1.2);
    b.addCluster(40, 40, 15, 80, 25.0, pool[1], 1.0);
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.tileParam = 8;
    cfg.busTexelsPerCycle = 1.0;
    cfg.triangleBufferSize = 16;
    FrameResult a = runFrame(scene, cfg);
    FrameResult b2 = runFrame(scene, cfg);
    EXPECT_EQ(a.frameTime, b2.frameTime);
    EXPECT_EQ(a.totalTexelsFetched, b2.totalTexelsFetched);
    for (size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_EQ(a.nodes[i].pixels, b2.nodes[i].pixels);
        EXPECT_EQ(a.nodes[i].finishTime, b2.nodes[i].finishTime);
    }
}

TEST(Machine, ParallelSplitsWork)
{
    Scene scene = quadScene(128, 0, 0, 128, 128);
    MachineConfig cfg = perfectConfig(4);
    cfg.tileParam = 16;
    FrameResult r = runFrame(scene, cfg);
    ASSERT_EQ(r.nodes.size(), 4u);
    for (const NodeResult &n : r.nodes)
        EXPECT_EQ(n.pixels, 128u * 128u / 4u);
    // Near-ideal speedup for a perfectly balanced frame; the only
    // loss is per-triangle setup overlap.
    EXPECT_LT(r.frameTime, 128u * 128u / 4u + 100u);
}

TEST(Machine, TriangleGoesToAllOverlappingNodes)
{
    // A full-screen quad overlaps every node's region; with tiny
    // per-node intersections the setup cost multiplies.
    Scene scene = quadScene(64, 0, 0, 64, 64);
    MachineConfig cfg = perfectConfig(4);
    cfg.tileParam = 8;
    FrameResult r = runFrame(scene, cfg);
    uint64_t total_tris = 0;
    for (const NodeResult &n : r.nodes)
        total_tris += n.triangles;
    // 2 triangles, each received by all 4 nodes.
    EXPECT_EQ(total_tris, 8u);
}

TEST(Machine, TexelRatioOrdering)
{
    // infinite <= setassoc <= cacheless, on the same scene.
    SceneBuilder b("ord", 128, 128, 41);
    auto pool = b.makeTexturePool(4, 32, 128);
    b.addBackgroundLayer(pool, 32, 32, 1.5);
    b.addBackgroundLayer(pool, 32, 32, 1.5);
    Scene scene = b.take();

    auto ratio = [&](CacheKind kind) {
        MachineConfig cfg;
        cfg.cacheKind = kind;
        cfg.infiniteBus = true;
        return runFrame(scene, cfg).texelToFragmentRatio;
    };
    double inf = ratio(CacheKind::Infinite);
    double real = ratio(CacheKind::SetAssoc);
    double none = ratio(CacheKind::None);
    EXPECT_LE(inf, real + 1e-9);
    EXPECT_LE(real, none + 1e-9);
    EXPECT_DOUBLE_EQ(none, 8.0);
}

TEST(Machine, ImbalanceZeroForUniformFrame)
{
    Scene scene = quadScene(128, 0, 0, 128, 128);
    MachineConfig cfg = perfectConfig(4);
    cfg.tileParam = 8;
    FrameResult r = runFrame(scene, cfg);
    EXPECT_NEAR(r.pixelImbalancePercent, 0.0, 1e-9);
}

TEST(Machine, PrefetchDepthAbsorbsBursts)
{
    // Bursty misses (high-density quad) with a tight bus: a deeper
    // prefetch queue never hurts and typically helps.
    Scene scene = quadScene(128, 0, 0, 100, 100, 4.0, 1024);
    auto time_with_depth = [&](uint32_t depth) {
        MachineConfig cfg;
        cfg.cacheKind = CacheKind::SetAssoc;
        cfg.busTexelsPerCycle = 2.0;
        cfg.prefetchQueueDepth = depth;
        return runFrame(scene, cfg).frameTime;
    };
    Tick shallow = time_with_depth(1);
    Tick deep = time_with_depth(128);
    EXPECT_LE(deep, shallow);
}

TEST(Machine, FrameResultPrintMentionsFields)
{
    Scene scene = quadScene(64, 0, 0, 20, 20);
    FrameResult r = runFrame(scene, perfectConfig());
    std::ostringstream os;
    r.print(os);
    EXPECT_NE(os.str().find("frame time"), std::string::npos);
    EXPECT_NE(os.str().find("texel/fragment"), std::string::npos);
}

TEST(Machine, ConfigDescribeRoundTripsSettings)
{
    MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.dist = DistKind::SLI;
    cfg.tileParam = 4;
    cfg.cacheKind = CacheKind::SetAssoc;
    std::string desc = cfg.describe();
    EXPECT_NE(desc.find("procs=16"), std::string::npos);
    EXPECT_NE(desc.find("sli"), std::string::npos);
    EXPECT_NE(desc.find("16KB"), std::string::npos);
}

} // namespace
} // namespace texdist
