/** @file
 * Cross-validation of the machine against an independent
 * straight-line reference simulator.
 *
 * With ideal buffers and an ideal geometry stage the nodes are fully
 * decoupled: each node serially processes its share of the triangles
 * with its private cache, bus and prefetch queue. That can be
 * computed with plain loops and no event queue. The reference below
 * reimplements the timing equations of docs/MODEL.md from scratch;
 * any divergence from the machine (scheduling bug, FIFO accounting
 * bug, bus arithmetic bug) shows up as a frame-time or traffic
 * mismatch.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/distribution.hh"
#include "core/machine.hh"
#include "mem/bus.hh"
#include "raster/raster.hh"
#include "scene/builder.hh"
#include "texture/sampler.hh"

namespace texdist
{
namespace
{

struct RefNode
{
    std::unique_ptr<TextureCache> cache;
    std::unique_ptr<TextureBus> bus;
    std::vector<Tick> ring;
    size_t head = 0;
    Tick cpu = 0;
    Tick lastRetire = 0;
    uint64_t pixels = 0;

    RefNode(const MachineConfig &cfg)
        : cache(makeCache(cfg.cacheKind, cfg.cacheGeom)),
          ring(std::max(1u, cfg.prefetchQueueDepth), 0)
    {
        if (!cfg.infiniteBus)
            bus = std::make_unique<TextureBus>(
                cfg.busTexelsPerCycle);
    }

    void
    triangle(const MachineConfig &cfg, const Texture &tex,
             const std::vector<Fragment> &frags)
    {
        Tick start = cpu;
        TexelRefs refs;
        for (const Fragment &f : frags) {
            Tick issue = std::max(cpu, ring[head]);
            Tick retire = issue + 1;
            if (cfg.cacheKind != CacheKind::Perfect) {
                TrilinearSampler::generate(tex, f.u, f.v, f.lod,
                                           refs);
                for (uint64_t addr : refs) {
                    if (!cache->access(addr) && bus) {
                        retire = std::max(
                            retire,
                            bus->transfer(issue,
                                          cache->texelsPerFill()));
                    }
                }
            }
            ring[head] = retire;
            head = (head + 1) % ring.size();
            lastRetire = std::max(lastRetire, retire);
            cpu = issue + 1;
            ++pixels;
        }
        cpu = std::max(cpu,
                       start + Tick(cfg.setupCyclesPerTriangle));
    }

    Tick finish() const { return std::max(cpu, lastRetire); }
};

/** The straight-line reference machine. */
Tick
referenceFrame(const Scene &scene, const MachineConfig &cfg,
               uint64_t &texels_out)
{
    auto dist = Distribution::make(cfg.dist, scene.screenWidth,
                                   scene.screenHeight, cfg.numProcs,
                                   cfg.tileParam, cfg.interleave);
    std::vector<RefNode> nodes;
    for (uint32_t i = 0; i < cfg.numProcs; ++i)
        nodes.emplace_back(cfg);

    OverlapScratch scratch;
    std::vector<uint32_t> targets;
    Rect screen = scene.screenRect();
    const std::vector<uint16_t> &owners = dist->ownerMap();

    for (const TexTriangle &tri : scene.triangles) {
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster raster(tri, tex.width(), tex.height());
        if (raster.degenerate())
            continue;
        Rect bbox = raster.bbox().intersect(screen);
        targets.clear();
        dist->overlappingProcs(bbox, scratch, targets);
        if (targets.empty())
            continue;

        std::vector<std::vector<Fragment>> buckets(cfg.numProcs);
        raster.rasterize(screen, [&](const Fragment &f) {
            buckets[owners[size_t(f.y) * scene.screenWidth +
                           size_t(f.x)]]
                .push_back(f);
        });
        for (uint32_t t : targets)
            nodes[t].triangle(cfg, tex, buckets[t]);
    }

    Tick frame = 0;
    texels_out = 0;
    for (const RefNode &node : nodes) {
        frame = std::max(frame, node.finish());
        texels_out += node.cache->texelsFetched();
    }
    return frame;
}

Scene
randomScene(uint64_t seed)
{
    SceneBuilder b("ref", 160, 120, seed);
    auto pool = b.makeTexturePool(4, 16, 64);
    b.addBackgroundLayer(pool, 40, 40, 1.1);
    b.addCluster(60, 50, 20, 120, 30.0, pool[0], 0.8);
    b.addCluster(110, 80, 25, 80, 60.0, pool[2], 1.3);
    return b.take();
}

struct RefCase
{
    uint32_t procs;
    DistKind dist;
    uint32_t param;
    CacheKind cache;
    double bus; // 0 = infinite
    uint32_t prefetch;
};

class ReferenceCross : public ::testing::TestWithParam<RefCase>
{
};

TEST_P(ReferenceCross, EventMachineMatchesStraightLine)
{
    const RefCase &c = GetParam();
    Scene scene = randomScene(1000 + c.procs + c.param);

    MachineConfig cfg;
    cfg.numProcs = c.procs;
    cfg.dist = c.dist;
    cfg.tileParam = c.param;
    cfg.cacheKind = c.cache;
    cfg.infiniteBus = c.bus <= 0.0;
    if (!cfg.infiniteBus)
        cfg.busTexelsPerCycle = c.bus;
    cfg.prefetchQueueDepth = c.prefetch;
    // Decouple the nodes: ideal buffer.
    cfg.triangleBufferSize =
        uint32_t(scene.triangles.size() + 8);

    uint64_t ref_texels = 0;
    Tick ref_time = referenceFrame(scene, cfg, ref_texels);

    FrameResult r = runFrame(scene, cfg);
    EXPECT_EQ(r.frameTime, ref_time);
    EXPECT_EQ(r.totalTexelsFetched, ref_texels);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ReferenceCross,
    ::testing::Values(
        RefCase{1, DistKind::Block, 16, CacheKind::Perfect, 0, 64},
        RefCase{4, DistKind::Block, 16, CacheKind::SetAssoc, 1.0,
                64},
        RefCase{4, DistKind::Block, 8, CacheKind::SetAssoc, 2.0, 8},
        RefCase{8, DistKind::SLI, 2, CacheKind::SetAssoc, 1.0, 64},
        RefCase{8, DistKind::SLI, 4, CacheKind::None, 4.0, 16},
        RefCase{16, DistKind::Block, 4, CacheKind::SetAssoc, 1.0,
                1},
        RefCase{16, DistKind::SLI, 1, CacheKind::Infinite, 1.0, 64},
        RefCase{5, DistKind::Block, 32, CacheKind::SetAssoc, 1.5,
                32}));

} // namespace
} // namespace texdist
