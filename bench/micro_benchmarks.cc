/**
 * @file
 * Google-benchmark microbenchmarks for the simulator's hot paths:
 * rasterization, trilinear address generation (single and batched),
 * cache lookups (single and batched), phase-0 bucketing (of a shared
 * raster or fused with rasterization) and whole frames. These guard
 * the simulator's own throughput (frames are hundreds of millions of
 * texel accesses), not the paper's results.
 *
 * Every benchmark runs 5 repetitions and reports only the
 * aggregates — read the *_median row; a single repetition on a busy
 * host is noise, and the mean is skewed by one preempted run. Each
 * benchmark also warms its working set before the timed loop, so
 * the first repetition does not pay the cold-cache cost the other
 * four skip.
 */

#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "cache/cache.hh"
#include "core/frame_engine.hh"
#include "core/machine.hh"
#include "core/scene_raster.hh"
#include "geom/rng.hh"
#include "raster/raster.hh"
#include "scene/benchmarks.hh"
#include "scene/builder.hh"
#include "sim/simd.hh"
#include "texture/sampler.hh"

namespace texdist
{
namespace
{

// Median-of-5 for every benchmark in this file; see the file header.
constexpr int kRepetitions = 5;

void
BM_RasterizeTriangle(benchmark::State &state)
{
    const float size = float(state.range(0));
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {size, 0, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {0, size, 1.0f, 0.0f, 1.0f};
    Rect screen(0, 0, 2048, 2048);

    // Warmup: one full rasterization primes the triangle's edge
    // state and the instruction cache.
    {
        TriangleRaster raster(tri, 256, 256);
        raster.rasterize(screen, [&](const Fragment &f) {
            benchmark::DoNotOptimize(f.u);
        });
    }

    int64_t frags = 0;
    for (auto _ : state) {
        TriangleRaster raster(tri, 256, 256);
        raster.rasterize(screen, [&](const Fragment &f) {
            benchmark::DoNotOptimize(f.u);
            ++frags;
        });
    }
    state.SetItemsProcessed(frags);
}
BENCHMARK(BM_RasterizeTriangle)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_TrilinearAddressGen(benchmark::State &state)
{
    Texture tex(0, 0, 256, 256);
    TexelRefs refs;
    Rng rng(1);
    std::vector<float> us, vs, lods;
    for (int i = 0; i < 1024; ++i) {
        us.push_back(float(rng.uniform()));
        vs.push_back(float(rng.uniform()));
        lods.push_back(float(rng.uniform(0.0, 6.0)));
    }

    for (int i = 0; i < 1024; ++i) // warmup pass over the inputs
        TrilinearSampler::generate(tex, us[i], vs[i], lods[i], refs);

    size_t i = 0;
    for (auto _ : state) {
        TrilinearSampler::generate(tex, us[i & 1023], vs[i & 1023],
                                   lods[i & 1023], refs);
        benchmark::DoNotOptimize(refs[0]);
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 8);
}
BENCHMARK(BM_TrilinearAddressGen)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_TrilinearAddressGenBatch(benchmark::State &state)
{
    // The node's scan loop generates addresses for a whole fragment
    // chunk at once (node.cc scanFragments); this measures that
    // batched path against BM_TrilinearAddressGen's per-fragment
    // calls.
    const size_t batch = size_t(state.range(0));
    Texture tex(0, 0, 256, 256);
    Rng rng(1);
    std::vector<float> us(batch), vs(batch), lods(batch);
    for (size_t i = 0; i < batch; ++i) {
        us[i] = float(rng.uniform());
        vs[i] = float(rng.uniform());
        lods[i] = float(rng.uniform(0.0, 6.0));
    }
    std::vector<uint64_t> out(batch * 8);

    TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                    lods.data(), batch,
                                    out.data()); // warmup

    for (auto _ : state) {
        TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                        lods.data(), batch,
                                        out.data());
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch) * 8);
}
BENCHMARK(BM_TrilinearAddressGenBatch)
    ->Arg(64)
    ->Arg(512)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_TrilinearBatchKernel(benchmark::State &state)
{
    // Batched address generation pinned to one SIMD tier, so the
    // scalar/sse2/avx2 rows can be compared directly; the ratio of
    // the scalar to the avx2 median is the kernel speedup
    // bench_report records. Unsupported tiers skip rather than lie.
    const auto kernel = simd::Kernel(uint8_t(state.range(1)));
    if (!simd::forceKernel(kernel)) {
        state.SkipWithError("kernel unsupported on this host");
        return;
    }
    const size_t batch = size_t(state.range(0));
    Texture tex(0, 0, 256, 256);
    Rng rng(1);
    std::vector<float> us(batch), vs(batch), lods(batch);
    for (size_t i = 0; i < batch; ++i) {
        us[i] = float(rng.uniform());
        vs[i] = float(rng.uniform());
        lods[i] = float(rng.uniform(0.0, 6.0));
    }
    std::vector<uint64_t> out(batch * 8);

    TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                    lods.data(), batch,
                                    out.data()); // warmup

    for (auto _ : state) {
        TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                        lods.data(), batch,
                                        out.data());
        benchmark::DoNotOptimize(out[0]);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch) * 8);
    state.SetLabel(simd::to_string(kernel));
    simd::clearForcedKernel();
}
BENCHMARK(BM_TrilinearBatchKernel)
    ->ArgNames({"batch", "kernel"})
    ->Args({512, 0})
    ->Args({512, 1})
    ->Args({512, 2})
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_RasterCoverageKernel(benchmark::State &state)
{
    // The rasterizer's coverage inner loop pinned to one SIMD tier.
    // A large triangle keeps the benchmark in rowCoverage rather
    // than in per-fragment interpolation.
    const auto kernel = simd::Kernel(uint8_t(state.range(0)));
    if (!simd::forceKernel(kernel)) {
        state.SkipWithError("kernel unsupported on this host");
        return;
    }
    TexTriangle tri;
    tri.v[0] = {0, 0, 1.0f, 0.0f, 0.0f};
    tri.v[1] = {1024, 0, 1.0f, 1.0f, 0.0f};
    tri.v[2] = {0, 1024, 1.0f, 0.0f, 1.0f};
    Rect screen(0, 0, 2048, 2048);
    TriangleRaster raster(tri, 256, 256);

    benchmark::DoNotOptimize(raster.countPixels(screen)); // warmup

    int64_t pixels = 0;
    for (auto _ : state) {
        pixels += raster.countPixels(screen);
        benchmark::DoNotOptimize(pixels);
    }
    state.SetItemsProcessed(pixels);
    state.SetLabel(simd::to_string(kernel));
    simd::clearForcedKernel();
}
BENCHMARK(BM_RasterCoverageKernel)
    ->ArgNames({"kernel"})
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_CacheAccess(benchmark::State &state)
{
    SetAssocCache cache(CacheGeometry{});
    Rng rng(2);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 4096; ++i) {
        uint64_t a = uint64_t(rng.uniformInt(0, 1 << 18));
        if (rng.chance(0.8))
            a &= 0x7fff; // mostly-hitting stream
        addrs.push_back(a);
    }

    for (int i = 0; i < 4096; ++i) // warmup: fill the cache
        cache.access(addrs[i]);

    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i & 4095]));
        ++i;
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_CacheAccess)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

/**
 * A real sampler address stream: every triangle of a seed scene
 * rasterized and its fragments run through generateBatch, in the
 * order a node's scan probes them. Unlike BM_CacheAccess's random
 * stream it keeps the line reuse of 2x2 texel footprints.
 */
const std::vector<uint64_t> &
samplerStream()
{
    static const std::vector<uint64_t> stream = [] {
        constexpr size_t cap = size_t(512) * texelsPerFragment * 64;
        Scene scene = makeBenchmark("quake", 0.25);
        std::vector<uint64_t> out;
        std::vector<float> us, vs, lods;
        for (const TexTriangle &tri : scene.triangles) {
            const Texture &tex = scene.textures.get(tri.tex);
            TriangleRaster raster(tri, tex.width(), tex.height());
            us.clear();
            vs.clear();
            lods.clear();
            raster.rasterize(scene.screenRect(),
                             [&](const Fragment &f) {
                                 us.push_back(f.u);
                                 vs.push_back(f.v);
                                 lods.push_back(f.lod);
                             });
            size_t at = out.size();
            out.resize(at + us.size() * texelsPerFragment);
            TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                            lods.data(), us.size(),
                                            out.data() + at);
            if (out.size() >= cap)
                break;
        }
        out.resize(cap);
        return out;
    }();
    return stream;
}

/** Per-access time of a benchmark that made @p accesses probes. */
void
reportTimePerAccess(benchmark::State &state, int64_t accesses)
{
    state.SetItemsProcessed(accesses);
    state.counters["time_per_access"] = benchmark::Counter(
        double(accesses),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_CacheAccessBatch(benchmark::State &state)
{
    // The node's probe: one accessBatch call per 512-fragment chunk
    // of the sampler stream (BM_CacheAccessSampler is the same
    // stream one access() call at a time).
    constexpr size_t call = size_t(512) * texelsPerFragment;
    const std::vector<uint64_t> &addrs = samplerStream();
    std::unique_ptr<TextureCache> cache =
        makeCache(CacheKind::SetAssoc, CacheGeometry{});
    std::vector<uint8_t> miss(call);
    for (size_t at = 0; at < addrs.size(); at += call) // warmup
        cache->accessBatch(addrs.data() + at, call, miss.data());

    size_t at = 0;
    for (auto _ : state) {
        cache->accessBatch(addrs.data() + at, call, miss.data());
        benchmark::DoNotOptimize(miss.data());
        benchmark::ClobberMemory();
        at = (at + call) % addrs.size();
    }
    reportTimePerAccess(state, int64_t(state.iterations()) * int64_t(call));
}
BENCHMARK(BM_CacheAccessBatch)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_CacheAccessSampler(benchmark::State &state)
{
    // Per-address baseline for BM_CacheAccessBatch: the same stream
    // and call size, one virtual access() per reference.
    constexpr size_t call = size_t(512) * texelsPerFragment;
    const std::vector<uint64_t> &addrs = samplerStream();
    std::unique_ptr<TextureCache> cache =
        makeCache(CacheKind::SetAssoc, CacheGeometry{});
    for (uint64_t a : addrs) // warmup
        cache->access(a);

    size_t at = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < call; ++i)
            benchmark::DoNotOptimize(cache->access(addrs[at + i]));
        at = (at + call) % addrs.size();
    }
    reportTimePerAccess(state, int64_t(state.iterations()) * int64_t(call));
}
BENCHMARK(BM_CacheAccessSampler)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

/**
 * Phase 0 of one 32massive11255 frame at scale 0.5 on a 16-node
 * block-16 machine, serially: with a shared raster (index-bucketing
 * a SceneRaster built outside the loop) or without (rasterize,
 * interpolate and copy-bucket every fragment).
 */
void
bucketFrame(benchmark::State &state, bool shared)
{
    const Scene scene = makeBenchmark("32massive11255", 0.5);
    MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.dist = DistKind::Block;
    cfg.tileParam = 16;
    std::unique_ptr<Distribution> dist = Distribution::make(
        cfg.dist, scene.screenWidth, scene.screenHeight, cfg.numProcs,
        cfg.tileParam, cfg.interleave);
    std::vector<std::unique_ptr<TextureNode>> nodes;
    for (uint32_t p = 0; p < cfg.numProcs; ++p)
        nodes.push_back(
            std::make_unique<TextureNode>(p, cfg, scene.textures));
    ThreadPool serial(1);
    std::unique_ptr<SceneRaster> raster;
    if (shared)
        raster = std::make_unique<SceneRaster>(scene, serial);
    TwoPhaseFrameEngine engine(cfg, *dist, nodes, 1,
                               FrameEntry::SingleFrame, nullptr,
                               raster.get());
    engine.bucketOnly(scene); // warmup: sizes every arena

    uint64_t frags = 0;
    for (auto _ : state)
        frags += engine.bucketOnly(scene);
    state.SetItemsProcessed(int64_t(frags));
    state.counters["time_per_frag"] = benchmark::Counter(
        double(frags),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void
BM_BucketSharedRaster(benchmark::State &state)
{
    bucketFrame(state, true);
}
BENCHMARK(BM_BucketSharedRaster)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_RasterizeAndBucket(benchmark::State &state)
{
    bucketFrame(state, false);
}
BENCHMARK(BM_RasterizeAndBucket)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void
BM_FullFrameSimulation(benchmark::State &state)
{
    SceneBuilder b("bench", 256, 256, 3);
    auto pool = b.makeTexturePool(8, 32, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.numProcs = uint32_t(state.range(0));
    cfg.tileParam = 16;
    cfg.busTexelsPerCycle = 1.0;

    benchmark::DoNotOptimize(runFrame(scene, cfg)); // warmup

    uint64_t frags = 0;
    for (auto _ : state) {
        FrameResult r = runFrame(scene, cfg);
        benchmark::DoNotOptimize(r.frameTime);
        frags += r.totalPixels;
    }
    state.SetItemsProcessed(int64_t(frags));
}
BENCHMARK(BM_FullFrameSimulation)
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

} // namespace
} // namespace texdist

BENCHMARK_MAIN();
