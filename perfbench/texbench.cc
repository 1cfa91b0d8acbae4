/**
 * @file
 * texbench — host-throughput benchmark of the texdist simulator.
 *
 * Runs one named workload in this process, as a closed loop with one
 * client: the next frame (or config batch) is submitted only when
 * the previous call has returned.
 *
 *  - pan-p16:    32massive11255, 16 nodes, block-16, 10 000-entry
 *                FIFO; a bounded back-and-forth pan on a persistent
 *                SequenceMachine at jobs = nproc (warm caches).
 *  - fifo16-p64: truc640, 64 nodes, block-16, 16-entry FIFO; the
 *                same pan loop (FIFO back-pressure in phase 1).
 *  - sweep-fig7: 32massive11255, the 21-config Figure 7 grid through
 *                FrameLab::runBatch on an nproc-wide pool, cold
 *                caches, result rows published as a CSV via src/io.
 *
 * The seed picks the pan's start offset and direction (or the sweep
 * scene's screen offset); seeds equal modulo 8 give the same inputs.
 *
 * Untraced (default), the run reports the end-to-end metrics:
 * frames_per_s, mfrags_per_s, setup_s, peak_rss_mb. Traced
 * (--trace), it times the calls into each layer's public functions
 * and replays the first frame through the raster, sampler, cache and
 * bus layers in isolation; see README.md for the metric table.
 *
 * Every run folds the per-frame digests of its first pan period (or
 * first config batch) into a reference digest, compared against
 * --expect when given, and checks every later frame against it.
 *
 * Usage: texbench --workload=<name> [--seed=<n>] [--seconds=<s>]
 *                 [--trace] [--scale=<f>] [--expect=<hex>]
 *                 [--out-dir=<dir>]
 *
 * Prints progress lines, then one JSON object on the last line.
 * Exit: 0 ok, 1 a failed operation, 2 usage error, 3 not a Release
 * build.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "core/csv.hh"
#include "core/experiments.hh"
#include "core/interframe.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "io/vfs.hh"
#include "mem/bus.hh"
#include "raster/raster.hh"
#include "scene/benchmarks.hh"
#include "sim/checkpoint.hh"
#include "sim/simd.hh"
#include "sim/thread_pool.hh"
#include "stats.hh"
#include "texture/sampler.hh"

using namespace texdist;
using perfbench::efficiency;
using perfbench::median;
using perfbench::quantile;

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Frames in one back-and-forth pan period (out 4 steps, back 4). */
constexpr uint32_t panPeriod = 8;
constexpr float panStepPx = 8.0f;
/** Set-ups per run; setup_s is their median. */
constexpr uint32_t setupReps = 31;
/** Distinct inputs the seed selects between. */
constexpr uint32_t seedVariants = 8;
/** Block widths of the Figure 7 grid. */
const std::vector<uint32_t> gridWidths = {2, 4, 8, 16, 32, 64, 128};

struct Workload
{
    std::string name;
    std::string scene;
    uint32_t procs; ///< pan machine size; the sweep's probe machine
    uint32_t fifo;
    bool sweep;
};

const std::vector<Workload> workloads = {
    {"pan-p16", "32massive11255", 16, 10000, false},
    {"fifo16-p64", "truc640", 64, 16, false},
    {"sweep-fig7", "32massive11255", 16, 10000, true},
};

MachineConfig
machineConfig(uint32_t procs, uint32_t width, uint32_t fifo)
{
    MachineConfig cfg; // paper defaults: 16 KB 4-way cache, setup 25
    cfg.numProcs = procs;
    cfg.dist = DistKind::Block;
    cfg.tileParam = width;
    cfg.busTexelsPerCycle = 1.0;
    cfg.triangleBufferSize = fifo;
    return cfg;
}

/**
 * The screen offset of frame f. Pans go 4 steps of 8 px out and 4
 * back, so per-frame work stays bounded however long the run; the
 * sweep uses only frame 0's offset.
 */
struct Path
{
    float x0 = 0.0f;
    float y0 = 0.0f;
    float dir = 1.0f;

    float
    dx(uint64_t f) const
    {
        uint32_t p = uint32_t(f % panPeriod);
        uint32_t k = std::min(p, panPeriod - p);
        return x0 + dir * panStepPx * float(k);
    }
};

Path
pathFor(const Workload &w, uint64_t seed)
{
    uint32_t v = uint32_t(seed % seedVariants);
    Path p;
    if (w.sweep) {
        p.x0 = 8.0f * float(v % 4) - 12.0f;
        p.y0 = 8.0f * float(v / 4) - 4.0f;
    } else {
        p.x0 = 16.0f * float(v / 2) - 24.0f;
        p.dir = v % 2 ? -1.0f : 1.0f;
    }
    return p;
}

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    double scale = 0.5;
    std::string expect; ///< pinned reference digest (hex), optional
    std::string outDir = ".bench_build/out";
};

/** Everything a run prints in its final JSON line. */
struct Report
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::map<std::string, uint64_t> counts;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t reference = 0;
    std::vector<std::string> problems;

    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, {value, unit}});
    }

    void
    fail(uint64_t ops, const std::string &why)
    {
        failed += ops;
        problems.push_back(why);
        std::cout << "FAILED: " << why << std::endl;
    }
};

/** Exact simulated totals over a set of frames (the output pin). */
struct Counts
{
    uint64_t frames = 0, fragments = 0, triangles = 0, cycles = 0;
    uint64_t accesses = 0, misses = 0, texels = 0;
    uint64_t stall = 0, idle = 0, setupWait = 0, fifoHighWater = 0;
    uint64_t fragMin = 0, fragMax = 0;

    void
    add(const FrameResult &r)
    {
        fragMin = frames ? std::min(fragMin, r.totalPixels)
                         : r.totalPixels;
        fragMax = std::max(fragMax, r.totalPixels);
        ++frames;
        fragments += r.totalPixels;
        triangles += r.trianglesDispatched;
        cycles += r.frameTime;
        texels += r.totalTexelsFetched;
        fifoHighWater =
            std::max<uint64_t>(fifoHighWater, r.fifoMaxOccupancy);
        for (const NodeResult &n : r.nodes) {
            accesses += n.cacheAccesses;
            misses += n.cacheMisses;
            stall += n.stallCycles;
            idle += n.idleCycles;
            setupWait += n.setupWaitCycles;
        }
    }

    void
    publish(Report &rep) const
    {
        rep.counts = {
            {"core.frames", frames},
            {"core.fragments", fragments},
            {"core.triangles_dispatched", triangles},
            {"core.sim_cycles", cycles},
            {"cache.accesses", accesses},
            {"cache.misses", misses},
            {"mem.texels_fetched", texels},
            {"core.stall_cycles", stall},
            {"core.idle_cycles", idle},
            {"core.setup_wait_cycles", setupWait},
            {"core.fifo_high_water", fifoHighWater},
            {"core.frag_per_frame_min", fragMin},
            {"core.frag_per_frame_max", fragMax},
        };
    }
};

/** Work at one pan position: repeats exactly whatever the caches. */
struct FrameWork
{
    uint64_t pixels = 0, triangles = 0, accesses = 0, nodePixels = 0;

    explicit FrameWork(const FrameResult &r)
        : pixels(r.totalPixels), triangles(r.trianglesDispatched)
    {
        for (const NodeResult &n : r.nodes) {
            accesses += n.cacheAccesses;
            nodePixels += n.pixels;
        }
    }

    bool operator==(const FrameWork &) const = default;
};

/** Per-frame invariants of a fault-free set-associative run. */
bool
frameConsistent(const FrameResult &r)
{
    FrameWork w(r);
    return !r.failed && w.nodePixels == r.totalPixels &&
           w.accesses == uint64_t(texelsPerFragment) * r.totalPixels;
}

uint64_t
foldDigests(const std::vector<FrameResult> &frames)
{
    StateDigest d;
    for (const FrameResult &r : frames)
        d.mix(digestFrame(r));
    return d.value();
}

/** One pan period on a machine. */
struct PeriodRun
{
    std::vector<FrameResult> frames;
    std::vector<double> translateMs; ///< per frame, when spanned
    std::vector<double> frameMs;     ///< per frame, when spanned
    double wallMs = 0.0;
};

/**
 * Run one period of the pan. The machine's own first frame @p first,
 * when given, stands in for position 0 instead of a fresh
 * translation. With @p spans, each translateScene and runFrame call
 * is timed.
 */
PeriodRun
runPeriod(SequenceMachine &machine, const Scene &base, const Path &path,
          const Scene *first, bool spans)
{
    PeriodRun out;
    out.frames.reserve(panPeriod);
    auto start = Clock::now();
    for (uint32_t k = 0; k < panPeriod; ++k) {
        auto t0 = spans ? Clock::now() : start;
        Scene moved;
        const Scene *scene = first;
        if (k != 0 || !first) {
            moved = translateScene(base, path.dx(k), path.y0);
            scene = &moved;
        }
        if (spans) {
            out.translateMs.push_back(msSince(t0));
            t0 = Clock::now();
        }
        out.frames.push_back(machine.runFrame(*scene));
        if (spans)
            out.frameMs.push_back(msSince(t0));
    }
    out.wallMs = msSince(start);
    return out;
}

/**
 * Publish @p frames as the simulator's per-frame result CSV, through
 * CsvWriter and so the VFS's atomic write; returns the ms it took.
 */
double
publishCsv(const std::string &path, const std::vector<FrameResult> &frames)
{
    auto t0 = Clock::now();
    CsvWriter csv(path);
    frameCsvHeader(csv);
    for (size_t f = 0; f < frames.size(); ++f)
        frameCsvRow(csv, uint32_t(f), frames[f], digestFrame(frames[f]));
    csv.close();
    return msSince(t0);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Pass-through that keeps a value observable to the optimizer. */
volatile uint64_t sink = 0;

/**
 * Replays a frame through the raster, distribution, sampler, cache
 * and bus layers in isolation, one paper-geometry cache and one
 * 1 texel/cycle bus per owner node, in each node's submission order
 * — the order the engine uses, so the cold misses match the
 * simulated first frame exactly.
 */
class LayerReplay
{
  public:
    LayerReplay(const Scene &scene_, const MachineConfig &cfg)
        : scene(scene_),
          dist(Distribution::make(cfg.dist, scene_.screenWidth,
                                  scene_.screenHeight, cfg.numProcs,
                                  cfg.tileParam, cfg.interleave))
    {
    }

    /** Time every layer @p passes times and report the medians. */
    void
    run(Report &rep, const FrameResult &cold_frame, int passes)
    {
        std::vector<double> setup_ns, bin_ns, raster_ns, sampler_ns,
            scalar_ns, cache_ns, bus_ns;
        for (int p = 0; p < passes; ++p) {
            setup_ns.push_back(rasterSetup());
            bin_ns.push_back(binning());
            raster_ns.push_back(rasterize());
            Texels t = texels(true);
            sampler_ns.push_back(t.samplerNs);
            cache_ns.push_back(t.cacheNs);
            bus_ns.push_back(t.busNs);
            if (p == 0)
                checkAgainst(rep, cold_frame, t);
        }
        if (simd::forceKernel(simd::Kernel::Scalar)) {
            for (int p = 0; p < passes; ++p) {
                Texels t = texels(false);
                scalar_ns.push_back(t.samplerNs);
                if (t.addrHash != dispatchedHash)
                    rep.fail(1, "forced-scalar sampler addresses differ "
                                "from the dispatched kernel's");
            }
            simd::clearForcedKernel();
        }

        const double tris = double(scene.triangles.size());
        const double frags = double(stream.x.size());
        const double accesses = frags * texelsPerFragment;
        rep.metric("raster.setup_ns_per_tri", median(setup_ns) / tris,
                   "ns");
        rep.metric("core.distribution.bin_ns_per_tri",
                   median(bin_ns) / double(binned), "ns");
        rep.metric("core.distribution.nodes_per_tri",
                   double(overlaps) / double(binned), "nodes");
        rep.metric("raster.ns_per_frag", median(raster_ns) / frags, "ns");
        rep.metric("texture.sampler.ns_per_frag",
                   median(sampler_ns) / frags, "ns");
        rep.metric("texture.sampler.scalar_ns_per_frag",
                   median(scalar_ns) / frags, "ns");
        rep.metric("cache.ns_per_access", median(cache_ns) / accesses,
                   "ns");
        rep.metric("cache.miss_ratio", double(misses) / accesses,
                   "ratio");
        rep.metric("mem.bus.ns_per_transfer",
                   median(bus_ns) / double(misses), "ns");
    }

  private:
    /** The frame's fragments, SoA, grouped by triangle. */
    struct Stream
    {
        std::vector<uint16_t> x, y;
        std::vector<float> u, v, lod;

        void
        clear()
        {
            x.clear(), y.clear(), u.clear(), v.clear(), lod.clear();
        }
    };

    struct TriRange
    {
        TextureId tex;
        size_t begin, count;
    };

    struct Texels
    {
        double samplerNs = 0.0, cacheNs = 0.0, busNs = 0.0;
        uint64_t addrHash = 0, misses = 0;
    };

    double
    rasterSetup()
    {
        auto t0 = Clock::now();
        uint64_t acc = 0;
        for (const TexTriangle &tri : scene.triangles) {
            const Texture &tex = scene.textures.get(tri.tex);
            TriangleRaster r(tri, tex.width(), tex.height());
            acc += uint64_t(r.bbox().x0) + r.degenerate();
        }
        double ns = msSince(t0) * 1e6;
        sink = sink + acc;
        return ns;
    }

    /** Distribution::overlappingProcs over every live triangle bbox. */
    double
    binning()
    {
        if (bboxes.empty()) {
            for (const TexTriangle &tri : scene.triangles) {
                const Texture &tex = scene.textures.get(tri.tex);
                TriangleRaster r(tri, tex.width(), tex.height());
                if (!r.degenerate())
                    bboxes.push_back(r.bbox().intersect(
                        scene.screenRect()));
            }
            binned = bboxes.size();
        }
        OverlapScratch scratch;
        std::vector<uint32_t> out;
        uint64_t total = 0;
        auto t0 = Clock::now();
        for (const Rect &b : bboxes) {
            out.clear();
            dist->overlappingProcs(b, scratch, out);
            total += out.size();
        }
        double ns = msSince(t0) * 1e6;
        overlaps = total;
        return ns;
    }

    /** Full-screen rasterization of every triangle into the stream. */
    double
    rasterize()
    {
        stream.clear();
        ranges.clear();
        const Rect screen = scene.screenRect();
        auto t0 = Clock::now();
        for (const TexTriangle &tri : scene.triangles) {
            const Texture &tex = scene.textures.get(tri.tex);
            TriangleRaster r(tri, tex.width(), tex.height());
            size_t begin = stream.x.size();
            r.rasterize(screen, [&](const Fragment &f) {
                stream.x.push_back(uint16_t(f.x));
                stream.y.push_back(uint16_t(f.y));
                stream.u.push_back(f.u);
                stream.v.push_back(f.v);
                stream.lod.push_back(f.lod);
            });
            if (stream.x.size() > begin)
                ranges.push_back({tri.tex, begin, stream.x.size() - begin});
        }
        return msSince(t0) * 1e6;
    }

    /**
     * Sampler, cache and bus over the stream in 512-fragment chunks
     * (the node's batch size), each layer timed separately. Only
     * the sampler runs unless @p memory.
     */
    Texels
    texels(bool memory)
    {
        constexpr size_t chunk = 512;
        const uint32_t procs = dist->numProcs();
        std::vector<std::unique_ptr<SetAssocCache>> caches;
        std::vector<std::unique_ptr<TextureBus>> buses;
        for (uint32_t p = 0; p < procs; ++p) {
            caches.push_back(
                std::make_unique<SetAssocCache>(CacheGeometry{}));
            buses.push_back(std::make_unique<TextureBus>(1.0));
        }
        const uint32_t fill = caches[0]->texelsPerFill();
        std::vector<uint64_t> issue(procs, 0);
        std::vector<uint64_t> addrs(chunk * texelsPerFragment);
        std::vector<std::pair<uint32_t, uint64_t>> missed;
        Texels t;
        StateDigest hash;
        for (const TriRange &tr : ranges) {
            const Texture &tex = scene.textures.get(tr.tex);
            for (size_t b = tr.begin; b < tr.begin + tr.count; b += chunk) {
                size_t m = std::min(chunk, tr.begin + tr.count - b);
                auto t0 = Clock::now();
                TrilinearSampler::generateBatch(
                    tex, &stream.u[b], &stream.v[b], &stream.lod[b], m,
                    addrs.data());
                t.samplerNs += msSince(t0) * 1e6;
                for (size_t i = 0; i < m * texelsPerFragment; ++i)
                    hash.mix(addrs[i]);
                if (!memory)
                    continue;

                missed.clear();
                t0 = Clock::now();
                for (size_t i = 0; i < m; ++i) {
                    uint32_t p = dist->owner(stream.x[b + i],
                                             stream.y[b + i]);
                    const uint64_t *a = &addrs[i * texelsPerFragment];
                    for (int k = 0; k < texelsPerFragment; ++k) {
                        if (!caches[p]->access(a[k]))
                            missed.push_back({p, issue[p]});
                    }
                    ++issue[p];
                }
                t.cacheNs += msSince(t0) * 1e6;

                t0 = Clock::now();
                uint64_t last = 0;
                for (const auto &[p, tick] : missed)
                    last += buses[p]->transfer(tick, fill);
                t.busNs += msSince(t0) * 1e6;
                sink = sink + last;
                t.misses += missed.size();
            }
        }
        t.addrHash = hash.value();
        if (memory) {
            dispatchedHash = t.addrHash;
            misses = t.misses;
        }
        return t;
    }

    /** The replay must see exactly the cold first frame's work. */
    void
    checkAgainst(Report &rep, const FrameResult &frame, const Texels &t)
    {
        Counts c;
        c.add(frame);
        if (stream.x.size() != frame.totalPixels ||
            t.misses != c.misses)
            rep.fail(1, "layer replay disagrees with the cold first "
                        "frame: " +
                            std::to_string(stream.x.size()) +
                            " fragments, " + std::to_string(t.misses) +
                            " misses vs " +
                            std::to_string(frame.totalPixels) + ", " +
                            std::to_string(c.misses));
    }

    const Scene &scene;
    std::unique_ptr<Distribution> dist;
    std::vector<Rect> bboxes;
    uint64_t binned = 0, overlaps = 0, misses = 0, dispatchedHash = 0;
    Stream stream;
    std::vector<TriRange> ranges;
};

/** Median µs of an empty nproc-wide ThreadPool::parallelFor. */
double
forkJoinUs(uint32_t threads)
{
    ThreadPool pool(threads);
    constexpr int calls = 200;
    std::vector<double> us;
    for (int batch = 0; batch < 21; ++batch) {
        auto t0 = Clock::now();
        for (int c = 0; c < calls; ++c)
            pool.parallelFor(threads, [](uint32_t, size_t) {});
        if (batch > 0) // the first batch wakes the workers up
            us.push_back(msSince(t0) * 1e3 / calls);
    }
    return median(us);
}

/**
 * FrameLab layer metrics. Each config of @p grid is run serially on
 * @p scene and must reproduce @p batch, the same configs' results
 * from runBatch; @p baseline_ms and @p batch_ms time the cold T(1)
 * and runBatch calls (baselines cached) made by the caller.
 */
void
reportFrameLab(Report &rep, const Scene &scene,
               const std::vector<MachineConfig> &grid,
               const std::vector<FrameResult> &batch,
               const std::vector<double> &baseline_ms,
               const std::vector<double> &batch_ms, uint32_t threads)
{
    FrameLab lab(scene);
    std::vector<double> config_ms;
    double sum = 0.0;
    for (size_t i = 0; i < grid.size(); ++i) {
        auto t0 = Clock::now();
        FrameResult r = lab.run(grid[i]);
        config_ms.push_back(msSince(t0));
        sum += config_ms.back();
        ++rep.attempted;
        if (digestFrame(r) != digestFrame(batch[i]))
            rep.fail(1, "serial FrameLab::run of config " +
                            std::to_string(i) +
                            " differs from its runBatch result");
    }
    rep.metric("core.framelab.baseline_ms", median(baseline_ms), "ms");
    rep.metric("core.framelab.batch_ms", median(batch_ms), "ms");
    rep.metric("core.framelab.config_ms_p50", median(config_ms), "ms");
    rep.metric("core.framelab.config_ms_max", quantile(config_ms, 1.0),
               "ms");
    rep.metric("core.framelab.batch_efficiency",
               efficiency(sum, median(batch_ms), threads), "ratio");
}

/**
 * Engine probes on fresh machines over one pan period. Machines at
 * jobs = N and jobs = 1 run each frame in turn, so host speed drift
 * cancels from their time ratio; then a jobs = N machine reruns the
 * period with the scalar kernels forced. The jobs = N period must
 * reproduce @p reference (when nonzero) and the other two must
 * reproduce it. Returns the cold first frame.
 */
FrameResult
probeEngine(Report &rep, const Scene &base, const Scene &first,
            const Path &path, const MachineConfig &cfg, uint32_t jobs,
            uint64_t reference, bool report_frames)
{
    auto t0 = Clock::now();
    SequenceMachine wide(first, cfg, jobs);
    const double ctor_ms = msSince(t0);
    SequenceMachine serial(first, cfg, 1);
    PeriodRun w, s;
    for (uint32_t k = 0; k < panPeriod; ++k) {
        t0 = Clock::now();
        Scene moved;
        const Scene *scene = &first;
        if (k != 0) {
            moved = translateScene(base, path.dx(k), path.y0);
            scene = &moved;
        }
        w.translateMs.push_back(msSince(t0));
        t0 = Clock::now();
        w.frames.push_back(wide.runFrame(*scene));
        w.frameMs.push_back(msSince(t0));
        t0 = Clock::now();
        s.frames.push_back(serial.runFrame(*scene));
        s.frameMs.push_back(msSince(t0));
    }
    rep.attempted += 2 * panPeriod;
    PeriodRun scalar = w;
    if (simd::forceKernel(simd::Kernel::Scalar)) {
        SequenceMachine machine(first, cfg, jobs);
        scalar = runPeriod(machine, base, path, &first, false);
        rep.attempted += panPeriod;
        simd::clearForcedKernel();
    }

    const uint64_t wide_digest = foldDigests(w.frames);
    if (reference && wide_digest != reference)
        rep.fail(panPeriod, "a fresh jobs=N period does not reproduce "
                            "the reference digest");
    if (foldDigests(s.frames) != wide_digest)
        rep.fail(panPeriod, "jobs=1 period differs from jobs=N");
    if (foldDigests(scalar.frames) != wide_digest)
        rep.fail(panPeriod, "forced-scalar period differs from jobs=N");

    double t1 = 0.0, tn = 0.0;
    for (size_t f = 0; f < panPeriod; ++f) {
        t1 += s.frameMs[f];
        tn += w.frameMs[f];
    }
    rep.metric("core.engine.frame_ms_jobs1_p50", median(s.frameMs), "ms");
    rep.metric("core.engine.parallel_efficiency",
               efficiency(t1, tn, jobs), "ratio");
    if (report_frames) {
        rep.metric("core.sequence.ctor_ms", ctor_ms, "ms");
        rep.metric("scene.translate_ms", median(w.translateMs), "ms");
        rep.metric("core.sequence.frame_ms_p50", median(w.frameMs), "ms");
        rep.metric("core.sequence.frame_ms_p90", quantile(w.frameMs, 0.9),
                   "ms");
    }
    return w.frames.front();
}

/** Checks a pinned reference digest, if one was given. */
void
checkExpected(Report &rep, const Options &o, uint64_t ops)
{
    std::cout << "reference digest " << digestHex(rep.reference)
              << std::endl;
    if (!o.expect.empty() && digestHex(rep.reference) != o.expect)
        rep.fail(ops, "reference digest " + digestHex(rep.reference) +
                          " differs from the pinned " + o.expect);
}

/**
 * Frames and fragments completed over the timed calls, per host
 * second. A total, not a median of per-call rates: on a shared host
 * the speed drifts between states lasting seconds, and a whole-run
 * total averages over them where a median snaps to one.
 */
class Throughput
{
  public:
    void
    add(uint64_t frames_done, uint64_t fragments_done, double wall_ms)
    {
        ++calls;
        frames += frames_done;
        fragments += fragments_done;
        seconds += wall_ms / 1e3;
    }

    double framesPerS() const { return double(frames) / seconds; }

    /** How much slower this (traced) set ran than @p untraced, in %. */
    double
    overheadPct(const Throughput &untraced) const
    {
        return (1.0 - framesPerS() / untraced.framesPerS()) * 100.0;
    }

    void
    report(Report &rep, const char *what, Clock::time_point start) const
    {
        std::cout << "timed " << calls << " " << what << " ("
                  << frames << " frames) in " << msSince(start) / 1e3
                  << " s" << std::endl;
        rep.metric("frames_per_s", framesPerS(), "1/s");
        rep.metric("mfrags_per_s", double(fragments) / 1e6 / seconds,
                   "Mfrag/s");
    }

  private:
    uint64_t calls = 0, frames = 0, fragments = 0;
    double seconds = 0.0;
};

void
runPan(const Options &o, const Workload &w, Report &rep)
{
    const uint32_t jobs = ThreadPool::defaultThreads();
    const MachineConfig cfg = machineConfig(w.procs, 16, w.fifo);
    const Path path = pathFor(w, o.seed);

    // Set-up, repeated: scene build, the first frame, the machine.
    std::unique_ptr<Scene> base, first;
    std::unique_ptr<SequenceMachine> machine;
    std::vector<double> setup_s, build_ms, ctor_ms;
    for (uint32_t i = 0; i < setupReps; ++i) {
        machine.reset();
        first.reset();
        base.reset();
        auto t0 = Clock::now();
        base = std::make_unique<Scene>(makeBenchmark(w.scene, o.scale));
        build_ms.push_back(msSince(t0));
        first = std::make_unique<Scene>(
            translateScene(*base, path.dx(0), path.y0));
        auto t1 = Clock::now();
        machine = std::make_unique<SequenceMachine>(*first, cfg, jobs);
        ctor_ms.push_back(msSince(t1));
        setup_s.push_back(msSince(t0) / 1e3);
    }
    std::cout << "set-up " << median(setup_s) << " s (median of "
              << setup_s.size() << ")" << std::endl;

    // The first period is the reference: pinned digest and counts.
    PeriodRun ref = runPeriod(*machine, *base, path, first.get(), false);
    rep.attempted += ref.frames.size();
    rep.reference = foldDigests(ref.frames);
    checkExpected(rep, o, ref.frames.size());
    Counts counts;
    std::vector<FrameWork> work;
    for (const FrameResult &r : ref.frames) {
        counts.add(r);
        work.emplace_back(r);
        if (!frameConsistent(r))
            rep.fail(1, "reference frame inconsistent or failed");
    }
    counts.publish(rep);

    // Timed section; traced runs alternate spanned and plain periods.
    Throughput plain, spanned;
    std::vector<double> translate_ms, frame_ms;
    auto start = Clock::now();
    for (uint32_t n = 0; n == 0 || msSince(start) < o.seconds * 1e3;
         ++n) {
        bool spans = o.trace && n % 2 == 1;
        PeriodRun run = runPeriod(*machine, *base, path, nullptr, spans);
        rep.attempted += run.frames.size();
        for (size_t k = 0; k < run.frames.size(); ++k) {
            const FrameResult &r = run.frames[k];
            if (!frameConsistent(r) || !(FrameWork(r) == work[k]))
                rep.fail(1, "frame at pan position " +
                                std::to_string(k) +
                                " failed or changed its work");
        }
        (spans ? spanned : plain)
            .add(panPeriod, counts.fragments, run.wallMs);
        translate_ms.insert(translate_ms.end(), run.translateMs.begin(),
                            run.translateMs.end());
        frame_ms.insert(frame_ms.end(), run.frameMs.begin(),
                        run.frameMs.end());
    }
    plain.report(rep, "periods", start);
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    if (!o.trace)
        return;

    rep.metric("scene.build_ms", median(build_ms), "ms");
    rep.metric("core.sequence.ctor_ms", median(ctor_ms), "ms");
    rep.metric("scene.translate_ms", median(translate_ms), "ms");
    rep.metric("core.sequence.frame_ms_p50", median(frame_ms), "ms");
    rep.metric("core.sequence.frame_ms_p90", quantile(frame_ms, 0.9),
               "ms");
    rep.metric("trace.overhead_pct", spanned.overheadPct(plain), "%");
    machine.reset();

    probeEngine(rep, *base, *first, path, cfg, jobs, rep.reference,
                false);
    std::vector<MachineConfig> grid;
    for (uint32_t width : gridWidths)
        grid.push_back(machineConfig(w.procs, width, w.fifo));
    {
        ThreadPool pool(jobs);
        FrameLab lab(*first);
        auto t0 = Clock::now();
        lab.baseline(grid.front());
        double baseline_ms = msSince(t0);
        t0 = Clock::now();
        std::vector<FrameLab::SpeedupResult> results =
            lab.runBatch(grid, pool);
        double batch_ms = msSince(t0);
        rep.attempted += 1 + results.size();
        std::vector<FrameResult> batch;
        for (const FrameLab::SpeedupResult &r : results)
            batch.push_back(r.frame);
        reportFrameLab(rep, *first, grid, batch, {baseline_ms},
                       {batch_ms}, jobs);
    }
    LayerReplay(*first, cfg).run(rep, ref.frames.front(), 3);
    rep.metric("sim.thread_pool.fork_join_us", forkJoinUs(jobs), "us");
    io::makeDirs(o.outDir);
    std::vector<double> publish_ms;
    for (int i = 0; i < 5; ++i)
        publish_ms.push_back(
            publishCsv(o.outDir + "/" + w.name + ".csv", ref.frames));
    rep.metric("io.publish_ms", median(publish_ms), "ms");
}

/** The Figure 7 grid: P in {4, 16, 64} x every block width. */
std::vector<MachineConfig>
sweepGrid()
{
    std::vector<MachineConfig> grid;
    for (uint32_t procs : {4u, 16u, 64u})
        for (uint32_t width : gridWidths)
            grid.push_back(machineConfig(procs, width, 10000));
    return grid;
}

void
runSweep(const Options &o, const Workload &w, Report &rep)
{
    const uint32_t threads = ThreadPool::defaultThreads();
    const Path path = pathFor(w, o.seed);
    const std::vector<MachineConfig> grid = sweepGrid();
    const uint64_t frames_per_batch = grid.size() + 1; // + T(1)

    // Set-up, repeated: scene build at the seed's screen offset, the
    // lab and its pool.
    std::unique_ptr<Scene> base, scene;
    std::unique_ptr<FrameLab> lab;
    std::unique_ptr<ThreadPool> pool;
    std::vector<double> setup_s, build_ms;
    for (uint32_t i = 0; i < setupReps; ++i) {
        lab.reset();
        pool.reset();
        scene.reset();
        base.reset();
        auto t0 = Clock::now();
        base = std::make_unique<Scene>(makeBenchmark(w.scene, o.scale));
        build_ms.push_back(msSince(t0));
        scene = std::make_unique<Scene>(
            translateScene(*base, path.dx(0), path.y0));
        lab = std::make_unique<FrameLab>(*scene);
        pool = std::make_unique<ThreadPool>(threads);
        setup_s.push_back(msSince(t0) / 1e3);
    }
    std::cout << "set-up " << median(setup_s) << " s (median of "
              << setup_s.size() << ")" << std::endl;
    io::makeDirs(o.outDir);
    const std::string csv_path = o.outDir + "/" + w.name + ".csv";

    // One batch: a fresh lab (so T(1) is recomputed), the grid, the
    // published CSV. Spanned batches time the baseline separately.
    std::vector<double> baseline_ms, batch_ms, publish_ms;
    auto batch = [&](bool spans, std::vector<FrameResult> &frames) {
        FrameLab fresh(*scene);
        auto t0 = Clock::now();
        if (spans) {
            fresh.baseline(grid.front());
            baseline_ms.push_back(msSince(t0));
        }
        auto tb = Clock::now();
        std::vector<FrameLab::SpeedupResult> results =
            fresh.runBatch(grid, *pool);
        if (spans)
            batch_ms.push_back(msSince(tb));
        StateDigest d;
        frames.clear();
        for (const FrameLab::SpeedupResult &r : results) {
            d.mix(digestFrame(r.frame));
            d.mix(uint64_t(r.baselineTime));
            frames.push_back(r.frame);
        }
        double ms = publishCsv(csv_path, frames);
        if (spans)
            publish_ms.push_back(ms);
        rep.attempted += frames_per_batch;
        return std::make_pair(d.value(), msSince(t0));
    };

    std::vector<FrameResult> ref_frames, frames;
    rep.reference = batch(false, ref_frames).first;
    checkExpected(rep, o, frames_per_batch);
    Counts counts;
    for (const FrameResult &r : ref_frames) {
        counts.add(r);
        if (!frameConsistent(r))
            rep.fail(1, "sweep frame inconsistent or failed");
    }
    counts.publish(rep);
    const uint64_t batch_frags =
        counts.fragments + ref_frames.front().totalPixels; // + T(1)

    // Timed section; traced runs alternate spanned and plain batches.
    Throughput plain, spanned;
    auto start = Clock::now();
    for (uint32_t n = 0; n == 0 || msSince(start) < o.seconds * 1e3;
         ++n) {
        bool spans = o.trace && n % 2 == 1;
        auto [digest, wall] = batch(spans, frames);
        if (digest != rep.reference)
            rep.fail(frames_per_batch,
                     "sweep batch differs from the reference batch");
        (spans ? spanned : plain).add(frames_per_batch, batch_frags, wall);
    }
    plain.report(rep, "batches", start);
    rep.metric("setup_s", median(setup_s), "s");
    rep.metric("peak_rss_mb", peakRssMb(), "MB");
    if (!o.trace)
        return;

    rep.metric("scene.build_ms", median(build_ms), "ms");
    rep.metric("io.publish_ms", median(publish_ms), "ms");
    rep.metric("trace.overhead_pct", spanned.overheadPct(plain), "%");
    reportFrameLab(rep, *scene, grid, ref_frames, baseline_ms, batch_ms,
                   threads);

    // The sequence, engine and kernel layers have no sweep call
    // site; probe them on the sweep scene panned by the 16-node
    // block-16 machine of the grid.
    const MachineConfig cfg = machineConfig(w.procs, 16, w.fifo);
    FrameResult cold =
        probeEngine(rep, *base, *scene, path, cfg, threads, 0, true);
    LayerReplay(*scene, cfg).run(rep, cold, 3);
    rep.metric("sim.thread_pool.fork_join_us", forkJoinUs(threads),
               "us");
}

/** JSON string literal (the reports hold only plain ASCII). */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
printReport(const Options &o, const Report &rep)
{
    std::ostringstream os;
    os << "{\"workload\": " << quoted(o.workload)
       << ", \"seed\": " << o.seed
       << ", \"variant\": " << o.seed % seedVariants
       << ", \"scale\": " << number(o.scale)
       << ", \"trace\": " << (o.trace ? "true" : "false");
    os << ", \"host\": {\"nproc\": " << ThreadPool::defaultThreads()
       << ", \"threads\": " << ThreadPool::defaultThreads()
       << ", \"simd\": " << quoted(simd::to_string(simd::dispatch()))
       << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << quoted(PERFBENCH_COMPILER) << "}";
    os << ", \"attempted\": " << rep.attempted
       << ", \"failed\": " << rep.failed
       << ", \"reference_digest\": " << quoted(digestHex(rep.reference));
    os << ", \"counts\": {";
    const char *sep = "";
    for (const auto &[name, value] : rep.counts) {
        os << sep << quoted(name) << ": " << value;
        sep = ", ";
    }
    os << "}, \"metrics\": {";
    sep = "";
    for (const auto &[name, vu] : rep.metrics) {
        os << sep << quoted(name) << ": {\"value\": " << number(vu.first)
           << ", \"unit\": " << quoted(vu.second) << "}";
        sep = ", ";
    }
    os << "}, \"problems\": [";
    sep = "";
    for (const std::string &p : rep.problems) {
        os << sep << quoted(p);
        sep = ", ";
    }
    os << "]}";
    std::cout << os.str() << std::endl;
}

bool
parseArgs(int argc, char **argv, Options &o)
{
    try {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&](const char *flag) -> const char * {
                size_t n = std::char_traits<char>::length(flag);
                return arg.compare(0, n, flag) == 0 ? arg.c_str() + n
                                                    : nullptr;
            };
            if (const char *v = value("--workload="))
                o.workload = v;
            else if (const char *v2 = value("--seed="))
                o.seed = std::stoull(v2);
            else if (const char *v3 = value("--seconds="))
                o.seconds = std::stod(v3);
            else if (const char *v4 = value("--scale="))
                o.scale = std::stod(v4);
            else if (const char *v5 = value("--expect="))
                o.expect = v5;
            else if (const char *v6 = value("--out-dir="))
                o.outDir = v6;
            else if (arg == "--trace")
                o.trace = true;
            else
                return false;
        }
    } catch (const std::exception &) {
        return false;
    }
    return o.seconds > 0.0 && o.scale > 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parseArgs(argc, argv, o)) {
        std::cerr << "usage: texbench --workload=<name> [--seed=<n>] "
                     "[--seconds=<s>] [--trace] [--scale=<f>] "
                     "[--expect=<hex>] "
                     "[--out-dir=<dir>]\n";
        return 2;
    }
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
    if (!release) {
        std::cerr << "texbench: refusing to record from a "
                  << PERFBENCH_BUILD_TYPE
                  << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }
    const Workload *w = nullptr;
    for (const Workload &cand : workloads)
        if (cand.name == o.workload)
            w = &cand;
    if (!w) {
        std::cerr << "texbench: unknown workload '" << o.workload
                  << "'\n";
        return 2;
    }

    std::cout << "texbench " << w->name << " seed " << o.seed
              << " (variant " << o.seed % seedVariants << ") scale "
              << o.scale << ", " << ThreadPool::defaultThreads()
              << " thread(s), simd " << simd::to_string(simd::dispatch())
              << std::endl;
    Report rep;
    if (w->sweep)
        runSweep(o, *w, rep);
    else
        runPan(o, *w, rep);
    printReport(o, rep);
    return rep.failed == 0 ? 0 : 1;
}
