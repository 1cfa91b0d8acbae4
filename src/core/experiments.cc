#include "core/experiments.hh"

#include "core/error.hh"
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "core/options.hh"
#include "raster/raster.hh"

namespace texdist
{

std::vector<uint64_t>
pixelWorkPerProc(const Scene &scene, const Distribution &dist)
{
    std::vector<uint64_t> work(dist.numProcs(), 0);
    const std::vector<uint16_t> &owners = dist.ownerMap();
    uint32_t screen_w = dist.screenWidth();
    Rect screen = scene.screenRect();

    for (const TexTriangle &tri : scene.triangles) {
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster raster(tri, tex.width(), tex.height());
        // Only ownership counts here: walk coverage, interpolate
        // nothing.
        raster.cover(screen, [&](int32_t x, int32_t y) {
            ++work[owners[size_t(y) * screen_w + size_t(x)]];
        });
    }
    return work;
}

namespace
{

double
speedupOver(Tick baseline, Tick frame_time)
{
    return frame_time ? double(baseline) / double(frame_time) : 0.0;
}

} // namespace

const SceneRaster &
FrameLab::sharedRaster(ThreadPool *pool)
{
    if (!raster) {
        if (pool) {
            raster = std::make_unique<SceneRaster>(scene, *pool);
        } else {
            ThreadPool serial(1);
            raster = std::make_unique<SceneRaster>(scene, serial);
        }
    }
    return *raster;
}

FrameResult
FrameLab::run(const MachineConfig &config)
{
    return runFrame(scene, config, &sharedRaster(nullptr));
}

MachineConfig
FrameLab::baselineConfig(const MachineConfig &config) const
{
    MachineConfig base = config;
    base.numProcs = 1;
    base.dist = DistKind::Block;
    // One processor owns the whole screen whatever the tile size;
    // use one screen-sized tile so triangle binning is trivial.
    base.tileParam =
        std::max(scene.screenWidth, scene.screenHeight);
    base.interleave = InterleaveOrder::Raster;
    // Speedups are measured against a single-processor machine with
    // an ideal buffer (buffer size cannot starve a lone node anyway)
    // and no injected faults: T(1) is the fault-free ideal the
    // degraded machine is compared against.
    base.triangleBufferSize = 10000;
    base.faults = FaultPlan{};
    base.watchdogTicks = 0;
    return base;
}

Tick
FrameLab::baseline(const MachineConfig &config)
{
    const MachineConfig base = baselineConfig(config);
    std::string key = base.describe();
    auto it = baselines.find(key);
    if (it != baselines.end())
        return it->second;

    Tick t1 = run(base).frameTime;
    baselines.emplace(key, t1);
    return t1;
}

FrameLab::SpeedupResult
FrameLab::runWithSpeedup(const MachineConfig &config)
{
    SpeedupResult out;
    out.baselineTime = baseline(config);
    out.frame = run(config);
    out.speedup = speedupOver(out.baselineTime, out.frame.frameTime);
    return out;
}

std::vector<FrameLab::SpeedupResult>
FrameLab::runBatch(const std::vector<MachineConfig> &configs,
                   ThreadPool &pool)
{
    // Baselines not cached yet join the batch as its first tasks (a
    // T(1) is its longest run, so it should start first); distinct
    // configs usually share one.
    std::vector<MachineConfig> runs;
    std::vector<std::string> keys;
    for (const MachineConfig &config : configs) {
        MachineConfig base = baselineConfig(config);
        std::string key = base.describe();
        if (!baselines.count(key) &&
            std::find(keys.begin(), keys.end(), key) == keys.end()) {
            runs.push_back(base);
            keys.push_back(key);
        }
    }
    const size_t missing = runs.size();
    runs.insert(runs.end(), configs.begin(), configs.end());

    const SceneRaster &shared = sharedRaster(&pool);
    std::vector<FrameResult> frames(runs.size());
    // texlint: phase(isolated) each task runs a private SequenceMachine
    // universe over the read-only shared raster; nothing crosses
    // tasks but the per-run result slot
    pool.parallelFor(runs.size(), [&](uint32_t, size_t i) {
        frames[i] = runFrame(scene, runs[i], &shared);
    });
    for (size_t j = 0; j < missing; ++j)
        baselines.emplace(keys[j], frames[j].frameTime);

    std::vector<SpeedupResult> out(configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        out[i].baselineTime = baseline(configs[i]);
        out[i].frame = std::move(frames[missing + i]);
        out[i].speedup =
            speedupOver(out[i].baselineTime, out[i].frame.frameTime);
    }
    return out;
}

std::vector<FrameResult>
FrameLab::runMany(const std::vector<MachineConfig> &configs,
                  ThreadPool &pool)
{
    const SceneRaster &shared = sharedRaster(&pool);
    std::vector<FrameResult> out(configs.size());
    // texlint: phase(isolated) each task runs a private SequenceMachine
    // universe over the read-only shared raster; nothing crosses
    // tasks but the per-config result slot
    pool.parallelFor(configs.size(), [&](uint32_t, size_t i) {
        out[i] = runFrame(scene, configs[i], &shared);
    });
    return out;
}

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    // texlint: allow(banned-call) host-side bench scale override, read
    // once at startup before any simulation state exists
    if (const char *env = std::getenv("TEXDIST_SCALE"))
        opts.scale = std::atof(env);

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--full") {
            opts.scale = 1.0;
        } else if (arg == "--quick") {
            opts.scale = 0.25;
        } else if (arg.rfind("--scale=", 0) == 0) {
            opts.scale = std::atof(arg.c_str() + 8);
        } else if (arg.rfind("--csv=", 0) == 0) {
            opts.csvDir = arg.substr(6);
        } else if (arg.rfind("--threads=", 0) == 0) {
            opts.threads = parseHostThreads(arg.substr(10),
                                            "threads");
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "options: --scale=<f> | --full | --quick | "
                         "--csv=<dir> | --threads=<n> "
                         "(or env TEXDIST_SCALE)\n";
            std::exit(0);
        } else {
            throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                             "unknown option '" + arg + "'")
                .field(arg);
        }
    }
    if (opts.scale <= 0.0 || opts.scale > 4.0)
        throw ParseError(ParseSurface::Cli, ParseRule::Range,
                         "scene scale out of range: " +
                             std::to_string(opts.scale))
            .field("--scale");
    return opts;
}

TablePrinter::TablePrinter(std::ostream &os_,
                           std::vector<std::string> headers_,
                           int width_)
    : os(os_), headers(std::move(headers_)), width(width_)
{
}

void
TablePrinter::printHeader()
{
    for (size_t i = 0; i < headers.size(); ++i)
        os << std::setw(i == 0 ? width + 6 : width) << headers[i];
    os << "\n";
    os << std::string((headers.size() - 1) * size_t(width) +
                          size_t(width) + 6,
                      '-')
       << "\n";
}

void
TablePrinter::cell(const std::string &value)
{
    os << std::setw(column == 0 ? width + 6 : width) << value;
    ++column;
}

void
TablePrinter::cell(double value, int precision)
{
    std::ostringstream tmp;
    tmp << std::fixed << std::setprecision(precision) << value;
    cell(tmp.str());
}

void
TablePrinter::cell(uint64_t value)
{
    cell(std::to_string(value));
}

void
TablePrinter::endRow()
{
    os << "\n";
    column = 0;
}

} // namespace texdist
