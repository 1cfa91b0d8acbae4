/**
 * @file
 * Machine-designer tool: run one frame on one machine configuration
 * and print everything a designer would want — per-node utilization,
 * cache behaviour, bus saturation, FIFO high-water marks and the
 * resulting speedup — so "what if we shipped SLI-4 with 32 chips?"
 * takes one command.
 *
 * Usage:
 *   explore_distribution [options]
 *     --scene=<name>        benchmark scene (default 32massive11255)
 *     --scale=<f>           scene scale (default 0.5)
 *     --procs=<n>           processors (default 16)
 *     --dist=block|sli      distribution (default block)
 *     --param=<n>           block width / SLI lines (default 16)
 *     --cache=setassoc|perfect|infinite|none
 *     --bus=<texels/cycle>  0 means infinite (default 1)
 *     --buffer=<entries>    triangle FIFO size (default 10000)
 */

#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>

#include "core/experiments.hh"
#include "scene/benchmarks.hh"
#include "scene/stats.hh"
#include "sim/logging.hh"

using namespace texdist;

namespace
{

std::string
argValue(const std::string &arg, const std::string &key)
{
    std::string prefix = "--" + key + "=";
    if (arg.rfind(prefix, 0) == 0)
        return arg.substr(prefix.size());
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scene_name = "32massive11255";
    double scale = 0.5;
    MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.dist = DistKind::Block;
    cfg.tileParam = 16;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.busTexelsPerCycle = 1.0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string v;
        if (!(v = argValue(arg, "scene")).empty())
            scene_name = v;
        else if (!(v = argValue(arg, "scale")).empty())
            scale = std::atof(v.c_str());
        else if (!(v = argValue(arg, "procs")).empty())
            cfg.numProcs = uint32_t(std::atoi(v.c_str()));
        else if (!(v = argValue(arg, "dist")).empty())
            cfg.dist = v == "sli" ? DistKind::SLI : DistKind::Block;
        else if (!(v = argValue(arg, "param")).empty())
            cfg.tileParam = uint32_t(std::atoi(v.c_str()));
        else if (!(v = argValue(arg, "cache")).empty())
            cfg.cacheKind = cacheKindFromString(v);
        else if (!(v = argValue(arg, "bus")).empty()) {
            double bus = std::atof(v.c_str());
            cfg.infiniteBus = bus <= 0.0;
            if (!cfg.infiniteBus)
                cfg.busTexelsPerCycle = bus;
        } else if (!(v = argValue(arg, "buffer")).empty())
            cfg.triangleBufferSize = uint32_t(std::atoi(v.c_str()));
        else
            warn("ignoring unknown option: ", arg);
    }

    Scene scene = makeBenchmark(scene_name, scale);
    std::cout << "scene: " << scene.name << " " << scene.screenWidth
              << "x" << scene.screenHeight << ", "
              << scene.triangles.size() << " triangles\n";
    std::cout << "machine: " << cfg.describe() << "\n\n";

    FrameLab lab(scene);
    auto res = lab.runWithSpeedup(cfg);
    const FrameResult &r = res.frame;

    std::cout << "frame time   " << r.frameTime << " cycles (T1 "
              << res.baselineTime << ", speedup " << std::fixed
              << std::setprecision(2) << res.speedup << " of "
              << cfg.numProcs << ")\n";
    r.print(std::cout);

    std::cout << "\nper-node breakdown:\n";
    TablePrinter table(std::cout,
                       {"node", "pixels", "tris", "finish", "idle%",
                        "stall%", "miss%", "bus", "fifo"},
                       9);
    table.printHeader();
    for (size_t i = 0; i < r.nodes.size(); ++i) {
        const NodeResult &n = r.nodes[i];
        table.cell(uint64_t(i));
        table.cell(n.pixels);
        table.cell(n.triangles);
        table.cell(uint64_t(n.finishTime));
        table.cell(r.frameTime
                       ? 100.0 * double(n.idleCycles) /
                             double(r.frameTime)
                       : 0.0,
                   1);
        table.cell(n.finishTime ? 100.0 * double(n.stallCycles) /
                                      double(n.finishTime)
                                : 0.0,
                   1);
        table.cell(n.cacheAccesses ? 100.0 * double(n.cacheMisses) /
                                         double(n.cacheAccesses)
                                   : 0.0,
                   2);
        table.cell(n.busUtilization, 2);
        table.cell(uint64_t(n.fifoMaxOccupancy));
        table.endRow();
    }
    return 0;
}
