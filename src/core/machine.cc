#include "core/machine.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/sequence.hh"

namespace texdist
{

double
imbalancePercent(const std::vector<uint64_t> &values)
{
    if (values.empty())
        return 0.0;
    uint64_t max = 0;
    uint64_t sum = 0;
    for (uint64_t v : values) {
        max = std::max(max, v);
        sum += v;
    }
    double mean = double(sum) / double(values.size());
    return mean > 0.0 ? (double(max) - mean) / mean * 100.0 : 0.0;
}

// texlint: phase(serial) builds and runs a whole machine; must only
// be called from serial code (or an isolated task that owns its
// private universe)
FrameResult
runFrame(const Scene &scene, const MachineConfig &config,
         const SceneRaster *raster)
{
    SequenceMachine machine(scene, config, 1, FrameEntry::SingleFrame,
                            nullptr, raster);
    return machine.runFrame(scene);
}

void
FrameResult::print(std::ostream &os) const
{
    os << "frame time:        " << frameTime << " cycles\n"
       << "fragments drawn:   " << totalPixels << "\n"
       << "triangles:         " << trianglesDispatched << "\n"
       << "texels fetched:    " << totalTexelsFetched << "\n"
       << std::fixed << std::setprecision(3)
       << "texel/fragment:    " << texelToFragmentRatio << "\n"
       << std::setprecision(1)
       << "pixel imbalance:   " << pixelImbalancePercent << " %\n"
       << "time imbalance:    " << timeImbalancePercent << " %\n"
       << std::setprecision(2)
       << "mean bus util:     " << meanBusUtilization << "\n"
       << "fifo high water:   " << fifoMaxOccupancy << "\n";
    if (degraded || failed || faultStats.injected > 0) {
        os << "faults injected:   " << faultStats.injected << "\n"
           << "degraded:          " << (degraded ? "yes" : "no")
           << " (" << faultStats.nodesKilled << " nodes killed, "
           << faultStats.trianglesRedistributed
           << " triangles redistributed, "
           << faultStats.fragmentsRerouted
           << " fragments rerouted)\n";
        if (faultStats.detectionTick > 0)
            os << "watchdog detect:   tick "
               << faultStats.detectionTick << " ("
               << faultStats.watchdogChecks << " checks)\n";
        if (failed)
            os << "FRAME FAILED:      " << failureReason << "\n";
    }
}

const char *
to_string(WatchdogPolicy policy)
{
    switch (policy) {
      case WatchdogPolicy::FailFrame:
        return "fail";
      case WatchdogPolicy::Degrade:
        return "degrade";
    }
    return "?";
}

std::string
MachineConfig::describe() const
{
    std::ostringstream os;
    os << "procs=" << numProcs << " dist=" << to_string(dist) << "/"
       << tileParam << " interleave=" << to_string(interleave)
       << " cache=" << to_string(cacheKind);
    if (cacheKind == CacheKind::SetAssoc)
        os << "(" << cacheGeom.sizeBytes / 1024 << "KB,"
           << cacheGeom.ways << "w," << cacheGeom.lineBytes << "B)";
    if (hasL2) {
        os << "+L2(" << l2Geom.sizeBytes / 1024 << "KB)";
        // Appended only when enabled so every pre-existing config
        // keeps its exact describe() string (and thus its store and
        // checkpoint identity).
        if (l2Inclusive)
            os << "incl";
    }
    if (infiniteBus)
        os << " bus=inf";
    else
        os << " bus=" << busTexelsPerCycle;
    os << " buffer=" << triangleBufferSize << " setup="
       << setupCyclesPerTriangle << " prefetch=" << prefetchQueueDepth;
    if (geometryTrianglesPerCycle > 0)
        os << " geom=" << geometryTrianglesPerCycle;
    if (geometryProcs > 0)
        os << " geomprocs=" << geometryProcs << "x"
           << geometryCyclesPerTriangle;
    if (!faults.empty())
        os << " faults=[" << faults.describe() << "]seed="
           << faults.seed;
    if (watchdogTicks > 0)
        os << " watchdog=" << watchdogTicks << "/"
           << to_string(watchdogPolicy);
    return os.str();
}

} // namespace texdist
