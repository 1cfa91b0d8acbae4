#include "core/sortlast.hh"

#include <algorithm>
#include <cmath>

#include "core/sequence.hh"

namespace texdist
{

const char *
to_string(SortLastAssign assign)
{
    return assign == SortLastAssign::RoundRobin ? "round-robin"
                                                : "chunked";
}

namespace
{

/** A sort-last frame's render time plus its composition cost. */
SortLastResult
sortLastResult(const FrameResult &frame, const Scene &scene,
               const SortLastConfig &config)
{
    SortLastResult out;
    out.renderTime = frame.frameTime;
    out.nodes = frame.nodes;
    out.totalPixels = frame.totalPixels;
    out.totalTexelsFetched = frame.totalTexelsFetched;
    out.texelToFragmentRatio = frame.texelToFragmentRatio;
    out.pixelImbalancePercent = frame.pixelImbalancePercent;

    // Pipelined binary-tree composition after the last node.
    const uint32_t procs = config.node.numProcs;
    if (config.compositePixelsPerCycle > 0.0 && procs > 1) {
        double stages = std::ceil(std::log2(double(procs)));
        out.compositionCycles = Tick(
            std::ceil(stages * double(scene.screenArea()) /
                      config.compositePixelsPerCycle));
    }
    out.frameTime = out.renderTime + out.compositionCycles;
    return out;
}

} // namespace

// texlint: phase(serial) builds and runs a whole machine
SortLastResult
runSortLastFrame(const Scene &scene, const SortLastConfig &config)
{
    SequenceMachine machine(scene, config);
    return sortLastResult(machine.runFrame(scene), scene, config);
}

} // namespace texdist
