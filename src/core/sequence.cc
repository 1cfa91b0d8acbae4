#include "core/sequence.hh"

#include <algorithm>

#include "core/error.hh"
#include "sim/logging.hh"

namespace texdist
{

SequenceMachine::SequenceMachine(
    const Scene &first_frame, const MachineConfig &config,
    uint32_t host_jobs, FrameEntry entry,
    std::unique_ptr<Distribution> distribution,
    const SceneRaster *raster)
    : SequenceMachine(first_frame, config, host_jobs, entry,
                      std::move(distribution), nullptr, raster)
{
}

SequenceMachine::SequenceMachine(
    const Scene &first_frame, const MachineConfig &config,
    uint32_t host_jobs, FrameEntry entry,
    std::unique_ptr<Distribution> distribution,
    const SortLastConfig *sort_last, const SceneRaster *raster)
    : cfg(config), sortLast(sort_last ? *sort_last : SortLastConfig{}),
      dist(std::move(distribution)), faultRng(config.faults.seed)
{
    if (!dist)
        dist = Distribution::make(cfg.dist, first_frame.screenWidth,
                                  first_frame.screenHeight,
                                  cfg.numProcs, cfg.tileParam,
                                  cfg.interleave);
    if (dist->numProcs() != cfg.numProcs ||
        dist->screenWidth() != first_frame.screenWidth ||
        dist->screenHeight() != first_frame.screenHeight)
        texdist_fatal("distribution does not match scene/config: ",
                      dist->describe());
    for (uint32_t i = 0; i < cfg.numProcs; ++i)
        nodes.push_back(std::make_unique<TextureNode>(
            i, cfg, first_frame.textures));
    snapshots.resize(cfg.numProcs);
    engine = std::make_unique<TwoPhaseFrameEngine>(
        cfg, *dist, nodes, host_jobs, entry,
        sort_last ? &sortLast : nullptr, raster);
}

namespace
{

const SortLastConfig &
validSortLast(const SortLastConfig &config)
{
    if (config.node.numProcs == 0)
        texdist_fatal("sort-last machine needs at least one node");
    if (config.assign == SortLastAssign::Chunked &&
        config.chunkSize == 0)
        texdist_fatal("chunk size must be positive");
    return config;
}

} // namespace

SequenceMachine::SequenceMachine(const Scene &first_frame,
                                 const SortLastConfig &config,
                                 uint32_t host_jobs)
    : SequenceMachine(first_frame, validSortLast(config).node,
                      host_jobs, FrameEntry::SingleFrame, nullptr,
                      &config, nullptr)
{
}

std::vector<EngineFaultAction>
SequenceMachine::armFaults(Tick frame_start)
{
    using Kind = EngineFaultAction::Kind;
    std::vector<EngineFaultAction> actions;
    maxActionTick = 0;
    auto add = [&](EngineFaultAction action) {
        actions.push_back(action);
        maxActionTick = std::max(maxActionTick, action.at);
    };
    for (const FaultSpec &fault :
         cfg.faults.resolve(cfg.numProcs, faultRng)) {
        Tick at = frame_start + fault.at;
        Tick end = fault.duration > 0 ? at + fault.duration : maxTick;

        EngineFaultAction strike;
        strike.at = at;
        strike.victim = fault.victim;
        EngineFaultAction recover = strike;
        recover.at = end;
        recover.strike = false;
        switch (fault.kind) {
          case FaultKind::SlowNode:
            strike.kind = recover.kind = Kind::Slowdown;
            strike.factor = fault.factor;
            add(strike);
            if (fault.duration > 0)
                add(recover);
            break;
          case FaultKind::BusStall:
            strike.kind = Kind::BusStall;
            strike.stallFrom = at;
            strike.stallUntil = end;
            add(strike);
            break;
          case FaultKind::FifoFreeze:
            strike.kind = Kind::Freeze;
            recover.kind = Kind::Thaw;
            add(strike);
            if (fault.duration > 0)
                add(recover);
            break;
          case FaultKind::KillNode:
            strike.kind = Kind::Kill;
            add(strike);
            break;
        }
    }
    return actions;
}

void
SequenceMachine::checkFrame(const Scene &scene) const
{
    if (restoreFailed)
        texdist_panic("SequenceMachine frame after a failed "
                      "restore; the machine holds partial state");
    if (scene.screenWidth != dist->screenWidth() ||
        scene.screenHeight != dist->screenHeight())
        texdist_fatal("frame ", scene.name,
                      " does not match the sequence screen size");
}

FrameResult
SequenceMachine::assembleResult(Tick frame_end,
                                const FrameEngineResult &eng)
{
    FrameResult out;
    out.frameTime = frame_end - frameStart;
    out.trianglesDispatched = eng.trianglesDispatched;

    std::vector<uint64_t> pixel_counts;
    std::vector<uint64_t> finish_times;
    double bus_util_sum = 0.0;
    for (uint32_t i = 0; i < cfg.numProcs; ++i) {
        const TextureNode &node = *nodes[i];
        NodeSnapshot &snap = snapshots[i];
        NodeResult nr;
        nr.pixels = node.pixelsDrawn() - snap.pixels;
        nr.triangles = node.trianglesReceived() - snap.triangles;
        nr.finishTime = node.finishTime();
        nr.cacheAccesses = node.cache().accesses() - snap.accesses;
        nr.cacheMisses = node.cache().misses() - snap.misses;
        nr.texelsFetched =
            node.cache().texelsFetched() - snap.texelsFetched;
        nr.stallCycles = node.stallCycles() - snap.stallCycles;
        nr.idleCycles = node.idleCycles() - snap.idleCycles;
        nr.setupBoundTriangles =
            node.setupBoundTriangles() - snap.setupBound;
        nr.setupWaitCycles =
            node.setupWaitCycles() - snap.setupWait;
        nr.fifoMaxOccupancy = node.fifoMaxOccupancy();
        if (node.bus() && out.frameTime > 0) {
            // Utilization over the whole run so far is the best the
            // bus model exposes; report it against total time.
            nr.busUtilization = node.bus()->utilization(frame_end);
        }

        snap.pixels = node.pixelsDrawn();
        snap.triangles = node.trianglesReceived();
        snap.accesses = node.cache().accesses();
        snap.misses = node.cache().misses();
        snap.texelsFetched = node.cache().texelsFetched();
        snap.stallCycles = node.stallCycles();
        snap.idleCycles = node.idleCycles();
        snap.setupBound = node.setupBoundTriangles();
        snap.setupWait = node.setupWaitCycles();

        out.totalPixels += nr.pixels;
        out.totalTexelsFetched += nr.texelsFetched;
        out.fifoMaxOccupancy =
            std::max(out.fifoMaxOccupancy, nr.fifoMaxOccupancy);
        bus_util_sum += nr.busUtilization;
        pixel_counts.push_back(nr.pixels);
        // Finish times relative to the frame start; a node idle all
        // frame finished at the start.
        finish_times.push_back(nr.finishTime > frameStart
                                   ? nr.finishTime - frameStart
                                   : 0);
        out.nodes.push_back(nr);
    }

    out.texelToFragmentRatio =
        out.totalPixels ? double(out.totalTexelsFetched) /
                              double(out.totalPixels)
                        : 0.0;
    out.pixelImbalancePercent = imbalancePercent(pixel_counts);
    out.timeImbalancePercent = imbalancePercent(finish_times);
    out.meanBusUtilization = bus_util_sum / double(nodes.size());
    out.degraded = eng.degraded;
    out.failed = eng.failed;
    out.failureReason = eng.failureReason;
    out.diagnostic = eng.diagnostic;
    out.faultStats = eng.faultStats;

    feederTotals.trianglesDispatched += eng.trianglesDispatched;
    feederTotals.degenerateTriangles += eng.degenerateTriangles;
    feederTotals.culledTriangles += eng.culledTriangles;
    feederTotals.feederBlockedCycles += eng.feederBlockedCycles;
    feederTotals.faultStats.fragmentsRerouted +=
        eng.faultStats.fragmentsRerouted;
    return out;
}

void
SequenceMachine::dumpStats(std::ostream &os) const
{
    const FrameEngineResult &f = feederTotals;
    const Histogram occupancy = engine->dispatchOccupancy();
    StatGroup feeder("feeder");
    feeder.addStat("dispatched", "triangles dispatched",
                   f.trianglesDispatched);
    feeder.addStat("rerouted_frags", "fragments rerouted off dead nodes",
                   f.faultStats.fragmentsRerouted);
    feeder.addStat("degenerate", "zero-area triangles skipped",
                   f.degenerateTriangles);
    feeder.addStat("culled", "off-screen triangles skipped",
                   f.culledTriangles);
    feeder.addStat("blocked_cycles", "cycles blocked on full FIFOs",
                   f.feederBlockedCycles);
    feeder.addStat("fifo_occupancy",
                   "destination FIFO occupancy at dispatch", occupancy);
    feeder.dump(os);
    for (const auto &node : nodes)
        node->dumpStats(os);
}

// texlint: phase(serial) top-level per-frame driver; spawns the
// engine's parallel phases but never runs inside one
FrameResult
SequenceMachine::runFrame(const Scene &scene)
{
    checkFrame(scene);

    std::vector<EngineFaultAction> actions = armFaults(frameStart);
    FrameEngineResult eng =
        engine->runFrame(scene, frameStart, actions);

    Tick frame_end = std::max(frameStart, eng.frameEnd);
    FrameResult out = assembleResult(frame_end, eng);

    // A fault recovery action may land after the last node retires;
    // the next frame must still start at or after it.
    frameStart = std::max(frame_end, maxActionTick);
    ++_framesRun;
    return out;
}

// texlint: phase(serial) sampled-mode per-frame driver, serial-only
FrameResult
SequenceMachine::runFrameFunctional(const Scene &scene)
{
    checkFrame(scene);
    if (!cfg.faults.faults.empty())
        texdist_fatal("fault plans are not supported in sampled "
                      "(functional) frames");

    // From here on the machine's timing state no longer corresponds
    // to any exact detailed run; refuse to checkpoint it.
    _sampleTainted = true;

    FrameEngineResult eng = engine->runFrameFunctional(scene);

    // frame_end == frameStart: no simulated time passes, so the
    // result's frameTime is 0 and the clock does not advance. The
    // work and cache deltas are exact (the caches saw the detailed
    // reference order).
    FrameResult out = assembleResult(frameStart, eng);
    out.estimated = true;
    ++_framesRun;
    return out;
}

void
SequenceMachine::requireExactState() const
{
    if (_sampleTainted)
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cannot checkpoint a sampled run: "
                         "functional fast-forward frames leave the "
                         "machine with no exact timing state to "
                         "resume from")
            .field("sequence");
}

void
SequenceMachine::serialize(CheckpointWriter &w) const
{
    requireExactState();

    w.section("sequence");
    w.str(cfg.describe());
    w.u64(frameStart);
    w.u32(_framesRun);
    RngState rng = faultRng.state();
    for (uint64_t word : rng.s)
        w.u64(word);
    w.u8(rng.haveSpareNormal ? 1 : 0);
    w.f64(rng.spareNormal);

    w.section("snapshots");
    w.u64(snapshots.size());
    for (const NodeSnapshot &snap : snapshots) {
        w.u64(snap.pixels);
        w.u64(snap.triangles);
        w.u64(snap.accesses);
        w.u64(snap.misses);
        w.u64(snap.texelsFetched);
        w.u64(snap.stallCycles);
        w.u64(snap.idleCycles);
        w.u64(snap.setupBound);
        w.u64(snap.setupWait);
    }

    for (const auto &node : nodes)
        node->serialize(w);
}

void
SequenceMachine::restore(CheckpointReader &r)
{
    if (_framesRun > 0 || restored)
        texdist_panic("SequenceMachine::restore after frames ran");
    restored = true;

    // A restore that throws partway has already overwritten some of
    // the machine's state; poison the machine so a driver that
    // swallows the error cannot run frames from the half-restored
    // wreck. The flag clears only when the full restore succeeds.
    restoreFailed = true;

    r.section("sequence");
    std::string config = r.str();
    if (config != cfg.describe())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "configuration mismatch:\n  checkpoint: " +
                             config + "\n  machine:    " +
                             cfg.describe())
            .in(r.path())
            .field("sequence");
    frameStart = r.u64();
    _framesRun = r.u32();
    RngState rng;
    for (auto &word : rng.s)
        word = r.u64();
    rng.haveSpareNormal = r.u8() != 0;
    rng.spareNormal = r.f64();
    faultRng.setState(rng);

    r.section("snapshots");
    uint64_t count = r.u64();
    if (count != snapshots.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "processor count mismatch: file has " +
                             std::to_string(count) +
                             ", machine has " +
                             std::to_string(snapshots.size()))
            .in(r.path())
            .field("snapshots");
    for (NodeSnapshot &snap : snapshots) {
        snap.pixels = r.u64();
        snap.triangles = r.u64();
        snap.accesses = r.u64();
        snap.misses = r.u64();
        snap.texelsFetched = r.u64();
        snap.stallCycles = r.u64();
        snap.idleCycles = r.u64();
        snap.setupBound = r.u64();
        snap.setupWait = r.u64();
    }

    for (auto &node : nodes)
        node->unserialize(r);

    restoreFailed = false;
}

SequenceResult
runFrameSequence(const std::vector<Scene> &frames,
                 const MachineConfig &config, uint32_t jobs)
{
    if (frames.empty())
        texdist_fatal("empty frame sequence");
    SequenceMachine machine(frames.front(), config, jobs);
    SequenceResult out;
    for (const Scene &frame : frames)
        out.frames.push_back(machine.runFrame(frame));
    out.totalTime = machine.currentTime();
    return out;
}

} // namespace texdist
