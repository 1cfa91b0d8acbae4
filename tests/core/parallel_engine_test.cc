/**
 * @file
 * Determinism suite for the two-phase parallel frame engine: the
 * host job count must never change a single result bit. Digests
 * cover every per-frame statistic (see digestFrame), so equality
 * here is equality of results, CSV rows and manifests.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <vector>

#include "core/interframe.hh"
#include "core/machine.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "scene/builder.hh"
#include "sim/checkpoint.hh"

namespace texdist
{
namespace
{

Scene
wallScene(uint32_t screen = 128)
{
    SceneBuilder b("wall", screen, screen, 97);
    auto pool = b.makeTexturePool(6, 32, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    return b.take();
}

MachineConfig
blockConfig(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.dist = DistKind::Block;
    cfg.tileParam = 16;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.busTexelsPerCycle = 1.0;
    return cfg;
}

MachineConfig
sliConfig(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.dist = DistKind::SLI;
    cfg.tileParam = 4;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.hasL2 = true;
    cfg.l2Geom = CacheGeometry{1024 * 1024, 8, 64};
    cfg.busTexelsPerCycle = 1.0;
    return cfg;
}

/** Run @p frames panning frames and return the per-frame digests. */
std::vector<uint64_t>
runDigests(const Scene &scene, const MachineConfig &cfg,
           uint32_t frames, uint32_t jobs)
{
    SequenceMachine machine(scene, cfg, jobs);
    std::vector<uint64_t> digests;
    for (uint32_t f = 0; f < frames; ++f) {
        Scene frame = translateScene(scene, float(4 * f), 0.0f);
        digests.push_back(digestFrame(machine.runFrame(frame)));
    }
    return digests;
}

void
expectJobsInvariant(const Scene &scene, const MachineConfig &cfg,
                    uint32_t frames)
{
    std::vector<uint64_t> serial =
        runDigests(scene, cfg, frames, 1);
    for (uint32_t jobs : {4u, 8u}) {
        std::vector<uint64_t> threaded =
            runDigests(scene, cfg, frames, jobs);
        ASSERT_EQ(threaded.size(), serial.size());
        for (size_t f = 0; f < serial.size(); ++f)
            EXPECT_EQ(threaded[f], serial[f])
                << "jobs=" << jobs << " diverged at frame " << f;
    }
}

TEST(ParallelEngine, JobsInvariantOnBlockDistribution)
{
    expectJobsInvariant(wallScene(), blockConfig(8), 3);
}

TEST(ParallelEngine, JobsInvariantOnSliWithL2)
{
    expectJobsInvariant(wallScene(), sliConfig(8), 3);
}

TEST(ParallelEngine, JobsInvariantUnderFifoBackPressure)
{
    // A 4-entry triangle buffer forces the feeder to block on full
    // FIFOs, exercising the engine's lazy feeder-node coupling.
    MachineConfig cfg = blockConfig(4);
    cfg.triangleBufferSize = 4;
    expectJobsInvariant(wallScene(), cfg, 2);
}

TEST(ParallelEngine, JobsInvariantWithGeometryStageAndRate)
{
    // Finite dispatch rate plus modelled geometry engines: the
    // credit and arrival arithmetic runs in the serial phase and
    // must not see the job count either.
    MachineConfig cfg = blockConfig(4);
    cfg.triangleBufferSize = 8;
    cfg.geometryTrianglesPerCycle = 0.02;
    cfg.geometryProcs = 2;
    cfg.geometryCyclesPerTriangle = 120;
    expectJobsInvariant(wallScene(), cfg, 2);
}

TEST(ParallelEngine, JobsInvariantUnderFaultInjection)
{
    MachineConfig cfg = sliConfig(8);
    cfg.faults.add("slow-node:rand,at=2000,for=4000,x=6");
    cfg.faults.add("bus-stall:2,at=1000,for=2000");
    cfg.faults.seed = 7;
    expectJobsInvariant(wallScene(), cfg, 3);
}

TEST(ParallelEngine, JobsInvariantUnderCouplingFaults)
{
    // Freeze, kill and the watchdog act in the serial phase but
    // advance lanes on the feeder's behalf; the job count must not
    // show. Single frames use their own tie rule, so check both.
    MachineConfig cfg = blockConfig(8);
    cfg.triangleBufferSize = 4;
    cfg.faults.add("fifo-freeze:2,at=300;kill-node:rand,at=1500");
    cfg.faults.seed = 3;
    cfg.watchdogTicks = 200;
    cfg.watchdogPolicy = WatchdogPolicy::Degrade;
    expectJobsInvariant(wallScene(), cfg, 3);

    Scene scene = wallScene();
    auto single = [&](uint32_t jobs) {
        SequenceMachine machine(scene, cfg, jobs,
                                FrameEntry::SingleFrame);
        return digestFrame(machine.runFrame(scene));
    };
    EXPECT_EQ(single(4), single(1));
    EXPECT_EQ(single(8), single(1));
}

TEST(ParallelEngine, CheckpointBytesAreJobsInvariant)
{
    Scene scene = wallScene();
    MachineConfig cfg = sliConfig(8);

    auto checkpoint_bytes = [&](uint32_t jobs) {
        SequenceMachine machine(scene, cfg, jobs);
        for (uint32_t f = 0; f < 2; ++f) {
            Scene frame = translateScene(scene, float(4 * f), 0.0f);
            machine.runFrame(frame);
        }
        CheckpointWriter w;
        machine.serialize(w);
        std::string path = ::testing::TempDir() +
                           "/jobs" + std::to_string(jobs) + ".ckpt";
        w.writeFile(path);
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };

    std::string serial = checkpoint_bytes(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(checkpoint_bytes(4), serial);
    EXPECT_EQ(checkpoint_bytes(8), serial);
}

TEST(ParallelEngine, RestoreThenThreadedMatchesSerialRun)
{
    // A checkpoint written by a serial run must resume bit-exactly
    // on a threaded machine (and vice versa): the job count is a
    // host parameter, not machine state.
    Scene scene = wallScene();
    MachineConfig cfg = blockConfig(8);
    constexpr uint32_t total_frames = 4;

    std::vector<uint64_t> reference =
        runDigests(scene, cfg, total_frames, 1);

    std::string path =
        ::testing::TempDir() + "/restore_threaded.ckpt";
    {
        SequenceMachine machine(scene, cfg, 1);
        for (uint32_t f = 0; f < 2; ++f) {
            Scene frame = translateScene(scene, float(4 * f), 0.0f);
            machine.runFrame(frame);
        }
        CheckpointWriter w;
        machine.serialize(w);
        w.writeFile(path);
    }
    {
        SequenceMachine machine(scene, cfg, 8);
        CheckpointReader r(path);
        machine.restore(r);
        EXPECT_EQ(machine.framesRun(), 2u);
        for (uint32_t f = 2; f < total_frames; ++f) {
            Scene frame = translateScene(scene, float(4 * f), 0.0f);
            EXPECT_EQ(digestFrame(machine.runFrame(frame)),
                      reference[f])
                << "threaded resume diverged at frame " << f;
        }
    }
}

} // namespace
} // namespace texdist
