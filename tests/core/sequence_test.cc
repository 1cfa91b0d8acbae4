/** @file Tests for multi-frame sequence simulation. */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/interframe.hh"
#include "core/error.hh"
#include "core/replay.hh"
#include "core/sequence.hh"
#include "scene/benchmarks.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

Scene
wallScene(uint32_t screen = 128)
{
    SceneBuilder b("wall", screen, screen, 51);
    auto pool = b.makeTexturePool(6, 32, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    return b.take();
}

MachineConfig
l2Config(uint32_t procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.tileParam = 16;
    cfg.cacheKind = CacheKind::SetAssoc;
    cfg.hasL2 = true;
    cfg.l2Geom = CacheGeometry{1024 * 1024, 8, 64};
    cfg.busTexelsPerCycle = 1.0;
    return cfg;
}

TEST(Sequence, StatsDumpReportsSetupWaitCycles)
{
    // The --stats-file text carries one setup_wait_cycles row per
    // node, equal to that node's FrameResult value.
    Scene scene = makeBenchmark("truc640", 0.125);
    MachineConfig cfg;
    cfg.numProcs = 2;
    SequenceMachine machine(scene, cfg);
    FrameResult r = machine.runFrame(scene);
    std::ostringstream os;
    machine.dumpStats(os);
    const std::string text = os.str();

    uint64_t total = 0;
    ASSERT_EQ(r.nodes.size(), 2u);
    for (size_t i = 0; i < r.nodes.size(); ++i) {
        const std::string key =
            "node" + std::to_string(i) + ".setup_wait_cycles ";
        size_t at = text.find(key);
        ASSERT_NE(at, std::string::npos) << key << "missing:\n"
                                         << text;
        std::istringstream row(text.substr(at + key.size()));
        uint64_t value = 0;
        ASSERT_TRUE(row >> value) << key;
        EXPECT_EQ(value, r.nodes[i].setupWaitCycles) << key;
        total += value;
    }
    EXPECT_GT(total, 0u) << "the scene should wait on setup somewhere";
}

TEST(Sequence, SingleFrameTieRuleCountsBurstFirst)
{
    // The one difference between a single frame and frame 0 of a
    // sequence: with an ample FIFO the feeder pushes a node's whole
    // share at tick 0, and the node's first pop is also at tick 0.
    // Single frames count the burst's pushes first (N queued),
    // sequences count the pop first (N - 1). Timing is identical.
    Scene scene = wallScene();
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.tileParam = 16;
    cfg.busTexelsPerCycle = 1.0;

    FrameResult one = runFrame(scene, cfg);
    SequenceMachine machine(scene, cfg);
    FrameResult seq = machine.runFrame(scene);
    ASSERT_EQ(one.nodes.size(), seq.nodes.size());
    EXPECT_EQ(one.frameTime, seq.frameTime);
    EXPECT_EQ(one.totalTexelsFetched, seq.totalTexelsFetched);
    for (size_t i = 0; i < one.nodes.size(); ++i) {
        EXPECT_EQ(one.nodes[i].finishTime, seq.nodes[i].finishTime);
        EXPECT_EQ(one.nodes[i].fifoMaxOccupancy,
                  one.nodes[i].triangles);
        EXPECT_EQ(seq.nodes[i].fifoMaxOccupancy,
                  seq.nodes[i].triangles - 1);
    }
}

TEST(Sequence, FirstFrameTimeImbalanceMatchesSingleFrame)
{
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);
    std::vector<Scene> frames;
    for (int i = 0; i < 2; ++i)
        frames.push_back(translateScene(scene, float(8 * i), 0.0f));
    SequenceResult seq = runFrameSequence(frames, cfg);
    FrameResult one = runFrame(scene, cfg);
    EXPECT_GT(one.timeImbalancePercent, 0.0);
    EXPECT_EQ(seq.frames[0].timeImbalancePercent,
              one.timeImbalancePercent);
    EXPECT_GT(seq.frames[1].timeImbalancePercent, 0.0);
}

TEST(Sequence, KillNodeWithWatchdogRestoresBitExactly)
{
    // Every fault kind and the watchdog work in sequences: the plan
    // strikes each frame (killing an already dead node is a no-op)
    // and a restored machine resumes bit-exactly.
    Scene scene = wallScene();
    MachineConfig cfg = l2Config(4);
    cfg.triangleBufferSize = 4;
    cfg.faults.add("kill-node:3,at=2000;fifo-freeze:1,at=100,for=400");
    cfg.watchdogTicks = 100000;
    cfg.watchdogPolicy = WatchdogPolicy::Degrade;
    std::vector<Scene> frames;
    for (int i = 0; i < 3; ++i)
        frames.push_back(translateScene(scene, float(8 * i), 0.0f));

    SequenceMachine machine(frames[0], cfg);
    std::string image;
    std::vector<uint64_t> digests;
    for (int i = 0; i < 3; ++i) {
        if (i == 2) {
            CheckpointWriter w;
            machine.serialize(w);
            image = w.bytes();
        }
        FrameResult r = machine.runFrame(frames[size_t(i)]);
        EXPECT_FALSE(r.failed) << i;
        EXPECT_TRUE(r.degraded) << i;
        EXPECT_EQ(r.faultStats.injected, 2u) << i;
        EXPECT_EQ(r.faultStats.nodesKilled, i == 0 ? 1u : 0u) << i;
        digests.push_back(digestFrame(r));
    }
    SequenceMachine restored(frames[0], cfg);
    CheckpointReader r("sequence", image);
    restored.restore(r);
    EXPECT_TRUE(restored.node(3).isDead());
    EXPECT_EQ(digestFrame(restored.runFrame(frames[2])), digests[2]);
}

TEST(Sequence, WarmCachesMakeSecondFrameCheaper)
{
    Scene scene = wallScene();
    std::vector<Scene> frames;
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    SequenceResult seq =
        runFrameSequence(frames, l2Config(4));
    ASSERT_EQ(seq.frames.size(), 2u);
    EXPECT_EQ(seq.frames[0].totalPixels,
              seq.frames[1].totalPixels);
    // Identical second frame: the L2 eats all external traffic.
    EXPECT_EQ(seq.frames[1].totalTexelsFetched, 0u);
    EXPECT_LE(seq.frames[1].frameTime, seq.frames[0].frameTime);
}

TEST(Sequence, DeltasSumToTotals)
{
    Scene scene = wallScene();
    std::vector<Scene> frames;
    for (int i = 0; i < 3; ++i)
        frames.push_back(
            translateScene(scene, float(8 * i), 0.0f));
    MachineConfig cfg = l2Config(4);
    SequenceResult seq = runFrameSequence(frames, cfg);

    Tick sum = 0;
    for (const FrameResult &f : seq.frames)
        sum += f.frameTime;
    EXPECT_EQ(sum, seq.totalTime);
}

TEST(Sequence, PanCostsScaleWithDistanceUnderMultiprocessing)
{
    Scene scene = wallScene();
    auto frame2_traffic = [&](float pan) {
        std::vector<Scene> frames;
        frames.push_back(translateScene(scene, 0.0f, 0.0f));
        frames.push_back(translateScene(scene, pan, 0.0f));
        SequenceResult seq =
            runFrameSequence(frames, l2Config(16));
        return seq.frames[1].totalTexelsFetched;
    };
    EXPECT_LT(frame2_traffic(4.0f), frame2_traffic(48.0f));
}

TEST(Sequence, FramesSerializeInTime)
{
    Scene scene = wallScene();
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.dist = DistKind::SLI;
    cfg.tileParam = 32;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;

    SequenceMachine machine(scene, cfg);
    FrameResult f1 = machine.runFrame(scene);
    Tick after1 = machine.currentTime();
    EXPECT_EQ(after1, f1.frameTime);
    FrameResult f2 = machine.runFrame(scene);
    EXPECT_EQ(machine.currentTime(), after1 + f2.frameTime);
}

TEST(Sequence, FrameWithEveryNodeDeadFails)
{
    // The only node dies in frame 0; later frames have nothing to
    // render on and fail cleanly instead of routing forever.
    Scene scene = wallScene(64);
    MachineConfig cfg;
    cfg.numProcs = 1;
    cfg.faults.add("kill-node:0,at=0");
    SequenceMachine machine(scene, cfg);
    EXPECT_TRUE(machine.runFrame(scene).failed);
    FrameResult second = machine.runFrame(scene);
    EXPECT_TRUE(second.failed);
    EXPECT_TRUE(second.degraded);
    EXPECT_EQ(second.totalPixels, 0u);
}

TEST(SequenceDeath, MismatchedFrameFatal)
{
    Scene scene = wallScene(128);
    Scene small = wallScene(64);
    MachineConfig cfg;
    SequenceMachine machine(scene, cfg);
    EXPECT_EXIT(machine.runFrame(small),
                ::testing::ExitedWithCode(1),
                "does not match the sequence");
}

TEST(SequenceDeath, EmptySequenceFatal)
{
    MachineConfig cfg;
    std::vector<Scene> no_frames;
    EXPECT_EXIT(runFrameSequence(no_frames, cfg),
                ::testing::ExitedWithCode(1), "empty frame");
}

TEST(Sequence, L2ConfigFlowsIntoNodes)
{
    // With hasL2 the external traffic of a rerendered frame drops;
    // without it the 16KB L1 cannot hold the frame.
    Scene scene = wallScene();
    std::vector<Scene> frames;
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    frames.push_back(translateScene(scene, 0.0f, 0.0f));
    MachineConfig with = l2Config(4);
    MachineConfig without = with;
    without.hasL2 = false;
    uint64_t l2_frame2 =
        runFrameSequence(frames, with).frames[1].totalTexelsFetched;
    uint64_t l1_frame2 = runFrameSequence(frames, without)
                             .frames[1]
                             .totalTexelsFetched;
    EXPECT_LT(l2_frame2, l1_frame2 / 4);
}

TEST(SequenceRestorePoison, RunFrameAfterFailedRestorePanics)
{
    // A restore that throws must leave the machine poisoned: it may
    // hold half-restored state, so running a frame from it would
    // silently produce wrong results. runFrame must refuse loudly.
    Scene scene = wallScene();
    SequenceMachine good(scene, l2Config(4));
    good.runFrame(scene);
    CheckpointWriter w;
    good.serialize(w);

    SequenceMachine wrong(scene, l2Config(8));
    CheckpointReader r("poison-test", w.bytes());
    EXPECT_THROW(wrong.restore(r), ParseError);
    EXPECT_DEATH((void)wrong.runFrame(scene), "a failed restore");
}

TEST(SequenceRestorePoison, SuccessfulRestoreClearsNothingByMistake)
{
    // The poison flag must not leak into the success path: a clean
    // restore runs frames normally.
    Scene scene = wallScene();
    SequenceMachine good(scene, l2Config(4));
    uint64_t reference = good.runFrame(scene).totalPixels;
    CheckpointWriter w;
    good.serialize(w);

    SequenceMachine back(scene, l2Config(4));
    CheckpointReader r("clean-restore", w.bytes());
    back.restore(r);
    EXPECT_EQ(back.runFrame(scene).totalPixels, reference);
}

} // namespace
} // namespace texdist
