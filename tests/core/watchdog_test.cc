/**
 * @file
 * The machine's no-progress watchdog: every `watchdogTicks` cycles
 * the frame engine checks that the feeder dispatched or a node
 * started a triangle since the last check, while work remains; a
 * node still burning committed cycles counts as healthy.
 */

#include <gtest/gtest.h>

#include "core/machine.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

/** A full-screen quad split over 4 block-16 nodes with tiny FIFOs. */
Scene
fullQuad()
{
    SceneBuilder b("quad", 64, 64, 77);
    TextureId tex = b.makeTexture(64, 64);
    b.addQuad(0, 0, 64, 64, tex, 1.0);
    b.addQuad(0, 0, 64, 64, tex, 1.0);
    return b.take();
}

MachineConfig
watchedConfig(Tick interval, WatchdogPolicy policy)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.tileParam = 16;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    cfg.triangleBufferSize = 1;
    cfg.watchdogTicks = interval;
    cfg.watchdogPolicy = policy;
    return cfg;
}

TEST(Watchdog, HealthyRunNeverFires)
{
    MachineConfig cfg = watchedConfig(50, WatchdogPolicy::FailFrame);
    FrameResult r = runFrame(fullQuad(), cfg);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.faultStats.detectionTick, 0u);
    EXPECT_GT(r.faultStats.watchdogChecks, 0u);
}

TEST(Watchdog, LivelockDetectedAtDeterministicTick)
{
    // A rate-limited feeder keeps polling a permanently frozen FIFO:
    // busy, but nothing retires. Detection lands on a check tick and
    // repeats exactly.
    MachineConfig cfg = watchedConfig(64, WatchdogPolicy::FailFrame);
    cfg.geometryTrianglesPerCycle = 0.5;
    cfg.faults.add("fifo-freeze:2,at=0");
    FrameResult first = runFrame(fullQuad(), cfg);
    EXPECT_TRUE(first.failed);
    EXPECT_GT(first.faultStats.detectionTick, 0u);
    EXPECT_EQ(first.faultStats.detectionTick % 64, 0u);
    EXPECT_EQ(runFrame(fullQuad(), cfg).faultStats.detectionTick,
              first.faultStats.detectionTick);
}

TEST(Watchdog, DeadlockBecomesDiagnosedStall)
{
    // The in-order feeder waits forever on a frozen FIFO; the check
    // turns the deadlock into a failed frame with a state dump.
    MachineConfig cfg = watchedConfig(100, WatchdogPolicy::FailFrame);
    cfg.faults.add("fifo-freeze:1,at=0");
    FrameResult r = runFrame(fullQuad(), cfg);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failureReason.find("no progress for 100 ticks"),
              std::string::npos);
    EXPECT_NE(r.diagnostic.find("machine state at tick"),
              std::string::npos);
    EXPECT_NE(r.diagnostic.find("blocked_on=1"), std::string::npos);
}

TEST(Watchdog, RecoveryKeepsMonitoring)
{
    // Degrading around the first wedged node does not stop the
    // watchdog: the second frozen node is found and killed too.
    MachineConfig cfg = watchedConfig(100, WatchdogPolicy::Degrade);
    cfg.faults.add("fifo-freeze:1,at=0;fifo-freeze:2,at=0");
    FrameResult r = runFrame(fullQuad(), cfg);
    EXPECT_FALSE(r.failed);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.faultStats.nodesKilled, 2u);
    EXPECT_EQ(r.totalPixels, 2u * 64u * 64u);
}

TEST(Watchdog, StopsWhenWorkDone)
{
    // The frame's work is done long before the first check, so the
    // watchdog never checks at all.
    MachineConfig cfg = watchedConfig(1000000, WatchdogPolicy::FailFrame);
    FrameResult r = runFrame(fullQuad(), cfg);
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.faultStats.watchdogChecks, 0u);
}

TEST(Watchdog, CancelRemovesPendingCheck)
{
    // A failed frame cancels the watchdog with everything else: the
    // detecting check is the last one.
    MachineConfig cfg = watchedConfig(100, WatchdogPolicy::FailFrame);
    cfg.faults.add("fifo-freeze:1,at=0");
    FrameResult r = runFrame(fullQuad(), cfg);
    ASSERT_TRUE(r.failed);
    EXPECT_EQ(r.faultStats.watchdogChecks,
              r.faultStats.detectionTick / 100);
}

} // namespace
} // namespace texdist
