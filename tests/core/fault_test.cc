/** @file Fault injection, watchdog and graceful-degradation tests. */

#include <sstream>

#include <gtest/gtest.h>

#include "core/error.hh"
#include "core/experiments.hh"
#include "core/sequence.hh"
#include "oracle/oracle.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

/**
 * @p fn must throw a CLI-surface ParseError (exit code 1) whose
 * diagnostic contains every needle.
 */
template <typename Fn>
void
expectCliError(Fn &&fn, std::initializer_list<const char *> needles)
{
    try {
        (void)fn();
        ADD_FAILURE() << "bad input accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Cli) << e.describe();
        EXPECT_EQ(e.exitCode(), 1);
        for (const char *needle : needles)
            EXPECT_NE(e.describe().find(needle), std::string::npos)
                << "diagnostic: " << e.describe()
                << "\n  missing: " << needle;
    }
}


Scene
quadScene(uint32_t screen, float x0, float y0, float x1, float y1)
{
    SceneBuilder b("quad", screen, screen, 77);
    TextureId tex = b.makeTexture(64, 64);
    b.addQuad(x0, y0, x1, y1, tex, 1.0);
    return b.take();
}

/** A busy multi-triangle scene whose dispatch spans many ticks. */
Scene
busyScene()
{
    SceneBuilder b("busy", 128, 128, 9);
    auto pool = b.makeTexturePool(3, 16, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addCluster(60, 60, 20, 100, 30.0, pool[0], 1.0);
    return b.take();
}

MachineConfig
perfectConfig(uint32_t procs = 1)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    return cfg;
}

// --- FaultSpec / FaultPlan parsing ---------------------------------

TEST(FaultSpec, ParseFullSpec)
{
    FaultSpec f = parseFaultSpec("slow-node:3,at=10000,x=8");
    EXPECT_EQ(f.kind, FaultKind::SlowNode);
    EXPECT_EQ(f.victim, 3u);
    EXPECT_EQ(f.at, 10000u);
    EXPECT_EQ(f.duration, 0u);
    EXPECT_EQ(f.factor, 8u);
}

TEST(FaultSpec, ParseDefaultsAndRand)
{
    FaultSpec f = parseFaultSpec("kill-node");
    EXPECT_EQ(f.kind, FaultKind::KillNode);
    EXPECT_EQ(f.victim, faultRandomVictim);
    EXPECT_EQ(f.at, 0u);

    FaultSpec g = parseFaultSpec("fifo-freeze:rand,at=500,for=200");
    EXPECT_EQ(g.kind, FaultKind::FifoFreeze);
    EXPECT_EQ(g.victim, faultRandomVictim);
    EXPECT_EQ(g.at, 500u);
    EXPECT_EQ(g.duration, 200u);
}

TEST(FaultSpec, DescribeRoundTrips)
{
    for (const char *spec :
         {"slow-node:3,at=10000,x=8", "bus-stall:0,at=7,for=100",
          "fifo-freeze:rand,at=500", "kill-node:15,at=1"}) {
        FaultSpec a = parseFaultSpec(spec);
        FaultSpec b = parseFaultSpec(a.describe());
        EXPECT_EQ(a.kind, b.kind) << spec;
        EXPECT_EQ(a.victim, b.victim) << spec;
        EXPECT_EQ(a.at, b.at) << spec;
        EXPECT_EQ(a.duration, b.duration) << spec;
        EXPECT_EQ(a.factor, b.factor) << spec;
    }
}

TEST(FaultPlan, AddSplitsSemicolonList)
{
    FaultPlan plan;
    plan.add("slow-node:1,x=4;kill-node:2,at=50");
    ASSERT_EQ(plan.faults.size(), 2u);
    EXPECT_EQ(plan.faults[0].kind, FaultKind::SlowNode);
    EXPECT_EQ(plan.faults[1].kind, FaultKind::KillNode);
    EXPECT_NE(plan.describe().find(";"), std::string::npos);
}

TEST(FaultPlan, RandVictimResolvesDeterministically)
{
    FaultPlan plan;
    plan.seed = 42;
    plan.add("kill-node:rand,at=100");
    auto a = plan.resolve(16);
    auto b = plan.resolve(16);
    ASSERT_EQ(a.size(), 1u);
    EXPECT_LT(a[0].victim, 16u);
    EXPECT_EQ(a[0].victim, b[0].victim);
}

TEST(FaultPlanError, MalformedSpecsFatal)
{
    expectCliError([&] { return parseFaultSpec("melt-node:1"); },
                   {"unknown fault kind"});
    expectCliError([&] { return parseFaultSpec("kill-node:1,x=4"); },
                   {"only applies to slow-node"});
    expectCliError([&] { return parseFaultSpec("slow-node:1,x=1"); },
                   {"[2, 1024]"});
    expectCliError([&] { return parseFaultSpec("slow-node:1,for=0"); },
                   {"positive"});
    expectCliError([&] { return parseFaultSpec("slow-node:1,badkey=3"); },
                   {"unknown key"});
    expectCliError([&] { return parseFaultSpec("slow-node:banana"); },
                   {"integer"});
    expectCliError([&] { return FaultPlan{}.add(""); },
                   {"empty fault spec"});
}

TEST(FaultPlanError, VictimOutOfRangeFatal)
{
    FaultPlan plan;
    plan.add("kill-node:16");
    expectCliError([&] { return plan.resolve(16); },
                   {"out of range"});
}

TEST(FaultPlanError, MachineRejectsVictimOutOfRange)
{
    // An explicit victim beyond the machine is the typed CLI error in
    // every mode, raised when a frame arms the plan.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg = perfectConfig(4);
    cfg.faults.add("slow-node:4,at=0");
    expectCliError([&] { return runFrame(scene, cfg); },
                   {"out of range"});
    SequenceMachine machine(scene, cfg);
    expectCliError([&] { return machine.runFrame(scene); },
                   {"out of range"});
}

TEST(FaultPlan, RandVictimsMatchAcrossModes)
{
    // Single frames draw `rand` victims from the same (checkpointed)
    // stream as sequences: frame 0 of either kills the same node,
    // the first draw of the plan's seed.
    Scene scene = busyScene();
    MachineConfig cfg = perfectConfig(16);
    cfg.tileParam = 16;
    cfg.faults.seed = 7;
    cfg.faults.add("kill-node:rand,at=300");
    const uint32_t victim = cfg.faults.resolve(16).front().victim;
    for (FrameEntry entry :
         {FrameEntry::SingleFrame,
          FrameEntry::Sequence}) {
        SequenceMachine machine(scene, cfg, 1, entry);
        FrameResult r = machine.runFrame(scene);
        EXPECT_EQ(r.faultStats.nodesKilled, 1u);
        for (uint32_t p = 0; p < 16; ++p)
            EXPECT_EQ(machine.node(p).isDead(), p == victim) << p;
    }
}

// --- slow-node -----------------------------------------------------

TEST(Fault, SlowNodeMultipliesScanTime)
{
    // 1600-pixel quad on one perfect-cache node: 1600 cycles at full
    // speed, exactly 4x that with a permanent x=4 slow-node fault.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg = perfectConfig();
    cfg.faults.add("slow-node:0,at=0,x=4");
    FrameResult r = runFrame(scene, cfg);
    EXPECT_EQ(r.frameTime, 4u * 1600u);
    EXPECT_EQ(r.totalPixels, 1600u);
    EXPECT_EQ(r.faultStats.injected, 1u);
    EXPECT_FALSE(r.degraded);
    EXPECT_FALSE(r.failed);
}

TEST(Fault, SlowNodeRecoveryRestoresSpeed)
{
    // Both ~800-pixel triangles enqueue at tick 0; the first runs at
    // 1/4 speed, the recovery at tick 800 restores full speed before
    // the second starts — the frame lands strictly between the clean
    // 1600 cycles and the permanently-slowed 6400.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg = perfectConfig();
    cfg.faults.add("slow-node:0,at=0,for=800,x=4");
    FrameResult r = runFrame(scene, cfg);
    EXPECT_GT(r.frameTime, 1600u);
    EXPECT_LT(r.frameTime, 6400u);
    EXPECT_EQ(r.totalPixels, 1600u);
    // And deterministically so.
    EXPECT_EQ(runFrame(scene, cfg).frameTime, r.frameTime);
}

TEST(Fault, SlowNodeSkewsFrameTimeNotPixels)
{
    // One straggler in a 16-proc machine stretches the frame but the
    // work division (pixel counts) is untouched.
    Scene scene = busyScene();
    MachineConfig clean = perfectConfig(16);
    clean.tileParam = 16;
    FrameResult base = runFrame(scene, clean);

    MachineConfig cfg = clean;
    cfg.faults.add("slow-node:7,at=0,x=8");
    FrameResult r = runFrame(scene, cfg);
    EXPECT_GT(r.frameTime, base.frameTime);
    EXPECT_EQ(r.totalPixels, base.totalPixels);
    for (size_t i = 0; i < r.nodes.size(); ++i)
        EXPECT_EQ(r.nodes[i].pixels, base.nodes[i].pixels) << i;
}

// --- bus-stall -----------------------------------------------------

TEST(Fault, BusStallDelaysTransfers)
{
    // Cacheless at 8 texels/cycle is scan-bound (1600 cycles); a
    // 2000-cycle blackout from tick 0 pushes every early transfer out
    // past the window.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg;
    cfg.cacheKind = CacheKind::None;
    cfg.busTexelsPerCycle = 8.0;
    FrameResult base = runFrame(scene, cfg);
    EXPECT_EQ(base.frameTime, 1600u);

    cfg.faults.add("bus-stall:0,at=0,for=2000");
    SequenceMachine machine(scene, cfg, 1,
                            FrameEntry::SingleFrame);
    FrameResult r = machine.runFrame(scene);
    EXPECT_GT(r.frameTime, base.frameTime);
    EXPECT_EQ(r.totalPixels, base.totalPixels);
    ASSERT_NE(machine.node(0).bus(), nullptr);
    EXPECT_GT(machine.node(0).bus()->stalledTransfers(), 0u);
}

TEST(Fault, BusStallIgnoredOnInfiniteBus)
{
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg = perfectConfig();
    cfg.faults.add("bus-stall:0,at=0,for=1000");
    FrameResult r = runFrame(scene, cfg);
    EXPECT_EQ(r.frameTime, 1600u); // warned and ignored
}

// --- kill-node / graceful degradation ------------------------------

TEST(Fault, KillNodeMidFrameCompletesWithFullCoverage)
{
    // Kill 1 of 16 nodes mid-frame: the frame must still draw every
    // fragment — queued work migrates, future work is rerouted.
    Scene scene = busyScene();
    MachineConfig clean = perfectConfig(16);
    clean.tileParam = 16;
    clean.triangleBufferSize = 4; // spread dispatch over the frame
    FrameResult base = runFrame(scene, clean);
    EXPECT_FALSE(base.degraded);

    MachineConfig cfg = clean;
    cfg.faults.add("kill-node:5,at=500");
    FrameResult r = runFrame(scene, cfg);
    EXPECT_FALSE(r.failed);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.faultStats.nodesKilled, 1u);
    EXPECT_EQ(r.totalPixels, base.totalPixels);
    // Losing a node can only cost time.
    EXPECT_GE(r.frameTime, base.frameTime);
    // Something actually moved off the dead node.
    EXPECT_GT(r.faultStats.trianglesRedistributed +
                  r.faultStats.fragmentsRerouted,
              0u);
}

TEST(Fault, KillNodeDeterministicAcrossRuns)
{
    // Acceptance: identical seed + FaultPlan => identical FrameResult.
    Scene scene = busyScene();
    MachineConfig cfg = perfectConfig(16);
    cfg.tileParam = 16;
    cfg.triangleBufferSize = 4;
    cfg.faults.seed = 7;
    cfg.faults.add("kill-node:rand,at=400;slow-node:rand,at=0,x=2");

    FrameResult a = runFrame(scene, cfg);
    FrameResult b = runFrame(scene, cfg);
    EXPECT_EQ(a.frameTime, b.frameTime);
    EXPECT_EQ(a.totalPixels, b.totalPixels);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.faultStats.nodesKilled, b.faultStats.nodesKilled);
    EXPECT_EQ(a.faultStats.trianglesRedistributed,
              b.faultStats.trianglesRedistributed);
    EXPECT_EQ(a.faultStats.fragmentsRerouted,
              b.faultStats.fragmentsRerouted);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_EQ(a.nodes[i].pixels, b.nodes[i].pixels) << i;
        EXPECT_EQ(a.nodes[i].finishTime, b.nodes[i].finishTime) << i;
    }
}

TEST(Fault, KillOnlyNodeFailsFrame)
{
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg = perfectConfig();
    cfg.faults.add("kill-node:0,at=0");
    FrameResult r = runFrame(scene, cfg);
    EXPECT_TRUE(r.failed);
    EXPECT_NE(r.failureReason.find("no nodes survive"),
              std::string::npos);
}

// --- watchdog ------------------------------------------------------

TEST(Fault, FrozenFifoFailsFrameWithDiagnostic)
{
    // A permanently frozen FIFO deadlocks the in-order feeder (the
    // full-screen quad needs every node). With the watchdog the run
    // terminates with a structured diagnostic instead of hanging.
    Scene scene = quadScene(64, 0, 0, 64, 64);
    MachineConfig cfg = perfectConfig(4);
    cfg.tileParam = 16;
    cfg.triangleBufferSize = 2;
    cfg.faults.add("fifo-freeze:1,at=0");
    cfg.watchdogTicks = 500;
    cfg.watchdogPolicy = WatchdogPolicy::FailFrame;

    FrameResult r = runFrame(scene, cfg);
    EXPECT_TRUE(r.failed);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.faultStats.detectionTick, 500u);
    EXPECT_NE(r.failureReason.find("watchdog"), std::string::npos);
    EXPECT_NE(r.diagnostic.find("frozen=1"), std::string::npos);
    EXPECT_NE(r.diagnostic.find("feeder"), std::string::npos);

    // Same plan, same detection tick.
    FrameResult again = runFrame(scene, cfg);
    EXPECT_EQ(again.faultStats.detectionTick,
              r.faultStats.detectionTick);
}

TEST(Fault, FrozenFifoDegradePolicyCompletesFrame)
{
    // Same deadlock, degrade policy: the watchdog identifies the
    // frozen node as the culprit, kills it, and the frame completes
    // with full pixel coverage on the survivors.
    Scene scene = quadScene(64, 0, 0, 64, 64);
    MachineConfig cfg = perfectConfig(4);
    cfg.tileParam = 16;
    cfg.triangleBufferSize = 2;
    cfg.faults.add("fifo-freeze:1,at=0");
    cfg.watchdogTicks = 500;
    cfg.watchdogPolicy = WatchdogPolicy::Degrade;

    FrameResult r = runFrame(scene, cfg);
    EXPECT_FALSE(r.failed);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(r.faultStats.nodesKilled, 1u);
    EXPECT_EQ(r.faultStats.detectionTick, 500u);
    EXPECT_EQ(r.totalPixels, 64u * 64u);
    EXPECT_EQ(r.nodes[1].pixels, 0u); // the dead node drew nothing
    EXPECT_GT(r.faultStats.fragmentsRerouted, 0u);
}

TEST(Fault, TransientFreezeRecoversWithoutWatchdog)
{
    // A freeze shorter than the frame, with recovery nudging the
    // feeder: completes normally with no watchdog at all.
    Scene scene = quadScene(64, 0, 0, 64, 64);
    MachineConfig cfg = perfectConfig(4);
    cfg.tileParam = 16;
    cfg.triangleBufferSize = 2;
    cfg.faults.add("fifo-freeze:1,at=0,for=300");
    FrameResult r = runFrame(scene, cfg);
    EXPECT_FALSE(r.failed);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.totalPixels, 64u * 64u);
}

TEST(Fault, WatchdogToleratesAtomicallySimulatedTriangles)
{
    // An 800-pixel triangle is simulated atomically at its start
    // tick: no events fire while it "runs". The busyUntil() health
    // check must keep a short-interval watchdog from declaring the
    // node stalled.
    Scene scene = quadScene(64, 0, 0, 40, 40);
    MachineConfig cfg = perfectConfig();
    cfg.watchdogTicks = 100;
    FrameResult r = runFrame(scene, cfg);
    EXPECT_FALSE(r.failed);
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.frameTime, 1600u);
    EXPECT_EQ(r.faultStats.detectionTick, 0u);
}

// --- 16-proc block vs SLI survival (acceptance scenario) -----------

TEST(Fault, SixteenProcStragglerCompletesUnderBothDistributions)
{
    Scene scene = busyScene();
    for (DistKind kind : {DistKind::Block, DistKind::SLI}) {
        MachineConfig cfg = perfectConfig(16);
        cfg.dist = kind;
        cfg.tileParam = kind == DistKind::Block ? 16 : 2;
        cfg.triangleBufferSize = 8;
        cfg.faults.add("slow-node:3,at=0,x=8");
        cfg.watchdogTicks = 10000;
        cfg.watchdogPolicy = WatchdogPolicy::Degrade;
        FrameResult r = runFrame(scene, cfg);
        EXPECT_FALSE(r.failed) << to_string(kind);
        EXPECT_GT(r.totalPixels, 0u) << to_string(kind);
    }
}

TEST(Fault, ConfigDescribeMentionsFaultsAndWatchdog)
{
    MachineConfig cfg;
    cfg.faults.add("slow-node:3,at=10,x=8");
    cfg.watchdogTicks = 500;
    cfg.watchdogPolicy = WatchdogPolicy::Degrade;
    std::string desc = cfg.describe();
    EXPECT_NE(desc.find("faults=[slow-node:3"), std::string::npos);
    EXPECT_NE(desc.find("watchdog=500/degrade"), std::string::npos);
}

TEST(Fault, FrameResultPrintReportsFaultLines)
{
    Scene scene = busyScene();
    MachineConfig cfg = perfectConfig(16);
    cfg.tileParam = 16;
    cfg.faults.add("kill-node:5,at=100");
    FrameResult r = runFrame(scene, cfg);
    std::ostringstream os;
    r.print(os);
    EXPECT_NE(os.str().find("faults injected"), std::string::npos);
    EXPECT_NE(os.str().find("degraded:          yes"),
              std::string::npos);
}

// --- online oracle on fault-degraded frames ------------------------

/** Run one frame through machine + oracle; rethrows OracleError. */
FrameResult
runFrameWithOracle(const Scene &scene, const MachineConfig &cfg,
                   OracleMode mode, uint64_t *digest_out = nullptr)
{
    SequenceMachine machine(scene, cfg, 1,
                            FrameEntry::SingleFrame);
    OracleEngine oracle(cfg, mode);
    oracle.attach(machine);
    oracle.beginFrame(0, scene);
    FrameResult r = machine.runFrame(scene);
    oracle.endFrame(0, scene, &machine.distribution(), &r,
                    r.frameTime);
    if (digest_out)
        *digest_out = oracle.lastCoverageDigest();
    return r;
}

TEST(FaultOracle, DegradedFrameKeepsEveryInvariant)
{
    // The oracle's pledge covers fault-degraded frames: after a
    // mid-frame node kill, coverage is still exact (every pixel
    // drawn exactly as often as a clean rasterization says),
    // conservation still balances, and the coverage digest equals
    // the clean run's — degradation moves work, never drops or
    // duplicates it.
    Scene scene = busyScene();
    MachineConfig clean;
    clean.numProcs = 16;
    clean.tileParam = 16;
    clean.triangleBufferSize = 4;
    uint64_t cleanDigest = 0;
    FrameResult base =
        runFrameWithOracle(scene, clean, OracleMode::Full,
                           &cleanDigest);
    EXPECT_FALSE(base.degraded);

    MachineConfig cfg = clean;
    cfg.faults.add("kill-node:5,at=500");
    uint64_t degradedDigest = 0;
    FrameResult r = runFrameWithOracle(scene, cfg, OracleMode::Full,
                                       &degradedDigest);
    EXPECT_TRUE(r.degraded);
    EXPECT_EQ(degradedDigest, cleanDigest);
}

TEST(FaultOracle, PlantedBugIsCaughtOnDegradedFrame)
{
    // The checks must stay armed while recovery machinery runs: a
    // coverage bug planted on a *surviving* node of a degraded frame
    // still raises the exit-13 OracleError.
    Scene scene = busyScene();
    MachineConfig cfg;
    cfg.numProcs = 16;
    cfg.tileParam = 16;
    cfg.triangleBufferSize = 4;
    cfg.faults.add("kill-node:5,at=500");

    SequenceMachine machine(scene, cfg, 1,
                            FrameEntry::SingleFrame);
    machine.node(0).debugPlantCoverageShift();
    OracleEngine oracle(cfg, OracleMode::Full);
    oracle.attach(machine);
    oracle.beginFrame(0, scene);
    FrameResult r = machine.runFrame(scene);
    EXPECT_TRUE(r.degraded);
    try {
        oracle.endFrame(0, scene, &machine.distribution(), &r,
                        r.frameTime);
        FAIL() << "planted coverage bug escaped the oracle";
    } catch (const OracleError &e) {
        EXPECT_EQ(e.exitCode(), 13);
        EXPECT_NE(std::string(e.what()).find("coverage"),
                  std::string::npos);
    }
}

} // namespace
} // namespace texdist
