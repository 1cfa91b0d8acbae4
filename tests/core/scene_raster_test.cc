/**
 * Differential tests of the shared phase-0 raster: every FrameLab
 * entry point (run, runBatch on pools of width 1 and 4) buckets one
 * SceneRaster built once for the lab, and each result must equal
 * runFrame on a private machine that rasterizes the frame itself —
 * every FrameResult field and the frame digest. Covers block and SLI
 * distributions at P 1/4/16/64, a mid-frame kill (reroute and the
 * fold of rerouted buckets) and watchdog degradation; the raster
 * itself must not depend on the number of threads that built it.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "core/options.hh"
#include "core/replay.hh"
#include "core/scene_raster.hh"
#include "scene/benchmarks.hh"

namespace texdist
{
namespace
{

MachineConfig
configOf(const std::string &args)
{
    std::vector<std::string> argv;
    size_t at = 0;
    while (at < args.size()) {
        size_t end = args.find(' ', at);
        if (end == std::string::npos)
            end = args.size();
        argv.push_back(args.substr(at, end - at));
        at = end + 1;
    }
    return SimOptions::parse(argv).machine;
}

void
expectSameNode(const NodeResult &want, const NodeResult &got)
{
    EXPECT_EQ(got.pixels, want.pixels);
    EXPECT_EQ(got.triangles, want.triangles);
    EXPECT_EQ(got.finishTime, want.finishTime);
    EXPECT_EQ(got.cacheAccesses, want.cacheAccesses);
    EXPECT_EQ(got.cacheMisses, want.cacheMisses);
    EXPECT_EQ(got.texelsFetched, want.texelsFetched);
    EXPECT_EQ(got.stallCycles, want.stallCycles);
    EXPECT_EQ(got.idleCycles, want.idleCycles);
    EXPECT_EQ(got.setupBoundTriangles, want.setupBoundTriangles);
    EXPECT_EQ(got.setupWaitCycles, want.setupWaitCycles);
    EXPECT_EQ(got.fifoMaxOccupancy, want.fifoMaxOccupancy);
    EXPECT_EQ(got.busUtilization, want.busUtilization);
}

/** Every field of @p got equals @p want, bit for bit. */
void
expectSameFrame(const FrameResult &want, const FrameResult &got,
                const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(digestFrame(got), digestFrame(want));
    EXPECT_EQ(got.frameTime, want.frameTime);
    EXPECT_EQ(got.totalPixels, want.totalPixels);
    EXPECT_EQ(got.totalTexelsFetched, want.totalTexelsFetched);
    EXPECT_EQ(got.trianglesDispatched, want.trianglesDispatched);
    EXPECT_EQ(got.texelToFragmentRatio, want.texelToFragmentRatio);
    EXPECT_EQ(got.pixelImbalancePercent, want.pixelImbalancePercent);
    EXPECT_EQ(got.timeImbalancePercent, want.timeImbalancePercent);
    EXPECT_EQ(got.fifoMaxOccupancy, want.fifoMaxOccupancy);
    EXPECT_EQ(got.meanBusUtilization, want.meanBusUtilization);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.failed, want.failed);
    EXPECT_EQ(got.failureReason, want.failureReason);
    EXPECT_EQ(got.diagnostic, want.diagnostic);
    EXPECT_EQ(got.estimated, want.estimated);
    const FaultStats &gf = got.faultStats;
    const FaultStats &wf = want.faultStats;
    EXPECT_EQ(gf.injected, wf.injected);
    EXPECT_EQ(gf.nodesKilled, wf.nodesKilled);
    EXPECT_EQ(gf.trianglesRedistributed, wf.trianglesRedistributed);
    EXPECT_EQ(gf.fragmentsRerouted, wf.fragmentsRerouted);
    EXPECT_EQ(gf.watchdogChecks, wf.watchdogChecks);
    EXPECT_EQ(gf.detectionTick, wf.detectionTick);
    ASSERT_EQ(got.nodes.size(), want.nodes.size());
    for (size_t p = 0; p < want.nodes.size(); ++p) {
        SCOPED_TRACE("node " + std::to_string(p));
        expectSameNode(want.nodes[p], got.nodes[p]);
    }
}

class SharedRaster : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        scene = new Scene(makeBenchmark("quake", 0.125));
    }

    static void
    TearDownTestSuite()
    {
        delete scene;
        scene = nullptr;
    }

    /**
     * FrameLab::run, and runBatch on pools of width 1 and 4, must
     * each reproduce runFrame on a private machine for every
     * config; runBatch's T(1) must match a serial baseline.
     */
    static void
    expectLabMatchesPrivate(const std::vector<std::string> &args)
    {
        std::vector<MachineConfig> cfgs;
        std::vector<FrameResult> want;
        for (const std::string &a : args) {
            cfgs.push_back(configOf(a));
            want.push_back(runFrame(*scene, cfgs.back()));
        }

        FrameLab serial(*scene);
        for (size_t i = 0; i < cfgs.size(); ++i)
            expectSameFrame(want[i], serial.run(cfgs[i]),
                            "run: " + args[i]);

        for (uint32_t width : {1u, 4u}) {
            ThreadPool pool(width);
            FrameLab lab(*scene);
            std::vector<FrameLab::SpeedupResult> got =
                lab.runBatch(cfgs, pool);
            ASSERT_EQ(got.size(), cfgs.size());
            for (size_t i = 0; i < cfgs.size(); ++i) {
                const std::string what = "runBatch width " +
                                         std::to_string(width) + ": " +
                                         args[i];
                expectSameFrame(want[i], got[i].frame, what);
                EXPECT_EQ(got[i].baselineTime, serial.baseline(cfgs[i]))
                    << what;
            }
        }
    }

    static Scene *scene;
};

Scene *SharedRaster::scene = nullptr;

TEST_F(SharedRaster, BlockAndSliMatchPrivateMachines)
{
    std::vector<std::string> args;
    for (const char *dist : {"--dist=block --param=16",
                             "--dist=sli --param=8"})
        for (int procs : {1, 4, 16, 64})
            args.push_back(std::string(dist) +
                           " --procs=" + std::to_string(procs) +
                           " --buffer=16");
    expectLabMatchesPrivate(args);
}

TEST_F(SharedRaster, KillNodeRerouteMatchesPrivateMachine)
{
    const std::string kill = "--dist=block --param=16 --procs=16 "
                             "--buffer=16 --fault=kill-node:3,at=2000";
    expectLabMatchesPrivate({kill,
                             "--dist=block --param=8 --procs=4 "
                             "--buffer=16 --fault=kill-node:rand,at=500 "
                             "--fault-seed=7"});
    // The kill must really reroute buckets, or the fold is untested.
    FrameResult r = runFrame(*scene, configOf(kill));
    EXPECT_TRUE(r.degraded);
    EXPECT_GT(r.faultStats.fragmentsRerouted, 0u);
}

TEST_F(SharedRaster, WatchdogDegradeMatchesPrivateMachine)
{
    const std::string degrade = "--dist=block --param=16 --procs=16 "
                                "--buffer=16 "
                                "--fault=fifo-freeze:2,at=1000 "
                                "--watchdog-ticks=5000 "
                                "--watchdog=degrade";
    expectLabMatchesPrivate({degrade});
    EXPECT_TRUE(runFrame(*scene, configOf(degrade)).degraded);
}

TEST_F(SharedRaster, ContentsIndependentOfThreads)
{
    ThreadPool one(1);
    ThreadPool four(4);
    SceneRaster a(*scene, one);
    SceneRaster b(*scene, four);
    ASSERT_EQ(a.size(), scene->triangles.size());
    ASSERT_EQ(b.size(), a.size());
    uint64_t frags = 0;
    for (size_t t = 0; t < a.size(); ++t) {
        const SceneRaster::Tri &x = a.tri(t);
        const SceneRaster::Tri &y = b.tri(t);
        ASSERT_EQ(x.degenerate, y.degenerate) << "triangle " << t;
        ASSERT_EQ(x.count, y.count) << "triangle " << t;
        if (!x.degenerate) {
            ASSERT_TRUE(x.bbox == y.bbox) << "triangle " << t;
        }
        if (x.count) {
            ASSERT_EQ(std::memcmp(x.frags, y.frags,
                                  x.count * sizeof(NodeFragment)),
                      0)
                << "triangle " << t;
        }
        frags += x.count;
    }
    // The raster holds exactly the fragments a frame draws.
    MachineConfig one_node = configOf("--procs=1");
    EXPECT_EQ(frags, runFrame(*scene, one_node).totalPixels);
}

} // namespace
} // namespace texdist
