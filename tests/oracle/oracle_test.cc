/** @file Unit tests for the online invariant oracle. */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/two_level.hh"
#include "core/error.hh"
#include "core/sequence.hh"
#include "core/options.hh"
#include "geom/rng.hh"
#include "oracle/oracle.hh"
#include "oracle/shadow.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

Scene
testScene()
{
    SceneBuilder b("oracle", 128, 128, 21);
    auto pool = b.makeTexturePool(2, 16, 64);
    b.addBackgroundLayer(pool, 32, 32, 1.0);
    b.addCluster(64, 64, 24, 60, 28.0, pool[0], 1.0);
    return b.take();
}

MachineConfig
testConfig(uint32_t procs = 4)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    cfg.tileParam = 16;
    return cfg;
}

TEST(OracleMode, ParsesAndPrints)
{
    EXPECT_EQ(oracleModeFromString("off"), OracleMode::Off);
    EXPECT_EQ(oracleModeFromString("cheap"), OracleMode::Cheap);
    EXPECT_EQ(oracleModeFromString("full"), OracleMode::Full);
    EXPECT_STREQ(to_string(OracleMode::Cheap), "cheap");

    SimOptions opts =
        SimOptions::parse({"--scene=quake", "--oracle=full"});
    EXPECT_EQ(opts.oracle, OracleMode::Full);

    try {
        oracleModeFromString("sometimes");
        FAIL() << "bad oracle mode accepted";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.surface(), ParseSurface::Cli);
        EXPECT_NE(e.describe().find("--oracle"), std::string::npos);
    }
}

TEST(OracleMode, FrameSampling)
{
    MachineConfig cfg = testConfig();
    OracleEngine off(cfg, OracleMode::Off);
    OracleEngine cheap(cfg, OracleMode::Cheap);
    OracleEngine full(cfg, OracleMode::Full);
    for (uint32_t f = 0; f < 9; ++f) {
        EXPECT_FALSE(off.checksFrame(f));
        EXPECT_EQ(cheap.checksFrame(f), f % 4 == 0) << "frame " << f;
        EXPECT_TRUE(full.checksFrame(f));
    }
}

TEST(OracleError, CarriesFrameNodeCycleContext)
{
    OracleError e(7, 3, 12345,
                  {"first violation", "second violation"});
    EXPECT_EQ(e.exitCode(), 13);
    std::string d = e.describe();
    EXPECT_NE(d.find("frame 7"), std::string::npos) << d;
    EXPECT_NE(d.find("node 3"), std::string::npos) << d;
    EXPECT_NE(d.find("12345"), std::string::npos) << d;
    EXPECT_NE(d.find("first violation"), std::string::npos) << d;
    EXPECT_NE(d.find("second violation"), std::string::npos) << d;
}

TEST(OracleEngine, CleanFrameRaisesNothing)
{
    Scene scene = testScene();
    MachineConfig cfg = testConfig();
    SequenceMachine machine(scene, cfg, 1,
                            FrameEntry::SingleFrame);
    OracleEngine oracle(cfg, OracleMode::Full);
    oracle.attach(machine);
    oracle.beginFrame(0, scene);
    FrameResult r = machine.runFrame(scene);
    EXPECT_NO_THROW(oracle.endFrame(0, scene,
                                    &machine.distribution(), &r,
                                    r.frameTime));
    EXPECT_NE(oracle.lastCoverageDigest(), 0u);
}

TEST(OracleEngine, TimingAndResultsIdenticalWithOracleAttached)
{
    // The oracle is a host-side observer: simulated time, per-node
    // statistics and every measurement must be bit-identical with
    // the oracle on or off.
    Scene scene = testScene();
    MachineConfig cfg = testConfig();

    FrameResult a = runFrame(scene, cfg);

    SequenceMachine watched(scene, cfg, 1,
                            FrameEntry::SingleFrame);
    OracleEngine oracle(cfg, OracleMode::Full);
    oracle.attach(watched);
    oracle.beginFrame(0, scene);
    FrameResult b = watched.runFrame(scene);
    oracle.endFrame(0, scene, &watched.distribution(), &b,
                    b.frameTime);

    EXPECT_EQ(a.frameTime, b.frameTime);
    EXPECT_EQ(a.totalPixels, b.totalPixels);
    EXPECT_EQ(a.totalTexelsFetched, b.totalTexelsFetched);
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); ++i) {
        EXPECT_EQ(a.nodes[i].cacheAccesses, b.nodes[i].cacheAccesses);
        EXPECT_EQ(a.nodes[i].cacheMisses, b.nodes[i].cacheMisses);
        EXPECT_EQ(a.nodes[i].finishTime, b.nodes[i].finishTime);
        EXPECT_EQ(a.nodes[i].stallCycles, b.nodes[i].stallCycles);
    }
}

TEST(Shadow, CleanCacheNeverDiverges)
{
    CacheGeometry geom{16 * 1024, 4, 64};
    ShadowedCache shadow(std::make_unique<SetAssocCache>(geom),
                         "node0");
    SetAssocCache twin(geom);
    Rng rng(5);
    for (int i = 0; i < 50000; ++i) {
        uint64_t addr = uint64_t(rng.uniformInt(0, 1 << 17));
        EXPECT_EQ(shadow.access(addr), twin.access(addr));
    }
    EXPECT_EQ(shadow.divergences(), 0u);
    EXPECT_EQ(shadow.accesses(), twin.accesses());
    EXPECT_EQ(shadow.misses(), twin.misses());
}

TEST(Shadow, CatchesPlantedLruSkip)
{
    // Skipping every 16th LRU touch rarely flips a hit/miss verdict
    // on a high-locality stream, but the per-set recency-order
    // comparison sees the stale stamp at the next access to the set.
    CacheGeometry geom{16 * 1024, 4, 64};
    auto planted = std::make_unique<SetAssocCache>(geom);
    planted->debugPlantLruSkip(16);
    ShadowedCache shadow(std::move(planted), "node0");
    Rng rng(6);
    for (int i = 0; i < 20000 && shadow.divergences() == 0; ++i)
        shadow.access(uint64_t(rng.uniformInt(0, 1 << 17)));
    EXPECT_GT(shadow.divergences(), 0u);
    std::vector<std::string> v = shadow.drainViolations();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("node0"), std::string::npos) << v[0];
}

TEST(Shadow, CleanBatchesNeverDiverge)
{
    // Node batches go through the inner cache's accessBatch and are
    // held to the per-address twin; an honest cache, flat or
    // two-level, never diverges and reports the unshadowed verdicts.
    CacheGeometry l1{16 * 1024, 4, 64};
    CacheGeometry l2{256 * 1024, 8, 64};
    auto run = [](std::unique_ptr<TextureCache> shadowed,
                  std::unique_ptr<TextureCache> plain) {
        ShadowedCache shadow(std::move(shadowed), "node0");
        Rng rng(11);
        std::vector<uint64_t> addrs(4096 + 1);
        std::vector<uint8_t> got(addrs.size()), want(addrs.size());
        for (int batch = 0; batch < 12; ++batch) {
            for (uint64_t &a : addrs)
                a = uint64_t(rng.uniformInt(0, 1 << 18));
            shadow.accessBatch(addrs.data(), addrs.size(), got.data());
            plain->accessBatch(addrs.data(), addrs.size(), want.data());
            EXPECT_EQ(got, want);
        }
        EXPECT_EQ(shadow.divergences(), 0u);
        EXPECT_EQ(shadow.accesses(), plain->accesses());
        EXPECT_EQ(shadow.misses(), plain->misses());
    };
    run(std::make_unique<SetAssocCache>(l1),
        std::make_unique<SetAssocCache>(l1));
    for (bool inclusive : {false, true})
        run(std::make_unique<TwoLevelCache>(l1, l2, inclusive),
            std::make_unique<TwoLevelCache>(l1, l2, inclusive));
}

TEST(Shadow, CatchesPlantedLruSkipInsideABatch)
{
    // The twin never inherits the planted knob, so a skipped touch
    // inside the batched probe shows as batch-versus-twin divergence.
    // The stream never evicts (64 lines, one per set, revisited), so
    // every verdict agrees and only the state comparison can see it.
    CacheGeometry geom{16 * 1024, 4, 64};
    auto planted = std::make_unique<SetAssocCache>(geom);
    planted->debugPlantLruSkip(16);
    ShadowedCache shadow(std::move(planted), "node0");
    std::vector<uint64_t> addrs(256);
    for (size_t i = 0; i < addrs.size(); ++i)
        addrs[i] = (i % 64) * 64;
    std::vector<uint8_t> miss(addrs.size());
    shadow.accessBatch(addrs.data(), addrs.size(), miss.data());
    EXPECT_EQ(shadow.misses(), 64u);
    EXPECT_EQ(shadow.divergences(), 1u);
    std::vector<std::string> v = shadow.drainViolations();
    ASSERT_FALSE(v.empty());
    EXPECT_NE(v[0].find("cache state after a batch"), std::string::npos)
        << v[0];
}

TEST(Shadow, SeedsFromWarmCache)
{
    // Attaching a shadow to an already-warm cache must adopt its
    // exact contents and recency order, not assume a cold start.
    CacheGeometry geom{8 * 1024, 4, 64};
    auto cache = std::make_unique<SetAssocCache>(geom);
    Rng warmup(9);
    for (int i = 0; i < 30000; ++i)
        cache->access(uint64_t(warmup.uniformInt(0, 1 << 16)));

    ShadowedCache shadow(std::move(cache), "node0");
    Rng traffic(10);
    for (int i = 0; i < 30000; ++i)
        shadow.access(uint64_t(traffic.uniformInt(0, 1 << 16)));
    EXPECT_EQ(shadow.divergences(), 0u);
}

TEST(OracleConfig, InclusiveL2AppearsInDescribe)
{
    MachineConfig cfg = testConfig();
    cfg.hasL2 = true;
    std::string plain = cfg.describe();
    EXPECT_EQ(plain.find("incl"), std::string::npos) << plain;
    cfg.l2Inclusive = true;
    std::string strict = cfg.describe();
    EXPECT_NE(strict.find("incl"), std::string::npos) << strict;
}

} // namespace
} // namespace texdist
