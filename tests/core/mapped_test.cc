/** @file Tests for the mapped distribution and the oracle balancer. */

#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "core/mapped.hh"
#include "core/sequence.hh"
#include "scene/builder.hh"

namespace texdist
{
namespace
{

TEST(MappedBlockDistribution, HonorsExplicitMap)
{
    // 8x8 screen, 4-pixel blocks -> 2x2 tiles.
    std::vector<uint16_t> map = {3, 1, 0, 2};
    MappedBlockDistribution d(8, 8, 4, 4, map);
    EXPECT_EQ(d.owner(0, 0), 3);
    EXPECT_EQ(d.owner(7, 0), 1);
    EXPECT_EQ(d.owner(0, 7), 0);
    EXPECT_EQ(d.owner(7, 7), 2);
    EXPECT_NE(d.describe().find("mapped"), std::string::npos);
}

TEST(MappedBlockDistribution, MatchesInterleavedWhenMapIsModulo)
{
    // A raster-modulo map reproduces BlockDistribution exactly.
    uint32_t w = 40, h = 24, procs = 4, width = 8;
    uint32_t tiles_x = (w + width - 1) / width;
    uint32_t tiles_y = (h + width - 1) / width;
    std::vector<uint16_t> map;
    for (uint32_t i = 0; i < tiles_x * tiles_y; ++i)
        map.push_back(uint16_t(i % procs));
    MappedBlockDistribution mapped(w, h, procs, width, map);
    BlockDistribution block(w, h, procs, width,
                            InterleaveOrder::Raster);
    EXPECT_EQ(mapped.ownerMap(), block.ownerMap());
}

TEST(MappedBlockDistributionDeath, RejectsBadMap)
{
    EXPECT_EXIT(MappedBlockDistribution(8, 8, 4, 4, {0, 1, 2}),
                ::testing::ExitedWithCode(1), "tile map size");
    EXPECT_EXIT(MappedBlockDistribution(8, 8, 4, 4, {0, 1, 2, 9}),
                ::testing::ExitedWithCode(1), "out of range");
}

TEST(TileWork, SumsToFragments)
{
    SceneBuilder b("tw", 64, 64, 5);
    TextureId tex = b.makeTexture(32, 32);
    b.addQuad(0, 0, 64, 64, tex, 1.0);
    b.addQuad(10, 10, 30, 30, tex, 1.0);
    Scene scene = b.take();

    std::vector<uint64_t> work = tileWork(scene, 16);
    EXPECT_EQ(work.size(), 16u);
    uint64_t sum = 0;
    for (uint64_t tw : work)
        sum += tw;
    EXPECT_EQ(sum, 64u * 64 + 20u * 20);
    // The hot tile (covering 16..31 square) carries the overdraw.
    EXPECT_GT(work[1 * 4 + 1], work[0]);
}

TEST(BalanceTilesGreedy, PerfectSplitWhenPossible)
{
    std::vector<uint64_t> work = {4, 4, 4, 4};
    auto owners = balanceTilesGreedy(work, 2);
    uint64_t load0 = 0, load1 = 0;
    for (size_t i = 0; i < work.size(); ++i)
        (owners[i] == 0 ? load0 : load1) += work[i];
    EXPECT_EQ(load0, load1);
}

TEST(BalanceTilesGreedy, LptBound)
{
    // Greedy LPT is within 4/3 of optimal makespan; with random
    // work it must in particular beat a raster-modulo assignment on
    // a skewed distribution.
    Rng rng(9);
    std::vector<uint64_t> work;
    for (int i = 0; i < 200; ++i)
        work.push_back(uint64_t(rng.exponential(100.0)) +
                       (i % 17 == 0 ? 2000 : 0));
    uint32_t procs = 8;

    auto lpt = balanceTilesGreedy(work, procs);
    std::vector<uint64_t> lpt_load(procs, 0),
        mod_load(procs, 0);
    uint64_t total = 0;
    for (size_t i = 0; i < work.size(); ++i) {
        lpt_load[lpt[i]] += work[i];
        mod_load[i % procs] += work[i];
        total += work[i];
    }
    uint64_t lpt_max = *std::max_element(lpt_load.begin(),
                                         lpt_load.end());
    uint64_t mod_max = *std::max_element(mod_load.begin(),
                                         mod_load.end());
    EXPECT_LE(lpt_max, mod_max);
    // 4/3-approximation bound on the makespan.
    double lower = std::max<double>(
        double(total) / procs,
        double(*std::max_element(work.begin(), work.end())));
    EXPECT_LE(double(lpt_max), lower * 4.0 / 3.0 + 1.0);
}

TEST(OracleAssignment, BeatsInterleavingOnHotspots)
{
    // One hot cluster: greedy assignment should smooth it out.
    SceneBuilder b("hot", 128, 128, 7);
    TextureId tex = b.makeTexture(64, 64);
    b.addQuad(0, 0, 128, 128, tex, 1.0);
    b.addCluster(32, 32, 10, 300, 40.0, tex, 1.0);
    Scene scene = b.take();

    uint32_t procs = 8, width = 32;
    auto interleaved = Distribution::make(
        DistKind::Block, 128, 128, procs, width);
    MappedBlockDistribution oracle(
        128, 128, procs, width,
        balanceTilesGreedy(tileWork(scene, width), procs));

    double il =
        imbalancePercent(pixelWorkPerProc(scene, *interleaved));
    double orc =
        imbalancePercent(pixelWorkPerProc(scene, oracle));
    EXPECT_LT(orc, il);
}

TEST(OracleAssignment, RunsOnFullMachine)
{
    SceneBuilder b("m", 64, 64, 3);
    TextureId tex = b.makeTexture(32, 32);
    b.addQuad(0, 0, 64, 64, tex, 1.0);
    Scene scene = b.take();

    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.tileParam = 16;
    cfg.cacheKind = CacheKind::Perfect;
    cfg.infiniteBus = true;
    auto oracle = std::make_unique<MappedBlockDistribution>(
        64u, 64u, 4u, 16u,
        balanceTilesGreedy(tileWork(scene, 16), 4));
    SequenceMachine machine(scene, cfg, 1,
                            FrameEntry::SingleFrame,
                            std::move(oracle));
    FrameResult r = machine.runFrame(scene);
    EXPECT_EQ(r.totalPixels, 64u * 64u);
    EXPECT_NEAR(r.pixelImbalancePercent, 0.0, 1e-9);
}

TEST(SequenceMachineDeath, MismatchedDistributionFatal)
{
    SceneBuilder b("mm", 64, 64, 3);
    Scene scene = b.take();
    MachineConfig cfg;
    cfg.numProcs = 4;
    auto wrong = Distribution::make(DistKind::Block, 32, 32, 4, 8);
    EXPECT_EXIT(
        SequenceMachine(scene, cfg, 1,
                        FrameEntry::SingleFrame,
                        std::move(wrong)),
        ::testing::ExitedWithCode(1), "does not match");
}

} // namespace
} // namespace texdist
