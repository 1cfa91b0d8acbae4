/**
 * @file
 * Exact differential test of the batched cache probe: a cache driven
 * through accessBatch must end every batch in exactly the state its
 * twin reaches through per-address access() calls — same verdicts,
 * tags, LRU stamps, stamp clock, counters and checkpoint bytes.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/two_level.hh"
#include "geom/rng.hh"
#include "raster/raster.hh"
#include "scene/benchmarks.hh"
#include "texture/sampler.hh"

namespace texdist
{
namespace
{

std::vector<uint64_t>
randomStream(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint64_t> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        uint64_t a = uint64_t(rng.uniformInt(0, 1 << 18));
        // Runs of references to one line, as a texel footprint makes.
        if (!out.empty() && rng.chance(0.5))
            a = (out.back() & ~uint64_t(63)) | (a & 63);
        out.push_back(a);
    }
    return out;
}

/**
 * The texel addresses the node's scan would probe for a seed scene:
 * every triangle rasterized, its fragments run through
 * TrilinearSampler::generateBatch, in dispatch order.
 */
const std::vector<uint64_t> &
sceneStream()
{
    static const std::vector<uint64_t> stream = [] {
        constexpr size_t cap = 200000;
        Scene scene = makeBenchmark("quake", 0.125);
        std::vector<uint64_t> out;
        std::vector<float> us, vs, lods;
        std::vector<uint64_t> addrs;
        for (const TexTriangle &tri : scene.triangles) {
            const Texture &tex = scene.textures.get(tri.tex);
            TriangleRaster raster(tri, tex.width(), tex.height());
            us.clear();
            vs.clear();
            lods.clear();
            raster.rasterize(scene.screenRect(),
                             [&](const Fragment &f) {
                                 us.push_back(f.u);
                                 vs.push_back(f.v);
                                 lods.push_back(f.lod);
                             });
            addrs.resize(us.size() * texelsPerFragment);
            TrilinearSampler::generateBatch(tex, us.data(), vs.data(),
                                            lods.data(), us.size(),
                                            addrs.data());
            out.insert(out.end(), addrs.begin(), addrs.end());
            if (out.size() >= cap)
                break;
        }
        return out;
    }();
    return stream;
}

std::string
bytesOf(const TextureCache &cache)
{
    CheckpointWriter w;
    cache.serialize(w);
    return w.bytes();
}

void
roundTrip(TextureCache &cache)
{
    CheckpointReader r("mid-stream", bytesOf(cache));
    cache.unserialize(r);
}

::testing::AssertionResult
sameState(const SetAssocCache &batched, const SetAssocCache &single)
{
    for (uint32_t s = 0; s < single.numSets(); ++s)
        for (uint32_t w = 0; w < single.numWays(); ++w)
            if (batched.lineTag(s, w) != single.lineTag(s, w) ||
                batched.lineStamp(s, w) != single.lineStamp(s, w))
                return ::testing::AssertionFailure()
                       << "set " << s << " way " << w << ": tag "
                       << batched.lineTag(s, w) << " vs "
                       << single.lineTag(s, w) << ", stamp "
                       << batched.lineStamp(s, w) << " vs "
                       << single.lineStamp(s, w);
    if (batched.stampClock() != single.stampClock())
        return ::testing::AssertionFailure() << "stamp clock";
    if (batched.accesses() != single.accesses() ||
        batched.misses() != single.misses())
        return ::testing::AssertionFailure() << "counters";
    if (bytesOf(batched) != bytesOf(single))
        return ::testing::AssertionFailure() << "checkpoint bytes";
    if (!batched.sameState(single))
        return ::testing::AssertionFailure() << "sameState()";
    return ::testing::AssertionSuccess();
}

/**
 * Drive twin caches over @p stream, one by accessBatch in batches
 * cycling through the lengths under test, one by access(); halfway
 * through, both go through a checkpoint round trip (which resets the
 * MRU hints).
 */
void
driveTwins(const CacheGeometry &geom,
           const std::vector<uint64_t> &stream)
{
    SetAssocCache batched(geom);
    SetAssocCache single(geom);
    constexpr size_t lengths[] = {0, 1, 7, 8, 4096 + 1};
    std::vector<uint8_t> miss;
    bool restored = false;
    size_t pos = 0;
    for (size_t round = 0; pos < stream.size(); ++round) {
        size_t n = std::min(lengths[round % std::size(lengths)],
                            stream.size() - pos);
        miss.assign(n + 1, 0xee);
        batched.accessBatch(stream.data() + pos, n, miss.data());
        for (size_t i = 0; i < n; ++i) {
            uint8_t want = single.access(stream[pos + i]) ? 0 : 1;
            ASSERT_EQ(miss[i], want)
                << "reference " << pos + i << " of batch " << round;
        }
        ASSERT_EQ(miss[n], 0xee) << "wrote past the batch";
        pos += n;
        ASSERT_TRUE(sameState(batched, single))
            << "after batch " << round << " (n=" << n << ")";

        if (!restored && pos >= stream.size() / 2) {
            restored = true;
            roundTrip(batched);
            roundTrip(single);
            ASSERT_TRUE(sameState(batched, single)) << "after restore";
        }
    }
    EXPECT_TRUE(restored);
    EXPECT_GT(single.misses(), 0u);
    EXPECT_GT(single.hits(), 0u);
}

const CacheGeometry kGeometries[] = {
    {16 * 1024, 1, 64},  // direct-mapped
    {16 * 1024, 4, 64},  // the paper's node cache
    {16 * 1024, 16, 64}, // 16-way
    {2 * 4 * 64, 4, 64}, // two sets
};

TEST(CacheBatch, RandomStreamMatchesPerAddressAccess)
{
    for (const CacheGeometry &g : kGeometries) {
        SCOPED_TRACE(std::to_string(g.sizeBytes) + " B " +
                     std::to_string(g.ways) + "-way");
        driveTwins(g, randomStream(60000, 17));
    }
}

TEST(CacheBatch, SamplerStreamMatchesPerAddressAccess)
{
    const std::vector<uint64_t> &stream = sceneStream();
    ASSERT_GT(stream.size(), 3u * 4097);
    for (const CacheGeometry &g : kGeometries) {
        SCOPED_TRACE(std::to_string(g.sizeBytes) + " B " +
                     std::to_string(g.ways) + "-way");
        driveTwins(g, stream);
    }
}

TEST(CacheBatch, PlantedLruSkipActsInsideTheBatch)
{
    // The planted bug lives in accessBatch's own hit paths (including
    // the same-line shortcut): a planted batched cache drifts from an
    // honest one, and matches a planted per-address twin exactly.
    const std::vector<uint64_t> &stream = sceneStream();
    CacheGeometry geom;
    SetAssocCache planted_batched(geom);
    SetAssocCache planted_single(geom);
    SetAssocCache honest_batched(geom);
    planted_batched.debugPlantLruSkip(16);
    planted_single.debugPlantLruSkip(16);
    std::vector<uint8_t> miss(stream.size());
    planted_batched.accessBatch(stream.data(), stream.size(),
                                miss.data());
    honest_batched.accessBatch(stream.data(), stream.size(),
                               miss.data());
    for (uint64_t a : stream)
        planted_single.access(a);
    EXPECT_TRUE(sameState(planted_batched, planted_single));
    EXPECT_FALSE(planted_batched.sameState(honest_batched));
}

TEST(CacheBatch, DefaultLoopMatchesAccessForOtherModels)
{
    const std::vector<uint64_t> &stream = sceneStream();
    const size_t n = std::min<size_t>(stream.size(), 50000);
    auto check = [&](TextureCache &batched, TextureCache &single) {
        std::vector<uint8_t> miss(n);
        batched.accessBatch(stream.data(), n, miss.data());
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(miss[i], single.access(stream[i]) ? 0 : 1) << i;
        EXPECT_EQ(batched.accesses(), single.accesses());
        EXPECT_EQ(batched.misses(), single.misses());
        EXPECT_EQ(bytesOf(batched), bytesOf(single));
    };
    CacheGeometry l1;
    CacheGeometry l2{256 * 1024, 8, 64};
    for (bool inclusive : {false, true}) {
        TwoLevelCache a(l1, l2, inclusive), b(l1, l2, inclusive);
        check(a, b);
        EXPECT_TRUE(a.sameState(b));
    }
    InfiniteCache ia, ib;
    check(ia, ib);
    NoCache na, nb;
    check(na, nb);
    PerfectCache pa, pb;
    check(pa, pb);
}

} // namespace
} // namespace texdist
