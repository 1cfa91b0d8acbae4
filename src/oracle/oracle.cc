#include "oracle/oracle.hh"

#include <algorithm>

#include "core/audit.hh"
#include "core/error.hh"
#include "raster/raster.hh"
#include "texture/sampler.hh"

namespace texdist
{

namespace
{

std::string
nodeLabel(size_t i)
{
    return "node" + std::to_string(i);
}

} // namespace

OracleEngine::OracleEngine(const MachineConfig &config,
                           OracleMode mode)
    : cfg(config), _mode(mode)
{
}

OracleEngine::~OracleEngine()
{
    for (size_t i = 0; i < nodes.size(); ++i) {
        nodes[i]->setCoverageSink(nullptr);
        if (shadows[i]) {
            // Peel the shadow off: the node gets its original cache
            // back and outlives the oracle unchanged.
            std::unique_ptr<TextureCache> wrapper =
                nodes[i]->takeCacheForOracle();
            nodes[i]->installCacheForOracle(
                shadows[i]->releaseInner());
        }
    }
}

void
OracleEngine::attachNode(TextureNode &node)
{
    ShadowedCache *shadow = nullptr;
    if (_mode == OracleMode::Full &&
        ShadowedCache::canShadow(node.cache())) {
        auto wrapper = std::make_unique<ShadowedCache>(
            node.takeCacheForOracle(), nodeLabel(nodes.size()));
        shadow = wrapper.get();
        node.installCacheForOracle(std::move(wrapper));
    }
    nodes.push_back(&node);
    shadows.push_back(shadow);
}

void
OracleEngine::attach(SequenceMachine &machine)
{
    for (uint32_t i = 0; i < machine.numNodes(); ++i)
        attachNode(machine.node(i));
}

bool
OracleEngine::checksFrame(uint32_t frame) const
{
    switch (_mode) {
      case OracleMode::Off:
        return false;
      case OracleMode::Cheap:
        // Sampled: the first frame (cold caches, the common source
        // of structural bugs) and every fourth after it.
        return frame % 4 == 0;
      case OracleMode::Full:
        return true;
    }
    return false;
}

void
OracleEngine::beginFrame(uint32_t frame, const Scene &scene)
{
    if (_mode == OracleMode::Off)
        return;
    checkingThisFrame = checksFrame(frame);
    if (!checkingThisFrame) {
        for (TextureNode *node : nodes)
            node->setCoverageSink(nullptr);
        return;
    }

    if (!coverage || coverage->width() != scene.screenWidth ||
        coverage->height() != scene.screenHeight)
        coverage = std::make_unique<FrameCoverage>(
            scene.screenWidth, scene.screenHeight);
    else
        coverage->reset();

    busAtFrameStart.assign(nodes.size(), BusSnapshot{});
    for (size_t i = 0; i < nodes.size(); ++i) {
        nodes[i]->setCoverageSink(coverage.get());
        if (const TextureBus *bus = nodes[i]->bus()) {
            busAtFrameStart[i].texels = bus->texelsTransferred();
            busAtFrameStart[i].transfers = bus->transfers();
        }
        if (const auto *two_level = dynamic_cast<const TwoLevelCache *>(
                &realCache(*nodes[i])))
            busAtFrameStart[i].l1Misses = two_level->l1Misses();
    }
}

const TextureCache &
OracleEngine::realCache(const TextureNode &node)
{
    const TextureCache &c = node.cache();
    if (const auto *shadow = dynamic_cast<const ShadowedCache *>(&c))
        return shadow->innerCache();
    return c;
}

void
OracleEngine::checkCoverage(const Scene &scene,
                            std::vector<std::string> &violations)
{
    // Ground truth: an independent rasterization of the scene. This
    // shares the rasterizer with the simulation (the fill rule must
    // match by definition) but none of the dispatch, distribution,
    // FIFO or fault machinery the check exists to verify.
    const uint32_t w = coverage->width();
    const uint32_t h = coverage->height();
    std::vector<uint32_t> expected(size_t(w) * h, 0);
    Rect screen = scene.screenRect();
    for (const TexTriangle &tri : scene.triangles) {
        const Texture &tex = scene.textures.get(tri.tex);
        TriangleRaster raster(tri, tex.width(), tex.height());
        if (raster.degenerate())
            continue;
        raster.rasterize(screen, [&](const Fragment &frag) {
            ++expected[size_t(frag.y) * w + size_t(frag.x)];
        });
    }

    if (coverage->outOfBounds() > 0)
        violations.push_back(
            "coverage: " + std::to_string(coverage->outOfBounds()) +
            " fragment(s) drawn outside the screen");

    uint64_t mismatched = 0;
    constexpr uint64_t report = 4;
    for (uint32_t y = 0; y < h; ++y) {
        for (uint32_t x = 0; x < w; ++x) {
            uint32_t want = expected[size_t(y) * w + x];
            uint32_t got = coverage->count(x, y);
            if (want == got)
                continue;
            if (mismatched < report)
                violations.push_back(
                    "coverage: pixel (" + std::to_string(x) + ", " +
                    std::to_string(y) + ") rasterizes to " +
                    std::to_string(want) + " fragment(s) but " +
                    std::to_string(got) + " were drawn");
            ++mismatched;
        }
    }
    if (mismatched > report)
        violations.push_back("coverage: " +
                             std::to_string(mismatched) +
                             " mismatched pixel(s) in total");
}

void
OracleEngine::checkConservation(const FrameResult &result,
                                std::vector<std::string> &violations,
                                int32_t &first_node)
{
    auto flag = [&](size_t i) {
        if (first_node < 0)
            first_node = int32_t(i);
    };

    for (size_t i = 0;
         i < nodes.size() && i < result.nodes.size(); ++i) {
        const TextureNode &node = *nodes[i];
        const NodeResult &nr = result.nodes[i];
        const TextureCache &cache = realCache(node);

        // External texel accounting: misses × fill size, exactly.
        uint64_t fill = cache.texelsPerFill();
        if (nr.texelsFetched != nr.cacheMisses * fill) {
            violations.push_back(
                "texel conservation: " + nodeLabel(i) + " fetched " +
                std::to_string(nr.texelsFetched) + " texels for " +
                std::to_string(nr.cacheMisses) + " misses of " +
                std::to_string(fill) + " texels each");
            flag(i);
        }

        // Bus conservation: the bus moved exactly what the cache
        // hierarchy requested — per line for single-level caches,
        // per L1 fill for the two-level hierarchy (whose board bus
        // carries every L1 miss, L2 hit or not).
        const TextureBus *bus = node.bus();
        if (!bus)
            continue;
        uint64_t bus_texels =
            bus->texelsTransferred() - busAtFrameStart[i].texels;
        uint64_t bus_transfers =
            bus->transfers() - busAtFrameStart[i].transfers;
        uint64_t want_transfers = nr.cacheMisses;
        uint64_t want_texels = nr.texelsFetched;
        if (const auto *two_level =
                dynamic_cast<const TwoLevelCache *>(&cache)) {
            uint64_t l1_misses = two_level->l1Misses() -
                                 busAtFrameStart[i].l1Misses;
            want_transfers = l1_misses;
            want_texels = l1_misses * fill;
        }
        if (bus_transfers != want_transfers ||
            bus_texels != want_texels) {
            violations.push_back(
                "bus conservation: " + nodeLabel(i) + " bus moved " +
                std::to_string(bus_texels) + " texels in " +
                std::to_string(bus_transfers) +
                " transfers, but the cache hierarchy requested " +
                std::to_string(want_texels) + " in " +
                std::to_string(want_transfers));
            flag(i);
        }
    }
}

namespace
{

/** Structural sanity of one set-associative level. */
void
checkLevel(const SetAssocCache &cache, const std::string &what,
           std::vector<std::string> &violations)
{
    if (cache.stampClock() != cache.accesses())
        violations.push_back(
            "cache structure: " + what + " LRU clock at " +
            std::to_string(cache.stampClock()) + " after " +
            std::to_string(cache.accesses()) + " accesses");

    for (uint32_t s = 0; s < cache.numSets(); ++s) {
        if (cache.mruHint(s) >= cache.numWays()) {
            violations.push_back(
                "cache structure: " + what + " set " +
                std::to_string(s) + " MRU hint " +
                std::to_string(cache.mruHint(s)) + " out of range");
            continue;
        }
        for (uint32_t w = 0; w < cache.numWays(); ++w) {
            if (!cache.lineValid(s, w))
                continue;
            if (cache.lineStamp(s, w) > cache.stampClock()) {
                violations.push_back(
                    "cache structure: " + what + " set " +
                    std::to_string(s) + " way " + std::to_string(w) +
                    " stamped " +
                    std::to_string(cache.lineStamp(s, w)) +
                    ", ahead of the clock at " +
                    std::to_string(cache.stampClock()));
            }
            for (uint32_t w2 = w + 1; w2 < cache.numWays(); ++w2) {
                if (!cache.lineValid(s, w2))
                    continue;
                if (cache.lineTag(s, w) == cache.lineTag(s, w2))
                    violations.push_back(
                        "cache structure: " + what + " set " +
                        std::to_string(s) + " holds tag " +
                        std::to_string(cache.lineTag(s, w)) +
                        " in ways " + std::to_string(w) + " and " +
                        std::to_string(w2));
                if (cache.lineStamp(s, w) == cache.lineStamp(s, w2))
                    violations.push_back(
                        "cache structure: " + what + " set " +
                        std::to_string(s) + " ways " +
                        std::to_string(w) + " and " +
                        std::to_string(w2) +
                        " share LRU stamp " +
                        std::to_string(cache.lineStamp(s, w)));
            }
        }
    }
}

} // namespace

void
OracleEngine::checkStructure(std::vector<std::string> &violations,
                             int32_t &first_node)
{
    auto flag = [&](size_t i) {
        if (first_node < 0)
            first_node = int32_t(i);
    };

    for (size_t i = 0; i < nodes.size(); ++i) {
        size_t before = violations.size();

        if (shadows[i]) {
            std::vector<std::string> diverged =
                shadows[i]->drainViolations();
            violations.insert(violations.end(), diverged.begin(),
                              diverged.end());
        }

        const TextureCache &cache = realCache(*nodes[i]);
        const std::string label = nodeLabel(i);
        if (const auto *two_level =
                dynamic_cast<const TwoLevelCache *>(&cache)) {
            checkLevel(two_level->l1(), label + " L1", violations);
            checkLevel(two_level->l2(), label + " L2", violations);
            if (two_level->l1().accesses() != two_level->accesses())
                violations.push_back(
                    "cache structure: " + label + " L1 saw " +
                    std::to_string(two_level->l1().accesses()) +
                    " accesses but the hierarchy counted " +
                    std::to_string(two_level->accesses()));
            if (two_level->l2().accesses() !=
                two_level->l1Misses())
                violations.push_back(
                    "cache structure: " + label + " L2 saw " +
                    std::to_string(two_level->l2().accesses()) +
                    " accesses but L1 missed " +
                    std::to_string(two_level->l1Misses()) +
                    " times");
            if (two_level->inclusive()) {
                const SetAssocCache &l1 = two_level->l1();
                for (uint32_t s = 0; s < l1.numSets(); ++s)
                    for (uint32_t w = 0; w < l1.numWays(); ++w)
                        if (l1.lineValid(s, w) &&
                            !two_level->l2().probe(
                                l1.lineAddress(s, w)))
                            violations.push_back(
                                "cache inclusion: " + label +
                                " L1 line " +
                                std::to_string(
                                    l1.lineAddress(s, w)) +
                                " has no L2 copy (strict L1 ⊆ L2 "
                                "promised)");
            }
        } else if (const auto *flat =
                       dynamic_cast<const SetAssocCache *>(&cache)) {
            checkLevel(*flat, label, violations);
        }

        if (violations.size() != before)
            flag(i);
    }
}

void
OracleEngine::endFrame(uint32_t frame, const Scene &scene,
                       const Distribution *dist,
                       const FrameResult *result, uint64_t end_cycle)
{
    if (_mode == OracleMode::Off || !checkingThisFrame)
        return;
    // Watchdog-failed frames were cut short mid-work by design:
    // nothing is conserved, and the driver reports the failure
    // through its own exit code.
    if (result && result->failed)
        return;

    std::vector<std::string> violations;
    int32_t first_node = -1;

    checkCoverage(scene, violations);
    _lastDigest = coverage->digest();

    if (result) {
        if (dist) {
            AuditReport audit =
                auditFrame(scene, *dist, cfg, *result);
            violations.insert(violations.end(),
                              audit.violations.begin(),
                              audit.violations.end());
        }
        checkConservation(*result, violations, first_node);
    }

    checkStructure(violations, first_node);

    if (!violations.empty())
        throw OracleError(frame, first_node, end_cycle,
                          std::move(violations));
}

} // namespace texdist
