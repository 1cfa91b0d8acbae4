#include "core/node.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "cache/two_level.hh"
#include "core/error.hh"
#include "texture/sampler.hh"

namespace texdist
{

namespace
{

std::string
nodeName(uint32_t id)
{
    return "node" + std::to_string(id);
}

} // namespace

TextureNode::TextureNode(uint32_t id, const MachineConfig &config,
                         const TextureManager &textures_)
    : SimObject(nodeName(id)), nodeId(id), cfg(config),
      textures(textures_),
      cache_(config.hasL2 && config.cacheKind == CacheKind::SetAssoc
                 ? std::make_unique<TwoLevelCache>(config.cacheGeom,
                                                   config.l2Geom,
                                                   config.l2Inclusive)
                 : makeCache(config.cacheKind, config.cacheGeom)),
      fifo(config.triangleBufferSize)
{
    if (!cfg.infiniteBus)
        bus_ = std::make_unique<TextureBus>(cfg.busTexelsPerCycle);
    retireRing.assign(std::max(1u, cfg.prefetchQueueDepth), 0);

    _stats.addStat("pixels", "fragments drawn", _pixelsDrawn);
    _stats.addStat("triangles", "triangles received",
                   _trianglesReceived);
    _stats.addStat("setup_bound", "setup-engine-bound triangles",
                   _setupBound);
    _stats.addStat("stall_cycles", "prefetch-queue stall cycles",
                   _stallCycles);
    _stats.addStat("idle_cycles", "cycles starved for triangles",
                   _idleCycles);
    _stats.addStat("setup_wait_cycles",
                   "cycles waiting for the setup engine",
                   _setupWaitCycles);
    _stats.addStat("triangle_pixels",
                   "pixels per received triangle", trianglePixels);
}

void
TextureNode::setSlowdown(uint32_t factor)
{
    if (factor == 0)
        texdist_fatal(name(), ": slowdown factor must be positive");
    _slowdown = factor;
}

void
TextureNode::markDead()
{
    if (_dead)
        texdist_panic(name(), ": killed twice");
    _dead = true;
}

void
TextureNode::stallBus(Tick from, Tick until)
{
    if (!bus_) {
        warn(name(), ": bus-stall fault ignored (infinite bus)");
        return;
    }
    bus_->stall(from, until);
}

Tick
TextureNode::scanFragments(TextureId texid, const FragmentView &frags,
                           Tick start)
{
    const size_t count = frags.count;
    Tick cpu = start;
    // A slowed node (slow-node fault) takes `_slowdown` cycles per
    // fragment instead of one, as if its clock were divided.
    const Tick cycles_per_frag = _slowdown;

    if (cfg.cacheKind == CacheKind::Perfect) {
        // Perfect cache, no memory traffic: the scan proceeds at one
        // pixel per cycle with nothing to wait for.
        cpu += count * cycles_per_frag;
        lastRetire = std::max(lastRetire, cpu);
        return cpu;
    }

    const Texture &tex = textures.get(texid);
    const size_t depth = retireRing.size();
    TextureBus *const bus = bus_.get();
    const uint32_t texels_per_fill = cache_->texelsPerFill();

    // One miss byte per texel reference of the current chunk, filled
    // by probeChunk before the loop reads it. On the stack: a
    // per-node heap buffer adds to every node's footprint.
    uint8_t miss[chunk * texelsPerFragment];
    static_assert(texelsPerFragment == sizeof(uint64_t));
    for (size_t base = 0; base < count; base += chunk) {
        const size_t m = std::min(chunk, count - base);
        // Planted texel leak: the triangle's very first texel
        // reference bypasses the cache, unbalancing the
        // accesses-per-pixel ledger for the oracle to notice.
        probeChunk(tex, frags, base, m, _plantTexelLeak && base == 0,
                   miss);

        for (size_t i = 0; i < m; ++i) {
            // Wait for a prefetch-queue slot: the fragment issued
            // `depth` fragments ago must have retired.
            Tick issue = std::max(cpu, retireRing[ringHead]);
            _stallCycles += issue - cpu;

            Tick retire = issue + 1;
            // The fragment's 8 miss bytes as one word: most
            // fragments hit on every reference and skip the bus.
            uint64_t missed;
            std::memcpy(&missed, miss + i * texelsPerFragment,
                        sizeof missed);
            if (missed != 0 && bus) {
                // One line transfer per missed reference, in
                // reference order (each miss byte is exactly 1).
                for (int k = std::popcount(missed); k > 0; --k)
                    retire = std::max(
                        retire, bus->transfer(issue, texels_per_fill));
            }

            retireRing[ringHead] = retire;
            if (++ringHead == depth)
                ringHead = 0;
            lastRetire = std::max(lastRetire, retire);
            cpu = issue + cycles_per_frag;
        }
    }
    return cpu;
}

void
TextureNode::probeChunk(const Texture &tex, const FragmentView &frags,
                        size_t base, size_t m, bool skip_first,
                        uint8_t *miss)
{
    if (uScratch.size() < m) {
        uScratch.resize(m);
        vScratch.resize(m);
        lodScratch.resize(m);
        addrScratch.resize(m * size_t(texelsPerFragment));
    }
    for (size_t i = 0; i < m; ++i) {
        const NodeFragment &frag = frags[base + i];
        uScratch[i] = frag.u;
        vScratch[i] = frag.v;
        lodScratch[i] = frag.lod;
    }
    TrilinearSampler::generateBatch(tex, uScratch.data(),
                                    vScratch.data(), lodScratch.data(),
                                    m, addrScratch.data());

    const size_t first = skip_first ? 1 : 0;
    if (skip_first)
        miss[0] = 0;
    cache_->accessBatch(addrScratch.data() + first,
                        m * size_t(texelsPerFragment) - first,
                        miss + first);
}

// texlint: phase(parallel) runs inside a drain task that owns this
// node outright; touches no state outside the node
void
TextureNode::functionalScan(TextureId texid, const FragmentView &frags)
{
    const size_t count = frags.count;
    if (_dead || _frozen)
        texdist_panic(name(), ": functionalScan on a dead or frozen "
                      "node");

    ++_trianglesReceived;
    _pixelsDrawn += count;
    trianglePixels.add(double(count));

    if (cfg.cacheKind == CacheKind::Perfect) {
        // The detailed scan never consults a perfect cache either.
        return;
    }

    // The detailed scan's probe, minus the timing loop: only the
    // cache sees the references.
    const Texture &tex = textures.get(texid);
    uint8_t miss[chunk * texelsPerFragment];
    for (size_t base = 0; base < count; base += chunk)
        probeChunk(tex, frags, base, std::min(chunk, count - base),
                   false, miss);
}

// texlint: phase(parallel) runs inside a drain task that owns this
// node outright; touches no state outside the node
Tick
TextureNode::consumeDirect(Tick push_tick, TextureId tex,
                           const FragmentView &frags)
{
    const size_t count = frags.count;
    if (_dead)
        texdist_panic(name(), ": consumeDirect on a dead node");
    Tick start = nextStart(push_tick);
    _idleCycles += start > cpuTime ? start - cpuTime : 0;

    ++_trianglesReceived;
    _pixelsDrawn += count;
    trianglePixels.add(double(count));

    if (coverage) {
        for (size_t i = 0; i < count; ++i) {
            uint32_t x = frags[i].x;
            if (_plantCoverageShift && i == 0)
                x ^= 1u;
            coverage->note(x, frags[i].y);
        }
    }

    Tick scan_end = scanFragments(tex, frags, start);
    Tick setup_end = start + Tick(cfg.setupCyclesPerTriangle) * _slowdown;
    if (scan_end < setup_end) {
        // Fewer pixels than the setup engine needs cycles: the
        // triangle is setup-bound (the paper's small-tile penalty).
        ++_setupBound;
        _setupWaitCycles += setup_end - scan_end;
        cpuTime = setup_end;
    } else {
        cpuTime = scan_end;
    }
    return start;
}

Tick
TextureNode::finishTime() const
{
    return std::max(cpuTime, lastRetire);
}

void
TextureNode::serialize(CheckpointWriter &w) const
{
    w.section("node");
    w.u32(nodeId);
    w.u64(cpuTime);
    w.u64(lastRetire);
    w.u64(ringHead);
    w.u64vec(retireRing);
    w.u32(_slowdown);
    w.u8(_frozen ? 1 : 0);
    w.u8(_dead ? 1 : 0);
    w.u64(_pixelsDrawn);
    w.u64(_trianglesReceived);
    w.u64(_setupBound);
    w.u64(_stallCycles);
    w.u64(_idleCycles);
    w.u64(_setupWaitCycles);
    trianglePixels.serialize(w);

    w.section("node-fifo");
    w.u64(fifo.maxOccupancy());
    w.u64(fifo.size());
    for (const TriangleWork &work : fifo.contents()) {
        w.u32(work.tex);
        w.u64(work.frags.size());
        for (const NodeFragment &frag : work.frags) {
            w.u32(frag.x);
            w.u32(frag.y);
            w.u32(std::bit_cast<uint32_t>(frag.u));
            w.u32(std::bit_cast<uint32_t>(frag.v));
            w.u32(std::bit_cast<uint32_t>(frag.lod));
        }
    }

    cache_->serialize(w);
    w.u8(bus_ ? 1 : 0);
    if (bus_)
        bus_->serialize(w);
}

void
TextureNode::unserialize(CheckpointReader &r)
{
    r.section("node");
    uint32_t id = r.u32();
    if (id != nodeId)
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "node id mismatch: file has node" +
                             std::to_string(id) + ", restoring " +
                             name())
            .in(r.path())
            .field("node");
    cpuTime = r.u64();
    lastRetire = r.u64();
    ringHead = r.u64();
    retireRing = r.u64vec();
    if (retireRing.size() != std::max(1u, cfg.prefetchQueueDepth) ||
        ringHead >= retireRing.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "prefetch ring mismatch for " + name())
            .in(r.path())
            .field("node");
    _slowdown = r.u32();
    _frozen = r.u8() != 0;
    _dead = r.u8() != 0;
    _pixelsDrawn = r.u64();
    _trianglesReceived = r.u64();
    _setupBound = r.u64();
    _stallCycles = r.u64();
    _idleCycles = r.u64();
    _setupWaitCycles = r.u64();
    trianglePixels.unserialize(r);

    r.section("node-fifo");
    uint64_t high_water = r.u64();
    uint64_t occupancy = r.u64();
    fifo.clear();
    for (uint64_t i = 0; i < occupancy; ++i) {
        TriangleWork work;
        work.tex = r.u32();
        uint64_t nfrags = r.u64();
        // The count comes from the file; cap the pre-allocation so a
        // hostile value cannot demand memory the payload could never
        // back (each fragment is 20 payload bytes — a short payload
        // throws Truncated on the first missing read below).
        work.frags.reserve(std::min<uint64_t>(nfrags, 4096));
        for (uint64_t f = 0; f < nfrags; ++f) {
            NodeFragment frag;
            frag.x = uint16_t(r.u32());
            frag.y = uint16_t(r.u32());
            frag.u = std::bit_cast<float>(r.u32());
            frag.v = std::bit_cast<float>(r.u32());
            frag.lod = std::bit_cast<float>(r.u32());
            work.frags.push_back(frag);
        }
        fifo.forcePush(std::move(work));
    }
    fifo.restoreHighWater(high_water);

    cache_->unserialize(r);
    bool had_bus = r.u8() != 0;
    if (had_bus != (bus_ != nullptr))
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "bus presence mismatch for " + name())
            .in(r.path())
            .field("node");
    if (bus_)
        bus_->unserialize(r);

}

} // namespace texdist
