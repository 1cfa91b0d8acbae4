#include "cache/cache.hh"

#include <algorithm>
#include <bit>

#include "core/error.hh"
#include "sim/logging.hh"

namespace texdist
{

CacheKind
cacheKindFromString(const std::string &s)
{
    if (s == "setassoc")
        return CacheKind::SetAssoc;
    if (s == "perfect")
        return CacheKind::Perfect;
    if (s == "infinite")
        return CacheKind::Infinite;
    if (s == "none")
        return CacheKind::None;
    throw ParseError(ParseSurface::Cli, ParseRule::Unknown,
                     "unknown cache kind '" + s +
                         "' (want setassoc, perfect, infinite or "
                         "none)")
        .field("--cache");
}

const char *
to_string(CacheKind kind)
{
    switch (kind) {
      case CacheKind::SetAssoc: return "setassoc";
      case CacheKind::Perfect: return "perfect";
      case CacheKind::Infinite: return "infinite";
      case CacheKind::None: return "none";
    }
    return "?";
}

SetAssocCache::SetAssocCache(const CacheGeometry &geometry)
    : geom(geometry)
{
    if (geom.lineBytes == 0 || !std::has_single_bit(geom.lineBytes))
        texdist_fatal("line size must be a power of two");
    if (geom.ways == 0)
        texdist_fatal("associativity must be positive");
    if (geom.sizeBytes % (geom.ways * geom.lineBytes) != 0)
        texdist_fatal("cache size must be a multiple of way size");

    sets = geom.numSets();
    if (sets == 0 || !std::has_single_bit(sets))
        texdist_fatal("number of sets must be a power of two, got ",
                      sets);
    lineShift = std::countr_zero(geom.lineBytes);
    setShift = std::countr_zero(sets);
    tags.assign(size_t(sets) * geom.ways, invalidTag);
    lruStamp.assign(size_t(sets) * geom.ways, 0);
    mruWay.assign(sets, 0);
}

namespace
{

/**
 * Resolve @p tag within one set: true with @p way holding it, or
 * false with @p way the least-recently-used victim to fill — the
 * MRU probe and associative scan of SetAssocCache::access(), which
 * keeps its own inline copy on the single-address path. Touches no
 * state.
 */
inline bool
findWay(const uint64_t *set_tags, const uint64_t *set_lru,
        uint32_t ways, uint32_t mru, uint64_t tag, uint32_t &way)
{
    if (set_tags[mru] == tag) {
        way = mru;
        return true;
    }
    way = 0;
    uint64_t oldest = UINT64_MAX;
    for (uint32_t w = 0; w < ways; ++w) {
        if (set_tags[w] == tag) {
            way = w;
            return true;
        }
        if (set_lru[w] < oldest) {
            oldest = set_lru[w];
            way = w;
        }
    }
    return false;
}

} // namespace

void
TextureCache::accessBatch(const uint64_t *addrs, size_t n,
                          uint8_t *miss)
{
    for (size_t i = 0; i < n; ++i)
        miss[i] = access(addrs[i]) ? 0 : 1;
}

bool
SetAssocCache::access(uint64_t addr)
{
    ++_accesses;
    uint64_t line = addr >> lineShift;
    uint32_t set = uint32_t(line & (sets - 1));
    uint64_t tag = line >> setShift;

    uint64_t *set_tags = &tags[size_t(set) * geom.ways];
    uint64_t *set_lru = &lruStamp[size_t(set) * geom.ways];

    // Fast path: one probe of the set's MRU way. A hit here updates
    // exactly the state the associative scan would have (the LRU
    // stamp of the hit way), so the shortcut is invisible to miss
    // accounting, replacement and serialization.
    uint32_t mru = mruWay[set];
    if (set_tags[mru] == tag) {
        uint64_t stamp = ++stampCounter;
        if (!plantedSkipThisHit())
            set_lru[mru] = stamp;
        return true;
    }

    uint32_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (set_tags[w] == tag) {
            uint64_t stamp = ++stampCounter;
            if (!plantedSkipThisHit())
                set_lru[w] = stamp;
            mruWay[set] = w;
            return true;
        }
        if (set_lru[w] < oldest) {
            oldest = set_lru[w];
            victim = w;
        }
    }

    ++_misses;
    set_tags[victim] = tag;
    set_lru[victim] = ++stampCounter;
    mruWay[set] = victim;
    return false;
}

void
SetAssocCache::accessBatch(const uint64_t *addrs, size_t n,
                           uint8_t *miss)
{
    if (n == 0)
        return;
    // Locals, not members: the byte stores to `miss` may alias any
    // member, which would force a reload of each on every reference.
    const uint32_t line_shift = lineShift;
    const uint32_t set_shift = setShift;
    const uint64_t set_mask = sets - 1;
    const uint32_t ways = geom.ways;
    uint64_t *const tag_base = tags.data();
    uint64_t *const lru_base = lruStamp.data();
    uint32_t *const mru_base = mruWay.data();
    const bool planted = lruSkipPeriod != 0;
    uint64_t stamp = stampCounter;
    uint64_t misses = 0;

    // The line of the previous reference and the LRU slot of the way
    // it resolved to: hit or fill, that line is resident there now.
    // The initial value cannot equal the first line.
    uint64_t prev_line = ~(addrs[0] >> line_shift);
    uint64_t *prev_slot = nullptr;
    for (size_t i = 0; i < n; ++i) {
        const uint64_t line = addrs[i] >> line_shift;
        ++stamp;
        if (line == prev_line) {
            if (!planted || !plantedSkipThisHit())
                *prev_slot = stamp;
            miss[i] = 0;
            continue;
        }
        prev_line = line;
        const uint32_t set = uint32_t(line & set_mask);
        const uint64_t tag = line >> set_shift;
        uint64_t *set_tags = tag_base + size_t(set) * ways;
        uint64_t *set_lru = lru_base + size_t(set) * ways;

        uint32_t way;
        bool hit = findWay(set_tags, set_lru, ways, mru_base[set], tag,
                           way);
        mru_base[set] = way;
        prev_slot = set_lru + way;
        if (hit) {
            if (!planted || !plantedSkipThisHit())
                *prev_slot = stamp;
            miss[i] = 0;
        } else {
            ++misses;
            set_tags[way] = tag;
            *prev_slot = stamp;
            miss[i] = 1;
        }
    }
    stampCounter = stamp;
    _accesses += n;
    _misses += misses;
}

bool
SetAssocCache::sameState(const SetAssocCache &other) const
{
    return geom == other.geom && stampCounter == other.stampCounter &&
           _accesses == other._accesses &&
           _misses == other._misses && tags == other.tags &&
           lruStamp == other.lruStamp;
}

void
SetAssocCache::reset()
{
    std::fill(tags.begin(), tags.end(), invalidTag);
    std::fill(lruStamp.begin(), lruStamp.end(), 0);
    std::fill(mruWay.begin(), mruWay.end(), 0u);
    stampCounter = 0;
    _accesses = 0;
    _misses = 0;
}

void
TextureCache::serialize(CheckpointWriter &w) const
{
    w.section("cache");
    w.u8(uint8_t(kind()));
    w.u64(_accesses);
    w.u64(_misses);
}

void
TextureCache::unserialize(CheckpointReader &r)
{
    r.section("cache");
    uint8_t k = r.u8();
    if (k != uint8_t(kind()))
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache kind mismatch: file has " +
                             std::to_string(k) + ", machine has " +
                             to_string(kind()))
            .in(r.path())
            .field("cache");
    _accesses = r.u64();
    _misses = r.u64();
}

void
SetAssocCache::serialize(CheckpointWriter &w) const
{
    TextureCache::serialize(w);
    w.section("setassoc");
    w.u32(geom.sizeBytes);
    w.u32(geom.ways);
    w.u32(geom.lineBytes);
    w.u64(stampCounter);
    w.u64vec(tags);
    w.u64vec(lruStamp);
}

void
SetAssocCache::unserialize(CheckpointReader &r)
{
    TextureCache::unserialize(r);
    r.section("setassoc");
    CacheGeometry g;
    g.sizeBytes = r.u32();
    g.ways = r.u32();
    g.lineBytes = r.u32();
    if (!(g == geom))
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache geometry mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("setassoc");
    stampCounter = r.u64();
    tags = r.u64vec();
    lruStamp = r.u64vec();
    if (tags.size() != size_t(sets) * geom.ways ||
        lruStamp.size() != tags.size())
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache tag array size mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("setassoc");
    // The MRU hint is not checkpoint state: way 0 is as valid a
    // first probe as any, and the hit/miss stream is unaffected.
    std::fill(mruWay.begin(), mruWay.end(), 0u);
}

void
InfiniteCache::serialize(CheckpointWriter &w) const
{
    TextureCache::serialize(w);
    w.section("infinite");
    w.u32(lineShift);
    // Sorted so identical cache contents serialize to identical
    // bytes regardless of hash iteration order.
    std::vector<uint64_t> lines(seen.begin(), seen.end());
    std::sort(lines.begin(), lines.end());
    w.u64vec(lines);
}

void
InfiniteCache::unserialize(CheckpointReader &r)
{
    TextureCache::unserialize(r);
    r.section("infinite");
    uint32_t shift = r.u32();
    if (shift != lineShift)
        throw ParseError(ParseSurface::Checkpoint,
                         ParseRule::Mismatch,
                         "cache line size mismatch between "
                         "checkpoint and machine")
            .in(r.path())
            .field("infinite");
    std::vector<uint64_t> lines = r.u64vec();
    seen.clear();
    seen.insert(lines.begin(), lines.end());
}

bool
SetAssocCache::accessEvicting(uint64_t addr, uint64_t &evicted_addr,
                              bool &evicted)
{
    evicted = false;
    uint64_t line = addr >> lineShift;
    uint32_t set = uint32_t(line & (sets - 1));
    uint64_t tag = line >> setShift;
    const uint64_t *set_tags = &tags[size_t(set) * geom.ways];

    // Peek the victim before access() fills over it; the fill then
    // goes to exactly that way.
    uint32_t way;
    if (!findWay(set_tags, &lruStamp[size_t(set) * geom.ways],
                 geom.ways, mruWay[set], tag, way) &&
        set_tags[way] != invalidTag) {
        evicted = true;
        evicted_addr =
            ((set_tags[way] << setShift) | uint64_t(set)) << lineShift;
    }
    return access(addr);
}

void
SetAssocCache::invalidate(uint64_t line_addr)
{
    uint64_t line = line_addr >> lineShift;
    uint32_t set = uint32_t(line & (sets - 1));
    uint64_t tag = line >> setShift;
    uint64_t *set_tags = &tags[size_t(set) * geom.ways];
    uint64_t *set_lru = &lruStamp[size_t(set) * geom.ways];
    for (uint32_t w = 0; w < geom.ways; ++w) {
        if (set_tags[w] == tag) {
            set_tags[w] = invalidTag;
            set_lru[w] = 0;
            // The MRU hint may still point at this way; that is safe
            // (invalidTag never matches a real tag) and costs at most
            // one extra compare on the next access.
            return;
        }
    }
}

bool
SetAssocCache::probe(uint64_t line_addr) const
{
    uint64_t line = line_addr >> lineShift;
    uint32_t set = uint32_t(line & (sets - 1));
    uint64_t tag = line >> setShift;
    const uint64_t *set_tags = &tags[size_t(set) * geom.ways];
    for (uint32_t w = 0; w < geom.ways; ++w)
        if (set_tags[w] == tag)
            return true;
    return false;
}

InfiniteCache::InfiniteCache(uint32_t line_bytes)
{
    if (line_bytes == 0 || !std::has_single_bit(line_bytes))
        texdist_fatal("line size must be a power of two");
    lineShift = std::countr_zero(line_bytes);
}

bool
InfiniteCache::access(uint64_t addr)
{
    ++_accesses;
    uint64_t line = addr >> lineShift;
    if (seen.insert(line).second) {
        ++_misses;
        return false;
    }
    return true;
}

void
InfiniteCache::reset()
{
    seen.clear();
    _accesses = 0;
    _misses = 0;
}

std::unique_ptr<TextureCache>
makeCache(CacheKind kind, const CacheGeometry &geometry)
{
    switch (kind) {
      case CacheKind::SetAssoc:
        return std::make_unique<SetAssocCache>(geometry);
      case CacheKind::Perfect:
        return std::make_unique<PerfectCache>();
      case CacheKind::Infinite:
        return std::make_unique<InfiniteCache>(geometry.lineBytes);
      case CacheKind::None:
        return std::make_unique<NoCache>();
    }
    texdist_panic("unreachable cache kind");
}

} // namespace texdist
