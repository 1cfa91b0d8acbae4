/**
 * @file
 * Texture cache models.
 *
 * The paper's node cache (from Hakura & Gupta): 16 KB, 4-way set
 * associative, 64-byte lines, LRU, one 4x4 texel block per line.
 * Besides the real cache the experiments use a *perfect* cache
 * ("a cache that always hits; we do not take into account the
 * compulsory misses") for the load-balancing study, an *infinite*
 * cache (compulsory misses only) for ideal-locality measurements,
 * and a cacheless model (every access misses) as the 8-texels-per-
 * fragment reference point.
 */

#ifndef TEXDIST_CACHE_CACHE_HH
#define TEXDIST_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/stats.hh"

namespace texdist
{

/** Geometry of a set-associative cache. */
struct CacheGeometry
{
    uint32_t sizeBytes = 16 * 1024; ///< total capacity
    uint32_t ways = 4;              ///< associativity
    uint32_t lineBytes = 64;        ///< line size (one texel block)

    uint32_t
    numSets() const
    {
        return sizeBytes / (ways * lineBytes);
    }

    bool operator==(const CacheGeometry &) const = default;
};

/** Which cache model to instantiate. */
enum class CacheKind
{
    SetAssoc, ///< real LRU set-associative cache
    Perfect,  ///< always hits (paper's "perfect cache")
    Infinite, ///< compulsory misses only
    None,     ///< every access misses (cacheless machine)
};

/** Parse "setassoc" / "perfect" / "infinite" / "none". */
CacheKind cacheKindFromString(const std::string &s);

/** Printable name of a cache kind. */
const char *to_string(CacheKind kind);

/**
 * Abstract texel cache. Accesses are per *texel address*; fills and
 * miss accounting are per *line*. A miss implies one line fetched
 * from the external texture memory.
 */
class TextureCache
{
  public:
    virtual ~TextureCache() = default;

    /**
     * Look up one texel address.
     * @return true on hit; false on miss (the line is filled)
     */
    virtual bool access(uint64_t addr) = 0;

    /**
     * Look up @p n texel addresses in order; miss[i] receives 1 when
     * addrs[i] missed and 0 when it hit. Equal by definition to @p n
     * in-order access() calls: state, statistics and checkpoint
     * bytes end exactly where those calls would leave them. The
     * default is that loop.
     */
    virtual void accessBatch(const uint64_t *addrs, size_t n,
                             uint8_t *miss);

    /** Drop all cached state and statistics. */
    virtual void reset() = 0;

    /**
     * Serialize the full cache state — tag arrays, replacement
     * state and statistics — so a restored cache is *warm*: it
     * hits and misses exactly as the original would have.
     */
    virtual void serialize(CheckpointWriter &w) const;

    /**
     * Restore from a checkpoint written by the same cache model
     * with the same geometry; fatal on a mismatch.
     */
    virtual void unserialize(CheckpointReader &r);

    /** Model name for reports. */
    virtual CacheKind kind() const = 0;

    uint64_t accesses() const { return _accesses; }
    uint64_t misses() const { return _misses; }
    uint64_t hits() const { return _accesses - _misses; }

    /** Lines fetched from memory — equals misses. */
    uint64_t linesFetched() const { return _misses; }

    /**
     * Texels transferred over the external bus per miss: a full
     * 16-texel line for line-based caches, a single texel for the
     * cacheless machine (whose texel-to-fragment ratio the paper
     * quotes as 8), zero for the perfect cache.
     */
    virtual uint32_t texelsPerFill() const = 0;

    /** Total texels fetched from external memory. */
    uint64_t
    texelsFetched() const
    {
        return _misses * texelsPerFill();
    }

    double
    missRate() const
    {
        return _accesses ? double(_misses) / double(_accesses) : 0.0;
    }

  protected:
    uint64_t _accesses = 0;
    uint64_t _misses = 0;
};

/**
 * LRU set-associative cache over line addresses.
 */
class SetAssocCache : public TextureCache
{
  public:
    explicit SetAssocCache(const CacheGeometry &geometry);

    bool access(uint64_t addr) override;

    /**
     * Fast path over the default loop: a reference to the same line
     * as the reference before it is a hit on the way that reference
     * resolved to, so it only refreshes that way's LRU stamp — no set
     * index, no tag compare. Every other reference takes access()'s
     * MRU probe, associative scan and fill. Tags, stamps, the stamp
     * clock and the counters end bit-identical to per-address
     * access(); only the MRU hint may differ.
     */
    void accessBatch(const uint64_t *addrs, size_t n,
                     uint8_t *miss) override;

    void reset() override;
    void serialize(CheckpointWriter &w) const override;
    void unserialize(CheckpointReader &r) override;
    CacheKind kind() const override { return CacheKind::SetAssoc; }

    uint32_t
    texelsPerFill() const override
    {
        return geom.lineBytes / 4;
    }

    const CacheGeometry &geometry() const { return geom; }

    /** True when the given line currently resides in the cache. */
    bool probe(uint64_t line_addr) const;

    /**
     * access() variant reporting the line a miss evicted: when the
     * fill replaced a valid resident line, @p evicted_addr receives
     * that line's byte address and @p evicted is set. Used by the
     * inclusive two-level hierarchy to back-invalidate L1 on an L2
     * eviction; hit behavior and statistics are identical to
     * access().
     */
    bool accessEvicting(uint64_t addr, uint64_t &evicted_addr,
                        bool &evicted);

    /**
     * Drop one line (no-op when absent). Back-invalidation for the
     * inclusive hierarchy: statistics and the LRU clock are
     * untouched, the way simply becomes the set's eviction victim.
     */
    void invalidate(uint64_t line_addr);

    // --- oracle inspection (read-only structural state) --------------

    uint32_t numSets() const { return sets; }
    uint32_t numWays() const { return geom.ways; }
    bool
    lineValid(uint32_t set, uint32_t way) const
    {
        return tags[size_t(set) * geom.ways + way] != invalidTag;
    }
    uint64_t
    lineTag(uint32_t set, uint32_t way) const
    {
        return tags[size_t(set) * geom.ways + way];
    }
    uint64_t
    lineStamp(uint32_t set, uint32_t way) const
    {
        return lruStamp[size_t(set) * geom.ways + way];
    }
    /** Byte address of the line held by (set, way); valid lines only. */
    uint64_t
    lineAddress(uint32_t set, uint32_t way) const
    {
        uint64_t line =
            (lineTag(set, way) << setShift) | uint64_t(set);
        return line << lineShift;
    }
    /** Global LRU clock; equals accesses() on an honest cache. */
    uint64_t stampClock() const { return stampCounter; }
    /** Current MRU-hint way of @p set (always < numWays()). */
    uint32_t mruHint(uint32_t set) const { return mruWay[set]; }

    /**
     * True when @p other holds the same checkpoint state: geometry,
     * tags, LRU stamps, stamp clock and counters. The MRU hint and
     * the planted-bug knob are not state and are not compared.
     */
    bool sameState(const SetAssocCache &other) const;

    /**
     * Planted-bug hook for the oracle's mutation self-test: every
     * @p period-th hit skips refreshing the hit way's LRU stamp (the
     * classic forgotten-touch bug). Miss accounting, the stamp clock
     * and all structural invariants stay intact — only replacement
     * decisions drift, which is exactly the class of bug the shadow
     * reference model exists to catch. 0 disables (the default;
     * nothing in the simulator ever enables this).
     */
    void
    debugPlantLruSkip(uint32_t period)
    {
        lruSkipPeriod = period;
        lruSkipCountdown = period;
    }

  private:
    static constexpr uint64_t invalidTag = UINT64_MAX;

    /** True when the planted LRU bug says to skip this hit's touch. */
    bool
    plantedSkipThisHit()
    {
        if (lruSkipPeriod == 0)
            return false;
        if (--lruSkipCountdown > 0)
            return false;
        lruSkipCountdown = lruSkipPeriod;
        return true;
    }

    CacheGeometry geom;
    // texlint: allow(checkpoint) derived from geom; restore only validates it
    uint32_t sets;
    // texlint: allow(checkpoint) derived from geom in the constructor
    uint32_t lineShift;
    // texlint: allow(checkpoint) derived from geom in the constructor
    uint32_t setShift; ///< countr_zero(sets), hoisted off access()
    // tags[set * ways + way]; lruStamp parallel array. A global
    // monotonic counter implements true LRU.
    std::vector<uint64_t> tags;
    std::vector<uint64_t> lruStamp;
    /**
     * Most-recently-used way per set — a pure lookup accelerator.
     * Texel streams revisit the same line in runs (the 8 refs of one
     * fragment straddle at most 4 lines), so one probe of the MRU
     * way resolves most hits without the associative scan. Never
     * serialized: any value is only a hint, and a wrong hint costs
     * one extra compare, never a wrong result.
     */
    // texlint: allow(checkpoint) pure accelerator hint, reset on restore
    std::vector<uint32_t> mruWay;
    uint64_t stampCounter = 0;
    // texlint: allow(checkpoint) debug-only planted-bug knob, never set in sims
    uint32_t lruSkipPeriod = 0;
    // texlint: allow(checkpoint) debug-only planted-bug countdown
    uint32_t lruSkipCountdown = 0;
};

/** Cache that always hits. */
class PerfectCache : public TextureCache
{
  public:
    bool
    access(uint64_t) override
    {
        ++_accesses;
        return true;
    }

    void
    reset() override
    {
        _accesses = 0;
        _misses = 0;
    }

    CacheKind kind() const override { return CacheKind::Perfect; }
    uint32_t texelsPerFill() const override { return 0; }
};

/** Cache with infinite capacity: only compulsory misses. */
class InfiniteCache : public TextureCache
{
  public:
    explicit InfiniteCache(uint32_t line_bytes = 64);

    bool access(uint64_t addr) override;
    void reset() override;
    void serialize(CheckpointWriter &w) const override;
    void unserialize(CheckpointReader &r) override;
    CacheKind kind() const override { return CacheKind::Infinite; }

    uint32_t
    texelsPerFill() const override
    {
        return (1u << lineShift) / 4;
    }

    /** Number of distinct lines ever touched. */
    uint64_t uniqueLines() const { return seen.size(); }

  private:
    uint32_t lineShift;
    std::unordered_set<uint64_t> seen;
};

/** No cache: every access goes to memory. */
class NoCache : public TextureCache
{
  public:
    bool
    access(uint64_t) override
    {
        ++_accesses;
        ++_misses;
        return false;
    }

    void
    reset() override
    {
        _accesses = 0;
        _misses = 0;
    }

    CacheKind kind() const override { return CacheKind::None; }
    uint32_t texelsPerFill() const override { return 1; }
};

/** Factory over CacheKind. */
std::unique_ptr<TextureCache> makeCache(CacheKind kind,
                                        const CacheGeometry &geometry);

} // namespace texdist

#endif // TEXDIST_CACHE_CACHE_HH
